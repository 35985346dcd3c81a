"""Batch sweeps over primes and report writing.

Reports are byte-deterministic: record order is (p, n, claim, k) ascending
regardless of worker count, residues are serialized as decimal strings so
downstream consumers with 53-bit floats cannot corrupt them, and nothing
run-dependent (timestamps, durations, host names) ever enters the output.
"""

from __future__ import annotations

import io
import operator
import os
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from itertools import compress, count

from .congruences import CHECKERS, CLAIM_ORDER, CheckResult, ClaimId
from .modular import MAX_SIEVE_BOUND, PrimeContext, sieve_primes

#: Upper bound on --nmax; bounds the report size, linear in nmax.  Each
#: checker still runs once per prime at any nmax; its work grows with nmax
#: only through the Glaisher values and the TripleSum_a lists, one per n:
#: the rows are two O(p) anchor rows at any nmax.
MAX_NMAX = 64

#: Upper bound on --jobs.  The sweep forks all of its workers before the
#: first prime, so the bound keeps a typo from forking thousands of
#: processes; it never forks more workers than there are primes.
MAX_JOBS = 256


class ConfigError(ValueError):
    """Invalid sweep configuration; reported before any work begins."""


class SweepConfig(namedtuple("SweepConfig", "pmin pmax nmax claims jobs fail_fast summary_only",
                             defaults=(5, 1009, 8, tuple(ClaimId), 1, False, False))):
    """What to sweep and how, with the CLI's defaults: primes pmin..pmax,
    n = 1..nmax, the claims, forked workers, --fail-fast and --summary-only;
    sweep_report() takes the report format, and the caller chooses where
    the report goes.  `claims` may be any iterable of ClaimId members or
    wire names, but not one name; it is stored as the tuple of the named
    members in catalog order, so configs that run the same sweep are equal.
    Immutable, and validated however it is built: by the constructor, _make
    or _replace."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if isinstance(self.claims, str) or not isinstance(self.claims, Iterable):
            raise ConfigError(f"claims must be an iterable of claim names, got {self.claims!r}")
        selected = set()
        for entry in self.claims:
            try:
                selected.add(ClaimId(entry))
            except ValueError:
                known = ", ".join(c.value for c in ClaimId)
                raise ConfigError(f"unknown claim {entry!r}; known claims: {known}") from None
        if not selected:
            raise ConfigError("claim set must be nonempty")
        for name in ("pmin", "pmax", "nmax", "jobs"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an int, got {value!r}")
        for name in ("fail_fast", "summary_only"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be a bool, got {value!r}")
        if not 5 <= self.pmin <= self.pmax:
            raise ConfigError(
                f"need 5 <= pmin <= pmax, got pmin={self.pmin}, pmax={self.pmax}"
            )
        if self.pmax > MAX_SIEVE_BOUND:
            raise ConfigError(f"pmax={self.pmax} exceeds {MAX_SIEVE_BOUND}")
        if not 1 <= self.nmax <= MAX_NMAX:
            raise ConfigError(f"need 1 <= nmax <= {MAX_NMAX}, got {self.nmax}")
        if not 1 <= self.jobs <= MAX_JOBS:
            raise ConfigError(f"need 1 <= jobs <= {MAX_JOBS}, got {self.jobs}")
        if self.jobs > 1 and not hasattr(os, "fork"):
            raise ConfigError("jobs > 1 needs os.fork, which this platform lacks")
        claims = tuple(c for c in ClaimId if c in selected)
        return super().__new__(cls, **{**self._asdict(), "claims": claims})

    @classmethod
    def _make(cls, iterable):  # namedtuple's _make, and so _replace, skip __new__
        return cls(*iterable)


class ClaimTally:
    """Instances tallied, and how many of them passed."""

    def __init__(self) -> None:
        self.records = 0
        self.passed = 0

    @property
    def failed(self) -> int:
        return self.records - self.passed


def _first_mismatch(r: CheckResult) -> int | None:
    """The position of r's first failing instance, or None if all pass."""
    return next(compress(count(), map(operator.ne, r.lhs, r.rhs)), None)


def _passed(r: CheckResult) -> int:
    """How many of r's instances pass; one list compare when all of them do."""
    return len(r.lhs) if r.lhs == r.rhs else sum(map(operator.eq, r.lhs, r.rhs))


def _slice(r: CheckResult, start: int, stop: int) -> CheckResult:
    """r's instances start..stop-1 as a record of their own."""
    k = None if r.k is None else r.k + start
    return CheckResult(r.claim, r.p, r.n, k, r.modulus, r.lhs[start:stop], r.rhs[start:stop])


class Summary(ClaimTally):
    """The tally over all claims, each claim's tally and the first failing
    instance, as a one-instance record."""

    def __init__(self) -> None:
        super().__init__()
        self.per_claim: dict[ClaimId, ClaimTally] = {}
        self.first_failure: CheckResult | None = None

    def merge(self, later: Summary) -> None:
        """Add the tally of the records that follow this one's in the
        report; `later`'s claim tallies may become this one's."""
        self.records += later.records
        self.passed += later.passed
        for claim, tally in later.per_claim.items():
            mine = self.per_claim.get(claim)
            if mine is None:
                self.per_claim[claim] = tally
            else:
                mine.records += tally.records
                mine.passed += tally.passed
        if self.first_failure is None:
            self.first_failure = later.first_failure


def _check_prime(p: int, config: SweepConfig) -> list[CheckResult]:
    """All records for one prime of `config`'s sweep in report order, as
    sweep_report tallies and renders them where the prime is checked.

    Each checker in CHECKERS runs once (with nmax when it takes it) if it
    emits a selected claim, and only the selected claims' records are kept.
    With summary_only, each record over k becomes one aggregate carrying its
    passed-count in lhs and its instance-count in rhs, as plain counts (not
    reduced mod the claim's modulus), so an aggregate passes iff every
    instance does; a record that shares both lists with the one before it
    (the Cor4 row and pattern at every n) reuses its count.  With fail_fast,
    the records end with the first failing instance: the record holding it
    is cut after it.
    """
    ctx = PrimeContext(p)
    selected = set(config.claims)
    nmax = config.nmax
    records: list[CheckResult] = []
    for run, (per_n, emits) in CHECKERS.items():
        if selected.isdisjoint(emits):
            continue
        records.extend(r for r in (run(ctx, nmax) if per_n else run(ctx)) if r.claim in selected)
    if config.summary_only:
        prev = None
        for i, r in enumerate(records):
            if r.k is None:
                continue
            if prev is None or r.lhs is not prev.lhs or r.rhs is not prev.rhs:
                passed = _passed(r)
            prev = r
            records[i] = CheckResult(r.claim, p, r.n, None, r.modulus, [passed], [len(r.lhs)])
    records.sort(key=lambda r: (-1 if r.n is None else r.n, CLAIM_ORDER[r.claim]))
    if config.fail_fast:
        for i, r in enumerate(records):
            j = _first_mismatch(r)
            if j is not None:
                return records[:i] + [_slice(r, 0, j + 1)]
    return records


#: The most bytes a forked worker ships in one piece, unless one record's
#: lines are longer: this process holds one piece at a time.
PIECE_BYTES = 1 << 16


def _forked_map(unit: Callable, primes: list[int], workers: int, write: Callable) -> Iterator:
    """unit(p, w) for each of `primes` in order, on `workers` forked
    processes; the bytes each unit hands to its `w` go to `write` here.

    Prime i goes to worker i % workers, which runs unit on its primes in
    order.  Per prime, the worker pickles down its own pipe the bytes its
    unit wrote, in pieces of at most PIECE_BYTES that never split one
    write, then the unit's result (never bytes).  Reading prime i from
    worker i % workers keeps the order; each piece is handed to `write` as
    it is read, and the result is yielded.  A full pipe blocks its worker,
    so a slow reader holds the workers back instead of piling finished
    primes up in this process.  A worker's exception is re-raised here; a
    worker that dies without one is reported with its wait status.  On
    every way out, the workers are killed and reaped.
    """
    import pickle  # here, not at the top: a --jobs 1 run starts without them
    import signal

    pids: list[int] = []
    pipes: list[io.BufferedReader] = []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd, "rb"))
            # Ctrl-C waits until the child is inside _work's try and the
            # parent has the pid to reap
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
            try:
                pid = os.fork()
                if pid == 0:
                    _work(write_fd, pipes, mask, primes[w::workers], unit)
                pids.append(pid)
            finally:
                os.close(write_fd)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for i, p in enumerate(primes):
            while True:
                try:
                    message = pickle.load(pipes[i % workers])
                except (EOFError, pickle.UnpicklingError):
                    pid = pids.pop(i % workers)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    how = f"exit code {code}" if code >= 0 else signal.Signals(-code).name
                    raise RuntimeError(
                        f"worker {i % workers} (pid {pid}) ended before p = {p}: {how}"
                    ) from None
                if type(message) is not bytes:
                    break
                write(message)
            if isinstance(message, BaseException):
                raise message
            yield message
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)


def _work(
    write_fd: int, pipes: list[io.BufferedReader], mask: set, primes: list[int], unit: Callable,
) -> None:
    """A forked worker: for each of `primes`, pickle down `write_fd` the
    bytes that unit(p, w) hands to `w`, in pieces, then its result; or the
    exception that stopped it.  Leave through os._exit, so that nothing of
    the parent's stack (its report sink, its unflushed stdout) runs or is
    flushed here.  `pipes` are the parent's read ends, closed here so that
    a worker whose parent is gone fails its next write; `mask` is the signal
    mask to restore."""
    import pickle
    import signal

    code = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for pipe in pipes:
            pipe.close()
        with open(write_fd, "wb") as out:
            piece = io.BytesIO()

            def ship() -> None:  # the bytes written since the last piece, if any
                if piece.tell():
                    pickle.dump(piece.getvalue(), out, pickle.HIGHEST_PROTOCOL)
                    piece.seek(0)
                    piece.truncate()

            def write(data: bytes) -> None:
                if piece.tell() + len(data) > PIECE_BYTES:
                    ship()
                piece.write(data)

            try:
                for p in primes:
                    result = unit(p, write)
                    ship()
                    pickle.dump(result, out, pickle.HIGHEST_PROTOCOL)
                    out.flush()
            except BaseException as exc:
                pickle.dump(exc, out, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _jsonl_head(r: CheckResult) -> str:
    return f'{{"claim":"{r.claim.value}","p":{r.p},"n":{"null" if r.n is None else r.n},"k":'


def _jsonl_trailer(s: Summary) -> str:
    per_claim = ",".join(
        f'"{c.value}":{{"records":{t.records},"passed":{t.passed},"failed":{t.failed}}}'
        for c, t in s.per_claim.items()
    )
    f = s.first_failure
    first = "null" if f is None else _lines(f, FORMATS["jsonl"], [])[:-1]
    return (
        f'{{"summary":{{"records":{s.records},"passed":{s.passed},"failed":{s.failed},'
        f'"per_claim":{{{per_claim}}},"first_failure":{first}}}}}'
    )


def _csv_head(r: CheckResult) -> str:
    return f'{r.claim.value},{r.p},{"" if r.n is None else r.n},'


def _csv_trailer(s: Summary) -> str:
    return f'summary,,,,,{s.passed},{s.records},{"true" if s.failed == 0 else "false"}'


#: format -> (header, head, no_k, modulus, between, ends, trailer): instance i
#: of record r is the line head(r) + k + modulus.format(r.modulus) + lhs +
#: between + rhs + ends[lhs == rhs], with k = r.k + i (no_k if r.k is None)
#: and ends = (fail, pass), newline included.  Trailers carry no newline.
FORMATS = {
    "jsonl": ("", _jsonl_head, "null", ',"modulus":{},"lhs":"', '","rhs":"',
              ('","pass":false}\n', '","pass":true}\n'), _jsonl_trailer),
    "csv": ("claim,p,n,k,modulus,lhs,rhs,pass\n", _csv_head, "", ",{},", ",",
            (",false\n", ",true\n"), _csv_trailer),
}


def _lines(r: CheckResult, form: tuple, digits: list[str]) -> str:
    """r's lines in the FORMATS entry `form`, with no Python step per instance:
    a passing line's parts repeated once per instance, then the k, lhs and
    rhs slots (and the ends of failing lines) set by slice assignment.
    digits[i] is repr(i), grown on demand."""
    _, head, no_k, modulus, between, ends, _ = form
    n = len(r.lhs)
    parts = [head(r), no_k, modulus.format(r.modulus), "", between, "", ends[True]] * n
    if r.k is not None:
        digits.extend(map(repr, range(len(digits), r.k + n)))
        parts[1::7] = digits[r.k : r.k + n]
    lhs = list(map(repr, r.lhs))  # an int's repr is its str, at half the cost
    parts[3::7] = lhs
    if r.lhs == r.rhs:
        parts[5::7] = lhs
    else:
        parts[5::7] = map(repr, r.rhs)
        parts[6::7] = map(ends.__getitem__, map(operator.eq, r.lhs, r.rhs))
    return "".join(parts)


def _render(
    records: list[CheckResult], form: tuple, digits: list[str], write: Callable
) -> Summary:
    """Tally `records` and hand each one's lines (by _lines, in the FORMATS
    entry `form`) to `write` as bytes, one call per record; return their
    tally."""
    summary = Summary()
    per_claim = summary.per_claim
    for r in records:
        n = len(r.lhs)
        passed = _passed(r)
        tally = per_claim.get(r.claim)
        if tally is None:
            tally = per_claim[r.claim] = ClaimTally()
        tally.records += n
        tally.passed += passed
        summary.records += n
        summary.passed += passed
        if passed < n and summary.first_failure is None:
            i = _first_mismatch(r)
            summary.first_failure = _slice(r, i, i + 1)
        write(_lines(r, form, digits).encode())
    return summary


def sweep_report(config: SweepConfig, fmt: str, out: io.BufferedIOBase) -> Summary:
    """Run `config`'s sweep and write its report to `out`, one line per
    instance; return the summary.

    jsonl: one compact object per instance (a record over k gives one line
    per k) with keys claim, p, n, k, modulus, lhs, rhs, pass (residues as
    decimal strings; absent n/k as null), then a {"summary": ...} trailer
    object with per_claim in claim order and the first failing instance.

    csv: same columns with a header row and empty cells for absent n/k, then
    a trailer row with claim "summary" carrying passed-count in the lhs
    column and record-count in the rhs column.

    Every string field is a claim's wire name (a plain word) or a decimal
    integer, so no field needs JSON escaping or CSV quoting.  The trailer is
    written last, so a report without one is incomplete.

    Each prime is tallied and rendered (by _render) where it is checked.  At
    jobs 1 each record is written to `out` as soon as it is rendered, one
    write per record.  A forked worker ships its primes' rendered bytes and
    each prime's tally, never a record, and this process writes the bytes
    and adds up the tallies.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    form = FORMATS[fmt]
    header, *_, trailer = form
    digits: list[str] = []

    def unit(p: int, write: Callable) -> Summary:
        return _render(_check_prime(p, config), form, digits, write)

    primes = sieve_primes(config.pmin, config.pmax)
    workers = min(config.jobs, len(primes))
    if workers > 1:
        tallies = _forked_map(unit, primes, workers, out.write)
    else:
        tallies = (unit(p, out.write) for p in primes)
    summary = Summary()
    try:
        out.write(header.encode())
        for tally in tallies:
            summary.merge(tally)
            if config.fail_fast and tally.failed:
                break
    finally:
        tallies.close()  # stops the workers, if any
    summary.per_claim = {c: summary.per_claim[c] for c in ClaimId if c in summary.per_claim}
    out.write((trailer(summary) + "\n").encode())
    return summary
