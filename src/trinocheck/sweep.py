"""Batch sweeps over primes and report writing.

Reports are byte-deterministic: record order is (p, n, claim, k) ascending,
n None first, regardless of worker count, residues are serialized as
decimal strings so downstream consumers with 53-bit floats cannot corrupt
them, and nothing run-dependent (timestamps, durations, host names) ever
enters the output.
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
#: processes; it forks min(jobs, primes) - 1, as it checks a share itself.
MAX_JOBS = 256

_WIRE_NAME = {c: c.value for c in ClaimId}  # read per record: no enum property call


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

    def __init__(self, records: int, passed: int) -> None:
        self.records = records
        self.passed = passed

    @property
    def failed(self) -> int:
        return self.records - self.passed


def _passed(r: CheckResult) -> int:
    """How many of r's instances pass; one list compare when all of them do."""
    return len(r.lhs) if r.lhs == r.rhs else sum(map(operator.eq, r.lhs, r.rhs))


def _slice(r: CheckResult, start: int, stop: int) -> CheckResult:
    """r's instances start..stop-1 as a record of their own."""
    k = None if r.k is None else r.k + start
    return CheckResult(r.claim, r.p, r.n, k, r.modulus, r.lhs[start:stop], r.rhs[start:stop])


class Summary(ClaimTally):
    """The tally over all claims, each claim's tally, in catalog order and
    for the claims with instances only, and the first failing instance, as
    a one-instance record: built from a tally (counts, first) as
    _report_prime returns one."""

    def __init__(self, counts: list[int], first: tuple | None) -> None:
        super().__init__(sum(counts[0::2]), sum(counts[1::2]))
        self.per_claim = {c: ClaimTally(counts[2 * i], counts[2 * i + 1])
                          for c, i in CLAIM_ORDER.items() if counts[2 * i]}
        self.first_failure = None if first is None else CheckResult(ClaimId(first[0]), *first[1:])


def _check_prime(p: int, config: SweepConfig) -> list[CheckResult]:
    """The records of `config`'s selected claims at prime p, in report
    order: each checker in CHECKERS that emits a selected claim runs once,
    as run(ctx, nmax), and its records of selected claims are kept."""
    ctx = PrimeContext(p)
    selected = set(config.claims)
    records = [r for run, emits in CHECKERS.items() if not selected.isdisjoint(emits)
               for r in run(ctx, config.nmax) if r.claim in selected]
    records.sort(key=lambda r: (-1 if r.n is None else r.n, CLAIM_ORDER[r.claim]))
    return records


def _report_prime(
    records: list[CheckResult], config: SweepConfig, form: tuple, digits: list[str], write: Callable,
) -> tuple:
    """Judge, tally and render a prime's `records`, in report order, in one
    pass: each record's lines, in the FORMATS entry `form`, go to `write` as
    bytes, one call per record.  Return the tally, as marshal data that a
    forked worker sends as it is: (counts, first), where counts[2 * i] and
    counts[2 * i + 1] are the instances and passes of the claim at
    CLAIM_ORDER i, and first is None or the fields of the first failing
    instance, a one-instance record, with the claim's wire name.

    A record over k is judged, and its parts built, once per key (both lists'
    ids, k and modulus), as the Cor4 records of every n share one row and one
    pattern: the memo holds [pass count, parts] from the first record with a
    key to the last.  `records` keeps every list alive, so no id is reused.
    With summary_only, a record over k is written as one aggregate of its
    passed-count (lhs) and instance-count (rhs), unreduced, so it passes iff
    every instance does.  With fail_fast, the pass ends with the record of
    the first failing instance, cut after it."""
    last = {(id(r.lhs), id(r.rhs), r.k, r.modulus): i
            for i, r in enumerate(records) if r.k is not None}
    memo: dict[tuple, list] = {}
    counts = [0] * (2 * len(CLAIM_ORDER))
    first = None
    for i, r in enumerate(records):
        if config.fail_fast and first:
            break
        size = len(r.lhs)
        held = None
        if r.k is None:  # one instance
            passed = int(r.lhs == r.rhs)
        else:
            key = id(r.lhs), id(r.rhs), r.k, r.modulus
            held = memo.pop(key, None) or [_passed(r), None]
            if last[key] > i:
                memo[key] = held
            passed = held[0]
            if config.summary_only:
                r = CheckResult(r.claim, r.p, r.n, None, r.modulus, [passed], [size])
                passed, size = int(passed == size), 1
        if passed < size and first is None:
            j = next(compress(count(), map(operator.ne, r.lhs, r.rhs)))
            first = (_WIRE_NAME[r.claim], *_slice(r, j, j + 1)[1:])
            if config.fail_fast:
                passed, size, held = j, j + 1, None
                r = _slice(r, 0, size)
        c = 2 * CLAIM_ORDER[r.claim]
        counts[c] += size
        counts[c + 1] += passed
        if size == 1:
            write(_line(r, passed == 1, form).encode())
            continue
        if held is None:
            held = [passed, None]
        if held[1] is None:
            held[1] = _parts(r, passed == size, form, digits)
        else:
            held[1][0::7] = [form[1](r)] * size  # only the heads differ
        write("".join(held[1]).encode())
    return counts, first


#: The most bytes of a report written in one piece, unless one record's
#: lines, never split, are longer: a process holds one piece at a time.
PIECE_BYTES = 1 << 16


def _in_pieces(unit: Callable, primes: list[int], sink: Callable) -> Iterator:
    """unit(p, w) for each of `primes`, what it writes to `w` sent to `sink`
    in PIECE_BYTES pieces of whole writes, a prime's last before its result."""
    piece = bytearray()

    def ship() -> None:
        sink(bytes(piece))
        piece.clear()

    def write(data: bytes) -> None:
        if piece and len(piece) + len(data) > PIECE_BYTES:
            ship()
        piece.extend(data)

    for p in primes:
        result = unit(p, write)
        ship()
        yield result


def _jsonl_head(r: CheckResult) -> str:
    return f'{{"claim":"{_WIRE_NAME[r.claim]}","p":{r.p},"n":{"null" if r.n is None else r.n},"k":'


def _jsonl_trailer(s: Summary) -> str:
    per_claim = ",".join(
        f'"{_WIRE_NAME[c]}":{{"records":{t.records},"passed":{t.passed},"failed":{t.failed}}}'
        for c, t in s.per_claim.items()
    )
    f = s.first_failure
    first = "null" if f is None else _line(f, False, FORMATS["jsonl"])[:-1]
    return (
        f'{{"summary":{{"records":{s.records},"passed":{s.passed},"failed":{s.failed},'
        f'"per_claim":{{{per_claim}}},"first_failure":{first}}}}}'
    )


def _csv_head(r: CheckResult) -> str:
    return f'{_WIRE_NAME[r.claim]},{r.p},{"" if r.n is None else r.n},'


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


def _line(r: CheckResult, ok: bool, form: tuple) -> str:
    """The line of r, a one-instance record, in the FORMATS entry `form`."""
    _, head, no_k, modulus, between, ends, _ = form
    return (f"{head(r)}{no_k if r.k is None else r.k}{modulus.format(r.modulus)}"
            f"{r.lhs[0]}{between}{r.rhs[0]}{ends[ok]}")


def _parts(r: CheckResult, ok: bool, form: tuple, digits: list[str]) -> list[str]:
    """r's lines in the FORMATS entry `form` as parts to join, seven a line,
    with no Python step per instance: a passing line's parts repeated once per
    instance, then the k, lhs and rhs slots (and, unless `ok`, the ends of
    failing lines) set by slice assignment.  r has a k, as a record of several
    instances does.  digits[i] is repr(i), grown on demand."""
    _, head, _, modulus, between, ends, _ = form
    n = len(r.lhs)
    parts = [head(r), "", modulus.format(r.modulus), "", between, "", ends[True]] * n
    mod_p = r.modulus == r.p  # then digits reaches p, and renders sides whose values index it
    digits.extend(map(repr, range(len(digits), max(r.k + n, r.p if mod_p else 0))))
    parts[1::7] = digits[r.k : r.k + n]
    sides = (r.lhs,) if ok else (r.lhs, r.rhs)
    fits = mod_p and all(0 <= min(side) and max(side) < len(digits) for side in sides)
    lhs = list(map(digits.__getitem__ if fits else repr, r.lhs))  # repr is str, at half the cost
    parts[3::7] = lhs
    if ok:
        parts[5::7] = lhs
    else:
        parts[5::7] = map(digits.__getitem__ if fits else repr, r.rhs)
        parts[6::7] = map(ends.__getitem__, map(operator.eq, r.lhs, r.rhs))
    return parts


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

    Each prime's records (from _check_prime) are judged, tallied and rendered
    in one pass (by _report_prime) where the prime is checked, and its bytes
    go to `out` in pieces (by _in_pieces) before the next prime is checked.
    At --jobs N this process checks every N-th prime itself and forked
    workers the others (by pool.forked_map), which ship each prime's pieces
    and tally, never a record.  The tallies' counts are added up here, and
    --fail-fast stops at the first prime whose tally has a first failure;
    the Summary is built once, at the end.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    form = FORMATS[fmt]
    header, *_, trailer = form
    digits: list[str] = []

    def unit(p: int, write: Callable) -> tuple:
        return _report_prime(_check_prime(p, config), config, form, digits, write)

    primes = sieve_primes(config.pmin, config.pmax)
    jobs = min(config.jobs, len(primes))
    if jobs > 1:
        from .pool import forked_map  # here, not at the top: a --jobs 1 run never loads it

        tallies = forked_map(unit, primes, jobs, out.write)
    else:
        tallies = _in_pieces(unit, primes, out.write)
    counts, first = [0] * (2 * len(CLAIM_ORDER)), None
    try:
        out.write(header.encode())
        for prime_counts, prime_first in tallies:
            counts = list(map(operator.add, counts, prime_counts))
            first = first or prime_first
            if config.fail_fast and prime_first:
                break
    finally:
        tallies.close()  # stops the workers, if any
    summary = Summary(counts, first)
    out.write((trailer(summary) + "\n").encode())
    return summary
