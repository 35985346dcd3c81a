"""Batch sweeps over primes and report rendering.

Reports are byte-deterministic: record order is (p, n, claim, k) ascending
regardless of worker count, residues are serialized as decimal strings so
downstream consumers with 53-bit floats cannot corrupt them, and nothing
run-dependent (timestamps, durations, host names) ever enters the output.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

from .claims import CheckResult, ClaimId, parse_claim, record_sort_key, result
from .congruences import CLAIM_REGISTRY
from .modular import MAX_SIEVE_BOUND, PrimeContext, sieve_primes

#: Upper bound on --nmax; keeps the n*p - 1 row computations inside a
#: desk-scale time budget.
MAX_NMAX = 64

FORMATS = ("jsonl", "csv")

_CSV_HEADER = ("claim", "p", "n", "k", "modulus", "lhs", "rhs", "pass")


class ConfigError(ValueError):
    """Invalid sweep configuration; reported before any work begins."""


@dataclass(frozen=True)
class SweepConfig:
    """What to sweep and how to report it."""

    pmin: int = 5
    pmax: int = 1009
    nmax: int = 8
    claims: tuple[ClaimId, ...] = tuple(ClaimId)
    fmt: str = "jsonl"
    out: str | None = None
    jobs: int = 1
    fail_fast: bool = False
    summary_only: bool = False

    def __post_init__(self) -> None:
        if not 5 <= self.pmin <= self.pmax:
            raise ConfigError(
                f"need 5 <= pmin <= pmax, got pmin={self.pmin}, pmax={self.pmax}"
            )
        if self.pmax > MAX_SIEVE_BOUND:
            raise ConfigError(f"pmax={self.pmax} exceeds {MAX_SIEVE_BOUND}")
        if not 1 <= self.nmax <= MAX_NMAX:
            raise ConfigError(f"need 1 <= nmax <= {MAX_NMAX}, got {self.nmax}")
        if not self.claims:
            raise ConfigError("claim set must be nonempty")
        if self.fmt not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}, got {self.fmt!r}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")


def parse_claims(text: str) -> tuple[ClaimId, ...]:
    """Parse a comma-separated claim list into canonical order."""
    try:
        chosen = {parse_claim(name.strip()) for name in text.split(",") if name.strip()}
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not chosen:
        raise ConfigError("claim set must be nonempty")
    return tuple(c for c in ClaimId if c in chosen)


@dataclass
class ClaimTally:
    records: int = 0
    passed: int = 0

    @property
    def failed(self) -> int:
        return self.records - self.passed


@dataclass
class Summary:
    records: int
    passed: int
    failed: int
    per_claim: dict[ClaimId, ClaimTally]
    first_failure: CheckResult | None


@dataclass
class Report:
    records: list[CheckResult]
    summary: Summary


def _summarize(records: list[CheckResult]) -> Summary:
    per_claim: dict[ClaimId, ClaimTally] = {}
    passed = 0
    first_failure = None
    for r in records:
        tally = per_claim.setdefault(r.claim, ClaimTally())
        tally.records += 1
        if r.passed:
            tally.passed += 1
            passed += 1
        elif first_failure is None:
            first_failure = r
    ordered = {c: per_claim[c] for c in ClaimId if c in per_claim}
    return Summary(len(records), passed, len(records) - passed, ordered, first_failure)


def _collapse(records: list[CheckResult]) -> list[CheckResult]:
    """Fold runs of per-instance records (those with an index k) into one
    aggregate per (claim, p, n).

    Aggregates carry passed-count in lhs and instance-count in rhs, so the
    CheckResult rule pass <=> lhs == rhs still holds.
    """
    out: list[CheckResult] = []
    group: list[CheckResult] = []

    def flush() -> None:
        if not group:
            return
        head = group[0]
        passed = sum(1 for g in group if g.passed)
        out.append(
            result(head.claim, head.p, head.modulus, passed, len(group), n=head.n)
        )
        group.clear()

    for r in records:
        if r.k is None:
            flush()
            out.append(r)
            continue
        if group and (group[0].claim, group[0].p, group[0].n) != (r.claim, r.p, r.n):
            flush()
        group.append(r)
    flush()
    return out


def _check_prime(
    p: int, claims: tuple[ClaimId, ...], nmax: int, summary_only: bool
) -> list[CheckResult]:
    """All records for one prime, sorted (collapsed when summary_only); this
    is the parallel work unit, so a worker sends back only what the report
    keeps.

    Each distinct registry spec runs once (once per n when per_n), and a
    record is kept only if its claim is selected and is registered to the
    spec that produced it.  Collapsing one prime at a time is exact because
    every aggregate belongs to a single (claim, p, n).
    """
    ctx = PrimeContext(p)
    records: list[CheckResult] = []
    for spec in dict.fromkeys(CLAIM_REGISTRY[c] for c in claims):
        keep = {c for c in claims if CLAIM_REGISTRY[c] is spec}
        calls = [(ctx, n) for n in range(1, nmax + 1)] if spec.per_n else [(ctx,)]
        for args in calls:
            records.extend(r for r in spec.run(*args) if r.claim in keep)
    records.sort(key=record_sort_key)
    return _collapse(records) if summary_only else records


def run_sweep(config: SweepConfig) -> Report:
    """Run every applicable (claim, p, n) instance and return a deterministic
    report.

    With fail_fast the record stream (the collapsed stream when
    summary_only) is truncated immediately after the first failing record
    (identical truncation point at any worker count).
    """
    primes = sieve_primes(config.pmin, config.pmax)
    records: list[CheckResult] = []
    work_args = (config.claims, config.nmax, config.summary_only)

    def consume(prime_records: list[CheckResult]) -> bool:
        if config.fail_fast:
            for i, r in enumerate(prime_records):
                if not r.passed:
                    records.extend(prime_records[: i + 1])
                    return True
        records.extend(prime_records)
        return False

    if config.jobs == 1 or len(primes) <= 1:
        for p in primes:
            if consume(_check_prime(p, *work_args)):
                break
    else:
        executor = ProcessPoolExecutor(max_workers=config.jobs)
        try:
            work = executor.map(
                _check_prime, primes, *(repeat(a) for a in work_args), chunksize=1
            )
            for prime_records in work:
                if consume(prime_records):
                    break
        finally:
            executor.shutdown(cancel_futures=True)
    return Report(records, _summarize(records))


def _record_obj(r: CheckResult) -> dict:
    return {
        "claim": r.claim.value,
        "p": r.p,
        "n": r.n,
        "k": r.k,
        "modulus": r.modulus,
        "lhs": str(r.lhs),
        "rhs": str(r.rhs),
        "pass": r.passed,
    }


def _summary_obj(s: Summary) -> dict:
    return {
        "records": s.records,
        "passed": s.passed,
        "failed": s.failed,
        "per_claim": {
            c.value: {"records": t.records, "passed": t.passed, "failed": t.failed}
            for c, t in s.per_claim.items()
        },
        "first_failure": None if s.first_failure is None else _record_obj(s.first_failure),
    }


def _dumps(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def render(report: Report, fmt: str) -> bytes:
    """Serialize a report.

    jsonl: one compact object per record with keys claim, p, n, k, modulus,
    lhs, rhs, pass (residues as decimal strings; absent n/k as null), then a
    {"summary": ...} trailer object.

    csv: same columns with a header row and empty cells for absent n/k, then
    a trailer row with claim "summary" carrying passed-count in the lhs
    column and record-count in the rhs column.
    """
    if fmt == "jsonl":
        lines = [_dumps(_record_obj(r)) for r in report.records]
        lines.append(_dumps({"summary": _summary_obj(report.summary)}))
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for r in report.records:
            writer.writerow(
                [
                    r.claim.value,
                    r.p,
                    "" if r.n is None else r.n,
                    "" if r.k is None else r.k,
                    r.modulus,
                    r.lhs,
                    r.rhs,
                    "true" if r.passed else "false",
                ]
            )
        s = report.summary
        writer.writerow(
            [
                "summary", "", "", "", "",
                s.passed, s.records,
                "true" if s.failed == 0 else "false",
            ]
        )
        return buf.getvalue().encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")
