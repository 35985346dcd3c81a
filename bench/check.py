"""Independent checker for trinocheck reports.

Imports nothing from trinocheck.  Everything it compares against is
computed here from the claim catalog in the README: the set and order of
instances, each claim's modulus, the Carlitz verdicts (from `math.comb` and
`pow`), a seeded sample of left sides (from binomial sums), and the summary
trailer (from a recount of the records).

One operation is one report record.  `check_report` returns which
operations failed and why; a record fails when any check rejects it, and a
fault in the report as a whole (bad header, wrong trailer, unparsable
tail) fails every record, because the report's verdict cannot be trusted.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable


@dataclass(frozen=True)
class Claim:
    """One catalog row: modulus power, whether it takes n, its k range and
    the primes it applies to."""

    name: str
    power: int
    per_n: bool
    k_range: Callable[[int], range] | None = None
    applies: Callable[[int], bool] = lambda p: True


def _mod3(r: int) -> Callable[[int], bool]:
    return lambda p: p % 3 == r


def _mod6(r: int) -> Callable[[int], bool]:
    return lambda p: p % 6 == r


#: The claim catalog in report order (the README's claim table).
CATALOG: tuple[Claim, ...] = (
    Claim("Thm1_Eq2", 2, True),
    Claim("Thm1_Eq4", 2, True),
    Claim("Thm2_Eq6", 1, False),
    Claim("Thm2_Eq7", 1, False),
    Claim("Prop3_Eq9", 2, True),
    Claim("Prop3_Eq10", 2, True),
    Claim("Cor4_Eq11", 2, True, lambda p: range(p)),
    Claim("TripleSum_a", 2, True, lambda p: range((p - 3) // 3 + 1)),
    Claim("Babbage", 2, False),
    Claim("Wolstenholme", 3, False),
    Claim("Glaisher", 3, True),
    Claim("Morley", 3, False),
    Claim("Carlitz", 4, False),
    Claim("HalfRowBinom", 1, False, lambda p: range(1, (p - 1) // 4 + 1)),
    Claim("GL0", 1, False),
    Claim("GL", 1, False),
    Claim("GL2", 1, False),
    Claim("Cong0", 1, False, lambda p: range(1, p)),
    Claim("Cong1", 1, False, lambda p: range(1, (p - 1) // 2 + 1)),
    Claim("C1b", 1, False, applies=_mod3(1)),
    Claim("C1c", 1, False, applies=_mod3(1)),
    Claim("C2b", 1, False, applies=_mod3(2)),
    Claim("C2c", 1, False, applies=_mod3(2)),
    Claim("C3", 1, False, applies=_mod6(1)),
    Claim("C3b", 1, False, applies=_mod6(5)),
    Claim("H0", 1, False, applies=_mod6(1)),
    Claim("H1", 1, False, applies=_mod6(1)),
    Claim("H2", 1, False, applies=_mod6(5)),
    Claim("H3", 1, False, applies=_mod6(5)),
)
BY_NAME = {c.name: c for c in CATALOG}
ORDER = {c.name: i for i, c in enumerate(CATALOG)}
CSV_HEADER = ["claim", "p", "n", "k", "modulus", "lhs", "rhs", "pass"]


@dataclass(frozen=True)
class Spec:
    """What a report should contain: the CLI's sweep arguments."""

    pmin: int
    pmax: int
    nmax: int
    claims: tuple[str, ...]
    fmt: str
    summary_only: bool


def primes_between(lo: int, hi: int) -> list[int]:
    return [q for q in range(max(lo, 2), hi + 1)
            if all(q % d for d in range(2, math.isqrt(q) + 1))]


def expected_keys(spec: Spec) -> list[tuple]:
    """Every (claim, p, n, k) instance the report must hold, in report order
    (p, n, claim, k ascending, absent n/k first)."""
    chosen = [c for c in CATALOG if c.name in spec.claims]
    keys = []
    for p in primes_between(spec.pmin, spec.pmax):
        for n in [None, *range(1, spec.nmax + 1)]:
            for c in chosen:
                if c.per_n != (n is not None) or not c.applies(p):
                    continue
                if c.k_range is None or spec.summary_only:
                    keys.append((c.name, p, n, None))
                else:
                    keys.extend((c.name, p, n, k) for k in c.k_range(p))
    return keys


def order_key(key: tuple) -> tuple[int, int, int, int]:
    claim, p, n, k = key
    return (p, -1 if n is None else n, ORDER.get(claim, -1), -1 if k is None else k)


@dataclass
class Record:
    claim: str
    p: int
    n: int | None
    k: int | None
    modulus: int
    lhs: int
    rhs: int
    passed: bool
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.key = (self.claim, self.p, self.n, self.k)


# ---------------------------------------------------------------- parsing

def _opt_int(value) -> int | None:
    if value is None or value == "":
        return None
    if isinstance(value, bool):
        raise ValueError("bool where an integer belongs")
    return int(value)


def _parse_json_record(line: str) -> Record:
    obj = json.loads(line)
    if list(obj) != ["claim", "p", "n", "k", "modulus", "lhs", "rhs", "pass"]:
        raise ValueError(f"unexpected keys {list(obj)}")
    if not isinstance(obj["lhs"], str) or not isinstance(obj["rhs"], str):
        raise ValueError("lhs/rhs must be decimal strings")
    if not isinstance(obj["pass"], bool):
        raise ValueError("pass must be a boolean")
    return Record(obj["claim"], int(obj["p"]), _opt_int(obj["n"]), _opt_int(obj["k"]),
                  int(obj["modulus"]), int(obj["lhs"]), int(obj["rhs"]), obj["pass"])


def _parse_csv_record(row: list[str]) -> Record:
    if len(row) != 8:
        raise ValueError(f"expected 8 columns, got {len(row)}")
    if row[7] not in ("true", "false"):
        raise ValueError(f"pass must be true/false, got {row[7]!r}")
    return Record(row[0], int(row[1]), _opt_int(row[2]), _opt_int(row[3]),
                  int(row[4]), int(row[5]), int(row[6]), row[7] == "true")


# ---------------------------------------------------------------- oracles

def harmonic(n: int, p: int) -> int:
    return sum(pow(i, -1, p) for i in range(1, n + 1)) % p


def progression(m: int, d: int, r: int, p: int) -> int:
    """sum_{k=0..m} 1/(d*k + r) mod p."""
    return sum(pow(d * k + r, -1, p) for k in range(m + 1)) % p


def trinomial_row_mod(big_n: int, length: int, m: int) -> list[int]:
    """First `length` coefficients of (1 + x + x^2)^N mod m, from the binomial
    sum T(N, k) = sum_j C(N, j) * C(j, k - j).  C(N, j) is taken as a
    falling-factorial quotient, valid because j < length <= p and m is a
    power of p."""
    binom_n = [1]
    for j in range(1, length):
        binom_n.append(binom_n[-1] * ((big_n - j + 1) % m) % m * pow(j, -1, m) % m)
    return [
        sum(binom_n[j] * math.comb(j, k - j) for j in range((k + 1) // 2, k + 1)) % m
        for k in range(length)
    ]


def carlitz_oracle(p: int) -> tuple[int, int, int, bool]:
    """(modulus, lhs, rhs, pass) of the cataloged Carlitz claim at p."""
    p4 = p ** 4
    sign = 1 if (p - 1) // 2 % 2 == 0 else -1
    lhs = sign * math.comb(p - 1, (p - 1) // 2) % p4
    rhs = (pow(4, p - 1, p4) + p ** 3 * pow(12, -1, p4)) % p4
    return p4, lhs, rhs, lhs == rhs


def recompute_lhs(r: Record) -> int:
    """The record's left side, from definitions (binomial and harmonic sums)."""
    p, n, k = r.p, r.n, r.k
    p2, half = p * p, (p - 1) // 2
    name = r.claim
    if name in ("Thm1_Eq2", "Thm1_Eq4", "Prop3_Eq9", "Prop3_Eq10"):
        row = trinomial_row_mod(n * p - 1, p, p2)
        return {
            "Thm1_Eq2": row[p - 1],
            "Thm1_Eq4": row[half],
            "Prop3_Eq9": sum(row) % p2,
            "Prop3_Eq10": sum(row[: half + 1]) % p2,
        }[name]
    if name == "Cor4_Eq11":
        return trinomial_row_mod(n * p2 - 1, k + 1, p2)[k]
    if name == "TripleSum_a":
        return sum(trinomial_row_mod(n * p - 1, 3 * k + 3, p2)[3 * k:]) % p2
    if name == "Thm2_Eq6":
        return sum(math.comb(2 * j, j) * harmonic(j, p) for j in range(half + 1)) % p
    if name == "Thm2_Eq7":
        return sum(
            math.comb(4 * j, 2 * j) * pow(4, -j, p) * (2 * harmonic(2 * j, p) - harmonic(j, p))
            for j in range(1, (p - 1) // 4 + 1)
        ) % p
    if name in ("Babbage", "Wolstenholme"):
        return math.comb(2 * p - 1, p - 1) % r.modulus
    if name == "Glaisher":
        return math.comb(n * p - 1, p - 1) % r.modulus
    if name == "Morley":
        return math.comb(p - 1, half) % r.modulus
    if name == "Carlitz":
        return carlitz_oracle(p)[1]
    if name == "HalfRowBinom":
        return (-1) ** k * math.comb(half - k, k) % p
    if name in ("GL0", "GL", "GL2"):
        return harmonic(p // {"GL0": 2, "GL": 3, "GL2": 6}[name], p)
    if name == "Cong0":
        return harmonic(p - k, p)
    if name == "Cong1":
        return harmonic(half - k, p)
    m3 = (p - 4) // 3 if p % 3 == 1 else (p - 5) // 3
    m6 = (p - 1) // 6 if p % 6 == 1 else (p - 5) // 6
    d, r0, m = {
        "C1b": (3, 2, m3), "C1c": (3, 1, m3), "C2b": (3, 1, m3), "C2c": (3, 2, m3),
        "C3": (2, 1, m6), "C3b": (2, 1, m6),
        "H0": (3, 1, m6), "H1": (3, 2, m6), "H3": (3, 1, m6), "H2": (3, 2, m6),
    }[name]
    return progression(m, d, r0, p)


# ---------------------------------------------------------------- checking

@dataclass
class Verdict:
    """Outcome of checking one report.  `attempted` counts the predicted
    instances plus any record the report holds beyond them; `failed` counts
    those that are missing or that some check rejected."""

    attempted: int
    records: int
    failed_keys: set = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    any_record_fails: bool = False

    @property
    def failed(self) -> int:
        return len(self.failed_keys)

    def reject(self, key, why: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{key}: {why}")
        self.failed_keys.add(key)


def _split_report(payload: bytes, fmt: str) -> tuple[list[Record], object, list[str]]:
    """Parse the report into records and its trailer.  Unparsable record
    lines are returned as problems keyed by line number."""
    text = payload.decode("utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    else:
        raise ValueError("report does not end with a newline")
    if fmt == "csv":
        rows = list(csv.reader(lines))
        if not rows or rows[0] != CSV_HEADER:
            raise ValueError(f"bad CSV header {rows[:1]}")
        rows = rows[1:]
        if not rows or rows[-1][:1] != ["summary"]:
            raise ValueError("missing CSV summary trailer")
        body, trailer = rows[:-1], rows[-1]
        parse = _parse_csv_record
    else:
        if not lines:
            raise ValueError("empty report")
        trailer = json.loads(lines[-1])
        if list(trailer) != ["summary"]:
            raise ValueError("missing JSONL summary trailer")
        body = lines[:-1]
        parse = _parse_json_record
    records, bad = [], []
    for i, item in enumerate(body):
        try:
            records.append(parse(item))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            bad.append(f"line {i + 1}: {exc}")
    return records, trailer, bad


def _record_obj(r: Record) -> dict:
    return {"claim": r.claim, "p": r.p, "n": r.n, "k": r.k, "modulus": r.modulus,
            "lhs": str(r.lhs), "rhs": str(r.rhs), "pass": r.passed}


def _expected_trailer(records: list[Record], fmt: str):
    passed = sum(r.passed for r in records)
    if fmt == "csv":
        ok = "true" if passed == len(records) else "false"
        return ["summary", "", "", "", "", str(passed), str(len(records)), ok]
    per_claim: dict[str, dict] = {}
    for r in records:
        t = per_claim.setdefault(r.claim, {"records": 0, "passed": 0, "failed": 0})
        t["records"] += 1
        t["passed" if r.passed else "failed"] += 1
    first = next((r for r in records if not r.passed), None)
    return {"summary": {
        "records": len(records),
        "passed": passed,
        "failed": len(records) - passed,
        "per_claim": {c: per_claim[c]
                      for c in sorted(per_claim, key=lambda c: ORDER.get(c, len(ORDER)))},
        "first_failure": None if first is None else _record_obj(first),
    }}


def _same_with_order(a, b) -> bool:
    """Equality that also compares the key order of JSON objects."""
    if isinstance(a, dict) and isinstance(b, dict):
        return list(a) == list(b) and all(_same_with_order(a[x], b[x]) for x in a)
    return a == b and type(a) is type(b)


def check_report(payload: bytes, spec: Spec, seed: int, samples_per_claim: int = 2) -> Verdict:
    """Check every record of one report; see the module docstring."""
    keys = expected_keys(spec)
    verdict = Verdict(attempted=len(keys), records=0)
    try:
        records, trailer, bad = _split_report(payload, spec.fmt)
    except (ValueError, TypeError) as exc:  # UnicodeDecodeError is a ValueError
        verdict.problems.append(f"report: {exc}")
        verdict.failed_keys.update(keys)
        return verdict
    verdict.records = len(records)
    for why in bad:
        verdict.reject(("unparsable", why), why)
        verdict.attempted += 1
    expected = set(keys)
    seen: set = set()
    prev_key, prev_order = None, None
    for r in records:
        key = r.key
        if key in seen or key not in expected:
            verdict.reject(key, "duplicate record" if key in seen else "unexpected instance")
            verdict.attempted += 1
            continue
        seen.add(key)
        order = order_key(key)
        if prev_order is not None and prev_order >= order:
            verdict.reject(prev_key, "out of (p, n, claim, k) order")
            verdict.reject(key, "out of (p, n, claim, k) order")
        prev_key, prev_order = key, order
        claim = BY_NAME[r.claim]
        if r.modulus != r.p ** claim.power:
            verdict.reject(key, f"modulus {r.modulus} is not p^{claim.power}")
        if not (0 <= r.lhs < r.modulus and 0 <= r.rhs < r.modulus):
            verdict.reject(key, "lhs/rhs outside [0, modulus)")
        if r.passed != (r.lhs == r.rhs):
            verdict.reject(key, "pass flag disagrees with lhs == rhs")
        if r.k is None and claim.k_range is not None:
            # --summary-only aggregate: passed count over instance count
            if r.rhs != len(claim.k_range(r.p)) or r.lhs != r.rhs:
                verdict.reject(key, f"aggregate {r.lhs}/{r.rhs}, want all of "
                                    f"{len(claim.k_range(r.p))} instances passing")
        elif r.claim == "Carlitz":
            want = carlitz_oracle(r.p)
            if (r.modulus, r.lhs, r.rhs, r.passed) != want:
                verdict.reject(key, f"Carlitz record differs from oracle {want}")
        elif not r.passed:
            verdict.reject(key, "a theorem instance failed")
    for key in expected - seen:
        verdict.reject(key, "missing record")
    verdict.any_record_fails = any(not r.passed for r in records)

    if not _same_with_order(trailer, _expected_trailer(records, spec.fmt)):
        verdict.problems.append(f"summary trailer {str(trailer)[:200]} differs from a recount")
        verdict.failed_keys.update(keys)

    for r in sample_records(records, seed, samples_per_claim):
        want = recompute_lhs(r)
        if r.lhs != want:
            verdict.reject(r.key, f"lhs {r.lhs}, recomputed {want}")
    return verdict


def sample_records(records: Iterable[Record], seed: int, per_claim: int) -> list[Record]:
    """A seeded choice of `per_claim` records of each claim for the costly
    left-side recomputation; summary-only aggregates carry no residue and are
    left out."""
    by_claim: dict[str, list[Record]] = {}
    for r in records:
        claim = BY_NAME.get(r.claim)
        if claim is not None and not (r.k is None and claim.k_range is not None):
            by_claim.setdefault(r.claim, []).append(r)
    rng = random.Random(seed)
    chosen = []
    for name in sorted(by_claim, key=ORDER.get):
        group = by_claim[name]
        chosen.extend(rng.sample(group, min(per_claim, len(group))))
    return chosen
