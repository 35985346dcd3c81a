"""Acceptance sweeps: one test per criterion, one printed pass/fail line each.

All comparisons are exact residue equality (zero tolerance).  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.

The cataloged Carlitz claim 4**(p-1) + p**3/12 (mod p**4) is false for
most primes: the true p**3 coefficient is B_{p-3}/12, so the claim holds
only where B_{p-3} == 1 (mod p), which up to 1009 means p = 5 (B_2 = 1/6)
and p = 557.  The checker implements the claim exactly as cataloged, so
sweeps that include it report failures.  Criterion 6 asserts exactly those
counterexamples up to 1009: every Carlitz record must equal what an
independent big-integer oracle computes, the error must be exactly the
Bernoulli p**3 digit, and so the passes are exactly p = 5 and p = 557.
"""

import json
import math
import time
from fractions import Fraction

import trinocheck as tc
from closed_forms import closed_row_mod_p2
from instances import expand, records_of, replace_checker
from trinocheck.congruences import (
    ClaimId,
    check_half_third_sixth,
    check_progression_lemmas,
    check_reflections,
    result,
)


def _check(claim, ctx, n=None):
    """The instances of `claim` alone, at `n`, one per k; every record
    holds at least one, as CheckResult promises and the report relies on."""
    records = records_of(claim, ctx, n)
    assert all(r.lhs and r.rhs for r in records), (claim, ctx.p, n)
    return expand(records)


def _conclude(name, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)} failures, first: {failures[0]})"
    print(f"[acceptance] {name}: {status}")
    assert not failures, f"{name}: {len(failures)} failures, first: {failures[0]}"


def _collect(instances, failures):
    failures.extend(r for r in instances if not r.passed)


def test_criterion_1_theorem1_sweep():
    failures = []
    start = time.monotonic()
    for p in tc.sieve_primes(5, 1009):
        ctx = tc.PrimeContext(p)
        for n in range(1, 9):
            for claim in (ClaimId.THM1_EQ2, ClaimId.THM1_EQ4):
                _collect(_check(claim, ctx, n), failures)
    elapsed = time.monotonic() - start
    if elapsed > 300:
        failures.append(f"runtime {elapsed:.0f}s exceeds 5-minute budget")
    _conclude(f"1 theorem-1 sweep (p <= 1009, n <= 8, mod p^2; {elapsed:.1f}s)", failures)


def test_criterion_2_theorem2_sweep():
    failures = []
    start = time.monotonic()
    for p in tc.sieve_primes(5, 2003):
        ctx = tc.PrimeContext(p)
        _collect(_check(ClaimId.THM2_EQ6, ctx) + _check(ClaimId.THM2_EQ7, ctx), failures)
    elapsed = time.monotonic() - start
    if elapsed > 60:
        failures.append(f"runtime {elapsed:.0f}s exceeds 1-minute budget")
    _conclude(f"2 theorem-2 sweep (p <= 2003, mod p; {elapsed:.1f}s)", failures)


def test_criterion_3_proposition3_sweep():
    failures = []
    for p in tc.sieve_primes(5, 1009):
        ctx = tc.PrimeContext(p)
        for n in range(1, 9):
            for claim in (ClaimId.PROP3_EQ9, ClaimId.PROP3_EQ10):
                _collect(_check(claim, ctx, n), failures)
    _conclude("3 proposition-3 sweep (p <= 1009, n <= 8, mod p^2)", failures)


def test_criterion_4_corollary4_sweep():
    failures = []
    for p in tc.sieve_primes(5, 1009):
        ctx = tc.PrimeContext(p)
        for n in range(1, 9):
            _collect(_check(ClaimId.COR4_EQ11, ctx, n), failures)
    _conclude("4 corollary-4 sweep (p <= 1009, n <= 8, k <= p-1)", failures)


def test_criterion_5_lemma_sweep():
    failures = []
    for p in tc.sieve_primes(5, 2003):
        ctx = tc.PrimeContext(p)
        _collect(expand(check_half_third_sixth(ctx)), failures)
        _collect(expand(check_reflections(ctx)), failures)
        _collect(expand(check_progression_lemmas(ctx)), failures)
    _conclude("5 harmonic-lemma sweep (p <= 2003, mod p)", failures)


def _carlitz_oracle(p):
    """(modulus, lhs, rhs, passed) of the cataloged Carlitz claim, from
    math.comb and pow on plain ints only (no trinocheck code)."""
    p3, p4 = p**3, p**4
    half = (p - 1) // 2
    lhs = (-1) ** half * math.comb(p - 1, half) % p4
    rhs = (pow(4, p - 1, p4) + p3 * pow(12, -1, p4)) % p4
    return p4, lhs, rhs, lhs == rhs


def _bernoulli_mod_p(p):
    """B_{p-3} mod p from sum_{k<p} k**(p-3) == p*B_{p-3} (mod p**2).

    Valid for p >= 5, where p-1 does not divide p-3 (so B_{p-3} is p-integral).
    """
    s = sum(pow(k, p - 3, p * p) for k in range(1, p)) % (p * p)
    assert s % p == 0, f"power sum not divisible by p={p}"
    return s // p


def _exact_bernoulli(m):
    """B_0..B_m as Fractions, from sum_{j<=k} C(k+1, j)*B_j = 0."""
    b = [Fraction(1)]
    for k in range(1, m + 1):
        b.append(-sum(math.comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return b


def test_criterion_6_classical_sweep():
    failures = []
    carlitz = []
    for p in tc.sieve_primes(5, 1009):
        ctx = tc.PrimeContext(p)
        for claim in (ClaimId.BABBAGE, ClaimId.WOLSTENHOLME, ClaimId.MORLEY):
            _collect(_check(claim, ctx), failures)
        for n in range(1, 9):
            _collect(_check(ClaimId.GLAISHER, ctx, n), failures)
        carlitz.extend(_check(ClaimId.CARLITZ, ctx))

    # the checker must report exactly what independent big-integer arithmetic says
    for r in carlitz:
        got = (r.modulus, r.lhs, r.rhs, r.passed)
        want = _carlitz_oracle(r.p)
        if r.claim is not ClaimId.CARLITZ or got != want:
            failures.append(("Carlitz vs oracle", r.p, got, want))

    # a record passes iff the p**3 digit checked below is 0, iff B_{p-3} == 1 (mod p)
    passing = sorted(r.p for r in carlitz if r.passed)
    if passing != [5, 557]:
        failures.append(("Carlitz passes only at p = 5 and p = 557", passing))

    # the power-sum Bernoulli oracle agrees with exact Bernoulli numbers
    exact = _exact_bernoulli(58)
    for p in tc.sieve_primes(5, 61):
        b = exact[p - 3]
        if b.numerator * pow(b.denominator, -1, p) % p != _bernoulli_mod_p(p):
            failures.append(("power-sum B_{p-3} vs exact", p))

    # sides agree mod p**3 (Morley); the p**3 digit of lhs - rhs is (B_{p-3} - 1)/12
    for r in carlitz:
        p, p3 = r.p, r.p**3
        diff = (r.lhs - r.rhs) % r.modulus
        if diff % p3:
            failures.append(("Carlitz sides differ mod p^3", p, diff))
        elif diff // p3 != (_bernoulli_mod_p(p) - 1) * pow(12, -1, p) % p:
            failures.append(("Carlitz p^3 digit is not (B_{p-3} - 1)/12", p, diff // p3))

    counter = [r.p for r in carlitz if not r.passed]
    finding = f"Carlitz as cataloged: {len(counter)} counterexamples"
    if counter:
        finding += f" ({counter[0]} <= p <= {counter[-1]})"
    if not failures:
        finding += ", Bernoulli form confirmed"
    _conclude(
        f"6 classical sweep (Babbage/Wolstenholme/Glaisher/Morley exact, p <= 1009; {finding})",
        failures,
    )


def test_carlitz_passes_exactly_where_bernoulli_digit_is_one():
    # the cataloged form holds exactly where B_{p-3} == 1 (mod p),
    # which for p <= 1009 means p = 5 and p = 557
    primes = tc.sieve_primes(5, 1009)
    passing = {r.p for p in primes for r in _check(ClaimId.CARLITZ, tc.PrimeContext(p)) if r.passed}
    assert passing == {p for p in primes if _bernoulli_mod_p(p) == 1} == {5, 557}


def test_criterion_7_engine_cross_equivalence():
    failures = []
    for n in range(61):
        exact = tc.row_exact(n)
        modrow = tc.row_mod_prefix(n, 3**n + 1, 2 * n + 1)
        for k in range(2 * n + 1):
            values = {
                exact[k],
                tc.coeff_via_cosine(n, k),
                tc.coeff_via_convolution(n, k),
                modrow[k],
            }
            if len(values) != 1:
                failures.append((n, k, values))
    # the sweep's recurrence vs schoolbook powering on both row families, and
    # vs the closed forms on rows n*p - 1
    for p in tc.sieve_primes(5, 199):
        ctx = tc.PrimeContext(p)
        for n in range(1, 4):
            for exponent in (n * p - 1, n * p * p - 1):
                schoolbook = tc.row_mod_prefix(exponent, ctx.p2, p)
                if tc.row_mod_p2_prefix(ctx, exponent) != schoolbook:
                    failures.append((p, exponent, "recurrence vs schoolbook"))
            if closed_row_mod_p2(ctx, n) != tc.row_mod_p2_prefix(ctx, n * p - 1):
                failures.append((p, n, "closed forms vs recurrence"))
    _conclude(
        "7 engine cross-equivalence (n <= 60; recurrence, schoolbook and closed forms p <= 199)",
        failures,
    )


def test_criterion_8_structural_invariants():
    failures = []
    for n in range(201):
        row = tc.row_exact(n)
        if row != row[::-1]:
            failures.append((n, "palindrome"))
        if sum(row) != 3**n:
            failures.append((n, "row sum"))
        if sum(c if k % 2 == 0 else -c for k, c in enumerate(row)) != 1:
            failures.append((n, "alternating sum"))
    for p in tc.sieve_primes(5, 499):
        ctx = tc.PrimeContext(p)
        for n in range(1, 4):
            _collect(_check(ClaimId.TRIPLE_SUM_A, ctx, n), failures)
    _conclude("8 structural invariants (rows n <= 200; triple sums p <= 499)", failures)


def test_criterion_9_spot_fixtures():
    failures = []

    def check(label, got, want):
        if got != want:
            failures.append((label, got, want))

    check("central trinomial T(6)", tc.row_exact(6)[6], 141)
    check("C(6,6)_2 mod 49", tc.row_exact(6)[6] % 49, 43)
    check("C(4,2)_2", tc.row_exact(4)[2], 10)
    q3_5 = tc.fermat_quotient(3, tc.PrimeContext(5))
    check("-(5/2)q3(5) mod 25", tc.rat_mod(-5 * q3_5, 2, 25), 10)
    [eq6] = _check(ClaimId.THM2_EQ6, tc.PrimeContext(5))
    check("central-binomial harmonic sum mod 5", eq6.lhs, 1)
    check("q3(11)", tc.fermat_quotient(3, tc.PrimeContext(11)), 0)
    check("C(10,10)_2 mod 121", tc.row_exact(10)[10] % 121, 121 - 1)
    [eq7] = _check(ClaimId.THM2_EQ7, tc.PrimeContext(13))
    check("quarter-row sum p=13 lhs", eq7.lhs, 9)
    check("quarter-row sum p=13 rhs", eq7.rhs, 9)
    _conclude("9 spot-value regression fixtures", failures)


def test_criterion_10_cli_contract(monkeypatch, tmp_path, capsysbinary):
    from trinocheck.cli import main

    failures = []

    # exit 0 + byte determinism across runs and worker counts
    args = ["--pmin", "5", "--pmax", "61", "--nmax", "2",
            "--claims", "Thm1_Eq2,Cor4_Eq11,GL"]
    payloads = set()
    for run, jobs in enumerate(("1", "1", "4")):
        out = tmp_path / f"run{run}.jsonl"
        if main(args + ["--jobs", jobs, "--out", str(out)]) != 0:
            failures.append(f"run {run} (--jobs {jobs}) did not exit 0")
        payloads.add(out.read_bytes())
    if len(payloads) != 1:
        failures.append("output not byte-deterministic")

    rc = main(["--pmin", "5", "--pmax", "7", "--nmax", "1", "--claims", "Thm1_Eq2"])
    capsysbinary.readouterr()
    if rc != 0:
        failures.append(f"expected exit 0, got {rc}")

    # exit 2 on configuration error
    rc = main(["--pmin", "9", "--pmax", "5"])
    if rc != 2:
        failures.append(f"expected exit 2, got {rc}")

    # fault injection: a deliberately falsified claim must yield exit 1
    def broken(ctx):
        return [result(ClaimId.GL, ctx.p, ctx.p, [0], [1])]

    replace_checker(monkeypatch, check_half_third_sixth, broken)
    out = tmp_path / "injected.jsonl"
    rc = main(["--pmin", "5", "--pmax", "11", "--claims", "GL", "--out", str(out)])
    if rc != 1:
        failures.append(f"expected exit 1 after fault injection, got {rc}")
    trailer = json.loads(out.read_text().splitlines()[-1])
    if trailer["summary"]["failed"] != 3:
        failures.append(f"bad summary counts: {trailer['summary']}")

    _conclude("10 CLI contract (exit codes, determinism, fault injection)", failures)
