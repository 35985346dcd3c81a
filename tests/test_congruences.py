import math
import pickle

import pytest

from closed_forms import closed_row_mod_p2
from instances import CLAIMS_WITH_N, expand, records_of
from trinocheck import congruences
from trinocheck.congruences import CHECKERS, ClaimId, check_row_np_minus1
from trinocheck.harmonic import ap_harmonic
from trinocheck.modular import PrimeContext, sieve_primes
from trinocheck.trinomial import row_mod_p2_prefix, row_mod_prefix


def _check(claim, ctx, n=None):
    """The instances of `claim` alone, one per k."""
    return expand(records_of(claim, ctx, n))


class TestThm1Eq2:
    def test_spot_values(self):
        [r] = _check(ClaimId.THM1_EQ2, PrimeContext(7), 1)
        assert (r.lhs, r.rhs, r.passed, r.modulus) == (43, 43, True, 49)
        [r] = _check(ClaimId.THM1_EQ2, PrimeContext(5), 1)
        assert (r.lhs, r.rhs, r.passed) == (19, 19, True)
        # q_3(11) = 0, so the closed form degenerates to -1
        [r] = _check(ClaimId.THM1_EQ2, PrimeContext(11), 1)
        assert (r.lhs, r.rhs, r.passed) == (120, 120, True)


class TestThm1Eq4:
    def test_spot_values(self):
        [r] = _check(ClaimId.THM1_EQ4, PrimeContext(7), 1)
        assert (r.lhs, r.rhs, r.passed) == (1, 1, True)  # C(6,3)_2 = 50 mod 49
        [r] = _check(ClaimId.THM1_EQ4, PrimeContext(5), 1)
        assert (r.lhs, r.rhs, r.passed) == (10, 10, True)
        assert _check(ClaimId.THM1_EQ4, PrimeContext(11), 2)[0].passed


class TestThm2Eq6:
    def test_spot_values(self):
        [r] = _check(ClaimId.THM2_EQ6, PrimeContext(5))
        assert (r.lhs, r.rhs, r.passed, r.modulus) == (1, 1, True, 5)
        assert _check(ClaimId.THM2_EQ6, PrimeContext(7))[0].passed
        assert _check(ClaimId.THM2_EQ6, PrimeContext(13))[0].passed

    def test_direct_summation_oracle(self):
        for p in sieve_primes(5, 61):
            [r] = _check(ClaimId.THM2_EQ6, PrimeContext(p))
            table = [0]
            for n in range(1, p):
                table.append((table[-1] + pow(n, -1, p)) % p)
            oracle = sum(math.comb(2 * k, k) * table[k] for k in range((p - 1) // 2 + 1)) % p
            assert r.lhs == oracle


class TestThm2Eq7:
    def test_spot_values(self):
        [r] = _check(ClaimId.THM2_EQ7, PrimeContext(5))
        assert (r.lhs, r.rhs, r.passed) == (3, 3, True)
        [r] = _check(ClaimId.THM2_EQ7, PrimeContext(13))
        assert (r.lhs, r.rhs, r.passed) == (9, 9, True)
        assert _check(ClaimId.THM2_EQ7, PrimeContext(7))[0].passed

    def test_direct_summation_oracle(self):
        for p in sieve_primes(5, 61):
            [r] = _check(ClaimId.THM2_EQ7, PrimeContext(p))
            table = [0]
            for n in range(1, p):
                table.append((table[-1] + pow(n, -1, p)) % p)
            oracle = 0
            for k in range(1, (p - 1) // 4 + 1):
                term = math.comb(4 * k, 2 * k) * pow(pow(4, k, p), -1, p)
                oracle = (oracle + term * (2 * table[2 * k] - table[k])) % p
            assert r.lhs == oracle


class TestProp3:
    def test_spot_values(self):
        [r] = _check(ClaimId.PROP3_EQ9, PrimeContext(7), 1)
        assert (r.lhs, r.rhs, r.passed) == (43, 43, True)  # 435 mod 49
        [r] = _check(ClaimId.PROP3_EQ10, PrimeContext(7), 1)
        assert (r.lhs, r.rhs, r.passed) == (29, 29, True)  # 78 mod 49
        [r] = _check(ClaimId.PROP3_EQ10, PrimeContext(5), 1)
        assert (r.lhs, r.rhs, r.passed) == (15, 15, True)


class TestCor4Eq11:
    def test_p5_row(self):
        results = _check(ClaimId.COR4_EQ11, PrimeContext(5), 1)
        assert [r.k for r in results] == [0, 1, 2, 3, 4]
        assert [r.lhs for r in results] == [1, 24, 0, 1, 24]
        assert all(r.passed for r in results)

    def test_pattern_positions(self):
        results = {r.k: r for r in _check(ClaimId.COR4_EQ11, PrimeContext(7), 1)}
        assert results[0].rhs == 1
        assert results[2].lhs == results[2].rhs == 0
        assert results[1].rhs == 49 - 1

    def test_one_record_reads_the_cached_row(self):
        # every n reads the one row p**2 - 1, as cached, with no copy
        ctx = PrimeContext(11)
        row = ctx.cached(row_mod_p2_prefix, ctx.p2 - 1)
        for n in (1, 2, 8):
            [r] = records_of(ClaimId.COR4_EQ11, ctx, n)
            assert (r.n, r.k, r.modulus) == (n, 0, ctx.p2)
            assert r.lhs is row
            assert r.rhs == [(1, ctx.p2 - 1, 0)[k % 3] for k in range(ctx.p)]
        # the nmax records of one call share one row and one pattern object
        records = congruences.check_cor4_eq11(ctx, 8)
        assert [r.n for r in records] == list(range(1, 9))
        assert all(r.lhs is row and r.rhs is records[0].rhs for r in records)


class TestTripleSum:
    def test_p7_first_group(self):
        results = _check(ClaimId.TRIPLE_SUM_A, PrimeContext(7), 1)
        # 3k+2 <= 6 allows k = 0, 1
        assert [r.k for r in results] == [0, 1]
        assert (results[0].lhs, results[0].rhs) == (28, 28)  # 1+6+21 vs 7/2 mod 49
        assert all(r.passed for r in results)

    def test_small_sweep(self):
        for p in sieve_primes(5, 61):
            ctx = PrimeContext(p)
            for n in (1, 2):
                assert all(r.passed for r in _check(ClaimId.TRIPLE_SUM_A, ctx, n))

    @pytest.mark.parametrize("p", sieve_primes(5, 97))
    def test_lhs_is_the_sum_of_three_closed_row_entries(self, p):
        # the per-prime triple sums against the sum of three entries of the
        # full closed-form row, for n up to 64 (n*p passes p**2)
        ctx = PrimeContext(p)
        for n in range(1, 65):
            row = closed_row_mod_p2(ctx, n)
            [r] = records_of(ClaimId.TRIPLE_SUM_A, ctx, n)
            assert r.lhs == [(row[j - 2] + row[j - 1] + row[j]) % ctx.p2
                             for j in range(2, p, 3)]


class TestClassical:
    def test_babbage(self):
        [r] = _check(ClaimId.BABBAGE, PrimeContext(5))
        assert (r.lhs, r.rhs, r.passed, r.modulus) == (1, 1, True, 25)  # C(9,4) = 126

    def test_wolstenholme(self):
        [r] = _check(ClaimId.WOLSTENHOLME, PrimeContext(7))
        assert (r.lhs, r.rhs, r.passed, r.modulus) == (1, 1, True, 343)  # 1716 = 5*343 + 1

    def test_glaisher(self):
        [r] = _check(ClaimId.GLAISHER, PrimeContext(5), 3)
        assert (r.lhs, r.passed, r.modulus) == (1, True, 125)  # C(14,4) = 1001

    def test_morley(self):
        [r] = _check(ClaimId.MORLEY, PrimeContext(7))
        assert (r.lhs, r.rhs, r.passed) == (20, 20, True)  # C(6,3) vs -4**6 mod 343

    def test_carlitz_p5(self):
        [r] = _check(ClaimId.CARLITZ, PrimeContext(5))
        assert (r.lhs, r.rhs, r.passed, r.modulus) == (6, 6, True, 625)

    def test_carlitz_counterexample_p7(self):
        # The cataloged form 4**(p-1) + p**3/12 is false at p=7: the true
        # p**3 coefficient carries a Bernoulli factor B_{p-3}/12, and it
        # passes only where B_{p-3} == 1 (mod p), as at p=5 (B_2 = 1/6) and
        # p=557.  A correct verifier must report the counterexample, not hide it.
        [r] = _check(ClaimId.CARLITZ, PrimeContext(7))
        assert not r.passed
        assert (r.lhs, r.rhs) == (2381, 323)  # -20 vs 4096 + 343/12 mod 2401
        # both sides still agree mod p**3, consistent with Morley
        assert r.lhs % 343 == r.rhs % 343


def test_binomial_memo_is_exact():
    # every n-free classical left side of the default sweep, p <= 1009:
    # Babbage's and Wolstenholme's C(2p - 1, p - 1) and Morley's and
    # Carlitz's C(p - 1, (p - 1)/2) (Carlitz's with its sign), each against
    # math.comb reduced to the claim's modulus
    for p in sieve_primes(5, 1009):
        half = (p - 1) // 2
        babbage = math.comb(2 * p - 1, p - 1)
        central = math.comb(p - 1, half)
        want = {
            ClaimId.BABBAGE: babbage % p**2,
            ClaimId.WOLSTENHOLME: babbage % p**3,
            ClaimId.MORLEY: central % p**3,
            ClaimId.CARLITZ: (-1) ** half * central % p**4,
        }
        got = {r.claim: r.lhs for r in congruences.check_classical(PrimeContext(p), 8)
               if r.n is None}
        assert got == {claim: [lhs] for claim, lhs in want.items()}, p


@pytest.mark.parametrize("p", [101, 211])
def test_binomial_chunk_edges(p):
    # products of lengths on both sides of the chunk boundaries of
    # _product_mod, starting below and above p
    m = p**4
    for length in (0, 1, 31, 32, 33, 63, 64, 65):
        for lo in (1, p + 1, 2 * p + 1):
            want = math.prod(range(lo, lo + length)) % m
            assert congruences._product_mod(lo, lo + length, m) == want, (lo, length)


@pytest.mark.parametrize("p", sieve_primes(5, 13))
def test_row_affine_in_n(p):
    # C(np - 1, k)_2 == A[k] + n*B[k] (mod p**2), with A the row at
    # p**2 - 1 and A + B the row at p - 1, against the recurrence and
    # against schoolbook powering of the full exponent (n >= p wraps it)
    ctx = PrimeContext(p)
    p2 = ctx.p2
    a = row_mod_p2_prefix(ctx, p2 - 1)
    b = [(x - y) % p2 for x, y in zip(row_mod_p2_prefix(ctx, p - 1), a)]
    for n in range(1, 3 * p):
        law = [(x + n * y) % p2 for x, y in zip(a, b)]
        assert row_mod_p2_prefix(ctx, n * p - 1) == law
        assert row_mod_prefix(n * p - 1, p2, p) == law


@pytest.mark.parametrize("p", sieve_primes(17, 101))
def test_row_claims_read_counted_rows(p):
    # the four left sides check_row_np_minus1 derives from its two anchor
    # rows equal the same functionals of row n*p - 1 counted directly
    ctx = PrimeContext(p)
    p2, half = ctx.p2, (p - 1) // 2
    for n in (*range(1, 21), p - 1, p, p + 1, 2 * p + 3):
        row = row_mod_p2_prefix(ctx, n * p - 1)
        want = [row[p - 1], row[half], sum(row) % p2, sum(row[: half + 1]) % p2]
        assert [r.lhs[0] for r in check_row_np_minus1(ctx, n) if r.n == n] == want


def test_row_claims_read_counted_rows_to_1009():
    # the same for every prime up to 1009 at n <= 8, as the default sweep
    # reads them: a left side off at one (p, n) moves the report, even where
    # both sides move together and the instance still passes
    for p in sieve_primes(5, 1009):
        ctx = PrimeContext(p)
        p2, half = ctx.p2, (p - 1) // 2
        got = [r.lhs[0] for r in check_row_np_minus1(ctx, 8)]
        want = []
        for n in range(1, 9):
            row = row_mod_p2_prefix(ctx, n * p - 1)
            want += [row[p - 1], row[half], sum(row) % p2, sum(row[: half + 1]) % p2]
        assert got == want, p


def _triples(row, p2):
    """The triple sums row[3k] + row[3k+1] + row[3k+2] mod p**2, 3k+2 < p."""
    return [(row[j - 2] + row[j - 1] + row[j]) % p2 for j in range(2, len(row), 3)]


@pytest.mark.parametrize("p", sieve_primes(5, 101))
def test_triple_sum_reads_counted_rows(p):
    # TripleSum's left side n*t (t the triple sums of row p - 1) equals the
    # triple sums of row n*p - 1 counted directly, also where n*p passes p**2
    ctx = PrimeContext(p)
    for n in (*range(1, 21), p - 1, p, p + 1, 2 * p + 3):
        [r] = records_of(ClaimId.TRIPLE_SUM_A, ctx, n)
        assert r.lhs == _triples(row_mod_p2_prefix(ctx, n * p - 1), ctx.p2), n


@pytest.mark.parametrize("p", sieve_primes(5, 13))
def test_triple_sum_against_schoolbook_rows(p):
    ctx = PrimeContext(p)
    records = congruences.check_triple_sum(ctx, 3 * p)
    for r in records:
        assert r.lhs == _triples(row_mod_prefix(r.n * p - 1, ctx.p2, p), ctx.p2), r.n


@pytest.mark.parametrize("p", sieve_primes(5, 101))
def test_triple_sums_of_row_p2_minus1_vanish(p):
    # the triple sums of row N are C(N + 1, 3k + 2)_2, and for 0 < j < p,
    # C(p**2, j)_2 is p**2 times a p-integral value, so TripleSum's law in n
    # has no constant term
    ctx = PrimeContext(p)
    assert _triples(row_mod_p2_prefix(ctx, ctx.p2 - 1), ctx.p2) == [0] * (p // 3)


def test_glaisher_against_math_comb():
    # every Glaisher record of the default sweep, p <= 1009 and n <= 8,
    # against the exact binomial: a left side off by a multiple of p**2 at
    # one (p, n) fails here, not only in the CI digests
    for p in sieve_primes(5, 1009):
        p3 = p**3
        records = congruences.check_classical(PrimeContext(p), 8)
        assert [r.lhs for r in records if r.claim is ClaimId.GLAISHER] == [
            [math.comb(n * p - 1, p - 1) % p3] for n in range(1, 9)], p


def test_progression_sums_match_ap_harmonic():
    # every progression record's left side, a slice of the inverse table,
    # against the general progression sum ap_harmonic, for p <= 1009
    terms = {  # claim: (m as a function of p, d, r) of sum_{k<=m} 1/(d*k + r)
        ClaimId.C1B: (lambda p: (p - 4) // 3, 3, 2),
        ClaimId.C1C: (lambda p: (p - 4) // 3, 3, 1),
        ClaimId.C2B: (lambda p: (p - 5) // 3, 3, 1),
        ClaimId.C2C: (lambda p: (p - 5) // 3, 3, 2),
        ClaimId.C3: (lambda p: (p - 1) // 6, 2, 1),
        ClaimId.H0: (lambda p: (p - 1) // 6, 3, 1),
        ClaimId.H1: (lambda p: (p - 1) // 6, 3, 2),
        ClaimId.C3B: (lambda p: (p - 5) // 6, 2, 1),
        ClaimId.H3: (lambda p: (p - 5) // 6, 3, 1),
        ClaimId.H2: (lambda p: (p - 5) // 6, 3, 2),
    }
    for p in sieve_primes(5, 1009):
        ctx = PrimeContext(p)
        records = congruences.check_progression_lemmas(ctx)
        assert len(records) == 5
        for r in records:
            m, d, r0 = terms[r.claim]
            assert r.lhs == [ap_harmonic(m(p), d, r0, ctx)], (p, r.claim)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101])
def test_glaisher_quadratic_in_n(p):
    # C(np - 1, p - 1) mod p**3 is quadratic in n and 1 at n = 0 and n = 1,
    # so it is 1 + C(n, 2)*(C(2p - 1, p - 1) - 1): Glaisher holds at every n
    # exactly when Wolstenholme does
    p3 = p**3
    step = math.comb(2 * p - 1, p - 1) - 1
    for n in range(1, 3 * p + 2):
        assert math.comb(n * p - 1, p - 1) % p3 == (1 + math.comb(n, 2) * step) % p3


@pytest.mark.parametrize("p", sieve_primes(5, 97))
def test_rhs_affine_in_n(p):
    # the closed forms are constant-plus-n*p*c mod p**2: consecutive rhs
    # differences must not depend on n
    ctx = PrimeContext(p)
    for claim in (ClaimId.THM1_EQ2, ClaimId.THM1_EQ4, ClaimId.PROP3_EQ9, ClaimId.PROP3_EQ10):
        rhs = [_check(claim, ctx, n)[0].rhs for n in range(1, 9)]
        diffs = {(b - a) % ctx.p2 for a, b in zip(rhs, rhs[1:])}
        assert len(diffs) == 1


def test_moduli_match_claims():
    ctx = PrimeContext(13)
    assert _check(ClaimId.THM1_EQ2, ctx, 1)[0].modulus == ctx.p2
    assert _check(ClaimId.THM2_EQ6, ctx)[0].modulus == ctx.p
    assert _check(ClaimId.WOLSTENHOLME, ctx)[0].modulus == ctx.p3
    assert _check(ClaimId.CARLITZ, ctx)[0].modulus == ctx.p4
    assert all(r.modulus == ctx.p2 for r in _check(ClaimId.COR4_EQ11, ctx, 1))


#: the first index and the instance count at p of each claim over k
PER_K = {
    ClaimId.COR4_EQ11: (0, lambda p: p),
    ClaimId.TRIPLE_SUM_A: (0, lambda p: p // 3),
    ClaimId.HALF_ROW_BINOM: (1, lambda p: (p - 1) // 4),
    ClaimId.CONG0: (1, lambda p: p - 1),
    ClaimId.CONG1: (1, lambda p: (p - 1) // 2),
}


@pytest.mark.parametrize("claim", PER_K)
@pytest.mark.parametrize("p", [5, 7, 11, 13, 101])
def test_per_k_claims_emit_one_record(claim, p):
    # a claim over k is one record per (p, n): its first index and all its
    # instances, canonical residues mod the claim's modulus
    first_k, count = PER_K[claim]
    [r] = records_of(claim, PrimeContext(p), 1 if claim in CLAIMS_WITH_N else None)
    assert r.k == first_k
    assert len(r.lhs) == len(r.rhs) == count(p)
    assert all(0 <= v < r.modulus for v in r.lhs + r.rhs)


@pytest.mark.parametrize("p", [11, 13])
def test_one_record_per_claim_and_n(p):
    # at most one record per (claim, p, n); a claim without an index k has
    # exactly one instance
    ctx = PrimeContext(p)
    for claim in ClaimId:
        records = records_of(claim, ctx, 2 if claim in CLAIMS_WITH_N else None)
        assert len(records) <= 1, claim
        for r in records:
            assert r.k is not None or len(r.lhs) == len(r.rhs) == 1, claim


@pytest.mark.parametrize("p", [5, 7, 13, 101])
def test_per_n_values_do_not_depend_on_nmax(p):
    # a checker that takes nmax gives the same records at n <= m, and the
    # same records without n, whether it runs to m or to 64 (n*p passes
    # p**2), each run on a fresh context
    for run, (per_n, _) in CHECKERS.items():
        if not per_n:
            continue
        wide = run(PrimeContext(p), 64)
        for m in (1, 8):
            kept = [r for r in wide if r.n is None or r.n <= m]
            assert kept == run(PrimeContext(p), m), run.__name__


class TestCheckerTable:
    """CHECKERS lists each checker once, with the claims it emits."""

    def test_each_claim_in_exactly_one_entry(self):
        listed = [c for _, claims in CHECKERS.values() for c in claims]
        assert sorted(listed) == sorted(ClaimId)
        assert len(CHECKERS) == 10

    def test_checkers_emit_their_entries(self):
        # p = 11 and p = 13 are 5 and 1 mod 6, so between them every claim
        # of the residue-class lemmas applies; n-free records carry n None,
        # and a checker that takes nmax emits n = 1..nmax for the claims
        # that have an n
        for run, (per_n, claims) in CHECKERS.items():
            emitted = set()
            for p in (11, 13):
                ctx = PrimeContext(p)
                records = run(ctx, 2) if per_n else run(ctx)
                assert {r.claim for r in records} <= set(claims), run.__name__
                for claim in {r.claim for r in records}:
                    ns = {r.n for r in records if r.claim is claim}
                    with_n = per_n and claim in CLAIMS_WITH_N
                    assert ns == ({1, 2} if with_n else {None}), claim
                emitted |= {r.claim for r in records}
            assert emitted == set(claims), run.__name__


def test_check_result_pickles_as_its_fields():
    # a forked worker's tally carries its first failing instance, the one
    # record that goes down the worker's pipe
    record = congruences.result(ClaimId.GL0, 7, 7, [3], [3])
    loaded = pickle.loads(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))
    assert type(loaded) is congruences.CheckResult and loaded == record
