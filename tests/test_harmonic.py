import pytest
from hypothesis import given
from hypothesis import strategies as st

from trinocheck.claims import ClaimId
from trinocheck.harmonic import (
    ap_harmonic,
    check_half_third_sixth,
    check_progression_lemmas,
    check_reflections,
    harmonic_table,
    inverse_table,
)
from trinocheck.modular import NotInvertible, PrimeContext, inv_mod, rat_mod, sieve_primes

PRIMES_TO_199 = sieve_primes(5, 199)


def _claims(results):
    return {r.claim for r in results}


class TestInverseTable:
    def test_bit_equivalent_to_inv_mod(self):
        # the recurrence-built table must match per-element inversion exactly
        for p in sieve_primes(5, 499):
            inv = inverse_table(PrimeContext(p))
            assert inv[0] == 0
            assert all(inv[i] == inv_mod(i, p) for i in range(1, p))


class TestHarmonicTable:
    def test_p5_row(self):
        # direct summation oracle: H = [0, 1, 1+3, 1+3+2, 1+3+2+4] mod 5
        assert harmonic_table(PrimeContext(5)) == [0, 1, 4, 1, 0]

    def test_p7_entries(self):
        table = harmonic_table(PrimeContext(7))
        assert table[6] == 0
        assert table[2] == rat_mod(3, 2, 7) == 5

    @pytest.mark.parametrize("p", PRIMES_TO_199)
    def test_prefix_sum_consistency(self, p):
        table = harmonic_table(PrimeContext(p))
        assert table[0] == 0
        assert table[p - 1] == 0
        for n in range(1, p):
            assert (table[n] - table[n - 1]) % p == inv_mod(n, p)


class TestApHarmonic:
    def test_examples(self):
        # 1/2 + 1/5 = 4 + 3 == 0 mod 7
        assert ap_harmonic((7 - 4) // 3, 3, 2, PrimeContext(7)) == 0
        # 1 + 1/4 + 1/7 = 1 + 3 + 8 == 1 mod 11
        assert ap_harmonic((11 - 5) // 3, 3, 1, PrimeContext(11)) == 1
        assert ap_harmonic(0, 2, 1, PrimeContext(13)) == 1

    def test_term_hitting_multiple_of_p(self):
        with pytest.raises(NotInvertible):
            ap_harmonic(7, 1, 1, PrimeContext(7))

    @given(st.sampled_from(PRIMES_TO_199), st.data())
    def test_matches_harmonic_prefix(self, p, data):
        n = data.draw(st.integers(1, p - 1))
        ctx = PrimeContext(p)
        assert ap_harmonic(n - 1, 1, 1, ctx) == harmonic_table(ctx)[n]

    def test_splitting_identity(self):
        # for p == 1 mod 3 the three progressions up to (p-4)/3 tile 1..p-1,
        # so their sum is H_{p-1} == 0
        for p in PRIMES_TO_199:
            if p % 3 != 1:
                continue
            ctx = PrimeContext(p)
            m = (p - 4) // 3
            total = (
                ap_harmonic(m, 3, 1, ctx)
                + ap_harmonic(m, 3, 2, ctx)
                + ap_harmonic(m, 3, 3, ctx)
            ) % p
            assert total == harmonic_table(ctx)[p - 1] == 0


class TestHalfThirdSixth:
    def test_spot_values(self):
        by_claim = {r.claim: r for r in check_half_third_sixth(PrimeContext(5))}
        gl0 = by_claim[ClaimId.GL0]
        assert (gl0.lhs, gl0.rhs, gl0.passed) == (4, 4, True)  # H_2 vs -2*3

        by_claim = {r.claim: r for r in check_half_third_sixth(PrimeContext(7))}
        gl = by_claim[ClaimId.GL]
        assert (gl.lhs, gl.rhs, gl.passed) == (5, 5, True)  # H_2 vs -(3/2)*6
        gl2 = by_claim[ClaimId.GL2]
        assert (gl2.lhs, gl2.rhs, gl2.passed) == (1, 1, True)  # H_1 vs -2*2-(3/2)*6

    def test_emits_exactly_three(self):
        assert _claims(check_half_third_sixth(PrimeContext(13))) == {
            ClaimId.GL0,
            ClaimId.GL,
            ClaimId.GL2,
        }


class TestReflections:
    def test_spot_values(self):
        results = check_reflections(PrimeContext(7))
        cong0 = {r.k: r for r in results if r.claim is ClaimId.CONG0}
        assert (cong0[3].lhs, cong0[3].rhs) == (5, 5)  # H_4 vs H_2
        assert cong0[1].lhs == cong0[1].rhs == 0  # H_{p-1} vs H_0

        results = check_reflections(PrimeContext(5))
        cong1 = {r.k: r for r in results if r.claim is ClaimId.CONG1}
        assert (cong1[1].lhs, cong1[1].rhs, cong1[1].passed) == (1, 1, True)

    def test_record_counts(self):
        p = 31
        results = check_reflections(PrimeContext(p))
        assert sum(r.claim is ClaimId.CONG0 for r in results) == p - 1
        assert sum(r.claim is ClaimId.CONG1 for r in results) == (p - 1) // 2


class TestProgressionLemmas:
    def test_residue_class_dispatch(self):
        # p == 1 mod 6 claims only; no vacuous records for the other class
        assert _claims(check_progression_lemmas(PrimeContext(7))) == {
            ClaimId.C1B, ClaimId.C1C, ClaimId.C3, ClaimId.H0, ClaimId.H1,
        }
        assert _claims(check_progression_lemmas(PrimeContext(11))) == {
            ClaimId.C2B, ClaimId.C2C, ClaimId.C3B, ClaimId.H3, ClaimId.H2,
        }

    def test_spot_values(self):
        by_claim = {r.claim: r for r in check_progression_lemmas(PrimeContext(7))}
        # 1 + 1/4 = 3 vs -(2/3)*2 + 2
        assert (by_claim[ClaimId.H0].lhs, by_claim[ClaimId.H0].rhs) == (3, 3)
        # 1 + 1/3 = 6 vs 2 - (3/4)*6 + 3/2
        assert (by_claim[ClaimId.C3].lhs, by_claim[ClaimId.C3].rhs) == (6, 6)

        by_claim = {r.claim: r for r in check_progression_lemmas(PrimeContext(11))}
        # 1 + 1/4 = 4 vs (1/2)*0 - (2/3)*5
        assert (by_claim[ClaimId.H3].lhs, by_claim[ClaimId.H3].rhs) == (4, 4)


@pytest.mark.parametrize("p", PRIMES_TO_199)
def test_all_lemma_checkers_pass_small_sweep(p):
    ctx = PrimeContext(p)
    results = (
        check_half_third_sixth(ctx)
        + check_reflections(ctx)
        + check_progression_lemmas(ctx)
    )
    assert all(r.passed for r in results)
