import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import closed_row_mod_p2
from instances import expand
from oracles import (
    alt_fib_sum,
    binom_np_minus1_mod_p2,
    coeff_via_convolution,
    coeff_via_cosine,
    row_exact,
    row_mod_prefix,
)
from trinocheck.congruences import ClaimId, halfrow_binomial_check
from trinocheck.modular import PrimeContext, sieve_primes
from trinocheck.trinomial import row_mod_p2_prefix

ROW_6 = [1, 6, 21, 50, 90, 126, 141, 126, 90, 50, 21, 6, 1]


class TestRowExact:
    def test_examples(self):
        assert row_exact(0) == [1]
        assert row_exact(2) == [1, 2, 3, 2, 1]
        row = row_exact(6)
        assert row == ROW_6
        assert row[6] == 141  # 6th central trinomial number
        assert row[3] == 50

    @pytest.mark.parametrize("n", range(61))
    def test_structural_invariants(self, n):
        row = row_exact(n)
        assert len(row) == 2 * n + 1
        assert row == row[::-1]
        assert sum(row) == 3**n
        assert sum(c if k % 2 == 0 else -c for k, c in enumerate(row)) == 1
        assert row[0] == row[-1] == 1
        if n >= 1:
            assert row[1] == n

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            row_exact(-1)


class TestRowModPrefix:
    def test_examples(self):
        assert row_mod_prefix(6, 49, 7) == [1, 6, 21, 1, 41, 28, 43]
        # instance of the n*p**2 - 1 pattern at p=5: 1, -1, 0, 1, -1
        assert row_mod_prefix(24, 25, 5) == [1, 24, 0, 1, 24]
        assert row_mod_prefix(1, 17, 3) == [1, 1, 1]

    def test_zero_padding_past_row_end(self):
        assert row_mod_prefix(1, 10, 6) == [1, 1, 1, 0, 0, 0]
        assert row_mod_prefix(0, 10, 3) == [1, 0, 0]

    @given(
        st.integers(0, 40),
        st.one_of(st.integers(2, 10**6), st.integers(10**18, 10**30)),
        st.integers(1, 90),
    )
    @settings(max_examples=150)
    def test_matches_exact_row(self, n, m, length):
        exact = row_exact(n)
        expect = [c % m for c in exact[:length]]
        expect += [0] * (length - len(expect))
        assert row_mod_prefix(n, m, length) == expect

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            row_mod_prefix(3, 1, 4)
        with pytest.raises(ValueError):
            row_mod_prefix(3, 7, 0)
        with pytest.raises(ValueError):
            row_mod_prefix(-1, 7, 3)


class TestRowModP2Prefix:
    def test_examples(self):
        assert row_mod_p2_prefix(PrimeContext(7), 6) == [1, 6, 21, 1, 41, 28, 43]
        # the n*p**2 - 1 pattern at p=5: 1, -1, 0, 1, -1
        assert row_mod_p2_prefix(PrimeContext(5), 24) == [1, 24, 0, 1, 24]
        assert row_mod_p2_prefix(PrimeContext(5), 0) == [1, 0, 0, 0, 0]

    @pytest.mark.parametrize("p", [5, 7, 97])
    def test_short_rows_match_exact_row(self, p):
        # rows with 2N + 1 < p end inside the prefix and must come out zero-padded
        ctx = PrimeContext(p)
        for n in range(2 * p):
            expect = [c % ctx.p2 for c in row_exact(n)[:p]]
            expect += [0] * (p - len(expect))
            assert row_mod_p2_prefix(ctx, n) == expect

    @given(st.sampled_from(sieve_primes(5, 97)), st.data())
    @settings(max_examples=150)
    def test_matches_exact_coefficients(self, p, data):
        # row_exact is O(N**2) and too slow at N ~ 3*p**2, so the exact
        # prefix comes coefficientwise from the convolution engine
        ctx = PrimeContext(p)
        n = data.draw(st.one_of(st.integers(0, p), st.integers(0, 3 * p * p)))
        expect = [coeff_via_convolution(n, k) % ctx.p2 for k in range(min(p, 2 * n + 1))]
        expect += [0] * (p - len(expect))
        assert row_mod_p2_prefix(ctx, n) == expect

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            row_mod_p2_prefix(PrimeContext(5), -1)

    @given(st.sampled_from(sieve_primes(5, 97)), st.data())
    @settings(max_examples=60, deadline=None)
    def test_prefix_depends_on_exponent_mod_p2(self, p, data):
        # why the sweep may key its row memo by N mod p**2: for k < p,
        # C(N, k)_2 mod p**2 depends only on N mod p**2.  Checked on the
        # schoolbook oracle, which powers the full exponent, so the check
        # shares nothing with the recurrence that reduces N itself.
        p2 = p * p
        n = data.draw(st.integers(0, 8 * p2))
        assert row_mod_prefix(n, p2, p) == row_mod_prefix(n % p2, p2, p)


class TestCoeffViaCosine:
    def test_examples(self):
        assert coeff_via_cosine(4, 2) == 10
        assert coeff_via_cosine(9, 0) == 1
        assert coeff_via_cosine(6, 6) == 141

    @given(st.integers(0, 60), st.data())
    def test_matches_exact_row(self, n, data):
        k = data.draw(st.integers(0, 2 * n))
        assert coeff_via_cosine(n, k) == row_exact(n)[k]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            coeff_via_cosine(3, 7)


class TestCoeffViaConvolution:
    def test_examples(self):
        assert coeff_via_convolution(6, 6) == 141
        # C(4,1)*C(1,1) + C(4,2)*C(2,0) = 4 + 6
        assert coeff_via_convolution(4, 2) == 10
        assert coeff_via_convolution(9, 18) == 1

    @given(st.integers(0, 60), st.data())
    def test_matches_exact_row(self, n, data):
        k = data.draw(st.integers(0, 2 * n))
        assert coeff_via_convolution(n, k) == row_exact(n)[k]


class TestBinomClosedForm:
    def test_examples(self):
        assert binom_np_minus1_mod_p2(1, PrimeContext(5), 0) == 1
        # (1 - 5*H_2) with H_2 = 3/2 mod 5 -> matches C(4,2) = 6 mod 25
        assert binom_np_minus1_mod_p2(1, PrimeContext(5), 2) == 6
        ctx = PrimeContext(7)
        assert binom_np_minus1_mod_p2(2, ctx, 6) == math.comb(13, 6) % 49

    def test_agrees_with_exact_binomial(self):
        for p in sieve_primes(5, 199):
            ctx = PrimeContext(p)
            for n in range(1, 4):
                for k in range(p):
                    assert (
                        binom_np_minus1_mod_p2(n, ctx, k)
                        == math.comb(n * p - 1, k) % ctx.p2
                    )

    def test_rejects_out_of_range_k(self):
        with pytest.raises(ValueError):
            binom_np_minus1_mod_p2(1, PrimeContext(5), 5)


class TestCoeffClosedModP2:
    """closed_row_mod_p2: row n*p - 1 mod p**2 from the closed forms."""

    def test_examples(self):
        # all three residue classes of k
        assert closed_row_mod_p2(PrimeContext(7), 1)[6] == 43  # 141 mod 49
        assert closed_row_mod_p2(PrimeContext(5), 1)[4] == 19
        assert closed_row_mod_p2(PrimeContext(5), 1)[2] == 10

    def test_agrees_with_row_engine(self):
        for p in sieve_primes(5, 61):
            ctx = PrimeContext(p)
            for n in range(1, 4):
                assert closed_row_mod_p2(ctx, n) == row_mod_prefix(n * p - 1, ctx.p2, p)

    @pytest.mark.parametrize("p", sieve_primes(5, 31))
    def test_agrees_with_row_engine_past_p2(self, p):
        # one (const, slope) pair per prime serves every n, also where the
        # exponent n*p - 1 passes p**2
        ctx = PrimeContext(p)
        for n in (p - 1, p, p + 1, 2 * p + 1):
            assert closed_row_mod_p2(ctx, n) == row_mod_prefix(n * p - 1, ctx.p2, p)


class TestAltFibSum:
    def test_examples(self):
        assert alt_fib_sum(2) == 0
        assert alt_fib_sum(0) == 1
        assert alt_fib_sum(6) == 1  # 1 - 5 + 6 - 1

    @pytest.mark.parametrize("n", range(401))
    def test_three_periodic_pattern(self, n):
        expected = 0 if n % 3 == 2 else (-1) ** (n // 3)
        assert alt_fib_sum(n) == expected


class TestHalfrowBinomialCheck:
    def test_p5(self):
        results = expand(halfrow_binomial_check(PrimeContext(5), 1))
        assert len(results) == 1  # k ranges over 1..floor((p-1)/4)
        r = results[0]
        assert (r.claim, r.k) == (ClaimId.HALF_ROW_BINOM, 1)
        assert (r.lhs, r.rhs, r.passed) == (4, 4, True)  # -C(1,1) vs 6/4 mod 5

    def test_p13_spot(self):
        results = {r.k: r for r in expand(halfrow_binomial_check(PrimeContext(13), 1))}
        assert (results[3].lhs, results[3].rhs) == (12, 12)

    @pytest.mark.parametrize("p", sieve_primes(5, 199))
    def test_sweep(self, p):
        results = expand(halfrow_binomial_check(PrimeContext(p), 1))
        assert len(results) == (p - 1) // 4
        assert all(r.passed for r in results)

    def test_both_sides_match_math_comb_to_1009(self):
        # both sides of every record of the default sweep against exact
        # binomials: (-1)**k * C((p-1)/2 - k, k) and C(4k, 2k) / 4**k mod p
        for p in sieve_primes(5, 1009):
            half = (p - 1) // 2
            ks = range(1, (p - 1) // 4 + 1)
            [r] = halfrow_binomial_check(PrimeContext(p), 1)
            assert r.lhs == [(-1) ** k * math.comb(half - k, k) % p for k in ks], p
            assert r.rhs == [math.comb(4 * k, 2 * k) * pow(4, -k, p) % p for k in ks], p

    @pytest.mark.parametrize("p", sieve_primes(5, 199) + [4999])
    def test_lhs_matches_exact_binomials(self, p):
        # the left side's mod-p recurrence against exact big-integer binomials
        half = (p - 1) // 2
        [r] = halfrow_binomial_check(PrimeContext(p), 1)
        assert r.lhs == [(-1) ** k * math.comb(half - k, k) % p
                         for k in range(1, (p - 1) // 4 + 1)]
