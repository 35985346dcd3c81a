import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from trinocheck.modular import (
    MAX_SIEVE_BOUND,
    DivisibleBase,
    NotInvertible,
    PrimeContext,
    fermat_quotient,
    inv_mod,
    is_prime,
    rat_mod,
    sieve_primes,
)


def _trial_division_primes(lo, hi):
    def prime(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    return [n for n in range(lo, hi + 1) if prime(n)]


class TestSievePrimes:
    def test_small_ranges(self):
        assert sieve_primes(5, 20) == [5, 7, 11, 13, 17, 19]
        assert sieve_primes(2, 2) == [2]
        assert sieve_primes(14, 16) == []

    @given(st.integers(2, 1500), st.integers(0, 500))
    def test_matches_trial_division(self, lo, width):
        assert sieve_primes(lo, lo + width) == _trial_division_primes(lo, lo + width)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            sieve_primes(6, 5)
        with pytest.raises(ValueError):
            sieve_primes(1, 10)
        with pytest.raises(ValueError):
            sieve_primes(2, MAX_SIEVE_BOUND + 1)


class TestIsPrime:
    def test_known_values(self):
        assert [n for n in range(2, 60) if is_prime(n)] == _trial_division_primes(2, 59)
        assert not is_prime(1)
        assert not is_prime(0)
        assert not is_prime(-7)
        # strong-pseudoprime classics
        assert not is_prime(3215031751)
        assert is_prime(2**61 - 1)
        assert not is_prime(2**61 + 1)


class TestInvMod:
    def test_examples(self):
        assert inv_mod(3, 7) == 5
        assert inv_mod(4, 13) == 10
        with pytest.raises(NotInvertible):
            inv_mod(5, 25)

    @given(st.integers(-10**6, 10**6), st.integers(2, 10**6))
    def test_inverse_property(self, a, m):
        assume(math.gcd(a, m) == 1)
        assert inv_mod(a, m) * a % m == 1


class TestRatMod:
    def test_examples(self):
        assert rat_mod(3, 2, 7) == 5
        assert rat_mod(0, 9, 13) == 0

    def test_negative_numerator_matches_brute_force(self):
        # exhaustive oracle: the x with 3*x == -2 (mod 11)
        expected = [x for x in range(11) if 3 * x % 11 == -2 % 11]
        assert expected == [3]
        assert rat_mod(-2, 3, 11) == 3

    @given(st.integers(-200, 200), st.integers(1, 50), st.integers(2, 50))
    def test_matches_exhaustive_search(self, num, den, m):
        assume(math.gcd(den, m) == 1)
        solutions = [x for x in range(m) if den * x % m == num % m]
        assert [rat_mod(num, den, m)] == solutions

    def test_propagates_not_invertible(self):
        with pytest.raises(NotInvertible):
            rat_mod(1, 5, 25)


class TestPrimeContext:
    def test_fields(self):
        ctx = PrimeContext(7)
        assert (ctx.p, ctx.p2, ctx.p3, ctx.p4) == (7, 49, 343, 2401)
        assert ctx.rc6 == 1
        ctx = PrimeContext(11)
        assert ctx.rc6 == 5

    @pytest.mark.parametrize("bad", [2, 3, 4, 9, 15, 1, 0, -5, 1009 * 1013])
    def test_rejects_non_primes_and_tiny_primes(self, bad):
        with pytest.raises(ValueError):
            PrimeContext(bad)

    def test_fermat_quotient_fields(self):
        for p in sieve_primes(5, 199):
            ctx = PrimeContext(p)
            assert ctx.q2 == fermat_quotient(2, ctx)
            assert ctx.q3 == fermat_quotient(3, ctx)

    def test_rc6_determines_rc3(self):
        for p in sieve_primes(5, 2003):
            ctx = PrimeContext(p)
            assert ctx.rc6 in (1, 5)


class TestFermatQuotient:
    def test_examples(self):
        assert fermat_quotient(2, PrimeContext(5)) == 3  # (16-1)/5
        # 3**10 - 1 = 11 * 5368 and 5368 == 0 mod 11 (base-3 Wieferich-type)
        assert fermat_quotient(3, PrimeContext(11)) == 0
        assert fermat_quotient(3, PrimeContext(7)) == 6  # (729-1)/7 = 104

    def test_rejects_divisible_base(self):
        with pytest.raises(DivisibleBase):
            fermat_quotient(14, PrimeContext(7))

    @given(st.sampled_from(_trial_division_primes(5, 500)), st.integers(1, 10**6))
    def test_defining_congruence(self, p, a):
        assume(a % p != 0)
        ctx = PrimeContext(p)
        q = fermat_quotient(a, ctx)
        # a**(p-1) == 1 + p*q_a holds exactly mod p**2
        assert pow(a, p - 1, ctx.p2) == (1 + p * q) % ctx.p2

    def test_square_rule(self):
        # q_{a*a} == 2*q_a mod p is forced: a**(2(p-1)) = (1 + p*q_a)**2
        # = 1 + 2*p*q_a + p**2*q_a**2, and the quotient reads off mod p.
        for a in (2, 3):
            for p in sieve_primes(5, 2003):
                ctx = PrimeContext(p)
                assert (
                    fermat_quotient(a * a, ctx)
                    == 2 * fermat_quotient(a, ctx) % p
                )
