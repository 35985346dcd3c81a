"""Harmonic numbers modulo p.

H_0 = 0 and H_n = 1 + 1/2 + ... + 1/n, with every division performed by
modular inversion.  These tables feed the harmonic-sum claims checked in
congruences, whose progression sums are slices of the inverse table; the
general progression sum they are held against is a test oracle
(ap_harmonic in tests/oracles.py).
"""

from __future__ import annotations

from itertools import accumulate

from .modular import PrimeContext


def inverse_table(ctx: PrimeContext) -> list[int]:
    """inv[i] = i**-1 mod p for 1 <= i < p (inv[0] = 0).

    Uses the standard recurrence inv[i] = -(p // i) * inv[p % i]; required to
    be bit-equivalent to per-element inv_mod, which the tests enforce.
    """
    p = ctx.p
    inv = [0] * p
    inv[1] = 1
    for i in range(2, p):
        inv[i] = (p - p // i) * inv[p % i] % p
    return inv


def harmonic_table(ctx: PrimeContext) -> list[int]:
    """H_n mod p for 0 <= n <= p-1, as prefix sums of modular inverses in O(p).

    Entry 0 is 0 by definition and entry p-1 is 0 (the numerator of
    H_{p-1} is divisible by p for p >= 5).  Shared through ctx.cached, so
    callers must not mutate it.
    """
    p = ctx.p
    return [h % p for h in accumulate(ctx.cached(inverse_table))]

