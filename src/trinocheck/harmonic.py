"""Harmonic numbers and arithmetic-progression harmonic sums modulo p.

H_0 = 0 and H_n = 1 + 1/2 + ... + 1/n, with every division performed by
modular inversion.  The checkers at the bottom verify the stock of
harmonic-sum congruences (half/third/sixth prefixes against Fermat-quotient
combinations, reflection rules, and the arithmetic-progression sums) that
the trinomial closed forms are built on.
"""

from __future__ import annotations

from .claims import CheckResult, ClaimId, result
from .modular import PrimeContext, inv_mod, rat_mod


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
    inv = ctx.cached(inverse_table)
    p = ctx.p
    values = [0] * p
    acc = 0
    for n in range(1, p):
        acc = (acc + inv[n]) % p
        values[n] = acc
    return values


def ap_harmonic(m: int, d: int, r: int, ctx: PrimeContext) -> int:
    """Sum_{k=0..m} 1/(d*k + r) mod p (empty when m < 0).

    Raises NotInvertible if any term d*k + r hits a multiple of p.
    """
    p = ctx.p
    acc = 0
    for k in range(m + 1):
        acc += inv_mod(d * k + r, p)
    return acc % p


def check_half_third_sixth(ctx: PrimeContext) -> list[CheckResult]:
    """H at the floor(p/2), floor(p/3), floor(p/6) prefixes vs -2*q2, -(3/2)*q3
    and their sum, all mod p."""
    table = ctx.cached(harmonic_table)
    p = ctx.p
    half_rhs = -2 * ctx.q2 % p
    third_rhs = rat_mod(-3 * ctx.q3, 2, p)
    sixth_rhs = (half_rhs + third_rhs) % p
    return [
        result(ClaimId.GL0, p, p, table[p // 2], half_rhs),
        result(ClaimId.GL, p, p, table[p // 3], third_rhs),
        result(ClaimId.GL2, p, p, table[p // 6], sixth_rhs),
    ]


def check_reflections(ctx: PrimeContext) -> list[CheckResult]:
    """Reflection rules, one record per index k:

    H_{p-k} == H_{k-1} for 1 <= k <= p-1, and
    H_{(p-1)/2 - k} == -2*q2 + 2*H_{2k} - H_k for 1 <= k <= (p-1)/2.
    """
    table = ctx.cached(harmonic_table)
    p = ctx.p
    out = []
    for k in range(1, p):
        out.append(result(ClaimId.CONG0, p, p, table[p - k], table[k - 1], k=k))
    half = (p - 1) // 2
    for k in range(1, half + 1):
        rhs = (-2 * ctx.q2 + 2 * table[2 * k] - table[k]) % p
        out.append(result(ClaimId.CONG1, p, p, table[half - k], rhs, k=k))
    return out


def check_progression_lemmas(ctx: PrimeContext) -> list[CheckResult]:
    """Arithmetic-progression harmonic sums against their closed forms mod p.

    Emits only the claims applicable to ctx's residue class; inapplicable
    claims contribute no record at all (no vacuous passes).  All term
    indices stay below p, so every inversion exists.
    """
    p = ctx.p
    half_q3 = rat_mod(ctx.q3, 2, p)
    two_thirds_q2 = rat_mod(-2 * ctx.q2, 3, p)
    # (claim, m, d, r, rhs): sum_{k=0..m} 1/(d*k + r) == rhs
    if ctx.rc3 == 1:
        m = (p - 4) // 3
        sums = [(ClaimId.C1B, m, 3, 2, 0), (ClaimId.C1C, m, 3, 1, half_q3)]
    else:
        m = (p - 5) // 3
        sums = [(ClaimId.C2B, m, 3, 1, 1), (ClaimId.C2C, m, 3, 2, half_q3)]
    odd_rhs = ctx.q2 + rat_mod(-3 * ctx.q3, 4, p)
    if ctx.rc6 == 1:
        m = (p - 1) // 6
        sums += [
            (ClaimId.C3, m, 2, 1, odd_rhs + rat_mod(3, 2, p)),
            (ClaimId.H0, m, 3, 1, two_thirds_q2 + 2),
            (ClaimId.H1, m, 3, 2, two_thirds_q2 + half_q3 + rat_mod(2, 3, p)),
        ]
    else:
        m = (p - 5) // 6
        sums += [
            (ClaimId.C3B, m, 2, 1, odd_rhs),
            (ClaimId.H3, m, 3, 1, half_q3 + two_thirds_q2),
            (ClaimId.H2, m, 3, 2, two_thirds_q2),
        ]
    return [
        result(claim, p, p, ap_harmonic(m, d, r, ctx), rhs)
        for claim, m, d, r, rhs in sums
    ]
