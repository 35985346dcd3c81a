"""One checker per congruence claim.

Every checker computes its two sides by disjoint codepaths: the left side
always comes from a counting engine (trinomial rows, binomial products,
explicit summation), the right side from Fermat-quotient closed forms or
plain constants.  Right-hand terms that carry an explicit factor p evaluate
their quotient coefficient mod p and lift; constant terms are exact at the
full claim modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .claims import CheckResult, ClaimId, result
from .harmonic import (
    check_half_third_sixth,
    check_progression_lemmas,
    check_reflections,
    harmonic_table,
    inverse_table,
)
from .modular import PrimeContext, inv_mod, rat_mod
from .trinomial import (
    central4_table,
    closed_row_mod_p2,
    halfrow_binomial_check,
    row_mod_p2_prefix,
)


def _binom_coprime_mod(ctx: PrimeContext, a: int, k: int) -> int:
    """C(a, k) mod p**4 as a falling-factorial quotient, read through
    ctx.cached so each product is formed once per prime; every classical
    claim reduces it to its own modulus.

    Valid only when p divides none of a, a-1, ..., a-k+1 or k!; the
    classical claims below only ever call it that way.
    """
    p4 = ctx.p4
    num = 1
    den = 1
    for i in range(1, k + 1):
        num = num * (a - i + 1) % p4
        den = den * i % p4
    return num * inv_mod(den, p4) % p4


def check_thm1_eq2(ctx: PrimeContext, n: int) -> list[CheckResult]:
    """Trinomial C(np-1, p-1)_2 mod p**2 vs +-(1 + n*p*q3) per p mod 3."""
    p, p2 = ctx.p, ctx.p2
    lhs = ctx.cached(row_mod_p2_prefix, n * p - 1)[p - 1]
    if ctx.rc3 == 1:
        rhs = (1 + n * p * ctx.q3) % p2
    else:
        rhs = (-1 - n * p * ctx.q3) % p2
    return [result(ClaimId.THM1_EQ2, p, p2, lhs, rhs, n=n)]


def check_thm1_eq4(ctx: PrimeContext, n: int) -> list[CheckResult]:
    """Trinomial C(np-1, (p-1)/2)_2 mod p**2 vs the half-row closed form."""
    p, p2 = ctx.p, ctx.p2
    lhs = ctx.cached(row_mod_p2_prefix, n * p - 1)[(p - 1) // 2]
    half_q3 = rat_mod(ctx.q3, 2, p)
    if ctx.rc6 == 1:
        coef = (2 * ctx.q2 + half_q3) % p
        rhs = (1 + n * p * coef) % p2
    else:
        rhs = -n * p * half_q3 % p2
    return [result(ClaimId.THM1_EQ4, p, p2, lhs, rhs, n=n)]


def check_thm2_eq6(ctx: PrimeContext) -> list[CheckResult]:
    """sum_{k=0..(p-1)/2} C(2k,k) * H_k mod p vs -+q3 per p mod 3.

    Central binomials mod p come from the multiplicative recurrence
    C(2k,k) = C(2k-2,k-1) * 2*(2k-1) / k; all factors stay below p.
    """
    p = ctx.p
    table = ctx.cached(harmonic_table)
    inv = ctx.cached(inverse_table)
    central = 1
    acc = 0  # k = 0 term vanishes with H_0 = 0
    for k in range(1, (p - 1) // 2 + 1):
        central = central * (2 * (2 * k - 1)) % p * inv[k] % p
        acc = (acc + central * table[k]) % p
    rhs = -ctx.q3 % p if ctx.rc3 == 1 else ctx.q3
    return [result(ClaimId.THM2_EQ6, p, p, acc, rhs)]


def check_thm2_eq7(ctx: PrimeContext) -> list[CheckResult]:
    """sum_{k=1..floor((p-1)/4)} C(4k,2k)/4**k * (2*H_{2k} - H_k) mod p vs
    -+(-1)**((p-1)/2) * q3/2 per p mod 6."""
    p = ctx.p
    table = ctx.cached(harmonic_table)
    central4 = ctx.cached(central4_table)
    acc = 0
    for k in range(1, len(central4)):
        acc = (acc + central4[k] * (2 * table[2 * k] - table[k])) % p
    sign = 1 if (p - 1) // 2 % 2 == 0 else -1
    half_q3 = rat_mod(ctx.q3, 2, p)
    rhs = -sign * half_q3 % p if ctx.rc6 == 1 else sign * half_q3 % p
    return [result(ClaimId.THM2_EQ7, p, p, acc, rhs)]


def check_prop3_eq9(ctx: PrimeContext, n: int) -> list[CheckResult]:
    """sum_{k=0..p-1} C(np-1,k)_2 mod p**2 vs 1 + n*p*q3 or 0 per p mod 3."""
    p, p2 = ctx.p, ctx.p2
    lhs = sum(ctx.cached(row_mod_p2_prefix, n * p - 1)) % p2
    if ctx.rc3 == 1:
        rhs = (1 + n * p * ctx.q3) % p2
    else:
        rhs = 0
    return [result(ClaimId.PROP3_EQ9, p, p2, lhs, rhs, n=n)]


def check_prop3_eq10(ctx: PrimeContext, n: int) -> list[CheckResult]:
    """sum_{k=0..(p-1)/2} C(np-1,k)_2 mod p**2 vs the half-range closed form."""
    p, p2 = ctx.p, ctx.p2
    row = ctx.cached(row_mod_p2_prefix, n * p - 1)
    lhs = sum(row[: (p - 1) // 2 + 1]) % p2
    if ctx.rc6 == 1:
        coef = (rat_mod(4 * ctx.q2, 3, p) + ctx.q3) % p
        rhs = (1 + n * p * coef) % p2
    else:
        rhs = -n * p * rat_mod(2 * ctx.q2, 3, p) % p2
    return [result(ClaimId.PROP3_EQ10, p, p2, lhs, rhs, n=n)]


def check_cor4_eq11(ctx: PrimeContext, n: int) -> list[CheckResult]:
    """C(n*p**2 - 1, k)_2 mod p**2 vs the 1, -1, 0 pattern by k mod 3,
    one record per k in 0..p-1."""
    p, p2 = ctx.p, ctx.p2
    row = ctx.cached(row_mod_p2_prefix, n * p2 - 1)
    pattern = (1, p2 - 1, 0)
    return [
        result(ClaimId.COR4_EQ11, p, p2, row[k], pattern[k % 3], n=n, k=k)
        for k in range(p)
    ]


def check_triple_sum(ctx: PrimeContext, n: int) -> list[CheckResult]:
    """Sum of the three closed forms at 3k, 3k+1, 3k+2 vs n*p/(3k+2) mod p**2,
    one record per k with 3k+2 <= p-1."""
    p, p2 = ctx.p, ctx.p2
    inv = ctx.cached(inverse_table)
    row = ctx.cached(closed_row_mod_p2, n)
    out = []
    k = 0
    while 3 * k + 2 <= p - 1:
        lhs = (row[3 * k] + row[3 * k + 1] + row[3 * k + 2]) % p2
        rhs = n * p * inv[3 * k + 2] % p2
        out.append(result(ClaimId.TRIPLE_SUM_A, p, p2, lhs, rhs, n=n, k=k))
        k += 1
    return out


def check_babbage(ctx: PrimeContext) -> list[CheckResult]:
    """C(2p-1, p-1) == 1 mod p**2."""
    lhs = ctx.cached(_binom_coprime_mod, 2 * ctx.p - 1, ctx.p - 1) % ctx.p2
    return [result(ClaimId.BABBAGE, ctx.p, ctx.p2, lhs, 1)]


def check_wolstenholme(ctx: PrimeContext) -> list[CheckResult]:
    """C(2p-1, p-1) == 1 mod p**3."""
    lhs = ctx.cached(_binom_coprime_mod, 2 * ctx.p - 1, ctx.p - 1) % ctx.p3
    return [result(ClaimId.WOLSTENHOLME, ctx.p, ctx.p3, lhs, 1)]


def check_glaisher(ctx: PrimeContext, n: int) -> list[CheckResult]:
    """C(np-1, p-1) == 1 mod p**3 for every n >= 1."""
    lhs = ctx.cached(_binom_coprime_mod, n * ctx.p - 1, ctx.p - 1) % ctx.p3
    return [result(ClaimId.GLAISHER, ctx.p, ctx.p3, lhs, 1, n=n)]


def check_morley(ctx: PrimeContext) -> list[CheckResult]:
    """C(p-1, (p-1)/2) vs (-1)**((p-1)/2) * 4**(p-1) mod p**3."""
    p, p3 = ctx.p, ctx.p3
    lhs = ctx.cached(_binom_coprime_mod, p - 1, (p - 1) // 2) % p3
    sign = 1 if (p - 1) // 2 % 2 == 0 else -1
    rhs = sign * pow(4, p - 1, p3) % p3
    return [result(ClaimId.MORLEY, p, p3, lhs, rhs)]


def check_carlitz(ctx: PrimeContext) -> list[CheckResult]:
    """(-1)**((p-1)/2) * C(p-1, (p-1)/2) vs 4**(p-1) + p**3/12 mod p**4.

    Checked exactly as cataloged, and that form is false for every p >= 7:
    Carlitz's congruence is 4**(p-1) + p**3 * B_{p-3}/12 (mod p**4), with
    B_{p-3} a Bernoulli number, and B_2 = 1/6 == 1 (mod 5) makes p = 5 the
    only pass.  See the Carlitz note in the README.
    """
    p, p4 = ctx.p, ctx.p4
    sign = 1 if (p - 1) // 2 % 2 == 0 else -1
    lhs = sign * ctx.cached(_binom_coprime_mod, p - 1, (p - 1) // 2) % p4
    rhs = (pow(4, p - 1, p4) + ctx.p3 * inv_mod(12, p4)) % p4
    return [result(ClaimId.CARLITZ, p, p4, lhs, rhs)]


@dataclass(frozen=True, eq=False)
class ClaimSpec:
    """How a claim is swept: whether its checker takes the n parameter, and
    the checker, run(ctx) or run(ctx, n), returning a list of records.

    Claims checked by one function share one spec, and the sweep runs each
    distinct spec once per prime (per (p, n) when per_n).  Specs compare by
    identity, so a replaced entry is never merged with the spec it replaced.
    """

    per_n: bool
    run: Callable[..., list[CheckResult]]


CLAIM_REGISTRY: dict[ClaimId, ClaimSpec] = {
    ClaimId.THM1_EQ2: ClaimSpec(True, check_thm1_eq2),
    ClaimId.THM1_EQ4: ClaimSpec(True, check_thm1_eq4),
    ClaimId.THM2_EQ6: ClaimSpec(False, check_thm2_eq6),
    ClaimId.THM2_EQ7: ClaimSpec(False, check_thm2_eq7),
    ClaimId.PROP3_EQ9: ClaimSpec(True, check_prop3_eq9),
    ClaimId.PROP3_EQ10: ClaimSpec(True, check_prop3_eq10),
    ClaimId.COR4_EQ11: ClaimSpec(True, check_cor4_eq11),
    ClaimId.TRIPLE_SUM_A: ClaimSpec(True, check_triple_sum),
    ClaimId.BABBAGE: ClaimSpec(False, check_babbage),
    ClaimId.WOLSTENHOLME: ClaimSpec(False, check_wolstenholme),
    ClaimId.GLAISHER: ClaimSpec(True, check_glaisher),
    ClaimId.MORLEY: ClaimSpec(False, check_morley),
    ClaimId.CARLITZ: ClaimSpec(False, check_carlitz),
    ClaimId.HALF_ROW_BINOM: ClaimSpec(False, halfrow_binomial_check),
    **dict.fromkeys(
        (ClaimId.GL0, ClaimId.GL, ClaimId.GL2), ClaimSpec(False, check_half_third_sixth)
    ),
    **dict.fromkeys((ClaimId.CONG0, ClaimId.CONG1), ClaimSpec(False, check_reflections)),
    **dict.fromkeys(
        (ClaimId.C1B, ClaimId.C1C, ClaimId.C2B, ClaimId.C2C, ClaimId.C3, ClaimId.C3B,
         ClaimId.H0, ClaimId.H1, ClaimId.H2, ClaimId.H3),
        ClaimSpec(False, check_progression_lemmas),
    ),
}
