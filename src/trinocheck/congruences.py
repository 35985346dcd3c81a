"""The claims layer: the claim catalog, the check record, and one checker
per counted quantity, emitting every claim whose left side reads it.

The engine modules (harmonic, trinomial, modular) compute numbers only; this
is the one module that builds records.  Every checker computes its two sides
by disjoint codepaths: the left side comes from a counting engine
(trinomial rows, binomial products, explicit summation), the right side from
Fermat-quotient closed forms or plain constants; but both sides of Cong0 and
Cong1 slice one harmonic table, so they check a symmetry of that table, and
tests/test_congruences.py's test_perturbation_gate allows no other.  Where a proven law in n
gives every per-n left side from a few counted values (the row claims,
TripleSum_a, Glaisher), the checker counts those values once per prime and
says in its docstring why the law holds.  Right-hand terms that carry an
explicit factor p evaluate their quotient coefficient mod p and lift;
constant terms are exact at the full claim modulus.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from collections.abc import Callable
from operator import add, mul

from .harmonic import harmonic_table, inverse_table
from .modular import PrimeContext, inv_mod, rat_mod
from .trinomial import central4_table, row_mod_p2_prefix


class ClaimId(str, enum.Enum):
    """Closed catalog of verifiable congruence claims.

    The string values are the stable wire names used by reports and the
    --claims CLI flag.  Declaration order is the canonical claim order used
    when sorting report records.
    """

    THM1_EQ2 = "Thm1_Eq2"
    THM1_EQ4 = "Thm1_Eq4"
    THM2_EQ6 = "Thm2_Eq6"
    THM2_EQ7 = "Thm2_Eq7"
    PROP3_EQ9 = "Prop3_Eq9"
    PROP3_EQ10 = "Prop3_Eq10"
    COR4_EQ11 = "Cor4_Eq11"
    TRIPLE_SUM_A = "TripleSum_a"
    BABBAGE = "Babbage"
    WOLSTENHOLME = "Wolstenholme"
    GLAISHER = "Glaisher"
    MORLEY = "Morley"
    CARLITZ = "Carlitz"
    HALF_ROW_BINOM = "HalfRowBinom"
    GL0 = "GL0"
    GL = "GL"
    GL2 = "GL2"
    CONG0 = "Cong0"
    CONG1 = "Cong1"
    C1B = "C1b"
    C1C = "C1c"
    C2B = "C2b"
    C2C = "C2c"
    C3 = "C3"
    C3B = "C3b"
    H0 = "H0"
    H1 = "H1"
    H2 = "H2"
    H3 = "H3"


#: Canonical position of each claim in report ordering.
CLAIM_ORDER: dict[ClaimId, int] = {c: i for i, c in enumerate(ClaimId)}


class CheckResult(namedtuple("CheckResult", "claim p n k modulus lhs rhs")):
    """One claim's instances at (p, n): instance i passes iff lhs[i] == rhs[i].

    The record contract, which every checker keeps and
    tests/test_congruences.py's test_checkers_emit_their_entries checks:
    `claim` is a ClaimId; `n` is None for claims without n; `k` is the index
    of instance 0 (instance i has k + i), or None for a claim without an
    index, which has exactly one instance; lhs and rhs are nonempty lists of
    one length, of plain ints in [0, modulus), reduced by the checker that
    builds the record.  A side may be a ctx.cached table, so nothing may
    mutate them.  A --summary-only aggregate holds unreduced counts instead
    of residues.
    """

    __slots__ = ()


#: Factors per exact product in _product_mod: enough that most of the work
#: runs inside math.perm, few enough that a partial product stays a few
#: hundred bits at the sweep's sizes.
_CHUNK = 32


def _product_mod(lo: int, hi: int, m: int) -> int:
    """lo * (lo + 1) * ... * (hi - 1) mod m (1 when lo >= hi): the chunk
    j..top-1 of _CHUNK factors is math.perm(top - 1, top - j), reduced once."""
    acc = 1
    for j in range(lo, hi, _CHUNK):
        acc = acc * math.perm(min(j + _CHUNK, hi) - 1, min(_CHUNK, hi - j)) % m
    return acc


def _row_forms(ctx: PrimeContext) -> tuple[tuple[int, int], ...]:
    """(constant, n*p coefficient) of the Thm1 Eq2, Thm1 Eq4, Prop3 Eq9 and
    Prop3 Eq10 right sides, per p mod 6 (which fixes p mod 3): the README's
    closed forms."""
    p = ctx.p
    half_q3 = rat_mod(ctx.q3, 2, p)
    if ctx.rc6 == 1:
        return ((1, ctx.q3), (1, 2 * ctx.q2 + half_q3),
                (1, ctx.q3), (1, rat_mod(4 * ctx.q2, 3, p) + ctx.q3))
    return ((-1, -ctx.q3), (0, -half_q3), (0, 0), (0, -rat_mod(2 * ctx.q2, 3, p)))


def check_row_np_minus1(ctx: PrimeContext, nmax: int) -> list[CheckResult]:
    """Row C(np-1, k)_2 mod p**2, k <= p-1, for n = 1..nmax, read for four
    claims: Thm1 Eq2 (k = p-1), Thm1 Eq4 (k = (p-1)/2), Prop3 Eq9 (sum over
    k) and Prop3 Eq10 (sum over k <= (p-1)/2).

    For k < p, C(N, k)_2 is a polynomial in N with p-integral coefficients
    (see row_mod_p2_prefix), so its Taylor expansion at N = -1 gives
    C(np-1, k)_2 == A[k] + n*B[k] (mod p**2), where A is the row at
    N == -1 == p**2 - 1 (the Cor4_Eq11 row, under the same memo key) and
    A + B the row at N = p - 1.  Two counted rows fix every n: each of the
    four functionals is a + n*b at every n >= 0, so each n costs O(1), as
    does each right side, constant + n*p*coefficient from _row_forms.
    """
    p, p2 = ctx.p, ctx.p2
    half = (p - 1) // 2

    def forms(row: list[int]) -> tuple[int, ...]:
        return row[p - 1], row[half], sum(row), sum(row[: half + 1])

    at0 = forms(ctx.cached(row_mod_p2_prefix, p2 - 1))
    at1 = forms(ctx.cached(row_mod_p2_prefix, p - 1))
    claims = (ClaimId.THM1_EQ2, ClaimId.THM1_EQ4, ClaimId.PROP3_EQ9, ClaimId.PROP3_EQ10)
    laws = [(claim, a, b - a, const, coef)
            for claim, a, b, (const, coef) in zip(claims, at0, at1, _row_forms(ctx))]
    return [
        CheckResult(claim, p, n, None, p2, [(a + n * b) % p2], [(const + n * p * coef) % p2])
        for n in range(1, nmax + 1)
        for claim, a, b, const, coef in laws
    ]


def check_thm2_eq6(ctx: PrimeContext, nmax: int) -> list[CheckResult]:
    """sum_{k=0..(p-1)/2} C(2k,k) * H_k mod p vs -+q3 per p mod 3.

    Central binomials mod p come from the multiplicative recurrence
    C(2k,k) = C(2k-2,k-1) * (4k-2) / k, reduced once a step (p divides no
    factor); the sum is reduced once, at the end.
    """
    p = ctx.p
    table = ctx.cached(harmonic_table)
    inv = ctx.cached(inverse_table)
    central, acc = 1, 0  # the k = 0 term vanishes with H_0 = 0
    for step, inv_k, h_k in zip(range(2, 2 * p, 4), inv[1 : (p + 1) // 2], table[1 : (p + 1) // 2]):
        central = central * step * inv_k % p
        acc += central * h_k
    rhs = -ctx.q3 % p if ctx.rc6 == 1 else ctx.q3  # rc6 == 1 iff p == 1 (mod 3)
    return [CheckResult(ClaimId.THM2_EQ6, p, None, None, p, [acc % p], [rhs])]


def check_thm2_eq7(ctx: PrimeContext, nmax: int) -> list[CheckResult]:
    """sum_{k=1..floor((p-1)/4)} C(4k,2k)/4**k * (2*H_{2k} - H_k) mod p vs
    -+(-1)**((p-1)/2) * q3/2 per p mod 6; the k = 0 terms vanish (H_0 = 0)."""
    p = ctx.p
    table = ctx.cached(harmonic_table)
    central4 = ctx.cached(central4_table)
    acc = (2 * sum(map(mul, central4, table[::2])) - sum(map(mul, central4, table))) % p
    sign = 1 if (p - 1) // 2 % 2 == 0 else -1
    rhs = (-sign if ctx.rc6 == 1 else sign) * rat_mod(ctx.q3, 2, p) % p
    return [CheckResult(ClaimId.THM2_EQ7, p, None, None, p, [acc], [rhs])]


def check_cor4_eq11(ctx: PrimeContext, nmax: int) -> list[CheckResult]:
    """C(n*p**2 - 1, k)_2 mod p**2 vs the 1, -1, 0 pattern by k mod 3, for
    k in 0..p-1 and n = 1..nmax.  The exponent is p**2 - 1 mod p**2 at every
    n, so all nmax records share one row, the lhs as cached, and one
    pattern."""
    p, p2 = ctx.p, ctx.p2
    row = ctx.cached(row_mod_p2_prefix, p2 - 1)
    pattern = ([1, p2 - 1, 0] * (p // 3 + 1))[:p]
    return [CheckResult(ClaimId.COR4_EQ11, p, n, 0, p2, row, pattern)
            for n in range(1, nmax + 1)]


def check_triple_sum(ctx: PrimeContext, nmax: int) -> list[CheckResult]:
    """Sum of C(np-1, j)_2 over j = 3k, 3k+1, 3k+2 vs n*p/(3k+2) mod p**2,
    for every k with 3k+2 <= p-1 and n = 1..nmax.

    The left side is n*t[k] mod p**2, with t the triple sums of the counted
    row p - 1 (the row check_row_np_minus1 reads, under the same memo key).
    Multiplying row N by 1 + x + x**2 gives row N + 1, so the triple sum of
    row N at block k is C(N+1, 3k+2)_2.  For 0 < j < p, C(M, j)_2 is a
    polynomial in M with p-integral coefficients (see row_mod_p2_prefix)
    that vanishes at M = 0, so it is M*g(M) with g p-integral, and
    C(np, j)_2 == n*p*g(0) == n*C(p, j)_2 (mod p**2).  The right side reads
    inverse_table (mod p), which the row engine does not.
    """
    p, p2 = ctx.p, ctx.p2
    row = ctx.cached(row_mod_p2_prefix, p - 1)
    triples = list(map(add, map(add, row[::3], row[1::3]), row[2::3]))  # below 3*p**2
    steps = [p * i for i in ctx.cached(inverse_table)[2::3]]  # p/(3k+2) mod p**2
    return [
        CheckResult(ClaimId.TRIPLE_SUM_A, p, n, 0, p2,
                    [n * t % p2 for t in triples], [n * s % p2 for s in steps])
        for n in range(1, nmax + 1)
    ]


def check_classical(ctx: PrimeContext, nmax: int) -> list[CheckResult]:
    """The five classical binomial claims, from one walk over 1..p-1 mod p**4:

    W = C(2p-1, p-1) == 1 mod p**2 (Babbage) and mod p**3 (Wolstenholme);
    C(np-1, p-1) == 1 mod p**3 for n = 1..nmax (Glaisher);
    C(p-1, (p-1)/2) vs (-1)**((p-1)/2) * 4**(p-1) mod p**3 (Morley), and
    (-1)**((p-1)/2) * C(p-1, (p-1)/2) vs 4**(p-1) + p**3/12 mod p**4 (Carlitz).

    With h = (p-1)/2, the walk gives low = h! and high = (h+1)...(p-1), so
    1/(p-1)! = 1/(low*high) and C(p-1, h) = high/low, and W is
    (p+1)...(2p-1) / (p-1)!.  No factor is divisible by p, so both inverses
    exist mod p**4.

    Glaisher: C(np - 1, p - 1) = prod_{j<p} (1 - np/j) is a polynomial in n
    whose n**i coefficient is (-p)**i times the p-integral symmetric function
    e_i of 1/1..1/(p-1), so mod p**3 it is quadratic in n.  It is 1 at n = 0
    and n = 1, so it is 1 + C(n, 2)*(W - 1); and since W == 1 (mod p**3),
    Glaisher at every n follows from Wolstenholme.  At n = nmax >= 3 the
    binomial, (nmax*p - p + 1)...(nmax*p - 1) / (p-1)!, is counted too, and
    a disagreement with the law is an internal error, so every run with
    nmax >= 3 checks the law it reports.

    Carlitz is checked exactly as cataloged, and that form is false for most
    p: Carlitz's congruence is 4**(p-1) + p**3 * B_{p-3}/12 (mod p**4), with
    B_{p-3} a Bernoulli number, so the cataloged form passes only where
    B_{p-3} == 1 (mod p): p = 5 (B_2 = 1/6) and p = 557 up to 1009.  See the
    Carlitz note in the README.
    """
    p, p2, p3, p4 = ctx.p, ctx.p2, ctx.p3, ctx.p4
    h = (p - 1) // 2
    low = _product_mod(1, h + 1, p4)
    high = _product_mod(h + 1, p, p4)
    inv_factorial = inv_mod(low * high, p4)
    w = _product_mod(p + 1, 2 * p, p4) * inv_factorial % p4
    central = high * inv_mod(low, p4) % p4
    glaisher = [(1 + n * (n - 1) // 2 * (w - 1)) % p3 for n in range(1, nmax + 1)]
    if nmax >= 3:
        counted = _product_mod(nmax * p - p + 1, nmax * p, p4) * inv_factorial % p3
        if counted != glaisher[-1]:
            raise RuntimeError(f"C({nmax * p - 1}, {p - 1}) mod p**3 is {counted}, "
                               f"but the quadratic law gives {glaisher[-1]}")
    sign = 1 if h % 2 == 0 else -1
    four = pow(4, p - 1, p4)
    return [
        CheckResult(ClaimId.BABBAGE, p, None, None, p2, [w % p2], [1]),
        CheckResult(ClaimId.WOLSTENHOLME, p, None, None, p3, [w % p3], [1]),
        CheckResult(ClaimId.MORLEY, p, None, None, p3, [central % p3], [sign * four % p3]),
        CheckResult(ClaimId.CARLITZ, p, None, None, p4, [sign * central % p4],
                    [(four + p3 * inv_mod(12, p4)) % p4]),
        *(CheckResult(ClaimId.GLAISHER, p, n, None, p3, [a], [1])
          for n, a in enumerate(glaisher, 1)),
    ]


def halfrow_binomial_check(ctx: PrimeContext, nmax: int) -> list[CheckResult]:
    """(-1)**k * C((p-1)/2 - k, k) vs C(4k, 2k) / 4**k mod p, for k in
    1..floor((p-1)/4).

    The left side comes from the mod-p recurrence C(h-k, k) =
    C(h-k+1, k-1) * (h-2k+2)(h-2k+1) / (k*(h-k+1)) with h = (p-1)/2, whose
    factors stay below p and invert by pow; the right side is central4_table,
    read from inverse_table, so the codepaths stay apart.
    """
    p = ctx.p
    half = (p - 1) // 2
    central4 = ctx.cached(central4_table)
    binom = 1
    lhs = []
    for k in range(1, len(central4)):
        binom = (binom * (half - 2 * k + 2) * (half - 2 * k + 1)
                 * pow(k * (half - k + 1), -1, p) % p)
        lhs.append(-binom % p if k % 2 else binom)
    return [CheckResult(ClaimId.HALF_ROW_BINOM, p, None, 1, p, lhs, central4[1:])]


def check_half_third_sixth(ctx: PrimeContext, nmax: int) -> list[CheckResult]:
    """H at the floor(p/2), floor(p/3), floor(p/6) prefixes vs -2*q2, -(3/2)*q3
    and their sum, all mod p."""
    table = ctx.cached(harmonic_table)
    p = ctx.p
    half_rhs = -2 * ctx.q2 % p
    third_rhs = rat_mod(-3 * ctx.q3, 2, p)
    sixth_rhs = (half_rhs + third_rhs) % p
    return [
        CheckResult(ClaimId.GL0, p, None, None, p, [table[p // 2]], [half_rhs]),
        CheckResult(ClaimId.GL, p, None, None, p, [table[p // 3]], [third_rhs]),
        CheckResult(ClaimId.GL2, p, None, None, p, [table[p // 6]], [sixth_rhs]),
    ]


def check_reflections(ctx: PrimeContext, nmax: int) -> list[CheckResult]:
    """Reflection rules, over the index k:

    H_{p-k} == H_{k-1} for 1 <= k <= p-1, and
    H_{(p-1)/2 - k} == -2*q2 + 2*H_{2k} - H_k for 1 <= k <= (p-1)/2.

    Both left sides and Cong0's right side are slices of the harmonic
    table, and Cong1's right side is built from it.  So both sides read one
    table, and these claims check a symmetry of it, not the congruence:
    the two pairs test_perturbation_gate allows.
    """
    table = ctx.cached(harmonic_table)
    p = ctx.p
    half = (p - 1) // 2
    q = -2 * ctx.q2
    cong1_rhs = [(q + 2 * h2 - h) % p for h2, h in zip(table[2::2], table[1 : half + 1])]
    return [
        CheckResult(ClaimId.CONG0, p, None, 1, p, table[:0:-1], table[: p - 1]),
        CheckResult(ClaimId.CONG1, p, None, 1, p, table[half - 1 :: -1], cong1_rhs),
    ]


def check_progression_lemmas(ctx: PrimeContext, nmax: int) -> list[CheckResult]:
    """Arithmetic-progression harmonic sums against their closed forms mod p.

    Emits only the claims applicable to ctx's residue class; inapplicable
    claims contribute no record at all (no vacuous passes).  Every term
    d*k + r lies in 1..p-1, so each sum is a slice of the inverse table.
    """
    p = ctx.p
    inv = ctx.cached(inverse_table)
    half_q3 = rat_mod(ctx.q3, 2, p)
    two_thirds_q2 = rat_mod(-2 * ctx.q2, 3, p)
    # (claim, m, d, r, rhs): sum_{k=0..m} 1/(d*k + r) == rhs
    if ctx.rc6 == 1:  # p == 1 (mod 3)
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
        CheckResult(claim, p, None, None, p, [sum(inv[r : r + d * m + 1 : d]) % p], [rhs % p])
        for claim, m, d, r, rhs in sums
    ]


#: Each checker once, with the claims it emits.  A checker is run(ctx, nmax)
#: and runs once per prime: it returns one record per claim it emits at p,
#: except that a claim that has an n gets one at each (p, n) for n = 1..nmax;
#: a claim over k holds all its instances in one record.
CHECKERS: dict[Callable[[PrimeContext, int], list[CheckResult]], tuple[ClaimId, ...]] = {
    check_row_np_minus1:
        (ClaimId.THM1_EQ2, ClaimId.THM1_EQ4, ClaimId.PROP3_EQ9, ClaimId.PROP3_EQ10),
    check_thm2_eq6: (ClaimId.THM2_EQ6,),
    check_thm2_eq7: (ClaimId.THM2_EQ7,),
    check_cor4_eq11: (ClaimId.COR4_EQ11,),
    check_triple_sum: (ClaimId.TRIPLE_SUM_A,),
    check_classical:
        (ClaimId.BABBAGE, ClaimId.WOLSTENHOLME, ClaimId.GLAISHER, ClaimId.MORLEY, ClaimId.CARLITZ),
    halfrow_binomial_check: (ClaimId.HALF_ROW_BINOM,),
    check_half_third_sixth: (ClaimId.GL0, ClaimId.GL, ClaimId.GL2),
    check_reflections: (ClaimId.CONG0, ClaimId.CONG1),
    check_progression_lemmas:
        (ClaimId.C1B, ClaimId.C1C, ClaimId.C2B, ClaimId.C2C, ClaimId.C3, ClaimId.C3B,
         ClaimId.H0, ClaimId.H1, ClaimId.H2, ClaimId.H3),
}
