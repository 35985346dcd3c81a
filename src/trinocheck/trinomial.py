"""Trinomial coefficients: the coefficient of x**k in (1 + x + x**2)**n.

Five independent engines compute the same numbers:

* row_exact          -- the additive three-term recurrence (brute-force oracle)
* row_mod_p2_prefix  -- J.C.P. Miller's power recurrence mod p**2, O(p) per
                        row prefix (the sweep engine)
* row_mod_prefix     -- truncated schoolbook polynomial powers mod any m
                        (a test oracle for the sweep engine)
* coeff_via_cosine   -- binomial double sum with exact sixth-root-of-unity
                        cosine weights (stored as doubled integers; no floats)
* coeff_via_convolution -- sum_j C(n,j)*C(j,k-j), from (1+x+x**2)**n as
                        sum_j C(n,j) x**j (1+x)**j

plus the mod-p**2 closed forms for rows with exponent n*p - 1, expressed in
harmonic numbers and Fermat quotients.  Keeping the engines independent is
the point: each one cross-checks the others.
"""

from __future__ import annotations

import math

from .claims import CheckResult, ClaimId, result
from .harmonic import harmonic_table, inverse_table
from .modular import PrimeContext

#: 2*cos(r*pi/3) for r = 0..5; always integral, which is what makes the
#: cosine identity evaluable without floating point.
DOUBLED_COSINE = (2, 1, -1, -2, -1, 1)


class OddDoubledSum(RuntimeError):
    """The doubled cosine-weight sum came out odd: an internal bug, never data."""


def row_exact(n: int) -> list[int]:
    """Full exact row via T(n,k) = T(n-1,k) + T(n-1,k-1) + T(n-1,k-2).

    The row has length 2n + 1 and is palindromic.  Arbitrary-precision, so
    exact for any n; cost is O(n**2) big-integer
    additions (fine well past n = 2000).  This is the brute-force oracle the
    other engines are judged against.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    row = [1]
    for _ in range(n):
        new = [0] * (len(row) + 2)
        for k, v in enumerate(row):
            new[k] += v
            new[k + 1] += v
            new[k + 2] += v
        row = new
    return row


def _poly_mul_trunc(a: list[int], b: list[int], m: int, length: int) -> list[int]:
    """First `length` coefficients of a*b with coefficients reduced mod m
    (schoolbook; inputs are already reduced mod m)."""
    out = [0] * min(len(a) + len(b) - 1, length)
    for i, ai in enumerate(a[:length]):
        if ai:
            for j, bj in enumerate(b[: length - i], i):
                out[j] += ai * bj
    return [c % m for c in out]


def row_mod_prefix(n: int, m: int, length: int) -> list[int]:
    """First `length` coefficients of (1 + x + x**2)**n mod m, as residues in
    [0, m).

    Binary exponentiation with truncated schoolbook products, O(length**2 *
    log n).  If length exceeds 2n + 1 the tail is zero-padded.  The sweep
    reads rows from row_mod_p2_prefix; this engine is its test oracle.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if length < 1:
        raise ValueError(f"prefix length must be positive, got {length}")
    acc = [1 % m]
    base = [1 % m, 1 % m, 1 % m][:length]
    e = n
    while e:
        if e & 1:
            acc = _poly_mul_trunc(acc, base, m, length)
        e >>= 1
        if e:
            base = _poly_mul_trunc(base, base, m, length)
    acc.extend([0] * (length - len(acc)))
    return acc


def _inverse_table_p2(ctx: PrimeContext) -> list[int]:
    """inv[k] = k**-1 mod p**2 for 1 <= k < p (inv[0] = 0).

    inv[k] = -(p**2 // k) * inv[p**2 % k]: for 2 <= k < p the remainder is
    nonzero and below k, so it is a unit already inverted.  Built here, not
    from harmonic.inverse_table (mod p), so the row engine shares no table
    with the closed forms it is compared against.
    """
    p, p2 = ctx.p, ctx.p2
    inv = [0] * p
    inv[1] = 1
    for k in range(2, p):
        inv[k] = (p2 - p2 // k) * inv[p2 % k] % p2
    return inv


def row_mod_p2_prefix(ctx: PrimeContext, exponent: int) -> list[int]:
    """First p coefficients of (1 + x + x**2)**exponent mod p**2, in O(p).

    With f = (1 + x + x**2)**N, f'*(1 + x + x**2) = N*(1 + 2x)*f gives
    k*a_k = (N - k + 1)*a_{k-1} + (2N - k + 2)*a_{k-2} exactly over the
    integers (J.C.P. Miller's power recurrence; Knuth, TAOCP Vol. 2, 4.7).
    Every k <= p - 1 is a unit mod p**2, so each step divides exactly.  Rows
    shorter than p come out zero-padded, because the recurrence itself
    yields a_k = 0 for k > 2N.  The checkers read it through ctx.cached, so
    one computation serves every claim that reads the row.
    """
    if exponent < 0:
        raise ValueError(f"exponent must be nonnegative, got {exponent}")
    p2 = ctx.p2
    inv = ctx.cached(_inverse_table_p2)
    e = exponent % p2
    row = [1, e]
    before, last = 1, e
    for k in range(2, ctx.p):
        step = (e - k + 1) * last + (2 * e - k + 2) * before
        before, last = last, step * inv[k] % p2
        row.append(last)
    return row


def coeff_via_cosine(n: int, k: int) -> int:
    """Exact coefficient from sum_j C(n,j)*C(n,k-j)*cos((k-2j)*pi/3).

    The weight depends only on (k - 2j) mod 6 and is taken from the doubled
    integer table; the doubled sum must be even and is halved exactly.
    """
    if not 0 <= k <= 2 * n:
        raise ValueError(f"need 0 <= k <= 2n, got k={k}, n={n}")
    doubled = 0
    for j in range(k + 1):
        w = DOUBLED_COSINE[(k - 2 * j) % 6]
        doubled += w * math.comb(n, j) * math.comb(n, k - j)
    if doubled & 1:
        raise OddDoubledSum(f"odd doubled sum at n={n}, k={k}")
    return doubled // 2


def coeff_via_convolution(n: int, k: int) -> int:
    """Exact coefficient from sum_j C(n,j)*C(j,k-j).

    Only j with k/2 <= j <= min(k, n) contribute (both binomials nonzero).
    """
    if not 0 <= k <= 2 * n:
        raise ValueError(f"need 0 <= k <= 2n, got k={k}, n={n}")
    total = 0
    for j in range((k + 1) // 2, min(k, n) + 1):
        total += math.comb(n, j) * math.comb(j, k - j)
    return total


def binom_np_minus1_mod_p2(n: int, ctx: PrimeContext, k: int) -> int:
    """Binomial C(n*p - 1, k) mod p**2 as (-1)**k * (1 - n*p*H_k).

    H_k enters multiplied by p, so its mod-p value is all the precision the
    congruence carries; math.comb is the exact oracle for this in the tests.
    """
    if not 0 <= k <= ctx.p - 1:
        raise ValueError(f"need 0 <= k <= p-1, got k={k}, p={ctx.p}")
    value = (1 - n * ctx.p * ctx.cached(harmonic_table)[k]) % ctx.p2
    return -value % ctx.p2 if k & 1 else value


def _closed_form_tables(ctx: PrimeContext) -> tuple[list[int], list[int], list[int], int]:
    """(H mod p, prefix sums of 1/(3j+1), prefix sums of 1/(3j+2), inv(3)).

    s1[t] = sum_{j<t} 1/(3j+1) and s2[t] = sum_{j<t} 1/(3j+2), built while
    the term index stays below p so every inversion exists.
    """
    p = ctx.p
    inv = ctx.cached(inverse_table)
    h = ctx.cached(harmonic_table)
    s1 = [0]
    j = 0
    while 3 * j + 1 <= p - 1:
        s1.append((s1[-1] + inv[3 * j + 1]) % p)
        j += 1
    s2 = [0]
    j = 0
    while 3 * j + 2 <= p - 1:
        s2.append((s2[-1] + inv[3 * j + 2]) % p)
        j += 1
    return h, s1, s2, inv[3]


def coeff_closed_mod_p2(n: int, ctx: PrimeContext, k: int) -> int:
    """Trinomial coefficient of x**k in row n*p - 1, mod p**2, in closed form.

    Dispatch on k mod 3 (k = 3q, 3q+1, 3q+2):

      3q:   1 - n*p*( (2/3)H_q + sum_{j<q} 1/(3j+2) )
      3q+1: -1 + n*p*( (2/3)H_q + sum_{j<=q} 1/(3j+1) )
      3q+2: n*p*( -sum_{j<=q} 1/(3j+1) + sum_{j<=q} 1/(3j+2) )

    The harmonic pieces carry a factor p, so they are evaluated mod p; the
    constant term is exact mod p**2.  This path shares nothing with the row
    engines, which is what makes the cross-check meaningful.
    """
    p, p2 = ctx.p, ctx.p2
    if not 0 <= k <= p - 1:
        raise ValueError(f"need 0 <= k <= p-1, got k={k}, p={p}")
    h, s1, s2, inv3 = ctx.cached(_closed_form_tables)
    q, r = divmod(k, 3)
    if r == 0:
        coef = (2 * inv3 * h[q] + s2[q]) % p
        return (1 - n * p * coef) % p2
    if r == 1:
        coef = (2 * inv3 * h[q] + s1[q + 1]) % p
        return (-1 + n * p * coef) % p2
    coef = (s2[q + 1] - s1[q + 1]) % p
    return n * p * coef % p2


def closed_row_mod_p2(ctx: PrimeContext, n: int) -> list[int]:
    """coeff_closed_mod_p2 for k = 0..p-1: row n*p - 1 mod p**2, one list
    per (p, n) when read through ctx.cached."""
    return [coeff_closed_mod_p2(n, ctx, k) for k in range(ctx.p)]


def alt_fib_sum(n: int) -> int:
    """sum_{k=0..floor(n/2)} (-1)**k * C(n-k, k), evaluated directly.

    Equals 0 when n == 2 (mod 3) and (-1)**floor(n/3) otherwise; the tests
    pin that pattern, this function just computes the sum.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return sum((-1) ** k * math.comb(n - k, k) for k in range(n // 2 + 1))


def central4_table(ctx: PrimeContext) -> list[int]:
    """C(4k, 2k) / 4**k mod p for 0 <= k <= floor((p-1)/4).

    C(4k, 2k) comes from its multiplicative recurrence; every factor stays
    below p, so every inversion exists.
    """
    p = ctx.p
    inv = ctx.cached(inverse_table)
    central4 = 1  # C(4k, 2k) mod p
    inv4_pow = 1
    out = [1]
    for k in range(1, (p - 1) // 4 + 1):
        step = (4 * k - 3) * (4 * k - 2) % p * (4 * k - 1) % p * (4 * k) % p
        den = inv[2 * k - 1] * inv[2 * k] % p
        central4 = central4 * step % p * den % p * den % p
        inv4_pow = inv4_pow * inv[4] % p
        out.append(central4 * inv4_pow % p)
    return out


def halfrow_binomial_check(ctx: PrimeContext) -> list[CheckResult]:
    """(-1)**k * C((p-1)/2 - k, k) vs C(4k, 2k) / 4**k mod p, one record per
    k in 1..floor((p-1)/4).

    The left side is an exact binomial reduced mod p; the right side is
    central4_table, so the codepaths stay apart.
    """
    p = ctx.p
    half = (p - 1) // 2
    rhs = ctx.cached(central4_table)
    out = []
    for k in range(1, len(rhs)):
        lhs = (-1) ** k * math.comb(half - k, k)
        out.append(result(ClaimId.HALF_ROW_BINOM, p, p, lhs, rhs[k], k=k))
    return out
