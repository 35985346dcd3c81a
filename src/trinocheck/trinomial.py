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

Keeping the engines independent is the point: each one cross-checks the
others.  The paper's mod-p**2 closed forms for the rows with exponent
n*p - 1, in harmonic numbers, are a further oracle and live with the tests
(tests/closed_forms.py); no checker reads them.
"""

from __future__ import annotations

import math

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

    The prefix depends only on N mod p**2, so the recurrence runs on the
    reduced exponent and the checkers key the memo by it: from
    (1 + x + x**2)**N = sum_j C(N, j) * x**j * (1 + x)**j, C(N, k)_2 is
    sum_{j <= k} C(N, j) * C(j, k - j), an integer polynomial in N over
    denominators j! with j <= k < p, all units mod p**2.
    """
    if exponent < 0:
        raise ValueError(f"exponent must be nonnegative, got {exponent}")
    p2 = ctx.p2
    inv = ctx.cached(_inverse_table_p2)
    e = exponent % p2
    row = [1, e]
    append = row.append
    before, last = 1, e
    c1, c2 = e - 1, 2 * e  # N - k + 1 and 2N - k + 2 at k = 2, one less per step
    for inv_k in inv[2:]:
        before, last = last, (c1 * last + c2 * before) * inv_k % p2
        append(last)
        c1 -= 1
        c2 -= 1
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

    Consecutive entries differ by the factor (4k-3)(4k-1) / ((2k-1)*2k):
    C(4k, 2k) / C(4k-4, 2k-2) is (4k-3)(4k-2)(4k-1)*4k / ((2k-1)*2k)**2, and
    (4k-2)*4k = 4*(2k-1)*2k cancels the new factor 4 of 4**k.  Every factor
    stays below p, so every inversion exists.
    """
    p = ctx.p
    inv = ctx.cached(inverse_table)
    out = [1]
    for k in range(1, (p - 1) // 4 + 1):
        out.append(out[-1] * (4 * k - 3) * (4 * k - 1) * inv[2 * k - 1] * inv[2 * k] % p)
    return out
