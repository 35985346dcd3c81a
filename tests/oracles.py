"""Engines no checker calls, kept as test oracles for the ones that do.

The trinomial coefficient, the coefficient of x**k in (1 + x + x**2)**n,
comes from four engines here, each independent of the others and of the
sweep's row_mod_p2_prefix (J.C.P. Miller's power recurrence mod p**2):

* row_exact          -- the additive three-term recurrence (brute force)
* row_mod_prefix     -- truncated schoolbook polynomial powers mod any m
* coeff_via_cosine   -- binomial double sum with exact sixth-root-of-unity
                        cosine weights (stored as doubled integers; no floats)
* coeff_via_convolution -- sum_j C(n,j)*C(j,k-j), from (1+x+x**2)**n as
                        sum_j C(n,j) x**j (1+x)**j

binom_np_minus1_mod_p2 (C(n*p - 1, k) mod p**2 from harmonic numbers, held
against math.comb) and alt_fib_sum (an alternating binomial sum, held
against its pattern in n mod 3) are binomial identities the tests pin, and
ap_harmonic is the general progression sum that the progression lemmas'
inverse-table slices are held against.
"""

from __future__ import annotations

import math

from trinocheck.harmonic import harmonic_table
from trinocheck.modular import NotInvertible, PrimeContext

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
    reads rows from row_mod_p2_prefix; this engine is its oracle.
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


def ap_harmonic(m: int, d: int, r: int, ctx: PrimeContext) -> int:
    """Sum_{k=0..m} 1/(d*k + r) mod p (empty when m < 0), each term inverted
    on its own with pow, so it shares no table with the progression checker.

    Raises NotInvertible if any term d*k + r hits a multiple of p.
    """
    p = ctx.p
    acc = 0
    for k in range(m + 1):
        t = (d * k + r) % p
        if t == 0:
            raise NotInvertible(f"{d * k + r} is not invertible mod {p}")
        acc += pow(t, -1, p)
    return acc % p
