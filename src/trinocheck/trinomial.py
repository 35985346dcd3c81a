"""Trinomial coefficients: the coefficient of x**k in (1 + x + x**2)**n.

The sweep reads every row prefix from one engine, row_mod_p2_prefix, J.C.P.
Miller's power recurrence mod p**2, O(p) per prefix; central4_table holds
the C(4k, 2k)/4**k values that Thm2 Eq7 and the half-row binomials read.
The engines that cross-check the recurrence (the additive recurrence,
schoolbook powering, the cosine and convolution sums) are test oracles in
tests/oracles.py, and the paper's mod-p**2 closed forms for the rows with
exponent n*p - 1 are one in tests/closed_forms.py; no checker reads them.
"""

from __future__ import annotations

from .harmonic import inverse_table
from .modular import PrimeContext


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
