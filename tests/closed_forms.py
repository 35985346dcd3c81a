"""The paper's closed forms for the trinomial rows with exponent n*p - 1,
mod p**2, in harmonic numbers: a test oracle for the counted rows.

No checker reads these: every left side the sweep reports comes from a
counting engine.  The tests equate these forms with the rows that
row_mod_p2_prefix and row_mod_prefix count.
"""

from trinocheck.harmonic import harmonic_table, inverse_table
from trinocheck.modular import PrimeContext


def closed_row_parts(ctx: PrimeContext) -> tuple[list[int], list[int]]:
    """(const, slope) with C(n*p - 1, k)_2 == const[k] + n*p*slope[k]
    (mod p**2) for k = 0..p-1 and every n >= 1, the n-free half of
    closed_row_mod_p2.

    By k mod 3 (k = 3q, 3q+1, 3q+2):

      3q:   1 - n*p*( (2/3)H_q + sum_{j<q} 1/(3j+2) )
      3q+1: -1 + n*p*( (2/3)H_q + sum_{j<=q} 1/(3j+1) )
      3q+2: n*p*( -sum_{j<=q} 1/(3j+1) + sum_{j<=q} 1/(3j+2) )

    const is the 1, -1, 0 pattern mod p**2 and slope the bracket mod p, built
    in one pass over k that keeps the two progression sums running.  This
    path shares nothing with the row engines, which is what makes the
    cross-check meaningful.
    """
    p, p2 = ctx.p, ctx.p2
    inv = ctx.cached(inverse_table)
    h = ctx.cached(harmonic_table)
    two_thirds = 2 * inv[3]
    s1 = s2 = 0  # sums of 1/(3j+1) and 1/(3j+2) over the terms up to k
    slope = []
    for k in range(p):
        r = k % 3
        if r == 0:
            slope.append(-(two_thirds * h[k // 3] + s2) % p)
        elif r == 1:
            s1 = (s1 + inv[k]) % p
            slope.append((two_thirds * h[k // 3] + s1) % p)
        else:
            s2 = (s2 + inv[k]) % p
            slope.append((s2 - s1) % p)
    const = ([1, p2 - 1, 0] * (p // 3 + 1))[:p]
    return const, slope


def closed_row_mod_p2(ctx: PrimeContext, n: int) -> list[int]:
    """Trinomial coefficients of x**k in row n*p - 1, mod p**2, for
    k = 0..p-1, in closed form: const[k] + n*p*slope[k] from the prime's
    closed_row_parts, so each n costs one O(p) pass.

    The slope holds harmonic sums reduced mod p, which is exact: it enters
    multiplied by n*p, and n*p*(x + p*y) == n*p*x (mod p**2).  The constant
    term is exact mod p**2.
    """
    const, slope = ctx.cached(closed_row_parts)
    p2 = ctx.p2
    n_p = n * ctx.p % p2
    return [(c + n_p * d) % p2 for c, d in zip(const, slope)]
