"""Exact integer and modular arithmetic: primes, residues, inverses, Fermat quotients.

Everything in this module is pure and exact.  Python integers are arbitrary
precision, so products of residues never overflow at any modulus size; the
documented capacity limits below are about time and memory, never precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import Callable, TypeVar

_T = TypeVar("_T")

#: Largest upper bound sieve_primes accepts.  The sieve is a plain bytearray,
#: one byte per candidate, so a full-capacity call costs ~100 MB.
MAX_SIEVE_BOUND = 10**8

#: Witness set making the strong-pseudoprime test deterministic for all
#: n < 3_317_044_064_679_887_385_961_981 (far beyond any range used here).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class NotInvertible(ValueError):
    """An inverse was requested for a value not coprime to the modulus."""


class DivisibleBase(ValueError):
    """A Fermat-quotient base is divisible by the prime."""


@dataclass(frozen=True)
class Residue:
    """A canonical representative in [0, modulus).

    Construction canonicalizes (negative inputs are reduced into range).
    Arithmetic between residues requires equal moduli.
    """

    value: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        object.__setattr__(self, "value", self.value % self.modulus)

    def _require_same_modulus(self, other: Residue) -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"modulus mismatch: {self.modulus} != {other.modulus}"
            )

    def __add__(self, other: Residue) -> Residue:
        self._require_same_modulus(other)
        return Residue(self.value + other.value, self.modulus)

    def __sub__(self, other: Residue) -> Residue:
        self._require_same_modulus(other)
        return Residue(self.value - other.value, self.modulus)

    def __mul__(self, other: Residue) -> Residue:
        self._require_same_modulus(other)
        return Residue(self.value * other.value, self.modulus)

    def __neg__(self) -> Residue:
        return Residue(-self.value, self.modulus)

    def __int__(self) -> int:
        return self.value


@dataclass(frozen=True)
class PrimeContext:
    """A verified odd prime p >= 5 with cached powers, residue classes and a
    memo of per-prime tables.

    Hashable by p alone.  rc6 determines rc3 (1 -> 1, 5 -> 2), which the
    congruence checkers rely on when dispatching per residue class.  Tables
    built through cached() live exactly as long as the context, so a sweep
    that builds one context per prime never keeps a finished prime's tables.
    """

    p: int
    p2: int = field(init=False, repr=False, compare=False)
    p3: int = field(init=False, repr=False, compare=False)
    p4: int = field(init=False, repr=False, compare=False)
    rc3: int = field(init=False, compare=False)
    rc6: int = field(init=False, compare=False)
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        p = self.p
        if p < 5 or not is_prime(p):
            raise ValueError(f"need a prime >= 5, got {p}")
        object.__setattr__(self, "p2", p * p)
        object.__setattr__(self, "p3", p * p * p)
        object.__setattr__(self, "p4", p * p * p * p)
        object.__setattr__(self, "rc3", p % 3)
        object.__setattr__(self, "rc6", p % 6)

    def cached(self, build: Callable[..., _T], *args: object) -> _T:
        """build(self, *args), computed once per context and argument tuple."""
        key = (build, *args)
        if key not in self._memo:
            self._memo[key] = build(self, *args)
        return self._memo[key]


def is_prime(n: int) -> bool:
    """Deterministic primality test (fixed-base strong-pseudoprime battery).

    Exact for every n below 3.3e24, which covers the documented sweep range
    with enormous margin.  A verifier must not itself be probabilistic.
    """
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve_primes(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], ascending, by a plain byte sieve up to hi."""
    if not 2 <= lo <= hi:
        raise ValueError(f"need 2 <= lo <= hi, got lo={lo}, hi={hi}")
    if hi > MAX_SIEVE_BOUND:
        raise ValueError(f"hi={hi} exceeds sieve capacity {MAX_SIEVE_BOUND}")
    sieve = bytearray(b"\x01") * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, isqrt(hi) + 1):
        if sieve[q]:
            start = q * q
            sieve[start :: q] = b"\x00" * ((hi - start) // q + 1)
    return [i for i in range(lo, hi + 1) if sieve[i]]


def pow_mod(base: int, exp: int, m: int) -> Residue:
    """base**exp mod m.  Exact at any modulus (arbitrary-precision ints)."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if exp < 0:
        raise ValueError(f"exponent must be nonnegative, got {exp}")
    return Residue(pow(base, exp, m), m)


def inv_mod(a: int, m: int) -> Residue:
    """The unique x in [0, m) with a*x == 1 (mod m); NotInvertible otherwise.

    A NotInvertible raised from a congruence checker signals a denominator
    divisible by p, i.e. a usage bug upstream, never an expected outcome.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    try:
        return Residue(pow(a, -1, m), m)
    except ValueError as exc:
        raise NotInvertible(f"{a} is not invertible mod {m}") from exc


def rat_mod(num: int, den: int, m: int) -> Residue:
    """The residue of the rational num/den mod m (den must be coprime to m).

    Negative numerators are canonicalized into [0, m).
    """
    return Residue(num * inv_mod(den, m).value, m)


def fermat_quotient(a: int, ctx: PrimeContext) -> Residue:
    """(a**(p-1) - 1) / p reduced mod p.

    The division is exact by Fermat's little theorem; the power is taken
    mod p**2 so the quotient survives the reduction.
    """
    p = ctx.p
    if a % p == 0:
        raise DivisibleBase(f"base {a} is divisible by p={p}")
    lifted = pow(a, p - 1, ctx.p2)
    return Residue((lifted - 1) // p, p)
