"""Exact verification of trinomial-coefficient and harmonic-sum congruences
modulo prime powers."""

from .congruences import CheckResult, ClaimId
from .harmonic import harmonic_table, inverse_table
from .modular import (
    DivisibleBase,
    NotInvertible,
    PrimeContext,
    fermat_quotient,
    inv_mod,
    is_prime,
    rat_mod,
    sieve_primes,
)
from .sweep import ConfigError, SweepConfig, sweep_report
from .trinomial import row_mod_p2_prefix

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ClaimId",
    "ConfigError",
    "DivisibleBase",
    "NotInvertible",
    "PrimeContext",
    "SweepConfig",
    "fermat_quotient",
    "harmonic_table",
    "inv_mod",
    "inverse_table",
    "is_prime",
    "rat_mod",
    "row_mod_p2_prefix",
    "sieve_primes",
    "sweep_report",
]
