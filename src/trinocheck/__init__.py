"""Exact verification of trinomial-coefficient and harmonic-sum congruences
modulo prime powers."""

from .congruences import CheckResult, ClaimId
from .harmonic import ap_harmonic, harmonic_table, inverse_table
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
from .sweep import ConfigError, SweepConfig, iter_sweep, sweep_report, write_report
from .trinomial import (
    OddDoubledSum,
    alt_fib_sum,
    binom_np_minus1_mod_p2,
    coeff_via_convolution,
    coeff_via_cosine,
    row_exact,
    row_mod_p2_prefix,
    row_mod_prefix,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ClaimId",
    "ConfigError",
    "DivisibleBase",
    "NotInvertible",
    "OddDoubledSum",
    "PrimeContext",
    "SweepConfig",
    "alt_fib_sum",
    "ap_harmonic",
    "binom_np_minus1_mod_p2",
    "coeff_via_convolution",
    "coeff_via_cosine",
    "fermat_quotient",
    "harmonic_table",
    "inv_mod",
    "inverse_table",
    "is_prime",
    "iter_sweep",
    "rat_mod",
    "row_exact",
    "row_mod_p2_prefix",
    "row_mod_prefix",
    "sieve_primes",
    "sweep_report",
    "write_report",
]
