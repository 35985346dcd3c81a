"""Exact verification of trinomial-coefficient and harmonic-sum congruences
modulo prime powers."""

from .claims import CheckResult, ClaimId
from .harmonic import (
    HarmonicTable,
    ap_harmonic,
    check_half_third_sixth,
    check_progression_lemmas,
    check_reflections,
    harmonic_table,
    inverse_table,
)
from .modular import (
    DivisibleBase,
    NotInvertible,
    PrimeContext,
    Residue,
    fermat_quotient,
    inv_mod,
    is_prime,
    pow_mod,
    rat_mod,
    sieve_primes,
)
from .sweep import ConfigError, Report, SweepConfig, render, run_sweep
from .trinomial import (
    OddDoubledSum,
    TrinomialRow,
    alt_fib_sum,
    binom_np_minus1_mod_p2,
    coeff_closed_mod_p2,
    coeff_via_convolution,
    coeff_via_cosine,
    halfrow_binomial_check,
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
    "HarmonicTable",
    "NotInvertible",
    "OddDoubledSum",
    "PrimeContext",
    "Report",
    "Residue",
    "SweepConfig",
    "TrinomialRow",
    "alt_fib_sum",
    "ap_harmonic",
    "binom_np_minus1_mod_p2",
    "check_half_third_sixth",
    "check_progression_lemmas",
    "check_reflections",
    "coeff_closed_mod_p2",
    "coeff_via_convolution",
    "coeff_via_cosine",
    "fermat_quotient",
    "halfrow_binomial_check",
    "harmonic_table",
    "inv_mod",
    "inverse_table",
    "is_prime",
    "pow_mod",
    "rat_mod",
    "render",
    "row_exact",
    "row_mod_p2_prefix",
    "row_mod_prefix",
    "run_sweep",
    "sieve_primes",
]
