"""Composite numbers in arithmetic progressions: constructions,
density bounds, prime runs, and related explorations.

The library names below are loaded on first access (PEP 562), so
`import apcomposites` and a CLI command load only the modules they use.
"""

import importlib

from .errors import (
    ApcompositesError,
    BracketError,
    CapacityError,
    DegenerateInputError,
    DomainError,
    WrongBranchError,
)

# Exported name -> the module that defines it.
_LAZY = {
    **dict.fromkeys((
        "central_binom_bound",
        "density_bound_check",
        "dyadic_gap_bound",
        "erdos_kac_samples",
        "longest_prime_run",
        "pi_power4_bound",
        "progression_composite_densities",
    ), "analysis"),
    **dict.fromkeys((
        "CompositeWitness",
        "KCompositeWitness",
        "consecutive_in_progression",
        "factorial_consecutive",
        "k_composite_witnesses",
        "polynomial_composites",
        "three_composites_4n3",
        "witness_multiple_of_b",
        "witness_power",
        "witness_unit_b",
    ), "constructions"),
    **dict.fromkeys((
        "euler_lucky_search",
        "fermat_real_root",
        "prime_streak",
        "rational_scan",
    ), "explorer"),
    **dict.fromkeys((
        "Factorization",
        "PrimeTable",
        "Progression",
        "factorize",
        "is_prime",
        "prime_count",
        "prime_counts",
    ), "numcore"),
}

__all__ = [
    "ApcompositesError",
    "BracketError",
    "CapacityError",
    "DegenerateInputError",
    "DomainError",
    "WrongBranchError",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
