"""Composite numbers in arithmetic progressions: constructions,
density bounds, prime runs, and related explorations."""

from .analysis import (
    central_binom_bound,
    density_bound_check,
    dyadic_gap_bound,
    erdos_kac_samples,
    longest_prime_run,
    pi_power4_bound,
    progression_composite_density,
)
from .constructions import (
    CompositeWitness,
    KCompositeWitness,
    consecutive_in_progression,
    factorial_consecutive,
    k_composite_witnesses,
    polynomial_composites,
    three_composites_4n3,
    witness_multiple_of_b,
    witness_power,
    witness_unit_b,
)
from .errors import (
    ApcompositesError,
    BracketError,
    CapacityError,
    DegenerateInputError,
    DomainError,
    WrongBranchError,
)
from .explorer import (
    euler_lucky_search,
    fermat_real_root,
    prime_streak,
    rational_scan,
)
from .numcore import (
    Factorization,
    PrimeTable,
    Progression,
    factorize,
    is_prime,
    prime_count,
    prime_count_progression,
    prime_counts,
)

__version__ = "0.1.0"
