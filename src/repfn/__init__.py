"""repfn: exact representation counting over self-similar block sets.

The package works with subsets of N stored as interval boundaries with an
optional scaling tail t_{i+a} = k*t_i.  It counts weighted representations
k1*a1 + k2*a2 = n in closed form, analyzes the boundary lattice, constructs
validated witness families that certify linear growth of the count on the
side containing n's lattice cell, and runs finite-horizon equality
experiments between a set and its complement.  All arithmetic is exact:
Python integers and fractions.Fraction throughout.
"""

from .blockset import BlockSet, TailRule, normalize
from .experiments import (
    EqualityReport,
    RatioScan,
    ScanPoint,
    scan_ratio,
    scan_to_csv,
    search_seeds,
    verify_equality,
)
from .repcount import (
    CLASSIC_VARIANTS,
    count_classic,
    count_weighted,
    count_weighted_oracle,
)
from .structure import (
    Decomposition,
    GSelection,
    InsufficientDataError,
    MultiplicativeProfile,
    decompose,
    detect_tail,
    generate_from_seed,
    intersection_nonempty,
    multiplicative_profile,
    select_g,
)
from .witness import (
    WitnessReport,
    WitnessValidationError,
    classify_case,
    enumerate_witnesses,
    floor_constant,
    guaranteed_lower_bound,
    iter_witness_pairs,
    witness_q_range,
)

__version__ = "0.1.0"

__all__ = [
    "BlockSet",
    "TailRule",
    "normalize",
    "count_weighted",
    "count_weighted_oracle",
    "count_classic",
    "CLASSIC_VARIANTS",
    "detect_tail",
    "generate_from_seed",
    "select_g",
    "GSelection",
    "decompose",
    "Decomposition",
    "multiplicative_profile",
    "MultiplicativeProfile",
    "intersection_nonempty",
    "InsufficientDataError",
    "classify_case",
    "witness_q_range",
    "enumerate_witnesses",
    "iter_witness_pairs",
    "guaranteed_lower_bound",
    "floor_constant",
    "WitnessReport",
    "WitnessValidationError",
    "verify_equality",
    "EqualityReport",
    "scan_ratio",
    "RatioScan",
    "ScanPoint",
    "scan_to_csv",
    "search_seeds",
    "__version__",
]
