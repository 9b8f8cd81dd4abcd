"""Non-binary quasi-cyclic LDPC codes: construction, analysis, simulation."""

from .base_graph import (
    AceVector,
    BaseMatrix,
    Cycle,
    ace_vector,
    all_cycles,
    cycle_ace,
    cycles_through,
    girth,
    lex_compare,
    validate,
)
from .channel import (
    CodeInstance,
    SimConfig,
    SimResult,
    build_code,
    qspa_decode,
    run_monte_carlo,
)
from .gf import GF, DEFAULT_PRIMITIVE_POLY
from .lifter import (
    ConstructionConfig,
    ConstructionReport,
    Lifting,
    cycle_eliminated,
    cycle_submatrix,
    cycles_eliminated,
    distance_upper_bound,
    expanded_girth,
    greedy_lift,
    rate_lower_bound,
)
from .ring import Monomial, PolyMatrix, RingPoly, mono_mul

__version__ = "0.1.0"

__all__ = [
    "GF",
    "DEFAULT_PRIMITIVE_POLY",
    "RingPoly",
    "Monomial",
    "PolyMatrix",
    "mono_mul",
    "BaseMatrix",
    "Cycle",
    "AceVector",
    "validate",
    "cycles_through",
    "all_cycles",
    "cycle_ace",
    "ace_vector",
    "lex_compare",
    "girth",
    "Lifting",
    "ConstructionConfig",
    "ConstructionReport",
    "greedy_lift",
    "cycle_eliminated",
    "cycles_eliminated",
    "cycle_submatrix",
    "expanded_girth",
    "rate_lower_bound",
    "distance_upper_bound",
    "CodeInstance",
    "SimConfig",
    "SimResult",
    "build_code",
    "qspa_decode",
    "run_monte_carlo",
    "__version__",
]
