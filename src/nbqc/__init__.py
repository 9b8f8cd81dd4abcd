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
    Monomial,
    cycle_eliminated,
    cycles_eliminated,
    distance_upper_bound,
    expanded_girth,
    greedy_lift,
    rate_lower_bound,
)

__version__ = "0.1.0"

__all__ = [
    "GF",
    "DEFAULT_PRIMITIVE_POLY",
    "Monomial",
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
