"""Non-binary quasi-cyclic LDPC codes: construction, analysis, simulation."""

from .base_graph import BaseMatrix, Cycle, all_cycles, girth
from .channel import CodeInstance, SimConfig, SimResult, build_code, run_monte_carlo
from .gf import GF, DEFAULT_PRIMITIVE_POLY
from .lifter import (
    ConstructionConfig,
    ConstructionReport,
    Lifting,
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
    "BaseMatrix",
    "Cycle",
    "all_cycles",
    "girth",
    "Lifting",
    "ConstructionConfig",
    "ConstructionReport",
    "greedy_lift",
    "cycles_eliminated",
    "expanded_girth",
    "rate_lower_bound",
    "distance_upper_bound",
    "CodeInstance",
    "SimConfig",
    "SimResult",
    "build_code",
    "run_monte_carlo",
    "__version__",
]
