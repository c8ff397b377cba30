"""Exact computer algebra for polynomial rank, special forms, and
expansion experiments over finite sets."""

__version__ = "0.1.0"

from .expansion import (
    BudgetExceededError,
    ExpansionReport,
    SetSpec,
    degenerate_demo,
    expansion_report,
    generate_set,
    image_size,
    image_values,
    theoretical_exponent,
)
from .incidence import IncidenceInstance, bound_ratios, build_instance, verify_counts
from .moment import (
    VolumeSet,
    distinct_volumes,
    matrix_m,
    moment_summary,
    symmetric_polys,
    volume_expansion_report,
    volume_poly,
)
from .parsing import ParseError, parse
from .poly import (
    NEG_INF,
    Polynomial,
    VarSet,
    exact_div,
    project,
)
from .rank import (
    CoefficientMap,
    PolyMatrix,
    RankReport,
    Witness,
    coefficient_map,
    generic_rank_exact,
    jacobian,
    rank,
    rank_in,
)
from .reduction import (
    ReductionError,
    ReductionResult,
    grid_reduce,
    reduce,
)
from .special import SpecialFormVerdict, depends_on_all, is_special, ratio_independent_of, ratio_separated

__all__ = [
    "BudgetExceededError",
    "CoefficientMap",
    "ExpansionReport",
    "IncidenceInstance",
    "NEG_INF",
    "ParseError",
    "PolyMatrix",
    "Polynomial",
    "RankReport",
    "ReductionError",
    "ReductionResult",
    "SetSpec",
    "SpecialFormVerdict",
    "VarSet",
    "VolumeSet",
    "Witness",
    "bound_ratios",
    "build_instance",
    "coefficient_map",
    "degenerate_demo",
    "depends_on_all",
    "distinct_volumes",
    "exact_div",
    "expansion_report",
    "generate_set",
    "generic_rank_exact",
    "grid_reduce",
    "image_size",
    "image_values",
    "is_special",
    "jacobian",
    "matrix_m",
    "moment_summary",
    "parse",
    "project",
    "rank",
    "rank_in",
    "ratio_independent_of",
    "ratio_separated",
    "reduce",
    "symmetric_polys",
    "theoretical_exponent",
    "verify_counts",
    "volume_expansion_report",
    "volume_poly",
]
