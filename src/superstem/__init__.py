"""Exact computations for finite-dimensional Lie superalgebras given by
structure constants: centres, derived subalgebras, central series, stem
decompositions, superderivation spaces, and the Schur-type bound checks and
classification queries built on them."""

from .build import (
    StructureConflictError,
    abelian,
    algebra_from_relations,
    direct_sum,
    heisenberg_even,
    heisenberg_odd,
    tower,
)
from .catalog import (
    FamilyInstance,
    UnsupportedStError,
    classify_by_st,
    verify_classification,
    verify_table1,
)
from .core import (
    GradedSubspace,
    GradingError,
    LieSuperalgebra,
    MixedParityError,
    SuperDim,
    ValidationReport,
    validate,
)
from .derivations import (
    DerivationSpace,
    GradedLinearMap,
    der_bracket,
    derivation_report,
    derivation_space,
    id_star,
    idstar_bound_check,
    inner_derivations,
)
from .fileformat import AlgebraFormatError, ValidationFailedError, export, parse
from .invariants import (
    InvariantReport,
    NotNilpotentError,
    center,
    derived_subalgebra,
    generator_pair,
    invariant_report,
    is_nilpotent,
    is_stem,
    lambda_pair,
    nilpotency_class,
    proposition_audit,
    schur_bound_check,
    st,
    stem_decomposition,
    t_scalar,
    upper_central_series,
)
from .reports import emit_report

__version__ = "0.1.0"

__all__ = [
    "AlgebraFormatError",
    "DerivationSpace",
    "FamilyInstance",
    "GradedLinearMap",
    "GradedSubspace",
    "GradingError",
    "InvariantReport",
    "LieSuperalgebra",
    "MixedParityError",
    "NotNilpotentError",
    "StructureConflictError",
    "SuperDim",
    "UnsupportedStError",
    "ValidationFailedError",
    "ValidationReport",
    "abelian",
    "algebra_from_relations",
    "center",
    "classify_by_st",
    "der_bracket",
    "derivation_report",
    "derivation_space",
    "derived_subalgebra",
    "direct_sum",
    "emit_report",
    "export",
    "generator_pair",
    "heisenberg_even",
    "heisenberg_odd",
    "id_star",
    "idstar_bound_check",
    "inner_derivations",
    "invariant_report",
    "is_nilpotent",
    "is_stem",
    "lambda_pair",
    "nilpotency_class",
    "parse",
    "proposition_audit",
    "schur_bound_check",
    "st",
    "stem_decomposition",
    "t_scalar",
    "tower",
    "upper_central_series",
    "validate",
    "verify_classification",
    "verify_table1",
]
