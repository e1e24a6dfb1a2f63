"""Exact tools for finite commutative semihypergroups.

The central object is an n*n*n cube of rational coefficients whose
column (i, j, *) gives the probability distribution of the product of
states i and j.  The package validates such cubes, decides their
structural properties exactly, constructs them from an abelian group
and a probability measure, and recovers that unique pair back from a
cube that admits one.
"""

from .core import (
    DimensionMismatch,
    MeasureVector,
    OperandBoundError,
    RationalMatrix,
    StructureCube,
    ValidationError,
    Violation,
    rat,
    validate_cube,
    validate_measure,
)
from .checks import (
    ConditionAReport,
    PropertyReport,
    Witness,
    check_corollaries,
    is_associative_bruteforce,
    is_associative_matrix,
    is_commutative,
    satisfies_condition_A,
)
from .groups import (
    CayleyTable,
    InvalidTable,
    InvariantFactors,
    canonical_form,
    cayley_table,
    enumerate_abelian_groups,
    verify_group_axioms,
)
from .derivation import (
    DegeneracyVerdict,
    degeneracy_check,
    derive_cube,
    mixture_matrix,
)
from .recovery import (
    ExtractionResult,
    RecoveryResult,
    extract_group_by_value,
    recover,
)
from .formats import (
    FormatError,
    load_cube,
    load_group,
    load_measure,
    write_document,
)
from .sampling import random_measure, random_nondegenerate_measure

__version__ = "0.1.0"

__all__ = [
    "CayleyTable",
    "ConditionAReport",
    "DegeneracyVerdict",
    "DimensionMismatch",
    "ExtractionResult",
    "FormatError",
    "InvalidTable",
    "InvariantFactors",
    "MeasureVector",
    "OperandBoundError",
    "PropertyReport",
    "RationalMatrix",
    "RecoveryResult",
    "StructureCube",
    "ValidationError",
    "Violation",
    "Witness",
    "canonical_form",
    "cayley_table",
    "check_corollaries",
    "degeneracy_check",
    "derive_cube",
    "enumerate_abelian_groups",
    "extract_group_by_value",
    "is_associative_bruteforce",
    "is_associative_matrix",
    "is_commutative",
    "load_cube",
    "load_group",
    "load_measure",
    "mixture_matrix",
    "random_measure",
    "random_nondegenerate_measure",
    "rat",
    "recover",
    "satisfies_condition_A",
    "validate_cube",
    "validate_measure",
    "verify_group_axioms",
    "write_document",
]
