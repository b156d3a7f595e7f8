"""cdgalab: exact cohomology engine for finite CDGAs over cyclotomic fields.

Scalars are exact elements of Q(zeta_n); the engine computes cohomology
tables, invariant subcomplexes of cyclic actions, triple-Massey non-formality
obstructions, symplectic and hard-Lefschetz checks, and Betti bookkeeping for
resolutions, plus a small session language and CLI driving all of it.
"""

from ._backend import backend_name
from .field import CycloField, FieldElement, Rational, cyclotomic_polynomial, format_scalar, make_field
from .algebra import (Algebra, AlgebraMap, Conjugation, Differential,
                      GeneratorSpec, GradedElement, PreconditionError, apply_d,
                      apply_map, format_element, identity_map, wedge)
from .linalg import Matrix, Subspace, quotient_basis
from .homology import CochainComplex, CohomologyClass, CohomologyTable, top_scalar
from .action import (GroupAction, invariant_cohomology, invariant_complex,
                     validate_action)
from .formality import (MasseyResult, ObstructionInput, ObstructionResult,
                        massey_triple, obstruction)
from .symplectic import LefschetzReport, is_symplectic, lefschetz
from .topology import (BettiVector, IncidenceGraph, betti_p1_bundle,
                       betti_projective, betti_resolution, betti_union)
from . import dsl

__version__ = "0.1.0"

__all__ = [
    "backend_name", "CycloField", "FieldElement", "Rational",
    "cyclotomic_polynomial", "format_scalar", "make_field",
    "Algebra", "AlgebraMap", "Conjugation", "Differential",
    "GeneratorSpec", "GradedElement", "PreconditionError", "apply_d",
    "apply_map", "format_element", "identity_map", "wedge",
    "Matrix", "Subspace", "quotient_basis",
    "CochainComplex", "CohomologyClass", "CohomologyTable", "top_scalar",
    "GroupAction", "invariant_cohomology", "invariant_complex",
    "validate_action",
    "MasseyResult", "ObstructionInput", "ObstructionResult",
    "massey_triple", "obstruction",
    "LefschetzReport", "is_symplectic", "lefschetz",
    "BettiVector", "IncidenceGraph", "betti_p1_bundle", "betti_projective",
    "betti_resolution", "betti_union",
    "dsl",
]
