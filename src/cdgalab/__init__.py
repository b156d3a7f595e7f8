"""cdgalab: exact cohomology engine for finite CDGAs over cyclotomic fields.

Scalars are exact elements of Q(zeta_n); the engine computes cohomology
tables, invariant subcomplexes of cyclic actions, triple-Massey non-formality
obstructions, symplectic and hard-Lefschetz checks, and Betti bookkeeping for
resolutions, plus a small session language and CLI driving all of it.

``import cdgalab`` loads no engine module: each exported name is resolved,
and its module loaded, on first access, from the one table ``_EXPORTS``.
"""

import importlib

__version__ = "0.1.0"

# Exported name -> (module, attribute); the attribute None is the module itself.
_EXPORTS = {
    "Rational": ("fractions", "Fraction"),  # exact rational scalars; arbitrary precision
    "dsl": (".dsl", None),
    **{name: (module, name) for module, names in (
        ("._backend", "backend_name"),
        (".field", "CycloField FieldElement cyclotomic_polynomial format_scalar make_field"),
        (".algebra", "Algebra AlgebraMap Conjugation Differential GeneratorSpec GradedElement "
                     "PreconditionError apply_d apply_map format_element identity_map wedge"),
        (".linalg", "Matrix Subspace quotient_basis"),
        (".homology", "CochainComplex CohomologyClass CohomologyTable top_scalar"),
        (".action", "GroupAction invariant_cohomology invariant_complex validate_action"),
        (".formality", "MasseyResult ObstructionInput ObstructionResult massey_triple obstruction"),
        (".symplectic", "LefschetzReport is_symplectic lefschetz"),
        (".topology", "BettiVector IncidenceGraph betti_p1_bundle betti_projective "
                      "betti_resolution betti_union"),
    ) for name in names.split()},
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Load the module of an exported name on first access and keep the value."""
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = importlib.import_module(module, __name__)
    if attr is not None:
        value = getattr(value, attr)
    globals()[name] = value
    return value
