"""Finite cyclic group actions on a differential graded algebra and their
invariant complexes.

A cyclic action is one algebra map f with f^m = id.  ``validate_action``
builds f^m once, by repeated squaring in ``AlgebraMap.power``, to check
that it is the identity.  Both sides below take a fixed subspace as a
kernel, so neither depends on the order beyond that check.

- The invariant subcomplex in degree k is the left kernel of F_k - I, where
  row i of F_k is f(w_i) on the degree-k words w_i, read from
  ``AlgebraMap.word_rows``: one ``Eliminator``.
- ``invariant_cohomology``, the one builder of an invariant table, checks
  its cohomology against the fixed part of the induced action on the full
  table.  Let A_k be the matrix of f* on H^k in the representative basis:
  row i is the class of f(r_i), one class solve per representative.  A_k^m
  must be the identity, by repeated squaring in ``Matrix.power``, and
  dim Fix(H^k) = b_k - rank(A_k - I).

The two sides of the cross-check stay independent: each builds its own copy
of the generator map, so they share no cache of word images, the invariant
side never reads the full cohomology table, each subtracts the identity in
its own code, and each counts with its own elimination: the invariant side
by the dimensions of its table's quotients (``kernel.rref``), not its Betti
numbers, which come from ``kernel.rank`` as the fixed part does.  An error
in either side's map images, shift, class solves or eliminations then shows
as a disagreement instead of being repeated on both sides.
"""

from __future__ import annotations

from ._backend import kernel
from ._record import Frozen
from .algebra import AlgebraMap, Differential, PreconditionError, apply_d, apply_map
from .homology import CochainComplex, CohomologyTable, engine_built
from .linalg import Eliminator, Matrix, Subspace


def validate_action(f: AlgebraMap, m: int, d: Differential) -> None:
    """Checks f^m = id and f o d = d o f on generators; raises
    ``PreconditionError`` with the residue f^m(g) - g or f(dg) - d(fg) of
    the first generator where one fails."""
    alg = f.source
    if f.target is not alg or d.algebra is not alg:
        raise PreconditionError("map and differential must live on one algebra")
    if m < 1:
        raise PreconditionError(f"order must be positive, got {m}")
    fm = f.power(m)
    for g in range(len(alg.gens)):
        gen = alg.word_element((g,))
        residue = apply_map(fm, gen) - gen
        if not residue.is_zero():
            raise PreconditionError(
                f"f^{m} is not the identity at {alg.gens[g].name}", residue)
    for g in range(len(alg.gens)):
        gen = alg.word_element((g,))
        residue = apply_map(f, apply_d(d, gen)) - apply_d(d, apply_map(f, gen))
        if not residue.is_zero():
            raise PreconditionError(
                f"f does not commute with d at {alg.gens[g].name}", residue)


class GroupAction(Frozen):
    """A cyclic action: the generator's algebra map, the group order and the
    differential it commutes with.  It is validated when built, so every
    instance satisfies f^m = id and f o d = d o f."""

    def __init__(self, generator_map: AlgebraMap, order: int, differential: Differential):
        validate_action(generator_map, order, differential)
        self.__dict__.update(generator_map=generator_map, order=order,
                             differential=differential)


def _own_map(f: AlgebraMap) -> AlgebraMap:
    """A copy of f with a cache of word images of its own."""
    return AlgebraMap(f.source, f.target, f.assignments)


def invariant_subspaces(action: GroupAction) -> list[Subspace]:
    """Per degree k, the subspace that f fixes: the left kernel of F_k - I,
    where row i of F_k is f(w_i) on the degree-k words w_i."""
    alg = action.differential.algebra
    field = alg.field
    f = _own_map(action.generator_map)
    one, zero = field.one.cv, field.zero.cv
    subspaces = []
    for k in range(alg.top + 1):
        rows = f.word_rows(k)
        for i, row in enumerate(rows):
            c = kernel.cv_sub(row.pop(i, zero), one)
            if not kernel.cv_is_zero(c):
                row[i] = c
        fixed = Eliminator(Matrix(field, alg.dim(k), rows)).kernel_rows()
        subspaces.append(Subspace.from_vectors(field, alg.dim(k), fixed))
    return subspaces


def invariant_complex(action: GroupAction) -> CochainComplex:
    """The invariant differential subalgebra as a cochain complex."""
    return CochainComplex(action.differential, invariant_subspaces(action))


def induced_matrices(table: CohomologyTable, action: GroupAction) -> list[Matrix]:
    """Per degree k, the matrix A_k of f* on H^k: row i is the class of
    f(r_i), for the representatives r_i of ``table``.

    Raises AssertionError when some f(r_i) fails the check of a class solve,
    or when A_k^m, built by repeated squaring for the declared order m, is
    not the identity."""
    f = _own_map(action.generator_map)
    field = table.complex.algebra.field
    m = action.order
    matrices = []
    for k in range(table.top + 1):
        with engine_built():
            rows = [table.class_coords(apply_map(f, r), k)
                    for r in table.representatives(k)]
        a = Matrix(field, table.betti[k], rows)
        if a.power(m) != Matrix.identity(field, a.nrows):
            raise AssertionError(
                f"the induced map to the power {m} is not the identity on H^{k}")
        matrices.append(a)
    return matrices


def induced_action_fixed_dims(table: CohomologyTable, action: GroupAction) -> list[int]:
    """Dimension per degree of the fixed part of the induced action on H*,
    the kernel of A_k - I: b_k - rank(A_k - I)."""
    field = table.complex.algebra.field
    one, minus_one = field.one.cv, kernel.cv_neg(field.one.cv)
    dims = []
    for a in induced_matrices(table, action):
        rows = [dict(row) for row in a.sparse_rows]
        for i, row in enumerate(rows):
            kernel.row_axpy(row, {i: one}, minus_one, field.mul)
        dims.append(a.nrows - Matrix(field, a.ncols, rows).rank())
    return dims


def invariant_cohomology(action: GroupAction, full: CohomologyTable) -> CohomologyTable:
    """Cohomology of the invariant complex, returned only when its quotient
    dimensions equal the fixed part of the induced action on ``full``, which
    must be the table of the full complex of the action's differential."""
    if full.complex.differential is not action.differential or not full.complex.is_full():
        raise ValueError("full must be the table of the full complex of the differential")
    table = CohomologyTable(invariant_complex(action))
    fixed = induced_action_fixed_dims(full, action)
    dims = [table.quotient(k).dim for k in range(table.top + 1)]
    if fixed != dims:
        raise AssertionError(
            f"invariant cohomology mismatch: complex gives {dims}, "
            f"fixed part of H* gives {fixed}")
    return table
