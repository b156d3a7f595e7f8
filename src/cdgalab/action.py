"""Finite cyclic group actions on a differential graded algebra and their
invariant complexes.

A cyclic action is one algebra map f with f^m = id.  ``validate_action``
builds f^m once, by repeated squaring in ``AlgebraMap.power``, to check
that it is the identity.  The projector and the traces never compose: each
power there is reached by applying f once more, so one map's cache of word
images serves all of them.  They sum over the least period r of f, not the
declared order m: r divides m, and an m-term sum over the powers of f is
m/r copies of the r-term sum, so the averages are the same, and a huge
declared order costs no more than the map's actual one.  Each of them finds
r by applying f to the generator images until they come back.

- The invariant subcomplex is the image of the averaging projector
  P = (1/r)(1 + f + ... + f^(r-1)).  The row of a word w is its orbit sum
  (1/r)(w + f(w) + ... + f^(r-1)(w)), with f^j(w) = f(f^(j-1)(w)),
  accumulated on ``{word: cv}`` maps and boxed only by ``Subspace``.
- Its cohomology is cross-checked against the fixed part of the induced
  action on the full cohomology.  Let A_k be the matrix of f* on H^k in the
  representative basis: row i is the class of f(r_i), one class solve per
  representative.  The averaged map (1/r) sum A_k^j is an idempotent onto
  the fixed part, so its rank is its trace and
  dim Fix(H^k) = (1/r) sum_{j<r} tr(A_k^j), with tr(A_k^0) = b_k.  The same
  loop yields tr(f*|H^k), the terms of the Lefschetz number, and checks
  that A_k^r is the identity.

The two sides of the cross-check stay independent: each builds its own copy
of the generator map, so they share no cache of word images, and the
projector never reads the full cohomology table.  An error in either side's
map images, orbit sums or class solves then shows as a disagreement instead
of being repeated on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._backend import kernel
from .algebra import (AlgebraMap, Differential, PreconditionError, apply_d, apply_map,
                      map_terms)
from .field import FieldElement
from .homology import CochainComplex, CohomologyTable, engine_built
from .linalg import Matrix, Subspace


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
        residue = fm(gen) - gen
        if not residue.is_zero():
            raise PreconditionError(
                f"f^{m} is not the identity at {alg.gens[g].name}", residue)
    for g in range(len(alg.gens)):
        gen = alg.word_element((g,))
        residue = apply_map(f, apply_d(d, gen)) - apply_d(d, apply_map(f, gen))
        if not residue.is_zero():
            raise PreconditionError(
                f"f does not commute with d at {alg.gens[g].name}", residue)


@dataclass(frozen=True)
class GroupAction:
    """A cyclic action: the generator's algebra map, the group order and the
    differential it commutes with.  It is validated when built, so every
    instance satisfies f^m = id and f o d = d o f."""
    generator_map: AlgebraMap
    order: int
    differential: Differential

    def __post_init__(self):
        validate_action(self.generator_map, self.order, self.differential)


def _own_map(f: AlgebraMap) -> AlgebraMap:
    """A copy of f with a cache of word images of its own."""
    return AlgebraMap(f.source, f.target, f.assignments)


def _period(f: AlgebraMap, m: int) -> int:
    """The least r >= 1 with f^r = id, found by applying f to the generator
    images until they come back, in r steps.  Since f^m = id, r divides m;
    raises AssertionError when it does not."""
    alg = f.source
    one = alg.field.one.cv
    gens = [{(g,): one} for g in range(len(alg.gens))]
    images = gens
    for r in range(1, m + 1):
        images = [map_terms(f, x) for x in images]
        if images == gens:
            if m % r:
                break
            return r
    raise AssertionError(f"f^{m} is not the identity on the generators")


def invariant_subspaces(action: GroupAction) -> list[Subspace]:
    """Per-degree eigenvalue-1 subspaces, as the image of the projector."""
    alg = action.differential.algebra
    field = alg.field
    mul = field.mul
    f = _own_map(action.generator_map)
    r = _period(f, action.order)
    one = field.one.cv
    inv_r = field.rational(1, r).cv
    subspaces = []
    for k in range(alg.top + 1):
        rows = []
        for w in alg.basis(k):
            term = {w: one}
            acc = {w: inv_r}
            for _ in range(r - 1):
                term = map_terms(f, term)
                kernel.row_axpy(acc, term, inv_r, mul)
            rows.append({alg.word_index(k, u): c for u, c in acc.items()})
        subspaces.append(Subspace.from_vectors(field, alg.dim(k), rows))
    return subspaces


def invariant_complex(action: GroupAction) -> CochainComplex:
    """The invariant differential subalgebra as a cochain complex."""
    return CochainComplex(action.differential, invariant_subspaces(action))


def induced_traces(table: CohomologyTable, action: GroupAction) -> list[list[FieldElement]]:
    """Per degree k, the traces tr((f*)^j | H^k) for j = 0 .. r-1, where r
    is the least period of f on the generators.

    The matrix A_k of f* has as row i the class of f(r_i), for the
    representatives r_i of ``table``; its powers are products of A_k.
    Raises AssertionError when f^m is not the identity on the generators,
    when A_k^r, the last power built, is not the identity, or when some
    f(r_i) fails the check of a class solve."""
    f = _own_map(action.generator_map)
    r = _period(f, action.order)
    field = table.complex.algebra.field
    traces = []
    for k in range(table.top + 1):
        reps = table.representatives(k)
        b = len(reps)
        with engine_built():
            rows = [table.class_row(apply_map(f, r), k) for r in reps]
        a = Matrix(field, b, rows)
        tr = [field.rational(b)]
        power = a
        for _ in range(r - 1):
            tr.append(sum((power.entry(i, i) for i in range(b)), field.zero))
            power = power.matmul(a)
        if power != Matrix.identity(field, b):
            raise AssertionError(
                f"the induced map to the power {r} is not the identity on H^{k}")
        traces.append(tr)
    return traces


def induced_action_fixed_dims(table: CohomologyTable, action: GroupAction) -> list[int]:
    """Dimension per degree of the fixed part of the induced action on H*,
    (1/r) sum_{j<r} tr((f*)^j | H^k) by the trace formula."""
    dims = []
    for k, tr in enumerate(induced_traces(table, action)):
        r = len(tr)
        total = sum(tr[1:], tr[0])
        q = total.as_fraction() if total.is_rational() else None
        if q is None or q < 0 or q.denominator != 1 or q.numerator % r:
            raise AssertionError(
                f"fixed part of H^{k} would have dimension ({total})/{r}, "
                f"not a non-negative integer")
        dims.append(q.numerator // r)
    return dims


def check_fixed_part(table: CohomologyTable, full: CohomologyTable,
                     action: GroupAction) -> None:
    """Checks that the invariant complex's cohomology ``table`` has, in every
    degree, the dimension of the fixed part of the induced action on the
    full cohomology ``full``; the two sides are computed independently."""
    fixed = induced_action_fixed_dims(full, action)
    if fixed != table.betti:
        raise AssertionError(
            f"invariant cohomology mismatch: complex gives {table.betti}, "
            f"fixed part of H* gives {fixed}")


def invariant_cohomology(action: GroupAction) -> CohomologyTable:
    """Cohomology of the invariant complex.

    The same numbers are recomputed as the fixed part of the induced action
    on H*(full complex) and the two must agree in every degree; this guards
    the most error-prone reduction step.
    """
    table = CohomologyTable(invariant_complex(action))
    check_fixed_part(table, CohomologyTable(CochainComplex(action.differential)), action)
    return table
