"""Finite cyclic group actions on a DGA and their invariant complexes.

A cyclic action is one algebra map f with f^m = id.  Every power is reached
by applying f once more, so no power map is composed, and one map's cache of
word images serves all of them.

- The invariant subcomplex is the image of the averaging projector
  P = (1/m)(1 + f + ... + f^(m-1)).  The row of a word w is its orbit sum
  (1/m)(w + f(w) + ... + f^(m-1)(w)), with f^j(w) = f(f^(j-1)(w)),
  accumulated on ``{word: cv}`` maps and boxed only by ``Subspace``.
- Its cohomology is cross-checked against the fixed part of the induced
  action on the full cohomology.  Let A_k be the matrix of f* on H^k in the
  representative basis: row i is the class of f(r_i), one class solve per
  representative.  The averaged map (1/m) sum A_k^j is an idempotent onto
  the fixed part, so its rank is its trace and
  dim Fix(H^k) = (1/m) sum_{j<m} tr(A_k^j), with tr(A_k^0) = b_k.  The same
  loop yields tr(f*|H^k), the terms of the Lefschetz number, and checks
  that A_k^m is the identity.

The two sides of the cross-check stay independent: each builds its own copy
of the generator map, so they share no cache of word images, and the
projector never reads the full cohomology table.  An error in either side's
map images, orbit sums or class solves then shows as a disagreement instead
of being repeated on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._backend import kernel
from .algebra import DGA, AlgebraMap, Differential, GradedElement, apply_d, apply_map, map_terms
from .field import FieldElement
from .homology import CochainComplex, CohomologyTable, cohomology
from .linalg import Matrix, Subspace


@dataclass
class ActionVerdict:
    ok: bool
    message: str = ""
    generator: Optional[str] = None
    residue: Optional[GradedElement] = None

    def __bool__(self):
        return self.ok


def validate_action(f: AlgebraMap, m: int, d: Differential) -> ActionVerdict:
    """Checks f^m = id and f o d = d o f on generators."""
    alg = f.source
    if f.target is not alg or d.algebra is not alg:
        return ActionVerdict(False, "map and differential must live on one algebra")
    if m < 1:
        return ActionVerdict(False, f"order must be positive, got {m}")
    fm = f.power(m)
    for g in range(len(alg.gens)):
        gen = alg.word_element((g,))
        img = fm(gen)
        if img != gen:
            return ActionVerdict(
                False, f"f^{m} is not the identity at {alg.gens[g].name}",
                alg.gens[g].name, img - gen)
    for g in range(len(alg.gens)):
        gen = alg.word_element((g,))
        residue = apply_map(f, apply_d(d, gen)) - apply_d(d, apply_map(f, gen))
        if not residue.is_zero():
            return ActionVerdict(
                False, f"f does not commute with d at {alg.gens[g].name}",
                alg.gens[g].name, residue)
    return ActionVerdict(True)


@dataclass(frozen=True)
class GroupAction:
    """A cyclic action: the generator's algebra map, the group order and the
    differential it commutes with.  It is validated when built, so every
    instance satisfies f^m = id and f o d = d o f."""
    generator_map: AlgebraMap
    order: int
    differential: Differential

    def __post_init__(self):
        verdict = validate_action(self.generator_map, self.order, self.differential)
        if not verdict.ok:
            raise ValueError(verdict.message)


def _own_map(f: AlgebraMap) -> AlgebraMap:
    """A copy of f with a cache of word images of its own."""
    return AlgebraMap(f.source, f.target, f.assignments)


def invariant_subspaces(dga: DGA, action: GroupAction) -> list[Subspace]:
    """Per-degree eigenvalue-1 subspaces, as the image of the projector."""
    alg = dga.algebra
    field = alg.field
    mul = field.mul
    f = _own_map(action.generator_map)
    one = field.one.cv
    inv_m = field.rational(1, action.order).cv
    subspaces = []
    for k in range(alg.top + 1):
        rows = []
        for w in alg.basis(k):
            term = {w: one}
            acc = {w: inv_m}
            for _ in range(action.order - 1):
                term = map_terms(f, term)
                kernel.row_axpy(acc, term, inv_m, mul)
            rows.append({alg.word_index(k, u): c for u, c in acc.items()})
        subspaces.append(Subspace.from_vectors(field, alg.dim(k), rows))
    return subspaces


def invariant_complex(dga: DGA, action: GroupAction) -> CochainComplex:
    """The invariant sub-DGA as a cochain complex."""
    if action.differential is not dga.differential:
        raise ValueError("the action was validated against another differential")
    return CochainComplex(dga, invariant_subspaces(dga, action))


def induced_traces(table: CohomologyTable, action: GroupAction) -> list[list[FieldElement]]:
    """Per degree k, the traces tr((f*)^j | H^k) for j = 0 .. m-1.

    The matrix A_k of f* has as row i the class of f(r_i), for the
    representatives r_i of ``table``; its powers are products of A_k.
    Raises AssertionError when A_k^m, the last power built, is not the
    identity."""
    f = _own_map(action.generator_map)
    field = table.complex.algebra.field
    traces = []
    for k in range(table.top + 1):
        reps = table.representatives(k)
        b = len(reps)
        a = Matrix.sparse(field, b, [table.class_row(apply_map(f, r), k) for r in reps])
        tr = [field.rational(b)]
        power = a
        for _ in range(action.order - 1):
            tr.append(sum((power.entry(i, i) for i in range(b)), field.zero))
            power = power.matmul(a)
        if power != Matrix.identity(field, b):
            raise AssertionError(
                f"the induced map to the power {action.order} is not the "
                f"identity on H^{k}")
        traces.append(tr)
    return traces


def induced_action_fixed_dims(table: CohomologyTable, action: GroupAction) -> list[int]:
    """Dimension per degree of the fixed part of the induced action on H*,
    (1/m) sum_j tr((f*)^j | H^k) by the trace formula."""
    m = action.order
    dims = []
    for k, tr in enumerate(induced_traces(table, action)):
        total = sum(tr[1:], tr[0])
        q = total.as_fraction() if total.is_rational() else None
        if q is None or q < 0 or q.denominator != 1 or q.numerator % m:
            raise AssertionError(
                f"fixed part of H^{k} would have dimension ({total})/{m}, "
                f"not a non-negative integer")
        dims.append(q.numerator // m)
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


def invariant_cohomology(dga: DGA, action: GroupAction) -> CohomologyTable:
    """Cohomology of the invariant complex.

    The same numbers are recomputed as the fixed part of the induced action
    on H*(full complex) and the two must agree in every degree; this guards
    the most error-prone reduction step.
    """
    table = cohomology(invariant_complex(dga, action))
    check_fixed_part(table, cohomology(dga), action)
    return table
