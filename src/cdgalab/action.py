"""Finite cyclic group actions on a DGA and their invariant complexes.

The invariant subcomplex is cut out by the averaging projector
P = (1/m) * sum(f^k); its cohomology is computed directly and cross-checked
against the fixed part of the induced action on cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ._backend import kernel
from .algebra import DGA, AlgebraMap, Differential, GradedElement, apply_d, apply_map, identity_map
from .homology import CochainComplex, CohomologyTable, cohomology
from .linalg import Subspace


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


@dataclass
class GroupAction:
    """A cyclic action: the generator's algebra map and the group order."""
    generator_map: AlgebraMap
    order: int

    def validate(self, d: Differential) -> ActionVerdict:
        return validate_action(self.generator_map, self.order, d)

    def powers(self) -> list[AlgebraMap]:
        maps = [identity_map(self.generator_map.source)]
        for _ in range(self.order - 1):
            maps.append(self.generator_map.compose(maps[-1]))
        return maps

    def project(self, x: GradedElement) -> GradedElement:
        """Averaging projector P = (1/m) sum f^k."""
        acc = x.algebra.zero()
        for f in self.powers():
            acc = acc + apply_map(f, x)
        return acc.scale(Fraction(1, self.order))


def invariant_subspaces(dga: DGA, action: GroupAction) -> list[Subspace]:
    """Per-degree eigenvalue-1 subspaces, as the image of the projector."""
    alg = dga.algebra
    field = alg.field
    subspaces = []
    powers = action.powers()
    inv_m = Fraction(1, action.order)
    for k in range(alg.top + 1):
        rows = []
        for w in alg.basis(k):
            e = alg.word_element(w)
            acc = alg.zero()
            for f in powers:
                acc = acc + apply_map(f, e)
            rows.append(acc.scale(inv_m).to_row(k))
        subspaces.append(Subspace.from_vectors(field, alg.dim(k), rows))
    return subspaces


def invariant_complex(dga: DGA, action: GroupAction) -> CochainComplex:
    """The invariant sub-DGA as a cochain complex (action validated first)."""
    verdict = action.validate(dga.differential)
    if not verdict.ok:
        raise ValueError(f"invalid group action: {verdict.message}")
    return CochainComplex(dga, invariant_subspaces(dga, action))


def induced_action_fixed_dims(table: CohomologyTable, action: GroupAction) -> list[int]:
    """Dimension per degree of the fixed part of the induced action on H*."""
    dims = []
    powers = action.powers()
    field = table.complex.algebra.field
    inv_m = field.rational(1, action.order).cv
    for k in range(table.top + 1):
        reps = table.representatives(k)
        if not reps:
            dims.append(0)
            continue
        rows = []
        for r in reps:
            acc: dict = {}
            for f in powers:
                kernel.row_axpy(acc, table.class_row(apply_map(f, r), k), inv_m, field.red)
            rows.append(acc)
        proj = Subspace.from_vectors(field, len(reps), rows)
        dims.append(proj.dim)
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
