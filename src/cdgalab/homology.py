"""Cohomology of a finite commutative differential graded algebra.

A ``CochainComplex`` is the whole algebra or a differential-stable family of
subspaces (one per degree, e.g. the invariants of a group action).  The
degree-by-degree computation produces exact Betti numbers, echelon-chosen
representatives, coordinates of classes, exactness witnesses, cup products
and the top-degree pairing scalar.

Each degree k is put in echelon form once.  The coboundaries B^k are the
image of the d-eliminator of degree k - 1.  The representatives are the
reduced echelon rows of the cocycles' remainders against B^k, so they are
zero in the pivot columns of B^k.  A closed x is uniquely b + r with b in B^k
and r in the span of the representatives; reducing x by B^k leaves exactly
r, and reducing r by the representatives gives the class coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._backend import kernel
from .algebra import DGA, GradedElement, apply_d, wedge
from .linalg import Eliminator, Matrix, Subspace, densify, quotient_basis


class CochainComplex:
    """A finite complex carved out of an algebra by per-degree subspaces.

    ``subspaces`` is None for the full algebra.  Coordinates of an element in
    degree k are taken in the subspace basis (the word basis when full).
    """

    def __init__(self, dga: DGA, subspaces: Optional[list[Subspace]] = None):
        self.dga = dga
        self.algebra = dga.algebra
        self.differential = dga.differential
        self.top = dga.algebra.top
        if subspaces is not None and len(subspaces) != self.top + 1:
            raise ValueError("need one subspace per degree 0..top")
        self.subspaces = subspaces
        self._d_matrices: dict[int, Matrix] = {}
        self._d_eliminators: dict[int, Eliminator] = {}

    # --- coordinates ---

    def dim(self, k: int) -> int:
        if k < 0 or k > self.top:
            return 0
        if self.subspaces is None:
            return self.algebra.dim(k)
        return self.subspaces[k].dim

    def is_full(self) -> bool:
        return self.subspaces is None

    def to_row(self, x: GradedElement, k: int) -> dict:
        """Sparse coordinates ``{index: cv}`` of x in the degree-k basis of the
        complex; raises when x does not lie in the complex."""
        ambient = x.to_row(k)
        if self.subspaces is None or not ambient:
            return ambient
        coords = self.subspaces[k].coordinates(ambient)
        if coords is None:
            raise ValueError(f"element of degree {k} does not lie in the complex")
        return coords

    def contains(self, x: GradedElement, k: Optional[int] = None) -> bool:
        if x.is_zero():
            return True
        if k is None:
            k = x.degree()
            if k is None:
                return all(self.contains(x.homogeneous_part(j), j)
                           for j in range(self.top + 1))
        try:
            self.to_row(x, k)
        except ValueError:
            return False
        return True

    def from_row(self, k: int, coords: dict) -> GradedElement:
        """The element with sparse coordinates ``{index: cv}`` in degree k."""
        alg = self.algebra
        if self.subspaces is None:
            return GradedElement.from_row(alg, k, coords)
        rows = self.subspaces[k].rows
        mul = alg.field.mul
        ambient: dict = {}
        for i, c in coords.items():
            kernel.row_axpy(ambient, rows[i], c, mul)
        return GradedElement.from_row(alg, k, ambient)

    def basis_elements(self, k: int) -> list[GradedElement]:
        if self.subspaces is None:
            return [self.algebra.word_element(w) for w in self.algebra.basis(k)]
        return [GradedElement.from_row(self.algebra, k, row)
                for row in self.subspaces[k].rows]

    # --- the differential in complex coordinates ---

    def d_matrix(self, k: int) -> Matrix:
        """Rows are the images of the degree-k basis, in degree-(k+1) coords."""
        if k not in self._d_matrices:
            rows = [self.to_row(apply_d(self.differential, e), k + 1)
                    for e in self.basis_elements(k)]
            self._d_matrices[k] = Matrix.sparse(self.algebra.field, self.dim(k + 1), rows)
        return self._d_matrices[k]

    def d_eliminator(self, k: int) -> Eliminator:
        if k not in self._d_eliminators:
            self._d_eliminators[k] = Eliminator(self.d_matrix(k))
        return self._d_eliminators[k]

    def d(self, x: GradedElement) -> GradedElement:
        return apply_d(self.differential, x)


@dataclass
class CohomologyClass:
    table: "CohomologyTable"
    degree: int
    coords: tuple

    def representative(self) -> GradedElement:
        reps = self.table.representatives(self.degree)
        out = self.table.complex.algebra.zero()
        for c, r in zip(self.coords, reps):
            if not c.is_zero():
                out = out + r.scale(c)
        return out

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other):
        return (isinstance(other, CohomologyClass)
                and self.table is other.table
                and self.degree == other.degree
                and list(self.coords) == list(other.coords))


class CohomologyTable:
    """Betti numbers, representatives and witness solvers of a complex."""

    def __init__(self, complex_: CochainComplex):
        self.complex = complex_
        field = complex_.algebra.field
        self.betti: list[int] = []
        self._coboundaries: list[Subspace] = []
        self._quotients: list[Subspace] = []
        self._reps: list[list[GradedElement]] = []
        top = complex_.top
        for k in range(top + 1):
            dim_k = complex_.dim(k)
            cocycles = Subspace.from_vectors(
                field, dim_k, complex_.d_eliminator(k).kernel_rows())
            cob = (complex_.d_eliminator(k - 1).image if k
                   else Subspace(field, dim_k, [], []))
            q = quotient_basis(cocycles, cob)
            self._coboundaries.append(cob)
            self._quotients.append(q)
            self.betti.append(q.dim)
            self._reps.append([complex_.from_row(k, row) for row in q.rows])

    # --- tables ---

    @property
    def top(self) -> int:
        return self.complex.top

    def coboundaries(self, k: int) -> Subspace:
        return self._coboundaries[k]

    def representatives(self, k: int) -> list[GradedElement]:
        return self._reps[k]

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.betti))

    # --- classes ---

    def _closed_row(self, x: GradedElement, k: int) -> dict:
        """Sparse coordinates of x in the complex, after checking that x is
        closed and lies in the complex."""
        dx = self.complex.d(x)
        if not dx.is_zero():
            raise ValueError(f"element is not closed: d(x) = {dx}")
        try:
            return self.complex.to_row(x, k)
        except ValueError:
            raise ValueError("element does not lie in the complex") from None

    def class_row(self, x: GradedElement, k: int) -> dict:
        """Sparse coordinates ``{j: cv}`` of [x] in the degree-k
        representative basis: x reduced by the coboundaries, then the
        remainder by the representatives."""
        if x.is_zero():
            return {}
        _, rem = self._coboundaries[k].reduce(self._closed_row(x, k))
        coords, rem = self._quotients[k].reduce(rem)
        if rem:
            raise AssertionError("closed element must reduce against cocycles")
        return coords

    def class_coords(self, x: GradedElement, degree: Optional[int] = None) -> tuple:
        """Coordinates of [x] in the representative basis of its degree."""
        if x.is_zero() and degree is None:
            raise ValueError("the zero element needs an explicit degree")
        k = degree if degree is not None else x.degree()
        if k is None:
            raise ValueError("class_coords needs a homogeneous element")
        return tuple(densify(self.complex.algebra.field, self.class_row(x, k),
                             self.betti[k]))

    def class_of(self, x: GradedElement, degree: Optional[int] = None) -> CohomologyClass:
        k = degree if degree is not None else x.degree()
        return CohomologyClass(self, k, self.class_coords(x, k))

    def is_exact(self, x: GradedElement, degree: Optional[int] = None) -> Optional[GradedElement]:
        """A primitive xi with d(xi) = x, or None when [x] != 0.

        The primitive is the deterministic pivot solution inside the complex.
        """
        if x.is_zero():
            return self.complex.algebra.zero()
        k = degree if degree is not None else x.degree()
        if k is None:
            raise ValueError("is_exact needs a homogeneous element")
        row = self._closed_row(x, k)
        if k == 0:
            return None
        sol = self.complex.d_eliminator(k - 1).solve_left(row)
        if sol is None:
            return None
        return self.complex.from_row(k - 1, sol)

    def cup(self, c1: CohomologyClass, c2: CohomologyClass) -> CohomologyClass:
        """Product of classes via representatives."""
        if c1.table is not self or c2.table is not self:
            raise ValueError("classes come from a different table")
        prod = wedge(c1.representative(), c2.representative())
        return self.class_of(prod, c1.degree + c2.degree)


def cohomology(dga_or_complex) -> CohomologyTable:
    """Cohomology table of a DGA or of a prepared cochain complex."""
    if isinstance(dga_or_complex, CochainComplex):
        return CohomologyTable(dga_or_complex)
    if isinstance(dga_or_complex, DGA):
        return CohomologyTable(CochainComplex(dga_or_complex))
    raise TypeError("expected a DGA or a CochainComplex")


def top_scalar(x: GradedElement, volume: GradedElement):
    """Coefficient of ``x`` on the declared volume element.

    ``volume`` must be a single-term element of the top degree; the scalar is
    reported relative to that term as written (its sign and coefficient are
    divided out), so conventions follow the declaration, not the internal
    basis order.
    """
    alg = x.algebra
    if volume.algebra is not alg:
        raise ValueError("algebra mismatch")
    if len(volume.terms) != 1:
        raise ValueError("volume must be a single basis word")
    (word, coeff), = volume.terms.items()
    k = alg.word_degree(word)
    if not x.is_zero() and x.degree() != k:
        raise ValueError(f"degree mismatch: expected homogeneous degree {k}")
    return x.coefficient(word) / coeff
