"""Cohomology of a finite commutative differential graded algebra.

A ``CochainComplex`` is the whole algebra or a differential-stable family of
subspaces (one per degree, e.g. the invariants of a group action).  The
degree-by-degree computation produces exact Betti numbers, echelon-chosen
representatives, coordinates of classes, exactness witnesses, cup products
and the top-degree pairing scalar.

Each degree k takes two eliminations.  Its d-eliminator gives the cocycles
Z^k as kernel rows; the one of degree k - 1 gives the coboundaries B^k as
its image.  The representatives are the reduced echelon rows of the kernel
rows' remainders against B^k, so they are zero in the pivot columns of B^k;
their number is dim Z^k - dim B^k exactly when B^k lies in Z^k, and that
rank identity certifies B^k in Z^k.  A closed x is uniquely b + r with b in B^k
and r in the span of the representatives; reducing x by B^k leaves exactly
r, and reducing r by the representatives gives the class coordinates.

A d-matrix is built from the differential's per-word Leibniz rows
(``Differential.word_rows``) without boxing a coefficient: on the full
algebra those rows are its rows, and on a subspace family each row is the
combination of the word rows that its subspace row names, in the
coordinates of the next subspace.  A table keeps its representatives as
sparse rows.  It turns the rows of a degree into ``{word: cv}`` maps, and
boxes those maps as elements, each when they are first asked for, so a table
read only for its Betti numbers does neither.

There is one class solve, ``CohomologyTable._class_row``, and it takes the
element as a ``{word: cv}`` map.  The engine hands it products and map images
built unboxed from ``representative_terms`` (``_product``, ``map_terms``);
the element entry points (``class_row``, ``class_coords``, ``is_exact``)
check that the element belongs to the table's algebra and pass its map.
The solve checks that its element is closed and lies in the complex, and
that the remainder against the representatives is zero.  On a user's
element a failed check is a failed precondition (``PreconditionError``).
Inside ``engine_built()`` the element is one the engine made itself, such as
a product of representatives or the image of one under a map, and a failed
check is an engine fault (``AssertionError``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from ._backend import kernel
from .algebra import (Differential, GradedElement, PreconditionError, _cvs, _element,
                      _product, apply_d, d_terms)
from .linalg import Eliminator, Matrix, Subspace, densify, quotient_basis


def _terms_in(alg, x: GradedElement) -> dict:
    """The ``{word: cv}`` map of x, which must be an element of ``alg``."""
    if x.algebra is not alg:
        raise ValueError("algebra mismatch")
    return _cvs(x)


class CochainComplex:
    """A finite complex carved out of the algebra of ``differential`` by
    per-degree subspaces.

    ``subspaces`` is None for the full algebra.  Coordinates of an element in
    degree k are taken in the subspace basis (the word basis when full).
    """

    def __init__(self, differential: Differential,
                 subspaces: Optional[list[Subspace]] = None):
        self.differential = differential
        self.algebra = differential.algebra
        self.top = self.algebra.top
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
        return self.terms_row(_terms_in(self.algebra, x), k)

    def terms_row(self, terms: dict, k: int) -> dict:
        """``to_row`` of the element with the ``{word: cv}`` map ``terms``."""
        ambient = self.algebra.terms_row(terms, k)
        if self.subspaces is None or not ambient:
            return ambient
        coords = self.subspaces[k].coordinates(ambient)
        if coords is None:
            raise ValueError(f"element of degree {k} does not lie in the complex")
        return coords

    def contains(self, x: GradedElement, k: int) -> bool:
        try:
            self.to_row(x, k)
        except ValueError:
            return False
        return True

    def from_row(self, k: int, coords: dict) -> GradedElement:
        """The element with sparse coordinates ``{index: cv}`` in degree k."""
        return _element(self.algebra, self.row_terms(k, coords))

    def row_terms(self, k: int, coords: dict) -> dict:
        """``from_row`` as a new ``{word: cv}`` map, without boxing."""
        if self.subspaces is None:
            ambient = coords
        else:
            rows = self.subspaces[k].rows
            mul = self.algebra.field.mul
            ambient = {}
            for i, c in coords.items():
                kernel.row_axpy(ambient, rows[i], c, mul)
        words = self.algebra.basis(k)
        return {words[j]: c for j, c in ambient.items()}

    def basis_elements(self, k: int) -> list[GradedElement]:
        if self.subspaces is None:
            return [self.algebra.word_element(w) for w in self.algebra.basis(k)]
        return [GradedElement.from_row(self.algebra, k, row)
                for row in self.subspaces[k].rows]

    # --- the differential in complex coordinates ---

    def d_matrix(self, k: int) -> Matrix:
        """Rows are the images of the degree-k basis, in degree-(k+1) coords:
        the differential's word rows, or for a subspace row the combination
        of the word rows it names, in the coordinates of the next subspace."""
        if k not in self._d_matrices:
            word_rows = self.differential.word_rows(k)
            if self.subspaces is None or not word_rows:
                rows = word_rows
            else:
                mul = self.algebra.field.mul
                rows = []
                for row in self.subspaces[k].rows:
                    image: dict = {}
                    for i, c in row.items():
                        kernel.row_axpy(image, word_rows[i], c, mul)
                    if image:
                        image = self.subspaces[k + 1].coordinates(image)
                        if image is None:
                            raise ValueError(
                                f"element of degree {k + 1} does not lie in the complex")
                    rows.append(image)
            self._d_matrices[k] = Matrix(self.algebra.field, self.dim(k + 1), rows)
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

    def terms(self) -> dict:
        """The representative as a new ``{word: cv}`` map."""
        reps = self.table.representative_terms(self.degree)
        mul = self.table.complex.algebra.field.mul
        out: dict = {}
        for c, r in zip(self.coords, reps):
            if not c.is_zero():
                kernel.row_axpy(out, r, c.cv, mul)
        return out

    def representative(self) -> GradedElement:
        return _element(self.table.complex.algebra, self.terms())

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
        self._rep_terms: dict[int, list[dict]] = {}
        self._reps: dict[int, list[GradedElement]] = {}
        top = complex_.top
        for k in range(top + 1):
            cob = (complex_.d_eliminator(k - 1).image if k
                   else Subspace(field, complex_.dim(k), [], []))
            with engine_built("table"):
                q = quotient_basis(complex_.d_eliminator(k).kernel_rows(), cob)
            self._coboundaries.append(cob)
            self._quotients.append(q)
            self.betti.append(q.dim)

    # --- tables ---

    @property
    def top(self) -> int:
        return self.complex.top

    def coboundaries(self, k: int) -> Subspace:
        return self._coboundaries[k]

    def representative_terms(self, k: int) -> list[dict]:
        """The degree-k representatives as ``{word: cv}`` maps (shared),
        built on first use."""
        if k not in self._rep_terms:
            self._rep_terms[k] = [self.complex.row_terms(k, row)
                                  for row in self._quotients[k].rows]
        return self._rep_terms[k]

    def representatives(self, k: int) -> list[GradedElement]:
        """The degree-k representatives as elements, boxed on first use."""
        if k not in self._reps:
            alg = self.complex.algebra
            self._reps[k] = [_element(alg, t) for t in self.representative_terms(k)]
        return self._reps[k]

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.betti))

    # --- classes ---

    def _closed_row(self, terms: dict, k: int) -> dict:
        """Sparse coordinates of the element with the ``{word: cv}`` map
        ``terms`` in the complex, after checking that it is closed and lies
        in the complex."""
        cx = self.complex
        dx = d_terms(cx.differential, terms)
        if dx:
            dx = _element(cx.algebra, dx)
            raise PreconditionError(f"element is not closed: d(x) = {dx}", dx)
        try:
            return cx.terms_row(terms, k)
        except ValueError:
            raise ValueError("element does not lie in the complex") from None

    def _class_row(self, terms: dict, k: int) -> dict:
        """Sparse coordinates ``{j: cv}`` in the degree-k representative
        basis of the class of the element x with the ``{word: cv}`` map
        ``terms`` (no zeros), after checking that x is closed and lies in
        the complex: x reduced by the coboundaries, then the remainder by
        the representatives."""
        if not terms:
            return {}
        rem = self._closed_row(terms, k)
        self._coboundaries[k].reduce_owned(rem)
        coords = self._quotients[k].reduce_owned(rem)
        if rem:
            raise AssertionError("closed element must reduce against cocycles")
        return coords

    def class_row(self, x: GradedElement, k: int) -> dict:
        """Sparse coordinates ``{j: cv}`` of [x] in the degree-k
        representative basis."""
        return self._class_row(_terms_in(self.complex.algebra, x), k)

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
        terms = _terms_in(self.complex.algebra, x)
        if not terms:
            return self.complex.algebra.zero()
        k = degree if degree is not None else x.degree()
        if k is None:
            raise ValueError("is_exact needs a homogeneous element")
        row = self._closed_row(terms, k)
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
        alg = self.complex.algebra
        k = c1.degree + c2.degree
        with engine_built():
            row = self._class_row(_product(alg, c1.terms(), c2.terms()), k)
        return CohomologyClass(self, k, tuple(densify(alg.field, row, self.betti[k])))


@contextmanager
def engine_built(what: str = "element"):
    """Context for checks on data the engine built itself: class solves on
    products of representatives or their images under a map, and the quotient
    step of a table (B^k lies in Z^k since d∘d = 0 is checked).  Such data
    fail a check only when the engine is wrong, so the ``ValueError`` is
    raised again as ``AssertionError``: ``cdga run`` exits 3, not 1."""
    try:
        yield
    except ValueError as e:
        raise AssertionError(f"engine-built {what}: {e}") from e


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
