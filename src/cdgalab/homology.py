"""Cohomology of a finite commutative differential graded algebra.

A ``CochainComplex`` is the whole algebra or a differential-stable family of
subspaces (one per degree, e.g. the invariants of a group action).  The
degree-by-degree computation produces exact Betti numbers, echelon-chosen
representatives, coordinates of classes, exactness witnesses, the class
rows of products and the top-degree pairing scalar.

Each degree k is read two ways.  Its Betti number comes from ranks,
b_k = dim C^k - rank D_k - rank D_(k-1) (``Matrix.rank``, forward
elimination).  Its quotient is built on the first class solve or
representative read of degree k: Z^k is the kernel of
the d-eliminator of degree k, B^k the image of the one of degree k - 1, and
the representatives are the reduced echelon rows of the remainders of Z^k
against B^k, zero in the pivot columns of B^k.  Their number is
dim Z^k - dim B^k exactly when B^k lies in Z^k, and it must equal b_k, so
each quotient built certifies B^k in Z^k.  A table read only for its Betti
numbers builds no ``Eliminator``; there B^k in Z^k rests on d∘d = 0, which
``Differential`` checks on the generators (the Leibniz rule extends it to
every word), and on a subspace complex also on ``CochainComplex.d_matrix``,
which refuses a family that is not d-stable when the ranks read it.  A
closed x is uniquely b + r with b in B^k and r in the span of the
representatives; reducing x by B^k leaves exactly r, and reducing r by the
representatives gives the class coordinates.

A d-matrix is built from the differential's word rows
(``Differential.word_rows``), which are already sparse rows of the kernel's
values: on the full algebra those rows are its rows, and on a subspace
family each row is the combination of the word rows that its subspace row
names, in the coordinates of the next subspace.  Every ambient row reaches
the complex's coordinates by its one split (``CochainComplex._split``) into
coordinates and ambient remainder: ``to_row``, the d-matrix rows and
``is_exact`` go through ``_coords``, which refuses a remainder, and the
table's reduction keeps it.  A table keeps its representatives as sparse
rows and builds the elements of a degree when they are first asked for.

The class layer has one check, one reduction and one product path.  The
check (``_checked_row``) of ``class_coords``, ``is_exact`` and
``product_rows`` tests that an element is closed, then reads its row on the
words of its degree; a term of another degree fails on the degree.  The
reduction (``_reduce``) splits an ambient row in the complex, then reduces
its coordinates by B^k, kept beside the quotient, and by the representatives,
keeping any remainder at negative indices.  A class is one sparse row
``{j: cv}`` of coordinates in the representative basis: the class solve
``class_coords`` checks and reduces its element and fails on a remainder,
and ``class_of`` reads its class from it.  ``product_rows`` (the classes of
r * x over the representatives r of a degree) solves no element: the solve
is linear, so the row of r_i * x is the sum, with x's coefficients, of the
reductions N(r_i * u) of x's words u, kept per degree and word, as a column
``{i: N(r_i * u)}`` per (k, degree) and word u, built when a call first
meets u; one ``kernel.scatter`` over x's columns builds all the rows.
The solve and ``is_exact`` take the degree, as their element may be zero;
``class_of`` is the one entry that infers it, from a nonzero homogeneous
element.  On a user's element a failed check is a failed precondition
(``PreconditionError``).  Inside ``engine_built()`` the element is one the
engine made itself, such as a product of representatives, the image of one
under a map or the obstruction's degree-8 element, and a failed check is an
engine fault (``AssertionError``).
"""

from __future__ import annotations

from contextlib import contextmanager

from ._backend import kernel
from .algebra import Differential, GradedElement, PreconditionError, _element, apply_d, wedge
from .linalg import Eliminator, Matrix, Subspace, quotient_basis


def _check_algebra(alg, x: GradedElement) -> None:
    if x.algebra is not alg:
        raise ValueError("algebra mismatch")


class CochainComplex:
    """A finite complex carved out of the algebra of ``differential`` by
    per-degree subspaces.

    ``subspaces`` is None for the full algebra.  Coordinates of an element in
    degree k are taken in the subspace basis (the word basis when full).
    """

    def __init__(self, differential: Differential,
                 subspaces: list[Subspace] | None = None):
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

    def _split(self, row: dict, k: int) -> tuple[dict, dict]:
        """(coordinates, ambient remainder) of the owned ambient degree-k row
        ``row``: ``reduce_owned`` against the degree's subspace, which leaves
        the remainder in ``row``; the row itself, with no remainder, on the
        full algebra or when it is empty."""
        if self.subspaces is None or not row:
            return row, {}
        return self.subspaces[k].reduce_owned(row), row

    def _coords(self, row: dict, k: int) -> dict:
        """The coordinates of the owned ambient degree-k row ``row``; raises
        when it is outside the complex."""
        coords, rem = self._split(row, k)
        if rem:
            raise ValueError(f"element of degree {k} does not lie in the complex")
        return coords

    def to_row(self, x: GradedElement, k: int) -> dict:
        """Sparse coordinates ``{index: cv}`` of x in the degree-k basis of the
        complex; raises when x is outside the complex."""
        _check_algebra(self.algebra, x)
        return self._coords(x.to_row(k), k)

    def contains(self, x: GradedElement, k: int) -> bool:
        try:
            self.to_row(x, k)
        except ValueError:
            return False
        return True

    def from_row(self, k: int, coords: dict) -> GradedElement:
        """The element with sparse coordinates ``{index: cv}`` in degree k."""
        if self.subspaces is None:
            ambient = coords
        else:
            ambient = kernel.combine(coords, self.subspaces[k].rows.__getitem__,
                                     self.algebra.field)
        words = self.algebra.basis(k)
        return _element(self.algebra, {words[j]: c for j, c in ambient.items()})

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
                rows = [self._coords(kernel.combine(row, word_rows.__getitem__,
                                                    self.algebra.field), k + 1)
                        for row in self.subspaces[k].rows]
            self._d_matrices[k] = Matrix(self.algebra.field, self.dim(k + 1), rows)
        return self._d_matrices[k]

    def d_eliminator(self, k: int) -> Eliminator:
        if k not in self._d_eliminators:
            self._d_eliminators[k] = Eliminator(self.d_matrix(k))
        return self._d_eliminators[k]


class CohomologyClass:
    """The class with sparse coordinates ``coords``, ``{j: cv}``, in the
    degree-``degree`` representative basis of ``table``.  Two classes are
    equal when they have one table, one degree and equal coordinates."""

    def __init__(self, table: CohomologyTable, degree: int, coords: dict):
        self.table = table
        self.degree = degree
        self.coords = coords

    def __eq__(self, other):
        if type(other) is not CohomologyClass:
            return NotImplemented
        return ((self.table, self.degree, self.coords)
                == (other.table, other.degree, other.coords))

    def representative(self) -> GradedElement:
        """The combination of the table's representatives that the
        coordinates name."""
        reps = self.table.representatives(self.degree)
        alg = self.table.complex.algebra
        return _element(alg, kernel.combine(self.coords, lambda j: reps[j]._terms,
                                            alg.field))

    def is_zero(self) -> bool:
        return not self.coords


class CohomologyTable:
    """Betti numbers, representatives and witness solvers of a complex."""

    def __init__(self, complex_: CochainComplex):
        self.complex = complex_
        ranks = [complex_.d_matrix(k).rank() for k in range(complex_.top + 1)]
        self.betti: list[int] = [complex_.dim(k) - r - (ranks[k - 1] if k else 0)
                                 for k, r in enumerate(ranks)]
        self._coboundaries: dict[int, Subspace] = {}
        self._quotients: dict[int, Subspace] = {}
        self._reps: dict[int, list[GradedElement]] = {}
        self._normal_forms: dict[int, dict[int, dict]] = {}
        self._columns: dict[tuple[int, int], dict[int, dict[int, dict]]] = {}

    # --- tables ---

    @property
    def top(self) -> int:
        return self.complex.top

    def quotient(self, k: int) -> Subspace:
        """The representatives' rows in degree k, built with B^k on first
        read; a dimension other than ``betti[k]`` is an engine fault.  Both
        are zero outside 0..top, as is B^0."""
        if k not in self._quotients:
            cx = self.complex
            q = cob = Subspace(cx.algebra.field, cx.dim(k), [], [])
            if 0 <= k <= self.top:
                cob = cx.d_eliminator(k - 1).image if k else cob
                with engine_built("table"):
                    q = quotient_basis(cx.d_eliminator(k).kernel_rows(), cob)
                if q.dim != self.betti[k]:
                    raise AssertionError(
                        f"engine-built table: the quotient of degree {k} has dimension "
                        f"{q.dim}, the ranks give b_{k} = {self.betti[k]}")
            self._coboundaries[k] = cob
            self._quotients[k] = q
        return self._quotients[k]

    def dim(self, k: int) -> int:
        """The Betti number of degree k; H^k = 0 outside 0..top."""
        return self.betti[k] if 0 <= k <= self.top else 0

    def representatives(self, k: int) -> list[GradedElement]:
        """The degree-k representatives as elements (shared), built on first
        use; none outside 0..top."""
        if not 0 <= k <= self.top:
            return []
        if k not in self._reps:
            self._reps[k] = [self.complex.from_row(k, row)
                             for row in self.quotient(k).rows]
        return self._reps[k]

    # --- classes ---

    def _checked_row(self, x: GradedElement, k: int) -> dict:
        """x's row on the degree-k words, after checking that x is closed; an
        x with a term of another degree fails the precondition on its
        degree, tested only when the row cannot be read."""
        dx = apply_d(self.complex.differential, x)
        if not dx.is_zero():
            raise PreconditionError(f"element is not closed: d(x) = {dx}", dx)
        try:
            return x.to_row(k)
        except ValueError:
            raise PreconditionError(f"element is not of degree {k}", x) from None

    def _reduce(self, row: dict, degree: int) -> dict:
        """Class coordinates at 0.. of the owned ambient row ``row``: its
        coordinates in the complex (``CochainComplex._split``) reduced by
        B^degree, then by the representatives; remainders at -1 - j
        (coordinate j of the complex) and -1 - dim - j (ambient j, outside
        the complex)."""
        cx, q = self.complex, self.quotient(degree)
        row, amb = cx._split(row, degree)
        self._coboundaries[degree].reduce_owned(row)
        out = q.reduce_owned(row)
        for j, v in row.items():
            out[-1 - j] = v
        for j, v in amb.items():
            out[-1 - cx.dim(degree) - j] = v
        return out

    def class_coords(self, x: GradedElement, degree: int) -> dict:
        """Sparse coordinates ``{j: cv}`` of [x] in the degree-``degree``
        representatives, ``_reduce`` of the checked row: an x outside the
        complex is a ``ValueError``, any other remainder an engine fault."""
        _check_algebra(self.complex.algebra, x)
        if x.is_zero():
            return {}
        coords = self._reduce(self._checked_row(x, degree), degree)
        if coords and min(coords) < 0:
            self.complex.to_row(x, degree)  # raises when x is outside the complex
            raise AssertionError("closed element must reduce against cocycles")
        return coords

    def class_of(self, x: GradedElement, degree: int | None = None) -> CohomologyClass:
        if degree is None and x.is_zero():
            raise ValueError("the zero element needs an explicit degree")
        k = x.degree() if degree is None else degree
        if k is None:
            raise ValueError("class_coords needs a homogeneous element")
        return CohomologyClass(self, k, self.class_coords(x, k))

    def is_exact(self, x: GradedElement, degree: int) -> GradedElement | None:
        """A primitive xi with d(xi) = x, or None when [x] != 0.

        The primitive is the deterministic pivot solution inside the complex.
        """
        _check_algebra(self.complex.algebra, x)
        if x.is_zero():
            return self.complex.algebra.zero()
        row = self.complex._coords(self._checked_row(x, degree), degree)
        if degree == 0:
            return None
        sol = self.complex.d_eliminator(degree - 1).solve_left(row)
        if sol is None:
            return None
        return self.complex.from_row(degree - 1, sol)

    def _normal_form(self, w: int, degree: int) -> dict:
        """``_reduce`` of the unit row of the degree-``degree`` word w."""
        alg = self.complex.algebra
        return self._reduce({alg.word_index(degree, w): alg.field.one.cv}, degree)

    def _product_columns(self, reps: list[GradedElement], words: list,
                         degree: int) -> dict:
        """``{u: {i: N(r_i * u)}}`` for the words u of ``words``, over the r_i
        with N(r_i * u) != 0, N the linear extension of ``_normal_form``.
        r_i * u takes each word w of r_i to w + u once, so its terms are
        r_i's coefficients, signed.  An r_i that is one word with coefficient
        one (as all of the paper's are) takes N(w + u) or its negative, no
        field product: entries may share the kept forms, and both are only
        read."""
        alg = self.complex.algebra
        merge, neg, one = alg.merge_words, kernel.cv_neg, alg.field.one.cv
        forms = self._normal_forms.setdefault(degree, {})
        columns = {u: {} for u in words}
        for i, r in enumerate(reps):
            unit = len(r._terms) == 1 and one in r._terms.values()
            prods = {}
            for w, c in r._terms.items():
                for u in words:
                    m = merge(w, u)
                    if m is None:
                        continue
                    v, sign = m
                    if v not in forms:
                        forms[v] = self._normal_form(v, degree)
                    if not unit:
                        prods.setdefault(u, {})[v] = c if sign > 0 else neg(c)
                    elif forms[v]:
                        columns[u][i] = (forms[v] if sign > 0 else
                                         {j: neg(e) for j, e in forms[v].items()})
            for u, prod in prods.items():
                entry = kernel.combine(prod, forms.__getitem__, alg.field)
                if entry:
                    columns[u][i] = entry
        return columns

    def product_rows(self, x: GradedElement, k: int, degree: int) -> list[dict]:
        """The classes in ``degree`` of r * x for the degree-k representatives
        r, none outside 0..top; the degree is explicit as x may be zero.  x is
        engine-built, so a failed check (``_checked_row`` in degree - k) is an
        engine fault.  The rows are one ``kernel.scatter`` of x's coefficients
        over the columns of x's words (``_product_columns``), built the first
        time a call meets the word and kept per ``(k, degree)`` once all are
        built: row i is the sum of entry i of each column times the word's
        coefficient, a fresh dict.  r * x is closed (Leibniz), so a row with a
        remainder puts it outside Z^degree: the direct solve says why, and if
        it passes the two routes disagree."""
        reps = self.representatives(k)
        with engine_built():
            self._checked_row(x, degree - k)
            columns = self._columns.setdefault((k, degree), {})
            new = [u for u in x._terms if u not in columns]
            if new:
                columns.update(self._product_columns(reps, new, degree))
            rows = kernel.scatter(x._terms, columns.__getitem__, len(reps),
                                  self.complex.algebra.field)
            for i, row in enumerate(rows):
                if row and min(row) < 0:
                    self.class_coords(wedge(reps[i], x), degree)
                    raise AssertionError(f"the two routes disagree on {reps[i]} * {x}")
        return rows


@contextmanager
def engine_built(what: str = "element"):
    """Context for checks on data the engine built itself: class solves on
    products of representatives, their images under a map and the
    obstruction's degree-8 element, and the quotient step of a table (B^k
    lies in Z^k since d∘d = 0 is checked).  Such data fail a check only when
    the engine is wrong, so the ``ValueError`` is raised again as
    ``AssertionError``: ``cdga run`` exits 3, not 1."""
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
    if len(volume._terms) != 1:
        raise ValueError("volume must be a single basis word")
    word, = volume._terms
    k = alg.word_degree(word)
    if k != alg.top:
        raise ValueError(f"volume must be of the top degree {alg.top}, got {k}")
    if x.is_zero():
        return alg.field.zero
    if x.degree() != k:
        raise ValueError(f"degree mismatch: expected homogeneous degree {k}")
    return x.coefficient(word) / volume.coefficient(word)
