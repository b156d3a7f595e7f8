"""Exact sparse linear algebra over a cyclotomic field.

Everything is deterministic: Gauss-Jordan with first-nonzero pivoting (columns
in order; the pivot is the first row at or below the current pivot row with a
nonzero entry in the column), free variables set to zero in particular
solutions.

There is one vector form, the sparse row the arithmetic kernel takes: a dict
``{index: cv}`` of the nonzero entries only, each ``cv`` the canonical integer
tuple of a field value (see ``_kernel_py``).  ``Matrix`` rows, the vectors
given to ``Eliminator`` and ``Subspace``, and every coefficient vector,
remainder and solution they return are such dicts.  ``Matrix`` builds its
dense ``entries`` view only on first use; nothing mutates a matrix's rows
once it is built.

The public entry points (``Matrix(...)``, ``Subspace.from_vectors``,
``reduce``, ``contains`` and ``Eliminator.solve_left``) check every vector
they are given and work on a copy, so a malformed row is rejected with
``ValueError`` and the caller's dict is never changed; ``contains`` is a
``reduce`` that leaves no remainder.  A row the engine has just built and
owns, such as an element's row split into the coordinates of a subspace
complex or a remainder inside ``quotient_basis``, is reduced in place by
``Subspace.reduce_owned``, without a check or a copy; ``quotient_basis``
then puts its remainders in echelon form in place.

Each space is put in echelon form once.  A ``Subspace`` is its reduced
echelon rows with their pivots; an ``Eliminator`` of A keeps the row space
of A as such a ``Subspace`` (``image``), taken from the same elimination of
[A | I] that gives its left kernel, and every solve reduces against it.
``Matrix.rank`` needs no echelon form and eliminates forward only
(``kernel.rank``); it returns only a number, so its pivots follow a guarded
shortest-row rule, while every echelon form keeps first-nonzero pivoting.
"""

from __future__ import annotations

from ._backend import kernel
from .field import CycloField, FieldElement


def _inv_cv(field: CycloField):
    """The inverse of a nonzero cv, kept for the life of the closure (one
    elimination), which meets few distinct pivots."""
    memo: dict = {}

    def inv(cv):
        r = memo.get(cv)
        if r is None:
            r = memo[cv] = FieldElement(field, cv).inverse().cv
        return r
    return inv


def _check_sparse(v, n: int) -> None:
    """Raises ValueError unless v is a sparse row of a space of dimension n:
    a dict holding only nonzero entries at indices below n.  The kernel
    takes a missing key for zero and never looks at a stored one."""
    if not isinstance(v, dict):
        raise ValueError(f"a vector must be a sparse row {{index: cv}}, "
                         f"not a {type(v).__name__}")
    for j, cv in v.items():
        if not (isinstance(j, int) and 0 <= j < n):
            raise ValueError(f"sparse vector has an entry at {j!r} "
                             f"in a space of dimension {n}")
        if kernel.cv_is_zero(cv):
            raise ValueError(f"sparse vector stores a zero at {j}")


def _sparse(v, n: int) -> dict:
    """A checked copy of the sparse row v of a space of dimension n."""
    _check_sparse(v, n)
    return dict(v)


class Matrix:
    """Row-major matrix of field elements over the given sparse rows, which
    it checks and keeps without copying."""

    def __init__(self, field: CycloField, ncols: int, rows):
        self.field = field
        self.sparse_rows = list(rows)
        for row in self.sparse_rows:
            _check_sparse(row, ncols)
        self.nrows = len(self.sparse_rows)
        self.ncols = ncols
        self._entries = None

    @classmethod
    def identity(cls, field: CycloField, n: int) -> "Matrix":
        one = field.one.cv
        return cls(field, n, [{i: one} for i in range(n)])

    @property
    def entries(self) -> tuple[FieldElement, ...]:
        """Dense row-major view of the entries, built on first use."""
        if self._entries is None:
            field, n = self.field, self.ncols
            flat = [field.zero] * (self.nrows * n)
            for i, row in enumerate(self.sparse_rows):
                for j, cv in row.items():
                    flat[i * n + j] = FieldElement(field, cv)
            self._entries = tuple(flat)
        return self._entries

    def rank(self) -> int:
        """Rank, from one forward elimination of copies of the nonempty
        rows: an empty row never enters it."""
        field = self.field
        return kernel.rank([dict(row) for row in self.sparse_rows if row], self.ncols,
                           field, _inv_cv(field))

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        row_of, field = other.sparse_rows.__getitem__, self.field
        return Matrix(field, other.ncols,
                      [kernel.combine(row, row_of, field) for row in self.sparse_rows])

    def power(self, k: int) -> "Matrix":
        """self^k by repeated squaring (``kernel.power``)."""
        if self.nrows != self.ncols:
            raise ValueError("powers need a square matrix")
        return kernel.power(self, k, lambda: Matrix.identity(self.field, self.nrows),
                            Matrix.matmul)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.sparse_rows == other.sparse_rows)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over Q(zeta_{self.field.n}))"


class Eliminator:
    """Row-space machinery for a matrix A: one elimination of [A | I] gives
    the image, the left kernel, and repeated solves of x * A = b.

    ``image`` is the row space of A as a ``Subspace``: its rows are the
    A-parts of the pivot rows, which are already in reduced echelon form.
    ``_e`` holds the I-parts of all rows (E with E * A = R), as sparse rows."""

    def __init__(self, a: Matrix):
        field = a.field
        self.field = field
        self.ncols = n = a.ncols
        self.nrows = a.nrows
        one = field.one.cv
        rows = []
        for i, row in enumerate(a.sparse_rows):
            aug = dict(row)
            aug[n + i] = one
            rows.append(aug)
        self.rank, self.pivots = kernel.rref(
            rows, n + a.nrows, n, field, _inv_cv(field))
        self.image = Subspace(field, n, [{j: cv for j, cv in row.items() if j < n}
                                         for row in rows[:self.rank]], self.pivots)
        self._e = [{j - n: cv for j, cv in row.items() if j >= n}
                   for row in rows]

    def kernel_rows(self) -> list[dict]:
        """Basis of the left kernel {x : x * A = 0}, as sparse rows (shared)."""
        return self._e[self.rank:]

    def solve_left(self, b: dict) -> dict | None:
        """One x with x * A = b, or None; free coefficients are zero."""
        coeffs, rem = self.image.reduce(b)
        if rem:
            return None
        return kernel.combine(coeffs, self._e.__getitem__, self.field)


class Subspace:
    """Subspace of F^n held as reduced echelon sparse rows and their pivot
    columns, both computed once."""

    def __init__(self, field: CycloField, ambient_dim: int, rows: list[dict],
                 pivots: list[int]):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = pivots
        self._pivot_index = {col: i for i, col in enumerate(pivots)}

    @classmethod
    def from_vectors(cls, field: CycloField, ambient_dim: int, vectors) -> "Subspace":
        rows = [_sparse(v, ambient_dim) for v in vectors]
        rank, pivots = kernel.rref(rows, ambient_dim, ambient_dim, field,
                                   _inv_cv(field))
        return cls(field, ambient_dim, rows[:rank], pivots)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: dict) -> tuple[dict, dict]:
        """(coefficients, remainder) of v against the echelon basis."""
        rem = _sparse(v, self.ambient_dim)
        return self.reduce_owned(rem), rem

    def reduce_owned(self, row: dict) -> dict:
        """Coefficients of ``row`` against the echelon basis; ``row`` itself
        becomes the remainder.  Neither checked nor copied: only for a
        well-formed row that the caller has just built and owns."""
        return kernel.reduce_against(row, self.rows, self._pivot_index,
                                     self.ambient_dim, self.field)

    def contains(self, v: dict) -> bool:
        return not self.reduce(v)[1]


def quotient_basis(rows: list[dict], small: Subspace) -> Subspace:
    """Echelon representatives of a complement of ``small`` inside the span
    of ``rows``: linearly independent sparse rows, which are only read.

    Reducing by ``small`` is a linear projection with kernel ``small``, so the
    remainders have rank len(rows) - dim(small) exactly when ``small`` lies in
    the span; otherwise this raises ``ValueError``.
    """
    field, n = small.field, small.ambient_dim
    rems = []
    for row in rows:
        rem = dict(row)
        small.reduce_owned(rem)
        rems.append(rem)
    rank, pivots = kernel.rref(rems, n, n, field, _inv_cv(field))
    if rank != len(rows) - small.dim:
        raise ValueError("small subspace is not contained in the big one")
    return Subspace(field, n, rems[:rank], pivots)
