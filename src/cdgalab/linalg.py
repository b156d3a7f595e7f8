"""Exact sparse linear algebra over a cyclotomic field.

Everything is deterministic: Gauss-Jordan with first-nonzero pivoting (columns
in order; the pivot is the first row at or below the current pivot row with a
nonzero entry in the column), free variables set to zero in particular
solutions.

Rows are held sparse, as the arithmetic kernel takes them: a row is a dict
``{col: cv}`` of the nonzero entries only, each ``cv`` the canonical integer
tuple of a field value (see ``_kernel_py``).  ``Matrix`` stores its rows this
way and builds its dense ``entries`` view only on first use; nothing mutates
a matrix's rows once it is built.  The vector arguments of ``Eliminator`` and
``Subspace`` may be given dense, as a sequence of scalars, or sparse, as such
a dict; results come back in the form the vector came in (sparse
coefficients are a dict ``{index: cv}`` as well).

Each space is put in echelon form once.  A ``Subspace`` is its reduced
echelon rows with their pivots; an ``Eliminator`` of A keeps the row space
of A as such a ``Subspace`` (``image``), taken from the same elimination of
[A | I] that gives its left kernel, and every solve reduces against it.
"""

from __future__ import annotations

from typing import NamedTuple

from ._backend import kernel
from .field import CycloField, FieldElement


def _inv_cv(field: CycloField):
    def inv(cv):
        return FieldElement(field, cv).inverse().cv
    return inv


def _sparse(field: CycloField, v, n: int) -> tuple[dict, bool]:
    """(a sparse copy of the vector v of length n, whether v was dense).

    A sparse v must hold only nonzero entries at indices below n: the kernel
    takes a missing key for zero and never looks at a stored one."""
    if isinstance(v, dict):
        for j, cv in v.items():
            if not (isinstance(j, int) and 0 <= j < n):
                raise ValueError(f"sparse vector has an entry at {j!r} "
                                 f"in a space of dimension {n}")
            if kernel.cv_is_zero(cv):
                raise ValueError(f"sparse vector stores a zero at {j}")
        return dict(v), False
    if len(v) != n:
        raise ValueError(f"vector of length {len(v)} in a space of dimension {n}")
    element = field.element
    zero = field.zero.cv
    row = {}
    for j, e in enumerate(v):
        cv = element(e).cv
        if cv != zero:
            row[j] = cv
    return row, True


def densify(field: CycloField, row: dict, n: int) -> list[FieldElement]:
    """The sparse row as a dense list of n field elements."""
    out = [field.zero] * n
    for j, cv in row.items():
        out[j] = FieldElement(field, cv)
    return out


def _nonzero(v) -> bool:
    if isinstance(v, dict):
        return bool(v)
    return any(not e.is_zero() for e in v)


class Matrix:
    """Row-major matrix of field elements, held as sparse rows."""

    def __init__(self, field: CycloField, nrows: int, ncols: int, entries):
        entries = list(entries)
        if len(entries) != nrows * ncols:
            raise ValueError("entry count does not match the shape")
        rows = [_sparse(field, entries[i * ncols:(i + 1) * ncols], ncols)[0]
                for i in range(nrows)]
        self._init(field, ncols, rows)

    def _init(self, field: CycloField, ncols: int, rows: list[dict]):
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self.sparse_rows = rows
        self._entries = None

    @classmethod
    def sparse(cls, field: CycloField, ncols: int, rows) -> "Matrix":
        """Matrix over the given sparse rows, which it keeps without copying."""
        m = cls.__new__(cls)
        m._init(field, ncols, list(rows))
        return m

    @classmethod
    def from_rows(cls, field: CycloField, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        return cls.sparse(field, ncols, [_sparse(field, r, ncols)[0] for r in rows])

    @classmethod
    def zero(cls, field: CycloField, nrows: int, ncols: int) -> "Matrix":
        return cls.sparse(field, ncols, [{} for _ in range(nrows)])

    @classmethod
    def identity(cls, field: CycloField, n: int) -> "Matrix":
        one = field.one.cv
        return cls.sparse(field, n, [{i: one} for i in range(n)])

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

    def entry(self, i: int, j: int) -> FieldElement:
        cv = self.sparse_rows[i].get(j)
        return self.field.zero if cv is None else FieldElement(self.field, cv)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        mul = self.field.mul
        out = []
        for row in self.sparse_rows:
            acc: dict = {}
            for k, a in row.items():
                kernel.row_axpy(acc, other.sparse_rows[k], a, mul)
            out.append(acc)
        return Matrix.sparse(self.field, other.ncols, out)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.sparse_rows == other.sparse_rows)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over Q(zeta_{self.field.n}))"


class RrefResult(NamedTuple):
    rank: int
    reduced: Matrix
    pivots: list[int]


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form (Gauss-Jordan, deterministic pivot choice)."""
    field = m.field
    rows = [dict(r) for r in m.sparse_rows]
    rank, pivots = kernel.rref(rows, m.ncols, m.ncols, field.phi, field.mul,
                               _inv_cv(field))
    return RrefResult(rank, Matrix.sparse(field, m.ncols, rows), pivots)


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
            rows, n + a.nrows, n, field.phi, field.mul, _inv_cv(field))
        self.image = Subspace(field, n, [{j: cv for j, cv in row.items() if j < n}
                                         for row in rows[:self.rank]], self.pivots)
        self._e = [{j - n: cv for j, cv in row.items() if j >= n}
                   for row in rows]

    def kernel_rows(self) -> list[dict]:
        """Basis of the left kernel {x : x * A = 0}, as sparse rows (shared)."""
        return self._e[self.rank:]

    def solve_left(self, b):
        """One x with x * A = b, or None; free coefficients are zero."""
        field = self.field
        row, dense = _sparse(field, b, self.ncols)
        coeffs, rem = self.image.reduce(row)
        if rem:
            return None
        x: dict = {}
        for i, c in coeffs.items():
            kernel.row_axpy(x, self._e[i], c, field.mul)
        return densify(field, x, self.nrows) if dense else x


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
        rows = [_sparse(field, v, ambient_dim)[0] for v in vectors]
        rank, pivots = kernel.rref(rows, ambient_dim, ambient_dim, field.phi,
                                   field.mul, _inv_cv(field))
        return cls(field, ambient_dim, rows[:rank], pivots)

    @classmethod
    def full(cls, field: CycloField, ambient_dim: int) -> "Subspace":
        one = field.one.cv
        return cls(field, ambient_dim, [{i: one} for i in range(ambient_dim)],
                   list(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def reduce(self, v):
        """(coefficients, remainder) of v against the echelon basis."""
        field = self.field
        rem, dense = _sparse(field, v, self.ambient_dim)
        coeffs = kernel.reduce_against(rem, self.rows, self._pivot_index,
                                       self.ambient_dim, field.mul)
        if dense:
            return densify(field, coeffs, self.dim), densify(field, rem, self.ambient_dim)
        return coeffs, rem

    def coordinates(self, v):
        if self.is_full():
            row, dense = _sparse(self.field, v, self.ambient_dim)
            return densify(self.field, row, self.ambient_dim) if dense else row
        coeffs, rem = self.reduce(v)
        return None if _nonzero(rem) else coeffs

    def contains(self, v) -> bool:
        return self.coordinates(v) is not None


def quotient_basis(big: Subspace, small: Subspace) -> Subspace:
    """Echelon representatives of a complement of `small` inside `big`.

    Fails loudly when `small` is not contained in `big`.
    """
    if big.ambient_dim != small.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    for row in small.rows:
        if not big.contains(row):
            raise ValueError("small subspace is not contained in the big one")
    rem_rows = []
    for row in big.rows:
        _, rem = small.reduce(row)
        if rem:
            rem_rows.append(rem)
    out = Subspace.from_vectors(big.field, big.ambient_dim, rem_rows)
    if out.dim != big.dim - small.dim:
        raise AssertionError(
            f"quotient has dimension {out.dim}, expected {big.dim} - {small.dim}")
    return out
