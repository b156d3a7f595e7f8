"""Linear symplectic checks on a CDGA.

Nondegeneracy is the top-power criterion omega^n != 0 (constant-coefficient
model); the hard-Lefschetz maps are cup products with [omega]^k between the
complementary cohomology degrees.

A Lefschetz query builds omega^k once, by repeated squaring, and its cup
matrix is ``CohomologyTable.product_rows`` of omega^k: row i is the class of
r_i * omega^k for the source representatives r_i, and all rows are
scattered in one kernel pass from the classes of r_i * u for the words u of
omega^k, which the table keeps from one query to the next, so a scan of
many forms over one table forms each r_i * u once.  The
rank comes from one forward elimination of the cup matrix's own rows
(``Matrix.rank``) and the kernel dimension from rank-nullity.  The kernel
basis needs the left kernel, a Gauss-Jordan elimination of [A | I], and is
built only when ``LefschetzReport.kernel`` is first read.
"""

from __future__ import annotations

from functools import cached_property

from ._backend import kernel
from .algebra import Conjugation, Differential, GradedElement, apply_d, wedge
from .homology import CohomologyClass, top_scalar
from .linalg import Eliminator, Matrix, Subspace


class SymplecticVerdict:
    """Whether omega is closed, real and nondegenerate, the scalar of
    omega^n against the volume, and the nonzero residues d(omega) and
    conj(omega) - omega (None when zero)."""

    def __init__(self, closed: bool, real: bool, nondegenerate: bool, power_scalar,
                 residue_d: GradedElement | None = None,
                 residue_conj: GradedElement | None = None):
        self.closed = closed
        self.real = real
        self.nondegenerate = nondegenerate
        self.power_scalar = power_scalar
        self.residue_d = residue_d
        self.residue_conj = residue_conj

    @property
    def ok(self) -> bool:
        return self.closed and self.real and self.nondegenerate

    def __bool__(self):
        return self.ok


def is_symplectic(omega: GradedElement, n: int, conjugation: Conjugation,
                  d: Differential, volume: GradedElement) -> SymplecticVerdict:
    """d(omega) = 0, conj(omega) = omega and omega^n != 0, all exact.

    Any n other than top / 2 is a ``ValueError``: a lower power asks nothing
    of the top degree, and a higher one lies past it and is always zero, so
    it would call a symplectic form degenerate.  An odd top degree is a
    ``ValueError`` too.  The top-power scalar is reported against ``volume``.
    """
    alg = omega.algebra
    if not omega.is_homogeneous(2):
        raise ValueError("omega must be homogeneous of degree 2")
    if alg.top % 2:
        raise ValueError("the symplectic check needs an even top degree")
    if 2 * n != alg.top:
        side = "below" if 2 * n < alg.top else "above"
        raise ValueError(f"omega^{n} lies {side} the top degree {alg.top}: "
                         f"the check needs n = top / 2 = {alg.top // 2}")
    d_res = apply_d(d, omega)
    conj_res = conjugation(omega) - omega
    power = kernel.power(omega, n, alg.unit, wedge)
    return SymplecticVerdict(
        closed=d_res.is_zero(),
        real=conj_res.is_zero(),
        nondegenerate=not power.is_zero(),
        power_scalar=top_scalar(power, volume),
        residue_d=None if d_res.is_zero() else d_res,
        residue_conj=None if conj_res.is_zero() else conj_res,
    )


class LefschetzReport:
    """Cup with [omega]^k from H^(source) to H^(target): ``matrix`` in the
    representative bases, its ``rank`` and ``kernel_dim``, and ``kernel``,
    the left kernel in the source representative coordinates."""

    def __init__(self, k: int, source_degree: int, target_degree: int, matrix: Matrix,
                 rank: int, kernel_dim: int):
        self.k = k
        self.source_degree = source_degree
        self.target_degree = target_degree
        self.matrix = matrix
        self.rank = rank
        self.kernel_dim = kernel_dim

    @cached_property
    def kernel(self) -> Subspace:
        m = self.matrix
        return Subspace.from_vectors(m.field, m.nrows, Eliminator(m).kernel_rows())


def lefschetz(omega_class: CohomologyClass, k: int) -> LefschetzReport:
    """Matrix of cup with [omega]^k from H^(n-k) to H^(n+k) of the table of
    ``omega_class``, with its rank and kernel dimension."""
    if omega_class.degree != 2:
        raise ValueError("omega must be a class of degree 2")
    table = omega_class.table
    top = table.top
    if top % 2:
        raise ValueError("hard-Lefschetz needs an even top degree")
    n = top // 2
    if k < 0 or k > n:
        raise ValueError(f"k must lie in 0..{n}")
    omega = omega_class.representative()
    omega_k = kernel.power(omega, k, omega.algebra.unit, wedge)
    src, dst = n - k, n + k
    m = Matrix(omega.algebra.field, table.betti[dst], table.product_rows(omega_k, src, dst))
    rank = m.rank()
    return LefschetzReport(k, src, dst, m, rank, m.nrows - rank)
