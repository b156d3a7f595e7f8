"""Linear symplectic checks on a CDGA.

Nondegeneracy is the top-power criterion omega^n != 0 (constant-coefficient
model); the hard-Lefschetz maps are cup products with [omega]^k between the
complementary cohomology degrees.

A Lefschetz query stays in the kernel's forms.  omega^k and each product
r * omega^k of a source representative r are ``{word: cv}`` maps built by
``_product``, and each goes to the class solve as it is, so no element is
boxed.  The rank comes from one forward elimination of the cup matrix's own
rows (``Matrix.rank``) and the kernel dimension from rank-nullity.  The
kernel basis needs the left kernel, a Gauss-Jordan elimination of [A | I],
and is built only when ``LefschetzReport.kernel`` is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import Conjugation, Differential, GradedElement, _product, apply_d, wedge
from .homology import CohomologyClass, engine_built, top_scalar
from .linalg import Eliminator, Matrix, Subspace


@dataclass
class SymplecticVerdict:
    closed: bool
    real: bool
    nondegenerate: bool
    power_scalar: object
    residue_d: GradedElement | None = None
    residue_conj: GradedElement | None = None

    @property
    def ok(self) -> bool:
        return self.closed and self.real and self.nondegenerate

    def __bool__(self):
        return self.ok


def is_symplectic(omega: GradedElement, n: int, conjugation: Conjugation,
                  d: Differential, volume: GradedElement) -> SymplecticVerdict:
    """d(omega) = 0, conj(omega) = omega and omega^n != 0, all exact.

    The top-power scalar is reported against ``volume``.
    """
    alg = omega.algebra
    if not omega.is_zero() and omega.degree() != 2:
        raise ValueError("omega must be homogeneous of degree 2")
    d_res = apply_d(d, omega)
    conj_res = conjugation(omega) - omega
    power = alg.unit()
    for _ in range(n):
        power = wedge(power, omega)
    if power.is_zero():
        scalar = alg.field.zero
    else:
        scalar = top_scalar(power, volume)
    return SymplecticVerdict(
        closed=d_res.is_zero(),
        real=conj_res.is_zero(),
        nondegenerate=not power.is_zero(),
        power_scalar=scalar,
        residue_d=None if d_res.is_zero() else d_res,
        residue_conj=None if conj_res.is_zero() else conj_res,
    )


@dataclass
class LefschetzReport:
    """Cup with [omega]^k from H^(source) to H^(target): ``matrix`` in the
    representative bases, its ``rank`` and ``kernel_dim``, and ``kernel``,
    the left kernel in the source representative coordinates."""
    k: int
    source_degree: int
    target_degree: int
    matrix: Matrix
    rank: int
    kernel_dim: int

    @cached_property
    def kernel(self) -> Subspace:
        m = self.matrix
        return Subspace.from_vectors(m.field, m.nrows, Eliminator(m).kernel_rows())


def lefschetz(omega_class: CohomologyClass, k: int) -> LefschetzReport:
    """Matrix of cup with [omega]^k from H^(n-k) to H^(n+k) of the table of
    ``omega_class``, with its rank and kernel dimension."""
    table = omega_class.table
    top = table.top
    if top % 2:
        raise ValueError("hard-Lefschetz needs an even top degree")
    n = top // 2
    if k < 0 or k > n:
        raise ValueError(f"k must lie in 0..{n}")
    alg = table.complex.algebra
    omega = omega_class.terms()
    omega_k = {(): alg.field.one.cv}
    for _ in range(k):
        omega_k = _product(alg, omega_k, omega)
    src, dst = n - k, n + k
    with engine_built():
        rows = [table._class_row(_product(alg, r, omega_k), dst)
                for r in table.representative_terms(src)]
    m = Matrix(alg.field, table.betti[dst], rows)
    rank = m.rank()
    return LefschetzReport(k, src, dst, m, rank, m.nrows - rank)
