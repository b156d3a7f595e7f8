"""Linear symplectic checks on a CDGA.

Nondegeneracy is the top-power criterion omega^n != 0 (constant-coefficient
model); the hard-Lefschetz maps are cup products with [omega]^k between the
complementary cohomology degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Conjugation, Differential, GradedElement, apply_d, wedge
from .homology import CohomologyClass, top_scalar
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
    k: int
    source_degree: int
    target_degree: int
    matrix: Matrix
    rank: int
    kernel: Subspace

    @property
    def kernel_dim(self) -> int:
        return self.kernel.dim


def lefschetz(omega_class: CohomologyClass, k: int) -> LefschetzReport:
    """Matrix of cup with [omega]^k from H^(n-k) to H^(n+k) of the table of
    ``omega_class``, with rank and kernel basis in the source representative
    coordinates."""
    table = omega_class.table
    top = table.top
    if top % 2:
        raise ValueError("hard-Lefschetz needs an even top degree")
    n = top // 2
    if k < 0 or k > n:
        raise ValueError(f"k must lie in 0..{n}")
    field = table.complex.algebra.field
    omega = omega_class.representative()
    omega_k = table.complex.algebra.unit()
    for _ in range(k):
        omega_k = wedge(omega_k, omega)
    src, dst = n - k, n + k
    rows = [table.class_row(wedge(r, omega_k), dst)
            for r in table.representatives(src)]
    m = Matrix(field, table.betti[dst], rows)
    el = Eliminator(m)
    kernel = Subspace.from_vectors(field, table.betti[src], el.kernel_rows())
    return LefschetzReport(k, src, dst, m, el.rank, kernel)
