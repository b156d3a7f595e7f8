"""Non-formality obstructions of triple-Massey type.

Given closed degree-2 elements a, b1, b2, b3 of a complex with each a*b_i
exact, the degree-8 class of

    x1*x2*b3 + x2*x3*b1 + x3*x1*b2,       d(x_i) = a*b_i,

is closed; when H^3 of the complex vanishes it does not depend on any of the
choices, and a nonzero value certifies non-formality.  The module computes the
class with deterministic primitives, and the general triple Massey product with
its indeterminacy.
"""

from __future__ import annotations

from .algebra import GradedElement, PreconditionError, apply_d, wedge
from .field import FieldElement
from .homology import CohomologyClass, CohomologyTable, engine_built, top_scalar
from .linalg import Subspace


class ObstructionInput:
    """The degree-2 inputs alpha and beta_1..beta_3, and the volume form
    that the obstruction's scalar is read against."""

    def __init__(self, alpha: GradedElement, betas: tuple, volume: GradedElement):
        if len(betas) != 3:
            raise ValueError("exactly three beta inputs are required")
        self.alpha = alpha
        self.betas = betas
        self.volume = volume


class ObstructionResult:
    """The primitives x_i, the degree-8 element, its class as a sparse row
    with a representative and its top scalar, and dim H^3."""

    def __init__(self, primitives: tuple, element: GradedElement, class_coords: dict,
                 representative: GradedElement, scalar, h3_dim: int):
        self.primitives = primitives
        self.element = element
        self.class_coords = class_coords
        self.representative = representative
        self.scalar = scalar
        self.h3_dim = h3_dim

    def is_nonzero(self) -> bool:
        return bool(self.class_coords)

    def certifies_nonformality(self) -> bool:
        return self.h3_dim == 0 and self.is_nonzero()


def _require_closed(table: CohomologyTable, x: GradedElement, label: str, degree: int):
    cx = table.complex
    if not x.is_homogeneous(degree):
        raise PreconditionError(f"{label} must be homogeneous of degree {degree}")
    if not x.is_zero() and not cx.contains(x, degree):
        raise PreconditionError(f"{label} does not lie in the working complex")
    dx = apply_d(cx.differential, x)
    if not dx.is_zero():
        raise PreconditionError(f"{label} is not closed", dx)


def obstruction(inp: ObstructionInput, table: CohomologyTable,
                primitives=None) -> ObstructionResult:
    """Compute the obstruction class for validated input data in the complex
    of ``table``.

    By default the primitives are the deterministic pivot solutions inside
    that complex; independence from those choices is a theorem when
    h3_dim = 0 and is exercised by the test suite, not assumed here.  An
    explicit ``primitives`` triple is accepted and validated instead.
    """
    cx = table.complex
    _require_closed(table, inp.alpha, "alpha", 2)
    for i, b in enumerate(inp.betas):
        _require_closed(table, b, f"beta_{i + 1}", 2)

    if primitives is not None:
        primitives = list(primitives)
        if len(primitives) != 3:
            raise PreconditionError("exactly three primitives are required")
        for i, (xi, b) in enumerate(zip(primitives, inp.betas)):
            if not cx.contains(xi, 3):
                raise PreconditionError(
                    f"xi_{i + 1} does not lie in the working complex")
            diff = apply_d(cx.differential, xi) - wedge(inp.alpha, b)
            if not diff.is_zero():
                raise PreconditionError(
                    f"d(xi_{i + 1}) != alpha*beta_{i + 1}", diff)
    else:
        primitives = []
        for i, b in enumerate(inp.betas):
            prod = wedge(inp.alpha, b)
            xi = table.is_exact(prod, degree=4)
            if xi is None:
                row = table.class_coords(prod, 4)
                field = cx.algebra.field
                cls = ", ".join(str(FieldElement(field, row[j])) if j in row else "0"
                                for j in range(table.betti[4]))
                raise PreconditionError(
                    f"alpha*beta_{i + 1} is not exact; its class has coordinates "
                    f"({cls})", prod)
            primitives.append(xi)

    x1, x2, x3 = primitives
    b1, b2, b3 = inp.betas
    element = wedge(wedge(x1, x2), b3) + wedge(wedge(x2, x3), b1) + wedge(wedge(x3, x1), b2)
    residue = apply_d(cx.differential, element)
    if not residue.is_zero():
        raise AssertionError(f"obstruction element failed to close: {residue}")

    top = cx.top
    coords = table.class_coords(element, top)
    rep = CohomologyClass(table, top, coords).representative()
    return ObstructionResult(tuple(primitives), element, coords, rep,
                             top_scalar(rep, inp.volume), table.betti[3])


class MasseyResult:
    """A Massey product's class as a sparse row, its representative and its
    indeterminacy subspace."""

    def __init__(self, class_coords: dict, representative: GradedElement,
                 indeterminacy: Subspace):
        self.class_coords = class_coords
        self.representative = representative
        self.indeterminacy = indeterminacy


def massey_triple(x: CohomologyClass, y: CohomologyClass,
                  z: CohomologyClass) -> MasseyResult:
    """Triple Massey product <x, y, z> with its indeterminacy subspace.

    Requires three classes of one table, x.y = 0 and y.z = 0.  The
    representative is xi*z' - (-1)^|x| x'*zeta with d(xi) = x'*y',
    d(zeta) = y'*z'; the indeterminacy is x.H^(|y|+|z|-1) + H^(|x|+|y|-1).z.
    """
    table = x.table
    if y.table is not table or z.table is not table:
        raise ValueError("classes come from a different table")

    xr, yr, zr = x.representative(), y.representative(), z.representative()
    # every element solved for below is built from representatives
    with engine_built():
        xi = table.is_exact(wedge(xr, yr), x.degree + y.degree)
        zeta = table.is_exact(wedge(yr, zr), y.degree + z.degree)
    if xi is None:
        raise ValueError("x.y != 0: the Massey product is undefined")
    if zeta is None:
        raise ValueError("y.z != 0: the Massey product is undefined")
    rep = wedge(xi, zr)
    cross = wedge(xr, zeta)
    if x.degree % 2:
        rep = rep + cross
    else:
        rep = rep - cross
    out_deg = x.degree + y.degree + z.degree - 1
    with engine_built():
        coords = table.class_coords(rep, out_deg)
    # h*x' is (-1)^(|x||h|) x'*h, a sign that leaves the span unchanged; for
    # <x, y, x> the two row sets are one, and the span keeps one basis
    rows = table.product_rows(xr, y.degree + z.degree - 1, out_deg)
    if z != x:
        rows += table.product_rows(zr, x.degree + y.degree - 1, out_deg)
    indet = Subspace.from_vectors(xr.algebra.field, table.dim(out_deg), rows)
    return MasseyResult(coords, rep, indet)
