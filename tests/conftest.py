import importlib.util
import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from cdgalab import _kernel_py, field as field_module
from cdgalab import (Algebra, AlgebraMap, Conjugation, Differential,
                     GroupAction, make_field)
from cdgalab.algebra import GradedElement, apply_d, apply_map, wedge
from cdgalab.action import invariant_complex
from cdgalab.formality import ObstructionResult
from cdgalab.homology import CochainComplex, CohomologyClass, CohomologyTable, top_scalar

ROOT = Path(__file__).resolve().parent.parent

GEN_NAMES = ["mu", "nu", "theta", "eta", "mubar", "nubar", "thetabar", "etabar"]


def load_workloads():
    """The benchmark's session generators, ``perfbench/workloads.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@dataclass
class HeisenbergModel:
    """The Heisenberg-times-line nilmanifold model with its Z3 action."""
    field: object
    algebra: Algebra
    gens: dict
    differential: Differential
    conjugation: Conjugation
    rho: AlgebraMap
    action: GroupAction
    omega: GradedElement
    alpha: GradedElement
    betas: tuple
    volume: GradedElement
    complex: CochainComplex
    table: object
    invariant: CochainComplex
    invariant_table: object


def build_heisenberg_model() -> HeisenbergModel:
    field = make_field(12)
    algebra = Algebra(field, [(n, 1) for n in GEN_NAMES])
    gens = {n: algebra.generator(n) for n in GEN_NAMES}
    differential = Differential(algebra, {
        "theta": gens["mu"] * gens["nu"],
        "thetabar": gens["mubar"] * gens["nubar"],
    })
    conjugation = Conjugation(algebra, [("mu", "mubar"), ("nu", "nubar"),
                                        ("theta", "thetabar"), ("eta", "etabar")])
    z = field.zeta(4)
    z2 = z * z
    weights = {"mu": z, "nu": z, "theta": z2, "eta": z,
               "mubar": z2, "nubar": z2, "thetabar": z, "etabar": z2}
    rho = AlgebraMap(algebra, algebra,
                     {n: gens[n].scale(w) for n, w in weights.items()})
    action = GroupAction(rho, 3, differential)
    i = field.imaginary_unit()
    omega = (gens["mu"] * gens["mubar"]).scale(i) + gens["nu"] * gens["theta"] \
        + gens["nubar"] * gens["thetabar"] + (gens["eta"] * gens["etabar"]).scale(i)
    alpha = gens["mu"] * gens["mubar"]
    betas = (gens["nu"] * gens["nubar"],
             gens["nu"] * gens["etabar"],
             gens["nubar"] * gens["eta"])
    volume = gens["theta"] * gens["mu"] * gens["nu"] * gens["eta"] \
        * gens["thetabar"] * gens["mubar"] * gens["nubar"] * gens["etabar"]
    cx = CochainComplex(differential)
    table = CohomologyTable(cx)
    inv = invariant_complex(action)
    inv_table = CohomologyTable(inv)
    return HeisenbergModel(field, algebra, gens, differential, conjugation,
                      rho, action, omega, alpha, betas, volume, cx, table,
                      inv, inv_table)


@pytest.fixture(scope="session")
def model() -> HeisenbergModel:
    return build_heisenberg_model()


# Even generators x and y next to odd ones, truncation above degree 10, a
# nonzero d on an odd and on an even generator, and an order-3 diagonal map
# f (zeta = z^4) that commutes with d.  The lets are closed and not, exact
# and not, and one is not homogeneous.
EVEN_SESSION = """\
field cyclotomic 12
algebra E generators a:1 b:1 x:2 c:3 y:2 top 10
conjugation a b x y c c
d b = x
d y = a*x
d c = x*x
map f order 3 { a -> {z^4}*a ; b -> {z^4}*b ; x -> {z^4}*x ; c -> {z^8}*c ; y -> {z^8}*y }
let ax = a*x
let xx = x*x
let ab = a*b
let ay = a*y
let w = {z}*(a*b + y)
let vol = a*b*x*x*y*y
let mixed = a + x
"""


@pytest.fixture(scope="session")
def torus2():
    """Two-generator exterior algebra with zero differential."""
    field = make_field(12)
    algebra = Algebra(field, [("x", 1), ("y", 1)])
    return Differential(algebra, {})


def random_field_element(field, rng: random.Random, span: int = 4):
    coords = [rng.randint(-span, span) for _ in range(field.phi)]
    return sum((field.zeta(j) * c for j, c in enumerate(coords)), field.zero)


def sparse_row(v) -> dict:
    """Dense test data, a sequence of field elements, as the sparse row
    ``{index: cv}`` that ``linalg`` takes."""
    return {j: e.cv for j, e in enumerate(v) if not e.is_zero()}


def densify(field, row: dict, n: int) -> list:
    """The sparse row ``{index: cv}`` as a dense list of n field elements,
    for comparison with dense test data."""
    out = [field.zero] * n
    for j, cv in row.items():
        out[j] = field_module.FieldElement(field, cv)
    return out


def times(field, x, m) -> list:
    """The product x * A of the dense row x of field elements and the
    Matrix A, summed over the rows ``A.sparse_rows``."""
    out = [field.zero] * m.ncols
    for xi, row in zip(x, m.sparse_rows):
        for j, cv in row.items():
            out[j] = out[j] + xi * field_module.FieldElement(field, cv)
    return out


def complex_basis(cx, k: int) -> list:
    """The degree-k basis of the cochain complex cx as elements, each read
    by ``from_row`` from a unit row."""
    one = cx.algebra.field.one.cv
    return [cx.from_row(k, {i: one}) for i in range(cx.dim(k))]


def letters(algebra, word: int) -> tuple:
    """The sorted generator indices of a basis word, read through the
    algebra's one decoder: ``format_word`` names its generators in
    declaration order, and each name is looked up.  The sum of their
    generator words must give the word back."""
    names = algebra.format_word(word)
    out = tuple(algebra.generator_index(n) for n in names.split("*")) if names else ()
    assert word_of(algebra, out) == word, word
    return out


def word_of(algebra, seq) -> int:
    """The int word of a sorted sequence of generator indices: the sum of
    their generator words, which is a basis word only when the sequence is
    one (an odd generator repeated carries into the next field)."""
    return sum(algebra.generator_word(g) for g in seq)


def random_homogeneous(algebra, degree: int, rng: random.Random, nterms: int = 3,
                       span: int = 3):
    words = algebra.basis(degree)
    terms = {}
    for w in rng.sample(words, k=min(nterms, len(words))):
        c = random_field_element(algebra.field, rng, span)
        if not c.is_zero():
            terms[w] = c
    return GradedElement(algebra, terms)


def random_element(algebra, rng: random.Random, nterms: int = 4, span: int = 3):
    terms = {}
    for _ in range(nterms):
        k = rng.randint(0, algebra.top)
        words = algebra.basis(k)
        w = rng.choice(words)
        c = random_field_element(algebra.field, rng, span)
        if not c.is_zero():
            terms[w] = c
    return GradedElement(algebra, terms)


def refuse_to_build_fields(mp: pytest.MonkeyPatch) -> None:
    """Make each step that builds a field raise, so that a session whose
    conductor should be refused fails the test instead of allocating."""
    def refuse(*args, **kwargs):
        raise RuntimeError("a field was built before its conductor was checked")

    mp.setattr(field_module, "cyclotomic_polynomial", refuse)
    mp.setattr(field_module.CycloField, "_power_table", refuse)
    mp.setattr(_kernel_py, "straight_line_product", refuse)
    mp.setattr(_kernel_py, "straight_line_fused", refuse)
    mp.setattr(_kernel_py, "straight_line_map", refuse)


def obstruction_with(inp, table, primitives) -> ObstructionResult:
    """The obstruction of ``inp`` for the given primitives x_i, the tests'
    oracle for its choice-independence: checks that each x_i lies in the
    complex of ``table`` with d(x_i) = alpha*beta_i, builds
    x1*x2*b3 + x2*x3*b1 + x3*x1*b2 and solves its class."""
    cx = table.complex
    for xi, b in zip(primitives, inp.betas, strict=True):
        assert cx.contains(xi, 3)
        assert apply_d(cx.differential, xi) == wedge(inp.alpha, b)
    x1, x2, x3 = primitives
    b1, b2, b3 = inp.betas
    element = x1 * x2 * b3 + x2 * x3 * b1 + x3 * x1 * b2
    coords = table.class_coords(element, table.top)
    rep = CohomologyClass(table, table.top, coords).representative()
    return ObstructionResult(tuple(primitives), element, coords, rep,
                             top_scalar(rep, inp.volume), table.betti[3])


def orbit_average(action, x):
    """(1/m)(x + f(x) + ... + f^(m-1)(x)): the tests' averaging oracle on
    one element, composed from single applications of the generator map."""
    acc = y = x
    for _ in range(action.order - 1):
        y = apply_map(action.generator_map, y)
        acc = acc + y
    return acc.scale(Fraction(1, action.order))


def projector_rows(subspaces, algebra):
    """The rows of ``invariant_subspaces`` as elements, per degree: a basis
    of the subspace the engine finds fixed, which the tests hold against the
    image of the averaging oracle ``orbit_average``."""
    field = algebra.field
    return [[GradedElement(algebra, {algebra.basis(k)[j]: field_module.FieldElement(field, cv)
                                     for j, cv in row.items()})
             for row in sub.rows]
            for k, sub in enumerate(subspaces)]


def in_projector_image(subspaces, x):
    """Whether every homogeneous part of x lies in the span of the rows of
    ``invariant_subspaces``."""
    alg = x.algebra
    rows = [{} for _ in subspaces]
    for w, c in x.terms.items():
        k = alg.word_degree(w)
        rows[k][alg.word_index(w)] = c.cv
    return all(sub.contains(row) for sub, row in zip(subspaces, rows))


@contextmanager
def counting_row_work():
    """Counts, while the block runs, the calls of ``kernel.row_axpy``, the
    source-row entries they pass (``entries``) and the calls of
    ``FieldElement.inverse``.  The engine reaches both at call time, so the
    counts cover every caller, ``kernel.rank`` and ``kernel.combine``
    alike.  They are exact: the arithmetic is deterministic."""
    counts = {"row_axpy": 0, "entries": 0, "inverses": 0}
    row_axpy, inverse = _kernel_py.row_axpy, field_module.FieldElement.inverse

    def counted_row_axpy(target, src, c, field):
        counts["row_axpy"] += 1
        counts["entries"] += len(src)
        return row_axpy(target, src, c, field)

    def counted_inverse(self):
        counts["inverses"] += 1
        return inverse(self)

    _kernel_py.row_axpy = counted_row_axpy
    field_module.FieldElement.inverse = counted_inverse
    try:
        yield counts
    finally:
        _kernel_py.row_axpy = row_axpy
        field_module.FieldElement.inverse = inverse
