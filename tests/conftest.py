import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from cdgalab import _kernel_py, field as field_module
from cdgalab import (Algebra, AlgebraMap, Conjugation, DGA, Differential,
                     GroupAction, make_field)
from cdgalab.algebra import GradedElement, apply_map
from cdgalab.action import invariant_complex, invariant_subspaces
from cdgalab.homology import CochainComplex, cohomology

ROOT = Path(__file__).resolve().parent.parent

GEN_NAMES = ["mu", "nu", "theta", "eta", "mubar", "nubar", "thetabar", "etabar"]


@dataclass
class HeisenbergModel:
    """The Heisenberg-times-line nilmanifold model with its Z3 action."""
    field: object
    algebra: Algebra
    gens: dict
    differential: Differential
    dga: DGA
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
    dga = DGA(algebra, differential)
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
    cx = CochainComplex(dga)
    table = cohomology(cx)
    inv = invariant_complex(dga, action)
    inv_table = cohomology(inv)
    return HeisenbergModel(field, algebra, gens, differential, dga, conjugation,
                      rho, action, omega, alpha, betas, volume, cx, table,
                      inv, inv_table)


@pytest.fixture(scope="session")
def model() -> HeisenbergModel:
    return build_heisenberg_model()


@pytest.fixture(scope="session")
def torus2():
    """Two-generator exterior algebra with zero differential."""
    field = make_field(12)
    algebra = Algebra(field, [("x", 1), ("y", 1)])
    d = Differential(algebra, {})
    return DGA(algebra, d)


def random_field_element(field, rng: random.Random, span: int = 4):
    return field.from_coords([rng.randint(-span, span) for _ in range(field.phi)])


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
    mp.setattr(field_module.CycloField, "_reduction_rows", refuse)
    mp.setattr(field_module.CycloField, "_power_table", refuse)
    mp.setattr(_kernel_py, "straight_line_product", refuse)
    mp.setattr(_kernel_py, "straight_line_map", refuse)


def orbit_average(action, x):
    """(1/m)(x + f(x) + ... + f^(m-1)(x)): the averaging projector on one
    element, composed from single applications of the generator map."""
    acc = y = x
    for _ in range(action.order - 1):
        y = apply_map(action.generator_map, y)
        acc = acc + y
    return acc.scale(Fraction(1, action.order))


def projector_rows(subspaces, algebra):
    """The rows of ``invariant_subspaces`` as elements, per degree: a basis
    of the image of the engine's averaging projector."""
    return [[GradedElement.from_row(algebra, k, row) for row in sub.rows]
            for k, sub in enumerate(subspaces)]


def in_projector_image(subspaces, x):
    """Whether every homogeneous part of x lies in the span of the rows of
    ``invariant_subspaces``."""
    return all(sub.contains(x.homogeneous_part(k).to_row(k))
               for k, sub in enumerate(subspaces))
