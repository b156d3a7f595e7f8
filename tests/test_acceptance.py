"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear; every tolerance is exact equality (the engine has no floats).
"""

import functools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cdgalab import Matrix, Subspace, dsl, wedge
from cdgalab.algebra import apply_d, apply_map
from cdgalab.action import induced_action_fixed_dims, invariant_subspaces
from cdgalab.formality import ObstructionInput, obstruction
from cdgalab.linalg import Eliminator
from cdgalab.symplectic import is_symplectic, lefschetz
from cdgalab.topology import BettiVector, IncidenceGraph, betti_p1_bundle, \
    betti_projective, betti_resolution, betti_union

from conftest import ROOT, complex_basis, densify, in_projector_image, orbit_average, \
    projector_rows, random_element, random_field_element, random_homogeneous, \
    refuse_to_build_fields, sparse_row, times
from test_dsl import EXPECTED_DIAGNOSTICS, FIXTURES, REFUSED_CONDUCTORS
from test_homology import w_elements


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {title}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {title}")
        return wrapper
    return deco


@criterion(1, "Nomizu cohomology of the nilmanifold")
def test_criterion_1_nomizu_cohomology(model):
    b = model.table.betti
    assert b[0] == 1 and b[1] == 6 and b[3] == 30
    assert all(b[k] == b[8 - k] for k in range(9))
    classes = w_elements(model)
    classes += [model.conjugation(e) for e in classes]
    rows = []
    for e in classes:
        assert apply_d(model.differential, e).is_zero()
        rows.append(model.table.class_coords(e, 3))
    assert Subspace.from_vectors(model.field, b[3], rows).dim == 30


@criterion(2, "invariant cohomology, two independent computations")
def test_criterion_2_invariant_cohomology(model):
    betti = model.invariant_table.betti
    assert betti[1] == 0
    assert betti[3] == 0
    fixed = induced_action_fixed_dims(model.table, model.action)
    assert fixed == betti  # equal in every degree 0..8


@criterion(3, "symplectic checks are exact")
def test_criterion_3_symplectic(model):
    verdict = is_symplectic(model.omega, 4, model.conjugation, model.differential,
                            model.volume)
    assert verdict.closed and verdict.real and verdict.nondegenerate
    assert verdict.power_scalar == model.field.rational(24)
    assert apply_map(model.rho, model.omega) == model.omega


@criterion(4, "non-formality certificate equals 2 * volume")
def test_criterion_4_obstruction(model):
    two = model.field.rational(2)
    inp = ObstructionInput(model.alpha, model.betas, model.volume)
    engine = obstruction(inp, model.invariant_table)
    assert engine.scalar == two  # sign frozen by the merge convention
    assert engine.h3_dim == 0
    g = model.gens
    stated = (-(g["theta"] * g["mubar"] * g["nubar"]),
              -(g["theta"] * g["mubar"] * g["etabar"]),
              g["thetabar"] * g["mu"] * g["eta"])
    named = obstruction(inp, model.invariant_table, primitives=stated)
    assert named.scalar == two
    assert named.class_coords == engine.class_coords
    assert wedge(wedge(stated[0], stated[1]), model.betas[2]).is_zero()


@criterion(5, "100 randomized perturbations leave the class bit-identical")
def test_criterion_5_independence_suite(model):
    rng = random.Random(55)
    g = model.gens
    inp = ObstructionInput(model.alpha, model.betas, model.volume)
    base_inv = obstruction(inp, model.invariant_table)
    assert base_inv.h3_dim == 0
    base_full = obstruction(inp, model.table, primitives=base_inv.primitives)
    closed_inv3 = [e for e in complex_basis(model.invariant, 3)
                   if apply_d(model.differential, e).is_zero()]
    one_forms = [g[n] for n in ("mu", "nu", "theta", "eta",
                                "mubar", "nubar", "thetabar", "etabar")]

    def random_one_form():
        acc = model.algebra.zero()
        for e in one_forms:
            c = rng.randint(-2, 2)
            if c:
                acc = acc + e.scale(c)
        return acc

    for trial in range(100):
        kind = trial % 3
        if kind == 0:
            # alpha -> alpha + d(f), primitives compensated by f * beta_i
            f = random_one_form()
            alpha2 = model.alpha + apply_d(model.differential, f)
            prims = tuple(xi + wedge(f, b)
                          for xi, b in zip(base_inv.primitives, model.betas))
            res = obstruction(
                ObstructionInput(alpha2, model.betas, model.volume),
                model.table, primitives=prims)
            assert res.class_coords == base_full.class_coords
            assert res.scalar == base_full.scalar
        elif kind == 1:
            # beta_i -> beta_i + d(f), its primitive compensated by alpha * f
            f = random_one_form()
            i = rng.randrange(3)
            betas = list(model.betas)
            betas[i] = betas[i] + apply_d(model.differential, f)
            prims = list(base_inv.primitives)
            prims[i] = prims[i] + wedge(model.alpha, f)
            res = obstruction(
                ObstructionInput(model.alpha, tuple(betas), model.volume),
                model.table, primitives=tuple(prims))
            assert res.class_coords == base_full.class_coords
            assert res.scalar == base_full.scalar
        else:
            # xi_i -> xi_i + g for random closed invariant g; h3_dim = 0
            shift = model.algebra.zero()
            for e in closed_inv3:
                c = rng.randint(-2, 2)
                if c:
                    shift = shift + e.scale(c)
            prims = list(base_inv.primitives)
            prims[rng.randrange(3)] += shift
            res = obstruction(inp, model.invariant_table,
                              primitives=tuple(prims))
            assert res.class_coords == base_inv.class_coords
            assert res.scalar == base_inv.scalar


@criterion(6, "hard-Lefschetz failure with exact witness")
def test_criterion_6_hard_lefschetz(model):
    table = model.invariant_table
    om = table.class_of(model.omega, 2)
    rep = lefschetz(om, 2)
    assert rep.kernel_dim >= 1
    nn = model.gens["nu"] * model.gens["nubar"]
    assert rep.kernel.contains(table.class_coords(nn, 2))
    lhs = wedge(wedge(model.omega, model.omega), nn)
    g = model.gens
    prim = (g["theta"] * g["mubar"] * g["etabar"] * g["eta"] * g["nubar"]).scale(2)
    plus = (lhs - apply_d(model.differential, prim)).is_zero()
    minus = (lhs - apply_d(model.differential, -prim)).is_zero()
    assert plus != minus  # exactly one sign under the fixed convention
    assert minus          # frozen: the negative primitive


@criterion(7, "resolution Betti bookkeeping")
def test_criterion_7_resolution(model):
    p2 = betti_projective(2)
    bundle = betti_p1_bundle(p2)
    graph = IncidenceGraph([betti_projective(3), bundle, bundle],
                           [(0, 2, p2), (1, 2, p2)])
    e = betti_union(graph)
    assert tuple(e) == (1, 0, 3, 0, 3, 0, 3)
    assert e[3] == 0
    chi = sum(n.euler() for n in graph.nodes) - sum(
        ed.intersection.euler() for ed in graph.edges)
    assert e.euler() == chi
    bhat = BettiVector(tuple(model.invariant_table.betti))
    for s in range(9):
        v = betti_resolution(bhat, e, s)
        assert v[1] == v[3] == v[5] == v[7] == 0


@criterion(8, "algebraic property suites, >= 1000 randomized cases each")
def test_criterion_8_property_suites(model):
    N = 1000
    alg = model.algebra
    d = model.differential
    f12 = model.field

    rng = random.Random(801)
    for _ in range(N):  # d*d = 0 on random elements
        x = random_element(alg, rng, nterms=3, span=2)
        assert apply_d(d, apply_d(d, x)).is_zero()

    rng = random.Random(802)
    for _ in range(N):  # graded Leibniz
        p = rng.randint(0, 5)
        x = random_homogeneous(alg, p, rng, nterms=2, span=2)
        y = random_element(alg, rng, nterms=2, span=2)
        sign = -1 if p % 2 else 1
        assert apply_d(d, wedge(x, y)) == \
            wedge(apply_d(d, x), y) + wedge(x, apply_d(d, y)).scale(sign)

    rng = random.Random(803)
    for _ in range(N):  # graded commutativity
        p, q = rng.randint(0, 4), rng.randint(0, 4)
        x = random_homogeneous(alg, p, rng, nterms=2, span=2)
        y = random_homogeneous(alg, q, rng, nterms=2, span=2)
        sign = -1 if (p * q) % 2 else 1
        assert wedge(x, y) == wedge(y, x).scale(sign)

    rng = random.Random(804)
    for _ in range(N):  # associativity
        x = random_element(alg, rng, nterms=2, span=2)
        y = random_element(alg, rng, nterms=2, span=2)
        z = random_element(alg, rng, nterms=2, span=2)
        assert wedge(wedge(x, y), z) == wedge(x, wedge(y, z))

    rng = random.Random(805)
    rho3 = model.rho.power(3)
    for _ in range(N):  # chain map and order 3 of rho
        x = random_element(alg, rng, nterms=3, span=2)
        assert apply_map(model.rho, apply_d(d, x)) == apply_d(d, apply_map(model.rho, x))
        assert apply_map(rho3, x) == x

    rng = random.Random(806)
    act = model.action
    subs = invariant_subspaces(act)
    for rows in projector_rows(subs, alg):  # projector idempotence
        for r in rows:
            assert orbit_average(act, r) == r
    for _ in range(N):
        x = random_element(alg, rng, nterms=2, span=2)
        p = orbit_average(act, x)
        assert in_projector_image(subs, p)
        assert orbit_average(act, p) == p

    rng = random.Random(807)
    for _ in range(N):  # field axioms
        a = random_field_element(f12, rng)
        b = random_field_element(f12, rng)
        c = random_field_element(f12, rng)
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == f12.one

    rng = random.Random(808)
    for _ in range(N):  # rank-nullity on rows
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = Matrix(f12, nc, [sparse_row([random_field_element(f12, rng, span=2)
                                         if rng.random() < 0.6 else f12.zero
                                         for _ in range(nc)]) for _ in range(nr)])
        rank = Subspace.from_vectors(f12, nc, m.sparse_rows).dim
        assert m.nrows == rank + len(Eliminator(m).kernel_rows())

    rng = random.Random(809)
    solved = 0
    for _ in range(N):  # solve-residual exactness, x * A = b
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = Matrix(f12, nc, [sparse_row([random_field_element(f12, rng, span=2)
                                         if rng.random() < 0.6 else f12.zero
                                         for _ in range(nc)]) for _ in range(nr)])
        if rng.random() < 0.6:
            x0 = [random_field_element(f12, rng, span=2) for _ in range(nr)]
            b = times(f12, x0, m)
        else:
            b = [random_field_element(f12, rng, span=2) for _ in range(nc)]
        x = Eliminator(m).solve_left(sparse_row(b))
        if x is not None:
            solved += 1
            x = densify(f12, x, nr)
            assert times(f12, x, m) == b
    assert solved >= N // 3


@criterion(9, "toolchain: golden report and positioned diagnostics")
def test_criterion_9_toolchain(tmp_path, monkeypatch):
    session = ROOT / "paper.cdga"
    golden = Path(__file__).parent / "golden" / "paper.report"
    out = tmp_path / "report.txt"
    r = subprocess.run([sys.executable, "-m", "cdgalab", "run", str(session),
                        "--report", str(out)], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert r.returncode == 0
    assert out.read_bytes() == golden.read_bytes()
    assert len(EXPECTED_DIAGNOSTICS) == 16
    for name, line, col, message in EXPECTED_DIAGNOSTICS:
        with monkeypatch.context() as mp, pytest.raises(dsl.DslError) as err:
            if name in REFUSED_CONDUCTORS:
                refuse_to_build_fields(mp)
            dsl.parse((FIXTURES / name).read_text(encoding="utf-8"))
        diag = err.value.diagnostic
        assert (diag.line, diag.col, diag.message) == (line, col, message)
