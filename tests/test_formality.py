import functools
import random

import pytest

from cdgalab import dsl, formality, make_field, wedge
from cdgalab.action import invariant_complex
from cdgalab.algebra import Algebra, Differential, PreconditionError, apply_d
from cdgalab.formality import ObstructionInput, massey_triple, obstruction
from cdgalab.homology import CochainComplex, CohomologyTable
from cdgalab.linalg import Subspace

from conftest import ROOT, complex_basis, densify, obstruction_with

THEOREM_SCALAR = 2  # frozen once under the engine's documented sign convention


def theorem_input(model):
    return ObstructionInput(model.alpha, model.betas, model.volume)


def stated_primitives(model):
    g = model.gens
    return (-(g["theta"] * g["mubar"] * g["nubar"]),
            -(g["theta"] * g["mubar"] * g["etabar"]),
            g["thetabar"] * g["mu"] * g["eta"])


def test_obstruction_on_the_invariant_complex(model):
    res = obstruction(theorem_input(model), model.invariant_table)
    assert res.h3_dim == 0
    assert res.scalar == model.field.rational(THEOREM_SCALAR)
    assert res.certifies_nonformality()
    for xi, beta in zip(res.primitives, model.betas):
        assert apply_d(model.differential, xi) == wedge(model.alpha, beta)
        assert model.invariant.contains(xi, 3)


def test_obstruction_with_stated_primitives(model):
    xs = stated_primitives(model)
    res = obstruction_with(theorem_input(model), model.invariant_table, xs)
    assert res.scalar == model.field.rational(THEOREM_SCALAR)
    assert res.class_coords == obstruction(theorem_input(model),
                                           model.invariant_table).class_coords
    # the first product vanishes identically: both primitives contain theta
    assert wedge(wedge(xs[0], xs[1]), model.betas[2]).is_zero()


def test_zero_alpha_gives_zero_class(model):
    inp = ObstructionInput(model.algebra.zero(), model.betas, model.volume)
    res = obstruction(inp, model.invariant_table)
    assert not res.is_nonzero()
    assert res.scalar.is_zero()


def test_non_closed_input_rejected(model):
    g = model.gens
    bad = ObstructionInput(g["theta"] * g["thetabar"], model.betas, model.volume)
    with pytest.raises(PreconditionError, match="not closed") as info:
        obstruction(bad, model.invariant_table)
    assert info.value.witness == apply_d(model.differential, bad.alpha)


def test_non_exact_product_reported(model):
    g = model.gens
    # eta*etabar is closed and invariant but alpha*(eta*etabar) is a nonzero
    # class in H^4 of the invariant complex
    bad = ObstructionInput(model.alpha, (g["eta"] * g["etabar"],) + model.betas[1:],
                           model.volume)
    with pytest.raises(PreconditionError, match="not exact") as info:
        obstruction(bad, model.invariant_table)
    assert info.value.witness == wedge(model.alpha, g["eta"] * g["etabar"])


# (let, task arguments between the algebra and the volume, diagnostic), read
# off the input checks of ``obstruction``
INPUT_DIAGNOSTICS = [
    ("a2 = alpha + mu", "full a2 beta1 beta2 beta3", "alpha must be homogeneous of degree 2"),
    ("b = mu*nu", "invariant rho alpha beta1 b beta3",
     "beta_2 does not lie in the working complex"),
    ("b = theta*eta", "full alpha b beta2 beta3", "beta_1 is not closed"),
]


@pytest.mark.parametrize("let, args, message", INPUT_DIAGNOSTICS)
def test_obstruction_input_diagnostics(let, args, message):
    """Each input check names the input it refuses, in the task's
    ``obstruction_error`` record on the paper's bindings and in the
    library's ``PreconditionError``; a non-closed input carries its d as
    the witness."""
    text = (ROOT / "paper.cdga").read_text().split("task ")[0]
    session = dsl.parse(f"{text}let {let}\ntask obstruction M {args} vol\n")
    assert dsl.run(session).records == [("obstruction_error", message)]

    def e(name):
        return dsl.eval_expr(name, session)

    mode, *names = args.split()
    cx = (CochainComplex(session.algebras["M"].differential) if mode == "full"
          else invariant_complex(session.maps[names.pop(0)].action))
    alpha, *betas = map(e, names)
    with pytest.raises(PreconditionError) as info:
        obstruction(ObstructionInput(alpha, tuple(betas), e("vol")), CohomologyTable(cx))
    assert str(info.value) == message
    if message.endswith("not closed"):
        assert info.value.witness == apply_d(cx.differential, e(let.split()[0]))
    else:
        assert info.value.witness is None


def _refuses_the_ladder_obstruction(alpha, monkeypatch):
    """The obstruction task on the ladder algebra, of top degree 10, with
    the given alpha fails its precondition (exit 1) with a message that
    names the top degree, in the task record and in the library, before any
    input check or solve."""
    text = (ROOT / "perfbench" / "sessions" / "ladder.cdga").read_text().split("task ")[0]
    session = dsl.parse(text + f"let alpha = {alpha}\nlet b1 = nu*nubar\n"
                        "let b2 = nu*etabar\nlet b3 = nubar*eta\n"
                        "let vol = theta*mu*nu*eta*thetabar*mubar*nubar*etabar*tau*taubar\n"
                        "task obstruction M full alpha b1 b2 b3 vol\n")
    message = "the obstruction needs an algebra of top degree 8, got top degree 10"
    assert dsl.run(session).records == [("obstruction_error", message)]
    e = functools.partial(dsl.eval_expr, session=session)
    table = CohomologyTable(CochainComplex(session.algebras["M"].differential))
    inp = ObstructionInput(e("alpha"), (e("b1"), e("b2"), e("b3")), e("vol"))

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the top degree was checked")

    for name in ("class_coords", "is_exact", "quotient"):
        monkeypatch.setattr(CohomologyTable, name, no_solve)
    monkeypatch.setattr(formality, "apply_d", no_solve)
    with pytest.raises(PreconditionError, match=f"^{message}$") as info:
        obstruction(inp, table)
    assert info.value.witness is None


def test_an_algebra_of_another_top_degree_is_a_failed_precondition(monkeypatch):
    """The degree-8 obstruction class is no top-degree class of the ladder
    algebra, so the top degree is refused first, not the element's degree
    after the input checks and three exactness solves."""
    _refuses_the_ladder_obstruction("mu*mubar", monkeypatch)


def test_a_zero_element_of_another_top_degree_is_a_failed_precondition(monkeypatch):
    """With alpha = 0 the degree-8 element is zero, which once passed as a
    class of the top degree and gave an inconclusive certificate with
    h3_dim = 70 for an algebra that is no 8-manifold; it fails the same
    precondition."""
    _refuses_the_ladder_obstruction("{0}*mu*mubar", monkeypatch)


def test_alpha_representative_shift(model):
    # shifting alpha by d(theta) = mu*nu and the primitives by theta*beta_i
    # reproduces the same class coordinates
    g = model.gens
    base = obstruction_with(theorem_input(model), model.invariant_table,
                            stated_primitives(model))
    f = g["theta"]
    alpha2 = model.alpha + apply_d(model.differential, f)
    xs2 = tuple(xi + wedge(f, b) for xi, b in zip(stated_primitives(model), model.betas))
    # alpha2 and the shifted primitives live in the full complex, not the
    # invariant one (theta is not invariant), so compare there
    table = model.table
    res1 = obstruction_with(ObstructionInput(model.alpha, model.betas, model.volume),
                            table, stated_primitives(model))
    res2 = obstruction_with(ObstructionInput(alpha2, model.betas, model.volume),
                            table, xs2)
    assert res1.class_coords == res2.class_coords
    assert res1.scalar == base.scalar


def test_primitive_shift_by_closed_invariant(model):
    rng = random.Random(51)
    base = obstruction(theorem_input(model), model.invariant_table)
    reps3 = complex_basis(model.invariant, 3)
    closed3 = [e for e in reps3 if apply_d(model.differential, e).is_zero()]
    for _ in range(20):
        coeffs = [rng.randint(-2, 2) for _ in closed3]
        gshift = model.algebra.zero()
        for c, e in zip(coeffs, closed3):
            gshift = gshift + e.scale(c)
        xs = list(base.primitives)
        xs[0] = xs[0] + gshift
        res = obstruction_with(theorem_input(model), model.invariant_table, xs)
        assert res.class_coords == base.class_coords
        assert res.scalar == base.scalar


def test_obstruction_element_is_closed_on_random_valid_inputs(model):
    # valid inputs by construction: alpha in the class of mu*mubar and beta_i
    # in the span of {nu*nubar, nu*etabar, nubar*eta}, all shifted by exact
    # 2-forms, worked in the full complex where exact shifts are nontrivial
    rng = random.Random(52)
    g = model.gens
    table = model.table
    exact2 = (g["mu"] * g["nu"], g["mubar"] * g["nubar"])
    base_betas = model.betas

    def exact_shift():
        acc = model.algebra.zero()
        for e in exact2:
            c = rng.randint(-2, 2)
            if c:
                acc = acc + e.scale(c)
        return acc

    for _ in range(40):
        alpha = model.alpha.scale(rng.randint(1, 3)) + exact_shift()
        betas = []
        for _ in range(3):
            b = model.algebra.zero()
            for e in base_betas:
                c = rng.randint(-2, 2)
                if c:
                    b = b + e.scale(c)
            betas.append(b + exact_shift())
        inp = ObstructionInput(alpha, tuple(betas), model.volume)
        res = obstruction(inp, table)
        assert apply_d(model.differential, res.element).is_zero()


def test_scalar_scales_quadratically_in_alpha(model):
    lam = model.field.rational(3)
    base = obstruction(theorem_input(model), model.invariant_table)
    scaled = obstruction(
        ObstructionInput(model.alpha.scale(lam), model.betas, model.volume),
        model.invariant_table)
    assert scaled.scalar == base.scalar * lam * lam


def _two_loop_indeterminacy(x, y, z):
    """x.H^(|y|+|z|-1) + H^(|x|+|y|-1).z as ``massey_triple`` built it in its
    own two loops, before ``CohomologyTable.product_rows``: the rows x'*h,
    then h*z'."""
    table = x.table
    xr, zr = x.representative(), z.representative()
    out_deg = x.degree + y.degree + z.degree - 1
    rows = [table.class_coords(wedge(xr, h), out_deg)
            for h in table.representatives(y.degree + z.degree - 1)]
    rows += [table.class_coords(wedge(h, zr), out_deg)
             for h in table.representatives(x.degree + y.degree - 1)]
    return Subspace.from_vectors(xr.algebra.field, table.dim(out_deg), rows)


def test_massey_triple_on_heisenberg_algebra(model):
    table = model.table
    a = table.class_of(model.gens["mu"] * model.gens["mubar"], 2)
    b = table.class_of(model.gens["nu"] * model.gens["nubar"], 2)
    res = massey_triple(a, b, a)
    assert all(0 <= j < table.betti[5] for j in res.class_coords)
    assert res.indeterminacy.ambient_dim == table.betti[5]
    old = _two_loop_indeterminacy(a, b, a)
    assert (res.indeterminacy.rows, res.indeterminacy.pivots) == (old.rows, old.pivots)
    assert res.indeterminacy.dim == 4
    # the coset is well defined: shifting the first primitive by any closed
    # degree-3 class moves the value inside the indeterminacy subspace
    rng = random.Random(53)
    xr, yr = a.representative(), b.representative()
    xi = table.is_exact(wedge(xr, yr), 4)
    zeta = table.is_exact(wedge(yr, xr), 4)
    cross = wedge(xr, zeta)
    for _ in range(10):
        shift = model.algebra.zero()
        for r in table.representatives(3):
            c = rng.randint(-1, 1)
            if c:
                shift = shift + r.scale(c)
        # |x| = 2 is even: representative is (xi + shift)*z' - x'*zeta
        rep2 = wedge(xi + shift, xr) - cross
        diff = table.class_coords(rep2 - res.representative, 5)
        assert res.indeterminacy.contains(diff)


def test_massey_reads_a_second_row_set_only_for_a_second_class(model, monkeypatch):
    """<x, y, x> has one indeterminacy row set, read once; for z != x both
    x.H and H.z are read, and the span is the one of the two old loops."""
    table, g = model.table, model.gens
    x = table.class_of(g["mu"] * g["mubar"], 2)
    y = table.class_of(g["nu"] * g["nubar"], 2)
    z = table.class_of(g["nu"] * g["etabar"], 2)
    assert z != x and table.class_of(g["mu"] * g["mubar"], 2) == x
    product_rows, reads = CohomologyTable.product_rows, []

    def counting(self, r, k, degree):
        reads.append(r)
        return product_rows(self, r, k, degree)

    monkeypatch.setattr(CohomologyTable, "product_rows", counting)
    for third, expected in ((x, [x]), (z, [x, z])):
        reads.clear()
        res = massey_triple(x, y, third)
        assert reads == [c.representative() for c in expected]
        old = _two_loop_indeterminacy(x, y, third)
        assert (res.indeterminacy.rows, res.indeterminacy.pivots) == (old.rows, old.pivots)


def test_massey_requires_vanishing_cups(model):
    """The exactness solves of the two products decide the preconditions,
    x.y first: a nonzero cup is a ``ValueError``, not an engine fault."""
    table = model.table
    c = table.class_of(model.gens["mu"] * model.gens["mubar"], 2)
    e = table.class_of(model.gens["eta"] * model.gens["etabar"], 2)
    a = table.class_of(model.gens["nu"] * model.gens["nubar"], 2)
    cr, er, ar = c.representative(), e.representative(), a.representative()
    assert table.class_coords(wedge(cr, er), 4) and not table.class_coords(wedge(cr, ar), 4)
    with pytest.raises(ValueError, match=r"^x\.y != 0: the Massey product is undefined$"):
        massey_triple(c, e, c)
    with pytest.raises(ValueError, match=r"^y\.z != 0: the Massey product is undefined$"):
        massey_triple(a, c, e)
    other = model.invariant_table.class_of(model.gens["mu"] * model.gens["mubar"], 2)
    with pytest.raises(ValueError, match="different table"):
        massey_triple(c, other, c)


def test_massey_on_formal_torus():
    field = make_field(12)
    alg = Algebra(field, [(n, 1) for n in "abce"])
    table = CohomologyTable(CochainComplex(Differential(alg, {})))
    x = table.class_of(alg.generator("a"), 1)
    # a*a = 0 exactly, so <a, a, a> is defined and lands in the zero coset
    res = massey_triple(x, x, x)
    assert all(c.is_zero() for c in res.class_coords)
    # |x| = |h| = 1: the x.H rows come out as h*a, the negatives of the a*h
    # rows, and the reduced echelon rows of the span are the same
    a = x.representative()
    flipped = [h for h in table.representatives(1) if not wedge(h, a).is_zero()]
    assert len(flipped) == 3 and all(wedge(h, a) == -wedge(a, h) for h in flipped)
    old = _two_loop_indeterminacy(x, x, x)
    assert (res.indeterminacy.rows, res.indeterminacy.pivots) == (old.rows, old.pivots)
    assert res.indeterminacy.dim == 3


def test_class_is_choice_dependent_when_h3_is_nonzero(model):
    # in the full complex (h3 = 30) the value is NOT an invariant of the
    # data: a closed shift of one primitive can move the class, so no
    # invariance is asserted there, only well-definedness of each element
    g = model.gens
    betas = (g["mu"] * g["theta"], g["mu"] * g["eta"], g["nu"] * g["etabar"])
    inp = ObstructionInput(model.alpha, betas, model.volume)
    base = obstruction(inp, model.table)
    assert base.h3_dim == 30
    shift = g["nu"] * g["nubar"] * g["thetabar"]
    assert apply_d(model.differential, shift).is_zero()
    prims = (base.primitives[0] + shift,) + base.primitives[1:]
    moved = obstruction_with(inp, model.table, prims)
    assert apply_d(model.differential, moved.element).is_zero()
    assert moved.class_coords != base.class_coords


def test_a_non_exact_product_lists_every_coordinate_of_its_class():
    """The diagnostic for alpha*beta_i not exact names all b_4 coordinates
    of its class in order, zeros included."""
    session = dsl.parse((ROOT / "paper.cdga").read_text())

    def e(text):
        return dsl.eval_expr(text, session)

    table = CohomologyTable(CochainComplex(session.algebras["M"].differential))
    alpha = e("{z}*mu*eta + nu*etabar")
    betas = (e("nu*nubar"), e("{1/2}*mu*etabar - nubar*eta"), e("nu*nubar"))
    with pytest.raises(PreconditionError) as info:
        obstruction(ObstructionInput(alpha, betas, e("vol")), table)
    row = table.class_coords(wedge(alpha, betas[1]), 4)
    coords = ", ".join(str(c) for c in densify(table.complex.algebra.field, row,
                                               table.betti[4]))
    assert str(info.value) == f"alpha*beta_2 is not exact; its class has coordinates ({coords})"
    assert row and len(row) < table.betti[4] == 36
