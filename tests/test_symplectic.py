import random
import re
from fractions import Fraction

import pytest

from cdgalab import Matrix, dsl, make_field, symplectic, wedge
from cdgalab.algebra import Algebra, Conjugation, Differential, PreconditionError, apply_d
from cdgalab.homology import CochainComplex, CohomologyTable
from cdgalab.linalg import Eliminator
from cdgalab.symplectic import is_symplectic, lefschetz

from conftest import ROOT, load_workloads


LEF_WITNESS_SIGN = -1  # frozen: omega^2*nu*nubar = d(-2*theta*mubar*etabar*eta*nubar)


def test_standard_omega_is_symplectic(model):
    verdict = is_symplectic(model.omega, 4, model.conjugation, model.differential,
                            model.volume)
    assert verdict.ok
    assert verdict.power_scalar == model.field.rational(24)
    assert verdict.residue_d is None and verdict.residue_conj is None


def test_non_closed_candidate_reports_its_d_residue(model):
    g = model.gens
    verdict = is_symplectic(g["theta"] * g["eta"], 4, model.conjugation,
                            model.differential, model.volume)
    assert not verdict.closed and not verdict.ok
    # d(theta*eta) = d(theta)*eta = mu*nu*eta
    assert verdict.residue_d == g["mu"] * g["nu"] * g["eta"]


def test_degenerate_candidate_fails():
    # omega' = mu*nu has vanishing fourth power
    field = make_field(12)
    alg = Algebra(field, [(n, 1) for n in
                          ("mu", "nu", "theta", "eta", "mubar", "nubar",
                           "thetabar", "etabar")])
    d = Differential(alg, {"theta": alg.generator("mu") * alg.generator("nu"),
                           "thetabar": alg.generator("mubar") * alg.generator("nubar")})
    conj = Conjugation(alg, [("mu", "mubar"), ("nu", "nubar"),
                             ("theta", "thetabar"), ("eta", "etabar")])
    omega = alg.generator("mu") * alg.generator("nu")
    volume = alg.unit()
    for n in ("theta", "mu", "nu", "eta", "thetabar", "mubar", "nubar", "etabar"):
        volume = volume * alg.generator(n)
    verdict = is_symplectic(omega, 4, conj, d, volume)
    assert not verdict.ok
    assert verdict.closed and not verdict.nondegenerate
    assert verdict.power_scalar.is_zero()


def test_non_real_candidate_fails(model):
    g = model.gens
    omega2 = model.omega + g["nu"] * g["eta"]
    verdict = is_symplectic(omega2, 4, model.conjugation, model.differential,
                            model.volume)
    assert verdict.closed
    assert not verdict.real
    assert verdict.residue_conj is not None
    # conj(nu*eta) = nubar*etabar != nu*eta
    assert verdict.residue_conj == g["nubar"] * g["etabar"] - g["nu"] * g["eta"]


def test_lefschetz_failure_on_invariant_complex(model):
    table = model.invariant_table
    om = table.class_of(model.omega, 2)
    rep = lefschetz(om, 2)
    assert rep.source_degree == 2 and rep.target_degree == 6
    assert rep.kernel_dim >= 1
    assert rep.rank < table.betti[2]
    nn = model.gens["nu"] * model.gens["nubar"]
    assert rep.kernel.contains(table.class_coords(nn, 2))


def test_lefschetz_k0_is_identity(model):
    table = model.invariant_table
    om = table.class_of(model.omega, 2)
    rep = lefschetz(om, 0)
    assert rep.rank == table.betti[4]
    assert rep.kernel_dim == 0
    assert rep.matrix == Matrix.identity(model.field, rep.matrix.nrows)


def test_lefschetz_on_torus():
    field = make_field(12)
    alg = Algebra(field, [("x", 1), ("y", 1)])
    table = CohomologyTable(CochainComplex(Differential(alg, {})))
    om = table.class_of(alg.generator("x") * alg.generator("y"), 2)
    rep = lefschetz(om, 1)
    assert rep.source_degree == 0 and rep.target_degree == 2
    assert rep.rank == 1 and rep.kernel_dim == 0  # H^0 -> H^2 isomorphism


def test_liouville_class_nonvanishing(model):
    # [omega]^4 pairs H^0 to a nonzero class in H^8
    table = model.invariant_table
    om = table.class_of(model.omega, 2)
    rep = lefschetz(om, 4)
    assert rep.rank == 1
    assert rep.kernel_dim == 0


def test_lefschetz_matrices_compose(model):
    table = model.invariant_table
    om = table.class_of(model.omega, 2)
    # H^2 --[w]^1--> H^4 --[w]^1--> H^6 equals H^2 --[w]^2--> H^6
    m2 = lefschetz(om, 2).matrix
    # middle step: cup with omega from H^4 to H^6
    f = model.field
    omega_rep = om.representative()
    mid = Matrix(f, table.betti[6], [table.class_coords(wedge(r, omega_rep), 6)
                                     for r in table.representatives(4)])
    first = Matrix(f, table.betti[4], [table.class_coords(wedge(r, omega_rep), 4)
                                       for r in table.representatives(2)])
    assert first.matmul(mid) == m2


def test_exactness_witness_examples(model):
    g = model.gens
    d = model.differential
    lhs = wedge(wedge(model.omega, model.omega), g["nu"] * g["nubar"])
    prim = (g["theta"] * g["mubar"] * g["etabar"] * g["eta"] * g["nubar"]).scale(2)
    plus = (lhs - apply_d(d, prim)).is_zero()
    minus = (lhs - apply_d(d, -prim)).is_zero()
    # exactly one sign matches under the engine's convention
    assert plus != minus
    assert minus if LEF_WITNESS_SIGN < 0 else plus

    assert (g["mu"] * g["nu"] - apply_d(d, g["theta"])).is_zero()
    assert not (g["mu"] * g["eta"] - apply_d(d, g["theta"])).is_zero()


def test_kernel_rank_is_basis_independent(model):
    # rank of the cup-square map does not depend on which cocycle
    # representatives are used for the classes
    rng = random.Random(61)
    table = model.invariant_table
    om = table.class_of(model.omega, 2)
    base_rank = lefschetz(om, 2).rank
    # shift omega by an exact invariant 2-form: none exist, so instead verify
    # stability by recomputing through shifted class descriptions
    for _ in range(5):
        cls = table.class_of(om.representative(), 2)
        assert cls.coords == om.coords
        assert lefschetz(cls, 2).rank == base_rank


@pytest.mark.parametrize("which", ["table", "invariant_table"])
def test_rank_only_path_agrees_with_the_full_elimination(model, which):
    """The report's rank comes from one elimination of the cup matrix and
    its kernel dimension from rank-nullity; both must agree with the [A | I]
    elimination that the kernel basis is built from."""
    table = getattr(model, which)
    om = table.class_of(model.omega, 2)
    n = table.top // 2
    for k in range(n + 1):
        rep = lefschetz(om, k)
        assert rep.rank == Eliminator(rep.matrix).rank
        assert rep.rank + rep.kernel_dim == table.betti[n - k]
        assert rep.kernel.dim == rep.kernel_dim
        m = rep.matrix
        for x in rep.kernel.rows:
            assert Matrix(model.field, m.nrows, [x]).matmul(m).sparse_rows == [{}]


CLOSED_1_FORMS = ("mu", "nu", "eta", "mubar", "nubar", "etabar")


def _non_rational_closed_form(model, rng, nwords=4):
    """A closed 2-form sum (q + c*z^e) * a*b over products of the closed
    1-forms, every coefficient non-rational."""
    f, g = model.field, model.gens
    pairs = [(a, b) for i, a in enumerate(CLOSED_1_FORMS) for b in CLOSED_1_FORMS[i + 1:]]
    form = model.algebra.zero()
    for a, b in rng.sample(pairs, nwords):
        form = form + (g[a] * g[b]).scale(_non_rational_scalar(f, rng))
    return form


def _non_rational_scalar(f, rng):
    """q + c*z^e with q rational, c a nonzero integer and z^e not rational."""
    q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    e = rng.choice([e for e in range(1, f.n) if e != f.n // 2])
    coeff = f.rational(q) + f.zeta(e) * rng.choice((-3, -2, -1, 1, 2, 3))
    assert not coeff.is_rational()
    return coeff


@pytest.mark.parametrize("seed", [5, 17, 29])
def test_galois_conjugate_forms_have_equal_lefschetz_ranks(model, seed):
    """Cup matrices of a form and of its conjugate under z -> z^5 are Galois
    conjugates entrywise, so the exact elimination over Q(zeta_12) must give
    them equal ranks."""
    table = model.table
    form = _non_rational_closed_form(model, random.Random(seed))
    conj = form.algebra.zero()
    for w, c in form.terms.items():
        conj = conj + model.algebra.word_element(w).scale(c.galois(5))
    assert conj != form
    for k in (1, 2):
        ranks = [lefschetz(table.class_of(x, 2), k).rank for x in (form, conj)]
        assert ranks[0] == ranks[1] <= table.betti[4 - k]


def _cup_matrices(table, om):
    """For k = 0..top/2, the report's matrix and the one solved through the
    public element API in a loop of its own: row i is the class of
    r_i * omega^k for the source representatives r_i."""
    omega = om.representative()
    n = table.top // 2
    power = omega.algebra.unit()  # omega^k
    for k in range(n + 1):
        src, dst = n - k, n + k
        rows = [table.class_coords(wedge(r, power), dst)
                for r in table.representatives(src)]
        yield lefschetz(om, k).matrix, Matrix(omega.algebra.field, table.betti[dst], rows)
        power = wedge(power, omega)


@pytest.mark.parametrize("which", ["table", "invariant_table"])
@pytest.mark.parametrize("seed", [3, 11, 23, None])
def test_lefschetz_matrix_is_the_class_coords_of_the_cup_products(model, which, seed):
    """Every entry of the report's matrix, for k = 0..4.  omega is the
    paper's form (seed None) or a seeded combination of the degree-2
    representatives with non-rational coefficients."""
    table = getattr(model, which)
    form = model.omega
    if seed is not None:
        rng = random.Random(seed)
        form = model.algebra.zero()
        for r in table.representatives(2):
            form = form + r.scale(_non_rational_scalar(model.field, rng))
    for reported, solved in _cup_matrices(table, table.class_of(form, 2)):
        assert reported == solved


@pytest.mark.parametrize("name", ["w0", "w1"])
def test_lefschetz_matrix_of_a_scan_form_is_the_class_coords_of_the_cup_products(name):
    session = dsl.parse(load_workloads().scan_session(1))
    table = CohomologyTable(CochainComplex(session.algebras["M"].differential))
    for reported, solved in _cup_matrices(table, table.class_of(session.lets[name], 2)):
        assert reported == solved


def test_a_non_closed_representative_is_an_engine_fault(model, monkeypatch):
    """A Lefschetz row is the class of a product the engine built, so when a
    representative is not closed, the closedness check of its class solve
    reports an engine fault (``AssertionError``), not a failed precondition
    of the caller's input (``PreconditionError``).  The table is fresh: a
    table keeps the products of its representatives with each word it has
    met, so a shared one would not read the patched representative."""
    table = CohomologyTable(model.complex)
    om = table.class_of(model.omega, 2)
    g = model.gens
    bad = g["theta"] * g["eta"] * g["etabar"]  # d(bad) = mu*nu*eta*etabar
    residue = apply_d(model.differential, wedge(bad, om.representative()))
    assert not residue.is_zero()
    representatives = CohomologyTable.representatives

    def patched(self, k):
        reps = representatives(self, k)
        return [bad] + reps[1:] if self is table and k == 3 else reps

    monkeypatch.setattr(CohomologyTable, "representatives", patched)
    with pytest.raises(AssertionError, match="^engine-built element: element is not closed") as info:
        lefschetz(om, 1)
    cause = info.value.__cause__
    assert isinstance(cause, PreconditionError) and cause.witness == residue


def test_lefschetz_refuses_a_class_of_another_degree(model):
    """omega must be a degree-2 class; a zero class of degree 3 is refused
    too, before any product."""
    table = model.table
    for cls in (table.class_of(model.gens["mu"], 1),
                table.class_of(table.representatives(3)[0], 3),
                table.class_of(model.algebra.zero(), 3)):
        with pytest.raises(ValueError, match="omega must be a class of degree 2"):
            lefschetz(cls, 1)


@pytest.mark.parametrize("n, side", [(3, "below"), (5, "above"), (10 ** 9, "above")])
def test_a_power_below_half_the_top_degree_is_refused(model, monkeypatch, n, side):
    """omega^3 never reaches the top degree 8, so n = 3 asks nothing of
    nondegeneracy; omega^5 lies past it and is zero for every 2-form, so
    n = 5 would call the paper's symplectic form degenerate.  Each n other
    than 4 is refused, naming top / 2, before any product, however large."""
    wedges = []

    def counting(x, y):
        wedges.append(None)
        return wedge(x, y)

    monkeypatch.setattr(symplectic, "wedge", counting)
    message = f"omega^{n} lies {side} the top degree 8: the check needs n = top / 2 = 4"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        is_symplectic(model.omega, n, model.conjugation, model.differential, model.volume)
    assert not wedges
    lines = [line for line in (ROOT / "paper.cdga").read_text().splitlines()
             if not line.startswith("task ")]
    report = dsl.run(dsl.parse("\n".join(lines + [f"task symplectic M omega {n} vol", ""])))
    assert report.records == [("symplectic_error", message)]
    assert not wedges


def test_an_odd_top_degree_is_refused():
    """No n has 2n equal to an odd top degree: the check is refused."""
    field = make_field(12)
    alg = Algebra(field, [(n, 1) for n in "xyz"])
    omega = alg.generator("x") * alg.generator("y")
    conj = Conjugation(alg, [(n, n) for n in "xyz"])
    with pytest.raises(ValueError, match="^the symplectic check needs an even top degree$"):
        is_symplectic(omega, 1, conj, Differential(alg, {}), omega * alg.generator("z"))
