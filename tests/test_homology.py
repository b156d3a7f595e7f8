import copy
import random
import sys

import pytest

from cdgalab import AlgebraMap, GroupAction, Matrix, dsl, homology, make_field, top_scalar, wedge
from cdgalab._backend import kernel
from cdgalab.action import invariant_complex
from cdgalab.algebra import (Algebra, Differential, GradedElement, PreconditionError, _element,
                             apply_d)
from cdgalab.homology import CochainComplex, CohomologyTable
from cdgalab.linalg import Eliminator, Subspace
from cdgalab.symplectic import lefschetz
from cdgalab.topology import BettiVector

from conftest import (EVEN_SESSION, GEN_NAMES, ROOT, complex_basis, load_workloads,
                      random_field_element, random_homogeneous)

# degree-3 classes spanning half of H^3; the other half is their conjugate
W_WORDS = [
    ("mu", "mubar", "eta"), ("nu", "nubar", "eta"), ("mu", "nubar", "eta"),
    ("mubar", "nu", "eta"), ("mu", "eta", "etabar"), ("nu", "eta", "etabar"),
    ("mu", "nu", "theta"), ("mu", "nubar", "thetabar"), ("mubar", "nu", "thetabar"),
    ("mu", "mubar", "thetabar"), ("nu", "nubar", "thetabar"),
    ("mu", "eta", "theta"), ("nu", "eta", "theta"),
    ("mubar", "eta", "thetabar"), ("nubar", "eta", "thetabar"),
]


def w_elements(model):
    g = model.gens
    out = []
    for names in W_WORDS:
        e = g[names[0]]
        for n in names[1:]:
            e = e * g[n]
        out.append(e)
    return out


def test_betti_numbers(model):
    assert model.table.betti == [1, 6, 17, 30, 36, 30, 17, 6, 1]


def test_euler_characteristic_vanishes(model):
    assert BettiVector(model.table.betti).euler() == 0


def test_poincare_duality_at_betti_level(model):
    b = model.table.betti
    assert all(b[k] == b[8 - k] for k in range(9))


def test_listed_degree_three_classes_span(model):
    table = model.table
    classes = w_elements(model)
    classes += [model.conjugation(e) for e in classes]
    assert len(classes) == 30
    rows = []
    for e in classes:
        assert apply_d(model.differential, e).is_zero()
        rows.append(table.class_coords(e, 3))
    # independent mod exact and spanning H^3
    assert Subspace.from_vectors(model.field, table.betti[3], rows).dim == 30


def test_torus_betti(torus2):
    assert CohomologyTable(CochainComplex(torus2)).betti == [1, 2, 1]


def test_representatives_are_closed_and_unit_coordinates(model):
    table = model.table
    for k in range(9):
        reps = table.representatives(k)
        assert len(reps) == table.betti[k]
        for j, r in enumerate(reps):
            assert apply_d(model.differential, r).is_zero()
            assert table.class_coords(r, k) == {j: model.field.one.cv}


def test_is_exact_examples(model):
    g = model.gens
    table = model.table
    d = model.differential

    x = g["mu"] * g["mubar"] * g["nu"] * g["nubar"]
    xi = table.is_exact(x, 4)
    assert xi is not None
    assert apply_d(d, xi) == x
    # one valid primitive is -theta*mubar*nubar up to closed corrections
    assert apply_d(d, -(g["theta"] * g["mubar"] * g["nubar"])) == x

    xi2 = table.is_exact(g["mu"] * g["nu"], 2)
    assert xi2 is not None and apply_d(d, xi2) == g["mu"] * g["nu"]

    assert table.is_exact(g["mu"] * g["eta"], 2) is None

    # H^0 is spanned by the unit, which nothing of degree -1 bounds; zero is
    # exact, with the zero primitive
    alg = model.algebra
    for t in (table, model.invariant_table):
        assert t.is_exact(alg.unit(), 0) is None
        assert t.is_exact(alg.zero(), 0) == alg.zero()


def test_class_coords_of_zero(model):
    assert model.table.class_coords(model.algebra.zero(), 3) == {}


def test_class_coords_rejects_non_closed(model):
    with pytest.raises(PreconditionError, match="not closed") as info:
        model.table.class_coords(model.gens["theta"], 1)
    assert info.value.witness == model.gens["mu"] * model.gens["nu"]


@pytest.mark.parametrize("which", ["twin", "wider"])
def test_elements_of_another_algebra_are_refused(model, which):
    """An element of another algebra is refused before its words are read:
    a twin algebra's words are valid indices here and would be read as
    another element, a wider algebra's would fall outside the generators."""
    names = GEN_NAMES if which == "twin" else GEN_NAMES + ["xi"]
    other = Algebra(model.field, [(n, 1) for n in names])
    g = {n: other.generator(n) for n in names}
    samples = [other.zero(), g["mu"] * g["mubar"], g[names[-1]] * g["mu"]]
    for table in (model.table, model.invariant_table):
        for x in samples:
            for solve in (table.class_coords, table.class_of,
                          table.is_exact, table.complex.to_row):
                with pytest.raises(ValueError, match="^algebra mismatch$"):
                    solve(x, 2)
            assert not table.complex.contains(x, 2)


def product_class(c1, c2):
    """The class of the product of the representatives of c1 and c2, solved
    by ``class_of`` with the sum of their degrees."""
    return c1.table.class_of(wedge(c1.representative(), c2.representative()),
                             c1.degree + c2.degree)


def test_cup_examples(model):
    table = model.table
    g = model.gens
    cmu = table.class_of(g["mu"], 1)
    cnu = table.class_of(g["nu"], 1)
    assert product_class(cmu, cnu).is_zero()      # mu*nu = d(theta)
    assert product_class(cmu, cmu).is_zero()      # odd square
    a = table.class_of(g["mu"] * g["mubar"], 2)
    b = table.class_of(g["nu"] * g["nubar"], 2)
    assert product_class(a, b).is_zero()          # alpha*beta1 is exact
    e = table.class_of(g["eta"] * g["etabar"], 2)
    assert not product_class(a, e).is_zero()      # alpha*eta*etabar is not


def test_cup_graded_commutative_and_associative(model):
    rng = random.Random(31)
    table = model.table
    for _ in range(30):
        p, q, r = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
        def closed_rep(deg):
            reps = table.representatives(deg)
            coeffs = [rng.randint(-2, 2) for _ in reps]
            acc = model.algebra.zero()
            for c, e in zip(coeffs, reps):
                acc = acc + e.scale(c)
            return table.class_of(acc, deg)
        x, y, z = closed_rep(p), closed_rep(q), closed_rep(r)
        sign = -1 if (p * q) % 2 else 1
        lhs = product_class(x, y)
        rhs = product_class(y, x)
        assert lhs.coords == {j: c if sign > 0 else kernel.cv_neg(c)
                              for j, c in rhs.coords.items()}
        assert product_class(lhs, z) == product_class(x, product_class(y, z))


def test_exact_stays_exact_under_wedge_with_closed(model):
    rng = random.Random(32)
    table = model.table
    d = model.differential
    for _ in range(40):
        k = rng.randint(1, 3)
        xi = random_homogeneous(model.algebra, k, rng)
        x = apply_d(d, xi)          # exact by construction
        m = rng.randint(0, 2)
        reps = table.representatives(m)
        if not reps:
            continue
        y = reps[rng.randrange(len(reps))]
        prod = wedge(x, y)
        if prod.is_zero():
            continue
        assert table.is_exact(prod, k + 1 + m) is not None


def test_top_scalar_examples(model):
    f = model.field
    assert top_scalar(model.volume, model.volume) == f.one
    assert top_scalar(model.algebra.zero(), model.volume) == f.zero
    om4 = model.omega * model.omega * model.omega * model.omega
    assert top_scalar(om4, model.volume) == f.rational(24)
    assert not top_scalar(om4, model.volume).is_zero()


def test_top_scalar_degree_mismatch(model):
    with pytest.raises(ValueError, match="degree"):
        top_scalar(model.gens["mu"], model.volume)


def test_top_scalar_refuses_a_volume_of_another_degree(model):
    """The volume's degree is checked before x is read: a zero x, an x of
    the volume's degree and an x of the top degree are all refused."""
    g = model.gens
    seven = g["theta"] * g["mu"] * g["nu"] * g["eta"] * g["thetabar"] * g["mubar"] * g["nubar"]
    for volume, k in ((model.alpha, 2), (seven, 7)):
        for x in (model.algebra.zero(), volume, model.volume):
            with pytest.raises(ValueError, match=f"^volume must be of the top degree 8, got {k}$"):
                top_scalar(x, volume)


def test_product_rows_outside_the_degrees_and_of_zero(model):
    """No rows outside 0..top; a zero x gives one empty row per
    representative, in the degree it is asked for."""
    table = model.table
    omega = model.omega
    assert table.product_rows(omega, -1, 1) == []
    assert table.product_rows(omega, table.top + 1, table.top + 3) == []
    assert table.product_rows(model.algebra.zero(), 3, 5) == [{}] * table.betti[3]
    assert table.product_rows(omega, table.top, table.top + 2) == [{}]


def test_a_value_error_inside_product_rows_is_an_engine_fault(model, monkeypatch):
    """A fresh table, so that no normal form of degree 5 is cached yet."""
    def refuse(self, w, degree):
        raise ValueError("refused")

    monkeypatch.setattr(CohomologyTable, "_normal_form", refuse)
    with pytest.raises(AssertionError, match="^engine-built element: refused$") as info:
        CohomologyTable(model.complex).product_rows(model.omega, 3, 5)
    assert isinstance(info.value.__cause__, ValueError)


def test_a_fill_that_fails_part_way_keeps_no_column(model, monkeypatch):
    """A normal form that fails after others have been built fails the call
    as an engine fault and keeps no column of the call's words, so once the
    fault is gone the same table gives the class solves of the products."""
    table = CohomologyTable(model.complex)
    normal_form, built = CohomologyTable._normal_form, []

    def failing_late(self, w, degree):
        built.append(w)
        if len(built) > 3:
            raise ValueError("refused")
        return normal_form(self, w, degree)

    monkeypatch.setattr(CohomologyTable, "_normal_form", failing_late)
    with pytest.raises(AssertionError, match="^engine-built element: refused$"):
        table.product_rows(model.omega, 3, 5)
    monkeypatch.undo()
    assert table._columns[(3, 5)] == {}
    assert table.product_rows(model.omega, 3, 5) == _solved_rows(table, model.omega, 3, 5)


def _solved_rows(table, x, k, degree):
    """The class rows of r * x over the degree-k representatives r, one
    class solve of each product, as ``product_rows`` made them before it
    read normal forms."""
    with homology.engine_built():
        return [table.class_coords(wedge(r, x), degree) for r in table.representatives(k)]


def _closed_combination(table, degree, rng):
    """A seeded closed element of the complex of ``table``: representatives
    of ``degree`` with non-rational coefficients plus the coboundary of a
    seeded element of degree - 1, so that it has many words."""
    cx, alg = table.complex, table.complex.algebra
    x = alg.zero()
    for r in table.representatives(degree):
        if rng.random() < 0.5:
            x = x + r.scale(random_field_element(alg.field, rng))
    for b in complex_basis(cx, degree - 1):
        if rng.random() < 0.3:
            x = x + apply_d(cx.differential, b.scale(random_field_element(alg.field, rng)))
    return x


def _cache_within_the_words(table):
    """Each degree's normal forms are keyed by words of that degree, so
    there are at most as many as the degree has words.  The product columns
    of ``(k, degree)`` are keyed by words of degree - k, and each column by
    indices of the degree-k representatives, with no empty entry."""
    alg = table.complex.algebra
    for degree, forms in table._normal_forms.items():
        assert set(forms) <= set(alg.basis(degree)), degree
        assert len(forms) <= alg.dim(degree)
    for (k, degree), columns in table._columns.items():
        assert set(columns) <= set(alg.basis(degree - k)), (k, degree)
        for column in columns.values():
            assert set(column) <= set(range(table.betti[k])), (k, degree)
            assert all(column.values()), (k, degree)


@pytest.mark.parametrize("which", ["table", "invariant_table", "ladder"])
def test_product_rows_equal_the_class_solves_of_the_products(model, which):
    """On a fresh table, ``product_rows(x, k, k + |x|)`` equals one class
    solve per product r * x for every k.  On the paper's tables, full and
    invariant, x is each representative of degrees 1-4 and seeded closed
    combinations with non-rational coefficients and many words.  On the
    ladder's full table (the paper algebra times a 2-torus, 1024 words), x
    is each representative of degrees 1 and 2, with k up to 10 - |x|."""
    rng = random.Random(34)
    if which == "ladder":
        solver = CohomologyTable(CochainComplex(
            dsl.parse(LADDER.read_text()).algebras["M"].differential))
        table = CohomologyTable(solver.complex)
        xs = [(r, d) for d in (1, 2) for r in table.representatives(d)]
    else:
        solver = getattr(model, which)
        table = CohomologyTable(solver.complex)
        xs = [(r, d) for d in range(1, 5) for r in table.representatives(d)]
        xs += [(_closed_combination(table, d, rng), d) for d in range(1, 5) for _ in range(3)]
        assert any(len(x._terms) > 4 for x, _ in xs)
    nonzero = 0
    for x, d in xs:
        for k in range(table.top - d + 1):
            rows = table.product_rows(x, k, k + d)
            assert rows == _solved_rows(solver, x, k, k + d), (str(x), k)
            nonzero += sum(map(bool, rows))
    assert nonzero > 100
    _cache_within_the_words(table)


def test_product_rows_of_a_table_that_served_a_scan_equal_a_fresh_tables():
    """A table that has answered scan seed 1's 120 Lefschetz queries gives
    the rows of a fresh table that answers them in reverse order, for each
    query's omega^k and for the representatives of degrees 1-3; neither
    table's normal forms outgrow the words of their degree."""
    session = dsl.parse(load_workloads().scan_session(1))
    cx = CochainComplex(session.algebras["M"].differential)
    served, fresh = CohomologyTable(cx), CohomologyTable(cx)
    queries = [t.args[2:] for t in session.tasks if t.name == "lefschetz"]
    assert len(queries) == 120
    for omega, k in queries:
        lefschetz(served.class_of(omega, 2), k)
    for omega, k in reversed(queries):
        om = served.class_of(omega, 2).representative()
        power = kernel.power(om, k, om.algebra.unit, wedge)
        assert served.product_rows(power, 4 - k, 4 + k) == fresh.product_rows(power, 4 - k,
                                                                               4 + k)
    for d in range(1, 4):
        for x in served.representatives(d):
            for k in range(served.top - d + 1):
                assert served.product_rows(x, k, k + d) == fresh.product_rows(x, k, k + d)
    _cache_within_the_words(served)
    _cache_within_the_words(fresh)


def test_a_table_that_served_a_scan_answers_it_again_from_its_columns(monkeypatch):
    """Once a table has answered scan seed 1's 120 Lefschetz queries, its
    columns hold the products of its representatives with every word of
    every omega^k: answering the queries again makes no ``_normal_form`` and
    no ``merge_words`` call, and gives the same ranks."""
    session = dsl.parse(load_workloads().scan_session(1))
    table = CohomologyTable(CochainComplex(session.algebras["M"].differential))
    queries = [t.args[2:] for t in session.tasks if t.name == "lefschetz"]
    assert len(queries) == 120
    ranks = [lefschetz(table.class_of(omega, 2), k).rank for omega, k in queries]
    powers = []
    for omega, k in queries:
        om = table.class_of(omega, 2).representative()
        powers.append((kernel.power(om, k, om.algebra.unit, wedge), k))
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(CohomologyTable, "_normal_form",
                        counting("_normal_form", CohomologyTable._normal_form))
    monkeypatch.setattr(Algebra, "merge_words", counting("merge_words", Algebra.merge_words))
    field = session.algebras["M"].algebra.field
    again = [Matrix(field, table.betti[4 + k], table.product_rows(power, 4 - k, 4 + k)).rank()
             for power, k in powers]
    assert calls == []
    assert again == ranks
    _cache_within_the_words(table)


def test_rows_handed_out_by_product_rows_belong_to_the_caller(model):
    """The paper's representatives are single words with coefficient one and
    omega has a term with coefficient one, so a cup row can be one cached
    column entry times one.  Mutating the rows ``product_rows`` returns, or
    the rows of a ``LefschetzReport.matrix``, leaves the table's columns and
    normal forms and the rows of the next call unchanged."""
    table = CohomologyTable(model.complex)
    xs = [(model.omega, 3, 5), (table.representatives(2)[0], 2, 4)]
    expected = [table.product_rows(x, k, degree) for x, k, degree in xs]
    expected.append(lefschetz(table.class_of(model.omega, 2), 1).matrix.sparse_rows)
    expected = [[dict(row) for row in rows] for rows in expected]
    columns, forms = copy.deepcopy(table._columns), copy.deepcopy(table._normal_forms)
    assert any(len(row) == 1 for rows in expected for row in rows)
    junk = model.field.one.cv
    for _ in range(2):
        handed = [table.product_rows(x, k, degree) for x, k, degree in xs]
        handed.append(lefschetz(table.class_of(model.omega, 2), 1).matrix.sparse_rows)
        assert handed == expected
        for rows in handed:
            for row in rows:
                row.clear()
                row[-1] = junk
        assert table._columns == columns
        assert table._normal_forms == forms


@pytest.mark.parametrize("which", ["table", "invariant_table"])
def test_product_rows_over_representatives_of_several_words(model, which, monkeypatch):
    """The paper's representatives are single words with coefficient one.
    Over closed combinations of them with non-rational coefficients and
    several words each (so that products change sign word by word), the
    rows on a fresh table still equal one class solve per product."""
    solver = getattr(model, which)
    table = CohomologyTable(solver.complex)
    field, rng = model.field, random.Random(35)
    mixed = {}
    for d in range(1, 5):
        reps = solver.representatives(d)
        mixed[d] = [r.scale(random_field_element(field, rng)) + reps[(i + 1) % len(reps)]
                    .scale(random_field_element(field, rng)) for i, r in enumerate(reps)]
    representatives = CohomologyTable.representatives
    monkeypatch.setattr(CohomologyTable, "representatives",
                        lambda self, k: (mixed[k] if self is table and k in mixed
                                         else representatives(self, k)))
    assert any(len(r._terms) > 1 for reps in mixed.values() for r in reps)
    xs = [(x, d) for d in range(1, 5) for x in solver.representatives(d)]
    nonzero = 0
    for x, d in xs:
        for k in mixed:
            rows = table.product_rows(x, k, k + d)
            assert rows == _solved_rows(table, x, k, k + d), (str(x), k)
            nonzero += sum(map(bool, rows))
    assert nonzero > 50
    _cache_within_the_words(table)


def test_an_x_that_fails_the_check_of_product_rows_is_an_engine_fault(model):
    """``product_rows`` multiplies by engine-built elements only, so an x
    that is not closed, or has a term of another degree than ``degree - k``,
    is an engine fault, and the message names d(x) or x's own degree."""
    g, table = model.gens, CohomologyTable(model.complex)
    with pytest.raises(AssertionError, match=r"^engine-built element: element is not closed: "
                                             r"d\(x\) = mu\*nu$") as info:
        table.product_rows(g["theta"], 2, 3)
    assert info.value.__cause__.witness == g["mu"] * g["nu"]
    mixed = g["mu"] + g["mu"] * g["nu"]
    with pytest.raises(AssertionError, match="^engine-built element: element is not of "
                                             "degree 1$") as info:
        table.product_rows(mixed, 2, 3)
    assert info.value.__cause__.witness == mixed


def test_a_product_outside_a_subspace_complex_is_an_engine_fault(model):
    """mu is closed but not invariant, so r * mu leaves the invariant
    complex: its normal forms leave an ambient remainder, and the direct
    solve reports the product as an engine fault."""
    table = CohomologyTable(model.invariant)
    with pytest.raises(AssertionError, match="^engine-built element: element of degree 3 "
                                             "does not lie in the complex$"):
        table.product_rows(model.gens["mu"], 2, 3)


def test_a_remainder_the_direct_solve_does_not_see_is_an_engine_fault(model, monkeypatch):
    """When the normal forms leave a remainder on a product (here of a
    representative that is not closed) but the direct solve passes, the
    two routes disagree, and that is an engine fault."""
    table = CohomologyTable(model.complex)
    g = model.gens
    bad = g["theta"] * g["eta"] * g["etabar"]  # not closed
    representatives = CohomologyTable.representatives
    monkeypatch.setattr(CohomologyTable, "representatives",
                        lambda self, k: [bad] if k == 3 else representatives(self, k))
    monkeypatch.setattr(CohomologyTable, "class_coords", lambda self, x, degree: {})
    with pytest.raises(AssertionError, match="^the two routes disagree on "):
        table.product_rows(model.omega, 3, 5)


def test_two_step_complex_with_even_generator():
    # truncated polynomial algebra on one degree-2 generator: projective-space
    # cohomology when d = 0
    f = make_field(12)
    alg = Algebra(f, [("t", 2)], top=6)
    cx = CochainComplex(Differential(alg, {}))
    assert CohomologyTable(cx).betti == [1, 0, 1, 0, 1, 0, 1]


def test_kuenneth_with_a_two_torus(model):
    """The model times a 2-torus (10 generators, 1024 words): the Betti
    vector is the model's convolved with (1, 2, 1)."""
    names = [g.name for g in model.algebra.gens] + ["tau", "taubar"]
    alg = Algebra(model.field, [(n, 1) for n in names])
    g = {n: alg.generator(n) for n in names}
    d = Differential(alg, {"theta": g["mu"] * g["nu"],
                           "thetabar": g["mubar"] * g["nubar"]})
    b = model.table.betti
    expected = [sum(b[k - j] * c for j, c in enumerate((1, 2, 1)) if 0 <= k - j < len(b))
                for k in range(len(b) + 2)]
    assert CohomologyTable(CochainComplex(d)).betti == expected


# --- reference: the class eliminator the library replaced -------------------

def coboundary_rows(cx, k):
    """The reduced echelon rows of B^k, the image of the degree-(k - 1)
    d-eliminator; none in degree 0."""
    return cx.d_eliminator(k - 1).image.rows if k else []


def ref_class_row(table, x, k):
    """Class coordinates as the unique solution of one [coboundaries;
    representatives | I] elimination, read off the representative part."""
    cx = table.complex
    cob = coboundary_rows(cx, k)
    rows = cob + [cx.to_row(r, k) for r in table.representatives(k)]
    el = Eliminator(Matrix(cx.algebra.field, cx.dim(k), rows))
    sol = el.solve_left(cx.to_row(x, k))
    assert sol is not None
    return {j - len(cob): cv for j, cv in sol.items() if j >= len(cob)}


def random_closed(table, k, rng):
    """A random combination of the cocycle basis and the coboundary basis of
    degree k, as an element of the table's complex."""
    cx = table.complex
    field = cx.algebra.field
    row: dict = {}
    for r in cx.d_eliminator(k).kernel_rows() + coboundary_rows(cx, k):
        c = random_field_element(field, rng, 2)
        if not c.is_zero():
            kernel.row_axpy(row, r, c.cv, field)
    return cx.from_row(k, row)


def test_class_row_matches_class_eliminator(model):
    rng = random.Random(37)
    for table in (model.table, model.invariant_table):
        for k in range(table.top + 1):
            samples = list(table.representatives(k))
            samples += [random_closed(table, k, rng) for _ in range(6)]
            for x in samples:
                if not x.is_zero():
                    assert table.class_coords(x, k) == ref_class_row(table, x, k)


def test_coboundaries_are_the_d_eliminator_image_in_echelon_form(model, monkeypatch):
    """B^k, the image of the degree-(k - 1) d-eliminator, is in reduced
    echelon form and the representatives are zero in its pivot columns.  A
    class solve reads B^k as its quotient's read left it and calls no
    d-eliminator itself."""
    tables = (CohomologyTable(CochainComplex(model.differential)),
              CohomologyTable(invariant_complex(model.action)))
    for table in tables:
        cx = table.complex
        field = cx.algebra.field
        for k in range(table.top + 1):
            reps = table.representatives(k)
            if k:
                cob = cx.d_eliminator(k - 1).image
                fresh = Subspace.from_vectors(field, cx.dim(k), cob.rows)
                assert (cob.rows, cob.pivots) == (fresh.rows, fresh.pivots)
                assert cob.ambient_dim == cx.dim(k)
                assert all(not set(cx.to_row(r, k)) & set(cob.pivots) for r in reps)

    def refuse(self, k):
        raise AssertionError("a class solve built or read a d-eliminator")

    monkeypatch.setattr(CochainComplex, "d_eliminator", refuse)
    for table in tables:
        for k in range(table.top + 1):
            for j, r in enumerate(table.representatives(k)):
                assert table.class_coords(r + r, k) == {j: model.field.rational(2).cv}


def test_tables_build_no_eliminator_beyond_the_d_eliminators(model, monkeypatch):
    full = CochainComplex(model.differential)
    inv = invariant_complex(model.action)
    built = []
    init = Eliminator.__init__

    def counting_init(self, a):
        built.append(a)
        init(self, a)

    rrefs = []
    rref = kernel.rref

    def counting_rref(*args):
        rrefs.append(args)
        return rref(*args)

    monkeypatch.setattr(Eliminator, "__init__", counting_init)
    monkeypatch.setattr(kernel, "rref", counting_rref)
    top = model.algebra.top
    for cx in (full, inv):
        rrefs.clear()
        before = len(built)
        table = CohomologyTable(cx)
        # the Betti numbers come from ranks: no rref and no Eliminator
        assert rrefs == [] and len(built) == before
        # per degree read: the d-eliminator, and the echelon of the remainders
        for k in range(table.top + 1):
            for r in table.representatives(k):
                table.class_coords(r, k)
        assert len(rrefs) == 2 * (top + 1)
    d_matrices = {id(cx.d_matrix(k)) for cx in (full, inv) for k in range(cx.top + 1)}
    assert len(built) == 2 * (top + 1)
    assert {id(a) for a in built} == d_matrices


# --- d-matrices from the word rows, representatives on first use ------------

LADDER = ROOT / "perfbench" / "sessions" / "ladder.cdga"


def ladder_complexes(model):
    """The ladder algebra (the model times a 2-torus) with its full complex
    and the invariant complex of rho extended by tau -> z^4 tau and
    taubar -> z^8 taubar, an order-3 action."""
    ctx = dsl.parse(LADDER.read_text()).algebras["M"]
    alg, d = ctx.algebra, ctx.differential
    z = alg.field.zeta(4)
    weights = {"mu": z, "nu": z, "theta": z * z, "eta": z, "tau": z,
               "mubar": z * z, "nubar": z * z, "thetabar": z, "etabar": z * z,
               "taubar": z * z}
    rho = AlgebraMap(alg, alg, {n: alg.generator(n).scale(w) for n, w in weights.items()})
    return CochainComplex(d), invariant_complex(GroupAction(rho, 3, d))


@pytest.mark.parametrize("which", ["paper", "ladder", "even"])
def test_d_matrix_rows_are_the_images_of_the_basis_elements(model, which):
    """The oracle is the element path: d of each basis element by
    ``apply_d``, in the complex's coordinates of the next degree."""
    if which == "paper":
        complexes = (CochainComplex(model.differential), invariant_complex(model.action))
    elif which == "ladder":
        complexes = ladder_complexes(model)
    else:
        session = dsl.parse(EVEN_SESSION)
        action = session.names["f"][2].action
        complexes = (CochainComplex(action.differential), invariant_complex(action))
    for cx in complexes:
        for k in range(cx.top + 1):
            m = cx.d_matrix(k)
            expected = [cx.to_row(apply_d(cx.differential, e), k + 1)
                        for e in complex_basis(cx, k)]
            assert m.sparse_rows == expected
            assert (m.nrows, m.ncols) == (cx.dim(k), cx.dim(k + 1))


def test_degrees_outside_the_table_are_the_zero_space(model):
    """H^k = 0 outside 0..top on every read of a degree: k = -1 is not the
    last degree, and k = top + 1 is no index past the end."""
    table, d = model.table, model.differential
    for k in (-1, table.top + 1):
        assert table.dim(k) == 0 and table.representatives(k) == []
        assert (table.quotient(k).dim, table.quotient(k).ambient_dim) == (0, 0)
    assert d.word_rows(-2) == d.word_rows(-1) == d.word_rows(table.top + 1) == []
    assert d.word_rows(table.top) == [{}]
    assert model.rho.word_rows(-1) == model.rho.word_rows(table.top + 1) == []


def test_tables_are_built_without_elements(model, monkeypatch):
    """d-matrices are read from the word rows, with no ``apply_d`` and no
    element built, and a table builds no representative until one is read:
    a betti-only run of the ladder session builds none.  The engine builds
    its elements with ``algebra._element``, which is counted in every module
    that binds it, as well as the public constructor."""
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name, module in list(sys.modules.items()):
        if name.startswith("cdgalab") and getattr(module, "apply_d", None) is apply_d:
            monkeypatch.setattr(module, "apply_d", counting("apply_d", apply_d))
        if name.startswith("cdgalab") and getattr(module, "_element", None) is _element:
            monkeypatch.setattr(module, "_element", counting("_element", _element))
    for cls, attr in ((CochainComplex, "from_row"), (GradedElement, "__init__")):
        monkeypatch.setattr(cls, attr, counting(attr, getattr(cls, attr)))
    full = CochainComplex(model.differential)
    inv = CochainComplex(model.differential, model.invariant.subspaces)
    for cx in (full, inv):
        assert CohomologyTable(cx).betti
    assert calls == []
    session = dsl.parse(LADDER.read_text())  # the parser's d*d check applies d
    calls.clear()
    assert dsl.run(session).ok
    assert calls.count("apply_d") == calls.count("from_row") == calls.count("_element") == 0


def _not_d_stable(model) -> CochainComplex:
    """span{theta} in degree 1 with span{mu*mubar} in degree 2: d(theta) =
    mu*nu leaves the complex."""
    alg, g = model.algebra, model.gens
    field = alg.field
    subspaces = [Subspace.from_vectors(field, alg.dim(k), [{i: field.one.cv}
                                                          for i in range(alg.dim(k))])
                 for k in range(alg.top + 1)]
    subspaces[1] = Subspace.from_vectors(field, alg.dim(1), [g["theta"].to_row(1)])
    subspaces[2] = Subspace.from_vectors(field, alg.dim(2), [(g["mu"] * g["mubar"]).to_row(2)])
    return CochainComplex(model.differential, subspaces)


def test_d_matrix_of_subspaces_that_are_not_d_stable_is_refused(model):
    cx = _not_d_stable(model)
    assert cx.d_matrix(0).sparse_rows == [{}]
    with pytest.raises(ValueError, match="^element of degree 2 does not lie in the complex$"):
        cx.d_matrix(1)


def test_a_table_of_subspaces_that_are_not_d_stable_is_refused(model):
    """A Betti-only table builds no quotient, so B in Z rests on the
    d-stability check of the d-matrices that its ranks read."""
    with pytest.raises(ValueError, match="^element of degree 2 does not lie in the complex$"):
        CohomologyTable(_not_d_stable(model))


def test_a_betti_only_run_builds_no_eliminator_and_no_quotient(monkeypatch):
    """The ladder session's one betti task reads the ranks of the
    d-matrices only: no ``Eliminator``, no ``quotient_basis`` and no
    ``kernel.rref``."""
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Eliminator, "__init__", counting("eliminator", Eliminator.__init__))
    monkeypatch.setattr(homology, "quotient_basis",
                        counting("quotient", homology.quotient_basis))
    monkeypatch.setattr(kernel, "rref", counting("rref", kernel.rref))
    assert dsl.run(dsl.parse(LADDER.read_text())).ok
    assert calls == []


def test_filiform_betti_numbers_agree_on_the_rank_and_quotient_routes():
    """The standard filiform algebra L_12: generators e1..e12 of degree 1,
    d e_j = e1*e_(j-1) for j = 3..12.  These Betti numbers are this
    engine's own values, on which four routes agreed when they were first
    measured, not a published table.  The betti task reads them from ranks;
    the representatives read afterwards build every degree's quotient,
    whose dimension the table checks against them."""
    gens = " ".join(f"e{j}:1" for j in range(1, 13))
    ds = "".join(f"d e{j} = e1*e{j - 1}\n" for j in range(3, 13))
    session = dsl.parse(f"field cyclotomic 12\nalgebra L generators {gens}\n{ds}"
                        "task betti L\n")
    rc, report = dsl._RunContext(), dsl.Report(session.sha256())
    task, = session.tasks
    dsl._TASK_RUNNERS[task.name](rc, report, *task.args)
    betti = [int(v) for _, v in report.records]
    assert betti == [1, 2, 6, 18, 37, 56, 64, 56, 37, 18, 6, 2, 1]
    table = rc.table(session.algebras["L"], None)
    assert table._quotients == {}
    assert [len(table.representatives(k)) for k in range(table.top + 1)] == betti


def test_representatives_are_built_once_per_degree(model):
    for table in (CohomologyTable(model.complex), CohomologyTable(model.invariant)):
        cx = table.complex
        for k in range(table.top + 1):
            reps = table.representatives(k)
            assert table.representatives(k) is reps
            assert len(reps) == table.betti[k]
            assert [cx.to_row(r, k) for r in reps] == table._quotients[k].rows
