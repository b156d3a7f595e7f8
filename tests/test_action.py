import copy
import random
import types
from fractions import Fraction

import pytest

from cdgalab import AlgebraMap, Differential, GroupAction, Matrix, PreconditionError, \
    Subspace, dsl, identity_map, invariant_cohomology, invariant_complex, validate_action
from cdgalab import action as action_module
from cdgalab import homology
from cdgalab._backend import kernel
from cdgalab.action import induced_action_fixed_dims, induced_matrices, invariant_subspaces
from cdgalab.algebra import Algebra, apply_d, apply_map
from cdgalab.field import FieldElement
from cdgalab.homology import CochainComplex, CohomologyTable
from cdgalab.topology import BettiVector

from conftest import ROOT, complex_basis, in_projector_image, orbit_average, projector_rows, \
    random_element


def test_validate_action_examples(model):
    validate_action(model.rho, 3, model.differential)
    with pytest.raises(PreconditionError, match="identity") as wrong:
        validate_action(model.rho, 2, model.differential)
    assert wrong.value.witness is not None and not wrong.value.witness.is_zero()
    ident = identity_map(model.algebra)
    for m in (1, 2, 5):
        validate_action(ident, m, model.differential)


def test_invariant_dimensions(model):
    dims = [model.invariant.dim(k) for k in range(9)]
    assert dims == [1, 0, 16, 8, 36, 8, 16, 0, 1]
    assert dims[0] == 1   # constants
    assert dims[1] == 0   # every generator scales by a nontrivial root
    assert dims[2] == 16  # one weight-zeta times one weight-zeta^2 generator


def test_invariant_cohomology(model):
    table = invariant_cohomology(model.action, model.table)
    assert table.betti == [1, 0, 13, 0, 26, 0, 13, 0, 1]
    assert table.betti[3] == 0
    assert table.betti[1] == 0
    assert table.betti[0] == 1


def test_invariant_cohomology_refuses_a_table_of_another_complex(model):
    """``full`` must be the table of the full complex of the action's own
    differential: neither the invariant table nor a full table of another
    differential on the same algebra is accepted."""
    other = CohomologyTable(CochainComplex(Differential(model.algebra, {})))
    for wrong in (model.invariant_table, other):
        with pytest.raises(ValueError, match="must be the table of the full complex"):
            invariant_cohomology(model.action, wrong)


def test_both_invariant_computations_agree(model):
    fixed = induced_action_fixed_dims(model.table, model.action)
    assert fixed == model.invariant_table.betti


def test_projector_is_idempotent(model):
    """The rows of ``invariant_subspaces`` span a space that the averaging
    fixes pointwise and that holds every orbit average, so P o P = P."""
    rng = random.Random(41)
    act = model.action
    subs = invariant_subspaces(act)
    for k, rows in enumerate(projector_rows(subs, model.algebra)):
        for r in rows:
            assert orbit_average(act, r) == r
        for w in model.algebra.basis(k):
            assert in_projector_image(subs, orbit_average(act, model.algebra.word_element(w)))
    for _ in range(50):
        x = random_element(model.algebra, rng)
        p = orbit_average(act, x)
        assert in_projector_image(subs, p)
        assert orbit_average(act, p) == p


def test_projector_commutes_with_d(model):
    """d maps the span of the invariant rows in each degree into the next
    one, and P(dx) = d(Px) for elements spread over all degrees."""
    rng = random.Random(42)
    act = model.action
    d = model.differential
    subs = invariant_subspaces(act)
    for rows in projector_rows(subs, model.algebra):
        for r in rows:
            assert in_projector_image(subs, apply_d(d, r))
    for _ in range(100):
        x = random_element(model.algebra, rng)
        assert orbit_average(act, apply_d(d, x)) == apply_d(d, orbit_average(act, x))


def test_projector_fixes_invariants_exactly(model):
    """Every invariant row, and every orbit average, is fixed by rho."""
    rng = random.Random(43)
    subs = invariant_subspaces(model.action)
    for rows in projector_rows(subs, model.algebra):
        for r in rows:
            assert apply_map(model.rho, r) == r
    for _ in range(50):
        x = random_element(model.algebra, rng)
        p = orbit_average(model.action, x)
        assert apply_map(model.rho, p) == p


def test_omega_lives_in_the_invariant_complex(model):
    assert model.invariant.contains(model.omega, 2)
    cls = model.invariant_table.class_coords(model.omega, 2)
    assert cls


def test_invariant_differential_is_stable(model):
    # d maps each invariant subspace into the next one
    inv = model.invariant
    for k in range(8):
        for e in complex_basis(inv, k):
            de = apply_d(model.differential, e)
            if not de.is_zero():
                assert inv.contains(de, k + 1)


def test_invalid_action_rejected(model):
    mu = model.gens["mu"]
    with pytest.raises(PreconditionError, match=r"^f\^2 is not the identity at mu$") as info:
        GroupAction(model.rho, 2, model.differential)
    # the witness is the residue f^2(mu) - mu, nonzero
    assert info.value.witness == apply_map(model.rho, apply_map(model.rho, mu)) - mu
    assert not info.value.witness.is_zero()
    with pytest.raises(AttributeError, match=r"^cannot assign to field 'order'$"):
        model.action.order = 2


def test_eliminations_memoise_their_pivot_inverses(model, monkeypatch):
    """The eliminations of ``invariant_subspaces`` meet few distinct pivots
    (rho's weights minus one, then ones), so with each inverse kept for the
    life of an elimination they take at most two per degree, not one per
    row operation (170 on the paper's action without the memo)."""
    calls = []
    inverse = FieldElement.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(FieldElement, "inverse", counting)
    invariant_subspaces(model.action)
    assert 0 < len(calls) <= 2 * (model.algebra.top + 1)


def test_invariant_subspace_matches_projector_rank(model):
    subs = invariant_subspaces(model.action)
    for k in range(9):
        assert subs[k].dim == model.invariant.dim(k)


# --- references: every power as its own composed map ------------------------

def _composed_powers(f, m):
    maps = [identity_map(f.source)]
    for _ in range(m - 1):
        maps.append(f.compose(maps[-1]))
    return maps


def reference_invariant_subspaces(action):
    """The projector rows summed over separately composed power maps."""
    alg = action.differential.algebra
    powers = _composed_powers(action.generator_map, action.order)
    subspaces = []
    for k in range(alg.top + 1):
        rows = []
        for w in alg.basis(k):
            e = alg.word_element(w)
            acc = alg.zero()
            for f in powers:
                acc = acc + apply_map(f, e)
            rows.append(acc.scale(Fraction(1, action.order)).to_row(k))
        subspaces.append(Subspace.from_vectors(alg.field, alg.dim(k), rows))
    return subspaces


def reference_fixed_dims(table, action):
    """The rank of the averaged class rows of every power's images."""
    field = table.complex.algebra.field
    powers = _composed_powers(action.generator_map, action.order)
    inv_m = field.rational(1, action.order).cv
    dims = []
    for k in range(table.top + 1):
        reps = table.representatives(k)
        rows = []
        for r in reps:
            acc = {}
            for f in powers:
                kernel.row_axpy(acc, table.class_coords(apply_map(f, r), k), inv_m, field)
            rows.append(acc)
        dims.append(Subspace.from_vectors(field, len(reps), rows).dim)
    return dims


def _rho_squared(model):
    return model.rho.compose(model.rho)


def _swap(model):
    """The order-2 action mu<->nu, theta->-theta, mubar<->nubar,
    thetabar->-thetabar, eta and etabar fixed; not diagonal on generators."""
    g = model.gens
    images = {"mu": g["nu"], "nu": g["mu"], "theta": -g["theta"], "eta": g["eta"],
              "mubar": g["nubar"], "nubar": g["mubar"], "thetabar": -g["thetabar"],
              "etabar": g["etabar"]}
    return AlgebraMap(model.algebra, model.algebra, images)


ACTIONS = {
    "rho": lambda model: GroupAction(model.rho, 3, model.differential),
    "rho2": lambda model: GroupAction(_rho_squared(model), 3, model.differential),
    "swap": lambda model: GroupAction(_swap(model), 2, model.differential),
}


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_invariant_subspaces_match_composed_powers(model, name):
    action = ACTIONS[name](model)
    validate_action(action.generator_map, action.order, model.differential)
    new = invariant_subspaces(action)
    ref = reference_invariant_subspaces(action)
    for k in range(9):
        assert new[k].rows == ref[k].rows
        assert new[k].pivots == ref[k].pivots


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_trace_formula_matches_rank_of_averaged_class_rows(model, name):
    action = ACTIONS[name](model)
    fixed = induced_action_fixed_dims(model.table, action)
    assert fixed == reference_fixed_dims(model.table, action)
    inv = CohomologyTable(invariant_complex(action))
    assert inv.betti == fixed
    if name == "swap":
        assert fixed == [1, 4, 9, 16, 20, 16, 9, 4, 1]


def test_wrong_order_fails_the_trace_check(model):
    # a valid action cannot be built with the wrong order, so inject the fault
    bad = copy.copy(model.action)
    object.__setattr__(bad, "order", 2)
    with pytest.raises(AssertionError, match="not the identity"):
        induced_action_fixed_dims(model.table, bad)


def test_traces_and_lefschetz_numbers(model):
    field = model.field
    expected = [1, -3, 11, -15, 21, -15, 11, -3, 1]
    lefschetz = []
    for f in (model.rho, _rho_squared(model)):
        matrices = induced_matrices(model.table, GroupAction(f, 3, model.differential))
        assert [a.nrows for a in matrices] == model.table.betti
        traces = [sum((FieldElement(field, row[i]) for i, row in enumerate(a.sparse_rows)
                       if i in row), field.zero) for a in matrices]
        assert traces == [field.rational(t) for t in expected]
        lefschetz.append(sum((-1) ** k * tr.coords[0] for k, tr in enumerate(traces)))
    assert lefschetz == [81, 81]
    chi = BettiVector(model.table.betti).euler()
    assert chi == 0
    orbifold_chi = (chi + sum(lefschetz)) / 3
    assert orbifold_chi == 54 == BettiVector(model.invariant_table.betti).euler()


def test_cross_check_solves_one_class_per_representative(model, monkeypatch):
    calls = []
    class_coords = CohomologyTable.class_coords

    def counting(self, x, degree):
        calls.append(self)
        return class_coords(self, x, degree)

    monkeypatch.setattr(CohomologyTable, "class_coords", counting)
    invariant_cohomology(model.action, model.table)
    assert sum(model.table.betti) == 144
    assert len(calls) == 144
    assert all(t is model.table for t in calls)


def _counting_quotients(model, monkeypatch, drop_last_row=False):
    """The complements ``quotient_basis`` builds once the full table has all
    of its own, so that every one recorded belongs to the invariant table;
    with ``drop_last_row`` each loses its last row."""
    for k in range(model.table.top + 1):
        model.table.representatives(k)
    built = []
    quotient_basis = homology.quotient_basis

    def counting(rows, small):
        q = quotient_basis(rows, small)
        if drop_last_row and q.dim:
            q = Subspace(q.field, q.ambient_dim, q.rows[:-1], q.pivots[:-1])
        built.append(q)
        return q

    monkeypatch.setattr(homology, "quotient_basis", counting)
    return built


def test_the_cross_check_builds_every_invariant_quotient(model, monkeypatch):
    """The fixed part is compared with the invariant table's quotient
    dimensions, not its Betti numbers, which come from ``kernel.rank`` as
    the fixed part's ranks do: every quotient is built before it returns."""
    built = _counting_quotients(model, monkeypatch)
    table = invariant_cohomology(model.action, model.table)
    assert [q.dim for q in built] == table.betti == [1, 0, 13, 0, 26, 0, 13, 0, 1]
    assert sorted(table._quotients) == list(range(table.top + 1))


def test_an_invariant_quotient_short_of_a_row_fails_the_cross_check(model, monkeypatch):
    _counting_quotients(model, monkeypatch, drop_last_row=True)
    with pytest.raises(AssertionError, match="^engine-built table: the quotient of degree 0 "
                       "has dimension 0, the ranks give b_0 = 1$"):
        invariant_cohomology(model.action, model.table)


# --- a declared order costs only the power check ----------------------------

def _swap_session(order):
    return ("field cyclotomic 4\nalgebra A generators a:1 b:1\n"
            f"map f order {order} {{ a -> b ; b -> a }}\n"
            "task invariant_betti A f reps\n")


def test_a_huge_order_costs_only_the_squarings(monkeypatch):
    """A declared order of 10^9 on a map of period 2 gives the records of
    order 2 from as many map images; only the check A_k^m = I grows with m,
    by repeated squaring, in at most 2 * m.bit_length() products a degree."""
    images = []
    products = []
    apply_map = action_module.apply_map
    matmul = Matrix.matmul

    def counting_apply_map(f, x):
        images.append(x)
        if len(images) > 1000:
            raise RuntimeError("the map images grow with the declared order")
        return apply_map(f, x)

    def counting_matmul(self, other):
        products.append(self)
        if len(products) > 1000:
            raise RuntimeError("the matrix products grow with the declared order")
        return matmul(self, other)

    monkeypatch.setattr(action_module, "apply_map", counting_apply_map)
    monkeypatch.setattr(Matrix, "matmul", counting_matmul)
    runs = []
    for m in (2, 10**9):
        session = dsl.parse(_swap_session(m))
        top = session.algebras["A"].algebra.top
        images.clear()
        products.clear()
        report = dsl.run(session)
        assert report.ok
        assert 0 < len(products) <= 2 * m.bit_length() * (top + 1), len(products)
        runs.append((report.records, len(images)))
    assert runs[0] == runs[1]
    assert runs[0][1] > 0


def test_the_projector_reads_the_map_rows_without_boxing_words(monkeypatch):
    """F_k comes from ``AlgebraMap.word_rows``: a paper run boxes no basis
    word, and its only map images are the 144 = sum b_k class solves of the
    cross-check, one per representative of the full table."""
    session = dsl.parse((ROOT / "paper.cdga").read_text())
    boxed, images = [], []
    word_element = Algebra.word_element
    apply_map_ = action_module.apply_map

    def counting_word_element(self, word):
        boxed.append(word)
        return word_element(self, word)

    def counting_apply_map(f, x):
        images.append(x)
        return apply_map_(f, x)

    monkeypatch.setattr(Algebra, "word_element", counting_word_element)
    monkeypatch.setattr(action_module, "apply_map", counting_apply_map)
    assert dsl.run(session).ok
    assert (len(boxed), len(images)) == (0, 144)


@pytest.mark.parametrize("order", [3, 6, 300])
def test_a_multiple_of_the_period_gives_the_same_invariants(model, order):
    action = GroupAction(model.rho, order, model.differential)
    subs = invariant_subspaces(action)
    assert [(s.rows, s.pivots) for s in subs] == \
        [(s.rows, s.pivots) for s in model.invariant.subspaces]
    assert induced_action_fixed_dims(model.table, action) == model.invariant_table.betti


# --- each side subtracts the identity on its own -----------------------------

def _kernel_with(**overrides):
    """The arithmetic kernel as ``cdgalab.action`` resolves it, with the
    named functions replaced."""
    return types.SimpleNamespace(**{**vars(kernel), **overrides})


def test_a_projector_that_drops_the_shift_fails_the_cross_check(model, monkeypatch):
    """With the -I dropped from the projector's rows, its kernel is that of
    F_k alone, which is zero for rho, while the cross-check still finds the
    fixed part.  Were the shift shared by the two sides, this would drop it
    on both, they would agree on zeros, and nothing would be raised."""
    monkeypatch.setattr(action_module, "kernel", _kernel_with(cv_sub=lambda a, b: a))
    with pytest.raises(AssertionError, match=r"complex gives \[0, 0, 0, 0, 0, 0, 0, 0, 0\], "
                       r"fixed part of H\* gives \[1, 0, 13, 0, 26, 0, 13, 0, 1\]"):
        invariant_cohomology(model.action, model.table)


def test_a_cross_check_that_drops_the_shift_fails(model, monkeypatch):
    """With the -I dropped from the cross-check's rows, it takes
    b_k - rank(A_k), zero for the invertible A_k, while the complex still
    has the invariant cohomology.  A shift shared with the projector would
    drop on both sides here too, and the check would pass."""
    monkeypatch.setattr(action_module, "kernel",
                        _kernel_with(row_axpy=lambda target, src, c, field: None))
    with pytest.raises(AssertionError, match=r"complex gives \[1, 0, 13, 0, 26, 0, 13, 0, 1\], "
                       r"fixed part of H\* gives \[0, 0, 0, 0, 0, 0, 0, 0, 0\]"):
        invariant_cohomology(model.action, model.table)
