import random
from fractions import Fraction

import pytest

from cdgalab import GroupAction, cohomology, identity_map, invariant_cohomology, \
    invariant_complex, validate_action
from cdgalab.action import induced_action_fixed_dims, invariant_subspaces
from cdgalab.algebra import apply_d, apply_map

from conftest import random_element


def test_validate_action_examples(model):
    assert validate_action(model.rho, 3, model.differential).ok
    wrong = validate_action(model.rho, 2, model.differential)
    assert not wrong.ok
    assert "identity" in wrong.message
    assert wrong.residue is not None and not wrong.residue.is_zero()
    ident = identity_map(model.algebra)
    for m in (1, 2, 5):
        assert validate_action(ident, m, model.differential).ok


def test_invariant_dimensions(model):
    dims = [model.invariant.dim(k) for k in range(9)]
    assert dims == [1, 0, 16, 8, 36, 8, 16, 0, 1]
    assert dims[0] == 1   # constants
    assert dims[1] == 0   # every generator scales by a nontrivial root
    assert dims[2] == 16  # one weight-zeta times one weight-zeta^2 generator


def test_invariant_cohomology(model):
    table = invariant_cohomology(model.dga, model.action)
    assert table.betti == [1, 0, 13, 0, 26, 0, 13, 0, 1]
    assert table.betti[3] == 0
    assert table.betti[1] == 0
    assert table.betti[0] == 1


def test_both_invariant_computations_agree(model):
    fixed = induced_action_fixed_dims(model.table, model.action)
    assert fixed == model.invariant_table.betti


def test_projector_is_idempotent(model):
    rng = random.Random(41)
    act = model.action
    for k in range(9):
        for w in model.algebra.basis(k):
            e = model.algebra.word_element(w)
            p = act.project(e)
            assert act.project(p) == p
    for _ in range(50):
        x = random_element(model.algebra, rng)
        assert act.project(act.project(x)) == act.project(x)


def test_projector_commutes_with_d(model):
    rng = random.Random(42)
    act = model.action
    d = model.differential
    for _ in range(100):
        x = random_element(model.algebra, rng)
        assert act.project(apply_d(d, x)) == apply_d(d, act.project(x))


def test_projector_fixes_invariants_exactly(model):
    rng = random.Random(43)
    act = model.action
    for _ in range(50):
        x = random_element(model.algebra, rng)
        p = act.project(x)
        assert apply_map(model.rho, p) == p


def test_omega_lives_in_the_invariant_complex(model):
    assert model.invariant.contains(model.omega, 2)
    cls = model.invariant_table.class_coords(model.omega, 2)
    assert any(not c.is_zero() for c in cls)


def test_invariant_differential_is_stable(model):
    # d maps each invariant subspace into the next one
    inv = model.invariant
    for k in range(8):
        for e in inv.basis_elements(k):
            de = apply_d(model.differential, e)
            if not de.is_zero():
                assert inv.contains(de, k + 1)


def test_invalid_action_rejected(model):
    bad = GroupAction(model.rho, 2)
    with pytest.raises(ValueError, match="invalid group action"):
        invariant_complex(model.dga, bad)


def test_invariant_subspace_matches_projector_rank(model):
    subs = invariant_subspaces(model.dga, model.action)
    m = model.action.order
    for k in range(9):
        # P has trace = sum over words of the averaged character; its rank as
        # an idempotent equals the invariant dimension
        assert subs[k].dim == model.invariant.dim(k)
