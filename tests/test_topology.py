import random

import pytest

from cdgalab.topology import (BettiVector, IncidenceGraph, betti_p1_bundle,
                              betti_projective, betti_resolution, betti_union)


def exceptional_graph():
    p3 = betti_projective(3)
    bundle = betti_p1_bundle(betti_projective(2))
    p2 = betti_projective(2)
    return IncidenceGraph([p3, bundle, bundle], [(0, 2, p2), (1, 2, p2)])


def test_projective_spaces():
    assert tuple(betti_projective(3)) == (1, 0, 1, 0, 1, 0, 1)
    assert tuple(betti_projective(2)) == (1, 0, 1, 0, 1)
    assert tuple(betti_projective(0)) == (1,)


def test_p1_bundles():
    assert tuple(betti_p1_bundle(betti_projective(2))) == (1, 0, 2, 0, 2, 0, 1)
    assert tuple(betti_p1_bundle(betti_projective(0))) == (1, 0, 1)
    # Betti numbers are twist-independent: both bundles over P^2 agree
    assert betti_p1_bundle(betti_projective(2)) == betti_p1_bundle(betti_projective(2))


def test_union_of_the_exceptional_divisor():
    v = betti_union(exceptional_graph())
    assert tuple(v) == (1, 0, 3, 0, 3, 0, 3)
    assert v[3] == 0


def test_union_single_and_disjoint_nodes():
    p3 = betti_projective(3)
    single = betti_union(IncidenceGraph([p3]))
    assert single == p3
    two = betti_union(IncidenceGraph([p3, p3]))
    assert tuple(two) == (2, 0, 2, 0, 2, 0, 2)
    assert two[0] == 2


def test_union_rejects_cycles():
    p2 = betti_projective(2)
    p3 = betti_projective(3)
    g = IncidenceGraph([p3, p3, p3],
                       [(0, 1, p2), (1, 2, p2), (2, 0, p2)])
    with pytest.raises(ValueError, match="cyclic"):
        betti_union(g)


def test_union_edge_order_independence():
    rng = random.Random(71)
    base = exceptional_graph()
    v0 = betti_union(base)
    for _ in range(10):
        edges = base.edges[:]
        rng.shuffle(edges)
        assert betti_union(IncidenceGraph(base.nodes, edges)) == v0


def test_euler_additivity_on_unions():
    g = exceptional_graph()
    v = betti_union(g)
    chi_nodes = sum(n.euler() for n in g.nodes)
    chi_edges = sum(e.intersection.euler() for e in g.edges)
    assert v.euler() == chi_nodes - chi_edges


def test_resolution_bookkeeping(model):
    bhat = BettiVector(tuple(model.invariant_table.betti))
    e = betti_union(exceptional_graph())
    for s in range(6):
        v = betti_resolution(bhat, e, s)
        assert v[1] == v[3] == v[5] == v[7] == 0
        assert v[0] == v[8] == 1
        assert v[2] == 13 + 3 * s
        assert v.is_poincare_symmetric()
    assert betti_resolution(bhat, e, 0).values == bhat.values


def test_resolution_validates_shapes(model):
    bhat = BettiVector(tuple(model.invariant_table.betti))
    e = betti_union(exceptional_graph())
    with pytest.raises(ValueError):
        betti_resolution(e, e, 1)       # quotient must be 8-dimensional
    with pytest.raises(ValueError):
        betti_resolution(bhat, bhat, 1)  # exceptional set must be 6-dimensional
    with pytest.raises(ValueError):
        betti_resolution(bhat, e, -1)


def test_poincare_symmetry_propagates():
    # inputs symmetric in the MV range produce symmetric outputs
    bhat = BettiVector((1, 0, 4, 2, 6, 2, 4, 0, 1))
    exceptional = BettiVector((1, 0, 3, 0, 3, 0, 3))
    for s in range(4):
        v = betti_resolution(bhat, exceptional, s)
        # the formula range 0 < j < 7 plus duality closure keeps symmetry
        # whenever bhat is symmetric and b_j(E) = b_(6-j)(E) holds for 1<j<6
        assert v[2] == v[6]
        assert v[1] == v[7]
        assert v[3] == v[5]


def test_betti_vector_validation():
    with pytest.raises(ValueError):
        BettiVector((1, -1))
    with pytest.raises(ValueError):
        BettiVector(())
    v = BettiVector((1, 0, 2))
    assert v.top == 2
    assert v[5] == 0  # out of range reads as zero
