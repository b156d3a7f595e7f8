"""Betti-number bookkeeping for resolutions.

Projective spaces, P^1-bundles over even-dimensional bases (Leray-Hirsch),
Mayer-Vietoris for a forest of divisors with surjective even-degree
restrictions, and the assembly formula for the resolution of an orbifold
quotient with isolated singular points.  Integer vectors only; no ring
structure is modelled here.
"""

from __future__ import annotations

from ._record import Frozen

# Real dimension of the exceptional set that resolves one isolated singular
# point of an 8-dimensional quotient.
EXCEPTIONAL_DIM = 6


class BettiVector(Frozen):
    """Betti numbers b_0..b_top of a space of even real dimension top."""

    def __init__(self, values):
        values = tuple(int(v) for v in values)
        if any(v < 0 for v in values):
            raise ValueError("Betti numbers are non-negative")
        if not values:
            raise ValueError("empty Betti vector")
        self.__dict__["values"] = values

    @property
    def top(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, j: int) -> int:
        if 0 <= j <= self.top:
            return self.values[j]
        return 0

    def euler(self) -> int:
        return sum((-1) ** j * v for j, v in enumerate(self.values))

    def is_poincare_symmetric(self) -> bool:
        return all(self[j] == self[self.top - j] for j in range(self.top + 1))

    def __iter__(self):
        return iter(self.values)

    def __repr__(self):
        return f"BettiVector{self.values}"


def betti_projective(n: int) -> BettiVector:
    """Complex projective space P^n: one class in each even degree."""
    if n < 0:
        raise ValueError("n must be >= 0")
    values = [0] * (2 * n + 1)
    for k in range(0, n + 1):
        values[2 * k] = 1
    return BettiVector(tuple(values))


def betti_p1_bundle(base: BettiVector) -> BettiVector:
    """P^1-bundle over an even-dimensional base, by Leray-Hirsch:
    b_j(total) = b_j(base) + b_(j-2)(base).  Twist-independent."""
    if base.top % 2:
        raise ValueError("the base must have even top degree")
    top = base.top + 2
    return BettiVector(tuple(base[j] + base[j - 2] for j in range(top + 1)))


class Edge(Frozen):
    """Components a and b of a divisor meet in ``intersection``."""

    def __init__(self, a: int, b: int, intersection: BettiVector):
        self.__dict__.update(a=a, b=b, intersection=intersection)


def check_edge(nodes: list, e: Edge) -> None:
    """Raises ValueError unless e joins two distinct nodes of the list and
    its intersection has smaller top degree than the larger of the two."""
    n = len(nodes)
    if not (0 <= e.a < n and 0 <= e.b < n) or e.a == e.b:
        raise ValueError(f"bad edge ({e.a}, {e.b})")
    if e.intersection.top >= max(nodes[e.a].top, nodes[e.b].top):
        raise ValueError("intersections must have strictly smaller top degree")


class IncidenceGraph:
    """Components of a divisor with their pairwise intersections."""

    def __init__(self, nodes, edges=()):
        self.nodes = [n if isinstance(n, BettiVector) else BettiVector(tuple(n))
                      for n in nodes]
        self.edges = [e if isinstance(e, Edge) else Edge(*e) for e in edges]
        for e in self.edges:
            check_edge(self.nodes, e)

    def is_forest(self) -> bool:
        parent = list(range(len(self.nodes)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for e in self.edges:
            ra, rb = find(e.a), find(e.b)
            if ra == rb:
                return False
            parent[ra] = rb
        return True


def betti_union(g: IncidenceGraph) -> BettiVector:
    """Mayer-Vietoris sum over a forest of components.

    Assumes every restriction map onto an intersection is surjective (a
    hypothesis, not proved here) and requires a cycle-free incidence
    pattern; then
    b_j(union) = sum(nodes) - sum(intersections) in every degree, the degree-0
    correction being exactly the number of connected unions.
    """
    if not g.nodes:
        raise ValueError("empty graph")
    if not g.is_forest():
        raise ValueError("cyclic intersection patterns are out of modelled scope")
    top = max(n.top for n in g.nodes)
    values = []
    for j in range(top + 1):
        v = sum(n[j] for n in g.nodes) - sum(e.intersection[j] for e in g.edges)
        values.append(v)
    return BettiVector(tuple(values))


def betti_resolution(bhat: BettiVector, exceptional: BettiVector, s: int) -> BettiVector:
    """Betti numbers of the resolution replacing s singular points.

    b_j = b_j(quotient) + s * b_j(E) for 0 < j < 7 (the gluing region is a
    rational homology 7-sphere); b_0 = b_8 = 1, and b_7 closes up by duality
    against b_1.
    """
    if bhat.top != 8:
        raise ValueError("the quotient must be 8-dimensional")
    if exceptional.top != EXCEPTIONAL_DIM:
        raise ValueError(f"the exceptional set must be {EXCEPTIONAL_DIM}-dimensional")
    if s < 0:
        raise ValueError("the number of resolved points must be >= 0")
    values = [0] * 9
    values[0] = 1
    values[8] = 1
    for j in range(1, 7):
        values[j] = bhat[j] + s * exceptional[j]
    values[7] = values[1]  # duality closure; the MV range stops at j = 6
    return BettiVector(tuple(values))
