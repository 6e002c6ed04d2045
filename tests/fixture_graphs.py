"""Shared graph fixtures: the unit square family used across the suite.

Edge order is always lexicographic by (source index, target index).
"""

from fractions import Fraction

from crnlocus import EGraph, complete_graph

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
CENTER = (Fraction(1, 2), Fraction(1, 2))


def g_cyc() -> EGraph:
    """Bidirected 4-cycle on the unit square (8 edges)."""
    return EGraph(2, SQUARE, [(0, 1), (0, 3), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0), (3, 2)])


def g_k4() -> EGraph:
    """Complete digraph on the unit square (12 edges)."""
    return complete_graph(g_cyc())


def g_in() -> EGraph:
    """Four corner-to-center reactions (5 vertices, 4 edges, not weakly reversible)."""
    return EGraph(2, SQUARE + [CENTER], [(0, 4), (1, 4), (2, 4), (3, 4)])


def g_two_vertex() -> EGraph:
    """Reversible pair 0 <-> 1 on the line."""
    return EGraph(1, [(0,), (1,)], [(0, 1), (1, 0)])


def g_three_cycle() -> EGraph:
    """Directed triangle in the plane."""
    return EGraph(2, [(0, 0), (1, 0), (0, 1)], [(0, 1), (1, 2), (2, 0)])


def g_two_classes() -> EGraph:
    """Two disjoint reversible pairs (two linkage classes)."""
    return EGraph(2, [(0, 0), (1, 0), (0, 2), (1, 2)], [(0, 1), (1, 0), (2, 3), (3, 2)])


def dependency_vectors(g) -> dict[str, list[Fraction]]:
    """The four dependency vectors of the complete square graph.

    v_i is supported on the outgoing edges of fixture vertex i-1: +1
    toward the two adjacent corners, -1 toward the opposite corner.  The
    corners go round the square, (0,0), (1,0), (1,1), (0,1), so v1 is
    opposite v3 and v2 is opposite v4.  Each v_i lies in D0, and
    sum c_i v_i lies in J0 exactly when c1 + c3 = c2 + c4.
    """
    edges = g.edges

    def mk(support: dict) -> list[Fraction]:
        return [Fraction(support.get(e, 0)) for e in edges]

    return {
        "v1": mk({(0, 1): 1, (0, 3): 1, (0, 2): -1}),
        "v2": mk({(1, 0): 1, (1, 2): 1, (1, 3): -1}),
        "v3": mk({(2, 1): 1, (2, 3): 1, (2, 0): -1}),
        "v4": mk({(3, 0): 1, (3, 2): 1, (3, 1): -1}),
    }


def g_long_cycle(m: int = 1500) -> EGraph:
    """A directed m-cycle on the line."""
    return EGraph(1, [(i,) for i in range(m)], [(i, (i + 1) % m) for i in range(m)])
