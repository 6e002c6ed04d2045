import functools
import json
import random

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from crnlocus import (
    EGraph,
    EnumerationLimitError,
    GraphValidationError,
    complete_graph,
    is_weakly_reversible,
    linkage_classes,
    parse_egraph,
    stoich_dim,
)
from crnlocus.egraph import (
    CUT_PAIR_VERTEX_LIMIT,
    _mask_is_weakly_reversible,
    iter_wr_edge_masks,
    wr_masks_by_size,
)

from fixture_graphs import SQUARE, g_cyc, g_in, g_k4, g_long_cycle, g_two_classes
from oracles import (
    _mask_wr_by_reachability,
    brute_wr_edge_masks,
    brute_wr_masks_up_to_size,
    enumerate_wr_subgraphs,
    random_m_vertex_graph,
    random_small_egraph,
    reachability_weakly_reversible,
)


class TestParse:
    def test_round_trip_g_in(self):
        g = g_in()
        parsed = parse_egraph(g.to_json())
        assert parsed == g
        assert parsed.num_vertices == 5
        assert parsed.num_edges == 4
        assert parsed.vertices[4] == (Fraction(1, 2), Fraction(1, 2))

    def test_edge_order_preserved(self):
        text = json.dumps(
            {"n": 1, "vertices": [[0], [1], [2]], "edges": [[2, 1], [0, 1], [1, 0], [1, 2]]}
        )
        g = parse_egraph(text)
        assert g.edges == ((2, 1), (0, 1), (1, 0), (1, 2))

    def test_self_loop_rejected(self):
        text = json.dumps({"n": 1, "vertices": [[0], [1]], "edges": [[0, 0], [0, 1], [1, 0]]})
        with pytest.raises(GraphValidationError, match="self-loop"):
            parse_egraph(text)

    def test_duplicate_vertex_rejected(self):
        text = json.dumps({"n": 1, "vertices": [[0], [0]], "edges": [[0, 1]]})
        with pytest.raises(GraphValidationError, match="duplicate vertex"):
            parse_egraph(text)

    def test_duplicate_edge_rejected(self):
        text = json.dumps({"n": 1, "vertices": [[0], [1]], "edges": [[0, 1], [0, 1]]})
        with pytest.raises(GraphValidationError, match="duplicate edge"):
            parse_egraph(text)

    def test_isolated_vertex_rejected(self):
        text = json.dumps({"n": 1, "vertices": [[0], [1], [5]], "edges": [[0, 1], [1, 0]]})
        with pytest.raises(GraphValidationError, match="isolated vertex"):
            parse_egraph(text)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(GraphValidationError, match="coordinates"):
            parse_egraph(json.dumps({"n": 2, "vertices": [[0], [1, 1]], "edges": [[0, 1]]}))

    def test_malformed_json_rejected(self):
        with pytest.raises(GraphValidationError, match="malformed JSON"):
            parse_egraph("{not json")

    def test_float_coordinate_rejected(self):
        text = json.dumps({"n": 1, "vertices": [[0.5], [1]], "edges": [[0, 1]]})
        with pytest.raises(GraphValidationError, match="floats are not accepted"):
            parse_egraph(text)

    def test_index_out_of_range_rejected(self):
        text = json.dumps({"n": 1, "vertices": [[0], [1]], "edges": [[0, 7]]})
        with pytest.raises(GraphValidationError, match="out of range"):
            parse_egraph(text)

    def test_rational_strings_parse(self):
        text = json.dumps(
            {"n": 2, "vertices": [["1/2", "-3/4"], [0, 1]], "edges": [[0, 1], [1, 0]]}
        )
        g = parse_egraph(text)
        assert g.vertices[0] == (Fraction(1, 2), Fraction(-3, 4))


class TestLinkageClasses:
    def test_k4_single_class(self):
        assert linkage_classes(g_k4()) == [[0, 1, 2, 3]]

    def test_two_disjoint_edges(self):
        assert linkage_classes(g_two_classes()) == [[0, 1], [2, 3]]

    def test_cyc_single_class(self):
        assert linkage_classes(g_cyc()) == [[0, 1, 2, 3]]


class TestWeakReversibility:
    def test_fixtures(self):
        assert is_weakly_reversible(g_cyc())
        assert is_weakly_reversible(g_k4())
        assert not is_weakly_reversible(g_in())

    def test_against_reachability_oracle(self):
        rng = random.Random(20240)
        for _ in range(120):
            g = random_small_egraph(rng, max_vertices=6)
            assert is_weakly_reversible(g) == reachability_weakly_reversible(g)

    def test_long_cycle(self):
        # deeper than the interpreter's default recursion limit of 1000
        g = g_long_cycle(1500)
        assert is_weakly_reversible(g)


def _random_digraph(rng: random.Random) -> EGraph:
    """Up to four blocks of up to ten vertices on shuffled labels: directed
    cycles with chords (strongly connected) or sparse random edges (sinks
    and sources), a few edges between blocks, isolated vertices dropped."""
    labels = list(range(40))
    rng.shuffle(labels)
    edges: set[tuple[int, int]] = set()
    blocks = []
    for _ in range(rng.randint(1, 4)):
        block = [labels.pop() for _ in range(rng.randint(2, 10))]
        blocks.append(block)
        if rng.random() < 0.5:
            edges.update(zip(block, block[1:] + block[:1]))
        for s in block:
            for t in block:
                if s != t and rng.random() < 0.15:
                    edges.add((s, t))
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(blocks, 2) if len(blocks) > 1 else (blocks[0], blocks[0])
        s, t = rng.choice(a), rng.choice(b)
        if s != t:
            edges.add((s, t))
    if not edges:
        edges.add((blocks[0][0], blocks[0][1]))
    touched = sorted({v for e in edges for v in e})
    index = {v: i for i, v in enumerate(touched)}
    return EGraph(1, [(v,) for v in touched], sorted((index[s], index[t]) for s, t in edges))


class TestAgainstNetworkx:
    def test_random_graphs(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(20242)
        seen_wr = set()
        for _ in range(300):
            g = _random_digraph(rng)
            d = nx.DiGraph(g.edges)
            comps = sorted(sorted(c) for c in nx.weakly_connected_components(d))
            wr = all(nx.is_strongly_connected(d.subgraph(c)) for c in comps)
            assert linkage_classes(g) == comps
            assert is_weakly_reversible(g) == wr
            seen_wr.add((wr, len(comps) > 1))
        assert seen_wr == {(False, False), (False, True), (True, False), (True, True)}


class TestLongGraphs:
    def test_one_way_path(self):
        m = 3000
        g = EGraph(1, [(i,) for i in range(m)], [(i, i + 1) for i in range(m - 1)])
        assert linkage_classes(g) == [list(range(m))]
        assert not is_weakly_reversible(g)

    def test_cycle_with_pendant_edge(self):
        c = g_long_cycle(3000)
        g = EGraph(1, [*c.vertices, (-1,)], [*c.edges, (0, 3000)])
        assert linkage_classes(g) == [list(range(3001))]
        assert not is_weakly_reversible(g)

    def test_two_long_cycles(self):
        m = 1500
        edges = [(i, (i + 1) % m) for i in range(m)] + [(m + i, m + (i + 1) % m) for i in range(m)]
        g = EGraph(1, [(i,) for i in range(2 * m)], edges)
        assert linkage_classes(g) == [list(range(m)), list(range(m, 2 * m))]
        assert is_weakly_reversible(g)


class TestCompleteGraph:
    def test_cyc_completes_to_k4(self):
        assert complete_graph(g_cyc()) == g_k4()
        assert g_k4().num_edges == 12

    def test_single_edge(self):
        g = EGraph(1, [(0,), (1,)], [(0, 1)])
        gc = complete_graph(g)
        assert gc.edges == ((0, 1), (1, 0))

    def test_idempotent(self):
        assert complete_graph(g_k4()) == g_k4()

    def test_subset(self):
        g = g_cyc()
        assert set(g.edges) <= set(complete_graph(g).edges)


class TestEnumerateWR:
    def test_bidirected_pair_has_one(self):
        g = EGraph(1, [(0,), (1,)], [(0, 1), (1, 0)])
        subs = list(enumerate_wr_subgraphs(g))
        assert len(subs) == 1
        assert subs[0] == g

    def test_g_in_has_none(self):
        assert list(enumerate_wr_subgraphs(g_in())) == []

    def test_k4_count_matches_brute_force(self):
        g = g_k4()
        masks = list(iter_wr_edge_masks(g))
        assert masks == brute_wr_edge_masks(g)
        # 6 two-vertex pairs + 4*18 triangles + 1606 spanning + 3 pair-of-pairs
        assert len(masks) == 1687

    def test_all_yielded_are_wr_cyc(self):
        for sub in enumerate_wr_subgraphs(g_cyc()):
            assert is_weakly_reversible(sub)

    def test_cap_stops_stream(self):
        subs = list(enumerate_wr_subgraphs(g_k4(), cap=10))
        assert len(subs) == 10

    def test_negative_cap_rejected(self):
        for masks in (iter_wr_edge_masks, wr_masks_by_size):
            with pytest.raises(ValueError):
                next(masks(g_k4(), cap=-1))

    def test_edge_limit_enforced(self):
        big = EGraph(
            2,
            [(i, i * i) for i in range(6)],
            [(i, j) for i in range(6) for j in range(6) if i != j],
        )
        assert big.num_edges == 30
        with pytest.raises(EnumerationLimitError):
            next(iter_wr_edge_masks(big))
        # a cap overrides the hard limit
        assert list(iter_wr_edge_masks(big, cap=1))

    def test_by_size_matches_brute_force(self):
        def by_size(masks):
            return sorted(masks, key=lambda mask: (bin(mask).count("1"), mask))

        rng = random.Random(20242)
        graphs = [g_k4(), g_cyc()] + [random_small_egraph(rng, max_vertices=5) for _ in range(40)]
        # 6 to 8 vertices, at most 14 edges: both sides of the cut-pair limit
        for m in (6, 7, 8):
            drawn = [random_m_vertex_graph(rng, m, 2) for _ in range(8)]
            graphs += [g for g in drawn if g.num_edges <= 14][:4]
        assert {g.cut_pairs is None for g in graphs} == {False, True}
        for g in graphs:
            expected = by_size(brute_wr_edge_masks(g))
            assert list(wr_masks_by_size(g)) == expected
            for cap in (0, 1, 2, 5, len(expected) + 1):
                assert list(wr_masks_by_size(g, cap=cap)) == expected[:cap]
        # 30 edges: beyond the limit without a cap; with one, the smallest
        # subsets come first (15 two-cycles, then three-cycles)
        big = EGraph(
            2,
            [(i, i * i) for i in range(6)],
            [(i, j) for i in range(6) for j in range(6) if i != j],
        )
        assert big.num_edges == 30
        with pytest.raises(EnumerationLimitError):
            next(wr_masks_by_size(big))
        expected = brute_wr_masks_up_to_size(big, 3)
        assert len(expected) == 15 + 2 * 20
        assert list(wr_masks_by_size(big, cap=len(expected))) == expected


@functools.cache
def _complete_on_line(m: int) -> EGraph:
    """The complete graph on the points 0, ..., m-1 of Q^1."""
    return complete_graph(EGraph(1, [(i,) for i in range(m)], [(i, (i + 1) % m) for i in range(m)]))


@st.composite
def complete_graph_masks(draw, sizes: range):
    """K_m for m in ``sizes``, with a mask of up to 2m random edges, or a
    union of 1 to 3 random cycles (weakly reversible), or such a union and
    one more random edge (often not)."""
    g = _complete_on_line(draw(st.sampled_from(sizes)))
    m, edge = g.num_vertices, st.integers(0, g.num_edges - 1)
    kind = draw(st.sampled_from(["edges", "cycles", "cycles and an edge"]))
    if kind == "edges":
        return g, sum({1 << ei for ei in draw(st.lists(edge, max_size=2 * m))})
    mask = 0
    for _ in range(draw(st.integers(1, 3))):
        cycle = draw(st.permutations(range(m)))[: draw(st.integers(2, m))]
        for e in zip(cycle, cycle[1:] + cycle[:1]):
            mask |= 1 << g.edges.index(e)
    if kind == "cycles and an edge":
        mask |= 1 << draw(edge)
    return g, mask


class TestMaskWeakReversibility:
    """The per-mask test takes the cut pairs up to CUT_PAIR_VERTEX_LIMIT
    vertices and the bitset closure past it; each path meets the oracle."""

    @pytest.mark.parametrize(
        "sizes",
        [range(2, CUT_PAIR_VERTEX_LIMIT + 1), range(CUT_PAIR_VERTEX_LIMIT + 1, 10)],
        ids=["cut_pairs", "closure"],
    )
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_reachability_oracle(self, sizes, data):
        g, mask = data.draw(complete_graph_masks(sizes))
        assert (g.cut_pairs is None) == (g.num_vertices > CUT_PAIR_VERTEX_LIMIT)
        assert _mask_is_weakly_reversible(g, mask) == _mask_wr_by_reachability(g, mask)

    def test_cut_pairs_of_a_cycle(self):
        # 0 -> 1 -> 2 -> 0: U = {0} and U = {0, 1} are cut once each way
        g = EGraph(1, [(0,), (1,), (2,)], [(0, 1), (1, 2), (2, 0)])
        assert g.cut_pairs == ((0b001, 0b100), (0b010, 0b100), (0b001, 0b010))


class TestStoichDim:
    def test_fixture_dims(self):
        assert stoich_dim(g_k4()) == 2
        assert stoich_dim(g_cyc()) == 2
        assert stoich_dim(g_in()) == 2

    def test_single_diagonal_edge(self):
        g = EGraph(2, [(0, 0), (1, 1)], [(0, 1)])
        assert stoich_dim(g) == 1

    def test_bounded_by_n_and_edges(self):
        rng = random.Random(99)
        for _ in range(60):
            g = random_small_egraph(rng)
            assert stoich_dim(g) <= min(g.n, g.num_edges)


def test_content_hash_stable_and_order_sensitive():
    g = g_cyc()
    assert g.content_hash == g_cyc().content_hash
    reordered = EGraph(2, SQUARE, list(reversed(g.edges)))
    assert reordered.content_hash != g.content_hash
