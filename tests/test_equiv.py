import random
from fractions import Fraction
from pathlib import Path

import pytest

from crnlocus import (
    EGraph,
    EdgeVector,
    VectorGraphMismatchError,
    d0_basis,
    edge_vector_from_json,
    is_dynamically_equivalent,
    is_weakly_reversible,
    j0_basis,
    linkage_classes,
    net_vectors,
    parse_egraph,
    realize_on,
)
from crnlocus import cone, equiv, exactla, toric
from crnlocus.cone import positive_point
from crnlocus.equiv import balance_rows
from crnlocus.exactla import combine, vec

from capped import run_capped
from fixture_graphs import (
    CENTER,
    dependency_vectors,
    g_cyc,
    g_in,
    g_k4,
    g_long_cycle,
    g_three_cycle,
    g_two_classes,
    g_two_vertex,
)
from oracles import (
    balance_subspace,
    d0_constraint_matrix,
    global_reduction_d0_basis,
    direct_float_mass_action_rhs,
    direct_mass_action_rhs,
    direct_net_vectors,
    is_subspace_of,
    mass_action_rhs,
    naive_kernel_subspace,
    random_edge_vector,
    random_four_vertex_graph,
    random_positive_rational,
    random_small_egraph,
    random_wr_egraph,
)


class TestNetVectors:
    def test_g_in_uniform(self):
        g = g_in()
        nets = net_vectors(g, EdgeVector.uniform(g))
        for corner in [(0, 0), (1, 0), (1, 1), (0, 1)]:
            coords = vec(corner)
            expected = tuple(c - x for c, x in zip(CENTER, coords))
            assert nets[coords] == expected
        assert nets[CENTER] == (0, 0)

    def test_g_k4_uniform_golden(self):
        g = g_k4()
        nets = net_vectors(g, EdgeVector.uniform(g))
        assert nets[vec((0, 0))] == (2, 2)
        assert nets[vec((1, 0))] == (-2, 2)
        assert nets[vec((1, 1))] == (-2, -2)
        assert nets[vec((0, 1))] == (2, -2)

    def test_zero_weights(self):
        g = g_cyc()
        nets = net_vectors(g, EdgeVector(g, [0] * 8))
        assert all(v == (0, 0) for v in nets.values())

    def test_matches_direct_oracle(self):
        rng = random.Random(31)
        for _ in range(50):
            g = random_small_egraph(rng)
            w = random_edge_vector(g, rng)
            assert net_vectors(g, w) == direct_net_vectors(g, w.values)

    def test_wrong_graph_rejected(self):
        with pytest.raises(ValueError):
            net_vectors(g_cyc(), EdgeVector.uniform(g_k4()))


class TestMassActionRhs:
    def test_k4_uniform_cancels_at_ones(self):
        g = g_k4()
        assert mass_action_rhs(g, EdgeVector.uniform(g), (1, 1)) == (0, 0)

    def test_zero_state_rejected(self):
        g = g_cyc()
        with pytest.raises(ValueError, match="positive"):
            mass_action_rhs(g, EdgeVector.uniform(g), (1, 0))

    def test_single_edge_hand_value(self):
        g = EGraph(2, [(0, 0), (1, 0)], [(0, 1)])
        assert mass_action_rhs(g, EdgeVector(g, [2]), (3, 5)) == (2, 0)

    def test_matches_direct_oracle(self):
        rng = random.Random(77)
        for _ in range(40):
            g = random_small_egraph(rng)
            k = random_edge_vector(g, rng, positive=True)
            x = tuple(random_positive_rational(rng) for _ in range(g.n))
            assert mass_action_rhs(g, k, x) == direct_mass_action_rhs(g, k.values, x)

    def test_float_mode_bit_identical_to_direct_oracle(self):
        rng = random.Random(78)
        for den in (1, 2) * 20:
            g = random_four_vertex_graph(rng, rng.randint(1, 3), den)
            k = random_edge_vector(g, rng, positive=True)
            x = tuple(rng.uniform(0.1, 3.0) for _ in range(g.n))
            assert mass_action_rhs(g, k, x) == direct_float_mass_action_rhs(g, k.values, x)

    def test_exact_mode_requires_integer_coords(self):
        g = g_in()  # center at (1/2, 1/2)
        approx = mass_action_rhs(g, EdgeVector.uniform(g), (2, 2))
        assert all(isinstance(v, float) for v in approx)

    def test_exact_results_are_fractions(self):
        g = g_cyc()
        out = mass_action_rhs(g, EdgeVector.uniform(g), (Fraction(1, 2), 2))
        assert all(isinstance(v, Fraction) for v in out)


class TestD0J0:
    def test_cyc_trivial(self):
        assert d0_basis(g_cyc()).dim == 0
        assert j0_basis(g_cyc()).dim == 0

    def test_k4_dims(self):
        assert d0_basis(g_k4()).dim == 4
        assert j0_basis(g_k4()).dim == 3

    def test_single_edge_trivial(self):
        g = EGraph(2, [(0, 0), (1, 1)], [(0, 1)])
        assert d0_basis(g).dim == 0

    def test_k4_v_vectors_span_d0(self):
        g = g_k4()
        d0 = d0_basis(g)
        v = dependency_vectors(g)
        for name in ("v1", "v2", "v3", "v4"):
            assert d0.contains(v[name])

    def test_j0_membership_structure(self):
        g = g_k4()
        j0 = j0_basis(g)
        v = dependency_vectors(g)
        add = lambda a, b: [x + y for x, y in zip(a, b)]
        assert j0.contains(add(v["v1"], v["v2"]))
        assert not j0.contains(v["v1"])

    def test_j0_inside_d0(self):
        rng = random.Random(13)
        graphs = [g_cyc(), g_k4(), g_in()] + [random_small_egraph(rng) for _ in range(30)]
        for g in graphs:
            assert is_subspace_of(j0_basis(g), d0_basis(g))

    def test_d0_net_vectors_vanish(self):
        g = g_k4()
        for b in d0_basis(g).basis:
            nets = net_vectors(g, EdgeVector(g, b))
            assert all(all(x == 0 for x in v) for v in nets.values())

    def test_blockwise_kernels_match_monolithic(self):
        # the per-vertex assembly must give the canonical bases of the
        # naive kernels of the full stacked constraint matrices
        rng = random.Random(321)
        graphs = [g_cyc(), g_k4(), g_in()] + [random_small_egraph(rng) for _ in range(25)]
        for g in graphs:
            dm = d0_constraint_matrix(g)
            rows = [dm.row(i) for i in range(dm.rows)]
            assert d0_basis(g) == naive_kernel_subspace(rows, g.num_edges)
            assert j0_basis(g) == naive_kernel_subspace(rows + balance_rows(g), g.num_edges)


def _random_graph(rng: random.Random) -> EGraph:
    """n = 1-3, 2-6 vertices, sinks and several linkage classes allowed,
    edges in shuffled order half the time."""
    n = rng.randint(1, 3)
    m = rng.randint(2, 6)
    coords = set()
    while len(coords) < m:
        coords.add(tuple(Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(n)))
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    if m >= 4 and rng.random() < 0.4:  # no edge between the two halves
        pairs = [(i, j) for i, j in pairs if (i < m // 2) == (j < m // 2)]
    edges = rng.sample(pairs, rng.randint(1, min(len(pairs), 3 * m)))
    if rng.random() < 0.5:
        edges.sort()
    touched = sorted({v for e in edges for v in e})
    remap = {v: i for i, v in enumerate(touched)}
    verts = sorted(coords)
    return EGraph(n, [verts[v] for v in touched], [(remap[s], remap[t]) for s, t in edges])


class TestD0VertexBlocks:
    """The vertex blocks of D0, ordered by pivot, are the basis one global
    reduction of every per-vertex kernel gives, tuple for tuple."""

    def test_fixtures(self):
        data = Path(__file__).parent / "data"
        graphs = [g_cyc(), g_k4(), g_in(), g_two_vertex(), g_three_cycle(), g_two_classes()]
        graphs += [g_long_cycle(40)]
        graphs += [
            parse_egraph((data / f"{name}.json").read_text())
            for name in ("de_diag", "de_split", "line")
        ]
        for g in graphs:
            assert d0_basis(g).basis == global_reduction_d0_basis(g).basis

    def test_random_graphs(self):
        rng = random.Random(1517)
        shapes = {"shuffled": 0, "sink": 0, "classes": 0, "nonzero": 0}
        for _ in range(300):
            g = _random_graph(rng)
            basis = d0_basis(g).basis
            assert basis == global_reduction_d0_basis(g).basis
            shapes["shuffled"] += list(g.edges) != sorted(g.edges)
            shapes["sink"] += not all(g.out_edges)
            shapes["classes"] += len(linkage_classes(g)) > 1
            shapes["nonzero"] += bool(basis)
        assert min(shapes.values()) >= 30, shapes


@pytest.fixture
def bareiss_calls(monkeypatch):
    """Counts the calls of ``exactla.bareiss`` made from any crnlocus module."""
    calls = []
    original = exactla.bareiss

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (exactla, equiv, cone, toric):
        if getattr(module, "bareiss", None) is original:
            monkeypatch.setattr(module, "bareiss", counted)
    return calls


class TestOneEliminationPerBasis:
    """Each canonical basis comes from one elimination: its kernel is read
    off in reduced echelon form, with no second reduction of the span."""

    def test_cone_basis(self, bareiss_calls, monkeypatch):
        # jr_dimension eliminates each vertex's local cone rows once, as
        # d0_basis does, and once more to restrict their sum to balance, as
        # for J0, or to rank their balance images when the cone is empty;
        # a cone cut by balance alone needs neither.  The target's normals
        # and the witness's membership re-check are not counted.
        def uncounted(name):
            original = getattr(cone, name)

            def run(*args):
                before = len(bareiss_calls)
                try:
                    return original(*args)
                finally:
                    del bareiss_calls[before:]

            monkeypatch.setattr(cone, name, run)

        uncounted("out_span_normals")
        uncounted("is_member_jr")
        from test_cone import empty_pair

        pairs = [(g_k4(), g_in(), 1), (g_k4(), g_cyc(), 0), (g_cyc(), g_in(), 1),
                 (g_k4(), g_k4(), 0), (*empty_pair(), 1)]
        for g1, g, past_balance in pairs:
            before = len(bareiss_calls)
            res = cone.jr_dimension(g1, g)
            vertices = sum(1 for out in g1.out_edges if out)
            assert len(bareiss_calls) - before == vertices + past_balance
            assert res.tilde_dim == cone.jr_subspace(g1, g).dim

    def test_restrict_to_kernel(self, bareiss_calls):
        rng = random.Random(19)
        graphs = [g_k4()] + [random_small_egraph(rng, 5) for _ in range(20)]
        bases = [(g, d0_basis(g)) for g in graphs]
        assert sum(1 for _, d0 in bases if d0.basis) >= 5
        for g, d0 in bases:
            if not d0.basis:
                continue
            before = len(bareiss_calls)
            equiv.restrict_to_kernel(d0, balance_rows(g))
            assert len(bareiss_calls) - before == 1

    def test_d0_basis_once_per_vertex_with_out_edges(self, bareiss_calls):
        rng = random.Random(19)
        graphs = [g_k4(), g_in(), g_cyc()] + [random_small_egraph(rng) for _ in range(20)]
        assert any(not all(g.out_edges) for g in graphs)  # sinks make no elimination
        for g in graphs:
            before = len(bareiss_calls)
            d0_basis(g)
            assert len(bareiss_calls) - before == sum(1 for out in g.out_edges if out)

    def test_j0_basis_on_a_long_path_under_capped_memory(self):
        # The kernels keep a banded matrix banded: about 0.4 s of CPU on a
        # 600-vertex bidirected path (2 shared CPUs), where mirroring the
        # columns alone fills the pivot search in and takes about 10 s.
        code = (
            "import time; from crnlocus import EGraph; from crnlocus.equiv import j0_basis; "
            "m = 600; edges = sorted([(i, i + 1) for i in range(m - 1)] "
            "+ [(i + 1, i) for i in range(m - 1)]); "
            "g = EGraph(1, [(i,) for i in range(m)], edges); "
            "t = time.process_time(); s = j0_basis(g); "
            "print(s.dim, time.process_time() - t)"
        )
        proc = run_capped(code)
        assert proc.returncode == 0, proc.stderr
        dim, cpu = proc.stdout.split()
        assert int(dim) == 0  # the path is a tree: no balanced flux
        assert float(cpu) < 5.0


class TestDynamicalEquivalence:
    def test_two_target_collapse_example(self):
        # one source at (1,1) feeding (0,1) and (1,0) with unit rates is the
        # same field as a single unit-rate edge toward the origin
        g = EGraph(2, [(1, 1), (0, 1), (1, 0)], [(0, 1), (0, 2)])
        g2 = EGraph(2, [(1, 1), (0, 0)], [(0, 1)])
        assert is_dynamically_equivalent(g, EdgeVector(g, [1, 1]), g2, EdgeVector(g2, [1]))

    def test_reflexive(self):
        g = g_cyc()
        k = EdgeVector(g, [1, 2, 3, 4, 5, 6, 7, 8])
        assert is_dynamically_equivalent(g, k, g, k)

    def test_d0_shift_iff_equivalent(self):
        rng = random.Random(101)
        g = g_k4()
        d0 = d0_basis(g)
        for _ in range(30):
            k = random_edge_vector(g, rng)
            coeffs = [random_positive_rational(rng) for _ in range(d0.dim)]
            d = combine(coeffs, d0.basis, g.num_edges)
            k2 = EdgeVector(g, [a + b for a, b in zip(k.values, d)])
            assert is_dynamically_equivalent(g, k, g, k2)
            off = random_edge_vector(g, rng)
            if not d0.contains(off.values):
                k3 = EdgeVector(g, [a + b for a, b in zip(k.values, off.values)])
                assert not is_dynamically_equivalent(g, k, g, k3)

    def test_dimension_mismatch_rejected(self):
        g1 = EGraph(1, [(0,), (1,)], [(0, 1)])
        g2 = g_cyc()
        with pytest.raises(ValueError):
            is_dynamically_equivalent(g1, EdgeVector(g1, [1]), g2, EdgeVector.uniform(g2))


class TestFluxEquivalence:
    def test_j0_shift_preserves_flux_equivalence(self):
        g = g_k4()
        v = dependency_vectors(g)
        shift = [a + b for a, b in zip(v["v1"], v["v2"])]
        j = EdgeVector.uniform(g)
        j2 = EdgeVector(g, [a + b for a, b in zip(j.values, shift)])
        assert is_dynamically_equivalent(g, j, g, j2)

    def test_identical(self):
        g = g_cyc()
        j = EdgeVector.uniform(g)
        assert is_dynamically_equivalent(g, j, g, j)

    def test_scaling_breaks_equivalence(self):
        g = g_cyc()
        assert not is_dynamically_equivalent(
            g, EdgeVector.uniform(g), g, EdgeVector.uniform(g, 2)
        )


class TestRealizeOn:
    def test_k4_uniform_on_g_in(self):
        r = realize_on(g_k4(), EdgeVector.uniform(g_k4()), g_in())
        assert r is not None
        assert r.values == vec([4, 4, 4, 4])

    def test_self_realization_canonical(self):
        g = g_cyc()  # D0 = 0, so the canonical solution is k itself
        k = EdgeVector(g, [1, 2, 3, 4, 5, 6, 7, 8])
        r = realize_on(g, k, g)
        assert r.values == k.values

    def test_self_realization_idempotent(self):
        g = g_k4()
        k = EdgeVector.uniform(g)
        r1 = realize_on(g, k, g)
        r2 = realize_on(g, r1, g)
        assert r1.values == r2.values
        assert is_dynamically_equivalent(g, k, g, r1)

    def test_not_realizable(self):
        g_src = EGraph(2, [(0, 0), (0, 1)], [(0, 1)])  # net (0,1) at origin
        g_tgt = EGraph(2, [(0, 0), (1, 0)], [(0, 1)])  # only direction (1,0)
        assert realize_on(g_src, EdgeVector(g_src, [1]), g_tgt) is None

    def test_success_implies_equivalence(self):
        rng = random.Random(4242)
        done = 0
        while done < 40:
            g_src = random_small_egraph(rng)
            g_tgt = random_wr_egraph(rng)
            if g_src.n != g_tgt.n:
                continue
            w = random_edge_vector(g_src, rng)
            r = realize_on(g_src, w, g_tgt)
            if r is not None:
                assert is_dynamically_equivalent(g_src, w, g_tgt, r)
            done += 1


class TestProp226:
    """Dynamical equivalence matches flux equivalence of the induced fluxes,
    at one state and at all states."""

    def test_equivalence_of_characterizations(self):
        rng = random.Random(2026)
        checked_true = 0
        for trial in range(60):
            g = random_wr_egraph(rng)
            k = random_edge_vector(g, rng, positive=True)
            if trial % 2 == 0:
                # construct an equivalent partner by a D0 shift
                d0 = d0_basis(g)
                if d0.dim:
                    coeffs = [random_positive_rational(rng) for _ in range(d0.dim)]
                    shift = combine(coeffs, d0.basis, g.num_edges)
                else:
                    shift = [Fraction(0)] * g.num_edges
                g2, k2 = g, EdgeVector(g, [a + b for a, b in zip(k.values, shift)])
            else:
                g2 = random_wr_egraph(rng)
                if g2.n != g.n:
                    continue
                k2 = random_edge_vector(g2, rng, positive=True)
            de = is_dynamically_equivalent(g, k, g2, k2)
            # at x = (1,...,1) the induced fluxes are the rate vectors themselves
            ones = tuple(Fraction(1) for _ in range(g.n))
            assert de == _flux_equiv_at(g, k, g2, k2, ones)
            for _ in range(5):
                x = tuple(random_positive_rational(rng) for _ in range(g.n))
                assert de == _flux_equiv_at(g, k, g2, k2, x)
            checked_true += de
        assert checked_true >= 10  # the suite exercised both outcomes


def _flux_equiv_at(g, k, g2, k2, x):
    from crnlocus.equiv import state_power

    j = EdgeVector(
        g, [k.values[e] * state_power(x, g.vertices[g.edges[e][0]], True) for e in range(g.num_edges)]
    )
    j2 = EdgeVector(
        g2,
        [k2.values[e] * state_power(x, g2.vertices[g2.edges[e][0]], True) for e in range(g2.num_edges)],
    )
    return is_dynamically_equivalent(g, j, g2, j2)


def test_positive_balanced_flux_exists_iff_wr_fixtures():
    for g in (g_cyc(), g_k4(), g_in()):
        res = positive_point(balance_subspace(g))
        assert res.feasible == is_weakly_reversible(g)


class TestEdgeVectorSerialization:
    def test_round_trip(self):
        g = g_cyc()
        v = EdgeVector(g, [Fraction(1, 3), 2, 3, 4, 5, 6, 7, Fraction(-9, 2)])
        assert edge_vector_from_json(g, v.to_json()) == v

    def test_hash_mismatch_rejected(self):
        g, g2 = g_cyc(), g_k4()
        v = EdgeVector.uniform(g)
        with pytest.raises(VectorGraphMismatchError):
            edge_vector_from_json(g2, v.to_json())

    def test_length_mismatch_rejected(self):
        g = g_cyc()
        with pytest.raises(ValueError):
            EdgeVector(g, [1, 2, 3])
