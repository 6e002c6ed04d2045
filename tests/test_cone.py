import itertools
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnlocus import (
    EGraph,
    EdgeVector,
    NotWeaklyReversibleError,
    PositivityResult,
    Subspace,
    is_complex_balanced_flux,
    is_member_jr,
    is_weakly_reversible,
    jr_dimension,
    jr_subspace,
    positive_point,
)
from crnlocus import cone, equiv
from crnlocus.cone import _cycle_flux
from crnlocus.egraph import complete_graph, linkage_classes, parse_egraph
from crnlocus.exactla import combine, dot, subspace_from_span, vec
from crnlocus.locus import canonical_j0_obasis

from fixture_graphs import g_cyc, g_in, g_k4, g_long_cycle
from oracles import (
    balance_subspace,
    direct_flux_imbalance,
    has_positive_kernel_point,
    hat_jr_dimension,
    local_cone_blocks,
    monolithic_jr_subspace,
    naive_rref,
    random_four_vertex_graph,
    random_m_vertex_graph,
    random_positive_rational,
    random_wr_subgraph,
)

FIXTURE_PAIRS = [
    ("cyc->in", g_cyc(), g_in(), 1),
    ("k4->in", g_k4(), g_in(), 5),
    ("k4->cyc", g_k4(), g_cyc(), 9),
    ("k4->k4", g_k4(), g_k4(), 9),
]


def empty_pair():
    """A side pair realized on the center-pointing graph: forced empty."""
    g1 = EGraph(2, [(0, 0), (1, 0)], [(0, 1), (1, 0)])
    g = g_in()
    return g1, g


class TestJrSubspace:
    @pytest.mark.parametrize("name,g1,g,dim", FIXTURE_PAIRS)
    def test_fixture_dims(self, name, g1, g, dim):
        assert jr_subspace(g1, g).dim == dim

    def test_not_wr_refused(self):
        with pytest.raises(NotWeaklyReversibleError):
            jr_subspace(g_in(), g_cyc())

    def test_subspace_members_satisfy_balance(self):
        g1, g = g_k4(), g_in()
        s = jr_subspace(g1, g)
        for b in s.basis:
            assert not any(direct_flux_imbalance(g1, b))

    @pytest.mark.parametrize("name,g1,g,dim", FIXTURE_PAIRS)
    def test_matches_monolithic_construction(self, name, g1, g, dim):
        # The canonical basis, not just the span, is pinned: the simplex
        # pivots on it, so it fixes every printed witness.
        oracle = monolithic_jr_subspace(g1, g)
        assert jr_subspace(g1, g) == oracle
        assert oracle.dim == dim


class TestPositivePoint:
    def test_negative_line_infeasible(self):
        res = positive_point(Subspace(2, (vec([1, -1]),)))
        assert not res.feasible
        cert = res.certificate
        assert all(c >= 0 for c in cert) and any(c > 0 for c in cert)
        assert dot(cert, vec([1, -1])) == 0

    def test_positive_line_feasible(self):
        res = positive_point(Subspace(2, (vec([1, 1]),)))
        assert res.feasible
        assert all(v >= 1 for v in res.point)

    def test_jr_k4_in_feasible(self):
        res = positive_point(jr_subspace(g_k4(), g_in()))
        assert res.feasible

    def test_zero_subspace_infeasible(self):
        res = positive_point(Subspace(3, ()))
        assert not res.feasible

    def test_mixed_random_subspaces(self):
        rng = random.Random(808)
        for _ in range(60):
            amb = rng.randint(1, 6)
            k = rng.randint(1, 3)
            basis = subspace_from_span(
                [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(amb)] for _ in range(k)],
                amb,
            )
            res = positive_point(basis)
            if res.feasible:
                assert all(v >= 1 for v in res.point)
                assert basis.contains(res.point)
            else:
                cert = res.certificate
                assert all(c >= 0 for c in cert) and any(c > 0 for c in cert)
                for b in basis.basis:
                    assert dot(cert, b) == 0


class TestJrDimension:
    @pytest.mark.parametrize("name,g1,g,dim", FIXTURE_PAIRS)
    def test_fixture_results(self, name, g1, g, dim):
        res = jr_dimension(g1, g)
        assert res.status == "nonempty"
        assert res.dim == dim
        assert is_member_jr(g1, g, res.witness)

    def test_empty_pair_certified(self):
        g1, g = empty_pair()
        res = jr_dimension(g1, g)
        assert res.status == "empty"
        assert res.dim == 0
        cert = res.certificate
        assert all(c >= 0 for c in cert) and any(c > 0 for c in cert)
        for b in jr_subspace(g1, g).basis:
            assert dot(cert, b) == 0

    def test_sign_definite_row_decides_without_simplex(self, monkeypatch):
        def no_simplex(*args):
            raise AssertionError("the simplex ran on a cone with a sign-definite row")

        monkeypatch.setattr(cone, "_phase1_simplex", no_simplex)
        g1, g = empty_pair()
        res = jr_dimension(g1, g)
        assert res.status == "empty" and res.dim == 0
        cert = res.certificate
        assert all(isinstance(c, Fraction) and c >= 0 for c in cert) and any(cert)
        for b in jr_subspace(g1, g).basis:
            assert dot(cert, b) == 0

    def test_not_wr_refused_before_ambient_dimension(self):
        one_way = EGraph(1, [(0,), (1,)], [(0, 1)])
        with pytest.raises(NotWeaklyReversibleError):
            jr_dimension(one_way, g_k4())
        line = EGraph(1, [(0,), (1,)], [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="^ambient dimensions differ: 2 vs 1$"):
            jr_dimension(line, g_k4())

    def test_json_shape(self):
        res = jr_dimension(g_cyc(), g_in())
        d = res.to_json_dict()
        assert d["status"] == "nonempty"
        assert d["dim"] == d["tilde_dim"] == 1
        assert d["witness"] is not None

    def test_status_matches_lp_feasibility(self):
        # the cycle-completion shortcut must agree with the simplex verdict,
        # and the reported tilde_dim with the dimension of the canonical basis
        pairs = [(g1, g) for _, g1, g, _ in FIXTURE_PAIRS] + [empty_pair()]
        for g1, g in pairs:
            res = jr_dimension(g1, g)
            tilde = jr_subspace(g1, g)
            assert positive_point(tilde).feasible == (res.status == "nonempty")
            assert res.to_json_dict()["tilde_dim"] == tilde.dim

    def test_balance_only_cone_builds_no_basis(self, monkeypatch):
        def no_basis(*args):
            raise AssertionError("a balance-only cone built a basis")

        monkeypatch.setattr(equiv, "embed_kernels", no_basis)
        monkeypatch.setattr(cone, "restrict_to_kernel", no_basis)
        for g1, g in [(g_k4(), g_k4()), (g_long_cycle(50), g_long_cycle(50))]:
            res = jr_dimension(g1, g)
            assert res.status == "nonempty" and res.dim == res.tilde_dim
            assert is_member_jr(g1, g, res.witness)

    def test_empty_cone_builds_no_edge_space_basis(self, monkeypatch):
        # An empty cone is decided at one vertex: its certificate is checked
        # against that vertex's local kernel, and tilde_dim is an integer
        # rank, so no local kernel is embedded in the edge space.
        def no_basis(*args):
            raise AssertionError("an empty cone built an edge-space basis")

        monkeypatch.setattr(equiv, "embed_kernels", no_basis)
        monkeypatch.setattr(cone, "restrict_to_kernel", no_basis)
        pairs = [empty_pair()] + _golden_pairs("row_3d") + _golden_pairs("simplex_empty")
        assert len(pairs) == 5
        for g1, g in pairs:
            res = jr_dimension(g1, g)
            oracle = monolithic_jr_subspace(g1, g)
            assert res.status == "empty" and res.dim == 0, (g1, g)
            assert res.tilde_dim == oracle.dim, (g1, g)
            cert = res.certificate
            support = {ei for ei, c in enumerate(cert) if c}
            assert support and all(c >= 0 for c in cert), (g1, g)
            assert any(support <= set(out) for out in g1.out_edges), (g1, g)
            assert not any(dot(cert, b) for b in oracle.basis), (g1, g)

    def test_unbalanced_cycle_flux_refused(self, monkeypatch):
        # positive but unbalanced: one edge carries two units
        def unbalanced(g1):
            return EdgeVector(g1, [1] * (g1.num_edges - 1) + [2])

        monkeypatch.setattr(cone, "_cycle_flux", unbalanced)
        with pytest.raises(RuntimeError, match="^cycle flux fell outside the balance kernel$"):
            jr_dimension(g_k4(), g_k4())


def _sweep_graphs(max_edges):
    """Every graph on the edges of the complete square graph with at most
    ``max_edges`` edges, its vertices renumbered in coordinate order."""
    base = g_k4()
    for size in range(1, max_edges + 1):
        for combo in itertools.combinations(range(12), size):
            sub_edges = [base.edges[i] for i in combo]
            touched = sorted({v for e in sub_edges for v in e})
            remap = {v: i for i, v in enumerate(touched)}
            yield EGraph(
                2, [base.vertices[v] for v in touched], [(remap[s], remap[t]) for s, t in sub_edges]
            )


class TestCycleFlux:
    """The balance-only witness: integral, strictly positive and balanced."""

    @staticmethod
    def _check(g):
        values = _cycle_flux(g).values
        assert all(v.denominator == 1 and v >= 1 for v in values)
        assert not any(direct_flux_imbalance(g, values))

    def test_weakly_reversible_sweep(self):
        wr = [g for g in _sweep_graphs(8) if is_weakly_reversible(g)]
        assert len(wr) > 100
        for g in wr:
            self._check(g)

    def test_long_cycle(self):
        g = g_long_cycle(3000)
        self._check(g)
        # each edge closes through the root into the whole cycle
        assert _cycle_flux(g).values == vec([3000] * 3000)

    def test_long_bidirected_path(self):
        m = 3000
        edges = [(i, i + 1) for i in range(m - 1)] + [(i + 1, i) for i in range(m - 1)]
        self._check(EGraph(1, [(i,) for i in range(m)], edges))

    def test_k4_witness(self):
        assert _cycle_flux(g_k4()).values == vec([4, 4, 4, 4, 1, 1, 4, 1, 1, 4, 1, 1])


class TestHatDimension:
    @pytest.mark.parametrize("name,g1,g,dim", FIXTURE_PAIRS)
    def test_matches_plain_dimension(self, name, g1, g, dim):
        assert hat_jr_dimension(g1, g) == dim

    def test_empty_rejected(self):
        g1, g = empty_pair()
        with pytest.raises(ValueError):
            hat_jr_dimension(g1, g)


class TestMembership:
    def test_uniform_on_k4_realizable_on_in(self):
        assert is_member_jr(g_k4(), g_in(), EdgeVector.uniform(g_k4()))

    def test_uniform_on_cyc_realizable_on_in(self):
        assert is_member_jr(g_cyc(), g_in(), EdgeVector.uniform(g_cyc()))

    def test_unbalanced_rejected(self):
        g = g_k4()
        j = EdgeVector(g, [1] * 11 + [2])
        assert not is_complex_balanced_flux(g, j)
        assert not is_member_jr(g, g_in(), j)

    def test_nonpositive_raises(self):
        g = g_k4()
        with pytest.raises(ValueError, match="positive"):
            is_member_jr(g, g_in(), EdgeVector(g, [0] + [1] * 11))


class TestOpenness:
    """A witness stays in the cone under small shifts along J0 directions."""

    def test_basis_direction_perturbations(self):
        for name, g1, g, _ in FIXTURE_PAIRS:
            res = jr_dimension(g1, g)
            j = res.witness
            for a in canonical_j0_obasis(g1):
                eps = _safe_eps(j.values, a)
                for sign in (1, -1):
                    shifted = EdgeVector(
                        g1, [v + sign * eps * x for v, x in zip(j.values, a)]
                    )
                    assert is_member_jr(g1, g, shifted)

    def test_random_j0_directions(self):
        rng = random.Random(55)
        g1, g = g_k4(), g_in()
        res = jr_dimension(g1, g)
        j = res.witness
        basis = canonical_j0_obasis(g1)
        for _ in range(20):
            coeffs = [random_positive_rational(rng) - 1 for _ in basis]
            r = combine(coeffs, basis, g1.num_edges)
            if all(x == 0 for x in r):
                continue
            eps = _safe_eps(j.values, r)
            for sign in (1, -1):
                shifted = EdgeVector(g1, [v + sign * eps * x for v, x in zip(j.values, r)])
                assert is_member_jr(g1, g, shifted)


def _safe_eps(values, direction):
    eps = None
    for v, x in zip(values, direction):
        if x != 0:
            bound = abs(v) / (2 * abs(x))
            eps = bound if eps is None else min(eps, bound)
    assert eps is not None and eps > 0
    return eps


class TestBruteForceSampling:
    def test_no_member_found_when_empty(self):
        g1, g = empty_pair()
        res = jr_dimension(g1, g)
        assert res.status == "empty"
        rng = random.Random(17)
        for _ in range(10_000):
            j = EdgeVector(
                g1, [Fraction(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(g1.num_edges)]
            )
            assert not is_member_jr(g1, g, j)
        # a sampling miss would be inconclusive; agreement with the
        # certificate-backed emptiness is what we assert here

    def test_sampler_finds_members_when_nonempty(self):
        g1, g = g_cyc(), g_in()
        rng = random.Random(23)
        found = 0
        for _ in range(2000):
            base = Fraction(rng.randint(1, 9))
            j = EdgeVector(g1, [base] * 8)
            if is_member_jr(g1, g, j):
                found += 1
        assert found > 0


class TestBalanceSweep:
    """Positive balanced flux exists exactly on weakly reversible graphs
    (sweep over all graphs on <= 4 vertices with <= 6 edges here; the
    acceptance suite extends this to 8 edges)."""

    def test_small_sweep(self):
        for g in _sweep_graphs(6):
            assert positive_point(balance_subspace(g)).feasible == is_weakly_reversible(g)


def _lemma_pair(rng: random.Random, m: int, n: int, den: int, target: str):
    """A weakly reversible subgraph g1 of the complete graph of a random
    m-vertex graph g, and a target: g, its complete graph, or another
    weakly reversible subgraph."""
    g = random_m_vertex_graph(rng, m, n, den)
    g1 = random_wr_subgraph(rng, g)
    return g1, {"g": g, "complete": complete_graph(g), "wr": random_wr_subgraph(rng, g)}[target]


def _check_local_lemma(g1, g) -> bool:
    """The cone of (g1, g) is empty iff some vertex's local block has no
    positive kernel point, and otherwise its subspace has dimension
    sum c_v - |V1| + l1; returns whether it is empty."""
    cone = jr_dimension(g1, g)
    widths = [len(out) for out in g1.out_edges]
    blocks = local_cone_blocks(g1, g)
    empty = not all(has_positive_kernel_point(b, k) for b, k in zip(blocks, widths))
    assert (cone.status == "empty") == empty, (g1, g)
    if not empty:
        local = sum(k - len(naive_rref(b)[1]) for b, k in zip(blocks, widths))
        lemma = local - g1.num_vertices + len(linkage_classes(g1))
        assert cone.tilde_dim == lemma, (g1, g)
    return empty


class TestLocalLemma:
    """The cone decided vertex by vertex, against the report's own
    decision on the whole system (4 to 6 vertices, 2-D and 3-D, integer
    and half-integer coordinates)."""

    def test_seeded_pairs(self):
        rng = random.Random(22)
        empty = [
            _check_local_lemma(*_lemma_pair(rng, m, n, den, target))
            for m in (4, 5, 6)
            for n, den in ((2, 1), (2, 2), (3, 1), (3, 2))
            for target in ("g", "complete", "wr")
            for _ in range(4)
        ]
        assert 0 < sum(empty) < len(empty)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(4, 6),
        n=st.sampled_from((2, 3)),
        den=st.sampled_from((1, 2)),
        target=st.sampled_from(("g", "complete", "wr")),
    )
    def test_random_pairs(self, seed, m, n, den, target):
        _check_local_lemma(*_lemma_pair(random.Random(seed), m, n, den, target))


PAIR_DATA = Path(__file__).resolve().parent / "data" / "pairs"


def _golden_pairs(prefix: str = ""):
    """The (g1, g) pairs of the pair goldens whose names start with
    ``prefix``: cones cut by balance alone, empty with and without a
    sign-definite constraint row, and nonempty with constraints past
    balance."""
    pairs = []
    for path in sorted(PAIR_DATA.glob(f"{prefix}*_g1.json")):
        g = parse_egraph(path.with_name(path.name.replace("_g1", "_g")).read_text())
        pairs.append((parse_egraph(path.read_text()), g))
    return pairs


def _report_pair(rng: random.Random, n: int, den: int, target: str):
    """A weakly reversible subgraph g1 of the complete graph of a random
    4-vertex graph g, and a target: g, its complete graph, or another
    weakly reversible subgraph."""
    g = random_four_vertex_graph(rng, n, den)
    g1 = random_wr_subgraph(rng, g)
    return g1, {"g": g, "complete": complete_graph(g), "wr": random_wr_subgraph(rng, g)}[target]


def _check_against_monolithic(g1, g) -> str:
    """The report's cone against O, the monolithic cone subspace: the
    simplex on O gives the same status, O the same tilde_dim, and the same
    witness wherever a vertex has cone rows; an emptiness certificate lies
    on one vertex's out-edges and is nonnegative, nonzero and orthogonal
    to O.  Returns "balance", "nonempty" or "empty"."""
    res = jr_dimension(g1, g)
    oracle = monolithic_jr_subspace(g1, g)
    lp = positive_point(oracle)
    assert (res.status == "nonempty") == lp.feasible, (g1, g)
    assert res.tilde_dim == oracle.dim, (g1, g)
    if not lp.feasible:
        cert = res.certificate
        support = {ei for ei, c in enumerate(cert) if c}
        assert support and all(c >= 0 for c in cert), (g1, g)
        assert any(support <= set(out) for out in g1.out_edges), (g1, g)
        assert not any(dot(cert, b) for b in oracle.basis), (g1, g)
        return "empty"
    if not any(any(row) for block in local_cone_blocks(g1, g) for row in block):
        return "balance"
    assert res.witness.values == lp.point, (g1, g)
    return "nonempty"


class TestReportAgainstMonolithic:
    """``jr_dimension``, decided vertex by vertex, against the simplex on the
    monolithic cone subspace (2-D and 3-D, integer and half-integer
    coordinates)."""

    def test_seeded_pairs(self):
        pairs = [(g1, g) for _, g1, g, _ in FIXTURE_PAIRS] + [empty_pair()] + _golden_pairs()
        rng = random.Random(25)
        pairs += [
            _report_pair(rng, n, den, target)
            for n, den in ((2, 1), (2, 2), (3, 1), (3, 2))
            for target in ("g", "complete", "wr")
            for _ in range(6)
        ]
        kinds = Counter(_check_against_monolithic(g1, g) for g1, g in pairs)
        assert min(kinds[k] for k in ("balance", "nonempty", "empty")) >= 5, kinds

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from((2, 3)),
        den=st.sampled_from((1, 2)),
        target=st.sampled_from(("g", "complete", "wr")),
    )
    def test_random_pairs(self, seed, n, den, target):
        _check_against_monolithic(*_report_pair(random.Random(seed), n, den, target))

    def test_simplex_disagreeing_with_every_vertex_raises(self, monkeypatch):
        # Every vertex of g_k4 holds a positive local point against g_in, so
        # a simplex on the cone subspace that reports it empty contradicts
        # the per-vertex lemma.
        g1, g = g_k4(), g_in()
        original = cone.positive_point

        def empty_on_the_edge_space(s):
            if s.ambient == g1.num_edges:
                return PositivityResult(feasible=False)
            return original(s)

        monkeypatch.setattr(cone, "positive_point", empty_on_the_edge_space)
        with pytest.raises(RuntimeError, match="cone empty, against the per-vertex lemma"):
            jr_dimension(g1, g)
