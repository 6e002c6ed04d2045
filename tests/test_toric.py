import json
import math
import random
import time
from fractions import Fraction

import pytest

from crnlocus import (
    EGraph,
    EdgeVector,
    NotWeaklyReversibleError,
    Subspace,
    birch_point,
    is_toric,
    lyapunov_value,
    ode_trajectory,
    tree_constants,
)
from crnlocus import toric
from crnlocus.egraph import is_weakly_reversible, linkage_classes
from crnlocus.toric import ToricDecision, _exact_witness

from capped import run_capped
from fixture_graphs import g_cyc, g_in, g_k4, g_three_cycle, g_two_classes, g_two_vertex
from oracles import (
    check_complex_balanced_at,
    enumerate_rooted_in_trees,
    mass_action_rhs,
    naive_consistent,
    naive_exact_witness,
    naive_rref,
    numeric_toric_search,
    rk4_every_stage,
)


class TestTreeConstants:
    def test_two_vertex_hand_values(self):
        g = g_two_vertex()
        tc = tree_constants(g, EdgeVector(g, [2, 3]))
        assert tc.values == (Fraction(3), Fraction(2))

    def test_directed_three_cycle(self):
        g = g_three_cycle()
        tc = tree_constants(g, EdgeVector.uniform(g))
        assert tc.values == (Fraction(1), Fraction(1), Fraction(1))

    def test_k4_uniform_symmetric(self):
        g = g_k4()
        tc = tree_constants(g, EdgeVector.uniform(g))
        assert len(set(tc.values)) == 1
        assert tc.values[0] == 16  # 4^2 spanning trees per root, unit weights

    def test_not_wr_rejected(self):
        g = g_in()
        with pytest.raises(NotWeaklyReversibleError):
            tree_constants(g, EdgeVector.uniform(g))

    def test_nonpositive_rates_rejected(self):
        g = g_two_vertex()
        with pytest.raises(ValueError):
            tree_constants(g, EdgeVector(g, [1, 0]))

    def test_matches_tree_enumeration_oracle(self):
        rng = random.Random(60)
        fixtures = [g_two_vertex(), g_three_cycle(), g_cyc(), g_k4(), g_two_classes()]
        # a 5-vertex weakly reversible wheel
        fixtures.append(
            EGraph(
                2,
                [(0, 0), (2, 0), (3, 1), (1, 2), (-1, 1)],
                [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 0), (2, 1), (3, 2), (4, 3), (0, 4)],
            )
        )
        for g in fixtures:
            k = EdgeVector(g, [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in g.edges])
            tc = tree_constants(g, k)
            for cls in linkage_classes(g):
                for root in cls:
                    assert tc.values[root] == enumerate_rooted_in_trees(g, k.values, root, cls)

    def test_long_bidirected_path_closed_form(self):
        # each root r has one in-tree: a_i on i -> i+1 left of r, b_i on i+1 -> i
        # from r on, so K_r = prod_{i<r} a_i * prod_{i>=r} b_i; one kernel per
        # class answers in well under the bound, one minor per vertex did not
        m = 120
        rng = random.Random(61)
        a = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(m - 1)]
        b = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(m - 1)]
        edges = [(i, i + 1) for i in range(m - 1)] + [(i + 1, i) for i in range(m - 1)]
        g = EGraph(1, [(i,) for i in range(m)], edges)
        rate = dict(zip(edges, a + b))
        k = EdgeVector(g, [rate[e] for e in g.edges])
        t0 = time.perf_counter()
        tc = tree_constants(g, k)
        elapsed = time.perf_counter() - t0
        assert tc.values == tuple(math.prod(a[:r]) * math.prod(b[r:]) for r in range(m))
        assert elapsed < 0.4

    def test_degenerate_kernel_is_internal_error(self, monkeypatch):
        # an inconsistency, not an argument error (the CLI maps ValueError to exit 2)
        plane = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        monkeypatch.setattr(toric, "kernel_basis", lambda m: Subspace(2, plane))
        g = g_two_vertex()
        with pytest.raises(RuntimeError, match="corank 1"):
            tree_constants(g, EdgeVector(g, [2, 3]))

    def test_per_class_grouping(self):
        g = g_two_classes()
        tc = tree_constants(g, EdgeVector(g, [2, 3, 5, 7]))
        assert tc.values == (Fraction(3), Fraction(2), Fraction(7), Fraction(5))
        assert tc.classes == ((0, 1), (2, 3))


class TestIsToric:
    def test_two_vertex_always_toric(self):
        g = g_two_vertex()
        for k in ([2, 3], [1, 1], [Fraction(5, 7), Fraction(1, 9)]):
            d = is_toric(g, EdgeVector(g, k))
            assert d.toric
            assert d.witness.mode == "exact"
            assert check_complex_balanced_at(g, EdgeVector(g, k), d.witness.x)

    @pytest.mark.parametrize(
        "g, toric_expected", [(g_k4(), True), (g_in(), False)], ids=["g_k4", "g_in"]
    )
    def test_weak_reversibility_decided_once(self, monkeypatch, g, toric_expected):
        calls = []

        def counted(graph):
            calls.append(graph)
            return is_weakly_reversible(graph)

        monkeypatch.setattr(toric, "is_weakly_reversible", counted)
        d = is_toric(g, EdgeVector.uniform(g))
        assert len(calls) == 1 and d.toric is toric_expected
        if not toric_expected:
            assert d == ToricDecision(False, reason="graph is not weakly reversible")

    def test_g_in_never_toric(self):
        d = is_toric(g_in(), EdgeVector.uniform(g_in()))
        assert not d.toric
        assert "weakly reversible" in d.reason

    def test_cyc_uniform_toric_at_ones(self):
        g = g_cyc()
        d = is_toric(g, EdgeVector.uniform(g))
        assert d.toric
        assert d.witness.x == (1, 1)
        assert d.witness.mode == "exact"

    def test_cyc_single_doubled_rate_not_toric(self):
        # golden derived from the numeric multistart oracle below
        g = g_cyc()
        k = EdgeVector(g, [2, 1, 1, 1, 1, 1, 1, 1])
        d = is_toric(g, k)
        assert not d.toric
        assert d.constants.values == (Fraction(4), Fraction(7), Fraction(6), Fraction(5))

    def test_numeric_oracle_agrees(self):
        g = g_cyc()
        toric_case = EdgeVector.uniform(g)
        non_toric_case = EdgeVector(g, [2, 1, 1, 1, 1, 1, 1, 1])
        assert numeric_toric_search(g, toric_case.values) < 1e-6
        assert numeric_toric_search(g, non_toric_case.values) > 1e-3

    def test_toric_witness_is_steady(self):
        g = g_k4()
        k = EdgeVector.uniform(g)
        d = is_toric(g, k)
        assert d.toric
        rhs = mass_action_rhs(g, k, d.witness.x)
        assert all(v == 0 for v in rhs)

    def test_approximate_witness_path(self):
        # pivot coefficient 2 with ratio 2: the state needs sqrt(2), so the
        # witness falls back to floats but still balances within tolerance
        g = EGraph(2, [(0, 0), (2, 0)], [(0, 1), (1, 0)])
        k = EdgeVector(g, [2, 1])
        d = is_toric(g, k)
        assert d.toric
        assert d.witness.mode == "approximate"
        assert abs(d.witness.x[0] - math.sqrt(2)) < 1e-9
        assert check_complex_balanced_at(g, k, d.witness.x)
        rhs = mass_action_rhs(g, k, d.witness.x)
        scale = max(abs(float(kv)) for kv in k.values)
        assert max(abs(v) for v in rhs) <= 1e-9 * scale

    def test_exact_witness_with_square_ratio(self):
        g = EGraph(2, [(0, 0), (2, 0)], [(0, 1), (1, 0)])
        d = is_toric(g, EdgeVector(g, [4, 1]))
        assert d.toric
        assert d.witness.mode == "exact"
        assert d.witness.x == (2, 1)

    def test_exact_witness_matches_pairwise_elimination(self):
        # rows = (s/d) A with A an integer matrix and ratios t^A: consistent,
        # with solution t^(d/s), which is irrational unless t is a perfect
        # s-th power; one ratio in five is doubled to break consistency.
        # Then systems whose rows are integer combinations of fewer base
        # rows, so the elimination leaves zero rows that decide consistency.
        rng = random.Random(12)
        outcomes = set()

        def check(rows, ratios, n):
            witness = _exact_witness(rows, ratios, n)
            want = naive_exact_witness(rows, ratios, n)
            consistent = naive_consistent(rows, ratios)
            assert (witness is not None) == consistent
            if want is not None:
                assert witness.mode == "exact" and witness.x == want
            elif consistent:
                # no rational root at some pivot: the log back-substitution
                assert witness.mode == "approximate"
                for row, ratio in zip(rows, ratios):
                    value = math.prod(v ** float(e) for v, e in zip(witness.x, row))
                    assert abs(value - float(ratio)) <= 1e-9 * float(ratio)
            outcomes.add((consistent, want is None))

        for _ in range(1200):
            n, m = rng.randint(1, 4), rng.randint(1, 6)
            s, d = rng.randint(1, 3), rng.randint(1, 3)
            a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
            t = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
            rows = [tuple(Fraction(s * x, d) for x in row) for row in a]
            ratios = [math.prod((tj**x for tj, x in zip(t, row)), start=Fraction(1)) for row in a]
            if rng.random() < 0.2:
                ratios[rng.randrange(m)] *= 2
            check(rows, ratios, n)
        assert outcomes == {(True, True), (True, False), (False, True)}

        outcomes.clear()
        for _ in range(400):
            n, k = rng.randint(1, 4), rng.randint(1, 3)
            m = k + rng.randint(1, 3)
            base = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            combos = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(m)]
            a = [[sum(c * b[j] for c, b in zip(combo, base)) for j in range(n)] for combo in combos]
            t = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
            rows = [tuple(Fraction(x) for x in row) for row in a]
            ratios = [math.prod((tj**x for tj, x in zip(t, row)), start=Fraction(1)) for row in a]
            if rng.random() < 0.4:
                ratios[rng.randrange(m)] *= 3
            assert len(naive_rref(rows)[1]) < m
            check(rows, ratios, n)
        assert {consistent for consistent, _ in outcomes} == {True, False}

    def test_rates_beyond_float_range(self):
        # K1/K0 = 2*10^400 has no rational square root; the witness
        # sqrt(2)*10^200 is a float, and so is its balance residual
        g = EGraph(1, [(0,), (2,)], [(0, 1), (1, 0)])
        k = EdgeVector(g, [2 * 10**400, 1])
        d = is_toric(g, k)
        assert d.toric and d.witness.mode == "approximate"
        assert math.isclose(d.witness.x[0], math.sqrt(2) * 1e200, rel_tol=1e-12)
        assert math.isfinite(d.witness.residual) and d.witness.residual <= 1e-10
        assert check_complex_balanced_at(g, k, d.witness.x)

    def test_far_vertex_seeks_no_huge_root(self):
        # The relation x^(10^12) = 1/2 needs a 10^12-th root of 2, which
        # cannot be an integer: 2^(10^12) > 2.  Searching for one anyway
        # forms 2^(10^12), so the call runs with capped memory.
        code = (
            "import json; from crnlocus import EGraph, EdgeVector, is_toric; "
            "g = EGraph(1, [(0,), (10**12,)], [(0, 1), (1, 0)]); "
            "d = is_toric(g, EdgeVector(g, [1, 2])); "
            "print(json.dumps([d.toric, d.witness.mode, float(d.witness.x[0])]))"
        )
        proc = run_capped(code)
        assert proc.returncode == 0, proc.stderr
        toric, mode, x = json.loads(proc.stdout)
        assert toric and mode == "approximate"
        assert math.isclose(x, 2 ** -1e-12, rel_tol=1e-12)

    def test_witness_outside_float_range_raises_overflow(self):
        g = EGraph(1, [(0,), (2,)], [(0, 1), (1, 0)])
        for rates in ([2 * 10**800, 1], [1, 2 * 10**800]):
            with pytest.raises(OverflowError):
                is_toric(g, EdgeVector(g, rates))

    def test_scaling_invariance(self):
        rng = random.Random(3)
        g = g_cyc()
        for _ in range(15):
            k = EdgeVector(g, [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in g.edges])
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            scaled = EdgeVector(g, [lam * v for v in k.values])
            t1, t2 = tree_constants(g, k), tree_constants(g, scaled)
            assert t1.ratio(1, 0) == t2.ratio(1, 0)
            assert is_toric(g, k).toric == is_toric(g, scaled).toric

    def test_two_class_toric_decision(self):
        # both classes constrain the same species: balanced only when the
        # rate ratios agree across classes
        g = g_two_classes()
        consistent = is_toric(g, EdgeVector(g, [2, 3, 4, 6]))
        assert consistent.toric
        assert consistent.witness.x == (Fraction(2, 3), 1)
        assert not is_toric(g, EdgeVector(g, [2, 3, 5, 7])).toric

    def test_nonpositive_rates_rejected(self):
        g = g_two_vertex()
        with pytest.raises(ValueError):
            is_toric(g, EdgeVector(g, [1, -1]))


class TestCheckComplexBalancedAt:
    def test_k4_uniform_at_ones(self):
        g = g_k4()
        assert check_complex_balanced_at(g, EdgeVector.uniform(g), (1, 1))

    def test_cyc_uniform_at_ones(self):
        g = g_cyc()
        assert check_complex_balanced_at(g, EdgeVector.uniform(g), (1, 1))

    def test_cyc_uniform_off_state(self):
        g = g_cyc()
        assert not check_complex_balanced_at(g, EdgeVector.uniform(g), (2, 1))

    def test_nonpositive_state_rejected(self):
        g = g_cyc()
        with pytest.raises(ValueError):
            check_complex_balanced_at(g, EdgeVector.uniform(g), (0, 1))

    def test_float_tolerance_path(self):
        g = g_cyc()
        assert check_complex_balanced_at(g, EdgeVector.uniform(g), (1.0 + 1e-13, 1.0))


class TestBirchPoint:
    def test_identity_when_start_is_witness(self):
        g = g_cyc()
        bp = birch_point(g, (Fraction(3, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(1, 2)))
        assert bp.x == (Fraction(3, 2), Fraction(1, 2))
        assert bp.mode == "exact"

    def test_full_dimensional_class(self):
        bp = birch_point(g_k4(), (1, 1), (2, 2))
        assert bp.x == (1, 1)
        assert bp.mode == "exact"

    def test_one_species_pair(self):
        g = g_two_vertex()
        bp = birch_point(g, (Fraction(2, 3),), (5,))
        assert bp.x == (Fraction(2, 3),)
        assert bp.mode == "exact"

    def test_newton_on_proper_slice(self):
        # conservation on the line x1 + x2: reversible pair (1,0) <-> (0,1)
        g = EGraph(2, [(1, 0), (0, 1)], [(0, 1), (1, 0)])
        xstar = (1.0, 1.0)
        x0 = (Fraction(3, 2), Fraction(1, 2))
        bp = birch_point(g, xstar, x0)
        assert bp.mode == "approximate"
        x = bp.x
        # slice: x1 + x2 == 2; orthogonality: log x1 == log x2 -> x1 == x2
        assert math.isclose(x[0] + x[1], 2.0, abs_tol=1e-10)
        assert math.isclose(x[0], x[1], abs_tol=1e-10)

    def test_uniqueness_across_starts(self):
        g = EGraph(2, [(1, 0), (0, 1)], [(0, 1), (1, 0)])
        rng = random.Random(8)
        results = []
        for _ in range(5):
            a = Fraction(rng.randint(1, 7), 4)
            x0 = (a, 2 - a)  # same conservation class x1 + x2 = 2
            bp = birch_point(g, (1.0, 1.0), x0)
            results.append(bp.x)
        for a, b in zip(results, results[1:]):
            assert max(abs(p - q) for p, q in zip(a, b)) <= 1e-8

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            birch_point(g_cyc(), (1, 1), (0, 1))

    def test_no_stall_near_the_minimum(self):
        # Witness and base state of a psi inverse input on which a line
        # search that allowed no rise above rounding stalled.  birch_point
        # sees the graph only through S, here the plane sum(x) = 0 as in
        # the 24-edge network that input came from.
        g = EGraph(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1), (1, 2), (2, 0)])
        xstar = (Fraction(1, 16), Fraction(1, 4), Fraction(1))
        x0 = (Fraction(9, 4), Fraction(9, 4), Fraction(1, 4))
        bp = birch_point(g, xstar, x0)
        assert bp.mode == "approximate" and bp.residual <= 1e-12
        assert math.isclose(sum(bp.x), 4.75, rel_tol=1e-12)
        # log x - log x* is orthogonal to S: x is a multiple of x*
        scale = bp.x[2] / float(xstar[2])
        assert all(math.isclose(v, scale * float(w), rel_tol=1e-10) for v, w in zip(bp.x, xstar))


class TestOdeTrajectory:
    def test_steady_start_stays(self):
        g = g_k4()
        k = EdgeVector.uniform(g)
        traj = ode_trajectory(g, k, (1.0, 1.0), t_end=1.0, dt=0.01)
        for _, x in traj:
            assert max(abs(v - 1.0) for v in x) <= 1e-12

    def test_converges_to_birch_point(self):
        g = g_k4()
        k = EdgeVector.uniform(g)
        traj = ode_trajectory(g, k, (1.4, 0.7), t_end=25.0, dt=0.02)
        terminal = traj[-1][1]
        assert max(abs(v - 1.0) for v in terminal) <= 1e-6

    def test_lyapunov_descent(self):
        g = g_k4()
        k = EdgeVector.uniform(g)
        traj = ode_trajectory(g, k, (1.8, 0.5), t_end=10.0, dt=0.02)
        values = [lyapunov_value(x, (1.0, 1.0)) for _, x in traj]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-10

    def test_non_wr_trajectory_defined(self):
        g = g_in()
        k = EdgeVector.uniform(g)
        traj = ode_trajectory(g, k, (0.3, 0.4), t_end=0.5, dt=0.01)
        assert len(traj) > 10
        for _, x in traj:
            assert all(v > 0 for v in x)

    def test_step_grows_back_after_rejection(self):
        # x' = 1 - x: from x = 10 a step of 1.5 leaves the orthant and is
        # halved once; from there on full steps of 1.5 stay positive
        g = EGraph(1, [(0,), (1,)], [(0, 1), (1, 0)])
        traj = ode_trajectory(g, EdgeVector.uniform(g), (10.0,), t_end=3.75, dt=1.5)
        assert [t for t, _ in traj] == [0.0, 0.75, 2.25, 3.75]

    @pytest.mark.parametrize(
        "g,rates,x0,t_end,dt",
        [
            # integer coordinates
            (g_k4(), [1, 2, Fraction(1, 3), 3, 1, Fraction(5, 2), 2, 1, 4, 1, Fraction(1, 2), 3],
             (1.4, 0.7), 2.0, 0.05),
            # half-integer coordinates: float exponents
            (EGraph(2, [(0, 0), (Fraction(1, 2), 0), (Fraction(1, 2), Fraction(3, 2))],
                    [(0, 1), (1, 0), (1, 2), (2, 0)]),
             [3, Fraction(1, 2), 2, Fraction(7, 3)], (0.6, 1.9), 1.5, 0.03),
            # x' = 1 - x from x = 10: the first step of 1.5 is rejected and halved
            (g_two_vertex(), [1, 1], (10.0,), 3.75, 1.5),
        ],
        ids=["integer", "half-integer", "rejection"],
    )
    def test_bit_identical_to_rk4_on_the_one_shot_field(self, g, rates, x0, t_end, dt):
        k = EdgeVector(g, rates)
        traj = ode_trajectory(g, k, x0, t_end=t_end, dt=dt)
        assert traj == rk4_every_stage(g, k, x0, t_end, dt)
        assert len(traj) > 3

    @pytest.mark.parametrize(
        "t_end,dt",
        [("1", "0"), ("1", "-0.1"), ("1", "nan"), ("inf", "0.1")],
        ids=["dt-zero", "dt-negative", "dt-nan", "t_end-inf"],
    )
    def test_unending_integration_refused(self, t_end, dt):
        # Each of these inputs once stepped without end, so the call runs
        # in a capped child that a hang fails by timeout.
        code = (
            "import sys; from crnlocus import EGraph, EdgeVector, ode_trajectory; "
            "g = EGraph(1, [(0,), (1,)], [(0, 1), (1, 0)]); "
            "t_end, dt = map(float, sys.argv[1:]); "
            "ode_trajectory(g, EdgeVector.uniform(g), (1.0,), t_end, dt)"
        )
        proc = run_capped(code, t_end, dt)
        assert proc.returncode == 1
        last = proc.stderr.splitlines()[-1]
        assert last.startswith("ValueError: need a finite dt > 0"), proc.stderr

    def test_positivity_loss_aborts(self):
        # constant drift toward the boundary: x' = -1 regardless of state
        g = EGraph(1, [(0,), (-1,)], [(0, 1)])
        k = EdgeVector(g, [1])
        from crnlocus import ConvergenceError

        with pytest.raises(ConvergenceError, match="dt_min"):
            ode_trajectory(g, k, (0.05,), t_end=1.0, dt=0.1)
