import contextlib
import functools
import io
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnlocus import (
    EGraph,
    EdgeVector,
    canonical_d0_obasis,
    canonical_j0_obasis,
    global_lower_bound,
    is_dynamically_equivalent,
    is_member_jr,
    jr_dimension,
    jr_subspace,
    pair_lower_bound,
    psi_hat_inverse,
    psi_map,
    psi_small,
)
from crnlocus.cone import (
    PositivityResult,
    local_certificate,
    membership_failure,
    positive_point,
)
from crnlocus import cone, equiv, exactla, locus
from crnlocus.cli import main
from crnlocus.egraph import complete_graph, edge_subgraph, linkage_classes, parse_egraph
from crnlocus.equiv import (
    POWER_MAX_BITS,
    d0_basis,
    d0_dimension,
    j0_basis,
    j0_dimension,
)
from crnlocus.exactla import combine, coords_in_basis, dot, vec
from crnlocus.locus import PsiDomainError

from capped import run_capped
from fixture_graphs import g_cyc, g_in, g_k4, g_two_vertex
from oracles import (
    balance_rows,
    basis_pair_terms,
    d0_constraint_matrix,
    monolithic_jr_subspace,
    naive_kernel_subspace,
    per_subgraph_global_bound,
    random_four_vertex_graph,
    random_m_vertex_graph,
    random_positive_rational,
)
from test_cli_golden import ROOT, commands

PAIRS = [
    ("in,cyc", g_in(), g_cyc(), 1, 3),
    ("in,k4", g_in(), g_k4(), 5, 4),
    ("cyc,k4", g_cyc(), g_k4(), 9, 8),
    ("k4,k4", g_k4(), g_k4(), 9, 12),
]


def random_cone_member(g1, g, rng) -> EdgeVector:
    """witness + a small random shift inside the constraint subspace."""
    res = jr_dimension(g1, g)
    assert res.status == "nonempty"
    tilde = jr_subspace(g1, g)
    coeffs = [random_positive_rational(rng) - 1 for _ in range(tilde.dim)]
    shift = combine(coeffs, tilde.basis, g1.num_edges)
    values = list(res.witness.values)
    # scale the shift so positivity survives
    scale = Fraction(1)
    for v, s in zip(values, shift):
        if s != 0:
            scale = min(scale, abs(v) / (2 * abs(s)))
    return EdgeVector(g1, [v + scale * s for v, s in zip(values, shift)])


class TestPsiSmall:
    def test_empty_when_j0_trivial(self):
        j = EdgeVector.uniform(g_cyc())
        assert psi_small(g_cyc(), g_in(), j) == ()

    def test_k4_uniform_golden(self):
        g1 = g_k4()
        j = EdgeVector.uniform(g1)
        q = psi_small(g1, g_in(), j)
        # oracle: inner-product coordinates against the canonical basis
        basis = canonical_j0_obasis(g1)
        expected = tuple(dot(j.values, a) / dot(a, a) for a in basis)
        assert q == expected
        assert q == (Fraction(1, 3), Fraction(2, 9), Fraction(-1, 3))

    def test_orthogonal_shift_keeps_q(self):
        rng = random.Random(12)
        g1, g = g_k4(), g_in()
        j = random_cone_member(g1, g, rng)
        basis = canonical_j0_obasis(g1)
        tilde = jr_subspace(g1, g)
        # a tilde direction with its J0 projection removed is orthogonal to J0
        direction = list(tilde.basis[0])
        for a in basis:
            c = dot(direction, a) / dot(a, a)
            direction = [d - c * x for d, x in zip(direction, a)]
        assert any(direction)
        scale = min(abs(v) / (2 * abs(d)) for v, d in zip(j.values, direction) if d != 0)
        j2 = EdgeVector(g1, [v + scale * d for v, d in zip(j.values, direction)])
        assert is_member_jr(g1, g, j2)
        assert psi_small(g1, g, j2) == psi_small(g1, g, j)

    def test_nonmember_rejected(self):
        with pytest.raises(PsiDomainError):
            psi_small(g_k4(), g_in(), EdgeVector(g_k4(), [1] * 11 + [2]))


class TestPsiMap:
    def test_fixture_golden(self):
        out = psi_map(g_k4(), g_in(), EdgeVector.uniform(g_k4()), (1, 1), ())
        assert out.mode == "exact"
        assert out.k.values == vec([4, 4, 4, 4])
        assert out.q == (Fraction(1, 3), Fraction(2, 9), Fraction(-1, 3))

    def test_identity_on_cyc(self):
        g = g_cyc()
        out = psi_map(g, g, EdgeVector.uniform(g), (1, 1), ())
        assert out.k.values == vec([1] * 8)
        assert out.q == ()

    def test_p_shift_moves_output_inside_d0(self):
        g = g_k4()
        j = EdgeVector.uniform(g)
        p1 = (Fraction(0), Fraction(0), Fraction(0), Fraction(0))
        p2 = (Fraction(1), Fraction(0), Fraction(-2), Fraction(0))
        out1 = psi_map(g, g, j, (1, 1), p1)
        out2 = psi_map(g, g, j, (1, 1), p2)
        assert out1.q == out2.q
        diff = [a - b for a, b in zip(out1.k.values, out2.k.values)]
        assert any(diff)
        assert d0_basis(g).contains(diff)

    def test_output_satisfies_contract(self):
        rng = random.Random(5150)
        for name, g, g1, _, _ in PAIRS:
            j = random_cone_member(g1, g, rng)
            x = tuple(random_positive_rational(rng) for _ in range(g1.n))
            b = canonical_d0_obasis(g)
            p = tuple(random_positive_rational(rng) - 1 for _ in b)
            out = psi_map(g1, g, j, x, p)
            # requested coordinates hold exactly
            assert coords_in_basis(out.k.values, b) == p
            # dynamically equivalent to the flux-at-state system
            k1 = EdgeVector(
                g1,
                [
                    j.values[e]
                    / _pow(x, g1.vertices[g1.edges[e][0]])
                    for e in range(g1.num_edges)
                ],
            )
            assert is_dynamically_equivalent(g, out.k, g1, k1)

    def test_determinism(self):
        g1, g = g_k4(), g_cyc()
        j = EdgeVector.uniform(g1)
        a = psi_map(g1, g, j, (2, 3), ())
        b_ = psi_map(g1, g, j, (2, 3), ())
        assert a.k.values == b_.k.values and a.q == b_.q

    def test_injectivity_random(self):
        rng = random.Random(860)
        seen = {}
        count = 0
        while count < 50:
            name, g, g1, _, _ = PAIRS[count % len(PAIRS)]
            j = random_cone_member(g1, g, rng)
            x = tuple(random_positive_rational(rng) for _ in range(g1.n))
            p = tuple(random_positive_rational(rng) - 1 for _ in canonical_d0_obasis(g))
            key = (name, j.values, x, p)
            out = psi_map(g1, g, j, x, p)
            image = (name, out.k.values, out.q, x)
            # same input -> same output; distinct inputs -> distinct (k, q, x)
            if key in seen:
                assert seen[key] == image
            else:
                for k2, v2 in seen.items():
                    if k2 != key:
                        assert v2 != image
                seen[key] = image
            count += 1

    def test_domain_validation(self):
        g1, g = g_k4(), g_in()
        j = EdgeVector.uniform(g1)
        with pytest.raises(PsiDomainError, match="positive"):
            psi_map(g1, g, j, (0, 1), ())
        with pytest.raises(PsiDomainError, match="coordinate vector"):
            psi_map(g1, g, j, (1, 1), (1,))
        bad = EdgeVector(g1, [1] * 11 + [2])
        with pytest.raises(PsiDomainError, match="member"):
            psi_map(g1, g, bad, (1, 1), ())

    def test_slice_violation_rejected(self):
        # conservation pair: S is the line spanned by (-1, 1)
        from crnlocus import EGraph

        pair = EGraph(2, [(1, 0), (0, 1)], [(0, 1), (1, 0)])
        j = EdgeVector.uniform(pair)
        ok = psi_map(pair, pair, j, (2, 1), (), x0=(Fraction(5, 2), Fraction(1, 2)))
        assert ok.k is not None
        with pytest.raises(PsiDomainError, match="affine class"):
            psi_map(pair, pair, j, (2, 1), (), x0=(1, 1))  # (1,0) not in S

    def test_slice_check_with_x0(self):
        g1, g = g_k4(), g_in()
        j = EdgeVector.uniform(g1)
        out = psi_map(g1, g, j, (2, 3), (), x0=(1, 1))  # S is the whole plane
        assert out.k is not None

    @pytest.mark.parametrize("e", [400, -400], ids=["power-overflows", "power-underflows"])
    def test_state_powers_past_the_float_range(self, e):
        # Half-integer vertices 1/2 and 3/2 with x = 10^e: the float powers
        # x^(1/2) and x^(3/2) overflow or underflow to 0, so both are taken
        # in logs; the rates 1/x^y are 10^(-e/2) and 10^(-3e/2).
        g = EGraph(1, [(Fraction(1, 2),), (Fraction(3, 2),)], [(0, 1), (1, 0)])
        x = Fraction(10) ** e
        out = psi_map(g, g, EdgeVector.uniform(g), [x], [])
        assert out.mode == "approximate"
        k0, k1 = out.k.values
        assert math.isclose(k0 * Fraction(10) ** (e // 2), 1, rel_tol=1e-12)
        assert math.isclose(k1 * Fraction(10) ** (3 * e // 2), 1, rel_tol=1e-12)

    @pytest.mark.parametrize("e", [400, -400], ids=["power-underflows", "power-divides-by-zero"])
    def test_negative_exponent_powers_past_the_float_range(self, e):
        # Vertices -1/2 and 1/2 with x = 10^e: at 10^-400 the float of x is
        # 0.0, whose power -1/2 divides by zero, and at 10^400 the power
        # x^(-1/2) underflows to 0; both are taken in logs.
        g = EGraph(1, [(Fraction(-1, 2),), (Fraction(1, 2),)], [(0, 1), (1, 0)])
        x = Fraction(10) ** e
        out = psi_map(g, g, EdgeVector.uniform(g), [x], [])
        assert out.mode == "approximate"
        k0, k1 = out.k.values
        assert math.isclose(k0 * Fraction(10) ** -(e // 2), 1, rel_tol=1e-12)
        assert math.isclose(k1 * Fraction(10) ** (e // 2), 1, rel_tol=1e-12)

    def test_state_power_past_the_bit_bound_raises(self):
        # x^(1/2) for x = 10^5000 is near 2^8305, past POWER_MAX_BITS
        g = EGraph(1, [(Fraction(1, 2),), (Fraction(3, 2),)], [(0, 1), (1, 0)])
        with pytest.raises(OverflowError, match="past 2"):
            psi_map(g, g, EdgeVector.uniform(g), [10**5000], [])


def _pow(x, y):
    out = Fraction(1)
    for xi, yi in zip(x, y):
        out *= Fraction(xi) ** int(yi)
    return out


class TestPsiHatInverse:
    def test_fixture_golden(self):
        g1, g = g_k4(), g_in()
        q = psi_small(g1, g, EdgeVector.uniform(g1))
        pre = psi_hat_inverse(
            g1, g, EdgeVector(g, [4, 4, 4, 4]), EdgeVector.uniform(g1), q, (1, 1)
        )
        assert pre.j_hat.values == vec([1] * 12)
        assert pre.x.mode == "exact"
        assert pre.x.x == (1, 1)
        assert pre.p == ()

    def test_mode_is_exact_only_with_exact_powers(self):
        g1, g = g_k4(), g_in()
        q = psi_small(g1, g, EdgeVector.uniform(g1))
        pre = psi_hat_inverse(
            g1, g, EdgeVector(g, [4, 4, 4, 4]), EdgeVector.uniform(g1), q, (1, 1)
        )
        assert pre.mode == "exact"
        # The Birch point 2 is exact, but on the vertices 1/2 and 3/2 both
        # fluxes 2 * 2^(1/2) and 1 * 2^(3/2) are rounded float powers.
        g = EGraph(1, [(Fraction(1, 2),), (Fraction(3, 2),)], [(0, 1), (1, 0)])
        k = EdgeVector(g, [2, 1])
        pre = psi_hat_inverse(g, g, k, k, (), (1,))
        assert pre.x.mode == "exact" and pre.x.x == (2,)
        assert pre.mode == "approximate" and pre.to_json_dict()["mode"] == "approximate"
        assert all(math.isclose(v, 2 * math.sqrt(2), rel_tol=1e-15) for v in pre.j_hat.values)

    def test_round_trip_exact(self):
        rng = random.Random(99)
        for _ in range(20):
            name, g, g1, _, _ = PAIRS[rng.randrange(len(PAIRS))]
            j = random_cone_member(g1, g, rng)
            x = tuple(random_positive_rational(rng) for _ in range(g1.n))
            p = tuple(random_positive_rational(rng) - 1 for _ in canonical_d0_obasis(g))
            out = psi_map(g1, g, j, x, p)
            k1 = EdgeVector(
                g1,
                [j.values[e] / _pow(x, g1.vertices[g1.edges[e][0]]) for e in range(g1.num_edges)],
            )
            pre = psi_hat_inverse(g1, g, out.k, k1, out.q, x0=x)
            assert pre.j_hat.values == j.values
            assert pre.x.mode == "exact"
            assert pre.x.x == x
            assert pre.p == p

    def test_q_perturbation_shifts_flux_only(self):
        g1, g = g_k4(), g_in()
        j = EdgeVector.uniform(g1)
        out = psi_map(g1, g, j, (1, 1), ())
        k1 = EdgeVector.uniform(g1)
        q2 = tuple(v + (1 if i == 0 else 0) for i, v in enumerate(out.q))
        pre1 = psi_hat_inverse(g1, g, out.k, k1, out.q, (1, 1))
        pre2 = psi_hat_inverse(g1, g, out.k, k1, q2, (1, 1))
        assert pre1.x.x == pre2.x.x
        assert pre1.p == pre2.p
        diff = [a - b for a, b in zip(pre2.j_hat.values, pre1.j_hat.values)]
        basis = canonical_j0_obasis(g1)
        assert diff == [x for x in basis[0]]  # exactly one orthogonal basis step

    def test_rates_beyond_float_range(self):
        # The Birch point sqrt(2)*10^200 is approximate; its square lies
        # past the float range and is taken exactly.
        g = EGraph(1, [(0,), (2,)], [(0, 1), (1, 0)])
        k = EdgeVector(g, [2 * 10**400, 1])
        pre = psi_hat_inverse(g, g, k, k, (), (1,))
        assert pre.x.mode == "approximate"
        assert math.isclose(pre.x.x[0], math.sqrt(2) * 1e200, rel_tol=1e-12)
        assert pre.j_hat.values[0] == 2 * 10**400
        assert math.isclose(pre.j_hat.values[1] / pre.j_hat.values[0], 1, rel_tol=1e-12)
        assert pre.p == ()

    def test_exact_state_below_the_float_range(self):
        # The Birch point 10^-1600 is exact, but the vertex 1/2 makes its
        # power a float one, which underflows to 0; taken in logs it gives
        # the flux (1, 1) at that state.
        g = EGraph(1, [(0,), (Fraction(1, 2),)], [(0, 1), (1, 0)])
        k = EdgeVector(g, [1, 10**800])
        pre = psi_hat_inverse(g, g, k, k, (), (1,))
        assert pre.x.mode == "exact" and pre.x.x == (Fraction(1, 10**1600),)
        assert pre.j_hat.values[0] == 1
        assert math.isclose(pre.j_hat.values[1], 1, rel_tol=1e-12)

    def test_approximate_state_power_stays_float_sized(self):
        # x = 2^(-1/300) is approximate; x^300 is a float power, so j_hat
        # holds float-sized fractions rather than a 300-fold exact power.
        g = EGraph(1, [(0,), (300,)], [(0, 1), (1, 0)])
        k = EdgeVector(g, [1, 2])
        pre = psi_hat_inverse(g, g, k, k, (), (1,))
        assert pre.x.mode == "approximate"
        assert pre.j_hat.values[0] == 1
        assert math.isclose(pre.j_hat.values[1], 1, rel_tol=1e-12)
        assert all(v.numerator.bit_length() <= 53 for v in pre.j_hat.values)
        assert all(v.denominator.bit_length() <= 1075 for v in pre.j_hat.values)

    def test_approximate_power_past_float_range_in_logs(self):
        # On x1 + x2 = 10^10 the Birch point is near (5e9, 5e9), so each
        # state power x_i^100 is near 10^970.
        g = EGraph(2, [(100, 0), (0, 100)], [(0, 1), (1, 0)])
        k = EdgeVector(g, [1, 2])
        pre = psi_hat_inverse(g, g, k, k, (), (10**10, 1))
        assert pre.x.mode == "approximate"
        x1 = pre.x.x[0]
        a, b = pre.j_hat.values
        assert math.isclose(a / b, 1, rel_tol=1e-12)
        log_a = math.log(a.numerator) - math.log(a.denominator)
        assert math.isclose(log_a, 100 * math.log(x1), rel_tol=1e-12)
        assert a.numerator.bit_length() <= 53 + POWER_MAX_BITS

    def test_far_vertex_powers_under_capped_memory(self):
        # Coordinate 10^8: x^(10^8) = 1/2 is a float power; with x0 = (10^10, 1)
        # on the two-vertex cycle the power is near 10^(10^9), past the bound,
        # and raises OverflowError without being built.
        code = (
            "import json, sys; from crnlocus import EGraph, EdgeVector, psi_hat_inverse; "
            "c = 10**8; g = EGraph(1, [(0,), (c,)], [(0, 1), (1, 0)]); k = EdgeVector(g, [1, 2]); "
            "pre = psi_hat_inverse(g, g, k, k, (), (1,)); "
            "print(json.dumps([float(v) for v in pre.j_hat.values])); "
            "g = EGraph(2, [(c, 0), (0, c)], [(0, 1), (1, 0)]); k = EdgeVector(g, [1, 2]); "
            "psi_hat_inverse(g, g, k, k, (), (10**10, 1))"
        )
        proc = run_capped(code)
        assert proc.returncode == 1 and proc.stderr.rstrip().splitlines()[-1].startswith(
            "OverflowError"
        ), proc.stderr
        j_hat = json.loads(proc.stdout)
        assert j_hat[0] == 1 and math.isclose(j_hat[1], 1, rel_tol=1e-6)

    def test_invalid_realization_rejected(self):
        g1, g = g_k4(), g_in()
        with pytest.raises(PsiDomainError, match="equivalent"):
            psi_hat_inverse(
                g1, g, EdgeVector(g, [1, 1, 1, 1]), EdgeVector.uniform(g1),
                psi_small(g1, g, EdgeVector.uniform(g1)), (1, 1)
            )


class TestAmbientCheckedFirst:
    """A pair in two ambient spaces is refused before any other check: here
    a flux with a zero entry on g_k4 (n = 2) against a 1-D two-cycle."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda g1, g, j: membership_failure(g1, g, j),
            lambda g1, g, j: psi_small(g1, g, j),
            lambda g1, g, j: psi_map(g1, g, j, (1, 1), ()),
            lambda g1, g, j: psi_hat_inverse(
                g1, g, EdgeVector.uniform(g), EdgeVector.uniform(g1), (), (1, 1)
            ),
        ],
        ids=["membership_failure", "psi_small", "psi_map", "psi_hat_inverse"],
    )
    def test_mismatch_raised_first(self, call):
        g1, g = g_k4(), g_two_vertex()
        with pytest.raises(ValueError) as exc:
            call(g1, g, EdgeVector(g1, [1] * 11 + [0]))
        assert exc.type is ValueError
        assert str(exc.value) == "ambient dimensions differ: 2 vs 1"


class TestContinuitySurrogate:
    def test_ratio_stability(self):
        g1, g = g_k4(), g_in()
        res = jr_dimension(g1, g)
        j = res.witness
        x = (Fraction(1), Fraction(1))
        p = ()
        base = psi_map(g1, g, j, x, p)
        tilde_dir = jr_subspace(g1, g).basis[0]
        # normalize the direction so j + delta*dir stays positive at delta=1e-2
        scale = min(abs(v) / (2 * abs(d)) for v, d in zip(j.values, tilde_dir) if d != 0)
        scale = min(scale / Fraction(1, 100), Fraction(100))
        direction = [scale * d for d in tilde_dir]
        x_dir = (Fraction(1), Fraction(-1))
        ratios = []
        for delta in (Fraction(1, 100), Fraction(1, 10_000), Fraction(1, 1_000_000)):
            j2 = EdgeVector(g1, [v + delta * d for v, d in zip(j.values, direction)])
            x2 = tuple(a + delta * b for a, b in zip(x, x_dir))
            out = psi_map(g1, g, j2, x2, p)
            dk = max(abs(a - b) for a, b in zip(out.k.values, base.k.values))
            dq = max((abs(a - b) for a, b in zip(out.q, base.q)), default=Fraction(0))
            ratios.append(float(dk + dq) / float(delta))
        assert ratios[0] > 0
        for a, b in zip(ratios, ratios[1:]):
            assert max(a, b) / min(a, b) < 10


class TestQOpenness:
    def test_explicit_epsilon_box(self):
        g1, g = g_k4(), g_in()
        j = jr_dimension(g1, g).witness
        basis = canonical_j0_obasis(g1)
        q = psi_small(g1, g, j)
        for i, a in enumerate(basis):
            eps = min(abs(v) / (2 * abs(x)) for v, x in zip(j.values, a) if x != 0)
            for sign in (1, -1):
                j2 = EdgeVector(g1, [v + sign * eps * x for v, x in zip(j.values, a)])
                assert is_member_jr(g1, g, j2)
                q2 = psi_small(g1, g, j2)
                expected = list(q)
                expected[i] += sign * eps
                assert q2 == tuple(expected)


class TestPairBound:
    @pytest.mark.parametrize("name,g,g1,jr,capped", PAIRS)
    def test_reference_pairs(self, name, g, g1, jr, capped):
        report = pair_lower_bound(g, g1)
        assert report.applicable
        assert report.dim_jr == jr
        assert report.dim_s == 2
        assert report.capped_bound == capped
        assert report.capped_bound <= g.num_edges

    def test_raw_values(self):
        assert pair_lower_bound(g_in(), g_cyc()).raw_bound == 3
        assert pair_lower_bound(g_in(), g_k4()).raw_bound == 4
        assert pair_lower_bound(g_cyc(), g_k4()).raw_bound == 8
        assert pair_lower_bound(g_k4(), g_k4()).raw_bound == 12

    def test_not_wr_flagged(self):
        report = pair_lower_bound(g_cyc(), g_in())
        assert not report.applicable
        assert "not weakly reversible" in report.reason

    def test_not_wr_other_dimension_flagged(self):
        report = pair_lower_bound(g_k4(), EGraph(1, [(0,), (1,)], [(0, 1)]))
        assert (report.applicable, report.g1_weakly_reversible) == (False, False)
        assert report.reason == "realization graph is not weakly reversible"
        assert report.cone is None and report.dim_d0 == 4

    def test_empty_cone_flagged(self):
        from test_cone import empty_pair

        g1, g = empty_pair()
        report = pair_lower_bound(g, g1)
        assert not report.applicable
        assert "empty" in report.reason


def _naive_d0_rows(g):
    dm = d0_constraint_matrix(g)
    return [dm.row(i) for i in range(dm.rows)]


def _check_terms_against_bases(g, g1) -> str:
    """``pair_lower_bound(g, g1)``'s terms against ``basis_pair_terms``, and
    dim D0(g) and dim J0(g1) against the naive kernels of their stacked
    constraint rows.  Returns "applicable", "empty" or "not wr"."""
    report = pair_lower_bound(g, g1)
    assert report.dim_d0 == naive_kernel_subspace(_naive_d0_rows(g), g.num_edges).dim
    if not report.g1_weakly_reversible:
        assert not report.applicable
        return "not wr"
    terms = (report.applicable, report.dim_jr, report.dim_s, report.dim_d0, report.dim_j0)
    applicable, dim_jr, dim_s, dim_d0, dim_j0 = basis_pair_terms(g, g1)
    if not applicable:
        assert terms == (False, None, None, dim_d0, None)
        return "empty"
    assert terms == (True, dim_jr, dim_s, dim_d0, dim_j0)
    j0_rows = _naive_d0_rows(g1) + balance_rows(g1)
    assert report.dim_j0 == naive_kernel_subspace(j0_rows, g1.num_edges).dim
    return "applicable"


def _golden_incumbents(monkeypatch):
    """The (g, subgraph) pairs whose full reports the golden ``bound --all``
    commands build, recorded by wrapping ``locus.pair_lower_bound``."""
    seen = []
    original = locus.pair_lower_bound

    def recording(g, g1):
        seen.append((g, g1))
        return original(g, g1)

    monkeypatch.setattr(locus, "pair_lower_bound", recording)
    monkeypatch.chdir(ROOT)
    for command in commands():
        if "--all" in command:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                main(["--output", "json", *command])
    return seen


class TestPairTermsAgainstBases:
    """The pair bound's integer ranks against exact bases, on every input
    the CLI goldens report on, the fixtures and random subgraphs."""

    def test_golden_pairs(self):
        kinds = Counter()
        for command in commands():
            if command[0] == "bound" and len(command) == 3 and "--all" not in command:
                g, g1 = (parse_egraph((ROOT / path).read_text()) for path in command[1:])
                if g.n == g1.n:
                    kinds[_check_terms_against_bases(g, g1)] += 1
        assert sum(kinds.values()) == 34 and min(kinds.values()) >= 3, kinds

    def test_golden_incumbents(self, monkeypatch):
        incumbents = _golden_incumbents(monkeypatch)
        monkeypatch.undo()
        assert len(incumbents) >= 50
        for g, sub in incumbents:
            assert _check_terms_against_bases(g, sub) == "applicable"

    def test_fixture_pairs(self):
        from test_cone import FIXTURE_PAIRS, empty_pair

        pairs = [(g, g1) for _, g, g1, _, _ in PAIRS] + [(g, g1) for _, g1, g, _ in FIXTURE_PAIRS]
        g1, g = empty_pair()
        kinds = Counter(_check_terms_against_bases(g, g1) for g, g1 in pairs + [(g, g1), (g1, g)])
        assert set(kinds) == {"applicable", "empty", "not wr"}, kinds

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from((2, 3)),
        den=st.sampled_from((1, 2)),
        target=st.sampled_from(("g", "complete", "wr")),
    )
    def test_random_wr_subgraphs(self, seed, n, den, target):
        from test_cone import _report_pair

        g1, g = _report_pair(random.Random(seed), n, den, target)
        _check_terms_against_bases(g, g1)

    def test_pair_bound_on_a_long_path_under_capped_memory(self):
        # Every term is an integer rank over per-vertex data and no edge-space
        # basis is built: about 0.8 s of CPU on a 1,500-vertex bidirected path
        # (2 shared CPUs), where building the D0 and J0 bases as well took
        # 3.6-3.8 s.
        code = (
            "import time; from crnlocus import EGraph, pair_lower_bound; "
            "m = 1500; edges = sorted([(i, i + 1) for i in range(m - 1)] "
            "+ [(i + 1, i) for i in range(m - 1)]); "
            "g = EGraph(1, [(i,) for i in range(m)], edges); "
            "t = time.process_time(); r = pair_lower_bound(g, g); "
            "print(r.capped_bound, time.process_time() - t)"
        )
        proc = run_capped(code)
        assert proc.returncode == 0, proc.stderr
        bound, cpu = proc.stdout.split()
        assert int(bound) == 2998
        assert float(cpu) < 2.0


class TestGlobalBound:
    def test_g_in_best_four(self):
        res = global_lower_bound(g_in())
        assert res.best.capped_bound == 4
        # fewest-edges tie-break: the two bidirected diagonals win
        assert res.best_subgraph.num_edges == 4

    def test_g_cyc_best_eight(self):
        res = global_lower_bound(g_cyc())
        assert res.best.capped_bound == 8

    def test_g_k4_best_twelve(self):
        res = global_lower_bound(g_k4())
        assert res.best.capped_bound == 12

    def test_cap_limits_examination(self):
        res = global_lower_bound(g_cyc(), cap=25)
        assert res.examined == 25
        assert not res.exhausted
        # 21 weakly reversible subsets: a cap of 21 still finishes the
        # scan, a cap of 20 cuts it one subset short
        g = EGraph(2, [(0, 0), (1, 0), (0, 1)], [(0, 1), (1, 0), (0, 2)])
        res = global_lower_bound(g, cap=21)
        assert (res.examined, res.exhausted, res.best_mask) == (21, True, 5)
        res = global_lower_bound(g, cap=20)
        assert (res.examined, res.exhausted, res.best_mask) == (20, False, 5)
        res = global_lower_bound(g, cap=0)
        assert (res.examined, res.exhausted, res.best_mask) == (0, False, None)
        with pytest.raises(ValueError):
            global_lower_bound(g, cap=-1)

    def test_table_rows_match_examined(self):
        res = global_lower_bound(g_in())
        assert len(res.table) == res.examined
        assert all(r.capped_bound is None or r.capped_bound <= 4 for r in res.table)

    def test_early_exit_matches_exhaustive_scan(self):
        from crnlocus import EGraph, complete_graph, edge_subgraph
        from crnlocus.egraph import iter_wr_edge_masks

        g = EGraph(2, [(0, 0), (1, 0), (0, 1)], [(0, 1), (1, 0), (0, 2), (2, 0)])
        gc = complete_graph(g)
        best = None
        for mask in iter_wr_edge_masks(gc):
            sub = edge_subgraph(gc, [i for i in range(gc.num_edges) if mask >> i & 1])
            rep = pair_lower_bound(g, sub)
            if rep.applicable:
                key = (-rep.capped_bound, sub.num_edges, mask)
                if best is None or key < best:
                    best = key
        res = global_lower_bound(g)
        assert best is not None and res.best is not None
        assert res.best.capped_bound == -best[0]
        assert res.best_subgraph.num_edges == best[1]
        assert res.best_mask == best[2]


def _scan_configs():
    """The fixtures, then 30 seeded 4-vertex graphs in 2-D and 3-D; every
    third one has half-integer coordinates."""
    rng = random.Random(4)
    configs = {"g_k4": g_k4(), "g_cyc": g_cyc(), "g_in": g_in()}
    for k in range(30):
        n, den = 2 + k % 2, (2 if k % 3 == 0 else 1)
        configs[f"r{k}-{n}d-den{den}"] = random_four_vertex_graph(rng, n, den)
    return configs


SCAN_CONFIGS = _scan_configs()
# Rows checked per random configuration.  The basis oracle costs about
# 2.5 ms a subgraph, so checking all ~35,000 rows of the 30 random scans
# would double the suite's run time; the fixtures are checked in full.
ROW_SAMPLE = 60


@functools.cache
def _scan(name):
    """The uncapped scan of a configuration and the table rows to check."""
    res = global_lower_bound(SCAN_CONFIGS[name])
    if name.startswith("g_"):
        return res, res.table
    picked = set(random.Random(name).sample(res.table, min(ROW_SAMPLE, len(res.table))))
    return res, tuple(r for r in res.table if r in picked or r.mask == res.best_mask)


def _subgraph(g, mask):
    gc = complete_graph(g)
    return edge_subgraph(gc, [i for i in range(gc.num_edges) if mask >> i & 1])


class TestIntegerScan:
    def test_configs_include_non_integer_coordinates(self):
        graphs = SCAN_CONFIGS.values()
        assert sum(not g.has_integer_coordinates() for g in graphs) >= 10
        assert {g.n for g in graphs} == {2, 3}

    @pytest.mark.parametrize("name", SCAN_CONFIGS)
    def test_table_matches_basis_oracle(self, name):
        g = SCAN_CONFIGS[name]
        res, rows = _scan(name)
        assert len(res.table) == res.examined
        for row in rows:
            sub = _subgraph(g, row.mask)
            applicable, dim_jr, dim_s, dim_d0, dim_j0 = basis_pair_terms(g, sub)
            assert (row.applicable, row.dim_jr) == (applicable, dim_jr), row
            # The exact basis, not just the span: the simplex pivots on it,
            # so it fixes the printed witnesses.
            oracle = monolithic_jr_subspace(sub, g)
            tilde = jr_subspace(sub, g)
            assert tilde == oracle, row
            assert jr_dimension(sub, g).to_json_dict()["tilde_dim"] == tilde.dim, row
            assert j0_dimension(sub) == dim_j0, row
            if applicable:
                raw = dim_jr + dim_s + dim_d0 - dim_j0
                assert (row.raw_bound, row.capped_bound) == (raw, min(raw, g.num_edges)), row
            else:
                assert (row.raw_bound, row.capped_bound) == (None, None), row
        if res.best is not None:
            best = res.best
            assert (best.applicable, best.dim_jr, best.dim_s, best.dim_d0, best.dim_j0) == (
                basis_pair_terms(g, _subgraph(g, res.best_mask))
            )

    @pytest.mark.parametrize("name", SCAN_CONFIGS)
    def test_sign_rule_only_rejects_infeasible_cones(self, name):
        g = SCAN_CONFIGS[name]
        for row in _scan(name)[1]:
            sub = _subgraph(g, row.mask)
            if any(_sign_rule(kernel) is not None for _, kernel in _cone_kernels(sub, g)):
                assert not positive_point(jr_subspace(sub, g)).feasible, row

    def test_sign_rule_certifies_empty_pair(self):
        from test_cone import empty_pair

        g1, g = empty_pair()
        kernels = _cone_kernels(g1, g)
        assert any(kernel.dim < len(out) for out, kernel in kernels)
        signed = [kernel for _, kernel in kernels if _sign_rule(kernel) is not None]
        assert signed
        for kernel in signed:
            assert local_certificate(kernel) is not None
        assert jr_dimension(g1, g).status == "empty"

    def test_non_integer_rows_scaled_per_row(self):
        # Scaling each reaction vector to integers, rather than each row,
        # rescales the columns of a vertex's rows; stacked on the balance
        # rows, that raises the rank of this J0 system from 7 to 8.
        h = Fraction(1, 2)
        g = EGraph(2, [(-1, -3 * h), (0, -3 * h), (3 * h, 1), (3 * h, 3 * h)],
                   [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0)])
        g1 = EGraph(2, g.vertices, [(0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (1, 3), (2, 1), (3, 0)])
        assert j0_dimension(g1) == j0_basis(g1).dim == g1.num_edges - 7
        for target in (g, g1, g_k4()):
            local = [(k.dim, local_certificate(k)) for _, k in _cone_kernels(g1, target)]
            lemma = sum(dim for dim, _ in local) - g1.num_vertices + len(linkage_classes(g1))
            decided = None if any(cert is not None for _, cert in local) else lemma
            assert decided == basis_pair_terms(target, g1)[1]
            assert d0_dimension(target) == d0_basis(target).dim
        # The scan builds its own blocks: against the complete graph it
        # reaches g1's mask, and its raw bound there needs dim J0 = 1.
        gc = complete_graph(g)
        mask = sum(1 << gc.edges.index(e) for e in g1.edges)
        (row,) = [r for r in global_lower_bound(gc).table if r.mask == mask]
        applicable, dim_jr, dim_s, dim_d0, dim_j0 = basis_pair_terms(gc, g1)
        assert dim_j0 == 1
        assert (row.applicable, row.dim_jr, row.raw_bound) == (
            applicable, dim_jr, dim_jr + dim_s + dim_d0 - dim_j0
        )


def _cone_kernels(g1, g):
    """Per vertex of g1 with out-edges: its out-edges, and the canonical
    kernel of its local cone rows against g, on which the per-vertex
    decision is made."""
    return cone._pair_kernels(g1, g)


def _sign_rule(kernel):
    """The per-vertex decision with the simplex taken out: a certificate
    only where a sign-definite row of the kernel's reduced rows gives one."""
    def undecided(_):
        return PositivityResult(feasible=True)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cone, "positive_point", undecided)
        return local_certificate(kernel)


# Caps for the cross-check against the per-subgraph scan: none, zero, one,
# and two that stop inside the smallest size levels.
ORACLE_CAPS = (None, 0, 1, 7, 25)


class TestMaskScan:
    """The scan over masks of the complete graph against the oracle that
    builds a graph per mask, and the work the scan may do."""

    @pytest.mark.parametrize("name", SCAN_CONFIGS)
    def test_matches_per_subgraph_scan(self, name):
        g = SCAN_CONFIGS[name]
        for cap in ORACLE_CAPS:
            res = _scan(name)[0] if cap is None else global_lower_bound(g, cap)
            assert res.to_json_dict() == per_subgraph_global_bound(g, cap).to_json_dict(), cap

    @pytest.mark.parametrize("m", [5, 6, 7])
    def test_matches_per_subgraph_scan_past_four_vertices(self, m):
        # More blocks per vertex and masks of up to 42 edges; the uncapped
        # scan is long here, so caps stop it.
        rng = random.Random(m)
        for n, den in ((2, 1), (3, 2)):
            g = random_m_vertex_graph(rng, m, n, den)
            for cap in (40, 300):
                res = global_lower_bound(g, cap)
                assert res.best is not None and res.examined == cap
                assert res.to_json_dict() == per_subgraph_global_bound(g, cap).to_json_dict()

    @pytest.mark.parametrize("name", ["g_k4", "g_cyc", "r11-3d-den1"])
    def test_graphs_only_for_incumbents_and_blocks_once(self, name, monkeypatch):
        # Outside the incumbents' reports the scan decides every cone vertex
        # by vertex: one local cone kernel, at most one local D0 kernel and
        # at most one simplex per (vertex, kept out-edges), no balance rows,
        # no local kernels embedded in the edge space, and no elimination
        # wider than max(|V|, n) columns.
        g = SCAN_CONFIGS[name]
        subgraphs, kernels, simplexes, eliminations, edge_space = [], [], [], [], []
        in_report = []

        def reporting(target, sub):
            in_report.append(sub)
            try:
                return pair_lower_bound(target, sub)
            finally:
                in_report.pop()

        def counting(module, fname, record):
            original = getattr(module, fname)

            def counted(*args, **kwargs):
                if not in_report:
                    record(args)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, fname, counted)

        def counting_subgraph(gc, edges):
            subgraphs.append(tuple(edges))
            return edge_subgraph(gc, edges)

        monkeypatch.setattr(locus, "edge_subgraph", counting_subgraph)
        monkeypatch.setattr(locus, "pair_lower_bound", reporting)
        # A cone kernel is asked for with the vertex's normals, a D0 kernel without.
        counting(locus, "local_kernel", lambda args: kernels.append((tuple(args[1]), len(args) > 2)))
        counting(cone, "positive_point", simplexes.append)
        for module in (exactla, equiv, locus):
            counting(module, "bareiss", lambda args: eliminations.append(args[1]))
        for module, fname in ((equiv, "restrict_to_kernel"), (cone, "restrict_to_kernel"),
                              (equiv, "embed_kernels")):
            counting(module, fname, edge_space.append)
        res = global_lower_bound(g)
        increases, best = 0, None
        for row in res.table:
            if row.applicable and (best is None or row.capped_bound > best):
                increases, best = increases + 1, row.capped_bound
        assert len(subgraphs) == increases >= 1
        m = g.num_vertices
        cone_kernels = [out for out, with_normals in kernels if with_normals]
        assert len(set(kernels)) == len(kernels) and len(cone_kernels) <= m * 2 ** (m - 1)
        assert len(simplexes) <= len(cone_kernels)
        assert eliminations and max(eliminations) <= max(m, g.n)
        assert edge_space == []
