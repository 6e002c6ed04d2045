"""Acceptance gate: every criterion at its stated tolerance, one
printed PASS/FAIL line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as the
suite executes.
"""

import itertools
import math
import random
from fractions import Fraction

from crnlocus import (
    EGraph,
    EdgeVector,
    birch_point,
    d0_basis,
    global_lower_bound,
    is_dynamically_equivalent,
    is_member_jr,
    is_weakly_reversible,
    j0_basis,
    jr_dimension,
    jr_subspace,
    lyapunov_value,
    ode_trajectory,
    pair_lower_bound,
    positive_point,
    psi_hat_inverse,
    psi_map,
    psi_small,
    tree_constants,
)
from crnlocus.egraph import linkage_classes
from crnlocus.exactla import combine, dot, subspace_from_span
from crnlocus.locus import canonical_d0_obasis, canonical_j0_obasis

from fixture_graphs import (
    g_cyc,
    g_in,
    g_k4,
    g_three_cycle,
    g_two_classes,
    g_two_vertex,
    dependency_vectors,
)
from oracles import (
    balance_subspace,
    direct_flux_imbalance,
    direct_net_vectors,
    enumerate_rooted_in_trees,
    random_edge_vector,
    random_positive_rational,
    random_wr_egraph,
    spans_same,
)


def _report(criterion: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}")
    for f in failures:
        print(f"  - {f}")
    assert not failures, f"{criterion}: " + "; ".join(failures)


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def test_criterion_1_kernel_example_reproduction():
    """Exact dimensions of D0/J0 on the square fixtures and the stated
    membership list for the dependency vectors."""
    failures: list[str] = []
    gc, gk = g_cyc(), g_k4()
    _check(failures, d0_basis(gc).dim == 0, "dim D0(G_CYC) != 0")
    _check(failures, j0_basis(gc).dim == 0, "dim J0(G_CYC) != 0")
    _check(failures, d0_basis(gk).dim == 4, "dim D0(G_K4) != 4")
    _check(failures, j0_basis(gk).dim == 3, "dim J0(G_K4) != 3")
    v = dependency_vectors(gk)
    j0 = j0_basis(gk)
    add = lambda a, b: [x + y for x, y in zip(a, b)]
    sub = lambda a, b: [x - y for x, y in zip(a, b)]
    # v_i sits at fixture vertex i-1 and the corners go round the square,
    # so v1/v3 and v2/v4 sit on opposite corners.  Every v_i is in D0; its
    # inflow minus outflow is +-(-1, +1, -1, +1) over the four corners, with
    # + for v1 and v3.  Hence sum c_i v_i is in J0(G_K4) exactly when
    # c1 + c3 = c2 + c4: v1+v2, v1-v3 and v1+v4 span J0, while v1,
    # v1+v3 and v1-v4 are not members.
    expected = [
        ("v1+v2", add(v["v1"], v["v2"]), True),
        ("v1-v3", sub(v["v1"], v["v3"]), True),
        ("v1+v4", add(v["v1"], v["v4"]), True),
        ("v1", v["v1"], False),
        ("v1+v3", add(v["v1"], v["v3"]), False),
        ("v1-v4", sub(v["v1"], v["v4"]), False),
    ]
    zero = (Fraction(0),) * gk.n
    for name, w, member in expected:
        by_definition = (
            all(net == zero for net in direct_net_vectors(gk, w).values())
            and not any(direct_flux_imbalance(gk, w))
        )
        _check(failures, by_definition == member,
               f"{name}: flux-balance definition gives membership {by_definition}")
        _check(failures, j0.contains(w) == member,
               f"{name}: j0_basis gives membership {not member}")
    members = [w for _, w, member in expected if member]
    _check(failures, spans_same(subspace_from_span(members, gk.num_edges), j0),
           "v1+v2, v1-v3, v1+v4 do not span J0(G_K4)")
    _report("1 (kernel dimensions and memberships)", failures)


def test_criterion_2_cone_and_bound_reproduction():
    """Cone dimensions 1/5/9/9, capped pair bounds 3/4/8/12, global best 4/8/12."""
    failures: list[str] = []
    gi, gc, gk = g_in(), g_cyc(), g_k4()
    expected = [
        (gi, gc, 1, 3),
        (gi, gk, 5, 4),
        (gc, gk, 9, 8),
        (gk, gk, 9, 12),
    ]
    for g, g1, dim, capped in expected:
        cone = jr_dimension(g1, g)
        _check(failures, cone.status == "nonempty", f"cone for |E|={g1.num_edges} empty")
        _check(failures, cone.dim == dim, f"cone dim {cone.dim} != {dim}")
        rep = pair_lower_bound(g, g1)
        _check(failures, rep.capped_bound == capped,
               f"capped bound {rep.capped_bound} != {capped}")
    for g, best in [(gi, 4), (gc, 8), (gk, 12)]:
        res = global_lower_bound(g)
        got = res.best.capped_bound if res.best else None
        _check(failures, got == best, f"global best {got} != {best}")
    _report("2 (cone dimensions and lower bounds)", failures)


def test_criterion_3_kernel_shift_equivalence_suites():
    """200 exact trials each: dynamical equivalence on one graph is a D0
    shift; flux equivalence is a D0 shift, and a J0 shift between
    balanced fluxes."""
    failures: list[str] = []
    rng = random.Random(1901)

    de_trials = 0
    while de_trials < 200:
        g = random_wr_egraph(rng) if de_trials % 2 else g_k4()
        d0 = d0_basis(g)
        k = random_edge_vector(g, rng)
        if de_trials % 2 == 0 and d0.dim > 0:
            coeffs = [random_positive_rational(rng) - 1 for _ in range(d0.dim)]
            d = combine(coeffs, d0.basis, g.num_edges)
        else:
            d = tuple(random_positive_rational(rng) - 1 for _ in range(g.num_edges))
        k2 = EdgeVector(g, [a + b for a, b in zip(k.values, d)])
        equivalent = is_dynamically_equivalent(g, k, g, k2)
        in_d0 = d0.contains(d)
        _check(failures, equivalent == in_d0,
               f"trial {de_trials}: dynamical equivalence {equivalent} but D0 membership {in_d0}")
        de_trials += 1

    fe_trials = 0
    while fe_trials < 200:
        g = random_wr_egraph(rng)
        d0 = d0_basis(g)
        j = random_edge_vector(g, rng, positive=True)
        if fe_trials % 3 == 0 and d0.dim > 0:
            coeffs = [random_positive_rational(rng) - 1 for _ in range(d0.dim)]
            d = combine(coeffs, d0.basis, g.num_edges)
        else:
            d = tuple(random_positive_rational(rng) - 1 for _ in range(g.num_edges))
        j2 = EdgeVector(g, [a + b for a, b in zip(j.values, d)])
        _check(failures, is_dynamically_equivalent(g, j, g, j2) == d0.contains(d),
               f"flux trial {fe_trials}: equivalence/membership mismatch")
        fe_trials += 1

    cb_trials = 0
    while cb_trials < 200:
        g = random_wr_egraph(rng)
        bal = balance_subspace(g)
        res = positive_point(bal)
        if not res.feasible:
            continue
        base = res.point
        j0 = j0_basis(g)

        def balanced_flux():
            coeffs = [random_positive_rational(rng) - 1 for _ in range(bal.dim)]
            shift = combine(coeffs, bal.basis, g.num_edges)
            scale = Fraction(1)
            for v, s in zip(base, shift):
                if s != 0:
                    scale = min(scale, abs(v) / (2 * abs(s)))
            return EdgeVector(g, [v + scale * s for v, s in zip(base, shift)])

        ja, jb = balanced_flux(), balanced_flux()
        diff = [a - b for a, b in zip(jb.values, ja.values)]
        _check(failures, is_dynamically_equivalent(g, ja, g, jb) == j0.contains(diff),
               f"balanced trial {cb_trials}: equivalence/J0 membership mismatch")
        cb_trials += 1

    _report("3 (equivalence-as-kernel-shift suites, 200 trials each)", failures)


def test_criterion_4_flux_state_equivalence_suite():
    """100 integer-coordinate system pairs: dynamical equivalence matches
    flux equivalence of the induced fluxes at ones and at 5 random states."""
    failures: list[str] = []
    rng = random.Random(2401)

    def flux_at(g, k, x):
        from crnlocus.equiv import state_power

        return EdgeVector(
            g,
            [
                k.values[e] * state_power(x, g.vertices[g.edges[e][0]], True)
                for e in range(g.num_edges)
            ],
        )

    pairs = 0
    equivalent_seen = 0
    while pairs < 100:
        g = random_wr_egraph(rng)
        k = random_edge_vector(g, rng, positive=True)
        if pairs % 2 == 0:
            d0 = d0_basis(g)
            if d0.dim:
                coeffs = [random_positive_rational(rng) - 1 for _ in range(d0.dim)]
                shift = combine(coeffs, d0.basis, g.num_edges)
            else:
                shift = [Fraction(0)] * g.num_edges
            g2 = g
            k2 = EdgeVector(g, [a + b for a, b in zip(k.values, shift)])
        else:
            g2 = random_wr_egraph(rng)
            if g2.n != g.n:
                continue
            k2 = random_edge_vector(g2, rng, positive=True)
        de = is_dynamically_equivalent(g, k, g2, k2)
        equivalent_seen += de
        ones = tuple(Fraction(1) for _ in range(g.n))
        fe_ones = is_dynamically_equivalent(g, flux_at(g, k, ones), g2, flux_at(g2, k2, ones))
        _check(failures, de == fe_ones, f"pair {pairs}: mismatch at the all-ones state")
        for t in range(5):
            x = tuple(random_positive_rational(rng) for _ in range(g.n))
            fe_x = is_dynamically_equivalent(g, flux_at(g, k, x), g2, flux_at(g2, k2, x))
            _check(failures, de == fe_x, f"pair {pairs}: mismatch at sampled state {t}")
        pairs += 1
    _check(failures, equivalent_seen >= 25, "suite failed to exercise equivalent pairs")
    _report("4 (dynamical vs flux equivalence, 100 pairs)", failures)


def test_criterion_5_cone_certification_and_balance_sweep():
    """Witness membership for nonempty cones, simplex certificates for
    empty ones, and the positive-balanced-flux <=> weak-reversibility
    sweep over all graphs on <= 4 vertices with <= 8 edges."""
    failures: list[str] = []
    gi, gc, gk = g_in(), g_cyc(), g_k4()
    pairs = [(gc, gi), (gk, gi), (gk, gc), (gk, gk)]
    for g1, g in pairs:
        cone = jr_dimension(g1, g)
        _check(failures, cone.status == "nonempty", "fixture cone unexpectedly empty")
        _check(failures, is_member_jr(g1, g, cone.witness),
               "nonempty cone witness failed the membership test")
    side_pair = EGraph(2, [(0, 0), (1, 0)], [(0, 1), (1, 0)])
    empty = jr_dimension(side_pair, gi)
    _check(failures, empty.status == "empty", "side pair cone should be empty")
    cert = empty.certificate
    _check(failures, cert is not None and all(c >= 0 for c in cert) and any(c > 0 for c in cert),
           "emptiness certificate is not a nonzero nonnegative vector")
    if cert is not None:
        for b in jr_subspace(side_pair, gi).basis:
            _check(failures, dot(cert, b) == 0, "certificate not orthogonal to the subspace")

    base = gk
    swept = 0
    for size in range(1, 9):
        for combo in itertools.combinations(range(12), size):
            sub_edges = [base.edges[i] for i in combo]
            touched = sorted({v for e in sub_edges for v in e})
            remap = {v: i for i, v in enumerate(touched)}
            g = EGraph(
                2,
                [base.vertices[v] for v in touched],
                [(remap[s], remap[t]) for s, t in sub_edges],
            )
            feasible = positive_point(balance_subspace(g)).feasible
            if feasible != is_weakly_reversible(g):
                _check(failures, False,
                       f"sweep exception at edge set {sub_edges}")
            swept += 1
    _check(failures, swept == sum(math.comb(12, s) for s in range(1, 9)),
           "sweep did not cover every edge subset")
    _report("5 (cone certification and balance sweep)", failures)


def test_criterion_6_tree_constant_oracle():
    """Determinant tree constants equal explicit rooted-tree enumeration
    on weakly reversible fixtures with <= 5 vertices, exactly."""
    failures: list[str] = []
    rng = random.Random(3100)
    wheel = EGraph(
        2,
        [(0, 0), (2, 0), (3, 1), (1, 2), (-1, 1)],
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 0), (2, 1), (3, 2), (4, 3), (0, 4)],
    )
    fixtures = [g_two_vertex(), g_three_cycle(), g_two_classes(), g_cyc(), g_k4(), wheel]
    for g in fixtures:
        for _ in range(3):
            k = EdgeVector(
                g, [Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in g.edges]
            )
            tc = tree_constants(g, k)
            for cls in linkage_classes(g):
                for root in cls:
                    oracle = enumerate_rooted_in_trees(g, k.values, root, cls)
                    _check(failures, tc.values[root] == oracle,
                           f"tree constant mismatch at root {root} (|V|={g.num_vertices})")
    _report("6 (determinant vs enumerated tree constants)", failures)


def test_criterion_7_coordinate_map_suite():
    """Determinism, exact injectivity on 50 inputs, exact round-trips on
    20, openness boxes, and the continuity ratio test."""
    failures: list[str] = []
    rng = random.Random(4100)
    gi, gc, gk = g_in(), g_cyc(), g_k4()
    pairs = [(gi, gc), (gi, gk), (gc, gk), (gk, gk)]
    cones = {id(p): jr_dimension(p[1], p[0]) for p in pairs}

    def member(g1, g, cone):
        tilde = jr_subspace(g1, g)
        coeffs = [random_positive_rational(rng) - 1 for _ in range(tilde.dim)]
        shift = combine(coeffs, tilde.basis, g1.num_edges)
        scale = Fraction(1)
        for v, s in zip(cone.witness.values, shift):
            if s != 0:
                scale = min(scale, abs(v) / (2 * abs(s)))
        return EdgeVector(
            g1, [v + scale * s for v, s in zip(cone.witness.values, shift)]
        )

    # determinism
    j = EdgeVector.uniform(gk)
    out_a = psi_map(gk, gi, j, (1, 1), ())
    out_b = psi_map(gk, gi, j, (1, 1), ())
    _check(failures, out_a.k.values == out_b.k.values and out_a.q == out_b.q,
           "repeated evaluation disagreed")

    # injectivity on 50 distinct random inputs
    images = {}
    count = 0
    while count < 50:
        g, g1 = pairs[count % len(pairs)]
        cone = cones[id((g, g1))] if id((g, g1)) in cones else jr_dimension(g1, g)
        jj = member(g1, g, cone)
        x = tuple(random_positive_rational(rng) for _ in range(g1.n))
        p = tuple(random_positive_rational(rng) - 1 for _ in canonical_d0_obasis(g))
        key = (count % len(pairs), jj.values, x, p)
        if key in images:
            continue
        out = psi_map(g1, g, jj, x, p)
        image = (count % len(pairs), out.k.values, out.q, x)
        for other_key, other_image in images.items():
            _check(failures, other_image != image,
                   f"distinct inputs {other_key[0]} collided in the image")
        images[key] = image
        count += 1

    # exact round-trips on 20 inputs
    done = 0
    while done < 20:
        g, g1 = pairs[done % len(pairs)]
        cone = jr_dimension(g1, g)
        jj = member(g1, g, cone)
        x = tuple(random_positive_rational(rng) for _ in range(g1.n))
        p = tuple(random_positive_rational(rng) - 1 for _ in canonical_d0_obasis(g))
        out = psi_map(g1, g, jj, x, p)
        k1 = EdgeVector(
            g1,
            [
                jj.values[e] / _pow(x, g1.vertices[g1.edges[e][0]])
                for e in range(g1.num_edges)
            ],
        )
        pre = psi_hat_inverse(g1, g, out.k, k1, out.q, x0=x)
        ok = (
            pre.j_hat.values == jj.values
            and pre.x.mode == "exact"
            and tuple(pre.x.x) == x
            and pre.p == p
        )
        _check(failures, ok, f"round-trip {done} not exact")
        done += 1

    # openness boxes for every fixture pair with a nontrivial coordinate space
    for g, g1 in pairs:
        basis = canonical_j0_obasis(g1)
        cone = jr_dimension(g1, g)
        witness = cone.witness
        q = psi_small(g1, g, witness)
        for i, a in enumerate(basis):
            eps = min(abs(v) / (2 * abs(x)) for v, x in zip(witness.values, a) if x != 0)
            for sign in (1, -1):
                j2 = EdgeVector(g1, [v + sign * eps * x for v, x in zip(witness.values, a)])
                _check(failures, is_member_jr(g1, g, j2),
                       f"openness: perturbed flux left the cone (direction {i})")
                q2 = psi_small(g1, g, j2)
                want = list(q)
                want[i] += sign * eps
                _check(failures, q2 == tuple(want), "openness: coordinate shift mismatch")

    # continuity ratio test across perturbation scales 1e-2 -> 1e-6
    cone = jr_dimension(gk, gi)
    witness = cone.witness
    base = psi_map(gk, gi, witness, (1, 1), ())
    tilde_dir = jr_subspace(gk, gi).basis[0]
    scale = min(abs(v) / (2 * abs(d)) for v, d in zip(witness.values, tilde_dir) if d != 0)
    direction = [min(scale * 100, Fraction(100)) * d for d in tilde_dir]
    ratios = []
    for delta in (Fraction(1, 100), Fraction(1, 10_000), Fraction(1, 1_000_000)):
        j2 = EdgeVector(gk, [v + delta * d for v, d in zip(witness.values, direction)])
        x2 = (1 + delta, 1 - delta)
        out = psi_map(gk, gi, j2, x2, ())
        dk = max(abs(a - b) for a, b in zip(out.k.values, base.k.values))
        dq = max((abs(a - b) for a, b in zip(out.q, base.q)), default=Fraction(0))
        ratios.append(float(dk + dq) / float(delta))
    _check(failures, ratios[0] > 0, "continuity probe did not move the output")
    for a, b in zip(ratios, ratios[1:]):
        _check(failures, max(a, b) / min(a, b) < 10,
               f"continuity ratio drifted: {a} vs {b}")

    _report("7 (coordinate map suite)", failures)


def _pow(x, y):
    out = Fraction(1)
    for xi, yi in zip(x, y):
        out *= Fraction(xi) ** int(yi)
    return out


def test_criterion_8_birch_lyapunov_numeric_suite():
    """Birch agreement from 5 starts within 1e-8; monotone Lyapunov
    descent (1e-10 per step) and terminal distance <= 1e-6."""
    failures: list[str] = []
    pair = EGraph(2, [(1, 0), (0, 1)], [(0, 1), (1, 0)])
    rng = random.Random(5100)
    points = []
    for _ in range(5):
        a = Fraction(rng.randint(1, 7), 4)
        bp = birch_point(pair, (1.0, 1.0), (a, 2 - a))
        points.append(bp.x)
    for a, b in zip(points, points[1:]):
        _check(failures, max(abs(p - q) for p, q in zip(a, b)) <= 1e-8,
               "Birch points from same-class starts disagree beyond 1e-8")

    cases = [
        (g_k4(), EdgeVector.uniform(g_k4()), (1.0, 1.0), (1.6, 0.6), 25.0),
        (g_two_vertex(), EdgeVector(g_two_vertex(), [2, 3]), (2.0 / 3.0,), (1.8,), 12.0),
    ]
    for g, k, xstar, x0, t_end in cases:
        bp = birch_point(g, xstar, x0)
        traj = ode_trajectory(g, k, x0, t_end=t_end, dt=0.02)
        values = [lyapunov_value(x, xstar) for _, x in traj]
        for i, (a, b) in enumerate(zip(values, values[1:])):
            _check(failures, b <= a + 1e-10,
                   f"Lyapunov value increased at step {i}")
            if failures:
                break
        terminal = traj[-1][1]
        dist = max(abs(float(p) - float(q)) for p, q in zip(terminal, bp.x))
        _check(failures, dist <= 1e-6,
               f"terminal state is {dist:.2e} from the Birch point")
    _report("8 (Birch/Lyapunov numeric suite)", failures)
