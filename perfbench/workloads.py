"""Seeded input generators for the three workloads.

Each generator turns (workload, seed) into a fixed list of jobs, one
"pass", plus the input files those jobs read.  The same seed always
gives the same pass.  Every generator checks its own preconditions with
the independent arithmetic of ``indep`` and never calls crnlocus:

* scan  - ``bound --all`` on the unit-square fixtures g_k4 and g_cyc and
  on seeded 4-vertex configurations in 2-D and 3-D with 3-8 edges, one
  from each cost stratum of ``scan_pool.json``.
* pair  - ``bound G G1`` on seeded 3-D weakly reversible networks G1,
  each against G = G1 (balance rows only), a lightly thinned G whose cone
  is nonempty, and a heavily thinned G whose cone is empty.  Both thinned
  targets need the simplex.
* maps  - ``check toric``, ``psi forward``, ``psi inverse`` and the
  library's ``ode_trajectory`` on seeded 3-D weakly reversible networks.
  Half of them have integer coordinates and full-dimensional S (exact
  path); the other half have half-integer coordinates on the plane
  y1 + y2 + y3 = const, so dim S < n and the Birch point needs Newton.
  A base state on which crnlocus' Newton iteration is known to stall is
  redrawn and kept as an untimed probe (see ``defects.py``).

Complex-balanced rates are k = j / x^y for a positive balanced flux j
and a state x whose entries are exact squares, so x^y stays rational
even for half-integer y.  Rates rounded through floats would not be
exactly complex balanced.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from defects import birch_stalls
from indep import (
    Net,
    balance_only,
    balance_residuals,
    cone_nonempty,
    dim_d0,
    dim_j0,
    dim_s,
    is_weakly_reversible,
    net_from_json,
    net_hash,
    net_json,
    rat_json,
    state_power,
)

# A scan pass takes one configuration from each cost stratum of scan_pool.json,
# redrawn until their recorded costs sum to within SCAN_COST_TOL seconds of the
# strata's mean total, so that a pass costs about the same at every seed.
SCAN_STRATA = 6
SCAN_COST_TOL = 0.25
SCAN_POOL = Path(__file__).resolve().parent / "scan_pool.json"
# |E(G1)| of the pair networks, each run against three targets.
PAIR_SIZES = [30, 45, 60, 75, 90, 120]
# (|E|, coordinates) of the maps networks, each giving five jobs: sizes 20 to 60,
# integer and half-integer coordinates alternating.
MAPS_NETWORKS = [(20 + 4 * i, "half" if i % 2 else "int") for i in range(11)]

ODE_STEPS = 60
MAX_DRAWS = 200


class Job(NamedTuple):
    """One closed-loop request: a CLI argv (file names refer to inputs) or an
    ode_trajectory library call, plus what the answer check needs."""

    id: str
    kind: str  # "cli" | "ode"
    args: tuple
    info: dict


class Workload(NamedTuple):
    name: str
    seed: int
    jobs: list[Job]
    files: dict  # file name -> JSON-serializable document
    warmup: list[Job]  # run untimed first, so lazy set-up is not timed
    probes: tuple = ()  # known-defect inputs, run once untimed and not counted (defects.py)


class PreconditionError(RuntimeError):
    """A generator could not produce inputs with the properties it promises."""


def _square() -> tuple[tuple[Fraction, ...], ...]:
    return tuple((Fraction(a), Fraction(b)) for a, b in [(0, 0), (1, 0), (1, 1), (0, 1)])


def fixture_cyc() -> Net:
    """Bidirected 4-cycle on the unit square (8 edges)."""
    return Net(2, _square(), ((0, 1), (0, 3), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0), (3, 2)))


def fixture_k4() -> Net:
    """Complete digraph on the unit square (12 edges)."""
    return Net(2, _square(), tuple((i, j) for i in range(4) for j in range(4) if i != j))


def _vector_doc(g: Net, values) -> dict:
    return {"graph_hash": net_hash(g), "values": [rat_json(v) for v in values]}


def _rational(rng: random.Random, num_hi: int, den_hi: int) -> Fraction:
    return Fraction(rng.randint(1, num_hi), rng.randint(1, den_hi))


# ---------------------------------------------------------------- scan


def _scan_config(rng: random.Random, dim: int, n_edges: int) -> Net:
    all_edges = [(i, j) for i in range(4) for j in range(4) if i != j]
    for _ in range(MAX_DRAWS):
        pts: set[tuple[int, ...]] = set()
        while len(pts) < 4:
            pts.add(tuple(rng.randint(0, 2) for _ in range(dim)))
        edges = sorted(rng.sample(all_edges, n_edges))
        if len({v for e in edges for v in e}) == 4:
            verts = tuple(tuple(Fraction(c) for c in p) for p in sorted(pts))
            return Net(dim, verts, tuple(edges))
    raise PreconditionError(f"no {dim}-D configuration with {n_edges} edges touching 4 vertices")


def build_scan(seed: int) -> Workload:
    rng = random.Random(f"scan:{seed}")
    strata = json.loads(SCAN_POOL.read_text())["strata"]
    if len(strata) != SCAN_STRATA:
        raise PreconditionError(f"{SCAN_POOL.name} has {len(strata)} strata, not {SCAN_STRATA}")
    target = sum(sum(c["cost_s"] for c in stratum) / len(stratum) for stratum in strata)
    for _ in range(MAX_DRAWS):
        picks = [rng.choice(stratum) for stratum in strata]
        if abs(sum(c["cost_s"] for c in picks) - target) <= SCAN_COST_TOL:
            break
    else:
        raise PreconditionError(f"no scan pass within {SCAN_COST_TOL} s of the mean cost {target:.2f} s")
    nets = [("g_k4", fixture_k4()), ("g_cyc", fixture_cyc())]
    for i, pick in enumerate(picks):
        nets.append((f"s{i}-{pick['label']}", net_from_json(pick["graph"])))
    files, jobs = {}, []
    for label, g in nets:
        files[f"{label}.json"] = net_json(g)
        jobs.append(Job(f"scan/{label}", "cli", ("bound", "--all", f"{label}.json"), {"g": g}))
    cheapest = [j for j in jobs if j.id.startswith("scan/s0-")]
    return Workload("scan", seed, jobs, files, cheapest)


# ------------------------------------------------------ random WR networks


def _split(rng: random.Random, total: int, parts: int, least: int) -> list[int]:
    sizes = [least] * parts
    for _ in range(total - least * parts):
        sizes[rng.randrange(parts)] += 1
    return sizes


def _points(rng: random.Random, count: int, half: bool) -> list[tuple[Fraction, ...]]:
    """Distinct 3-D points: integers in a box, or half-integers on y1+y2+y3 = 3."""
    pts: set[tuple[Fraction, ...]] = set()
    while len(pts) < count:
        if half:
            a, b = rng.randint(0, 8), rng.randint(0, 8)
            pts.add((Fraction(a, 2), Fraction(b, 2), Fraction(6 - a - b, 2)))
        else:
            pts.add(tuple(Fraction(rng.randint(0, 3)) for _ in range(3)))
    return sorted(pts)


def wr_network(rng: random.Random, n_edges: int, half: bool, classes: int = 1) -> Net:
    """A weakly reversible 3-D network with exactly n_edges edges.

    About n_edges / 3 vertices in `classes` linkage classes.  Each class
    is closed by a random Hamiltonian cycle, then vertex i gets random
    extra out-edges inside its class up to 2 + i % 3, so out-degrees
    follow a fixed 2, 3, 4 pattern and the cost of a network of a given
    size varies little with the seed.
    """
    nv = max(3 * classes, n_edges // 3)
    for _ in range(MAX_DRAWS):
        sizes = _split(rng, nv, classes, 3)
        pts = _points(rng, nv, half)
        order = list(range(nv))
        rng.shuffle(order)
        edges: set[tuple[int, int]] = set()
        class_of, at = {}, 0
        for size in sizes:
            members = order[at : at + size]
            at += size
            for a, b in zip(members, members[1:] + members[:1]):
                edges.add((a, b))
            class_of.update({v: members for v in members})
        degree = {v: min(2 + v % 3, len(class_of[v]) - 1) for v in range(nv)}
        if sum(len(class_of[v]) - 1 for v in range(nv)) < n_edges:
            continue
        while sum(degree.values()) < n_edges:
            v = rng.randrange(nv)
            degree[v] = min(degree[v] + 1, len(class_of[v]) - 1)
        for v in range(nv):
            others = [b for b in class_of[v] if b != v and (v, b) not in edges]
            rng.shuffle(others)
            have = sum(1 for e in edges if e[0] == v)
            edges.update((v, b) for b in others[: max(0, degree[v] - have)])
        if len(edges) != n_edges:
            continue
        g = Net(3, tuple(pts), tuple(sorted(edges)))
        want = 2 if half else 3
        if dim_s(g) == want and is_weakly_reversible(g) and g.has_integer_coordinates() != half:
            return g
    raise PreconditionError(f"no weakly reversible network with {n_edges} edges")


def balanced_flux(rng: random.Random, g: Net) -> list[Fraction]:
    """Strictly positive balanced flux: each edge closed into a cycle by a
    shortest return path, with a random positive weight per cycle."""
    succ: dict[int, list[tuple[int, int]]] = {}
    for ei, (s, t) in enumerate(g.edges):
        succ.setdefault(s, []).append((t, ei))
    flux = [Fraction(0)] * g.num_edges
    for ei, (s, t) in enumerate(g.edges):
        prev = {t: None}
        frontier = [t]
        while s not in prev:
            nxt = []
            for v in frontier:
                for w, ej in succ.get(v, []):
                    if w not in prev:
                        prev[w] = (v, ej)
                        nxt.append(w)
            if not nxt:
                raise PreconditionError("edge without a return path")
            frontier = nxt
        weight = Fraction(rng.randint(1, 3))
        flux[ei] += weight
        cur = s
        while cur != t:
            v, ej = prev[cur]
            flux[ej] += weight
            cur = v
    if any(balance_residuals(g, flux)) or not all(f > 0 for f in flux):
        raise PreconditionError("cycle flux is not positive and balanced")
    return flux


# ---------------------------------------------------------------- pair


def _split_planes(g1: Net, v: int) -> list[tuple[int, int]]:
    """Pairs of v's out-edges whose plane has other out-edges of v strictly on
    both sides: keeping only such a pair leaves room for a positive flux."""
    outs = g1.out_edges(v)
    found = []
    for ia, a in enumerate(outs):
        for b in outs[ia + 1 :]:
            (a1, a2, a3), (b1, b2, b3) = g1.reaction(a), g1.reaction(b)
            normal = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
            if not any(normal):
                continue
            sides = {sum(x * y for x, y in zip(normal, g1.reaction(e))) > 0
                     for e in outs if e not in (a, b)
                     if sum(x * y for x, y in zip(normal, g1.reaction(e))) != 0}
            if sides == {True, False}:
                found.append((a, b))
    return found


def _keep_only(g1: Net, keep: dict[int, tuple[int, ...]]) -> Net:
    drop = {e for v, kept in keep.items() for e in g1.out_edges(v) if e not in kept}
    return Net(g1.n, g1.vertices, tuple(e for i, e in enumerate(g1.edges) if i not in drop))


def _light_target(rng: random.Random, g1: Net) -> Net:
    """Two out-edges kept at half of the vertices where a positive flux can
    still pass: the simplex runs and the cone stays nonempty."""
    planes = {v: _split_planes(g1, v) for v in range(len(g1.vertices))}
    eligible = [v for v, pairs in planes.items() if pairs]
    for _ in range(MAX_DRAWS if eligible else 0):
        chosen = rng.sample(eligible, max(1, len(eligible) // 2))
        g = _keep_only(g1, {v: rng.choice(planes[v]) for v in chosen})
        if not balance_only(g1, g) and cone_nonempty(g1, g) is True:
            return g
    raise PreconditionError(f"no light target with a nonempty cone for |E1|={g1.num_edges}")


def _heavy_target(rng: random.Random, g1: Net) -> Net:
    """One out-edge kept at about 70% of the vertices: the cone is empty."""
    for _ in range(MAX_DRAWS):
        keep = {v: (rng.choice(g1.out_edges(v)),) for v in range(len(g1.vertices))
                if rng.random() < 0.7}
        g = _keep_only(g1, keep)
        if not balance_only(g1, g) and cone_nonempty(g1, g) is False:
            return g
    raise PreconditionError(f"no heavy target with an empty cone for |E1|={g1.num_edges}")


def build_pair(seed: int) -> Workload:
    rng = random.Random(f"pair:{seed}")
    files, jobs = {}, []
    for i, size in enumerate(PAIR_SIZES):
        g1 = wr_network(rng, size, half=False)
        targets = [
            ("same", g1),
            ("light", _light_target(rng, g1)),
            ("heavy", _heavy_target(rng, g1)),
        ]
        g1_name = f"n{i}-g1.json"
        files[g1_name] = net_json(g1)
        for kind, g in targets:
            label = f"n{i}-e{size}-{kind}"
            files[f"{label}.json"] = net_json(g)
            info = {"g": g, "g1": g1, "nonempty": kind != "heavy"}
            jobs.append(Job(f"pair/{label}", "cli", ("bound", f"{label}.json", g1_name), info))
    return Workload("pair", seed, jobs, files, jobs[:3])


# ---------------------------------------------------------------- maps


def _state(rng: random.Random, half: bool) -> tuple[Fraction, ...]:
    if half:  # exact squares, so half-integral powers stay rational
        return tuple(_rational(rng, 3, 2) ** 2 for _ in range(3))
    return tuple(_rational(rng, 4, 3) for _ in range(3))


def _supergraph(rng: random.Random, g1: Net, extra: int) -> Net:
    m = len(g1.vertices)
    have = set(g1.edges)
    missing = [(a, b) for a in range(m) for b in range(m) if a != b and (a, b) not in have]
    add = rng.sample(missing, min(extra, len(missing)))
    return Net(g1.n, g1.vertices, tuple(sorted(have | set(add))))


def build_maps(seed: int) -> Workload:
    rng = random.Random(f"maps:{seed}")
    files, jobs, probes = {}, [], []
    for i, (size, coords) in enumerate(MAPS_NETWORKS):
        half = coords == "half"
        g1 = wr_network(rng, size, half, classes=max(1, min(1 + i % 3, size // 15)))
        tag = f"m{i}-e{size}-{coords}"
        names = {key: f"{tag}-{key}.json" for key in ("g1", "g", "k1", "krand", "fwd", "inv")}
        g = _supergraph(rng, g1, 3)
        flux = balanced_flux(rng, g1)
        xhat = _state(rng, half)
        powers = [state_power(xhat, g1.vertices[s]) for s, _ in g1.edges]
        k1 = [f / p for f, p in zip(flux, powers)]
        k_rand = [_rational(rng, 9, 4) for _ in g1.edges]
        pos = {e: ei for ei, e in enumerate(g.edges)}
        k_on_g = [Fraction(0)] * g.num_edges
        for ei, e in enumerate(g1.edges):
            k_on_g[pos[e]] = k1[ei]
        p = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim_d0(g))]
        q_hat = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim_j0(g1))]
        base = {"g1": g1, "g": g, "exact": not half}
        inv_base = {**base, "k": k_on_g, "k1": k1, "q_hat": q_hat}
        for _ in range(MAX_DRAWS):
            x0 = _state(rng, half)
            if half and sum(x0) == sum(xhat):
                x0 = (x0[0] + 1,) + x0[1:]
            if not (half and birch_stalls(g1, xhat, x0)):
                break
            name = f"{tag}-inv-stall{len(probes)}.json"
            files[name] = _inverse_doc(g, g1, k_on_g, k1, q_hat, x0)
            probes.append(Job(f"maps/{tag}/psi-inv-stall{len(probes)}", "cli",
                              ("psi", "inverse", names["g1"], names["g"], name),
                              {**inv_base, "x0": x0}))
        else:
            raise PreconditionError(f"{tag}: every base state stalls birch_point")
        files[names["g1"]] = net_json(g1)
        files[names["g"]] = net_json(g)
        files[names["k1"]] = _vector_doc(g1, k1)
        files[names["krand"]] = _vector_doc(g1, k_rand)
        files[names["fwd"]] = {
            "j": _vector_doc(g1, flux),
            "x": [rat_json(v) for v in xhat],
            "p": [rat_json(v) for v in p],
        }
        files[names["inv"]] = _inverse_doc(g, g1, k_on_g, k1, q_hat, x0)
        jobs += [
            Job(f"maps/{tag}/toric-cb", "cli", ("check", "toric", names["g1"], names["k1"]),
                {**base, "k": k1, "toric": True}),
            Job(f"maps/{tag}/toric-rand", "cli", ("check", "toric", names["g1"], names["krand"]),
                {**base, "k": k_rand, "toric": None}),
            Job(f"maps/{tag}/psi-fwd", "cli",
                ("psi", "forward", names["g1"], names["g"], names["fwd"]),
                {**base, "flux": flux, "x": xhat, "p": p}),
            Job(f"maps/{tag}/psi-inv", "cli",
                ("psi", "inverse", names["g1"], names["g"], names["inv"]), {**inv_base, "x0": x0}),
            _ode_job(tag, names, g1, k1, flux, xhat, rng),
        ]
    return Workload("maps", seed, jobs, files, jobs[:5], tuple(probes))


def _inverse_doc(g: Net, g1: Net, k_on_g, k1, q_hat, x0) -> dict:
    return {
        "k": _vector_doc(g, k_on_g),
        "k1": _vector_doc(g1, k1),
        "q_hat": [rat_json(v) for v in q_hat],
        "x0": [rat_json(v) for v in x0],
    }


def _ode_job(tag, names, g1: Net, k1, flux, xhat, rng: random.Random) -> Job:
    """RK4 from a perturbed state, with a step small against the fastest
    species turnover at the complex-balanced state xhat."""
    x0 = tuple(float(v) * rng.uniform(0.5, 2.0) for v in xhat)
    turnover = max(
        sum(float(f) * abs(float(g1.reaction(ei)[i])) for ei, f in enumerate(flux)) / float(xhat[i])
        for i in range(3)
    )
    dt = 0.02 / turnover
    info = {"g1": g1, "k": k1, "xhat": xhat, "x0": x0, "t_end": dt * ODE_STEPS, "dt": dt,
            "half": not g1.has_integer_coordinates()}
    return Job(f"maps/{tag}/ode", "ode", (names["g1"], names["k1"]), info)


BUILDERS = {"scan": build_scan, "pair": build_pair, "maps": build_maps}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
