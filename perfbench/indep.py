"""Independent arithmetic for input generation and answer checks.

Nothing here imports crnlocus.  Graphs are plain ``Net`` tuples of
exact Fractions.  Dimensions of the large constraint systems come from
ranks modulo two fixed 31-bit primes (the larger of the two is taken; a
rank modulo p never exceeds the rational rank and equals it unless p
divides every maximal nonzero minor).  Small per-vertex systems, with at
most n rows, are ranked exactly in Fractions.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

PRIMES = (2147483629, 2147483587)


class Net(NamedTuple):
    """A graph embedded in Q^n: vertex coordinates and (source, target) edges."""

    n: int
    vertices: tuple[tuple[Fraction, ...], ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def out_edges(self, v: int) -> list[int]:
        return [ei for ei, (s, _) in enumerate(self.edges) if s == v]

    def reaction(self, ei: int) -> tuple[Fraction, ...]:
        s, t = self.edges[ei]
        return tuple(b - a for a, b in zip(self.vertices[s], self.vertices[t]))

    def has_integer_coordinates(self) -> bool:
        return all(c.denominator == 1 for v in self.vertices for c in v)


def rat_json(x: Fraction) -> int | str:
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rat_parse(value) -> Fraction:
    """An exact rational from the wire format (int or "p/q" string)."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not an exact rational: {value!r}")
    return Fraction(value)


def num_parse(value) -> float:
    """A float from either wire format: exact rational or plain number."""
    if isinstance(value, str):
        return float(Fraction(value))
    return float(value)


def net_json(g: Net) -> dict:
    return {
        "n": g.n,
        "vertices": [[rat_json(c) for c in v] for v in g.vertices],
        "edges": [[s, t] for s, t in g.edges],
    }


def net_hash(g: Net) -> str:
    """SHA-256 of the compact canonical graph serialization (the wire-format hash)."""
    text = json.dumps(net_json(g), separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def net_from_json(d: dict) -> Net:
    return Net(
        d["n"],
        tuple(tuple(rat_parse(c) for c in v) for v in d["vertices"]),
        tuple((s, t) for s, t in d["edges"]),
    )


def exact_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank by Gaussian elimination in Fractions; meant for small systems."""
    a = [list(map(Fraction, r)) for r in rows if any(r)]
    if not a:
        return 0
    ncols = len(a[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return r


def _rank_mod(rows: Sequence[Sequence[Fraction]], ncols: int, p: int) -> int:
    if not rows or ncols == 0:
        return 0
    a = np.array(
        [[(x.numerator % p) * pow(x.denominator, p - 2, p) % p for x in row] for row in rows],
        dtype=np.int64,
    )
    nrows = a.shape[0]
    r = 0
    for c in range(ncols):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        below = np.nonzero(a[r + 1 :, c])[0] + r + 1
        if below.size:
            a[below] = (a[below] - a[below, c][:, None] * a[r]) % p
        r += 1
        if r == nrows:
            break
    return r


def modular_rank(rows: Sequence[Sequence[Fraction]], ncols: int) -> int:
    rows = [[Fraction(x) for x in row] for row in rows]
    return max(_rank_mod(rows, ncols, p) for p in PRIMES)


def local_rank(g: Net, v: int) -> int:
    """Rank of the reaction vectors leaving vertex v."""
    return exact_rank([g.reaction(ei) for ei in g.out_edges(v)])


def dim_s(g: Net) -> int:
    return exact_rank([g.reaction(ei) for ei in range(g.num_edges)])


def dim_d0(g: Net) -> int:
    """D0 is block-diagonal by source vertex: sum of local nullities."""
    return sum(len(g.out_edges(v)) - local_rank(g, v) for v in range(len(g.vertices)))


def _net_rows(g: Net) -> list[list[Fraction]]:
    """n rows per vertex: the per-vertex net reaction vector as a function of edge weights."""
    rows = []
    for v in range(len(g.vertices)):
        block = [[Fraction(0)] * g.num_edges for _ in range(g.n)]
        for ei in g.out_edges(v):
            rv = g.reaction(ei)
            for r in range(g.n):
                block[r][ei] = rv[r]
        rows.extend(block)
    return rows


def _balance_rows(g: Net) -> list[list[Fraction]]:
    rows = [[Fraction(0)] * g.num_edges for _ in g.vertices]
    for ei, (s, t) in enumerate(g.edges):
        rows[t][ei] += 1
        rows[s][ei] -= 1
    return rows


def dim_j0(g: Net) -> int:
    return g.num_edges - modular_rank(_net_rows(g) + _balance_rows(g), g.num_edges)


def _cone_system(g1: Net, g: Net):
    """Rows over (j on E(g1), lambda on g's out-edges at shared vertices).

    net_v(j) = sum lambda_e r_e at each g1 vertex shared with g, net_v(j) = 0
    at g1 vertices absent from g, and flux balance on g1.  Returns the rows,
    the column count, and sum of the local ranks of g at shared vertices.
    """
    index = {c: i for i, c in enumerate(g.vertices)}
    lam_cols: dict[int, list[int]] = {}
    ncols = g1.num_edges
    local = 0
    for v, coords in enumerate(g1.vertices):
        gv = index.get(coords)
        if gv is not None and g1.out_edges(v):
            outs = g.out_edges(gv)
            lam_cols[v] = list(range(ncols, ncols + len(outs)))
            ncols += len(outs)
            local += local_rank(g, gv)
    rows = []
    for v, coords in enumerate(g1.vertices):
        if not g1.out_edges(v):
            continue
        block = [[Fraction(0)] * ncols for _ in range(g1.n)]
        for ei in g1.out_edges(v):
            rv = g1.reaction(ei)
            for r in range(g1.n):
                block[r][ei] = rv[r]
        if v in lam_cols:
            gv = index[coords]
            for col, ei in zip(lam_cols[v], g.out_edges(gv)):
                rv = g.reaction(ei)
                for r in range(g1.n):
                    block[r][col] = -rv[r]
        rows.extend(block)
    for brow in _balance_rows(g1):
        rows.append(brow + [Fraction(0)] * (ncols - g1.num_edges))
    return rows, ncols, local


def dim_jr_tilde(g1: Net, g: Net) -> int:
    """Dimension of the linear space under the realizable-flux cone of (g1, g)."""
    rows, ncols, local = _cone_system(g1, g)
    return g1.num_edges - modular_rank(rows, ncols) + local


def cone_nonempty(g1: Net, g: Net) -> bool | None:
    """Float LP: does the cone hold a strictly positive flux?

    Maximizes t <= 1 with j >= t on the cone system; the system is
    homogeneous, so the optimum is 1 when the cone is nonempty and 0
    otherwise.  Returns None when the float optimum is not decisive.
    """
    from scipy.optimize import linprog

    rows, ncols, _ = _cone_system(g1, g)
    a_eq = np.array([[float(x) for x in r] + [0.0] for r in rows])
    m1 = g1.num_edges
    a_ub = np.zeros((m1, ncols + 1))
    for e in range(m1):
        a_ub[e, e] = -1.0
        a_ub[e, ncols] = 1.0
    cost = np.zeros(ncols + 1)
    cost[ncols] = -1.0
    bounds = [(0, None)] * m1 + [(None, None)] * (ncols - m1) + [(0, 1)]
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(m1), A_eq=a_eq,
                  b_eq=np.zeros(len(rows)), bounds=bounds, method="highs")
    if res.status != 0:
        return None
    t = -res.fun
    if t > 0.5:
        return True
    if t < 1e-7:
        return False
    return None


def balance_only(g1: Net, g: Net) -> bool:
    """True when g's out-spans contain g1's at every shared vertex and g
    has every g1 vertex: the cone is then cut by balance rows alone."""
    index = {c: i for i, c in enumerate(g.vertices)}
    for v, coords in enumerate(g1.vertices):
        outs = g1.out_edges(v)
        if not outs:
            continue
        gv = index.get(coords)
        if gv is None:
            return False
        mine = [g1.reaction(ei) for ei in outs]
        theirs = [g.reaction(ei) for ei in g.out_edges(gv)]
        if exact_rank(theirs + mine) != exact_rank(theirs):
            return False
    return True


def is_weakly_reversible(g: Net) -> bool:
    m = len(g.vertices)
    reach = [1 << v for v in range(m)]
    for s, t in g.edges:
        reach[s] |= 1 << t
    for k in range(m):
        for v in range(m):
            if reach[v] >> k & 1:
                reach[v] |= reach[k]
    return all(reach[t] >> s & 1 for s, t in g.edges)


def net_vector(g: Net, values: Sequence[Fraction], v: int) -> tuple[Fraction, ...]:
    acc = [Fraction(0)] * g.n
    for ei in g.out_edges(v):
        rv = g.reaction(ei)
        for r in range(g.n):
            acc[r] += values[ei] * rv[r]
    return tuple(acc)


def balance_residuals(g: Net, values: Sequence) -> list:
    res = [0] * len(g.vertices)
    for ei, (s, t) in enumerate(g.edges):
        res[t] += values[ei]
        res[s] -= values[ei]
    return res


def witness_failure(g1: Net, g: Net, w: Sequence[Fraction]) -> str | None:
    """None when w is a strictly positive, balanced flux on g1 whose net
    vector at every g1 vertex is expressible on g's out-edges there."""
    if len(w) != g1.num_edges:
        return f"witness has {len(w)} entries for {g1.num_edges} edges"
    if not all(x > 0 for x in w):
        return "witness is not strictly positive"
    if any(balance_residuals(g1, w)):
        return "witness inflow differs from outflow"
    index = {c: i for i, c in enumerate(g.vertices)}
    for v, coords in enumerate(g1.vertices):
        net = net_vector(g1, w, v)
        if not any(net):
            continue
        gv = index.get(coords)
        if gv is None:
            return f"witness has a nonzero net vector at {coords}, absent from the target"
        span = [g.reaction(ei) for ei in g.out_edges(gv)]
        if exact_rank(span + [net]) != exact_rank(span):
            return f"witness net vector at {coords} is not realizable on the target"
    return None


def state_power(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    """x**y for rational y whose entries have denominator 1 or 2, with x a
    vector of exact squares wherever y is half-integral."""
    out = Fraction(1)
    for xi, yi in zip(x, y):
        twice = yi * 2
        if twice.denominator != 1:
            raise ValueError("exponent is not a half-integer")
        if yi.denominator == 1:
            out *= xi ** int(yi)
        else:
            root = exact_sqrt(xi)
            if root is None:
                raise ValueError("half-integral exponent on a non-square state entry")
            out *= root ** int(twice)
    return out


def exact_sqrt(x: Fraction) -> Fraction | None:
    from math import isqrt

    a, b = isqrt(x.numerator), isqrt(x.denominator)
    if a * a == x.numerator and b * b == x.denominator:
        return Fraction(a, b)
    return None


def vertex_flows(g: Net, k: Sequence, x: Sequence, exact: bool):
    """Per-vertex (outflow, inflow) of the mass-action system at state x."""
    if exact:
        powers = [state_power(x, y) for y in g.vertices]
    else:
        powers = [float(np.prod([float(xi) ** float(yi) for xi, yi in zip(x, y)]))
                  for y in g.vertices]
        k = [float(v) for v in k]
    outs = [0] * len(g.vertices)
    ins = [0] * len(g.vertices)
    for ei, (s, t) in enumerate(g.edges):
        f = k[ei] * powers[s]
        outs[s] += f
        ins[t] += f
    return outs, ins
