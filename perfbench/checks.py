"""Answer checks, reference answers and answer digests.

``check`` verifies one job's answer with the independent arithmetic of
``indep`` and never calls crnlocus.  It returns the fields that the
planned optimizations promise to keep, which are what the reference
answers and the digests compare:

* scan: ``best_mask`` and the terms of ``best``;
* pair: ``applicable``, the cone ``status`` and every ``dim_*``;
* maps: the exact psi outputs and the toric verdict; approximate
  outputs are compared within ``REL_TOL``;
* every job: its ``mode`` when it reports one.

``table``, ``examined`` and particular witness points may legally
change, so they are checked for validity only, never compared.
"""

from __future__ import annotations

import hashlib
import json
import math
from decimal import Decimal, getcontext
from fractions import Fraction

import indep
from indep import Net, num_parse, rat_json, rat_parse

REL_TOL = 1e-7  # approximate outputs: |a - b| <= REL_TOL * max(|a|, |b|) + 1e-12
CB_TOL = 1e-8  # relative inflow/outflow residual of approximate steady states


class CheckError(Exception):
    """The answer of a job is wrong."""


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _exact(values) -> list[Fraction]:
    return [rat_parse(v) for v in values]


def _canon(values) -> list:
    return [rat_json(v) for v in _exact(values)]


def _floats(values) -> list[float]:
    return [num_parse(v) for v in values]


# ------------------------------------------------------------ bound terms


def _check_report(g: Net, g1: Net, r: dict) -> None:
    """All terms of a pair bound report for target g and realization g1."""
    _need(r["g_edge_count"] == g.num_edges, "g_edge_count differs from |E(G)|")
    _need(r["dim_d0"] == indep.dim_d0(g), f"dim_d0 {r['dim_d0']} != {indep.dim_d0(g)}")
    cone = r.get("cone")
    tilde = indep.dim_jr_tilde(g1, g) if cone is not None else None
    if cone is not None and "tilde_dim" in cone:
        _need(cone["tilde_dim"] == tilde, f"cone tilde_dim {cone['tilde_dim']} != {tilde}")
    if not r["applicable"]:
        _need(cone is None or cone["status"] == "empty", "inapplicable bound with a nonempty cone")
        return
    _need(cone is not None and cone["status"] == "nonempty", "applicable bound without a cone")
    witness = cone.get("witness")
    _need(witness is not None, "nonempty cone without a witness")
    failure = indep.witness_failure(g1, g, _exact(witness))
    _need(failure is None, f"cone witness: {failure}")
    _need(r["dim_jr"] == tilde and cone["dim"] == tilde, f"dim_jr {r['dim_jr']} != {tilde}")
    _need(r["dim_s"] == indep.dim_s(g1), f"dim_s {r['dim_s']} != {indep.dim_s(g1)}")
    _need(r["dim_j0"] == indep.dim_j0(g1), f"dim_j0 {r['dim_j0']} != {indep.dim_j0(g1)}")
    raw = r["dim_jr"] + r["dim_s"] + r["dim_d0"] - r["dim_j0"]
    _need(r["raw_bound"] == raw, "raw_bound is not dim_jr + dim_s + dim_d0 - dim_j0")
    _need(r["capped_bound"] == min(raw, g.num_edges), "capped_bound is not min(raw, |E(G)|)")


def _terms(r: dict) -> dict:
    cone = r.get("cone")
    return {
        "applicable": r["applicable"],
        "status": cone["status"] if cone else None,
        **{k: r[k] for k in ("dim_jr", "dim_s", "dim_d0", "dim_j0")},
    }


def _complete_subgraph(g: Net, mask: int) -> Net:
    m = len(g.vertices)
    edges = [(i, j) for i in range(m) for j in range(m) if i != j]
    chosen = [edges[i] for i in range(len(edges)) if mask >> i & 1]
    touched = sorted({v for e in chosen for v in e})
    remap = {v: k for k, v in enumerate(touched)}
    return Net(g.n, tuple(g.vertices[v] for v in touched),
               tuple((remap[s], remap[t]) for s, t in chosen))


def _check_scan(job, doc: dict) -> dict:
    g: Net = job.info["g"]
    best, mask = doc["best"], doc["best_mask"]
    if best is None:
        _need(mask is None and doc["best_subgraph"] is None, "best_mask without a best bound")
        return {"exact": {"best_mask": None, "best": None}}
    sub = _complete_subgraph(g, mask)
    _need(indep.net_json(sub) == doc["best_subgraph"], "best_subgraph is not the subgraph of best_mask")
    _need(indep.is_weakly_reversible(sub), "best subgraph is not weakly reversible")
    _need(best["applicable"], "best bound is not applicable")
    _check_report(g, sub, best)
    terms = {**_terms(best), "raw_bound": best["raw_bound"], "capped_bound": best["capped_bound"]}
    return {"exact": {"best_mask": mask, "best": terms}}


def _check_pair(job, doc: dict) -> dict:
    r = doc["report"]
    _check_report(job.info["g"], job.info["g1"], r)
    status = r["cone"]["status"] if r.get("cone") else None
    want = "nonempty" if job.info["nonempty"] else "empty"
    _need(status == want, f"cone status {status}, the generator's LP says {want}")
    return {"exact": _terms(r)}


# ------------------------------------------------------------------- maps


def _powers(g: Net, x: list[Fraction]) -> list[Fraction] | None:
    try:
        return [indep.state_power(x, y) for y in g.vertices]
    except ValueError:
        return None


def _balanced_exactly(g: Net, k, x: list[Fraction]) -> bool:
    """Inflow equals outflow at every vertex.  Exact in Q when every x^y is
    rational; otherwise (half-integer exponents on non-square entries)
    evaluated in 60-digit decimals against a 1e-45 relative tolerance."""
    if _powers(g, x) is not None:
        outs, ins = indep.vertex_flows(g, k, x, exact=True)
        return outs == ins
    getcontext().prec = 60
    xd = [Decimal(v.numerator) / Decimal(v.denominator) for v in x]
    pw = []
    for y in g.vertices:
        p = Decimal(1)
        for xi, yi in zip(xd, y):
            p *= (xi.ln() * (Decimal(yi.numerator) / Decimal(yi.denominator))).exp()
        pw.append(p)
    outs = [Decimal(0)] * len(g.vertices)
    ins = [Decimal(0)] * len(g.vertices)
    for ei, (s, t) in enumerate(g.edges):
        f = Decimal(k[ei].numerator) / Decimal(k[ei].denominator) * pw[s]
        outs[s] += f
        ins[t] += f
    return all(abs(o - i) <= Decimal("1e-45") * max(abs(o), abs(i)) for o, i in zip(outs, ins))


def _cb_residual(g: Net, k, x: list[float]) -> float:
    outs, ins = indep.vertex_flows(g, k, x, exact=False)
    return max(abs(o - i) / max(abs(o), abs(i), 1e-300) for o, i in zip(outs, ins))


def _check_toric(job, doc: dict) -> dict:
    g1, k = job.info["g1"], job.info["k"]
    verdict = doc["verdict"]
    if job.info["toric"]:
        _need(verdict is True, "complex-balanced rates judged not toric")
    mode = None
    if verdict:
        w = doc.get("witness")
        _need(w is not None, "toric verdict without a witness")
        mode = w["mode"]
        if mode == "exact":
            x = _exact(w["x"])
            _need(all(v > 0 for v in x), "toric witness is not strictly positive")
            _need(_balanced_exactly(g1, k, x), "exact toric witness: inflow differs from outflow")
        else:
            x = _floats(w["x"])
            _need(all(v > 0 for v in x), "toric witness is not strictly positive")
            _need(_cb_residual(g1, k, x) <= CB_TOL, "approximate toric witness is not balanced")
    return {"exact": {"verdict": verdict}, "mode": mode}


def _nets_equal(ga: Net, va, gb: Net, vb, exact: bool) -> bool:
    """Same per-vertex net reaction vector over the union of vertex sets."""
    coords = set(ga.vertices) | set(gb.vertices)
    ia = {c: i for i, c in enumerate(ga.vertices)}
    ib = {c: i for i, c in enumerate(gb.vertices)}
    zero = (0,) * ga.n
    for c in coords:
        a = indep.net_vector(ga, va, ia[c]) if c in ia else zero
        b = indep.net_vector(gb, vb, ib[c]) if c in ib else zero
        if exact:
            if a != b:
                return False
        elif any(abs(float(p) - float(q)) > 1e-9 * max(1.0, abs(float(p)), abs(float(q)))
                 for p, q in zip(a, b)):
            return False
    return True


def _check_psi_forward(job, doc: dict) -> dict:
    info = job.info
    g1, g, flux, x = info["g1"], info["g"], info["flux"], info["x"]
    res = doc["result"]
    mode = res["mode"]
    _need(mode == "exact" or not info["exact"], "integer coordinates gave an approximate map")
    k_vals = res["k"]["values"]
    _need(len(k_vals) == g.num_edges, "rate vector length differs from |E(G)|")
    _need(len(res["q"]) == indep.dim_j0(g1), "q length differs from dim J0(G1)")
    if mode == "exact":
        pw = [indep.state_power(x, g1.vertices[s]) for s, _ in g1.edges]
        k1 = [f / p for f, p in zip(flux, pw)]
        _need(_nets_equal(g, _exact(k_vals), g1, k1, True),
              "psi forward rates are not dynamically equivalent to flux / x^y")
        return {"exact": {"k": _canon(k_vals), "q": _canon(res["q"])}, "mode": mode}
    pw = [math.prod(float(xi) ** float(yi) for xi, yi in zip(x, g1.vertices[s])) for s, _ in g1.edges]
    k1 = [float(f) / p for f, p in zip(flux, pw)]
    kf = _floats(k_vals)
    _need(_nets_equal(g, kf, g1, k1, False),
          "psi forward rates are not dynamically equivalent to flux / x^y")
    return {"exact": {"q": _canon(res["q"])}, "approx": {"k": kf}, "mode": mode}


def _check_psi_inverse(job, doc: dict) -> dict:
    info = job.info
    g1, g, k1, x0 = info["g1"], info["g"], info["k1"], info["x0"]
    res = doc["result"]
    x_doc = res["x"]
    mode = res.get("mode", x_doc["mode"])
    _need(len(res["p"]) == indep.dim_d0(g), "p length differs from dim D0(G)")
    j_hat = res["j_hat"]["values"]
    _need(len(j_hat) == g1.num_edges, "j_hat length differs from |E(G1)|")
    out = {"exact": {"p": _canon(res["p"])}, "mode": mode}
    if mode == "exact" and info["exact"]:
        x = _exact(x_doc["x"])
        _need(all(v > 0 for v in x), "Birch point is not strictly positive")
        _need(_balanced_exactly(g1, k1, x), "Birch point: inflow differs from outflow")
        jh = _exact(j_hat)
        _need(not any(indep.balance_residuals(g1, jh)), "j_hat is not balanced")
        base = [kv * indep.state_power(x, g1.vertices[s]) for kv, (s, _) in zip(k1, g1.edges)]
        _need(_nets_equal(g1, jh, g1, base, True), "j_hat leaves k1 x^y by more than J0(G1)")
        out["exact"].update({"x": _canon(x_doc["x"]), "j_hat": _canon(j_hat)})
        return out
    x = _floats(x_doc["x"])
    _need(all(v > 0 for v in x), "Birch point is not strictly positive")
    _need(_cb_residual(g1, k1, x) <= CB_TOL, "approximate Birch point is not balanced")
    total0 = float(sum(x0))
    _need(abs(sum(x) - total0) <= 1e-9 * total0, "Birch point left the conservation class of x0")
    jh = _floats(j_hat)
    scale = max(abs(v) for v in jh)
    _need(all(abs(r) <= 1e-9 * scale for r in indep.balance_residuals(g1, jh)), "j_hat is not balanced")
    out["approx"] = {"x": x, "j_hat": jh}
    return out


def _lyapunov(x, xhat) -> float:
    return sum(a * (math.log(a) - math.log(float(b)) - 1.0) for a, b in zip(x, xhat))


def _check_ode(job, samples) -> dict:
    info = job.info
    _need(abs(samples[-1][0] - info["t_end"]) <= 1e-9 * info["t_end"], "trajectory stops short of t_end")
    prev = None
    total0 = sum(info["x0"])
    for _, x in samples:
        _need(all(v > 0 and math.isfinite(v) for v in x), "trajectory leaves the positive orthant")
        v = _lyapunov(x, info["xhat"])
        _need(prev is None or v <= prev + 1e-9 * (1 + abs(prev)),
              "Lyapunov function increases along a complex-balanced trajectory")
        prev = v
        if info["half"]:
            _need(abs(sum(x) - total0) <= 1e-9 * total0, "trajectory breaks the conservation law")
    return {"exact": {}, "approx": {"final": list(samples[-1][1]), "t_end": [samples[-1][0]]}}


def check(job, payload) -> dict:
    """Verify one answer; return its compared fields {"exact", "approx", "mode"}."""
    if job.kind == "ode":
        fields = _check_ode(job, payload)
    else:
        doc = json.loads(payload)
        if job.id.startswith("scan/"):
            fields = _check_scan(job, doc)
        elif job.id.startswith("pair/"):
            fields = _check_pair(job, doc)
        elif job.args[:2] == ("check", "toric"):
            fields = _check_toric(job, doc)
        elif job.args[:2] == ("psi", "forward"):
            fields = _check_psi_forward(job, doc)
        else:
            fields = _check_psi_inverse(job, doc)
    return {"exact": fields["exact"], "approx": fields.get("approx", {}), "mode": fields.get("mode")}


def fields_match(a: dict, b: dict) -> str | None:
    """None when two compared-field records agree, else what differs."""
    if a["mode"] != b["mode"]:
        return f"mode {a['mode']} != {b['mode']}"
    if a["exact"] != b["exact"]:
        keys = sorted(k for k in a["exact"].keys() | b["exact"].keys()
                      if a["exact"].get(k) != b["exact"].get(k))
        return f"exact fields differ: {', '.join(keys)}"
    if a["approx"].keys() != b["approx"].keys():
        return "approximate fields differ in kind"
    for key, va in a["approx"].items():
        vb = b["approx"][key]
        if len(va) != len(vb) or any(abs(p - q) > REL_TOL * max(abs(p), abs(q)) + 1e-12
                                     for p, q in zip(va, vb)):
            return f"approximate field {key} differs beyond {REL_TOL}"
    return None


def digests(records: list[tuple[str, dict]]) -> tuple[str, str]:
    """(exact-and-mode digest, approximate digest at 6 significant digits)."""
    exact = hashlib.sha256()
    approx = hashlib.sha256()
    for job_id, f in records:
        exact.update(json.dumps([job_id, f["exact"], f["mode"]], sort_keys=True).encode())
        rounded = {k: [f"{v:.6g}" for v in vals] for k, vals in sorted(f["approx"].items())}
        approx.update(json.dumps([job_id, rounded]).encode())
    return exact.hexdigest()[:16], approx.hexdigest()[:16]


def inputs_digest(job, files: dict) -> str:
    """Hash of everything a job reads, to tell a stale reference from a wrong answer."""
    used = {a: files[a] for a in job.args if a in files}
    extra = {k: repr(v) for k, v in sorted(job.info.items())
             if k in ("x0", "t_end", "dt") and job.kind == "ode"}
    text = json.dumps([list(job.args), used, extra], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
