"""Command-line front end.

Subcommands: analyze, bound [--all] [--cap N], check <variant>,
psi <forward|inverse>, enumerate-wr.  Reports echo the configuration
and the canonical edge order; --output json emits one JSON document.

Exit codes: 0 success, 2 parse/validation error, 3 realization graph
not weakly reversible, 4 enumeration limit exceeded, 5 vector/graph
hash mismatch, 6 map domain violation, 7 an approximate value outside
the floating-point range.  ``main`` alone maps errors to these codes:
every ValueError the library raises rejects an argument (exit 2), so
``check toric`` with a rate <= 0 exits 2, while ``psi forward`` with a
flux that is not strictly positive is outside the map's domain (exit 6).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .cone import is_complex_balanced_flux, is_member_jr
from .egraph import (
    EGraph,
    EnumerationLimitError,
    GraphValidationError,
    is_weakly_reversible,
    iter_wr_edge_masks,
    linkage_classes,
    parse_egraph,
    stoich_dim,
)
from .equiv import (
    EdgeVector,
    VectorGraphMismatchError,
    d0_dimension,
    edge_vector_from_json,
    is_dynamically_equivalent,
    j0_dimension,
)
from .jsonutil import load_json, rational_str, rationals_from_json
from .locus import (
    PsiDomainError,
    global_lower_bound,
    pair_lower_bound,
    psi_hat_inverse,
    psi_map,
)
from .toric import is_toric

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NOT_WR = 3
EXIT_ENUMERATION = 4
EXIT_HASH_MISMATCH = 5
EXIT_PSI_DOMAIN = 6
EXIT_FLOAT_RANGE = 7

# Exit code and message prefix of each error a command lets through, the
# first matching row deciding.  Every ValueError of the library rejects an
# argument; an internal inconsistency raises RuntimeError, a traceback.
_ERROR_EXITS = (
    (VectorGraphMismatchError, EXIT_HASH_MISMATCH, ""),
    (EnumerationLimitError, EXIT_ENUMERATION, ""),
    (PsiDomainError, EXIT_PSI_DOMAIN, ""),
    (ValueError, EXIT_VALIDATION, ""),
    (OverflowError, EXIT_FLOAT_RANGE, "value outside the floating-point range: "),
)

# check variant -> its files, which also fixes their number
_CHECK_USAGE = {
    "de": "GRAPH VEC GRAPH VEC",
    "fe": "GRAPH VEC GRAPH VEC",
    "cb-flux": "GRAPH VEC",
    "toric": "GRAPH VEC",
    "jr-member": "GRAPH1 VEC GRAPH",
}


@dataclass
class RunConfig:
    output: str = "text"
    seed: int = 0
    cap: int | None = None

    def header(self, command: str) -> str:
        cap = self.cap if self.cap is not None else "none"
        return f"# crnlocus {command} — config: output={self.output} seed={self.seed} cap={cap}"

    def to_json_dict(self) -> dict:
        return {"output": self.output, "seed": self.seed, "cap": self.cap}


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_graph(path: str) -> EGraph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise _CliError(EXIT_VALIDATION, f"cannot read {path}: {e}") from e
    try:
        return parse_egraph(text)
    except GraphValidationError as e:
        raise _CliError(EXIT_VALIDATION, f"{path}: {e}") from e


def _load_vector(path: str, graph: EGraph) -> EdgeVector:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise _CliError(EXIT_VALIDATION, f"cannot read {path}: {e}") from e
    try:
        return edge_vector_from_json(graph, text)
    except VectorGraphMismatchError as e:
        raise _CliError(EXIT_HASH_MISMATCH, f"{path}: {e}") from e
    except (ValueError, json.JSONDecodeError) as e:
        raise _CliError(EXIT_VALIDATION, f"{path}: {e}") from e


def _field_vector(graph: EGraph, data: dict, key: str) -> EdgeVector:
    """The edge vector under ``key`` of a psi input, its errors named by the key."""
    try:
        return edge_vector_from_json(graph, data[key])
    except VectorGraphMismatchError:
        raise
    except ValueError as e:
        raise ValueError(f"{key}: {e}") from e


def _edge_order_line(g: EGraph) -> str:
    return "edge order: " + " ".join(f"{i}:({s}->{t})" for i, (s, t) in enumerate(g.edges))


def _emit(config: RunConfig, command: str, payload: dict, text_lines: list[str]) -> None:
    if config.output == "json":
        doc = {"command": command, "config": config.to_json_dict()}
        doc.update(payload)
        print(json.dumps(doc, indent=2))
    else:
        print(config.header(command))
        for line in text_lines:
            print(line)


def _cmd_analyze(args: argparse.Namespace, config: RunConfig) -> int:
    g = _load_graph(args.graph)
    classes = linkage_classes(g)
    wr = is_weakly_reversible(g)
    dims = {"s": stoich_dim(g), "d0": d0_dimension(g), "j0": j0_dimension(g)}
    payload = {
        "graph": g.to_json_dict(),
        "graph_hash": g.content_hash,
        "num_vertices": g.num_vertices,
        "num_edges": g.num_edges,
        "linkage_classes": classes,
        "weakly_reversible": wr,
        "dims": dims,
    }
    lines = [
        f"graph: n={g.n} |V|={g.num_vertices} |E|={g.num_edges} hash={g.content_hash[:12]}",
        _edge_order_line(g),
        f"linkage classes: {classes}",
        f"weakly reversible: {str(wr).lower()}",
        f"dim S: {dims['s']}",
        f"dim D0: {dims['d0']}",
        f"dim J0: {dims['j0']}",
    ]
    _emit(config, "analyze", payload, lines)
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace, config: RunConfig) -> int:
    g = _load_graph(args.graph)
    if args.all:
        result = global_lower_bound(g, cap=config.cap)
        payload = result.to_json_dict()
        lines = [
            f"graph: |E|={g.num_edges}",
            _edge_order_line(g),
            f"subgraphs examined: {result.examined} (exhausted: {result.exhausted})",
        ]
        if result.best is None:
            lines.append("no applicable subgraph found")
        else:
            lines.append(
                f"best capped bound: {result.best.capped_bound} "
                f"(subgraph mask {result.best_mask}, "
                f"{result.best.formula})"
            )
        _emit(config, "bound --all", payload, lines)
        return EXIT_OK
    if not args.g1:
        raise _CliError(EXIT_VALIDATION, "bound needs a realization graph or --all")
    g1 = _load_graph(args.g1)
    report = pair_lower_bound(g, g1)
    if not report.g1_weakly_reversible:
        raise _CliError(
            EXIT_NOT_WR, f"{args.g1}: realization graph is not weakly reversible"
        )
    payload = {"report": report.to_json_dict()}
    lines = [
        f"pair: |E(G)|={g.num_edges} |E(G1)|={g1.num_edges}",
        _edge_order_line(g),
        f"applicable: {str(report.applicable).lower()}"
        + (f" ({report.reason})" if report.reason else ""),
    ]
    if report.applicable:
        lines.append(f"bound: {report.formula}")
    _emit(config, "bound", payload, lines)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace, config: RunConfig) -> int:
    variant = args.variant
    files = args.files
    usage = _CHECK_USAGE[variant]
    if len(files) != len(usage.split()):
        raise _CliError(EXIT_VALIDATION, f"check {variant} needs {usage}")
    g = _load_graph(files[0])
    w = _load_vector(files[1], g)
    lines = [_edge_order_line(g)]
    detail: dict = {}
    if variant in ("de", "fe"):
        g2 = _load_graph(files[2])
        w2 = _load_vector(files[3], g2)
        verdict = is_dynamically_equivalent(g, w, g2, w2)
        lines = [f"first {lines[0]}", f"second {_edge_order_line(g2)}"]
    elif variant == "cb-flux":
        if not is_weakly_reversible(g):
            detail["note"] = "graph is not weakly reversible; no positive balanced flux exists"
        verdict = is_complex_balanced_flux(g, w)
    elif variant == "toric":
        decision = is_toric(g, w)
        verdict = decision.toric
        if decision.reason:
            detail["reason"] = decision.reason
        if decision.witness is not None:
            detail["witness"] = decision.witness.to_json_dict()
    else:  # jr-member: the leading graph is the realization graph
        verdict = is_member_jr(g, _load_graph(files[2]), w)
    payload = {"variant": variant, "verdict": verdict, **detail}
    lines.append(f"check {variant}: verdict={str(verdict).lower()}")
    for key, value in detail.items():
        lines.append(f"{key}: {value}")
    _emit(config, f"check {variant}", payload, lines)
    return EXIT_OK


def _cmd_psi(args: argparse.Namespace, config: RunConfig) -> int:
    g1 = _load_graph(args.g1)
    g = _load_graph(args.graph)
    try:
        data = load_json(Path(args.input).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise _CliError(EXIT_VALIDATION, f"cannot read {args.input}: {e}") from e
    forward = args.direction == "forward"
    try:
        if not isinstance(data, dict):
            raise ValueError("top-level JSON value must be an object")
        if forward:
            inputs = (
                _field_vector(g1, data, "j"),
                rationals_from_json(data["x"], "x"),
                rationals_from_json(data.get("p", []), "p"),
                rationals_from_json(data["x0"], "x0") if "x0" in data else None,
            )
        else:
            inputs = (
                _field_vector(g, data, "k"),
                _field_vector(g1, data, "k1"),
                rationals_from_json(data.get("q_hat", []), "q_hat"),
                rationals_from_json(data["x0"], "x0"),
            )
    except VectorGraphMismatchError:
        raise
    except KeyError as e:
        raise _CliError(EXIT_VALIDATION, f"{args.input}: missing field {e}") from e
    except ValueError as e:
        raise _CliError(EXIT_VALIDATION, f"{args.input}: {e}") from e
    out = (psi_map if forward else psi_hat_inverse)(g1, g, *inputs)
    lines = [f"source {_edge_order_line(g1)}", f"target {_edge_order_line(g)}"]
    if forward:
        lines += [
            f"mode: {out.mode}",
            f"k: {[rational_str(v) for v in out.k.values]}",
            f"q: {[rational_str(v) for v in out.q]}",
        ]
    else:
        lines += [
            f"mode: {out.mode}",
            f"j_hat: {[rational_str(v) for v in out.j_hat.values]}",
            f"x: {out.x.to_json_dict()}",
            f"p: {[rational_str(v) for v in out.p]}",
        ]
    _emit(config, f"psi {args.direction}", {"result": out.to_json_dict()}, lines)
    return EXIT_OK


def _cmd_enumerate_wr(args: argparse.Namespace, config: RunConfig) -> int:
    g = _load_graph(args.graph)
    masks = list(iter_wr_edge_masks(g, cap=config.cap))
    subgraphs = [
        {
            "mask": mask,
            "edges": [list(g.edges[i]) for i in range(g.num_edges) if mask >> i & 1],
        }
        for mask in masks
    ]
    payload = {"count": len(masks), "subgraphs": subgraphs}
    lines = [f"weakly reversible subgraphs: {len(masks)}", _edge_order_line(g)]
    lines += [f"mask {s['mask']}: edges {s['edges']}" for s in subgraphs]
    _emit(config, "enumerate-wr", payload, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crnlocus",
        description=(
            "Exact invariants of Euclidean-embedded reaction graphs: "
            "analysis, flux cones, equivalence checks, coordinate maps, "
            "and locus dimension bounds."
        ),
    )
    parser.add_argument("--output", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0, help="seed echoed for reproducibility")
    parser.add_argument("--cap", type=int, default=None, help="enumeration cap")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural and dimensional report for a graph")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bound", help="locus dimension lower bound for a pair or --all")
    p.add_argument("graph")
    p.add_argument("g1", nargs="?", default=None)
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("check", help="boolean certificates")
    p.add_argument("variant", choices=tuple(_CHECK_USAGE))
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("psi", help="forward/inverse coordinate maps")
    p.add_argument("direction", choices=("forward", "inverse"))
    p.add_argument("g1", help="realization (source) graph file")
    p.add_argument("graph", help="target graph file")
    p.add_argument("input", help="JSON input file")
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("enumerate-wr", help="weakly reversible edge subsets")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_enumerate_wr)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cap is not None and args.cap < 0:
        parser.error(f"argument --cap: must be nonnegative, got {args.cap}")
    config = RunConfig(output=args.output, seed=args.seed, cap=args.cap)
    try:
        return args.func(args, config)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except tuple(error for error, _, _ in _ERROR_EXITS) as e:
        code, prefix = next((c, p) for error, c, p in _ERROR_EXITS if isinstance(e, error))
        print(f"error: {prefix}{e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
