"""Byte-for-byte CLI outputs on a fixed command list.

Each command runs in process from the repository root, once with
``--output text`` and once with ``--output json``; its exit code and the
SHA-256 of its stdout and of its stderr must equal the digests recorded
in ``tests/data/cli_golden.json``.  Every command is exact, so the
digests do not depend on the platform's floating-point library.

A change that alters an output on purpose re-records the digests with

    PYTHONPATH=src python tests/test_cli_golden.py --record

and names the changed commands in its change log.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from crnlocus.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
GRAPHS = ["g_cyc", "g_k4", "g_in", "de_diag", "de_split"]
# (graph, edge vector) fixture pairs
VECTORS = [
    ("g_cyc", "cyc_uniform1"),
    ("g_k4", "k4_uniform1"),
    ("g_k4", "k4_zero"),
    ("g_in", "in_uniform1"),
    ("g_in", "in_4444"),
    ("de_diag", "de_diag_k"),
    ("de_split", "de_split_k"),
    ("line", "line_uniform1"),
]

PAIRS = [
    "balance_3d",
    "balance_half",
    "row_3d",
    "row_3d_half",
    "simplex_empty_half",
    "simplex_empty_3d_half",
    "simplex_nonempty_3d",
    "simplex_nonempty_3d_half",
    "simplex_nonempty_half",
]


def _d(name: str) -> str:
    return f"tests/data/{name}.json"


def commands() -> list[list[str]]:
    cmds = []
    for g in GRAPHS:
        cmds += [["analyze", _d(g)], ["--cap", "400", "enumerate-wr", _d(g)]]
        cmds.append(["--cap", "400", "bound", "--all", _d(g)])
    cmds += [["bound", "--all", _d(g)] for g in ("g_cyc", "g_k4", "g_in")]
    # full tables: a 3-D graph, and one with half-integer coordinates
    cmds += [["bound", "--all", _d(g)] for g in ("scan_3d", "scan_half")]
    cmds.append(["--cap", "7", "bound", "--all", _d("scan_half")])
    # past four vertices: 5 vertices in 3-D, half-integer, with locally empty
    # and balance-only masks among the first 300
    cmds.append(["--cap", "300", "bound", "--all", _d("scan_5v")])
    # a 6- and a 7-vertex graph with several linkage classes and edges on no
    # cycle: subsets and complete graphs on both sides of the vertex count
    # up to which weak reversibility is tested by cut pairs
    for g in ("wr_6v", "wr_7v"):
        cmds += [["--cap", "400", "enumerate-wr", _d(g)], ["--cap", "300", "bound", "--all", _d(g)]]
    cmds += [["bound", _d(g), _d(g1)] for g in GRAPHS for g1 in GRAPHS]
    # pairs drawn from seeded random graphs, in 3-D and with half-integer
    # coordinates: cones cut by balance rows alone, empty with a
    # sign-definite constraint row, empty without one, and nonempty with
    # constraints past balance
    cmds += [["bound", _d(f"pairs/{p}_g"), _d(f"pairs/{p}_g1")] for p in PAIRS]
    for g, k in VECTORS:
        cmds += [["check", variant, _d(g), _d(k)] for variant in ("cb-flux", "toric")]
    cmds += [
        ["check", "de", _d("de_split"), _d("de_split_k"), _d("de_diag"), _d("de_diag_k")],
        ["check", "de", _d("de_diag"), _d("de_diag_k"), _d("de_split"), _d("de_split_k")],
        ["check", "fe", _d("g_cyc"), _d("cyc_uniform1"), _d("g_cyc"), _d("cyc_uniform1")],
        ["check", "de", _d("g_k4"), _d("k4_uniform1"), _d("g_cyc"), _d("cyc_uniform1")],
        ["check", "jr-member", _d("g_k4"), _d("k4_uniform1"), _d("g_in")],
        ["check", "jr-member", _d("g_k4"), _d("k4_uniform1"), _d("g_cyc")],
        ["check", "jr-member", _d("g_cyc"), _d("cyc_uniform1"), _d("g_k4")],
        ["check", "jr-member", _d("g_cyc"), _d("cyc_uniform1"), _d("g_in")],
        ["psi", "forward", _d("g_k4"), _d("g_in"), _d("psi_forward_in")],
        ["psi", "inverse", _d("g_k4"), _d("g_in"), _d("psi_inverse_in")],
        # errors: arity, missing file, hash mismatch, enumeration limit
        ["check", "de", _d("g_k4"), _d("k4_uniform1")],
        ["bound", _d("g_k4")],
        ["analyze", _d("missing")],
        ["check", "cb-flux", _d("g_cyc"), _d("k4_uniform1")],
        ["bound", "--all", _d("line")],
        # ambient dimensions differ (line is 1-D, the square graphs 2-D)
        ["bound", _d("g_k4"), _d("line")],
        ["bound", _d("line"), _d("g_k4")],
        ["check", "jr-member", _d("g_k4"), _d("k4_uniform1"), _d("line")],
        ["check", "jr-member", _d("g_k4"), _d("k4_zero"), _d("line")],
        ["check", "jr-member", _d("line"), _d("line_uniform1"), _d("g_k4")],
        ["check", "de", _d("g_k4"), _d("k4_uniform1"), _d("line"), _d("line_uniform1")],
        ["check", "fe", _d("line"), _d("line_uniform1"), _d("g_k4"), _d("k4_uniform1")],
        ["psi", "forward", _d("g_k4"), _d("line"), _d("psi_forward_in")],
        ["psi", "inverse", _d("g_k4"), _d("line"), _d("psi_inverse_in")],
    ]
    return cmds


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(command: list[str]) -> dict:
    """Exit code and output digests of ``command`` in text and in JSON."""
    out = {}
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for output in ("text", "json"):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["--output", output, *command])
            out[output] = {
                "exit": code,
                "stdout": _sha(stdout.getvalue()),
                "stderr": _sha(stderr.getvalue()),
            }
    finally:
        os.chdir(cwd)
    return out


def _key(command: list[str]) -> str:
    return " ".join(command)


def _recorded() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_recorded_commands_are_the_list():
    assert list(_recorded()) == [_key(c) for c in commands()]


@pytest.mark.parametrize("command", commands(), ids=_key)
def test_output_matches_record(command):
    assert digest(command) == _recorded()[_key(command)]


def record() -> None:
    doc = {_key(c): digest(c) for c in commands()}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(doc)} commands in {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_cli_golden.py --record")
    record()
