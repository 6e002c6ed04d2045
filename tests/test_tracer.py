"""The benchmark's per-layer tracer (``perfbench/tracer.py``) finds the
package's functions by name.  Renaming or deleting one that a metric
names drops that metric from the benchmark's per-layer report; this
runs the tracer over the CLI on the fixtures and requires every metric
to be found, and that the weak-reversibility metric counts the masks a
scan tests."""

import contextlib
import importlib.util
import io
from pathlib import Path

from crnlocus import egraph
from crnlocus.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

COMMANDS = [
    ["bound", DATA / "g_in.json", DATA / "g_k4.json"],
    ["bound", "--all", DATA / "g_k4.json"],
    ["check", "toric", DATA / "g_k4.json", DATA / "k4_uniform1.json"],
    ["psi", "inverse", DATA / "g_k4.json", DATA / "g_in.json", DATA / "psi_inverse_in.json"],
]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trace(tracer_module, commands):
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["--output", "json", *(str(a) for a in argv)])
            assert code == 0, (argv, err.getvalue())
    finally:
        tracer.uninstall()
    return tracer


def test_tracer_finds_every_metric():
    tracer_module = _load_tracer()
    tracer = _trace(tracer_module, COMMANDS)
    _, missing, _ = tracer_module.layer_metrics(tracer)
    assert missing == []
    assert tracer.stats["cone.jr_dimension"][0] > 0


def test_wr_check_calls_count_the_scanned_masks(monkeypatch):
    """Each candidate mask of an uncapped scan is tested by one call of the
    traced per-mask function, so a test moved out of it reads as 0 calls."""
    tested = 0
    masks_by_size = egraph._masks_by_size

    def counted(m):
        nonlocal tested
        for mask in masks_by_size(m):
            tested += 1
            yield mask

    monkeypatch.setattr(egraph, "_masks_by_size", counted)
    tracer_module = _load_tracer()
    tracer = _trace(tracer_module, [["bound", "--all", DATA / "g_k4.json"]])
    metrics, _, _ = tracer_module.layer_metrics(tracer)
    assert tested > 0
    assert tracer.stats["egraph._mask_is_weakly_reversible"][0] == tested
    whole = tested + tracer.stats["egraph.is_weakly_reversible"][0]
    assert metrics["egraph.wr_check.calls"][0] == whole
