import json
import math
import random
import resource
from fractions import Fraction
from pathlib import Path

import pytest

from crnlocus import EGraph, EdgeVector, parse_egraph
from crnlocus.cli import main
from crnlocus.equiv import j0_dimension
from crnlocus.jsonutil import rational_from_json, rational_str, rational_to_json

from capped import CLI, run_capped
from fixture_graphs import g_k4, g_long_cycle

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--output", "json", *argv)
    return code, (json.loads(out) if out.strip() else None), err


class TestAnalyze:
    def test_k4_dims(self, capsys):
        code, doc, _ = run_json(capsys, "analyze", DATA / "g_k4.json")
        assert code == 0
        assert doc["dims"] == {"s": 2, "d0": 4, "j0": 3}
        assert doc["weakly_reversible"] is True
        assert doc["config"]["seed"] == 0

    def test_cyc_dims(self, capsys):
        code, doc, _ = run_json(capsys, "analyze", DATA / "g_cyc.json")
        assert code == 0
        assert doc["dims"] == {"s": 2, "d0": 0, "j0": 0}

    def test_g_in_not_wr(self, capsys):
        code, doc, _ = run_json(capsys, "analyze", DATA / "g_in.json")
        assert code == 0
        assert doc["weakly_reversible"] is False

    def test_text_report_has_header_and_edge_order(self, capsys):
        code, out, _ = run(capsys, "analyze", DATA / "g_cyc.json")
        assert code == 0
        assert out.startswith("# crnlocus analyze")
        assert "edge order:" in out
        assert "dim D0: 0" in out

    def test_invalid_graph_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 1, "vertices": [[0], [1]], "edges": [[0, 0]]}))
        code, _, err = run(capsys, "analyze", bad)
        assert code == 2
        assert "self-loop" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/g.json")
        assert code == 2

    def test_long_cycle_exits_0(self, capsys, tmp_path):
        f = tmp_path / "cycle.json"
        f.write_text(g_long_cycle(1500).to_json())
        code, doc, _ = run_json(capsys, "analyze", f)
        assert code == 0
        assert doc["weakly_reversible"] is True
        assert doc["dims"] == {"s": 1, "d0": 0, "j0": 0}

    def test_graph_json_round_trips(self, capsys):
        code, doc, _ = run_json(capsys, "analyze", DATA / "g_in.json")
        g = parse_egraph(json.dumps(doc["graph"]))
        assert g == parse_egraph((DATA / "g_in.json").read_text())


class TestBound:
    def test_pair_in_k4(self, capsys):
        code, doc, _ = run_json(capsys, "bound", DATA / "g_in.json", DATA / "g_k4.json")
        assert code == 0
        assert doc["report"]["capped_bound"] == 4
        assert doc["report"]["raw_bound"] == 4

    def test_pair_cyc_k4(self, capsys):
        code, doc, _ = run_json(capsys, "bound", DATA / "g_cyc.json", DATA / "g_k4.json")
        assert code == 0
        assert doc["report"]["capped_bound"] == 8

    def test_long_cycle_pair_exits_0(self, capsys, tmp_path):
        # A balance-only cone over 300 edges: the kernel of 300 sparse
        # balance rows.
        f = tmp_path / "cycle.json"
        f.write_text(g_long_cycle(300).to_json())
        code, doc, _ = run_json(capsys, "bound", f, f)
        assert code == 0
        assert doc["report"]["capped_bound"] == 2

    def test_not_wr_exit_3(self, capsys):
        code, _, err = run(capsys, "bound", DATA / "g_cyc.json", DATA / "g_in.json")
        assert code == 3
        assert "not weakly reversible" in err

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_g1_in_other_dimension(self, capsys, tmp_path, output):
        # weak reversibility is decided before the ambient dimension (g_k4 has n = 2)
        line, one_way = tmp_path / "line.json", tmp_path / "one_way.json"
        line.write_text(EGraph(1, [(0,), (1,)], [(0, 1), (1, 0)]).to_json())
        one_way.write_text(EGraph(1, [(0,), (1,)], [(0, 1)]).to_json())
        code, out, err = run(capsys, "--output", output, "bound", DATA / "g_k4.json", one_way)
        assert (code, out, err) == (
            3, "", f"error: {one_way}: realization graph is not weakly reversible\n"
        )
        code, out, err = run(capsys, "--output", output, "bound", DATA / "g_k4.json", line)
        assert (code, out, err) == (2, "", "error: ambient dimensions differ: 2 vs 1\n")

    def test_all_k4(self, capsys):
        code, doc, _ = run_json(capsys, "bound", "--all", DATA / "g_k4.json")
        assert code == 0
        assert doc["best"]["capped_bound"] == 12

    def test_all_respects_cap(self, capsys):
        code, doc, _ = run_json(capsys, "--cap", "10", "bound", "--all", DATA / "g_cyc.json")
        assert code == 0
        assert doc["examined"] == 10
        assert doc["exhausted"] is False

    @pytest.mark.parametrize("cap", [0, 1])
    def test_all_small_caps(self, capsys, cap):
        code, doc, _ = run_json(capsys, "--cap", cap, "bound", "--all", DATA / "g_k4.json")
        assert code == 0
        assert (doc["examined"], doc["exhausted"], len(doc["table"])) == (cap, False, cap)
        assert (doc["best"] is None) == (cap == 0)

    def test_enumeration_limit_exit_4(self, capsys, tmp_path):
        # 6 vertices -> the complete graph has 30 edges, past the limit
        big = tmp_path / "big.json"
        big.write_text(
            json.dumps(
                {
                    "n": 1,
                    "vertices": [[i] for i in range(6)],
                    "edges": [[i, (i + 1) % 6] for i in range(6)]
                    + [[(i + 1) % 6, i] for i in range(6)],
                }
            )
        )
        code, _, err = run(capsys, "bound", "--all", big)
        assert code == 4
        assert "enumeration limit" in err and "pass a cap" in err
        assert "enumeration" in err

    def test_enumeration_limit_before_complete_graph(self, tmp_path):
        # the complete graph on 3,000 vertices (8,997,000 edges) is never
        # built, so the limit is reported under capped memory
        f = tmp_path / "cycle.json"
        f.write_text(g_long_cycle(3000).to_json())
        proc = run_capped(CLI, "bound", "--all", f)
        assert (proc.returncode, proc.stdout) == (4, ""), proc.stderr
        assert proc.stderr == (
            "error: 8997000 edges exceeds the enumeration limit of 24; "
            "pass a cap to enumerate anyway\n"
        )


class TestCheck:
    def test_de_example_true(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "check", "de",
            DATA / "de_split.json", DATA / "de_split_k.json",
            DATA / "de_diag.json", DATA / "de_diag_k.json",
        )
        assert code == 0
        assert doc["verdict"] is True

    def test_fe_same_system(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "check", "fe",
            DATA / "g_cyc.json", DATA / "cyc_uniform1.json",
            DATA / "g_cyc.json", DATA / "cyc_uniform1.json",
        )
        assert code == 0
        assert doc["verdict"] is True

    def test_jr_member_true(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "check", "jr-member",
            DATA / "g_k4.json", DATA / "k4_uniform1.json", DATA / "g_in.json",
        )
        assert code == 0
        assert doc["verdict"] is True

    def test_toric_rates_beyond_float_range(self, capsys, tmp_path):
        g = EGraph(1, [(0,), (2,)], [(0, 1), (1, 0)])
        gf, kf = tmp_path / "g.json", tmp_path / "k.json"
        gf.write_text(json.dumps(g.to_json_dict()))
        kf.write_text(EdgeVector(g, [2 * 10**400, 1]).to_json())
        code, doc, _ = run_json(capsys, "check", "toric", gf, kf)
        assert code == 0 and doc["verdict"] is True
        assert doc["witness"]["mode"] == "approximate"
        assert math.isfinite(doc["witness"]["residual"])
        # a witness coordinate of about 10^400 has no float
        kf.write_text(EdgeVector(g, [2 * 10**800, 1]).to_json())
        code, out, err = run(capsys, "check", "toric", gf, kf)
        assert code == 7 and out == ""
        assert "floating-point range" in err

    def test_toric_far_vertex(self, tmp_path):
        # no integer 10^12-th root of 2 is sought (see test_toric), under capped memory
        g = EGraph(1, [(0,), (10**12,)], [(0, 1), (1, 0)])
        gf, kf = tmp_path / "g.json", tmp_path / "k.json"
        gf.write_text(json.dumps(g.to_json_dict()))
        kf.write_text(EdgeVector(g, [1, 2]).to_json())
        proc = run_capped(CLI, "--output", "json", "check", "toric", gf, kf)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["verdict"] is True and doc["witness"]["mode"] == "approximate"
        assert math.isclose(doc["witness"]["x"][0], 2 ** -1e-12, rel_tol=1e-12)

    def test_toric_witness_past_the_digit_limit(self, capsys, tmp_path):
        # the exact witness 2^-20000 has a 6,021-digit denominator, more than
        # the interpreter converts to a string by default
        g = EGraph(1, [(0,), (Fraction(1, 20000),)], [(0, 1), (1, 0)])
        gf, kf = tmp_path / "g.json", tmp_path / "k.json"
        gf.write_text(json.dumps(g.to_json_dict()))
        kf.write_text(EdgeVector(g, [1, 2]).to_json())
        code, doc, err = run_json(capsys, "check", "toric", gf, kf)
        assert code == 0, err
        assert doc["witness"]["mode"] == "exact"
        assert rational_from_json(doc["witness"]["x"][0]) == Fraction(1, 2**20000)
        code, out, err = run(capsys, "check", "toric", gf, kf)
        assert code == 0 and "verdict=true" in out, err

    def test_cb_flux_on_g_in_false_with_note(self, capsys):
        code, doc, _ = run_json(
            capsys, "check", "cb-flux", DATA / "g_in.json", DATA / "in_uniform1.json"
        )
        assert code == 0
        assert doc["verdict"] is False
        assert "not weakly reversible" in doc["note"]

    def test_toric_k4_uniform(self, capsys):
        code, doc, _ = run_json(
            capsys, "check", "toric", DATA / "g_k4.json", DATA / "k4_uniform1.json"
        )
        assert code == 0
        assert doc["verdict"] is True
        assert doc["witness"]["mode"] == "exact"
        assert doc["witness"]["x"] == [1, 1]

    def test_hash_mismatch_exit_5(self, capsys):
        code, _, err = run(
            capsys, "check", "cb-flux", DATA / "g_cyc.json", DATA / "k4_uniform1.json"
        )
        assert code == 5
        assert "produced for graph" in err


class TestPsi:
    def test_forward_fixture(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "psi", "forward", DATA / "g_k4.json", DATA / "g_in.json",
            DATA / "psi_forward_in.json",
        )
        assert code == 0
        assert doc["result"]["mode"] == "exact"
        assert doc["result"]["k"]["values"] == [4, 4, 4, 4]
        assert doc["result"]["q"] == ["1/3", "2/9", "-1/3"]

    def test_forward_values_past_the_digit_limit(self, capsys, tmp_path):
        # a D0 coordinate of -1/2^20000 reads in, and the rates it shifts
        # print, in JSON and in text
        g = EGraph(1, [(0,), (1,), (2,)], [(0, 1), (1, 0), (1, 2), (2, 1)])
        gf, inp = tmp_path / "g.json", tmp_path / "in.json"
        gf.write_text(json.dumps(g.to_json_dict()))
        p = Fraction(-1, 2**20000)
        inp.write_text(json.dumps({
            "j": EdgeVector.uniform(g).to_json_dict(), "x": [1], "p": [rational_to_json(p)],
        }))
        code, doc, err = run_json(capsys, "psi", "forward", gf, gf, inp)
        assert code == 0, err
        k = [rational_from_json(v) for v in doc["result"]["k"]["values"]]
        assert k == [1, p, p, 1]
        code, out, err = run(capsys, "psi", "forward", gf, gf, inp)
        assert code == 0 and f"'{rational_str(p)}'" in out, err

    def test_forward_state_past_the_float_range(self, capsys, tmp_path):
        # half-integer vertices: x^(1/2) and x^(3/2) are taken in logs at
        # x = 10^-400 and 10^400, and x = 10^5000 puts them past 2^8192 (exit 7)
        g = EGraph(1, [(Fraction(1, 2),), (Fraction(3, 2),)], [(0, 1), (1, 0)])
        gf, inp = tmp_path / "g.json", tmp_path / "in.json"
        gf.write_text(json.dumps(g.to_json_dict()))
        for e, code_want in ((-400, 0), (400, 0), (5000, 7)):
            inp.write_text(json.dumps({
                "j": EdgeVector.uniform(g).to_json_dict(),
                "x": [rational_to_json(Fraction(10) ** e)],
                "p": [],
            }))
            code, doc, err = run_json(capsys, "psi", "forward", gf, gf, inp)
            assert code == code_want, err
            if code == 0:
                assert doc["result"]["mode"] == "approximate"
                k0 = rational_from_json(doc["result"]["k"]["values"][0])
                assert math.isclose(k0 * Fraction(10) ** (e // 2), 1, rel_tol=1e-12)
            else:
                assert "floating-point range" in err

    def test_forward_on_a_long_path(self, tmp_path):
        # bidirected 1-D path of 150 vertices, uniform flux: D0 has one vector
        # per inner vertex, and the shift to D0-coordinates 0 leaves rate 1 on
        # the two end edges only
        m = 150
        g = EGraph(1, [(i,) for i in range(m)],
                   sorted([(i, i + 1) for i in range(m - 1)] + [(i + 1, i) for i in range(m - 1)]))
        gf, inp = tmp_path / "g.json", tmp_path / "in.json"
        gf.write_text(json.dumps(g.to_json_dict()))
        inp.write_text(json.dumps(
            {"j": EdgeVector.uniform(g).to_json_dict(), "x": [1], "p": [0] * (m - 2)}
        ))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = run_capped(CLI, "--output", "json", "psi", "forward", gf, gf, inp)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout)["result"]
        assert res["mode"] == "exact"
        assert res["k"]["values"] == [1] + [0] * (g.num_edges - 2) + [1]
        assert len(res["q"]) == j0_dimension(g)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        assert cpu < 10, f"psi forward on the {m}-vertex path took {cpu:.1f} s of CPU"

    def test_inverse_round_trip(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "psi", "inverse", DATA / "g_k4.json", DATA / "g_in.json",
            DATA / "psi_inverse_in.json",
        )
        assert code == 0
        assert doc["result"]["j_hat"]["values"] == [1] * 12
        assert doc["result"]["x"]["mode"] == "exact"
        assert doc["result"]["x"]["x"] == [1, 1]
        assert doc["result"]["p"] == []

    def test_inverse_rates_beyond_float_range(self, capsys, tmp_path):
        g = EGraph(1, [(0,), (2,)], [(0, 1), (1, 0)])
        k = EdgeVector(g, [2 * 10**400, 1]).to_json_dict()
        gf, inv = tmp_path / "g.json", tmp_path / "inv.json"
        gf.write_text(json.dumps(g.to_json_dict()))
        inv.write_text(json.dumps({"k": k, "k1": k, "q_hat": [], "x0": [1]}))
        code, doc, err = run_json(capsys, "psi", "inverse", gf, gf, inv)
        assert code == 0, err
        res = doc["result"]
        assert res["x"]["mode"] == "approximate"
        assert math.isclose(res["x"]["x"][0], math.sqrt(2) * 1e200, rel_tol=1e-12)
        j_hat = [Fraction(v) for v in res["j_hat"]["values"]]
        assert j_hat[0] == 2 * 10**400
        assert math.isclose(j_hat[1] / j_hat[0], 1, rel_tol=1e-12)

    def test_inverse_far_vertex(self, capsys, tmp_path):
        # approximate states: x^300 answers in text and JSON; x^(10^8) answers,
        # and a power near 10^(10^9) exits 7, both under capped memory
        def files(vertices, x0):
            g = EGraph(len(x0), vertices, [(0, 1), (1, 0)])
            k = EdgeVector(g, [1, 2]).to_json_dict()
            gf, inv = tmp_path / "g.json", tmp_path / "inv.json"
            gf.write_text(json.dumps(g.to_json_dict()))
            inv.write_text(json.dumps({"k": k, "k1": k, "q_hat": [], "x0": x0}))
            return gf, gf, inv

        code, out, err = run(capsys, "psi", "inverse", *files([(0,), (300,)], [1]))
        assert code == 0 and out, err
        code, doc, err = run_json(capsys, "psi", "inverse", *files([(0,), (300,)], [1]))
        assert code == 0, err
        j_hat = [Fraction(v) for v in doc["result"]["j_hat"]["values"]]
        assert j_hat[0] == 1 and math.isclose(j_hat[1], 1, rel_tol=1e-12)
        c = 10**8
        proc = run_capped(CLI, "--output", "json", "psi", "inverse", *files([(0,), (c,)], [1]))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["x"]["mode"] == "approximate"
        proc = run_capped(CLI, "psi", "inverse", *files([(c, 0), (0, c)], [10**10, 1]))
        assert proc.returncode == 7 and "floating-point range" in proc.stderr, proc.stderr

    def test_forward_nonmember_exit_6(self, capsys, tmp_path):
        bad = json.loads((DATA / "psi_forward_in.json").read_text())
        bad["j"]["values"] = [1] * 11 + [2]
        f = tmp_path / "bad_psi.json"
        f.write_text(json.dumps(bad))
        code, _, err = run(
            capsys, "psi", "forward", DATA / "g_k4.json", DATA / "g_in.json", f
        )
        assert code == 6
        # the violated constraint is named
        assert "flux balance fails at vertex" in err


# id -> (direction, field replaced, or None for the whole document, value, message)
PSI_BAD_INPUTS = {
    "forward-list": ("forward", None, [1, 2], "top-level JSON value must be an object"),
    "inverse-list": ("inverse", None, [1, 2], "top-level JSON value must be an object"),
    "forward-j": ("forward", "j", 5, "j: edge vector JSON must carry"),
    "inverse-k": ("inverse", "k", 5, "k: edge vector JSON must carry"),
    "inverse-k1": ("inverse", "k1", 5, "k1: edge vector JSON must carry"),
    "forward-x": ("forward", "x", "abc", "x: expected a list"),
    "inverse-q_hat": ("inverse", "q_hat", [1.5], "q_hat[0]: floats are not accepted"),
}

# id -> argv against a 1-D two-vertex cycle LINE with rates LINE_K; INV holds
# psi inverse input whose k is LINE_K, K4_UNBALANCED a flux on g_k4 that no
# cone contains
AMBIENT_MISMATCH = {
    "bound": ["bound", "g_k4.json", "LINE"],
    "jr-member": ["check", "jr-member", "g_k4.json", "k4_uniform1.json", "LINE"],
    "jr-member-unbalanced": ["check", "jr-member", "g_k4.json", "K4_UNBALANCED", "LINE"],
    "check-de": ["check", "de", "g_k4.json", "k4_uniform1.json", "LINE", "LINE_K"],
    "check-fe": ["check", "fe", "LINE", "LINE_K", "g_k4.json", "k4_uniform1.json"],
    "psi-forward": ["psi", "forward", "g_k4.json", "LINE", "psi_forward_in.json"],
    "psi-inverse": ["psi", "inverse", "g_k4.json", "LINE", "INV"],
}


class TestMalformedInput:
    @pytest.mark.parametrize("output", ["text", "json"])
    @pytest.mark.parametrize("case", PSI_BAD_INPUTS.values(), ids=list(PSI_BAD_INPUTS))
    def test_psi_input_exits_2(self, capsys, tmp_path, output, case):
        direction, field, value, message = case
        data = json.loads((DATA / f"psi_{direction}_in.json").read_text())
        f = tmp_path / "bad_psi.json"
        f.write_text(json.dumps(value if field is None else {**data, field: value}))
        code, out, err = run(
            capsys, "--output", output, "psi", direction, DATA / "g_k4.json", DATA / "g_in.json", f
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {f}: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("output", ["text", "json"])
    @pytest.mark.parametrize("argv", AMBIENT_MISMATCH.values(), ids=list(AMBIENT_MISMATCH))
    def test_ambient_dimensions_differ_exits_2(self, capsys, tmp_path, output, argv):
        # g_k4 has n = 2
        g = EGraph(1, [(0,), (1,)], [(0, 1), (1, 0)])
        k = EdgeVector(g, [1, 1])
        paths = {name: tmp_path / name for name in ("LINE", "LINE_K", "INV", "K4_UNBALANCED")}
        paths["LINE"].write_text(g.to_json())
        paths["LINE_K"].write_text(k.to_json())
        paths["K4_UNBALANCED"].write_text(EdgeVector(g_k4(), [1] * 11 + [2]).to_json())
        inv = json.loads((DATA / "psi_inverse_in.json").read_text())
        paths["INV"].write_text(json.dumps({**inv, "k": k.to_json_dict()}))
        files = [paths[a] if a in paths else DATA / a if a.endswith(".json") else a for a in argv]
        code, out, err = run(capsys, "--output", output, *files)
        assert (code, out) == (2, "")
        assert err.startswith("error: ambient dimensions differ: ") and err.count("\n") == 1


    @pytest.mark.parametrize("output", ["text", "json"])
    @pytest.mark.parametrize("rate", [0, -1])
    def test_toric_nonpositive_rate_exits_2(self, capsys, tmp_path, output, rate):
        f = tmp_path / "k.json"
        f.write_text(EdgeVector(g_k4(), [1] * 11 + [rate]).to_json())
        code, out, err = run(capsys, "--output", output, "check", "toric", DATA / "g_k4.json", f)
        assert (code, out) == (2, "")
        assert err == "error: toric membership is defined for strictly positive rates\n"

    @pytest.mark.parametrize("output", ["text", "json"])
    @pytest.mark.parametrize("flux", [0, -1])
    def test_psi_forward_nonpositive_flux_exits_6(self, capsys, tmp_path, output, flux):
        data = json.loads((DATA / "psi_forward_in.json").read_text())
        data["j"]["values"][-1] = flux
        f = tmp_path / "psi.json"
        f.write_text(json.dumps(data))
        code, out, err = run(
            capsys, "--output", output, "psi", "forward", DATA / "g_k4.json", DATA / "g_in.json", f
        )
        assert (code, out) == (6, "")
        assert err.startswith("error: flux vector is not a cone member: ") and err.count("\n") == 1


class TestEnumerateWR:
    def test_cyc_subgraph_count(self, capsys):
        code, doc, _ = run_json(capsys, "enumerate-wr", DATA / "g_cyc.json")
        assert code == 0
        # bidirected square: any union of the four bidirected side pairs
        # plus full cycles; count pinned by the library's own brute filter
        from crnlocus.egraph import iter_wr_edge_masks
        from fixture_graphs import g_cyc

        assert doc["count"] == len(list(iter_wr_edge_masks(g_cyc())))

    def test_cap(self, capsys):
        code, doc, _ = run_json(capsys, "--cap", "3", "enumerate-wr", DATA / "g_k4.json")
        assert code == 0
        assert doc["count"] == 3


def test_seed_and_tol_echoed(capsys):
    code, out, _ = run(capsys, "--seed", "7", "analyze", DATA / "g_cyc.json")
    assert code == 0
    assert "seed=7" in out
    # --tol reached no computation and was removed
    with pytest.raises(SystemExit) as exc:
        main(["--tol", "1e-9", "analyze", str(DATA / "g_cyc.json")])
    assert exc.value.code == 2


class TestCap:
    @pytest.mark.parametrize("cap", [0, 1])
    def test_enumerate_wr_lists_at_most_cap(self, capsys, cap):
        code, doc, _ = run_json(capsys, "--cap", cap, "enumerate-wr", DATA / "g_k4.json")
        assert code == 0
        assert doc["count"] == len(doc["subgraphs"]) == cap

    @pytest.mark.parametrize("command", [["enumerate-wr"], ["bound", "--all"]])
    def test_negative_cap_exits_2(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(["--cap", "-1", *command, str(DATA / "g_k4.json")])
        assert exc.value.code == 2
        assert "--cap: must be nonnegative" in capsys.readouterr().err


class TestDeepJson:
    """Nesting past the parser's recursion limit is a parse error, not a traceback."""

    @pytest.mark.parametrize("text", ["[" * 5000, "[" * 5000 + "]" * 5000])
    def test_graph_file_exits_2(self, capsys, tmp_path, text):
        deep = tmp_path / "deep.json"
        deep.write_text(text)
        code, _, err = run(capsys, "analyze", deep)
        assert code == 2
        assert "nesting exceeds the parser's depth limit" in err

    def test_vector_file_exits_2(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text('{"values": ' * 5000)
        code, _, err = run(capsys, "check", "cb-flux", DATA / "g_k4.json", deep)
        assert code == 2
        assert "nesting exceeds the parser's depth limit" in err


class TestLongJsonNumbers:
    """A JSON number past the interpreter's digit limit is refused with the
    remedy, to give it as a string of digits, not with the interpreter's
    advice to raise the limit."""

    BIG = "1" + "0" * 5000

    def _write(self, tmp_path, doc):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc).replace('"BIG"', self.BIG))
        return path

    def _check(self, capsys, *argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "too many digits; give it as a string of digits" in err, err
        assert "set_int_max_str_digits" not in err

    def test_graph_file(self, capsys, tmp_path):
        doc = {"n": 1, "vertices": [[0], ["BIG"]], "edges": [[0, 1], [1, 0]]}
        self._check(capsys, "analyze", self._write(tmp_path, doc))

    def test_vector_file(self, capsys, tmp_path):
        doc = json.loads((DATA / "cyc_uniform1.json").read_text())
        doc["values"][0] = "BIG"
        self._check(capsys, "check", "cb-flux", DATA / "g_cyc.json", self._write(tmp_path, doc))

    def test_psi_input_file(self, capsys, tmp_path):
        doc = json.loads((DATA / "psi_forward_in.json").read_text())
        doc["x"][0] = "BIG"
        path = self._write(tmp_path, doc)
        self._check(capsys, "psi", "forward", DATA / "g_k4.json", DATA / "g_in.json", path)


def test_runs_without_numpy(tmp_path):
    # an approximate toric witness (it needs sqrt 2) and a Birch point by
    # Newton, in interpreters where importing numpy fails
    g = EGraph(2, [(0, 0), (2, 0)], [(0, 1), (1, 0)])
    pair = EGraph(2, [(1, 0), (0, 1)], [(0, 1), (1, 0)])
    files = {
        "g.json": g.to_json_dict(),
        "k.json": EdgeVector(g, [2, 1]).to_json_dict(),
        "pair.json": pair.to_json_dict(),
        "inv.json": {
            "k": EdgeVector.uniform(pair).to_json_dict(),
            "k1": EdgeVector.uniform(pair).to_json_dict(),
            "q_hat": [],
            "x0": [3, "1/2"],
        },
    }
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    script = "import sys; sys.modules['numpy'] = None; " + CLI

    def cli(*argv):
        proc = run_capped(script, "--output", "json", *argv)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    toric = cli("check", "toric", tmp_path / "g.json", tmp_path / "k.json")
    assert toric["verdict"] is True and toric["witness"]["mode"] == "approximate"
    assert math.isclose(toric["witness"]["x"][0], math.sqrt(2), rel_tol=1e-12)
    pair_file = tmp_path / "pair.json"
    x = cli("psi", "inverse", pair_file, pair_file, tmp_path / "inv.json")["result"]["x"]
    assert x["mode"] == "approximate"
    assert all(math.isclose(v, 1.75, rel_tol=1e-10) for v in x["x"])
    assert cli("check", "toric", DATA / "g_k4.json", DATA / "k4_uniform1.json")["verdict"] is True


def test_rational_strings_past_the_digit_limit():
    assert rational_str(Fraction(10**5000 - 1)) == "9" * 5000
    assert rational_str(Fraction(-(10**4400 + 7), 3)) == "-1" + "0" * 4399 + "7/3"
    # JSON numbers up to the interpreter's limit, digit strings beyond it
    assert rational_to_json(Fraction(10**4300 - 1)) == 10**4300 - 1
    assert rational_to_json(Fraction(10**4300)) == "1" + "0" * 4300
    rng = random.Random(5)
    for _ in range(20):
        x = Fraction(rng.getrandbits(rng.randint(1, 30000)) * rng.choice((1, -1)),
                     rng.getrandbits(rng.randint(1, 30000)) + 1)
        assert rational_from_json(rational_to_json(x)) == x
        assert rational_from_json(rational_str(x)) == x
