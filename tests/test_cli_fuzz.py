"""Generated edge-vector and psi input documents against the CLI.

The graphs are the fixtures; the documents around them are built from the
fixture inputs, their values sometimes redrawn, with one fault or none: a
value of the wrong type, a missing key, a wrong length, a malformed
rational, a zero or negative entry, or a foreign graph hash.  Every run must end in a documented exit
code, with a report on stdout or exactly one error line on stderr, and
never raise.
"""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from crnlocus import parse_egraph
from crnlocus.cli import main

DATA = Path(__file__).parent / "data"
EXIT_CODES = {0, 2, 3, 4, 5, 6, 7}


def _doc(name):
    return json.loads((DATA / f"{name}.json").read_text())


# graph -> a valid edge vector on it
VECTORS = {name: _doc(vec) for name, vec in
           (("g_k4", "k4_uniform1"), ("g_cyc", "cyc_uniform1"), ("g_in", "in_4444"))}
HASHES = {name: parse_egraph((DATA / f"{name}.json").read_text()).content_hash for name in VECTORS}
PSI_BASE = {"forward": _doc("psi_forward_in"), "inverse": _doc("psi_inverse_in")}

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)
NONPOSITIVE = st.one_of(st.sampled_from([0, -1, "0/5", "-1/2"]), st.integers(-(10**6), 0))
RATIONAL = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).map(
        lambda f: f"{f.numerator}/{f.denominator}"
    ),
    st.sampled_from(["abc", "1/0", "", "1/", "2/-3", "0x10", " 1", "1.5", "1e3"]),
    JUNK,
)


LIST_FAULTS = ["nonpositive", "entry", "length", "type"]
VECTOR_FAULTS = LIST_FAULTS + ["hash", "missing", "document"]


@st.composite
def entries(draw, base, fault):
    """``base`` or a positive redraw of it, with ``fault`` applied."""
    values = list(base)
    if values and draw(st.booleans()):
        values = draw(st.lists(st.integers(1, 5), min_size=len(values), max_size=len(values)))
    if fault in ("nonpositive", "entry") and values:
        values[draw(st.integers(0, len(values) - 1))] = draw(
            NONPOSITIVE if fault == "nonpositive" else RATIONAL
        )
    elif fault == "length":
        size = draw(st.integers(0, len(values) + 2).filter(lambda s: s != len(values)))
        values = draw(st.lists(st.integers(1, 5), min_size=size, max_size=size))
    elif fault == "type":
        values = draw(JUNK)
    return values


@st.composite
def vector_doc(draw, base, fault):
    """An edge-vector document from a valid one, with ``fault`` applied."""
    doc = {"graph_hash": base["graph_hash"], "values": draw(entries(base["values"], fault))}
    if fault == "hash":
        doc["graph_hash"] = draw(st.one_of(st.sampled_from(sorted(HASHES.values())), JUNK))
    elif fault == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif fault == "document":
        return draw(JUNK)
    return doc


@st.composite
def psi_doc(draw, direction):
    """A psi input from the fixture, with at most one field or the document broken."""
    base = PSI_BASE[direction]
    where = draw(st.sampled_from(["document", *base]))
    doc = {}
    for key, value in base.items():
        if isinstance(value, dict):
            fault = draw(st.sampled_from(["none", *VECTOR_FAULTS])) if key == where else "none"
            doc[key] = draw(vector_doc(value, fault))
        else:
            fault = draw(st.sampled_from(["none", *LIST_FAULTS])) if key == where else "none"
            doc[key] = draw(entries(value, fault))
    if where == "document":
        fault = draw(st.sampled_from(["none", "missing", "type"]))
        if fault == "missing":
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif fault == "type":
            return draw(JUNK)
    return doc


@st.composite
def invocation(draw):
    """(argv with file placeholders, {placeholder: document}), one document
    possibly broken."""
    command = draw(st.sampled_from(["cb-flux", "toric", "jr-member", "de", "fe", "forward", "inverse"]))
    if command in ("forward", "inverse"):
        return ["psi", command, "g_k4", "g_in", "IN"], {"IN": draw(psi_doc(command))}
    graphs = draw(st.lists(st.sampled_from(sorted(VECTORS)), min_size=2, max_size=2))
    argv = ["check", command, graphs[0], "VEC"]
    if command == "jr-member":
        argv.append(graphs[1])
    elif command in ("de", "fe"):
        argv += [graphs[1], "VEC2"]
    broken = draw(st.sampled_from(["VEC", "VEC2"]))
    fault = draw(st.sampled_from(["none", *VECTOR_FAULTS]))
    files = {
        name: draw(vector_doc(VECTORS[graph], fault if name == broken else "none"))
        for name, graph in zip(("VEC", "VEC2"), graphs)
        if name in argv
    }
    return argv, files


@settings(max_examples=200, derandomize=True, deadline=None)
@given(output=st.sampled_from(["text", "json"]), case=invocation())
def test_generated_documents_exit_documented(tmp_path_factory, output, case):
    argv, files = case
    tmp = tmp_path_factory.getbasetemp()
    paths = {}
    for name, doc in files.items():
        paths[name] = tmp / f"fuzz_{name}.json"
        paths[name].write_text(json.dumps(doc))
    full = ["--output", output] + [
        str(paths[a]) if a in paths else str(DATA / f"{a}.json") if a in VECTORS else a
        for a in argv
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(full)
    assert code in EXIT_CODES
    if code == 0:
        assert out.getvalue() and not err.getvalue()
    else:
        assert not out.getvalue()
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
