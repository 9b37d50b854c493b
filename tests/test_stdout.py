"""The full standard output of the wave-front, path-trace and reach
commands, pinned byte for byte: labels, provenance, dominated lines and
notes; the rules, depths, dimensions and centres of each descent edge;
the backward reachable set, and the error record of the u7h reach,
which stops at its vertex limit; the parabolic identity counts of
`lab spr` and their result records; the curve counts of `lab curve`
and their result record; the oracle suite, which lifts
triples on the u6, u7, sl2 and u7h paths; the facet tables and their
result records.  A refactor of the label, descent, arrangement or lab
layers must leave every file under tests/stdout unchanged."""

import hashlib
import json
from pathlib import Path

import pytest

from padicwf import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "stdout"


@pytest.mark.parametrize("argv, name", [
    (["wf", "example", "u6"], "wf_example_u6"),
    (["wf", "example", "u7"], "wf_example_u7"),
    (["wf", "example", "toral"], "wf_example_toral"),
    (["wf", "compute", "--input", str(ROOT / "inputs" / "u6_chain.ini")],
     "wf_compute_u6_chain"),
    (["wf", "compute", "--input", str(ROOT / "inputs" / "toral.ini")],
     "wf_compute_toral"),
])
def test_wf_stdout_is_pinned(argv, name, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / (name + ".txt")).read_text()


@pytest.mark.parametrize("scenario", ["sl2", "u7h"])
def test_graph_trace_stdout_is_pinned(scenario, capsys):
    assert cli.main(["graph", "trace", "--scenario", scenario]) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / ("graph_trace_%s.txt" % scenario)).read_text()


def test_graph_reach_sl2_stdout_is_pinned(capsys):
    assert cli.main(["graph", "reach", "--scenario", "sl2"]) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / "graph_reach_sl2.txt").read_text()


def test_graph_reach_u7h_stderr_is_pinned(capsys):
    # reach lifts a triple for every rule-2 candidate, the ones that
    # raise included, before it stops at the limit
    assert cli.main(["graph", "reach", "--scenario", "u7h"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (GOLDEN / "graph_reach_u7h.stderr.txt").read_text()


@pytest.mark.parametrize("argv, name", [
    (["--n", "2"], "lab_spr_n2"),
    (["--n", "3", "--samples", "10", "--seed", "7"], "lab_spr_n3"),
])
def test_lab_spr_stdout_and_record_are_pinned(argv, name, tmp_path,
                                              capsys):
    out = tmp_path / "spr.json"
    assert cli.main(["lab", "spr"] + argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == (GOLDEN / (name + ".txt")).read_text()
    assert out.read_text() == (GOLDEN / (name + ".out.json")).read_text()


def test_lab_curve_stdout_and_record_are_pinned(tmp_path, capsys):
    # without --coeff both corner coefficients are counted, 3 then 1
    out = tmp_path / "curve.json"
    assert cli.main(["lab", "curve", "--q", "23", "--out", str(out)]) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / "lab_curve_q23.txt").read_text()
    assert out.read_text() == (GOLDEN / "lab_curve_q23.out.json").read_text()


def test_oracle_all_stdout_is_pinned(capsys):
    assert cli.main(["oracle", "all"]) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / "oracle_all.txt").read_text()


# -- facet tables ------------------------------------------------------------
#
# The table on stdout and the --out record of `facets`.  The record is
# pinned by the sha256 of its bytes and, so that a failure shows which
# facet moved, by a compact rendering: the manifest, then one line per
# facet with its depth, dimension, kind and sign vector ("+": above the
# plane, "-": below, "0": on it).

FACETS_SL3_UNIT = ["--model", "sl3", "--window", "0,1:0,1",
                   "--rmin", "-1", "--rmax", "1"]


def _facet_rows(raw):
    rec = json.loads(raw)
    code = {1: "+", -1: "-", 0: "0"}
    lines = [json.dumps(rec["manifest"], sort_keys=True)]
    for f in rec["result"]["facets"]:
        lines.append("%s %d %s %s" % (
            f["depth"], f["dim"],
            "horizontal" if f["horizontal"] else "sloped",
            "".join(code[s] for s in f["signs"])))
    return "\n".join(lines) + "\n"


def _run_facets(argv, tmp_path, capsys):
    out = tmp_path / "facets.json"
    assert cli.main(["facets"] + argv + ["--out", str(out)]) == 0
    return capsys.readouterr().out, out.read_bytes()


@pytest.mark.parametrize("argv, name, digest", [
    ([], "facets_sl2",
     "2c6c25ecd87173c8f7ca3704dbb0f1989f9be9261140c6fc82fa73e03648b780"),
    (FACETS_SL3_UNIT, "facets_sl3_unit",
     "0913a09f6cd83866fd4c91e6a8660925a6a26213663774c787ace2bf6f9a27e7"),
])
def test_facets_stdout_and_record_are_pinned(argv, name, digest, tmp_path,
                                              capsys):
    text, raw = _run_facets(argv, tmp_path, capsys)
    assert text == (GOLDEN / (name + ".txt")).read_text()
    assert _facet_rows(raw) == \
        (GOLDEN / (name + ".out.txt")).read_text()
    assert hashlib.sha256(raw).hexdigest() == digest


def test_facets_u7h_unit_window_is_pinned(tmp_path, capsys):
    # 12,905 facets: too many to keep as text, so only their digests
    text, raw = _run_facets(["--model", "u7h"] + FACETS_SL3_UNIT[2:],
                            tmp_path, capsys)
    assert text.endswith("total: 12905 facets\n")
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "55cc44c8c3d35adbe5b98eb016f50ddab46de7a75c036ed126abf9e34edf3e97"
    assert hashlib.sha256(_facet_rows(raw).encode()).hexdigest() == \
        "abe813fa9e486900667311bf3455a01e4976f2bdb74b039db2d8258fc4f8d13d"
