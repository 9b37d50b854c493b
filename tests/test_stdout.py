"""The full standard output of the wave-front, path-trace and reach
commands and the bytes of their --out records, pinned byte for byte: labels, provenance, dominated lines and
notes; the rules, depths, dimensions and centres of each descent edge;
the backward reachable sets of the sl2 and u7h reaches, the u7h set
also against its census golden; the parabolic identity counts of
`lab spr` and their result records; the curve counts of `lab curve`,
for both corner coefficients and for the sweep, and their result
records; the flag counts of `lab count` on the curve spec and their
result record; the oracle suite, which lifts
triples on the u6, u7, sl2 and u7h paths, and its record; the facet
tables and their result records.  A refactor of the label, descent, arrangement or lab
layers must leave every file under tests/stdout unchanged."""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from padicwf import cli

import goldens

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
def test_wf_stdout_is_pinned(argv, name, tmp_path, capsys):
    out = tmp_path / "wf.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == (GOLDEN / (name + ".txt")).read_text()
    assert out.read_text() == (GOLDEN / (name + ".out.json")).read_text()


@pytest.mark.parametrize("scenario", ["sl2", "u7h"])
def test_graph_trace_stdout_is_pinned(scenario, tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert cli.main(["graph", "trace", "--scenario", scenario,
                     "--out", str(out)]) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / ("graph_trace_%s.txt" % scenario)).read_text()
    assert out.read_text() == \
        (GOLDEN / ("graph_trace_%s.out.json" % scenario)).read_text()


def test_graph_reach_sl2_stdout_is_pinned(tmp_path, capsys):
    out = tmp_path / "reach.json"
    assert cli.main(["graph", "reach", "--scenario", "sl2",
                     "--out", str(out)]) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / "graph_reach_sl2.txt").read_text()
    assert out.read_text() == \
        (GOLDEN / "graph_reach_sl2.out.json").read_text()


def test_graph_reach_u7h_stdout_is_pinned(tmp_path, capsys):
    # one line per vertex, sorted by depth and then larger dimension
    # first; the lines of each (depth, dim) cell count its vertices
    out = tmp_path / "reach.json"
    assert cli.main(["graph", "reach", "--scenario", "u7h",
                     "--out", str(out)]) == 0
    pinned = (GOLDEN / "graph_reach_u7h.txt").read_text()
    assert capsys.readouterr().out == pinned
    assert out.read_text() == \
        (GOLDEN / "graph_reach_u7h.out.json").read_text()
    cells = Counter(tuple(part.split("=")[1] for part in line.split()[:2])
                    for line in pinned.splitlines()[1:])
    assert cells == {(dep, str(dim)): n
                     for dep, row in goldens.U7H_REACH_CENSUS.items()
                     for dim, n in enumerate(row) if n}


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


def test_lab_curve_sweep_stdout_and_record_are_pinned(tmp_path, capsys):
    # --coeff all: the count at every c in 1..p-1, then the zero set
    out = tmp_path / "curve.json"
    assert cli.main(["lab", "curve", "--coeff", "all", "--q", "23",
                     "--out", str(out)]) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / "lab_curve_all_q23.txt").read_text()
    assert out.read_text() == \
        (GOLDEN / "lab_curve_all_q23.out.json").read_text()
    rec = json.loads(out.read_text())["result"]
    assert set(rec["zeros"]) == goldens.CURVE_ZEROS[23]
    assert {c: rec["counts"][str(c)] for c in (3, 1)} == \
        goldens.CURVE_COUNT_Q23


def test_lab_count_stdout_and_record_are_pinned(tmp_path, capsys):
    # the curve spec at p = 3, counted over F_3 and F_9
    out = tmp_path / "count.json"
    assert cli.main(["lab", "count", "--spec",
                     str(ROOT / "inputs" / "curve_count_p3.json"),
                     "--out", str(out)]) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / "lab_count_curve_p3.txt").read_text()
    assert out.read_text() == \
        (GOLDEN / "lab_count_curve_p3.out.json").read_text()


def test_oracle_all_stdout_is_pinned(tmp_path, capsys):
    out = tmp_path / "oracle.json"
    assert cli.main(["oracle", "all", "--out", str(out)]) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / "oracle_all.txt").read_text()
    assert out.read_text() == (GOLDEN / "oracle_all.out.json").read_text()


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
     "fd029789c878778836eaa66e3240f8a84601fc097fc3dad22a733ba49e4c7996"),
    (FACETS_SL3_UNIT, "facets_sl3_unit",
     "704d2260b64c872238b1a752be86e9fef5e4aa690753ac768f96372104cb0d44"),
], ids=["facets_sl2", "facets_sl3_unit"])
def test_facets_stdout_and_record_are_pinned(argv, name, digest, tmp_path,
                                              capsys):
    text, raw = _run_facets(argv, tmp_path, capsys)
    assert text == (GOLDEN / (name + ".txt")).read_text()
    assert _facet_rows(raw) == \
        (GOLDEN / (name + ".out.txt")).read_text()
    assert hashlib.sha256(raw).hexdigest() == digest


def test_facets_u7h_unit_window_is_pinned(tmp_path, capsys):
    # 12,905 facets: too many to keep as text, so only their digests:
    # of the table, of the rows of the record and of its raw bytes
    text, raw = _run_facets(["--model", "u7h"] + FACETS_SL3_UNIT[2:],
                            tmp_path, capsys)
    assert text.endswith("total: 12905 facets\n")
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "55cc44c8c3d35adbe5b98eb016f50ddab46de7a75c036ed126abf9e34edf3e97"
    assert hashlib.sha256(_facet_rows(raw).encode()).hexdigest() == \
        "93bf3c709a43cae6976a5b9d8d711e26f0f2c7e53659366562ab3ecf719e088a"
    assert hashlib.sha256(raw).hexdigest() == \
        "da078534db1c9c9e121cdafa09847cb3a09c8fbdfa8990276733ba36db051643"
