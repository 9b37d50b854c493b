"""Repeated commands in one interpreter.  The lab keeps the structures
that depend only on the field, the form or (n, p); the descent path
keeps each window's facets, their graded quotients and the walks of
their cosets, and each model keeps the labels of its cosets, whichever
command asked for them, while they are among the most recent.  `oracle
all` and the benchmark drive `cli.main` many times in one interpreter:
a second run of a command must print the same output and write the
same result record, byte for byte, as the first, and as a new
interpreter does."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padicwf
from padicwf import building as bd
from padicwf import cli
from padicwf import ffield as ff
from padicwf import springerlab as sl

CHAIN = str(Path(__file__).resolve().parent.parent / "inputs" /
            "u6_chain.ini")


def _run(argv, out, capsys):
    """The printed output and the result record of one run."""
    assert cli.main(argv + ["--out", str(out)]) == 0
    return capsys.readouterr().out, out.read_bytes()


def _curve_spec_file(path):
    spec = sl.curve_spec(1, 3)
    path.write_text(json.dumps({
        "gram": spec.gram, "X": spec.X,
        "pattern": ["".join(r) for r in spec.pattern], "p": 3,
        "degrees": [1, 2]}))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["lab", "spr", "--n", "2"],
    ["lab", "spr", "--n", "3", "--samples", "10"],
    ["lab", "count", "--spec", "SPEC"],
    ["lab", "curve", "--q", "23"],
    ["wf", "example", "u7"],
    ["wf", "example", "u6"],
    ["wf", "example", "toral"],
    ["wf", "compute", "--input", CHAIN],
    ["graph", "trace", "--scenario", "sl2"],
    ["graph", "trace", "--scenario", "u7h"],
    ["graph", "reach", "--scenario", "sl2"],
    ["lab", "curve", "--coeff", "all", "--q", "23"],
])
def test_second_run_matches_the_first(argv, tmp_path, capsys):
    argv = [_curve_spec_file(tmp_path / "spec.json") if a == "SPEC" else a
            for a in argv]
    runs = [_run(argv, tmp_path / ("run%d.json" % k), capsys)
            for k in range(2)]
    assert runs[0][0]
    assert runs[1] == runs[0]


def test_interleaved_traces_match(tmp_path, capsys):
    # u7h, then sl2, then u7h again: the second u7h trace reads the
    # facets the first one left in its window's entry
    trace = ["graph", "trace", "--scenario"]
    first = _run(trace + ["u7h"], tmp_path / "a.json", capsys)
    _run(trace + ["sl2"], tmp_path / "b.json", capsys)
    assert _run(trace + ["u7h"], tmp_path / "c.json", capsys) == first


def test_second_sl2_trace_builds_no_ranker(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bd, "_PLANE_CACHE", {})
    built = []
    ranker = bd._ranker
    monkeypatch.setattr(bd, "_ranker",
                        lambda rows, *memo: built.append(rows)
                        or ranker(rows, *memo))
    argv = ["graph", "trace", "--scenario", "sl2"]
    first = _run(argv, tmp_path / "a.json", capsys)
    assert len(built) == 1
    assert _run(argv, tmp_path / "b.json", capsys) == first
    assert len(built) == 1


def _fresh_run(argv, out):
    """The printed output and the result record of one run in a new
    interpreter."""
    src = str(Path(padicwf.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path
                                             else ""))
    proc = subprocess.run([sys.executable, "-m", "padicwf.cli"] + argv
                          + ["--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    return proc.stdout, out.read_bytes()


def test_curve_queries_on_one_table_match_fresh_runs(tmp_path, capsys):
    # the three curve queries at q = 23 read one table of counts; each
    # must print and record what it does in a new interpreter
    curve = ["lab", "curve", "--q", "23"]
    queries = [curve + ["--coeff", "3"], curve + ["--coeff", "1"], curve]
    here = [_run(argv, tmp_path / ("here%d.json" % k), capsys)
            for k, argv in enumerate(queries)]
    fresh = [_fresh_run(argv, tmp_path / ("fresh%d.json" % k))
             for k, argv in enumerate(queries)]
    assert here == fresh
    K = ff.ext_field(23, 1)
    gram = [[K.embed(x) for x in row] for row in sl.curve_spec(1, 23).gram]
    table = sl._curve_table(K, gram)
    with pytest.raises(ValueError, match="read-only"):
        table[3] = 1
    # the size limit is still checked before the table is looked up
    assert cli.main(curve + ["--deg", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"]["message"] == \
        "enumeration too large (148316260 points)"


def test_interleaved_reaches_and_traces_match_fresh_runs(monkeypatch,
                                                         tmp_path, capsys):
    # traces and reaches on one window read the walks and labels kept in
    # its facets' coset tables, whichever command walked first; each run
    # must print and record what it does in a new interpreter
    monkeypatch.setattr(bd, "_PLANE_CACHE", {})
    queries = [["graph", cmd, "--scenario", scenario]
               for cmd, scenario in [("reach", "sl2"), ("trace", "u7h"),
                                     ("trace", "sl2"), ("reach", "u7h"),
                                     ("reach", "sl2"), ("trace", "u7h")]]
    here = [_run(argv, tmp_path / ("here%d.json" % k), capsys)
            for k, argv in enumerate(queries)]
    fresh = {}
    for k, argv in enumerate(queries):
        if tuple(argv) not in fresh:
            fresh[tuple(argv)] = _fresh_run(argv,
                                            tmp_path / ("fresh%d.json" % k))
    assert here == [fresh[tuple(argv)] for argv in queries]


def _diagonal_input(units):
    """A one-piece depth-0 u6 input, diag(k * s for k in units), at one
    point: the shape of the benchmark's descent inputs."""
    rows = ["row = " + ", ".join("%d*s" % k if i == j else "0"
                                 for j in range(6))
            for i, k in enumerate(units)]
    return "\n".join(["[field]", "q = 23", "", "[group]", "model = u6",
                      "override-char-bound = true", "", "[gamma.1]",
                      "depth = 0"] + rows +
                     ["", "[options]", "point = 0, 0, 0, 0, 0, 1/2", ""])


def test_diagonal_inputs_and_examples_match_fresh_runs(tmp_path, capsys):
    # distinct diagonal inputs at one point, interleaved with the u6
    # example, read and fill the u6 model's label table; each run must
    # print and record what it does in a new interpreter
    units = [(1, 2, 3, 4, 5, 6), (7, 3, 11, 2, 19, 5), (4, 9, 13, 4, 9, 13),
             (8, 1, 22, 8, 1, 22)]
    inputs = []
    for k, us in enumerate(units):
        path = tmp_path / ("diag%d.ini" % k)
        path.write_text(_diagonal_input(us))
        inputs.append(["wf", "compute", "--input", str(path)])
    example = ["wf", "example", "u6"]
    queries = [inputs[0], example, inputs[1], inputs[2], inputs[0], example,
               inputs[3], inputs[2]]
    here = [_run(argv, tmp_path / ("here%d.json" % k), capsys)
            for k, argv in enumerate(queries)]
    fresh = {}
    for k, argv in enumerate(queries):
        if tuple(argv) not in fresh:
            fresh[tuple(argv)] = _fresh_run(argv,
                                            tmp_path / ("fresh%d.json" % k))
    assert here == [fresh[tuple(argv)] for argv in queries]
