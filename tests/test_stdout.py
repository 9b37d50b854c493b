"""The full standard output of the wave-front, path-trace and reach
commands, pinned byte for byte: labels, provenance, dominated lines and
notes; the rules, depths, dimensions and centres of each descent edge;
the backward reachable set, and the error record of the u7h reach,
which stops at its vertex limit; the oracle suite, which lifts triples
on the u6, u7, sl2 and u7h paths.  A refactor of the label or descent
layers must leave every file under tests/stdout unchanged."""

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


def test_oracle_all_stdout_is_pinned(capsys):
    assert cli.main(["oracle", "all"]) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / "oracle_all.txt").read_text()
