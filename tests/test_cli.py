import json
import subprocess
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from padicwf import building as bd
from padicwf import cli

INPUTS = Path(__file__).resolve().parent.parent / "inputs"


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- input parsing -------------------------------------------------------


def test_parse_shipped_u6_input():
    text = (INPUTS / "u6_chain.ini").read_text()
    chain, spec, options = cli.parse_input(text)
    assert [name for name, _, _ in chain.pieces] == ["gamma.1", "gamma.2"]
    assert [r for _, _, r in chain.pieces] == [0, -1]
    assert spec.q == 23 and spec.kind == "u" and spec.n == 6
    assert options["seed-datum"] == "u6"


def test_parse_reports_line_and_column(capsys):
    text = (INPUTS / "toral.ini").read_text().replace(
        "2*s", "oops", 1)
    with pytest.raises(cli.CliError) as err:
        cli.parse_input(text)
    assert err.value.record["line"] == 13
    assert err.value.record["column"] == 2
    assert "cannot parse scalar" in str(err.value)


def test_parse_missing_section():
    with pytest.raises(cli.CliError, match=r"missing \[group\]"):
        cli.parse_input("[field]\nq = 23\n")


def test_parse_unknown_model():
    with pytest.raises(cli.CliError, match="unknown model"):
        cli.parse_input("[field]\nq = 23\n[group]\nmodel = e8\n")


def test_parse_wrong_row_count():
    text = "\n".join(["[field]", "q = 23", "[group]", "model = u6",
                      "override-char-bound = true", "[gamma.1]",
                      "depth = 0", "row = 1*s, 0, 0, 0, 0, 0"])
    with pytest.raises(cli.CliError, match="expected 6 matrix rows"):
        cli.parse_input(text)


def test_parse_rejects_char_bound_without_override():
    text = (INPUTS / "toral.ini").read_text().replace(
        "override-char-bound = true", "")
    with pytest.raises(ValueError, match="p > 35"):
        cli.parse_input(text)
    cli.parse_input(text, override=True)


def test_parse_rejects_bad_depth():
    text = (INPUTS / "toral.ini").read_text().replace(
        "depth = 0", "depth = -1")
    with pytest.raises(cli.CliError, match="not good at depth"):
        cli.parse_input(text)


# -- wf ------------------------------------------------------------------


def test_wf_compute_u6_chain(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, text, _ = run(["wf", "compute", "--input",
                         str(INPUTS / "u6_chain.ini"), "--out",
                         str(out)], capsys)
    assert code == 0
    assert "[4,1,1]" in text and "[3,3]" in text
    data = json.loads(out.read_text())
    assert data["result"]["labels"] == [[4, 1, 1], [3, 3]]
    assert data["result"]["provenance"]["[4,1,1]"] == ["y"]
    assert not data["result"]["upper_bound"]
    assert len(data["manifest"]["input_hash"]) == 64


def test_wf_compute_toral(capsys):
    code, text, _ = run(["wf", "compute", "--input",
                         str(INPUTS / "toral.ini")], capsys)
    assert code == 0
    assert "[5,1]" in text and "exact" in text


def test_wf_compute_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        run(["wf", "compute", "--input", str(INPUTS / "u6_chain.ini"),
             "--out", str(out)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_wf_example_u6(capsys):
    code, text, _ = run(["wf", "example", "u6"], capsys)
    assert code == 0
    assert "[4,1,1]" in text and "[3,3]" in text
    assert "dominated" in text  # the alcove contribution


def test_wf_example_u7_reports_both_variants(capsys):
    code, text, _ = run(["wf", "example", "u7"], capsys)
    assert code == 0
    assert "upper bound" in text
    assert "[5,2]" in text and "[6,1]" in text
    assert "count at the second vertex: 0" in text
    assert "count at the second vertex: 16" in text
    assert "12 edges" in text  # path discrepancy note


def test_wf_example_toral_result_file(tmp_path, capsys):
    out = tmp_path / "t.json"
    code, _, _ = run(["wf", "example", "toral", "--out", str(out)],
                     capsys)
    assert code == 0
    runs = json.loads(out.read_text())["result"]["runs"]
    assert runs[0]["labels"] == [[5, 1]]


def test_error_record_is_machine_readable(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text((INPUTS / "toral.ini").read_text().replace(
        "2*s", "??"))
    code, _, err = run(["wf", "compute", "--input", str(bad)], capsys)
    assert code == 2
    rec = json.loads(err)
    assert "cannot parse scalar" in rec["error"]["message"]
    assert rec["error"]["line"] == 13


# -- facets --------------------------------------------------------------


def test_facets_sl2_window_matches_grid_census(capsys):
    code, text, _ = run(["facets", "--model", "sl2", "--window", "0,1",
                         "--rmin", "-1", "--rmax", "2"], capsys)
    assert code == 0
    # independent census: every cell of the arrangement contains a
    # point of a fine grid (vertex denominators divide 48)
    m = bd.sl2_model(3)
    win = bd.Window(((Fr(0), Fr(1)),), Fr(-1), Fr(2))
    signs = set()
    for i in range(49):
        for j in range(-48, 97):
            signs.add(bd.facet_of(m, win, (Fr(i, 48),),
                                  Fr(j, 48)).signs)
    assert "total: %d facets" % len(signs) in text
    assert len(signs) == 71


def test_facets_budget_guard(capsys):
    # the u7 unit window has 113 planes in 3-D: about twice the
    # arrangement budget
    code, _, err = run(["facets", "--model", "u7", "--q", "23",
                        "--window", "0,1:0,1", "--rmin", "-1",
                        "--rmax", "1"], capsys)
    assert code == 2
    assert "budget" in json.loads(err)["error"]["message"]


def test_facets_model_without_chart(capsys):
    code, _, err = run(["facets", "--model", "u6"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["message"] == \
        "model u6 has no apartment chart"


@pytest.mark.parametrize("argv, message", [
    (["--window", "1,0"], "empty window: axis 0 range [1, 0]"),
    (["--rmin=1", "--rmax=0"], "empty window: r range [1, 0]"),
])
def test_facets_empty_window(argv, message, capsys):
    code, out, err = run(["facets", "--model", "sl2"] + argv, capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"].startswith(message)


# -- graph ---------------------------------------------------------------


def test_graph_trace_sl2(capsys):
    code, text, _ = run(["graph", "trace", "--scenario", "sl2"], capsys)
    assert code == 0
    assert "2 edges" in text


def test_graph_trace_u7h(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, text, _ = run(["graph", "trace", "--scenario", "u7h",
                         "--out", str(out)], capsys)
    assert code == 0
    assert "12 edges" in text
    data = json.loads(out.read_text())["result"]
    assert data["edges"] == 12
    assert data["rules"] == [2, 1] * 6


def test_graph_trace_past_the_window(capsys):
    # the sl2 window ends at r = 2: the walk cannot reach depth 5
    code, _, err = run(["graph", "trace", "--scenario", "sl2",
                        "--to-depth", "5"], capsys)
    assert code == 2
    assert "no room to walk inside the window" in \
        json.loads(err)["error"]["message"]


def test_graph_reach_sl2(capsys):
    code, text, _ = run(["graph", "reach", "--scenario", "sl2"], capsys)
    assert code == 0
    assert "reachable set: scenario=sl2, 8 vertices" in text


def test_graph_reach_u7h_limit(capsys):
    # the u7h backward closure passes 1000 vertices; reach stops at the
    # documented limit instead of grinding for minutes
    code, _, err = run(["graph", "reach", "--scenario", "u7h"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["message"] == \
        "backward reachable set exceeds 100 vertices"


# -- lab -----------------------------------------------------------------


def test_lab_curve_golden(capsys):
    code, text, _ = run(["lab", "curve", "--coeff", "3", "--q", "23"],
                        capsys)
    assert code == 0
    assert "-> 0" in text
    code, text, _ = run(["lab", "curve", "--coeff", "1", "--q", "23"],
                        capsys)
    assert "-> 16" in text


def test_lab_spr_exhaustive_gl2(capsys):
    code, text, _ = run(["lab", "spr", "--n", "2", "--q", "3"], capsys)
    assert code == 0
    assert "0 failures" in text


def test_lab_count_spec_file(tmp_path, capsys):
    from padicwf import springerlab as sl
    spec = sl.curve_spec(1, 3)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "gram": [list(r) for r in spec.gram],
        "X": [list(r) for r in spec.X],
        "pattern": list(spec.pattern), "p": 3, "degrees": [1]}))
    code, text, _ = run(["lab", "count", "--spec", str(path)], capsys)
    assert code == 0
    assert "4 points" in text


# -- oracle and plumbing -------------------------------------------------


def test_oracle_all(capsys):
    code, text, _ = run(["oracle", "all"], capsys)
    assert code == 0
    assert "7/7 passed" in text


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "padicwf.cli", "lab", "curve",
         "--coeff", "3", "--q", "23"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "-> 0" in proc.stdout


def test_inert_options_are_gone(tmp_path, capsys):
    # no computation reads a thread count or a denominator bound, so
    # neither is an option nor a manifest key
    with pytest.raises(SystemExit) as err:
        cli.main(["wf", "example", "toral", "--threads", "2"])
    assert err.value.code == 2
    out = tmp_path / "r.json"
    code, _, _ = run(["wf", "example", "toral", "--out", str(out)], capsys)
    assert code == 0
    mani = json.loads(out.read_text())["manifest"]
    assert "threads" not in mani and "denom_bound" not in mani
