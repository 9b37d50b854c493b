import json
import os
import subprocess
import sys
from fractions import Fraction as Fr
from importlib import resources
from pathlib import Path

import pytest

import padicwf
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
    chain, model, options = cli.parse_input(text)
    assert [name for name, _, _ in chain.pieces] == ["gamma.1", "gamma.2"]
    assert [r for _, _, r in chain.pieces] == [0, -1]
    assert model is bd.u6_model(23)
    assert model.field.q == 23 and model.rank == model.n == 6
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
    with pytest.raises(cli.CliError, match="line 7: .*p > 35"):
        cli.parse_input(text)
    cli.parse_input(text, override=True)


@pytest.mark.parametrize("depth, message", [
    ("minus one", "Invalid literal for Fraction: 'minus one'"),
    ("1/0", "Fraction(1, 0)"),
])
def test_wf_compute_bad_depth_names_its_line(tmp_path, capsys, depth,
                                             message):
    path = tmp_path / "depth.ini"
    path.write_text((INPUTS / "toral.ini").read_text().replace(
        "depth = 0", "depth = " + depth))
    code, out, err = run(["wf", "compute", "--input", str(path)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"message": "line 11: " + message,
                                        "line": 11}


def test_wf_compute_bad_point_names_its_line(tmp_path, capsys):
    path = tmp_path / "point.ini"
    path.write_text((INPUTS / "toral.ini").read_text().replace(
        "point = 0, 0, 0, 0, 0, 1/2", "point = 0, zero, 0, 0, 0, 1/2"))
    code, out, err = run(["wf", "compute", "--input", str(path)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "message": "line 20: Invalid literal for Fraction: ' zero'",
        "line": 20}


@pytest.mark.parametrize("old, new, line, message", [
    ("q = 23", "p = 23", 4, "unknown key 'p' in [field]"),
    ("point =", "pint =", 20, "unknown key 'pint' in [options]"),
    ("[options]", "[option]", 19, "unknown section [option]"),
    ("q = 23", "q = 23\nq = 5", 5, "repeated key 'q' in [field]"),
    ("1/2", "1/2\n[field]\nq = 5", 21, "repeated section [field]"),
    ("q = 23", "", 3, "[field] has no q"),
], ids=["p", "pint", "option", "q-twice", "field-twice", "no-q"])
def test_wf_compute_refuses_keys_it_does_not_read(old, new, line, message,
                                                  tmp_path, capsys):
    # a misspelt key is not dropped: `pint` for `point` would run from
    # the origin and print [6] instead of [5, 1], and `p` for `q` would
    # run at a q the file does not state
    path = tmp_path / "bad.ini"
    path.write_text((INPUTS / "toral.ini").read_text().replace(old, new))
    code, out, err = run(["wf", "compute", "--input", str(path)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "message": "line %d: %s" % (line, message), "line": line}


SL3_CHAIN_WITH_U6_SEED = """\
[field]
q = 23

[group]
model = sl3

[gamma.1]
depth = 0
row = 1, 0, 0
row = 0, 2, 0
row = 0, 0, -3

[gamma.2]
depth = -1
row = t^-1, 0, 0
row = 0, -t^-1, 0
row = 0, 0, 0

[options]
seed-datum = u6
"""


TORAL = (INPUTS / "toral.ini").read_text()
U6_CHAIN = (INPUTS / "u6_chain.ini").read_text()


@pytest.mark.parametrize("base, old, new, line, message", [
    (TORAL, "model = u6", "", 6, "missing model in [group]"),
    (TORAL, "depth = 0", "", 10, "section [gamma.1] missing depth"),
    (TORAL, "row = 0, 0, 0, 0, 0, 6*s", "", 10,
     "section [gamma.1]: expected 6 matrix rows, got 5"),
    (TORAL, "q = 23", "q = 4", 4, "p = 4 is not an odd prime"),
    (TORAL, "point = 0, 0, 0, 0, 0, 1/2", "seed-datum = u7", 20,
     "unknown seed-datum 'u7'"),
    (TORAL, "point = 0, 0, 0, 0, 0, 1/2", "point = 0, 1", 20,
     "point must have 6 coordinates"),
    (TORAL, "override-char-bound = true", "override-char-bound = ture", 8,
     "override-char-bound must be 1/0, true/false or yes/no, not 'ture'"),
    (TORAL, "override-char-bound = true", "", 7,
     "residue characteristic 23 violates the bound p > 35 (absolute rank "
     "6); pass override to proceed"),
    (TORAL, "depth = 0", "depth = 1", 11,
     "piece 'gamma.1' is not good at depth 1"),
    (SL3_CHAIN_WITH_U6_SEED, "", "", 20,
     "seed-datum u6 lives in the u6 model, not in model 'sl3'"),
    (U6_CHAIN, "depth = -1", "depth = 0", 21,
     "section [gamma.2] has the depth 0 of [gamma.1]: a chain has one "
     "piece per depth"),
    (U6_CHAIN, "q = 23", "q = 29", 30,
     "seed-datum u6 exists at q = 23 only, not at q = 29"),
    (U6_CHAIN, "q = 23", "q = 41", 30,
     "seed-datum u6 exists at q = 23 only, not at q = 41"),
], ids=["no-model", "no-depth", "five-rows", "q4", "seed-u7", "point-2",
        "ture", "char-bound", "not-good", "seed-u6-sl3", "same-depth",
        "seed-u6-q29", "seed-u6-q41"])
def test_wf_compute_input_errors_name_their_line(base, old, new, line,
                                                 message, tmp_path, capsys):
    # a missing key is charged to its section header; `ture` used to
    # read as false and fail later on the characteristic bound.  The
    # rank bound is charged to the model line, a piece that is not good
    # to its depth line, and a seed datum in the wrong model or at a q
    # where it does not exist to its line.  Two pieces at one depth used
    # to end in an AssertionError traceback, and the u6 seed datum at
    # q = 29 or 41 in a TypeError
    path = tmp_path / "bad.ini"
    path.write_text(base.replace(old, new))
    code, out, err = run(["wf", "compute", "--input", str(path)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "message": "line %d: %s" % (line, message), "line": line}


def test_wf_compute_refuses_a_precision_term(tmp_path, capsys):
    # an O(...) term names no exact scalar; it used to end in a
    # PrecisionError traceback and exit 1
    path = tmp_path / "prec.ini"
    path.write_text((INPUTS / "toral.ini").read_text().replace(
        "row = 1*s,", "row = 1*s + O(t^0),"))
    code, out, err = run(["wf", "compute", "--input", str(path)], capsys)
    assert code == 2 and out == ""
    rec = json.loads(err)["error"]
    assert (rec["line"], rec["column"]) == (12, 1)
    assert rec["message"].startswith(
        "line 12, column 1: cannot parse scalar '1*s + O(t^0)'")
    assert "only exact scalars" in rec["message"]


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


def test_wf_compute_point_beside_seed_datum_is_refused(tmp_path, capsys):
    # the seed datum fixes its own base points, so a point option there
    # would be read by nothing
    path = tmp_path / "u6p.ini"
    path.write_text((INPUTS / "u6_chain.ini").read_text()
                    + "point = 7, 7, 7, 7, 7, 7, 7\n")
    code, out, err = run(["wf", "compute", "--input", str(path)], capsys)
    assert code == 2 and out == ""
    line = len(path.read_text().splitlines())
    assert json.loads(err)["error"] == {
        "message": "line %d: point is not read when seed-datum is set; "
                   "the seed datum fixes its own base points" % line,
        "line": line}


def test_wf_compute_u6_seed_needs_a_u6_model(tmp_path, capsys):
    # the u6 seed's entries live in the rank-6 unitary model; on sl3
    # they used to die on an internal assert
    path = tmp_path / "sl3.ini"
    path.write_text(SL3_CHAIN_WITH_U6_SEED)
    code, out, err = run(["wf", "compute", "--input", str(path)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "message": "line 20: seed-datum u6 lives in the u6 model, not in "
                   "model 'sl3'", "line": 20}


U6_DEPTH_MINUS_2 = "[gamma.3]\ndepth = -2\n" + "".join(
    "row = %s\n" % ", ".join("(%d*s)*t^-2" % (i + 7) if j == i else "0"
                             for j in range(6))
    for i in range(6)) + "\n"


def test_wf_compute_piece_below_the_seed_depth(tmp_path, capsys):
    # the u6 seed sits at depth -1; a piece at -2 needs a level transfer
    path = tmp_path / "deep.ini"
    path.write_text(U6_CHAIN.replace("[options]",
                                     U6_DEPTH_MINUS_2 + "[options]"))
    code, out, err = run(["wf", "compute", "--input", str(path)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"] == (
        "piece 'gamma.3' at depth -2 lies below the seed depth -1: the "
        "level transfer needs explicit facet data")


def test_wf_compute_no_piece_at_the_seed_depth(tmp_path, capsys):
    # only the depth-0 piece: nothing meets the u6 seed at depth -1
    path = tmp_path / "shallow.ini"
    path.write_text(U6_CHAIN.split("[gamma.2]")[0] + "[options]" +
                    U6_CHAIN.split("[options]")[1])
    code, out, err = run(["wf", "compute", "--input", str(path)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"] == \
        "no piece at the seed depth -1: piece 'gamma.1' at depth 0"


def test_wf_example_u6(capsys):
    code, text, _ = run(["wf", "example", "u6"], capsys)
    assert code == 0
    assert "[4,1,1]" in text and "[3,3]" in text
    assert "dominated" in text  # the alcove contribution


@pytest.mark.parametrize("name", sorted(cli.EXAMPLES))
def test_wf_example_runs_its_shipped_input(name, capsys):
    # one route per example: `wf example` and `wf compute` on the same
    # file print the same labels and provenance under their own titles
    title, filename = cli.EXAMPLES[name]
    _, example, _ = run(["wf", "example", name], capsys)
    _, computed, _ = run(["wf", "compute", "--input",
                          str(INPUTS / filename)], capsys)
    example, computed = example.splitlines(), computed.splitlines()
    assert example[0] == title + " (exact)"
    assert computed[0] == "computed chain (exact)"
    assert len(example) > 1 and example[1:] == computed[1:]


@pytest.mark.parametrize("name", sorted(cli.EXAMPLES))
def test_inputs_link_the_shipped_examples(name):
    filename = cli.EXAMPLES[name][1]
    shipped = resources.files("padicwf").joinpath("examples", filename)
    assert (INPUTS / filename).is_symlink()
    assert (INPUTS / filename).read_bytes() == shipped.read_bytes()


def test_second_wf_example_parses_no_input(monkeypatch, capsys):
    run(["wf", "example", "u6"], capsys)
    calls, parse = [], cli.parse_input
    monkeypatch.setattr(cli, "parse_input", lambda *args, **kw: (
        calls.append(args) or parse(*args, **kw)))
    code, text, _ = run(["wf", "example", "u6"], capsys)
    assert code == 0 and "[4,1,1]" in text and calls == []


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
    code, _, err = run(["facets", "--model", "u7",
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


@pytest.mark.parametrize("argv, message", [
    (["facets", "--rmin", "1/0"], "--rmin: Fraction(1, 0)"),
    (["facets", "--window", "0,1/0"], "--window: Fraction(1, 0)"),
    (["graph", "trace", "--to-depth", "1/0"], "--to-depth: Fraction(1, 0)"),
    (["facets", "--window", "0"], "--window: expected lo,hi, got '0'"),
    (["facets", "--window", "0,1,2"],
     "--window: expected lo,hi, got '0,1,2'"),
    # usage errors, found by argparse
    (["lab", "curve", "--coeff", "5"],
     "argument --coeff: invalid choice: 5 (choose from 3, 1, 'all')"),
    (["lab", "spr", "--n", "4"],
     "argument --n: invalid choice: 4 (choose from 2, 3)"),
    (["lab", "curve", "--q", "x"], "argument --q: invalid int value: 'x'"),
    # options that would change nothing: the arrangement reads no
    # residue field, and gl_2's twelve instances are listed, not drawn
    (["facets", "--q", "5"], "unrecognized arguments: --q 5"),
    (["lab", "spr", "--n", "2", "--samples", "7"],
     "--samples applies to --n 3 only"),
    (["lab", "spr", "--n", "2", "--seed", "99"],
     "--seed applies to --n 3 only"),
])
def test_zero_denominator_option_is_a_json_error(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": {"message": message}}


@pytest.mark.parametrize("argv, work", [
    (["facets", "--window", "0,1/4", "--rmin", "0", "--rmax", "1/4",
      "--out", "MISSING"], "padicwf.building.Arrangement"),
    (["lab", "curve", "--q", "113", "--out", "MISSING"],
     "padicwf.springerlab.curve_counts"),
    # an --out that names an existing directory
    (["facets", "--window", "0,1/4", "--rmin", "0", "--rmax", "1/4",
      "--out", "DIR"], "padicwf.building.Arrangement"),
    (["wf", "example", "toral", "--out", "DIR"],
     "padicwf.wavefront.compute_wf"),
])
def test_out_in_a_missing_directory_is_refused_before_any_work(
        argv, work, tmp_path, monkeypatch, capsys):
    def unreached(*args):
        raise AssertionError("%s ran before --out was checked" % work)

    monkeypatch.setattr(work, unreached)
    missing = tmp_path / "missing"
    if argv[-1] == "MISSING":
        path = missing / "x.json"
        message = "--out: no directory %s" % missing
    else:
        path = tmp_path
        message = "--out: %s is a directory" % tmp_path
    code, out, err = run(argv[:-1] + [str(path)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": {"message": message}}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, text", [
    (["--version"], cli.VERSION + "\n"),
    (["lab", "curve", "--help"], "usage: padicwf lab curve"),
])
def test_help_and_version_exit_zero(argv, text, capsys):
    # only usage errors become JSON records
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith(text)


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


def test_graph_reach_u7h(tmp_path, capsys):
    # the u7h backward closure is finite: reach runs it to the end
    out = tmp_path / "reach.json"
    code, text, _ = run(["graph", "reach", "--scenario", "u7h",
                         "--out", str(out)], capsys)
    assert code == 0
    assert "reachable set: scenario=u7h, 1248 vertices" in text
    assert json.loads(out.read_text())["result"] == {"vertices": 1248}


@pytest.mark.parametrize("scenario, count", [("sl2", 4), ("u7h", 454)])
def test_graph_reach_at_the_start_depth(scenario, count, capsys):
    # a target depth the start already meets: the trace takes no edge,
    # so the reach runs from the start vertex
    from padicwf import graph as gr
    code, text, _ = run(["graph", "reach", "--scenario", scenario,
                         "--to-depth", "0"], capsys)
    assert code == 0
    assert "scenario=%s, %d vertices" % (scenario, count) in text
    assert len(gr.reachable(cli._scenario_vertex(scenario)[0])) == count


# -- lab -----------------------------------------------------------------


def test_lab_curve_golden(capsys):
    code, text, _ = run(["lab", "curve", "--coeff", "3", "--q", "23"],
                        capsys)
    assert code == 0
    assert "-> 0" in text
    code, text, _ = run(["lab", "curve", "--coeff", "1", "--q", "23"],
                        capsys)
    assert "-> 16" in text


@pytest.mark.parametrize("argv, message", [
    (["--q", "4"], "p = 4 is not an odd prime"),
    (["--q", "2"], "p = 2 is not an odd prime"),
    (["--deg", "0"], "extension degree 0 not supported (1, 2 or 3)"),
    (["--deg", "4"], "extension degree 4 not supported (1, 2 or 3)"),
    # the quadric over F_529 has 529^3 + 529^2 + 529 + 1 prefixes
    (["--q", "23", "--deg", "2"],
     "enumeration too large (148316260 points)"),
])
def test_lab_curve_out_of_reach(argv, message, capsys):
    code, out, err = run(["lab", "curve"] + argv, capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"] == message


@pytest.mark.parametrize("argv", [
    ["lab", "spr", "--n", "2", "--q", "4"],
    ["lab", "spr", "--n", "3", "--q", "4"],
    ["wf", "compute", "--input", "q4.ini"],
])
def test_q_not_an_odd_prime(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q4.ini").write_text(
        (INPUTS / "toral.ini").read_text().replace("q = 23", "q = 4", 1))
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    want = {"message": "p = 4 is not an odd prime"}
    if argv[0] == "wf":  # an input file's q is refused on its line
        want = {"message": "line 4: " + want["message"], "line": 4}
    assert json.loads(err) == {"error": want}


def test_lab_spr_group_too_large(capsys):
    # refused before any field table or matrix enumeration is built:
    # gl_2(F_1009) has 1009^4 matrices, 7.5 TiB as one int64 table
    code, out, err = run(["lab", "spr", "--n", "2", "--q", "1009"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"] == \
        "group too large (1036488922561 matrices)"


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_lab_spr_needs_a_sample(samples, capsys):
    # no instance checked is no evidence: refused instead of passing
    code, out, err = run(["lab", "spr", "--n", "3", "--samples", samples],
                         capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"] == \
        "--samples: expected at least 1, got %s" % samples


def test_lab_spr_exhaustive_gl2(capsys):
    code, text, _ = run(["lab", "spr", "--n", "2", "--q", "3"], capsys)
    assert code == 0
    assert "0 failures" in text


def test_wf_example_u6_bound_mode(tmp_path, capsys):
    out = tmp_path / "b.json"
    code, text, _ = run(["wf", "example", "u6", "--mode", "bound",
                         "--out", str(out)], capsys)
    assert code == 0
    assert "[4,1,1]" in text and "[3,3]" in text
    data = json.loads(out.read_text())
    assert data["manifest"]["mode"] == "bound"
    assert data["result"]["runs"][0]["notes"]


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


def _curve_spec_data(**changes):
    from padicwf import springerlab as sl
    spec = sl.curve_spec(1, 3)
    data = {"gram": spec.gram, "X": spec.X,
            "pattern": ["".join(r) for r in spec.pattern], "p": 3}
    data.update(changes)
    return {k: v for k, v in data.items() if v is not None}


# 2 * antidiag is a non-square multiple of the split form at p = 3
TWICE_SPLIT = [[2 if i + j == 4 else 0 for j in range(5)] for i in range(5)]


def _skewed(cell):
    # the split form with a 1 at one cell off the antidiagonal, and not
    # at its mirror
    return [[int(i + j == 4 or (i, j) == cell) for j in range(5)]
            for i in range(5)]


@pytest.mark.parametrize("changes, message", [
    ({"pattern": ["?????"] * 5}, "pattern entries must be '*', '0' or '!'"),
    ({"pattern": ["****"] * 4}, "pattern must be 5x5"),
    ({"X": None}, "spec is missing X"),
    ({"p": "3"}, "p must be an integer"),
    ({"gram": TWICE_SPLIT},
     "middle vector has norm 2, not a nonzero square in F_3"),
    ({"degrees": 2}, "degrees must be a non-empty list of integers"),
    ({"degrees": []}, "degrees must be a non-empty list of integers"),
    ({"degrees": [True]}, "degrees must be a non-empty list of integers"),
    ({"degrees": ["1"]}, "degrees must be a non-empty list of integers"),
    ({"gram": 5}, "gram must be a list of rows"),
    ({"X": [1, 2, 3, 4, 5]}, "X must be a list of rows"),
    ({"pattern": "*****"}, "pattern must be a list of rows"),
    ({"gram": [[None] * 5] * 5}, "gram and X entries must be integers"),
    ({"p": True}, "p must be an integer"),
    ({"degrees": [1, 1]}, "degrees must not repeat a degree"),
    ({"degrees": [2, 1, 2]}, "degrees must not repeat a degree"),
    ({"gram": _skewed((0, 3))}, "gram must be symmetric"),
    ({"gram": _skewed((0, 1))}, "gram must be symmetric"),
    # a misspelt key is not dropped: `degree` would count F_3, not F_9
    ({"degree": [2]}, "unknown spec key 'degree'"),
])
def test_lab_count_rejects_malformed_spec(changes, message, tmp_path,
                                          capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_curve_spec_data(**changes)))
    code, out, err = run(["lab", "count", "--spec", str(path)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"] == message


def test_lab_count_non_split_gram_over_square_extension(tmp_path, capsys):
    # 2 is a square in F_9, so the same form counts there
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_curve_spec_data(gram=TWICE_SPLIT,
                                                degrees=[2])))
    code, text, _ = run(["lab", "count", "--spec", str(path)], capsys)
    assert code == 0
    assert "degree 2 (q = 9): 8 points" in text


def test_lab_count_curve_spec_at_p19(tmp_path, capsys):
    # a field past 16 elements: the batched elimination once formed
    # its table indices in uint8 and failed here with an IndexError
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_curve_spec_data(p=19)))
    code, text, err = run(["lab", "count", "--spec", str(path)], capsys)
    assert (code, err) == (0, "")
    assert text == "degree 1 (q = 19): 20 points\n"


def test_lab_count_degenerate_gram(tmp_path, capsys):
    # rank-3 gram: no vector pairs with v0 under the form
    gram = [[0, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0],
            [0, 1, 0, 0, 0], [0, 0, 0, 0, 0]]
    pattern = ["**!**", "*****", "****0", "*****", "***0*"]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_curve_spec_data(gram=gram, pattern=pattern,
                                                degrees=[1])))
    code, out, err = run(["lab", "count", "--spec", str(path)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"].startswith("degenerate gram")


# -- oracle and plumbing -------------------------------------------------


def test_oracle_all(capsys):
    code, text, _ = run(["oracle", "all"], capsys)
    assert code == 0
    assert "7/7 passed" in text


def _child_env():
    # the child finds the package the way this process did, also from a
    # checkout that is not installed
    src = str(Path(padicwf.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path
                                              else ""))


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "padicwf.cli", "lab", "curve",
         "--coeff", "3", "--q", "23"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "-> 0" in proc.stdout


def test_cli_import_leaves_numpy_unloaded():
    # numpy is imported on first use; loading it with the command line
    # doubles the start-up time of every command
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, padicwf.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_springerlab_unloaded():
    # the finite-field lab is imported by the commands that use it; the
    # lab, the oracle and the u7 example still find it there
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, padicwf.cli; print('padicwf.springerlab' in "
         "sys.modules, 'numpy' in sys.modules)"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.split() == ["False", "False"]
    for argv in (["oracle", "all"], ["wf", "example", "u7"]):
        proc = subprocess.run([sys.executable, "-m", "padicwf.cli"] + argv,
                              capture_output=True, text=True,
                              env=_child_env())
        assert proc.returncode == 0, proc.stderr


def test_descent_commands_leave_numpy_unloaded():
    # the descent path runs on ffield objects and integer codes only;
    # numpy would add its import time and about 15 MB of memory to every
    # trace and wave-front query.  graph reach runs Jacobson-Morozov
    # over ext_field(p, 1) on every walk
    code = ("import contextlib, io, sys\n"
            "from padicwf import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['graph', 'trace', '--scenario', 'u7h']) "
            "== 0\n"
            "    assert cli.main(['wf', 'example', 'u6']) == 0\n"
            "    assert cli.main(['graph', 'reach', '--scenario', 'sl2']) "
            "== 0\n"
            "    assert cli.main(['facets']) == 0\n"
            "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_inert_options_are_gone(tmp_path, capsys):
    # no computation reads a thread count, a denominator bound or a
    # precision, so none is an option or a manifest key; only lab spr
    # draws random samples, so only it takes a seed
    for argv in (["--threads", "2"], ["--precision", "5"],
                 ["--seed", "5"]):
        code, out, err = run(["wf", "example", "toral"] + argv, capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["message"] == \
            "unrecognized arguments: %s" % " ".join(argv)
    # only the u6 example and wf compute read the mode
    for name in ("u7", "toral"):
        code, out, err = run(["wf", "example", name, "--mode", "bound"],
                             capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["message"] == \
            "--mode applies to the u6 example only"
    out = tmp_path / "r.json"
    code, _, _ = run(["wf", "example", "toral", "--out", str(out)], capsys)
    assert code == 0
    mani = json.loads(out.read_text())["manifest"]
    assert not {"threads", "denom_bound", "precision"} & set(mani)


def test_options_do_not_carry_over_between_calls(tmp_path, capsys):
    # the parser is built once per process; each call parses afresh
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    spr = ["lab", "spr", "--n", "3", "--samples", "10"]
    assert run(spr + ["--seed", "5", "--out", str(first)], capsys)[0] == 0
    assert run(spr + ["--out", str(second)], capsys)[0] == 0
    assert json.loads(first.read_text())["manifest"]["seed"] == 5
    assert json.loads(second.read_text())["manifest"]["seed"] == 0


def _manifest(argv, path, capsys):
    assert run(argv + ["--out", str(path)], capsys)[0] == 0
    return json.loads(path.read_text())["manifest"]


@pytest.mark.parametrize("argv, flag, values", [
    (["facets", "--model", "sl2", "--window", "0,1"], "--rmax", ("1", "2")),
    (["lab", "curve", "--coeff", "1", "--q", "5"], "--deg", ("1", "2")),
])
def test_manifest_records_every_parsed_argument(argv, flag, values,
                                                tmp_path, capsys):
    # 49 facets against 71, and 0 points against 8: the two runs of
    # each pair differ in their results, so they must in their manifests
    first, second = (_manifest(argv + [flag, v], tmp_path / (v + ".json"),
                               capsys) for v in values)
    assert first != second
    key = flag[2:]
    assert (str(first[key]), str(second[key])) == values


def test_manifest_leaves_out_paths_and_unparsed_keys(tmp_path, capsys):
    mani = _manifest(["facets", "--model", "sl2", "--window", "0,1"],
                     tmp_path / "f.json", capsys)
    assert mani["rmin"] == "-1" and mani["rmax"] == "2"
    assert not {"seed", "variant", "out"} & set(mani)
    mani = _manifest(["wf", "compute", "--input",
                      str(INPUTS / "toral.ini")], tmp_path / "w.json", capsys)
    assert "input" not in mani and len(mani["input_hash"]) == 64
