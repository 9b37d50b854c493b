"""Result files and facet tables against their references.

`cli.write_result` writes records through `cli._json`, which must give
the bytes of json.dumps(indent=2, sort_keys=True) on every value a
record holds, and refuse any other value with TypeError.  `facets`
reads each face's row off its integer vertices; on every window of
perfbench/windows.json its table and record must equal the Fraction
renderer it replaced, kept below as the reference."""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicwf import building as bd
from padicwf import cli

ROOT = Path(__file__).resolve().parent.parent


def reference_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def written(obj):
    out = []
    cli._json(obj, "", out)
    return "".join(out)


# -- the writer --------------------------------------------------------------

scalars = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=-2 ** 80, max_value=2 ** 80)
           | st.text())
records = st.recursive(
    scalars,
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(records)
@example({})
@example([])
@example({"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {"g": []}}})
@example([True, 0, False, 1, None, -1])
@example({"t": True, "one": 1, "f": False, "zero": 0})
@example({"é \x00\x1f\"\\": "café \U0001f600 \t\n\x7f"})
@example([2 ** 64, -2 ** 64 - 1, 2 ** 200, -(2 ** 63)])
@example(list(range(-700, 700)))
@example({"signs": [1, -1, 0] * 100, "depth": "-3/4", "dim": 2})
def test_writer_matches_json_dumps(obj):
    assert written(obj) == reference_text(obj)


@pytest.mark.parametrize("obj", [
    Fraction(1, 2),
    {"depth": Fraction(1, 2)},
    [1, Fraction(1, 2)],
    [[0, 1], {"x": Fraction(3)}],
])
def test_writer_refuses_a_fraction_as_json_does(obj):
    with pytest.raises(TypeError):
        reference_text(obj)
    with pytest.raises(TypeError):
        written(obj)


@pytest.mark.parametrize("obj", [
    (1, 2), {"a": (1,)}, 0.5, [1.0], b"x", {1: "a"}, {"a": 1, 2: "b"},
])
def test_writer_refuses_values_a_record_never_holds(obj):
    with pytest.raises(TypeError):
        written(obj)


def test_result_file_is_the_json_dumps_text(tmp_path):
    path = tmp_path / "r.json"
    mani = {"cmd": "x", "seed": None, "flag": False, "n": 3}
    result = {"counts": {"1": 16, "3": 0}, "zeros": [], "note": "é"}
    cli.write_result(str(path), mani, result)
    assert path.read_text() == reference_text(
        {"manifest": mani, "result": result}) + "\n"


# -- facet tables ------------------------------------------------------------


def reference_facets(argv):
    """Standard output and record text of `facets` as the Fraction
    renderer wrote them: depth, kind and centre as Fractions of each
    face, the centre the mean of its Fraction vertices, sorted by
    (depth, -dim, signs), and the record through json.dumps."""
    args = cli.build_parser().parse_args(["facets"] + argv)
    model = cli.MODELS[args.model](3)
    window = cli._parse_window(args, model)
    faces = sorted(bd.Arrangement(model, window).faces,
                   key=lambda f: (f.depth(), -f.dim(), f.signs))
    lines = ["facet table: model=%s window=%s r in [%s, %s]"
             % (args.model, [tuple(map(str, s)) for s in window.xranges],
                window.rmin, window.rmax),
             "%-6s %-5s %-12s %s" % ("depth", "dim", "kind", "center")]
    for f in faces:
        verts = f.vertices()
        c = [sum(col, Fraction(0)) / len(verts) for col in zip(*verts)]
        kind = "horizontal" if f.is_horizontal() else "sloped"
        lines.append("%-6s %-5s %-12s x=%s r=%s"
                     % (f.depth(), f.dim(), kind,
                        tuple(str(xi) for xi in c[:-1]), c[-1]))
    lines.append("total: %d facets" % len(faces))
    rec = [{"depth": str(f.depth()), "dim": f.dim(),
            "horizontal": f.is_horizontal(), "signs": list(f.signs)}
           for f in faces]
    record = reference_text({"manifest": cli.manifest(args),
                             "result": {"facets": rec}}) + "\n"
    return "\n".join(lines) + "\n", record


def perfbench_windows():
    data = json.loads((ROOT / "perfbench" / "windows.json").read_text())
    return [w.split() for t in data["tiers"] for w in t["windows"]]


def test_facet_tables_match_the_fraction_renderer(tmp_path):
    windows = perfbench_windows()
    assert len(windows) == 366
    out = tmp_path / "facets.json"
    for x0, x1, r0, r1 in windows:
        argv = ["--model", "sl2", "--window", "%s,%s" % (x0, x1),
                "--rmin=" + r0, "--rmax=" + r1]
        text = io.StringIO()
        with redirect_stdout(text):
            assert cli.main(["facets"] + argv + ["--out", str(out)]) == 0
        assert (text.getvalue(), out.read_text()) == \
            reference_facets(argv), argv


@pytest.mark.parametrize("argv", [
    [],
    ["--model", "sl3", "--window", "0,1:0,1", "--rmin", "-1", "--rmax", "1"],
    ["--model", "sl3", "--window=-1/3,1/2:1/5,1", "--rmin=-1/2",
     "--rmax=1/3"],
], ids=["sl2_full", "sl3_unit", "sl3_skew"])
def test_facet_tables_match_the_fraction_renderer_beyond_sl2(argv, tmp_path):
    out = tmp_path / "facets.json"
    text = io.StringIO()
    with redirect_stdout(text):
        assert cli.main(["facets"] + argv + ["--out", str(out)]) == 0
    assert (text.getvalue(), out.read_text()) == reference_facets(argv)
