"""Repeated commands in one interpreter.  The lab keeps the structures
that depend only on the field, the form or (n, p) for the rest of the
process, and `oracle all` and the benchmark drive `cli.main` many times
in one interpreter: a second run of a command must print the same
output and write the same result record, byte for byte, as the first."""

import json

import pytest

from padicwf import cli
from padicwf import springerlab as sl


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
])
def test_second_run_matches_the_first(argv, tmp_path, capsys):
    argv = [_curve_spec_file(tmp_path / "spec.json") if a == "SPEC" else a
            for a in argv]
    runs = []
    for k in range(2):
        out = tmp_path / ("run%d.json" % k)
        assert cli.main(argv + ["--out", str(out)]) == 0
        runs.append((capsys.readouterr().out, out.read_bytes()))
    assert runs[0][0]
    assert runs[1] == runs[0]
