"""Tests of the benchmark itself: generator, oracle and self-time sums.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import stream  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _normalized(deck, work):
    return json.dumps(deck, sort_keys=True).replace(str(work), "<work>")


def test_generator_is_deterministic_per_seed(tmp_path):
    for name in workloads.WORKLOAD_NAMES:
        decks = []
        for run_dir in ("a", "b", "c"):
            work = tmp_path / name / run_dir
            work.mkdir(parents=True)
            seed = 7 if run_dir != "c" else 8
            deck = workloads.generate(name, seed, work)
            files = {p.name: p.read_text() for p in work.iterdir()}
            decks.append((_normalized(deck, work), files))
        assert decks[0] == decks[1], name
        assert decks[0][0] != decks[2][0], name


def test_generator_records_query_properties(tmp_path):
    deck = workloads.generate("arrangement", 3, tmp_path)
    facets = [q for blk in deck["blocks"] for q in blk
              if q["kind"] == "facets"]
    for q in facets:
        props = q["props"]
        assert props["model"] == "sl2" and props["p"] == 3
        assert 2 <= props["planes"] <= 10
        assert props["census"] == q["expect"]["facets"]
        assert isinstance(props["repeat"], bool)
    assert 0 <= deck["repeat_share"] < 1


def test_census_matches_the_full_window_count():
    # 71 facets on x in [0, 1], r in [-1, 2], as the CLI tests state
    w = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2))
    assert len(workloads.sl2_planes(*w)) == 16
    assert workloads.sl2_census(*w) == 71


class _DropOneFacet:
    """A cli stand-in that answers, then corrupts the facet table."""

    def __init__(self, cli):
        self.cli = cli

    def main(self, argv):
        code = self.cli.main(argv)
        path = argv[argv.index("--out") + 1]
        data = json.loads(Path(path).read_text())
        data["result"]["facets"].pop()
        Path(path).write_text(json.dumps(data))
        return code


def test_oracle_fails_a_corrupted_answer(tmp_path):
    b = workloads.QueryMaker(tmp_path, workloads.expected_tables())
    query = b.facets((Fraction(0), Fraction(1, 4), Fraction(0),
                      Fraction(1, 2)))
    deck = {"blocks": [[query]], "warmup": []}
    runner = stream.Runner(deck, str(tmp_path / "answer.json"))
    good = runner.run_query(0, query)
    assert good["error"] is None
    runner.cli = _DropOneFacet(runner.cli)
    bad = runner.run_query(1, query)
    assert "facets" in bad["error"]
    summary = {"queries": [good, bad]}
    assert len(run._failures(summary)) == 1


def test_oracle_checks_agreement_within_a_pattern():
    oracle = workloads.Oracle()
    query = {"kind": "wf-compute",
             "expect": {"agree": "abcabc", "labels": [[3, 2, 1]]}}
    assert oracle.check(query, 0, {"labels": [[3, 2, 1]]}) is None
    assert oracle.check(query, 0, {"labels": [[4, 2]]}) is not None
    assert oracle.check(query, 2, None) == "exit status 2"


def test_self_times_on_a_hand_built_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 9]
    spans = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0),
             ("c", 2.0, 3.0, 1, 0), ("b", 5.0, 9.0, 0, 0),
             ("a", 12.0, 13.0, -1, 1)]
    stats = tracing.self_times(spans)
    assert stats["a"]["self_s"] == 3.0 + 1.0
    assert stats["b"]["self_s"] == 2.0 + 4.0
    assert stats["c"]["self_s"] == 1.0
    assert stats["b"]["calls"] == 2
    assert stats["a"]["by_query"] == {0: [1, 3.0], 1: [1, 1.0]}


def test_coverage_leaves_out_the_cli_entry_points():
    # cli.main [0, 10] > cli.cmd_x [1, 9] > m.f [2, 5] > m.g [3, 4];
    # only m.f's span counts, the entry points' own 4 s do not
    spans = [("cli.main", 0.0, 10.0, -1, 0), ("cli.cmd_x", 1.0, 9.0, 0, 0),
             ("m.f", 2.0, 5.0, 1, 0), ("m.g", 3.0, 4.0, 2, 0)]
    assert tracing.coverage(spans, 12.0) == 3.0 / 12.0
    assert tracing.coverage(spans[:2], 12.0) == 0.0


def test_tracer_records_parents_and_queries(tmp_path):
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("m.inner", lambda x: x + 1)
    outer = tracer.wrap("m.outer", lambda x: inner(x) * 2)
    tracer.current_query = 4
    assert outer(1) == 4
    path = tmp_path / "spans"
    tracer.dump(path)
    spans = tracing.load_spans(path)
    assert [(n, p, q) for n, _, _, p, q in spans] == [
        ("m.outer", -1, 4), ("m.inner", 0, 4)]
    stats = tracing.self_times(spans)
    assert stats["m.outer"]["self_s"] == 2.0
    assert stats["m.inner"]["self_s"] == 1.0


def test_runs_report_every_declared_metric(tmp_path):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    spans = tmp_path / "spans"
    spans.write_text("")
    query = {"qid": 0, "block": 0, "latency_s": 0.5, "probe_s": 0.005}
    summary = {"queries": [query] * 100,
               "wall_s": 50.0, "counts": {}, "peak_rss_mb": 30.0}
    layer, _ = run.per_layer(summary, summary, spans)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (name, m["unit"]) for name, m in layer.items()]
    e2e = run.end_to_end(summary, 0.2)
    assert sorted((m["name"], m["unit"]) for m in declared["end_to_end"]) \
        == sorted((name, m["unit"]) for name, m in e2e.items())
    assert [w["name"] for w in declared["workloads"]] == list(
        workloads.WORKLOAD_NAMES)
