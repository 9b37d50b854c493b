"""The padicwf benchmark: seeded closed-loop query streams, checked answers.

    python3 perfbench/run.py --workload descent|arrangement|flags \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark and every process it starts
run on one CPU, the highest-numbered one it may use: on a shared 2-CPU
machine a fixed loop ran faster and steadier pinned than when the
scheduler moved it between CPUs.  Every time it reports is scaled to a
reference machine speed by a calibration loop timed before and during
every query and after every import (see `calibration`); the report
also prints the raw times.  With ``--trace 0`` it measures,
in fresh interpreters with BLAS/OpenMP pools pinned to one thread:
  setup_s        median time of 11 fresh imports of padicwf.cli;
  queries_per_s  queries answered per second of query time, after a
                 warm-up pass: the median over the run's blocks, which
                 all have the same composition;
  latency_p50_s  median query latency;
  latency_p90_s  90th percentile (every run has at least 100 queries);
  peak_rss_mb    peak resident memory of the stream's process.
The share of failed queries (non-zero exit, exception or wrong answer)
is printed with them and carried by ``attempted`` and ``failed``.

With ``--trace 1`` it runs the trace blocks twice, each in a fresh
process after the same warm-up: untraced, then with every public
function of the program wrapped from outside, and reports per-layer self
time and counts, the share of time the wrapped functions below the CLI's
entry points account for (``trace.coverage``), and the untraced pass's
throughput and median latency, scaled and raw side by side, with the
machine speed the scaling used.  The last line of stdout is one JSON
object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from calibration import REFERENCE_PROBE_S  # noqa: E402

SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 170
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1", "PYTHONHASHSEED": "0"}
REQUIRED = ("src/padicwf/cli.py", "tests/goldens.py", "inputs/u6_chain.ini")

# Times the import, then the calibration loop in the same interpreter.
IMPORT_PROBE = ("import sys, time; sys.path[:0] = [%r, %r]; "
                "t = time.perf_counter(); import padicwf.cli; "
                "t = time.perf_counter() - t; import calibration; "
                "print(t, calibration.host_probe())")


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup():
    """Median import time of padicwf.cli over fresh interpreters, raw and
    scaled; the first import, which may compile bytecode, is discarded."""
    code = IMPORT_PROBE % (str(ROOT / "src"), str(HERE))
    raw, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", code], env=_env(),
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=60)
        if out.returncode:
            raise BenchError("import of padicwf.cli failed: "
                             + out.stderr.strip()[-300:])
        if i:
            seconds, speed = (float(v) for v in out.stdout.split())
            raw.append(seconds)
            scaled.append(seconds * REFERENCE_PROBE_S / speed)
    return statistics.median(raw), statistics.median(scaled)


def run_stream(deck_path, mode, seconds, work):
    out = work / ("%s.json" % mode)
    proc = subprocess.run(
        [sys.executable, str(HERE / "stream.py"), "--deck", str(deck_path),
         "--mode", mode, "--seconds", str(seconds), "--out", str(out)],
        env=_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode:
        raise BenchError("%s stream failed: %s"
                         % (mode, proc.stderr.strip()[-500:]))
    return json.loads(out.read_text()), out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def scale(query):
    """Factor from a query's raw seconds to reference seconds."""
    return REFERENCE_PROBE_S / query["probe_s"]


def latencies(summary, scaled=True):
    return [q["latency_s"] * (scale(q) if scaled else 1.0)
            for q in summary["queries"]]


def queries_per_s(summary, lat):
    """Median over the run's blocks of queries per second of query time."""
    per_block = {}
    for q, t in zip(summary["queries"], lat):
        per_block.setdefault(q["block"], []).append(t)
    return statistics.median(len(b) / sum(b) for b in per_block.values())


def end_to_end(summary, setup_s):
    lat = latencies(summary)
    if len(lat) < 100:
        raise BenchError("only %d queries; the 90th percentile needs 100"
                         % len(lat))
    return {
        "setup_s": _metric(setup_s, "s"),
        "queries_per_s": _metric(queries_per_s(summary, lat), "1/s"),
        "latency_p50_s": _metric(statistics.median(lat), "s"),
        "latency_p90_s": _metric(statistics.quantiles(lat, n=10)[8], "s"),
        "peak_rss_mb": _metric(summary["peak_rss_mb"], "MB"),
    }


# (metric, unit) pairs of the traced run beyond the module totals.
CALL_METRICS = [
    "building.polytope_vertices", "building.facet_of",
    "building.critical_hyperplanes", "graph.facets_above",
    "mpquotient.lift_triple", "mpquotient.n_label", "linalg.mat_mul",
    "springerlab.isotropic_points", "springerlab.curve_count",
]
SELF_METRICS = [
    "building.polytope_vertices", "building.facet_of",
    "building.facets_below", "cli.enumerate_facets", "cli.parse_input",
    "graph.path_trace", "graph.reachable", "graph.facets_above",
    "mpquotient.lift_triple", "mpquotient.n_label",
    "mpquotient.GradedQuotient.project", "liealg.induced_label",
    "liealg.jordan_decomposition", "linalg.mat_mul", "linalg.rref",
    "linalg.factor_poly", "springerlab.isotropic_points",
    "springerlab.curve_count", "springerlab.point_count",
    "springerlab.ExtField.init", "springerlab.test_fn",
    "springerlab.MatContext.group", "springerlab.verify_spr",
    "springerlab.fourier", "wavefront.compute_wf", "wavefront.u7_example",
]


def per_layer(plain, traced, spans_path):
    """Per-layer metrics and notes on ratios with no base."""
    spans = tracing.load_spans(spans_path)
    stats = tracing.self_times(spans)
    factor = {q["qid"]: scale(q) for q in traced["queries"]}

    def self_s(name):
        by_query = stats.get(name, {"by_query": {}})["by_query"]
        return sum(own * factor.get(qid, 1.0)
                   for qid, (_, own) in by_query.items())

    counts = traced.get("counts", {})
    notes = []
    m = {}
    for layer in tracing.LAYERS:
        m[layer + ".self_s"] = _metric(
            sum(self_s(name) for name in stats
                if name.startswith(layer + ".")), "s")
    for name in CALL_METRICS:
        m[name + ".calls"] = _metric(stats.get(name, {}).get("calls", 0),
                                     "count")
    for name in SELF_METRICS:
        m[name + ".self_s"] = _metric(self_s(name), "s")
    idle = [name for name in SELF_METRICS if name not in stats]
    if idle:
        notes.append("not called on this workload, reported as 0: "
                     + ", ".join(idle))
    if "springerlab.fourier" in idle:
        notes.append("springerlab.fourier is reached only through "
                     "conil_support_ok, which no CLI command calls")
    m["graph.path_trace.edges"] = _metric(
        counts.get("graph.path_trace.edges", 0), "count")

    facet_q = {q["qid"]: q["facets"] for q in traced["queries"]
               if "facets" in q}
    pv = stats.get("building.polytope_vertices", {"by_query": {}})
    pv_calls = sum(pv["by_query"].get(qid, [0])[0] for qid in facet_q)
    if pv_calls:
        yield_ = sum(facet_q.values()) / pv_calls
    else:
        yield_ = 0.0
        notes.append("building.facet_yield: no facets queries on this "
                     "workload; reported as 0")
    m["building.facet_yield"] = _metric(yield_, "ratio")
    scanned = counts.get("springerlab.isotropic_points.scanned", 0)
    if scanned:
        iso = counts.get("springerlab.isotropic_points.kept", 0) / scanned
    else:
        iso = 0.0
        notes.append("springerlab.isotropic_yield: isotropic_points is "
                     "not called on this workload; reported as 0")
    m["springerlab.isotropic_yield"] = _metric(iso, "ratio")
    m["trace.coverage"] = _metric(
        tracing.coverage(spans, traced["wall_s"]), "ratio")
    m["trace.overhead"] = _metric(
        sum(latencies(traced)) / sum(latencies(plain)), "ratio")
    # The untraced pass, scaled and raw side by side, and the machine
    # speed the scaling used (reference probe time / probe time).
    for label, scaled in (("", True), ("raw_", False)):
        lat = latencies(plain, scaled)
        m["untraced.%squeries_per_s" % label] = _metric(
            queries_per_s(plain, lat), "1/s")
        m["untraced.%slatency_p50_s" % label] = _metric(
            statistics.median(lat), "s")
    m["calibration.speed"] = _metric(
        statistics.median(scale(q) for q in plain["queries"]), "ratio")
    return m, notes


def _failures(*summaries):
    return [q for s in summaries for q in s["queries"] if q["error"]]


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="padicwf benchmark (see module docstring)")
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print("perfbench: the program is missing here: %s"
              % ", ".join(missing), file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # inherited by every process started below
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    work = HERE / ".work" / ("%s-%d-%d" % (args.workload, args.seed,
                                          os.getpid()))
    work.mkdir(parents=True)
    try:
        deck = workloads.generate(args.workload, args.seed, work)
        deck_path = work / "deck.json"
        deck_path.write_text(json.dumps(deck))
        closed_form_failures = 0
        if args.trace == 0:
            raw_setup_s, setup_s = measure_setup()
            summary, _ = run_stream(deck_path, "timed", args.seconds, work)
            summaries = [summary]
            metrics = end_to_end(summary, setup_s)
            raw = latencies(summary, scaled=False)
            notes = ["raw (unscaled): setup_s %.6g, latency_p50_s %.6g, "
                     "latency_p90_s %.6g; machine speed %.3g of reference"
                     % (raw_setup_s, statistics.median(raw),
                        statistics.quantiles(raw, n=10)[8],
                        statistics.median(scale(q) for q in
                                          summary["queries"]))]
        else:
            plain, _ = run_stream(deck_path, "pass", args.seconds, work)
            traced, out = run_stream(deck_path, "traced", args.seconds, work)
            summaries = [plain, traced]
            metrics, notes = per_layer(plain, traced,
                                       Path(str(out) + ".spans"))
            closed_form_failures = traced["counts"].get(
                "springerlab.isotropic_points.closed_form_failures", 0)
            if closed_form_failures:
                notes.append("isotropic_points missed the closed form "
                             "(q+1)(q^2+1) %d times" % closed_form_failures)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(s["queries"]) for s in summaries)
    failures = _failures(*summaries)
    correct = not failures and not closed_form_failures
    report(args, deck, summaries, metrics, notes, failures, attempted)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def report(args, deck, summaries, metrics, notes, failures, attempted):
    kinds = {}
    for s in summaries:
        for q in s["queries"]:
            kinds[q["kind"]] = kinds.get(q["kind"], 0) + 1
    repeats = sum(q["repeat"] for s in summaries for q in s["queries"])
    print("workload %s, seed %d (held-out seed %d): %s"
          % (args.workload, args.seed, workloads.HELD_OUT_SEED,
             deck["why"]))
    print("closed loop, 1 client, 1 thread; %s blocks of %d queries; "
          "repeat share %.3f (%d of %d queries repeat an earlier one)"
          % ("+".join(str(s["blocks"]) for s in summaries),
             deck["block_len"], repeats / attempted, repeats, attempted))
    print("query mix: " + ", ".join("%s %d" % kv
                                    for kv in sorted(kinds.items())))
    for kind in sorted(kinds):
        lat = [q["latency_s"] * scale(q) for q in summaries[0]["queries"]
               if q["kind"] == kind]
        print("  %-42s %14.6g s  (median of %d)"
              % ("latency of " + kind, statistics.median(lat), len(lat)))
    for name, m in metrics.items():
        extra = ""
        if name.startswith("latency_"):
            extra = "  (n=%d)" % attempted
        print("  %-42s %14.6g %s%s" % (name, m["value"], m["unit"], extra))
    print("  %-42s %14.6g %s  (%d of %d)" % (
        "failed_frac", len(failures) / attempted, "ratio", len(failures),
        attempted))
    for note in notes:
        print("  note: " + note)
    for q in failures[:10]:
        print("  FAILED query %d (%s): %s" % (q["qid"], q["kind"],
                                               q["error"]))
    for lim in deck["known_limits"]:
        print("  known limit, not in the stream: %s: %s"
              % (lim["query"], lim["limit"]))


if __name__ == "__main__":
    sys.exit(main())
