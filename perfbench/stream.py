"""One closed-loop query stream, run in a fresh interpreter by run.py.

A single caller sends each query to ``padicwf.cli.main(argv)`` and sends
the next only after it returns.  Latency covers the call alone; the
answer is read from the ``--out`` file and checked after the clock
stops.

It times a short fixed calibration loop before every query and every
0.1 s during it; run.py scales every latency by the loop's time (see
`calibration`).  The loop's time is taken out of the latency; in a
traced run it adds about 5% to the self time of the spans it interrupts.

Modes:
  timed   whole blocks until --seconds have passed and at least the
          workload's minimum number of blocks ran (end-to-end numbers);
  pass    exactly the workload's trace blocks, untraced;
  traced  the same blocks with every public function wrapped; the spans
          are written to <out>.spans.

    python3 perfbench/stream.py --deck DECK --mode timed --seconds 30 --out OUT
"""

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibration import host_probe  # noqa: E402


TICK_S = 0.1


class Ticker:
    """Takes `host_probe` every TICK_S seconds of wall time (SIGALRM)
    while a query runs, so that a long query is scaled by the machine's
    speed during it.  A tick takes the same median of several probes as
    the probe before a query: a single probe right after the program ran
    read 10-15% slower, its code and data out of the caches.  Each
    tick's start, length and probe are kept, so that the time the ticks
    took can be taken out of the query's latency."""

    def __init__(self):
        self.ticks = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        probe_s = host_probe()
        self.ticks.append((start, time.perf_counter() - start, probe_s))

    def start(self):
        self.ticks = []
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def _hooks():
    """Counters taken at wrapped calls: isotropic points kept and scanned,
    with the closed form (q+1)(q^2+1) checked, and descent-path edges."""
    def isotropic(tracer, args, result):
        q = args[0].q
        tracer.count("springerlab.isotropic_points.kept", len(result))
        tracer.count("springerlab.isotropic_points.scanned",
                     (q ** 5 - 1) // (q - 1))
        if len(result) != (q + 1) * (q * q + 1):
            tracer.count("springerlab.isotropic_points.closed_form_failures")

    def edges(tracer, args, result):
        tracer.count("graph.path_trace.edges", len(result))

    return {"springerlab.isotropic_points": isotropic,
            "graph.path_trace": edges}


class Runner:
    def __init__(self, deck, out_path):
        from padicwf import cli
        self.cli = cli
        self.deck = deck
        self.out_path = out_path
        self.oracle = workloads.Oracle()
        self.seen = set()
        self.tracer = None
        self.ticker = Ticker()
        self.group_errors = self._check_group_orders()

    def _check_group_orders(self):
        """|GL_n(F_3)| against the goldens, for every n a lab spr query
        uses; checked once, before any timing."""
        from padicwf import springerlab as sl
        want = {q["props"]["n"]: q["expect"]["group_order"]
                for blk in self.deck["blocks"] for q in blk
                if q["kind"] == "lab-spr"}
        errors = {}
        for n, order in sorted(want.items()):
            got = len(sl.MatContext(n, 3).group()[0])
            if got != order:
                errors[n] = "|GL_%d(F_3)| = %d, golden %d" % (n, got, order)
        return errors

    def run_query(self, qid, query, block=-1):
        """Run one query and check its answer; a record of the outcome."""
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        argv = query["argv"] + ["--out", self.out_path]
        err = io.StringIO()
        if self.tracer is not None:
            self.tracer.current_query = qid
        pre = host_probe()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            self.ticker.start()
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed query
                code = "%s: %s" % (type(exc).__name__, exc)
            t1 = time.perf_counter()
            self.ticker.stop()
        ticks = [tick for tick in self.ticker.ticks if tick[0] < t1]
        latency = t1 - t0 - sum(length for _, length, _ in ticks)
        result = None
        if os.path.exists(self.out_path):
            try:
                with open(self.out_path) as fh:
                    result = json.load(fh)["result"]
            except (ValueError, KeyError):
                pass  # reported by the oracle as no readable result
        try:
            problem = self.oracle.check(query, code, result)
        except (KeyError, TypeError, IndexError) as exc:
            problem = "malformed result: %r" % exc
        if problem is None and query["kind"] == "lab-spr":
            problem = self.group_errors.get(query["props"]["n"])
        if problem and err.getvalue():
            problem += " | " + err.getvalue().strip()[:200]
        repeat = query["key"] in self.seen
        self.seen.add(query["key"])
        rec = {"qid": qid, "block": block, "kind": query["kind"],
               "latency_s": latency, "error": problem, "repeat": repeat,
               "pre_probe_s": pre, "ticks": len(ticks),
               "tick_probe_s": statistics.median(
                   probe_s for _, _, probe_s in ticks) if ticks else None}
        if query["kind"] == "facets" and result is not None:
            rec["facets"] = len(result["facets"])
        return rec

    def warm_up(self):
        for query in self.deck["warmup"]:
            rec = self.run_query(-1, query)
            if rec["error"]:
                raise SystemExit("warm-up query %r failed: %s"
                                 % (query["key"], rec["error"]))

    def blocks(self, mode, seconds):
        """Run whole blocks.  Each record gets the machine's speed during
        it: the median tick probe if the query lasted three ticks or more,
        else the median of the probes before the nearest queries."""
        blocks = self.deck["blocks"]
        records = []
        t0 = time.perf_counter()
        done = 0
        while True:
            for query in blocks[done % len(blocks)]:
                records.append(self.run_query(len(records), query, done))
            done += 1
            if mode == "timed":
                if (done >= self.deck["min_blocks"]
                        and time.perf_counter() - t0 >= seconds):
                    break
            elif done >= self.deck["trace_blocks"]:
                break
        wall = time.perf_counter() - t0
        pre = [rec["pre_probe_s"] for rec in records] + [host_probe()]
        for i, rec in enumerate(records):
            if rec["ticks"] >= 3:
                rec["probe_s"] = rec["tick_probe_s"]
            else:
                rec["probe_s"] = statistics.median(pre[max(0, i - 2):i + 4])
        return records, done, wall


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--deck", required=True)
    ap.add_argument("--mode", choices=["timed", "pass", "traced"],
                    required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    deck = json.loads(Path(args.deck).read_text())
    runner = Runner(deck, args.out + ".answer.json")
    runner.warm_up()
    if args.mode == "traced":
        from tracing import Tracer
        runner.tracer = Tracer()
        runner.tracer.install(hooks=_hooks())
    records, blocks, wall = runner.blocks(args.mode, args.seconds)
    summary = {"mode": args.mode, "blocks": blocks, "wall_s": wall,
               "queries": records,
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if runner.tracer is not None:
        runner.tracer.dump(args.out + ".spans")
        summary["counts"] = runner.tracer.counts
    Path(args.out).write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
