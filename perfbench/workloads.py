"""Seeded query streams for the benchmark, and the oracle that checks them.

A workload is a list of blocks.  Every block of a workload has the same
composition of query kinds and cost tiers; the seed picks the
parameters inside each tier and the order inside each block.  A run
measures whole blocks, so two seeds measure the same mix and differ
only in the inputs the program sees.

Every expected answer comes from a route other than the query being
timed: the goldens in ``tests/goldens.py``, the answers the README
states, closed forms, an independent grid census of the sl2
arrangement written here, or the generic point-count route stored in
``expected.json``.  Each check records where its expected value came
from.
"""

import hashlib
import importlib.util
import json
import math
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOAD_NAMES = ("descent", "arrangement", "flags")

# A seed never used while the benchmark or a change was tuned; a claimed
# gain must also hold on it.
HELD_OUT_SEED = 9001

# Workloads chosen for each layer; see BENCHMARK.json for the one-line form.
WHY = {
    "descent": (
        "local-field wave-front and descent-graph queries: time goes to "
        "mpquotient.lift_triple, n_label, linalg, liealg and local-field "
        "arithmetic; building only locates points and springerlab is "
        "never called.  The u7h traces form the latency tail, the label "
        "queries the median."),
    "arrangement": (
        "sl2 facet tables on seeded 2- to 10-plane sub-windows plus graph "
        "reach: nearly all time is in building.polytope_vertices, driven "
        "by cli.enumerate_facets and graph.facets_above; no springerlab "
        "and little mpquotient.  Windows of 11 to 16 planes, the full "
        "window among them, cost 1.5 to 5 s each, as much as a whole "
        "block, and are left out to keep a run near its --seconds."),
    "flags": (
        "residue-field enumeration only: ExtField table walks "
        "(isotropic_points, curve_count), generic flag enumeration "
        "(point_count) and numpy MatContext (test_fn, verify_spr); "
        "building and graph are never called.  (coeff, p) pairs repeat "
        "inside a run, so a memo shows on the repeats."),
}

# Inputs that are out of reach today.  They stay out of every stream
# until a later change to the benchmark adds them.
KNOWN_LIMITS = [
    {"query": "facets --model sl3 (9 or 11 critical planes)",
     "limit": "about 59 s for a 9-plane window and 214 s for an 11-plane "
              "window"},
    {"query": "graph reach --scenario u7h",
     "limit": "fails fast: too many incident planes (13)"},
    {"query": "facets --model u7",
     "limit": "exceeds the facet enumeration node budget"},
]

# -- expected answers ------------------------------------------------------


def _load_goldens():
    spec = importlib.util.spec_from_file_location(
        "padicwf_goldens", ROOT / "tests" / "goldens.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def expected_tables():
    """Expected values keyed by what they check, each with provenance."""
    g = _load_goldens()
    stored = json.loads((HERE / "expected.json").read_text())
    curve = {}
    for coeff, n in g.CURVE_COUNT_Q23.items():
        curve[(coeff, 23)] = (n, "tests/goldens.py CURVE_COUNT_Q23")
    for coeff, n in g.CURVE_COUNT_Q5.items():
        curve[(coeff, 5)] = (n, "tests/goldens.py CURVE_COUNT_Q5")
    for coeff, n in g.CURVE_COUNT_Q3.items():
        curve[(coeff, 3)] = (n, "tests/goldens.py CURVE_COUNT_Q3")
    for key, n in stored["curve_count"]["values"].items():
        coeff, p = (int(x) for x in key.split(","))
        curve[(coeff, p)] = (n, "expected.json: "
                             + stored["curve_count"]["provenance"])
    count = {
        (1, 3, 1): (g.CURVE_COUNT_Q3[1], "tests/goldens.py CURVE_COUNT_Q3"),
        (3, 3, 1): (g.CURVE_COUNT_Q3[3], "tests/goldens.py CURVE_COUNT_Q3"),
        (1, 3, 2): (g.CURVE_COUNT_Q9_COEFF1,
                    "tests/goldens.py CURVE_COUNT_Q9_COEFF1"),
        (1, 5, 1): (g.CURVE_COUNT_Q5[1], "tests/goldens.py CURVE_COUNT_Q5"),
        (3, 5, 1): (g.CURVE_COUNT_Q5[3], "tests/goldens.py CURVE_COUNT_Q5"),
    }
    group_order = {2: g.GL2_F3_ORDER, 3: g.GL3_F3_ORDER}
    return {"curve": curve, "count": count, "group_order": group_order,
            "stored": stored}


README_U6 = [[4, 1, 1], [3, 3]]
README_TORAL = [[5, 1]]
README_U7 = [[[5, 2]], [[6, 1]]]

# -- independent census of the sl2 arrangement -----------------------------

# Window endpoints are multiples of 1/4, so every vertex of the sl2
# arrangement inside a window has denominator dividing 8, every edge has
# a midpoint with denominator dividing 16 and every 2-cell the centroid
# of three vertices with denominator dividing 24: the 1/48 grid meets
# every face.
CENSUS_GRID = 48


def sl2_planes(x0, x1, r0, r1):
    """Critical lines of sl2 over k((t)) meeting the closed window, as
    (slope c, offset k) for r = k + c*x: the diagonal entries give
    r = k, the off-diagonal ones r = k +- 2x, for every integer k."""
    out = []
    for c in (0, 2, -2):
        lo, hi = min(c * x0, c * x1), max(c * x0, c * x1)
        for k in range(math.ceil(r0 - hi), math.floor(r1 - lo) + 1):
            out.append((c, k))
    return out


def sl2_census(x0, x1, r0, r1):
    """Number of faces of the sl2 arrangement met by the closed window:
    distinct sign vectors over the 1/48 grid."""
    n = CENSUS_GRID
    planes = sl2_planes(x0, x1, r0, r1)
    signs = set()
    for X in range(int(x0 * n), int(x1 * n) + 1):
        for R in range(int(r0 * n), int(r1 * n) + 1):
            signs.add(tuple((d > 0) - (d < 0) for d in
                            (R - n * k - c * X for c, k in planes)))
    return len(signs)


# -- queries ---------------------------------------------------------------


def _query(kind, argv, key, props, expect, provenance):
    return {"kind": kind, "argv": argv, "key": key, "props": props,
            "expect": expect, "provenance": provenance}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def u6_diag_input(ks):
    """A single-piece depth-0 u6 input with diagonal entries k*s."""
    rows = []
    for i, k in enumerate(ks):
        row = ["0"] * 6
        row[i] = "%d*s" % k
        rows.append("row = " + ", ".join(row))
    return "\n".join(["[field]", "q = 23", "", "[group]", "model = u6",
                      "override-char-bound = true", "", "[gamma.1]",
                      "depth = 0"] + rows +
                     ["", "[options]", "point = 0, 0, 0, 0, 0, 1/2", ""])


def curve_spec_data(coeff, p, degrees):
    """The JSON spec `lab count` reads for the curve condition."""
    return {"gram": [[1 if i + j == 4 else 0 for j in range(5)]
                     for i in range(5)],
            "X": [[0, coeff, 0, 1, 0], [1, 0, 0, 0, 1], [0, 1, 0, 0, 0],
                  [0, 0, 1, 0, coeff], [0, 0, 0, 1, 0]],
            "pattern": ["*****", "!****", "0****", "0!***", "000!*"],
            "p": p, "degrees": list(degrees)}


class QueryMaker:
    """Makes queries for one workload; input files go to `work`."""

    def __init__(self, work, tables):
        self.work = Path(work)
        self.tables = tables
        self.files = {}

    def _file(self, text, suffix):
        name = _digest(text) + suffix
        if name not in self.files:
            self.files[name] = text
            (self.work / name).write_text(text)
        return str(self.work / name), name

    # descent

    def wf_example(self, name):
        expect = {"u6": {"labels": README_U6},
                  "toral": {"labels": README_TORAL},
                  "u7": {"runs": README_U7}}[name]
        return _query("wf-example", ["wf", "example", name],
                      "wf example " + name,
                      {"model": "u7" if name == "u7" else "u6", "p": 23},
                      expect, "README answer for the %s example" % name)

    def wf_compute_chain(self):
        path = str(ROOT / "inputs" / "u6_chain.ini")
        return _query("wf-compute", ["wf", "compute", "--input", path],
                      "wf compute inputs/u6_chain.ini",
                      {"model": "u6", "p": 23, "pieces": 2},
                      {"labels": README_U6},
                      "README answer for the u6 chain")

    def wf_compute_diag(self, ks):
        path, name = self._file(u6_diag_input(ks), ".ini")
        distinct = len(set(ks)) == 6
        props = {"model": "u6", "p": 23, "pieces": 1,
                 "units": list(ks),
                 "pattern": "distinct" if distinct else "abcabc"}
        if distinct:
            expect = {"labels": README_TORAL}
            prov = ("six distinct units: anisotropic centralizer, same "
                    "answer as the README toral example")
        else:
            expect = {"agree": "abcabc",
                      "labels": self.tables["stored"]["abcabc_labels"]
                      ["value"]}
            prov = ("inputs with the (a,b,c,a,b,c) pattern agree with "
                    "each other; expected.json: " +
                    self.tables["stored"]["abcabc_labels"]["provenance"])
        return _query("wf-compute", ["wf", "compute", "--input", path],
                      "wf compute " + name, props, expect, prov)

    def graph_trace(self, scenario):
        expect = {"sl2": {"edges": 2, "rules": [2, 1]},
                  "u7h": {"edges": 12, "rules": [2, 1] * 6}}[scenario]
        return _query("graph-trace",
                      ["graph", "trace", "--scenario", scenario],
                      "graph trace " + scenario,
                      {"model": scenario, "p": 3 if scenario == "sl2"
                       else 23}, expect,
                      "edge count and rules of the %s trace (tests and "
                      "README)" % scenario)

    # arrangement

    def facets(self, window):
        x0, x1, r0, r1 = window
        census = sl2_census(x0, x1, r0, r1)
        argv = ["facets", "--model", "sl2", "--window", "%s,%s" % (x0, x1),
                "--rmin=%s" % r0, "--rmax=%s" % r1]
        return _query("facets", argv, " ".join(argv),
                      {"model": "sl2", "p": 3,
                       "window": [str(v) for v in window],
                       "planes": len(sl2_planes(*window)),
                       "census": census},
                      {"facets": census},
                      "grid census of the sl2 arrangement at 1/%d "
                      "(perfbench/workloads.py)" % CENSUS_GRID)

    def graph_reach(self):
        stored = self.tables["stored"]["reach_sl2"]
        return _query("graph-reach",
                      ["graph", "reach", "--scenario", "sl2"],
                      "graph reach sl2", {"model": "sl2", "p": 3},
                      {"vertices": stored["value"]},
                      "expected.json: " + stored["provenance"])

    # flags

    def lab_curve(self, coeff, p):
        n, prov = self.tables["curve"][(coeff, p)]
        argv = ["lab", "curve", "--coeff", str(coeff), "--q", str(p)]
        return _query("lab-curve", argv, " ".join(argv),
                      {"p": p, "coeff": coeff,
                       "scanned": (p ** 5 - 1) // (p - 1)},
                      {"counts": {str(coeff): n}}, prov)

    def lab_count(self, coeff, p, degrees):
        data = json.dumps(curve_spec_data(coeff, p, degrees),
                          sort_keys=True)
        path, name = self._file(data, ".json")
        counts, provs = {}, []
        for d in degrees:
            n, prov = self.tables["count"][(coeff, p, d)]
            counts[str(d)] = n
            provs.append(prov)
        return _query("lab-count", ["lab", "count", "--spec", path],
                      "lab count " + name,
                      {"p": p, "coeff": coeff, "degrees": list(degrees)},
                      {"counts": counts}, "; ".join(provs))

    def lab_spr(self, n, samples=None, seed=None):
        argv = ["lab", "spr", "--n", str(n), "--q", "3"]
        checked = 12  # n = 2: (a, b) with a != b over F_3, both parabolics
        if n == 3:
            argv += ["--samples", str(samples), "--seed", str(seed)]
            checked = samples
        return _query("lab-spr", argv, " ".join(argv),
                      {"p": 3, "n": n},
                      {"checked": checked, "failed": 0,
                       "group_order": self.tables["group_order"][n]},
                      "failed = 0; group order from tests/goldens.py "
                      "GL%d_F3_ORDER" % n)


# -- block compositions ------------------------------------------------------


def _descent_block(b, rng, _):
    qs = [b.graph_trace("u7h"), b.graph_trace("u7h"), b.graph_trace("sl2"),
          b.wf_example("u6"), b.wf_example("toral"), b.wf_compute_chain()]
    for _ in range(2):
        qs.append(b.wf_compute_diag(rng.sample(range(1, 23), 6)))
    for _ in range(2):
        abc = rng.sample(range(1, 23), 3)
        qs.append(b.wf_compute_diag(abc + abc))
    return qs


def window_tiers():
    """Tiers of sl2 sub-windows from windows.json: windows of one tier
    have the same number of critical planes and cost the facet
    enumeration nearly the same work, so a block costs the same for
    every seed.  Each tier also says how many windows a block takes."""
    data = json.loads((HERE / "windows.json").read_text())
    return [(t["per_block"],
             [tuple(Fraction(v) for v in w.split()) for w in t["windows"]])
            for t in data["tiers"]]


class _Dealer:
    """Deals each tier's windows in a seeded order, without replacement
    until the tier is used up, so facet queries do not repeat within a
    run (graph reach, which has no parameters, does)."""

    def __init__(self, rng):
        self.rng = rng
        self.tiers = window_tiers()
        self.queues = [[] for _ in self.tiers]

    def take(self, i):
        if not self.queues[i]:
            self.queues[i] = list(self.tiers[i][1])
            self.rng.shuffle(self.queues[i])
        return self.queues[i].pop()


def _arrangement_block(b, rng, dealer):
    qs = [b.graph_reach()]
    for i, (per_block, _) in enumerate(dealer.tiers):
        qs += [b.facets(dealer.take(i)) for _ in range(per_block)]
    return qs


CURVE_PRIMES = (5, 7, 11, 13, 17, 19, 23)


def _flags_block(b, rng, _):
    # corner coefficients are drawn with replacement, so (coeff, p)
    # pairs repeat within a run
    # the 90th percentile of a run falls among the lab spr n=3 queries,
    # whose cost grows with the sample count: the count is fixed and the
    # seed picks which elements are sampled
    qs = [b.wf_example("u7"), b.lab_count(1, 3, (1, 2)),
          b.lab_spr(3, samples=10, seed=rng.randrange(10 ** 6))]
    primes = list(CURVE_PRIMES) + [5] * 3 + [7] * 3
    qs += [b.lab_curve(rng.choice((1, 3)), p) for p in primes]
    qs += [b.lab_count(rng.choice((1, 3)), p, (1,)) for p in (3, 3, 5, 5)]
    qs += [b.lab_spr(2) for _ in range(5)]
    return qs


BLOCKS = {"descent": _descent_block, "arrangement": _arrangement_block,
          "flags": _flags_block}

# Blocks generated per seed (a run cycles through them if it is faster),
# blocks a timed run measures at least (so that every run has at least
# 100 queries and a 90th percentile with ten samples beyond it), and
# blocks the untraced and traced passes of a traced run execute.
DECK_BLOCKS = {"descent": 60, "arrangement": 40, "flags": 12}
MIN_BLOCKS = {"descent": 10, "arrangement": 8, "flags": 4}
TRACE_BLOCKS = {"descent": 6, "arrangement": 4, "flags": 2}


def warmup(b, workload):
    """Queries run before timing so that lazy imports and the cached
    models are in place.  Parameterised kinds use inputs no block
    draws, so a memo keyed by input does not see them."""
    if workload == "descent":
        return [b.wf_example("u6"), b.wf_example("toral"),
                b.graph_trace("sl2"), b.graph_trace("u7h")]
    if workload == "arrangement":
        return [b.facets((Fraction(0), Fraction(1, 4), Fraction(0),
                          Fraction(1, 4))), b.graph_reach()]
    return [b.lab_curve(3, 3), b.lab_spr(2)]


def generate(workload, seed, work):
    """The deck for one seed: warm-up queries and blocks, with per-query
    properties, the repeat flag and the workload's repeat share."""
    if workload not in BLOCKS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s:%d" % (workload, seed))
    b = QueryMaker(work, expected_tables())
    warm = warmup(b, workload)
    seen = {q["key"] for q in warm}
    dealer = _Dealer(rng) if workload == "arrangement" else None
    blocks = []
    for _ in range(DECK_BLOCKS[workload]):
        block = BLOCKS[workload](b, rng, dealer)
        rng.shuffle(block)
        for q in block:
            q["props"]["repeat"] = q["key"] in seen
            seen.add(q["key"])
        blocks.append(block)
    measured = [q for blk in blocks[:MIN_BLOCKS[workload]] for q in blk]
    return {"workload": workload, "seed": seed, "why": WHY[workload],
            "held_out_seed": HELD_OUT_SEED,
            "repeat_share": sum(q["props"]["repeat"] for q in measured)
            / len(measured),
            "block_len": len(blocks[0]),
            "min_blocks": MIN_BLOCKS[workload],
            "trace_blocks": TRACE_BLOCKS[workload],
            "warmup": warm, "blocks": blocks,
            "known_limits": KNOWN_LIMITS}


# -- oracle ----------------------------------------------------------------


class Oracle:
    """Checks one run's answers.  Holds the first answer per agreement
    class, so that inputs sharing a multiplicity pattern must agree."""

    def __init__(self):
        self.agree = {}

    def check(self, query, code, result):
        """None if the answer is right, else the reason it is not."""
        if code != 0:
            return "exit status %r" % code
        if result is None:
            return "no readable result file"
        exp = query["expect"]
        kind = query["kind"]
        if kind == "wf-example" and "runs" in exp:
            got = [r["labels"] for r in result["runs"]]
            return None if got == exp["runs"] else "labels %r" % got
        if kind == "wf-example":
            got = result["runs"][0]["labels"]
            return None if got == exp["labels"] else "labels %r" % got
        if kind == "wf-compute":
            got = result["labels"]
            if "agree" in exp:
                first = self.agree.setdefault(exp["agree"], got)
                if got != first:
                    return "labels %r disagree with %r" % (got, first)
            return None if got == exp["labels"] else "labels %r" % got
        if kind == "graph-trace":
            got = {"edges": result["edges"], "rules": result["rules"]}
            return None if got == exp else "trace %r" % got
        if kind == "graph-reach":
            got = result["vertices"]
            return None if got == exp["vertices"] else "vertices %r" % got
        if kind == "facets":
            got = len(result["facets"])
            return None if got == exp["facets"] else "%d facets" % got
        if kind in ("lab-curve", "lab-count"):
            got = result["counts"]
            return None if got == exp["counts"] else "counts %r" % got
        if kind == "lab-spr":
            got = {"checked": result["checked"], "failed": result["failed"]}
            want = {"checked": exp["checked"], "failed": exp["failed"]}
            return None if got == want else "spr %r" % got
        return "unknown query kind %r" % kind


def main(argv=None):
    """Print one seed's deck: each query's argv, properties and expected
    answer with its provenance, one JSON object per line."""
    import argparse
    import tempfile
    ap = argparse.ArgumentParser(description=main.__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as work:
        deck = generate(args.workload, args.seed, work)
    print(json.dumps({k: v for k, v in deck.items()
                      if k not in ("warmup", "blocks")}))
    for i, block in enumerate(deck["blocks"]):
        for q in block:
            print(json.dumps(dict(q, block=i)))


if __name__ == "__main__":
    main()
