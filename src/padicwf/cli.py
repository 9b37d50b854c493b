"""Command-line surface for the wave-front toolkit.

Subcommands: wf compute/example, facets, graph trace/reach,
lab spr/curve/count, oracle all.  Output is a human-readable text
table on stdout; --out writes a machine-readable JSON result file
embedding a reproducibility manifest (identical manifests produce
byte-identical files).
"""

import argparse
import hashlib
import json
import sys
from fractions import Fraction

from . import building as bd
from . import graph as gr
from . import orbits as ob
from . import springerlab as sl
from . import wavefront as wf

VERSION = "0.1.0"

MODELS = {
    "sl2": bd.sl2_model,
    "sl3": bd.sl3_model,
    "u6": bd.u6_model,
    "u6hyp": bd.u6_hyp_model,
    "u7": bd.u7_model,
    "u7h": bd.u7_h_model,
}

class CliError(Exception):
    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = dict(record or {}, message=message)


# -- manifest and result files -------------------------------------------


# Parsed arguments a manifest leaves out: the result path, and the input
# file paths, whose content the input hash covers.
UNRECORDED = ("out", "input", "spec")


def manifest(args, input_text=None):
    """Every parsed argument but the UNRECORDED ones, with the version
    and the hash of the input text."""
    data = {k: v for k, v in vars(args).items() if k not in UNRECORDED}
    data["version"] = VERSION
    data["input_hash"] = hashlib.sha256(
        (input_text or "").encode()).hexdigest()
    return data


def write_result(path, mani, result):
    payload = {"manifest": mani, "result": result}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def wf_result_record(res):
    return {
        "labels": [list(l) for l in res.labels],
        "provenance": {ob.fmt_partition(l): names
                       for l, names in sorted(res.provenance.items(),
                                              reverse=True)},
        "upper_bound": res.is_upper_bound,
        "notes": list(res.notes),
    }


def print_wf_result(res, title):
    kind = "upper bound" if res.is_upper_bound else "exact"
    print("%s (%s)" % (title, kind))
    for l in res.labels:
        names = res.provenance.get(l, [])
        print("  %-12s from %s" % (ob.fmt_partition(l),
                                   ", ".join(names)))
    dominated = sorted((l for l in res.provenance if l not in res.labels),
                      reverse=True)
    for l in dominated:
        print("  %-12s from %s (dominated)" % (
            ob.fmt_partition(l), ", ".join(res.provenance[l])))
    for n in res.notes:
        print("  note: %s" % n)


# -- input files ---------------------------------------------------------


def _tokenize_sections(text):
    """Split an INI-like input into sections with line numbers."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = (line[1:-1].strip(), [])
            sections.append(current)
            continue
        if current is None:
            raise CliError("line %d: content before any section header"
                           % lineno, {"line": lineno, "column": 1})
        if "=" not in line:
            raise CliError("line %d: expected key = value" % lineno,
                           {"line": lineno,
                            "column": raw.index(line) + 1})
        key, val = line.split("=", 1)
        current[1].append((lineno, key.strip(), val.strip()))
    return sections


def _section_map(items):
    out = {}
    rows = []
    for lineno, key, val in items:
        if key == "row":
            rows.append((lineno, val))
        else:
            out[key] = (lineno, val)
    return out, rows


def _fraction(text, where, record=None):
    """Fraction(text), or a CliError naming where the text came from:
    an input line or a command-line option."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise CliError("%s: %s" % (where, err), record)


def _line_fraction(lineno, text):
    return _fraction(text, "line %d" % lineno, {"line": lineno})


def parse_input(text, override=False):
    """Parse an input file into (GoodChain, Model, options).

    Sections: [field] (q), [group] (model,
    optional override-char-bound), one [gamma.N] per piece (depth and
    n matrix rows of scalar expressions), optional [options].
    """
    sections = _tokenize_sections(text)
    names = [name for name, _ in sections]
    for required in ("field", "group"):
        if required not in names:
            raise CliError("missing [%s] section" % required)
    field_kv, _ = _section_map(dict(sections)["field"])
    group_kv, _ = _section_map(dict(sections)["group"])
    try:
        q = int(field_kv.get("q", (0, "23"))[1])
    except ValueError:
        lineno = field_kv["q"][0]
        raise CliError("line %d: q must be an integer" % lineno,
                       {"line": lineno})
    if "model" not in group_kv:
        raise CliError("missing model in [group]")
    model_name = group_kv["model"][1]
    if model_name not in MODELS:
        lineno = group_kv["model"][0]
        raise CliError("line %d: unknown model %r (choose from %s)"
                       % (lineno, model_name, ", ".join(sorted(MODELS))),
                       {"line": lineno})
    model = MODELS[model_name](q)
    n = model.n
    override = override or group_kv.get(
        "override-char-bound", (0, "false"))[1].lower() in ("1", "true",
                                                            "yes")
    wf.check_char(model, override=override)

    pieces = []
    for name, items in sections:
        if not name.startswith("gamma"):
            continue
        kv, rows = _section_map(items)
        if "depth" not in kv:
            raise CliError("section [%s] missing depth" % name)
        depth = _line_fraction(*kv["depth"])
        if len(rows) != n:
            raise CliError(
                "section [%s]: expected %d matrix rows, got %d"
                % (name, n, len(rows)))
        mat = []
        for lineno, row in rows:
            entries = [e.strip() for e in row.split(",")]
            if len(entries) != n:
                raise CliError(
                    "line %d: expected %d entries, got %d"
                    % (lineno, n, len(entries)), {"line": lineno})
            parsed = []
            for col, e in enumerate(entries):
                try:
                    parsed.append(model.field.parse(e))
                except Exception:
                    raise CliError(
                        "line %d, column %d: cannot parse scalar %r"
                        % (lineno, col + 1, e),
                        {"line": lineno, "column": col + 1})
            mat.append(parsed)
        pieces.append((name, mat, depth))
    if not pieces:
        raise CliError("no [gamma.N] sections: the chain is empty")
    pieces.sort(key=lambda t: t[2], reverse=True)

    options = {}
    if "options" in names:
        kv, _ = _section_map(dict(sections)["options"])
        options = {k: v for k, (_, v) in kv.items()}
        lineno, val = kv.get("point", (0, ""))
        if "point" in kv and "seed-datum" in kv:
            raise CliError("line %d: point is not read when seed-datum is "
                           "set; the seed datum fixes its own base points"
                           % lineno, {"line": lineno})
        if val:
            options["point"] = tuple(_line_fraction(lineno, x)
                                     for x in val.split(","))

    try:
        chain = wf.GoodChain(pieces)
    except ValueError as err:
        raise CliError(str(err))
    return chain, model, options


# -- subcommand bodies ---------------------------------------------------


def cmd_wf(args):
    if args.wf_cmd == "example":
        if args.mode and args.name != "u6":
            raise CliError("--mode applies to the u6 example only")
        if args.name == "u6":
            results = [("u6 chain", wf.u6_example(args.mode or "exact"))]
        elif args.name == "toral":
            results = [("toral element", wf.toral_example())]
        else:
            results = [
                ("u7 chain, plain half-depth piece",
                 wf.u7_example("plain")),
                ("u7 chain, primed half-depth piece",
                 wf.u7_example("prime")),
            ]
        for title, res in results:
            print_wf_result(res, title)
        if args.out:
            write_result(args.out, manifest(args), {
                "runs": [dict(wf_result_record(r), title=t)
                         for t, r in results]})
        return 0
    # wf compute
    with open(args.input) as fh:
        text = fh.read()
    chain, model, options = parse_input(
        text, override=args.override_char_bound)
    seed_name = options.get("seed-datum")
    if seed_name == "u6":
        if model.name not in ("u6", "u6hyp"):
            raise CliError("seed-datum u6 lives in the u6 model, not in "
                           "model %r" % model.name)
        seed = wf.u6_seed()
    elif seed_name is None:
        if len(chain.pieces) > 1:
            raise CliError(
                "multi-piece chains need explicit spectral data: set "
                "seed-datum in [options]")
        coords = options.get("point") or tuple(
            Fraction(0) for _ in range(model.d or model.n))
        if model.d and len(coords) == model.d:
            coords = model.point(coords)
        if len(coords) != model.n:
            raise CliError("point must have %d or %d coordinates"
                           % (model.d, model.n))
        top = chain.pieces[0][2]
        seed = wf.SpectralDatum(top, [
            wf.Entry("base", model, coords, wf.zmat(model.field,
                                                    model.n))])
    else:
        raise CliError("unknown seed-datum %r" % seed_name)
    res = wf.compute_wf(chain, seed, args.mode or "exact")
    print_wf_result(res, "computed chain")
    if args.out:
        write_result(args.out, manifest(args, input_text=text),
                     wf_result_record(res))
    return 0


def enumerate_facets(model, window):
    """All augmented facets in a window, in table order: by depth, then
    larger dimension first, then sign vector."""
    facets = bd.Arrangement(model, window).faces
    return sorted(facets, key=lambda f: (f.depth(), -f.dim(), f.signs))


def _parse_window(args, model):
    spans = []
    if args.window:
        for part in args.window.split(":"):
            a, b = part.split(",")
            spans.append((_fraction(a, "--window"),
                          _fraction(b, "--window")))
    else:
        spans = [(Fraction(0), Fraction(1))] * model.d
    return bd.Window(tuple(spans), _fraction(args.rmin, "--rmin"),
                     _fraction(args.rmax, "--rmax"))


def cmd_facets(args):
    model = MODELS[args.model](args.q)
    window = _parse_window(args, model)
    facets = enumerate_facets(model, window)
    print("facet table: model=%s window=%s r in [%s, %s]"
          % (args.model, [tuple(map(str, s)) for s in window.xranges],
             window.rmin, window.rmax))
    print("%-6s %-5s %-12s %s" % ("depth", "dim", "kind", "center"))
    for f in facets:
        x, r = gr.facet_center(f)
        kind = "horizontal" if f.is_horizontal() else "sloped"
        print("%-6s %-5s %-12s x=%s r=%s"
              % (f.depth(), f.dim(), kind,
                 tuple(str(xi) for xi in x), r))
    print("total: %d facets" % len(facets))
    if args.out:
        rec = [{"depth": str(f.depth()), "dim": f.dim(),
                "horizontal": f.is_horizontal(),
                "signs": list(f.signs)} for f in facets]
        write_result(args.out, manifest(args), {"facets": rec})
    return 0


def _scenario_vertex(name):
    if name == "sl2":
        m = bd.sl2_model(3)
        E = m.field
        win = bd.Window(((Fraction(0), Fraction(1)),), Fraction(-1),
                        Fraction(2))
        c = wf.zmat(E, 2)
        c[0][1] = E.one()
        f0 = bd.facet_of(m, win, (Fraction(0),), Fraction(0))
        return gr.GraphVertex(m, f0, c), Fraction(1, 2)
    if name == "u7h":
        m = bd.u7_h_model(23)
        win = bd.Window(((Fraction(0), Fraction(1)),
                         (Fraction(0), Fraction(1))), Fraction(-1),
                        Fraction(1))
        f0 = bd.facet_of(m, win, wf.U7_Z, Fraction(0))
        return gr.GraphVertex(m, f0, wf.u7_chain_z(m)), Fraction(1, 2)
    raise CliError("unknown scenario %r" % name)


def cmd_graph(args):
    v, depth = _scenario_vertex(args.scenario)
    if args.to_depth:
        depth = _fraction(args.to_depth, "--to-depth")
    if args.graph_cmd == "trace":
        edges = gr.path_trace(v, depth)
        print("path trace: scenario=%s, %d edges" % (args.scenario,
                                                     len(edges)))
        print("%-5s %-8s %-6s %s" % ("rule", "depth", "dim", "center"))
        for e in edges:
            x, r = gr.facet_center(e.dst.facet)
            print("%-5d %-8s %-6d x=%s r=%s"
                  % (e.rule, e.dst.facet.depth(), e.dst.facet.dim(),
                     tuple(str(xi) for xi in x), r))
        rec = {"edges": len(edges),
               "rules": [e.rule for e in edges],
               "stops": [[str(x) for x in
                          gr.facet_center(e.dst.facet)[0]]
                         for e in edges]}
        if args.scenario == "u7h":
            print("note: %s" % wf.PATH_DISCREPANCY_NOTE)
            rec["note"] = wf.PATH_DISCREPANCY_NOTE
    else:
        edges = gr.path_trace(v, depth)
        target = edges[-1].dst
        back = gr.reachable([target])
        print("backward reachable set: scenario=%s, %d vertices"
              % (args.scenario, len(back)))
        for u in sorted(back, key=lambda u: (u.facet.depth(),
                                             -u.facet.dim())):
            print("  depth=%s dim=%d nilpotent=%s"
                  % (u.facet.depth(), u.facet.dim(), u.is_nilpotent()))
        rec = {"vertices": len(back)}
    if args.out:
        write_result(args.out, manifest(args), rec)
    return 0


def cmd_lab(args):
    if args.lab_cmd == "curve":
        # without --coeff both counts share one solve of the quadric; a
        # single coefficient goes through `curve_count`, which the
        # perfbench tracer wraps
        if args.coeff:
            counts = {args.coeff: sl.curve_count(args.coeff, args.q,
                                                 args.deg)}
        else:
            counts = dict(zip((3, 1), sl.curve_counts((3, 1), args.q,
                                                      args.deg)))
        rec = {}
        for coeff, count in counts.items():
            rec[str(coeff)] = count
            print("curve count: coeff=%d q=%d degree=%d -> %d"
                  % (coeff, args.q, args.deg, count))
        if args.out:
            write_result(args.out, manifest(args), {"counts": rec})
        return 0
    if args.lab_cmd == "count":
        with open(args.spec) as fh:
            data = json.load(fh)
        missing = [k for k in ("gram", "X", "pattern", "p")
                   if not isinstance(data, dict) or k not in data]
        if missing:
            raise CliError("spec is missing %s" % ", ".join(missing))
        spec = sl.VarietySpec(data["gram"], data["X"], data["pattern"],
                              data["p"])
        degrees = data.get("degrees", [1])
        if not isinstance(degrees, list) or not degrees or any(
                type(d) is not int for d in degrees):
            raise CliError("degrees must be a non-empty list of integers")
        counts = sl.point_count(spec, degrees)
        for d in degrees:
            print("degree %d (q = %d): %d points"
                  % (d, data["p"] ** d, counts[d]))
        if args.out:
            write_result(args.out, manifest(args, input_text=json.dumps(
                data, sort_keys=True)),
                {"counts": {str(d): counts[d] for d in degrees}})
        return 0
    # lab spr
    ctx = sl.MatContext(args.n, args.q)
    xis = sl.test_fns(ctx)
    instances = sl.spr_instances(ctx, args.samples, args.seed)
    checked = len(instances)
    failed = sum(not sl.verify_spr(ctx, x, comp, lower, xis)
                 for x, comp, lower in instances)
    print("parabolic identity: %d instances checked, %d failures"
          % (checked, failed))
    if args.out:
        write_result(args.out, manifest(args),
                     {"checked": checked, "failed": failed})
    return 1 if failed else 0


def _oracle_checks():
    checks = []

    def add(name, fn):
        checks.append((name, fn))

    add("u6 labels", lambda: wf.u6_example().labels == ((4, 1, 1),
                                                        (3, 3)))
    add("toral singleton", lambda: wf.toral_example().labels == ((5, 1),))
    add("u7 dichotomy", lambda: (
        wf.u7_example("plain").labels == ((5, 2),)
        and wf.u7_example("prime").labels == ((6, 1),)))
    add("curve counts", lambda: (sl.curve_count(3, 23) == 0
                                 and sl.curve_count(1, 23) == 16))

    def spr():
        ctx = sl.MatContext(2, 3)
        xis = sl.test_fns(ctx)
        instances = sl.spr_instances(ctx, samples=0, seed=0)
        return all(sl.verify_spr(ctx, x, comp, lower, xis)
                   for x, comp, lower in instances)
    add("parabolic identity gl2", spr)

    def trace():
        v, depth = _scenario_vertex("sl2")
        edges = gr.path_trace(v, depth)
        return [e.rule for e in edges] == [2, 1]
    add("sl2 path", trace)

    def u7path():
        v, depth = _scenario_vertex("u7h")
        return len(gr.path_trace(v, depth)) == 12
    add("u7 path edge count", u7path)
    return checks


def cmd_oracle_all(args):
    checks = _oracle_checks()
    failures = 0
    for name, fn in checks:
        try:
            ok = bool(fn())
        except Exception as err:
            ok = False
            print("ERROR %s: %s" % (name, err))
        print("%-28s %s" % (name, "pass" if ok else "FAIL"))
        failures += not ok
    print("oracle suite: %d/%d passed" % (len(checks) - failures,
                                          len(checks)))
    if args.out:
        write_result(args.out, manifest(args),
                     {"passed": len(checks) - failures,
                      "total": len(checks)})
    return 1 if failures else 0


# -- argument surface ----------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="padicwf",
        description="Exact wave-front sets for p-adic classical Lie "
                    "algebras")
    ap.add_argument("--version", action="version", version=VERSION)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--out", help="write a JSON result file")

    pw = sub.add_parser("wf", help="wave-front computations")
    wsub = pw.add_subparsers(dest="wf_cmd", required=True)
    pc = wsub.add_parser("compute")
    pc.add_argument("--input", required=True)
    pc.add_argument("--mode", choices=["exact", "bound"])
    pc.add_argument("--override-char-bound", action="store_true",
                    dest="override_char_bound")
    common(pc)
    pe = wsub.add_parser("example")
    pe.add_argument("name", choices=["u6", "u7", "toral"])
    pe.add_argument("--mode", choices=["exact", "bound"])
    common(pe)

    pf = sub.add_parser("facets", help="enumerate facets in a window")
    pf.add_argument("--model", default="sl2", choices=sorted(MODELS))
    pf.add_argument("--q", type=int, default=3)
    pf.add_argument("--window", help="a,b per chart axis, ':'-separated")
    pf.add_argument("--rmin", default="-1")
    pf.add_argument("--rmax", default="2")
    common(pf)

    pg = sub.add_parser("graph", help="descent-graph queries")
    gsub = pg.add_subparsers(dest="graph_cmd", required=True)
    for nm in ("trace", "reach"):
        p = gsub.add_parser(nm)
        p.add_argument("--scenario", default="sl2",
                       choices=["sl2", "u7h"])
        p.add_argument("--to-depth", dest="to_depth")
        common(p)

    pl = sub.add_parser("lab", help="finite-field laboratory")
    lsub = pl.add_subparsers(dest="lab_cmd", required=True)
    ps = lsub.add_parser("spr")
    ps.add_argument("--n", type=int, default=2, choices=[2, 3])
    ps.add_argument("--q", type=int, default=3)
    ps.add_argument("--samples", type=int, default=200)
    ps.add_argument("--seed", type=int, default=0)
    common(ps)
    pcv = lsub.add_parser("curve")
    pcv.add_argument("--coeff", type=int, choices=[3, 1])
    pcv.add_argument("--q", type=int, default=23)
    pcv.add_argument("--deg", type=int, default=1)
    common(pcv)
    pct = lsub.add_parser("count")
    pct.add_argument("--spec", required=True)
    common(pct)

    po = sub.add_parser("oracle", help="run the built-in oracle suite")
    po.add_argument("what", choices=["all"])
    common(po)
    return ap


_PARSER = []  # the parser, built by the first `main` call


def main(argv=None):
    if not _PARSER:
        _PARSER.append(build_parser())
    args = _PARSER[0].parse_args(argv)
    try:
        if args.cmd == "wf":
            return cmd_wf(args)
        if args.cmd == "facets":
            return cmd_facets(args)
        if args.cmd == "graph":
            return cmd_graph(args)
        if args.cmd == "lab":
            return cmd_lab(args)
        return cmd_oracle_all(args)
    except CliError as err:
        json.dump({"error": err.record}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (ValueError, OSError) as err:
        json.dump({"error": {"message": str(err)}}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
