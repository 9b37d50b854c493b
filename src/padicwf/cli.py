"""Command-line surface for the wave-front toolkit.

Subcommands: wf compute/example, facets, graph trace/reach,
lab spr/curve/count, oracle all.  `wf example u6|toral` and the oracle's
u6 and toral checks run the input files shipped in padicwf/examples
(`inputs/` links to them) through `parse_input` and `compute_input`,
the route of `wf compute`; each file is parsed once per process.
Output is a human-readable text table on stdout; --out writes a
machine-readable JSON result file embedding a reproducibility manifest
(identical manifests produce byte-identical files).  A result file has the layout of
json.dumps(indent=2, sort_keys=True), written by `_json`, a small
writer over the types a record holds; an --out whose directory does
not exist is refused before any work.  `facets` reads each face's row
(depth, kind, centre, signs) off its integer vertices once and prints
its table in one write.  Every option and input-file key is read by the
command that takes it, or refused as a JSON error: an option that a
command accepts but does not read, such as `lab spr --n 2 --seed`, or
an input key that no code reads, such as a misspelt `pint`.
"""

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction
from functools import cache
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, lcm

from . import building as bd
from . import ffield as ff
from . import graph as gr
from . import orbits as ob
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


class _Parser(argparse.ArgumentParser):
    """A usage error raises CliError, which `main` reports as JSON."""

    def error(self, message):
        raise CliError(message)


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


# The text of each scalar type a record holds, as json.dumps writes it.
_SCALAR = {str: _quote, int: int.__repr__,
           bool: {True: "true", False: "false"}.__getitem__,
           type(None): {None: "null"}.__getitem__}


def _json(obj, indent, out):
    """Append to the list `out` the text that json.dumps(obj, indent=2,
    sort_keys=True) gives obj nested at `indent` (a string of spaces).
    A record holds dicts with str keys, lists, str, int, bool and None;
    anything else raises TypeError."""
    scalar = _SCALAR.get(type(obj))
    if scalar is not None:
        out.append(scalar(obj))
        return
    inner = indent + "  "
    if type(obj) is dict:
        if not obj:
            out.append("{}")
            return
        sep = "{\n" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError("record keys are str, not %s"
                                % type(key).__name__)
            value = obj[key]
            scalar = _SCALAR.get(type(value))
            if scalar is not None:
                out += (sep, _quote(key), ": ", scalar(value))
            else:
                out += (sep, _quote(key), ": ")
                _json(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif type(obj) is list:
        if not obj:
            out.append("[]")
            return
        sep = ",\n" + inner
        if all(type(x) is int for x in obj):
            out.append("[\n" + inner + sep.join(map(str, obj)) + "\n"
                       + indent + "]")
            return
        out.append("[\n" + inner)
        _json(obj[0], inner, out)
        for x in obj[1:]:
            out.append(sep)
            _json(x, inner, out)
        out.append("\n" + indent + "]")
    else:
        raise TypeError("a record holds no %s" % type(obj).__name__)


def write_result(path, mani, result):
    """The result file: the manifest and the result in the layout of
    json.dumps(indent=2, sort_keys=True), written by `_json`."""
    out = []
    _json({"manifest": mani, "result": result}, "", out)
    out.append("\n")
    with open(path, "w") as fh:
        fh.write("".join(out))


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


# The keys each kind of section reads; a [gamma...] section is a chain
# piece.  `row` is the one key that a section repeats.
SECTION_KEYS = {
    "field": ("q",),
    "group": ("model", "override-char-bound"),
    "gamma": ("depth", "row"),
    "options": ("point", "seed-datum"),
}

# The values a yes/no key reads; any other is refused.
FLAGS = {"1": True, "true": True, "yes": True,
         "0": False, "false": False, "no": False}


def _line_error(lineno, message):
    return CliError("line %d: %s" % (lineno, message), {"line": lineno})


def _tokenize_sections(text):
    """Split an INI-like input into sections, in file order: name ->
    (header line, {key: (line, value)}, [(line, row value)]).  A
    section or key that no code reads, or a repeated one, is refused."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            kind = "gamma" if name.startswith("gamma") else name
            if kind not in SECTION_KEYS:
                raise _line_error(lineno, "unknown section [%s]" % name)
            if name in sections:
                raise _line_error(lineno, "repeated section [%s]" % name)
            current = sections[name] = (lineno, {}, [])
            continue
        if current is None:
            raise CliError("line %d: content before any section header"
                           % lineno, {"line": lineno, "column": 1})
        if "=" not in line:
            raise CliError("line %d: expected key = value" % lineno,
                           {"line": lineno,
                            "column": raw.index(line) + 1})
        key, val = (part.strip() for part in line.split("=", 1))
        _, kv, rows = current
        if key not in SECTION_KEYS[kind]:
            raise _line_error(lineno, "unknown key %r in [%s]" % (key, name))
        if key == "row":
            rows.append((lineno, val))
        elif key in kv:
            raise _line_error(lineno, "repeated key %r in [%s]" % (key, name))
        else:
            kv[key] = (lineno, val)
    return sections


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
    n matrix rows of exact scalar expressions), optional [options]
    (point or seed-datum).  Any other section or key is refused, as is a
    repeated one (`row` excepted), and every error names its line: a
    missing key that of its section header.
    """
    sections = _tokenize_sections(text)
    for required in ("field", "group"):
        if required not in sections:
            raise CliError("missing [%s] section" % required)
    field_line, field_kv, _ = sections["field"]
    group_line, group_kv, _ = sections["group"]
    if "q" not in field_kv:
        raise _line_error(field_line, "[field] has no q")
    lineno, q = field_kv["q"]
    try:
        q = int(q)
    except ValueError:
        raise _line_error(lineno, "q must be an integer")
    try:
        ff.check_odd_prime(q)
    except ValueError as err:
        raise _line_error(lineno, str(err))
    if "model" not in group_kv:
        raise _line_error(group_line, "missing model in [group]")
    model_line, model_name = group_kv["model"]
    if model_name not in MODELS:
        raise _line_error(model_line, "unknown model %r (choose from %s)"
                          % (model_name, ", ".join(sorted(MODELS))))
    model = MODELS[model_name](q)
    n = model.n
    if "override-char-bound" in group_kv:
        lineno, val = group_kv["override-char-bound"]
        if val.lower() not in FLAGS:
            raise _line_error(lineno, "override-char-bound must be 1/0, "
                              "true/false or yes/no, not %r" % val)
        override = override or FLAGS[val.lower()]
    try:
        wf.check_char(model, override=override)
    except ValueError as err:
        raise _line_error(model_line, str(err))

    pieces = []
    depth_lines = {}
    depths = {}  # depth -> the section that has it
    for name, (header, kv, rows) in sections.items():
        if not name.startswith("gamma"):
            continue
        if "depth" not in kv:
            raise _line_error(header, "section [%s] missing depth" % name)
        depth = _line_fraction(*kv["depth"])
        depth_lines[name] = kv["depth"][0]
        if depth in depths:
            raise _line_error(depth_lines[name], "section [%s] has the "
                              "depth %s of [%s]: a chain has one piece "
                              "per depth" % (name, depth, depths[depth]))
        depths[depth] = name
        if len(rows) != n:
            raise _line_error(
                header, "section [%s]: expected %d matrix rows, got %d"
                % (name, n, len(rows)))
        mat = []
        for lineno, row in rows:
            entries = [e.strip() for e in row.split(",")]
            if len(entries) != n:
                raise _line_error(lineno, "expected %d entries, got %d"
                                  % (n, len(entries)))
            parsed = []
            for col, e in enumerate(entries):
                try:
                    parsed.append(model.field.parse(e))
                except ValueError as err:
                    raise CliError(
                        "line %d, column %d: cannot parse scalar %r (%s)"
                        % (lineno, col + 1, e, err),
                        {"line": lineno, "column": col + 1})
            mat.append(parsed)
        pieces.append((name, mat, depth))
    if not pieces:
        raise CliError("no [gamma.N] sections: the chain is empty")
    pieces.sort(key=lambda t: t[2], reverse=True)

    options = {}
    if "options" in sections:
        _, kv, _ = sections["options"]
        options = {k: v for k, (_, v) in kv.items()}
        if "seed-datum" in kv:
            lineno, val = kv["seed-datum"]
            if val != "u6":
                raise _line_error(lineno, "unknown seed-datum %r" % val)
            if model.name not in ("u6", "u6hyp"):
                raise _line_error(lineno, "seed-datum u6 lives in the u6 "
                                  "model, not in model %r" % model.name)
            if q != 23:
                raise _line_error(lineno, "seed-datum u6 exists at q = 23 "
                                  "only, not at q = %d" % q)
        lineno, val = kv.get("point", (0, ""))
        if "point" in kv and "seed-datum" in kv:
            raise _line_error(lineno, "point is not read when seed-datum "
                              "is set; the seed datum fixes its own base "
                              "points")
        if val:
            point = tuple(_line_fraction(lineno, x) for x in val.split(","))
            if len(point) not in (model.d, n):
                raise _line_error(lineno, "point must have %s coordinates"
                                  % ("%d or %d" % (model.d, n) if model.d
                                     else n))
            options["point"] = point

    try:
        chain = wf.GoodChain(pieces)
    except wf.PieceError as err:
        raise _line_error(depth_lines[err.piece], str(err))
    except ValueError as err:
        raise CliError(str(err))
    return chain, model, options


# -- subcommand bodies ---------------------------------------------------


# The examples that run a shipped input file: name -> (title, file in
# padicwf/examples).  `inputs/` links to the same files.
EXAMPLES = {
    "u6": ("u6 chain", "u6_chain.ini"),
    "toral": ("toral element", "toral.ini"),
}


@cache
def example_input(name):
    """parse_input of a shipped example's file, once per process: the
    file is package data, which cannot change while the process runs."""
    path = resources.files(__package__).joinpath("examples",
                                                 EXAMPLES[name][1])
    return parse_input(path.read_text())


def compute_input(chain, model, options, mode):
    """The wave-front set of a parsed input file: from the u6 seed datum
    if the file names it, else from one base point (the file's `point`,
    or the origin) at the depth of the chain's one piece."""
    if options.get("seed-datum") == "u6":
        seed = wf.u6_seed()
    else:
        if len(chain.pieces) > 1:
            raise CliError(
                "multi-piece chains need explicit spectral data: set "
                "seed-datum in [options]")
        coords = options.get("point") or tuple(
            Fraction(0) for _ in range(model.d or model.n))
        if model.d and len(coords) == model.d:
            coords = model.point(coords)
        top = chain.pieces[0][2]
        seed = wf.SpectralDatum(top, [
            wf.Entry("base", model, coords, wf.zmat(model.field,
                                                    model.n))])
    return wf.compute_wf(chain, seed, mode or "exact")


def cmd_wf(args):
    if args.wf_cmd == "example":
        if args.mode and args.name != "u6":
            raise CliError("--mode applies to the u6 example only")
        if args.name in EXAMPLES:
            title, _ = EXAMPLES[args.name]
            results = [(title, compute_input(*example_input(args.name),
                                             args.mode))]
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
    res = compute_input(*parse_input(text,
                                     override=args.override_char_bound),
                        args.mode)
    print_wf_result(res, "computed chain")
    if args.out:
        write_result(args.out, manifest(args, input_text=text),
                     wf_result_record(res))
    return 0


def _parse_window(args, model):
    spans = []
    if args.window:
        for part in args.window.split(":"):
            if part.count(",") != 1:
                raise CliError("--window: expected lo,hi, got %r" % part)
            a, b = part.split(",")
            spans.append((_fraction(a, "--window"),
                          _fraction(b, "--window")))
    else:
        spans = [(Fraction(0), Fraction(1))] * model.d
    return bd.Window(tuple(spans), _fraction(args.rmin, "--rmin"),
                     _fraction(args.rmax, "--rmax"))


def _ratio(n, d):
    """str(Fraction(n, d)) of a reduced pair n/d, d > 0."""
    return "%d/%d" % (n, d) if d != 1 else str(n)


def cmd_facets(args):
    # the arrangement reads no residue field, so one prime serves all
    model = MODELS[args.model](3)
    window = _parse_window(args, model)
    # one row per face, read off its homogeneous integer vertices once:
    # its depth as a reduced pair (the top vertex's level) and as text,
    # its kind by cross-multiplication, its barycentre as text, its signs
    rows = []
    for f in bd.Arrangement(model, window).faces:
        hs = f.homogeneous()
        top = bd._top(hs)
        g = gcd(top[-2], top[-1])
        dn, dd = top[-2] // g, top[-1] // g
        rows.append((dn, dd, f.dim(), _ratio(dn, dd),
                     bd._at_level(hs, dn, dd),
                     [_ratio(n, d) for n, d in bd._barycentre(hs)],
                     f.signs))
    # table order: by depth (an integer at the common denominator M),
    # then larger dimension first, then sign vector
    M = lcm(*(row[1] for row in rows))
    rows.sort(key=lambda row: (row[0] * (M // row[1]), -row[2], row[6]))
    lines = ["facet table: model=%s window=%s r in [%s, %s]"
             % (args.model, [tuple(map(str, s)) for s in window.xranges],
                window.rmin, window.rmax),
             "%-6s %-5s %-12s %s" % ("depth", "dim", "kind", "center")]
    for _, _, dim, depth, horizontal, centre, _ in rows:
        lines.append("%-6s %-5s %-12s x=%s r=%s"
                     % (depth, dim, "horizontal" if horizontal else "sloped",
                        tuple(centre[:-1]), centre[-1]))
    lines.append("total: %d facets\n" % len(rows))
    sys.stdout.write("\n".join(lines))
    if args.out:
        rec = [{"depth": depth, "dim": dim, "horizontal": horizontal,
                "signs": list(signs)}
               for _, _, dim, depth, horizontal, _, signs in rows]
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
    edges = gr.path_trace(v, depth)
    if args.graph_cmd == "trace":
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
        # from the trace's last vertex: the start, if it takes no edge
        back = gr.reachable(edges[-1].dst if edges else v)
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
    from . import springerlab as sl
    if args.lab_cmd == "curve":
        sweep = args.coeff == "all"
        coeffs = (range(1, args.q) if sweep
                  else (args.coeff,) if args.coeff else (3, 1))
        counts = dict(zip(coeffs, sl.curve_counts(coeffs, args.q, args.deg)))
        rec = {"counts": {}}
        for coeff, count in counts.items():
            rec["counts"][str(coeff)] = count
            print("curve count: coeff=%d q=%d degree=%d -> %d"
                  % (coeff, args.q, args.deg, count))
        if sweep:
            rec["zeros"] = [c for c, n in counts.items() if not n]
            print("curve zero set: q=%d degree=%d -> {%s}"
                  % (args.q, args.deg, ", ".join(map(str, rec["zeros"]))))
        if args.out:
            write_result(args.out, manifest(args), rec)
        return 0
    if args.lab_cmd == "count":
        with open(args.spec) as fh:
            data = json.load(fh)
        missing = [k for k in ("gram", "X", "pattern", "p")
                   if not isinstance(data, dict) or k not in data]
        if missing:
            raise CliError("spec is missing %s" % ", ".join(missing))
        unknown = sorted(set(data) - {"gram", "X", "pattern", "p",
                                      "degrees"})
        if unknown:
            raise CliError("unknown spec key %s"
                           % ", ".join(map(repr, unknown)))
        spec = sl.VarietySpec(data["gram"], data["X"], data["pattern"],
                              data["p"])
        degrees = data.get("degrees", [1])
        if not isinstance(degrees, list) or not degrees or any(
                type(d) is not int for d in degrees):
            raise CliError("degrees must be a non-empty list of integers")
        if len(set(degrees)) != len(degrees):
            raise CliError("degrees must not repeat a degree")
        counts = sl.point_count(spec, degrees)
        for d in degrees:
            print("degree %d (q = %d): %d points"
                  % (d, data["p"] ** d, counts[d]))
        if args.out:
            write_result(args.out, manifest(args, input_text=json.dumps(
                data, sort_keys=True)),
                {"counts": {str(d): counts[d] for d in degrees}})
        return 0
    # lab spr: gl_2's instances are all listed, only gl_3's are drawn
    drawn = ()
    if args.n == 2:
        for name in ("samples", "seed"):
            if name in vars(args):
                raise CliError("--%s applies to --n 3 only" % name)
    else:
        # the defaults go into args, so that the manifest records them
        vars(args).setdefault("samples", 200)
        vars(args).setdefault("seed", 0)
        if args.samples < 1:
            raise CliError("--samples: expected at least 1, got %d"
                           % args.samples)
        drawn = (args.samples, args.seed)
    ctx = sl.mat_context(args.n, args.q)
    instances = sl.spr_instances(ctx, *drawn)
    checked = len(instances)
    failed = sum(not sl.verify_spr(ctx, x, comp, lower)
                 for x, comp, lower in instances)
    print("parabolic identity: %d instances checked, %d failures"
          % (checked, failed))
    if args.out:
        write_result(args.out, manifest(args),
                     {"checked": checked, "failed": failed})
    return 1 if failed else 0


def _oracle_checks():
    from . import springerlab as sl
    checks = []

    def add(name, fn):
        checks.append((name, fn))

    def example(name):
        return compute_input(*example_input(name), "exact").labels

    add("u6 labels", lambda: example("u6") == ((4, 1, 1), (3, 3)))
    add("toral singleton", lambda: example("toral") == ((5, 1),))
    add("u7 dichotomy", lambda: (
        wf.u7_example("plain").labels == ((5, 2),)
        and wf.u7_example("prime").labels == ((6, 1),)))
    add("curve counts", lambda: (sl.curve_count(3, 23) == 0
                                 and sl.curve_count(1, 23) == 16))

    def spr():
        ctx = sl.mat_context(2, 3)
        instances = sl.spr_instances(ctx)
        return all(sl.verify_spr(ctx, x, comp, lower)
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


def int_or_all(text):
    """`lab curve --coeff`: an integer, or `all` for every coefficient."""
    return text if text == "all" else int(text)


def build_parser():
    ap = _Parser(
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
    ps.add_argument("--samples", type=int, default=argparse.SUPPRESS,
                    help="gl_3 instances to draw (--n 3 only; default 200)")
    ps.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                    help="seed of the draws (--n 3 only; default 0)")
    common(ps)
    pcv = lsub.add_parser("curve")
    pcv.add_argument("--coeff", type=int_or_all, choices=[3, 1, "all"])
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
    try:
        args = _PARSER[0].parse_args(argv)
        where = os.path.dirname(args.out or ".") or "."
        if not os.path.isdir(where):
            raise CliError("--out: no directory %s" % where)
        if args.out and os.path.isdir(args.out):
            raise CliError("--out: %s is a directory" % args.out)
        if args.cmd == "wf":
            return cmd_wf(args)
        if args.cmd == "facets":
            return cmd_facets(args)
        if args.cmd == "graph":
            return cmd_graph(args)
        if args.cmd == "lab":
            return cmd_lab(args)
        return cmd_oracle_all(args)
    except (CliError, ValueError, OSError) as err:
        record = getattr(err, "record", {"message": str(err)})
        json.dump({"error": record}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
