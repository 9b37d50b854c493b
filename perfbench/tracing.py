"""Spans around the program's public functions, recorded from outside.

`Tracer.install` rebinds the public functions of each padicwf module,
and the public methods of its classes, to wrappers that record a span:
name, start, end, parent span and query id.  Nothing in the program
changes.  Spans stay in memory in flat arrays and are written out once,
at the end of the run; `self_times` turns them into per-function self
time and counts.

Left unwrapped on purpose:
- the scalar classes (`LocalScalar`, `FFElt`, `Cyc`): about 1e5 dunder
  calls per query, whose time counts in the self time of their callers;
- generator functions, whose work runs in the consumer, not in the call.
"""

import inspect
import sys
import time
from array import array

PACKAGE = "padicwf"
LAYERS = ("localfield", "ffield", "linalg", "liealg", "building", "graph",
          "mpquotient", "orbits", "springerlab", "wavefront", "cli")
SCALAR_CLASSES = {"LocalScalar", "FFElt", "Cyc"}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.name_id = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.stack = []
        self.current_query = -1
        self.counts = {}  # counters kept by hooks: name -> number

    def _id(self, name):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, name, fn, hook=None):
        """A wrapper of fn recording one span per call; hook(tracer,
        args, result) may add to the counters."""
        nid = self._id(name)
        stack, clock = self.stack, self.clock
        span_name, start, end = self.span_name, self.start, self.end
        parent, query = self.parent, self.query

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            query.append(self.current_query)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self, hooks=None):
        """Wrap the public functions and methods of every layer module.
        Module attributes bound to the same function elsewhere (``from
        .ffield import prime_field``) are rebound too."""
        hooks = hooks or {}
        modules = {layer: sys.modules["%s.%s" % (PACKAGE, layer)]
                   for layer in LAYERS}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                # lru_cache wrappers are not functions but are called alike
                plain = inspect.isfunction(obj) or hasattr(obj, "cache_info")
                if plain and obj.__module__ == mod.__name__:
                    if inspect.isgeneratorfunction(obj):
                        continue
                    name = "%s.%s" % (layer, attr)
                    wrapped = self.wrap(name, obj, hooks.get(name))
                    for other in modules.values():
                        for a, o in list(vars(other).items()):
                            if o is obj:
                                setattr(other, a, wrapped)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and attr not in SCALAR_CLASSES):
                    self._install_class(layer, obj, hooks)

    def _install_class(self, layer, cls, hooks):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if isinstance(raw, staticmethod):
                kind, fn = staticmethod, raw.__func__
            elif isinstance(raw, classmethod):
                kind, fn = classmethod, raw.__func__
            elif inspect.isfunction(raw):
                kind, fn = None, raw
            else:
                continue
            if inspect.isgeneratorfunction(fn):
                continue
            label = "init" if attr == "__init__" else attr
            name = "%s.%s.%s" % (layer, cls.__name__, label)
            wrapped = self.wrap(name, fn, hooks.get(name))
            setattr(cls, attr, kind(wrapped) if kind else wrapped)

    def dump(self, path):
        """Write the spans as tab-separated lines: name, start, end,
        parent index, query id."""
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write("%s\t%r\t%r\t%d\t%d\n" % (
                    self.names[self.span_name[i]], self.start[i],
                    self.end[i], self.parent[i], self.query[i]))


def load_spans(path):
    """Spans as a list of (name, start, end, parent, query)."""
    out = []
    with open(path) as fh:
        for line in fh:
            name, s, e, p, q = line.rstrip("\n").split("\t")
            out.append((name, float(s), float(e), int(p), int(q)))
    return out


def _child_time(spans):
    """Per span, the summed duration of its direct children."""
    child = [0.0] * len(spans)
    for name, s, e, p, q in spans:
        if p >= 0:
            child[p] += e - s
    return child


def self_times(spans):
    """Per span name: calls, total self time, and the self time and calls
    per query id.  Self time is a span's duration minus the durations of
    its direct children, which nest inside it without overlap."""
    child = _child_time(spans)
    stats = {}
    for i, (name, s, e, p, q) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "self_s": 0.0,
                                     "by_query": {}})
        own = (e - s) - child[i]
        st["calls"] += 1
        st["self_s"] += own
        per = st["by_query"].setdefault(q, [0, 0.0])
        per[0] += 1
        per[1] += own
    return stats


def is_entry(name):
    """The CLI's own entry points: `cli.main` and the `cli.cmd_*`
    dispatchers, which every query passes through."""
    return name == "cli.main" or name.startswith("cli.cmd_")


def coverage(spans, wall_s):
    """Share of the traced wall time spent in spans below the CLI entry
    points: the time of the top-level spans less the self time of every
    entry-point span.  Work that no wrapped function attributes (argument
    parsing, private helpers of the CLI, the benchmark's own checks)
    lowers it."""
    child = _child_time(spans)
    covered = 0.0
    for i, (name, s, e, p, q) in enumerate(spans):
        if p < 0:
            covered += e - s
        if is_entry(name):
            covered -= (e - s) - child[i]
    return covered / wall_s if wall_s > 0 else 0.0
