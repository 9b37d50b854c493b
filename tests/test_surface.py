"""The library surface of padicwf: every public top-level function and
class, and every public method of a public class, is used somewhere in
the package, or is named in SERVES or METHOD_SERVES with the command,
acceptance criterion, README claim or test role it backs; no function
accepts a parameter that it then ignores; and every parameter with a
default is passed by some call, so that no default is a knob that
nothing turns."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "padicwf"

SERVES = {
    "support_test": "README: support and witness tests",
    "good1_check": "README: support and witness tests",
    "conil_support_ok": "README: exact Fourier transforms",
    "dynkin_cocharacter": "README: weighted Dynkin data",
    "theta_count": "acceptance criterion 7",
    "out_edges_rule1": "acceptance criterion 8",
    "shift_check": "acceptance criterion 9",
    "gl_split_model": "test fixture: the split gl_n model",
    "dep_element": "test fixture: elements of a given depth",
    "mat_sub": "test oracle: the bracket and the reference solves",
}

METHOD_SERVES = {
    ("Factor", "is_lie"): "test oracle: Lie-algebra membership of lifts",
    ("FnOnPiece", "same"): "test oracle: equality of Fourier transforms",
    ("FnOnPiece", "negate_argument"):
        "test oracle: Fourier inversion, fhat-hat(x) = q^dim f(-x)",
    ("PrimeField", "elements"): "test fixture: every residue-field element",
    ("QuadField", "elements"): "test fixture: every residue-field element",
}


def _names(node):
    """How often each name or attribute occurs in the tree of node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreached():
    """Public top-level names that no code in the package refers to,
    references inside the name's own definition not counted."""
    defined, used = set(), set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            names = set(_names(top))
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names.discard(top.name)
                if not top.name.startswith("_"):
                    defined.add(top.name)
            used |= names
    return defined - used


def test_unreached_names_are_exactly_the_listed_ones():
    assert unreached() == set(SERVES)


def unreached_methods():
    """(class, method) for every public method of a public class whose
    name no code in the package refers to, references inside the
    method's own body not counted.  Names are matched alone, so a method
    counts as used wherever an attribute of that name is read."""
    used, methods = Counter(), []
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        used += _names(tree)
        methods += [(cls.name, fn.name, _names(fn)[fn.name])
                    for cls in ast.walk(tree)
                    if isinstance(cls, ast.ClassDef)
                    and not cls.name.startswith("_")
                    for fn in cls.body if isinstance(fn, ast.FunctionDef)
                    and not fn.name.startswith("_")]
    return {(cls, name) for cls, name, own in methods if used[name] == own}


def test_unreached_methods_are_exactly_the_listed_ones():
    assert unreached_methods() == set(METHOD_SERVES)


def ignored_parameters():
    """(module, function, parameter) for every parameter, self and cls
    excepted, that the body of its function or lambda never reads."""
    out = set()
    for path in SRC.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p]
            read = {n.id for n in ast.walk(fn)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out |= {(path.stem, getattr(fn, "name", "<lambda>"), p.arg)
                    for p in params
                    if p.arg not in ("self", "cls") and p.arg not in read}
    return out


def test_every_parameter_is_read():
    assert ignored_parameters() == set()


def _defaulted(fn, method):
    """(name, position) of each parameter of fn that has a default; the
    position counts the arguments a call passes, a method's first one
    not counted, and is None for a keyword-only parameter."""
    a = fn.args
    pos = a.posonlyargs + a.args
    skip = 1 if method else 0
    out = [(p.arg, i - skip)
           for i, p in enumerate(pos) if i >= len(pos) - len(a.defaults)]
    return out + [(p.arg, None)
                  for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]


def unpassed_defaults():
    """(module, function, parameter) for every parameter with a default
    that no call in the package or the tests passes, by position or by
    keyword.  Calls are matched by the called name, a constructor by its
    class name (`cls(...)` in the class's own body included); a call
    with *args passes every positional parameter, one with **kwargs
    every parameter."""
    calls = {}
    for path in list(SRC.glob("*.py")) + list((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(call): cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for call in ast.walk(cls)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = getattr(f, "id", None) or getattr(f, "attr", None)
            if name == "cls":
                name = owner.get(id(call), name)
            starred = any(isinstance(x, ast.Starred) for x in call.args)
            calls.setdefault(name, []).append((
                float("inf") if starred else len(call.args),
                {k.arg for k in call.keywords},
                any(k.arg is None for k in call.keywords)))
    out = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        methods = {id(fn): cls.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for fn in cls.body
                   if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = methods.get(id(fn))
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in fn.decorator_list)
            name = cls if fn.name == "__init__" else fn.name
            for param, at in _defaulted(fn, cls and not static):
                if not any(param in kws or star
                           or (at is not None and npos > at)
                           for npos, kws, star in calls.get(name, ())):
                    out.add((path.stem, fn.name, param))
    return out


def test_every_default_is_overridden_somewhere():
    assert unpassed_defaults() == set()
