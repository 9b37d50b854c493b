"""The library surface of padicwf: every public top-level function and
class is used somewhere in the package, or is named in SERVES with the
command, acceptance criterion or README claim it backs; and no function
accepts a parameter that it then ignores."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "padicwf"

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


def unreached():
    """Public top-level names that no code in the package refers to,
    references inside the name's own definition not counted."""
    defined, used = set(), set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            names = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(top)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names.discard(top.name)
                if not top.name.startswith("_"):
                    defined.add(top.name)
            used |= names
    return defined - used


def test_unreached_names_are_exactly_the_listed_ones():
    assert unreached() == set(SERVES)


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
