"""The library surface of padicwf: every public top-level function and
class is used somewhere in the package, or is named in SERVES with the
command, acceptance criterion or README claim it backs."""

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
    "poly_eval": "test oracle: charpoly against determinants",
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
