import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicwf import linalg as la
from padicwf.localfield import LocalField, PrecisionError


F = LocalField(23)
E_UR = F.unramified_quadratic()
E_RAM = F.ramified_quadratic()


def rand_scalar(field, rng, exact=False):
    terms = {}
    for _ in range(rng.randrange(4)):
        v = Fraction(rng.randrange(-6, 10), field.e)
        terms[v] = field.residue.random(rng)
    prec = None if exact else Fraction(rng.randrange(10, 16), field.e)
    return field.scalar(terms, prec)


@pytest.mark.parametrize("field", [F, E_UR, E_RAM])
def test_ring_axioms(field):
    rng = random.Random(7)
    for _ in range(40):
        a = rand_scalar(field, rng)
        b = rand_scalar(field, rng)
        c = rand_scalar(field, rng)
        assert ((a + b) - b - a).is_zero_weak()
        assert ((a * b) - (b * a)).is_zero_weak()
        assert ((a * (b + c)) - (a * b + a * c)).is_zero_weak()


def test_val_and_residue():
    a = F.scalar({-1: 3, 0: 5}, prec=4)
    assert a.val() == -1
    assert a.residue_at(-1) == F.residue(3)
    assert a.residue_at(2) == F.residue(0)
    with pytest.raises(PrecisionError):
        a.residue_at(4)
    z = F.zero(prec=3)
    with pytest.raises(PrecisionError):
        z.val()
    assert F.zero().val() is None


def test_uniformizer_valuations():
    assert F.uniformizer().val() == 1
    assert E_RAM.uniformizer().val() == Fraction(1, 2)
    w = E_RAM.uniformizer()
    assert (w * w).val() == 1


def test_inverse():
    rng = random.Random(1)
    for field in (F, E_UR, E_RAM):
        for _ in range(25):
            a = rand_scalar(field, rng)
            if not a.terms:
                continue
            prod = a * a.inv()
            assert prod.residue_at(0) == field.residue.one
            # all other visible coefficients vanish
            assert all(v == 0 for v, _ in prod.terms)


def test_inverse_of_exact_uses_default_precision():
    a = F.scalar({0: 1, 1: 1})  # 1 + t, exact
    inv = a.inv()
    assert inv.prec is not None
    # geometric series: coefficients alternate +-1
    for k in range(5):
        assert inv.residue_at(k) == F.residue((-1) ** k)


def test_conj_unramified():
    E = E_UR
    s = E.residue.gen
    a = E.scalar({0: s, 1: (1, 1)})
    b = a.conj()
    assert b.residue_at(0) == -s
    assert b.residue_at(1) == E.residue((1, -1))
    # conj is an involution and fixes the base
    assert ((a.conj().conj()) - a).is_zero_weak()


def test_conj_ramified():
    w = E_RAM.uniformizer()
    assert ((w.conj()) + w).is_zero_weak()
    t = w * w
    assert ((t.conj()) - t).is_zero_weak()
    # norm of w is -t, a uniformizer of the base
    nm = w * w.conj()
    assert nm.val() == 1
    assert nm.residue_at(1) == E_RAM.residue(-1)


def test_precision_propagation():
    a = F.scalar({0: 1}, prec=3)
    b = F.scalar({2: 1}, prec=5)
    assert (a + b).prec == 3
    assert (a * b).prec == 5  # min(3+2, 5+0)
    c = F.scalar({-2: 1}, prec=3)
    assert (a * c).prec == 1


def test_parse_roundtrip():
    a = F.parse("3*t^-1 + 5 + O(t^4)")
    assert a.val() == -1
    assert a.residue_at(-1) == F.residue(3)
    assert a.residue_at(0) == F.residue(5)
    assert a.prec == 4

    b = E_RAM.parse("w^-2 + 2*w")
    assert b.val() == -1
    assert b.residue_at(Fraction(1, 2)) == E_RAM.residue(2)

    c = E_UR.parse("(1+2*s)*t^2 - t")
    assert c.residue_at(2) == E_UR.residue((1, 2))
    assert c.residue_at(1) == E_UR.residue(-1)

    d = F.parse("-t + 1")
    assert d.residue_at(1) == F.residue(-1)


def test_shift_and_truncate():
    a = F.parse("1 + t + t^2")
    b = a.shift(-1)
    assert b.val() == -1
    c = b.truncate(1)
    assert c.prec == 1
    assert c.residue_at(0) == F.residue(1)


def test_equality_semantics():
    a = F.parse("1 + O(t^3)")
    b = F.parse("1 + O(t^5)")
    assert a == b  # agree on the joint window
    c = F.parse("1 + t^4 + O(t^5)")
    assert a == c  # the t^4 term is hidden below O(t^3): weak equality
    assert not (b == c)


@pytest.mark.parametrize("field", [F, E_UR, E_RAM])
def test_only_the_exact_zero_is_falsy(field):
    assert not field.zero()
    assert field.zero(prec=3)
    rng = random.Random(3)
    for _ in range(40):
        a = rand_scalar(field, rng, exact=rng.random() < 0.5)
        assert a or (not a.terms and a.prec is None)


def test_rref_and_mat_mul_follow_the_zero_contract():
    """rref passes over an exact zero for a pivot but must try an
    O(t^k) zero, whose value it cannot certify; mat_mul leaves an entry
    that only exact zeros reach the exact zero."""
    z, one, t = F.zero(), F.one(), F.uniformizer()
    rows, pivots, det = la.rref(la.mat([[z, one], [t, z]]))
    assert pivots == [0, 1] and det == -t
    with pytest.raises(PrecisionError):
        la.rref(la.mat([[F.zero(prec=3), one], [t, z]]))
    p = la.mat_mul(la.mat([[z, t], [one, z]]),
                   la.mat([[z, z], [F.zero(prec=3), z]]))
    assert not p[1][0] and p[1][0].prec is None
    assert p[0][0] and not p[0][0].terms and p[0][0].prec == 4
    assert all(not e for e in (p[0][1], p[1][1]))


# -- exact fast paths ----------------------------------------------------
#
# `==`, `*` and `+` take a shortcut when both operands are exact.  The
# references below are the general route: equality as no visible
# difference, and the sum and product accumulated term by term in a dict.

F3 = LocalField(3)
FAST_PATH_FIELDS = [F3, F3.unramified_quadratic(), F3.ramified_quadratic(),
                    F, E_UR, E_RAM]


@st.composite
def scalars(draw, field):
    """An exact scalar or one known to O(t^k): often zero or a monomial,
    valuations on a short range so that terms meet and cancel."""
    res = field.residue
    coeff = st.builds(res.from_coords,
                      st.lists(st.integers(0, res.p - 1), min_size=2,
                               max_size=2))
    size = draw(st.sampled_from([0, 1, 1, 2, 3]))
    terms = {Fraction(draw(st.integers(-4, 4)), field.e): draw(coeff)
             for _ in range(size)}
    prec = draw(st.one_of(st.none(), st.integers(-2, 8)))
    return field.scalar(terms, None if prec is None
                        else Fraction(prec, field.e))


@st.composite
def scalar_pairs(draw):
    field = draw(st.sampled_from(FAST_PATH_FIELDS))
    return draw(scalars(field)), draw(scalars(field))


def _min_prec(a, b):
    return b.prec if a.prec is None else a.prec if b.prec is None else \
        min(a.prec, b.prec)


def dict_sum(a, b):
    """(terms, prec) of a + b by the general route."""
    prec = _min_prec(a, b)
    acc = {}
    for v, c in a.terms + b.terms:
        acc[v] = acc.get(v, a.field.residue.zero) + c
    return tuple(sorted((v, c) for v, c in acc.items()
                        if c and (prec is None or v < prec))), prec


def dict_product(a, b):
    """(terms, prec) of a * b by the general route."""
    if (a.prec is None and not a.terms) or (b.prec is None and not b.terms):
        return (), None
    prec = None
    va, vb = a.val_lower_bound(), b.val_lower_bound()
    if a.prec is not None and vb is not None:
        prec = a.prec + vb
    if b.prec is not None and va is not None:
        prec = b.prec + va if prec is None else min(prec, b.prec + va)
    acc = {}
    for v1, c1 in a.terms:
        for v2, c2 in b.terms:
            if prec is None or v1 + v2 < prec:
                acc[v1 + v2] = acc.get(v1 + v2, a.field.residue.zero) + \
                    c1 * c2
    return tuple(sorted((v, c) for v, c in acc.items() if c)), prec


@settings(max_examples=300, deadline=None)
@given(scalar_pairs())
def test_fast_paths_match_the_general_route(pair):
    a, b = pair
    s, m = a + b, a * b
    assert (s.terms, s.prec) == dict_sum(a, b)
    assert (m.terms, m.prec) == dict_product(a, b)
    assert (a == b) == (not (a - b).terms)
    assert (a == a) and (s == b + a)


def test_fast_paths_apply_to_exact_operands_only():
    zero, ozero = F.zero(), F.zero(prec=3)
    a, b = F.parse("2*t^-1"), F.parse("3*t^2")
    assert a + zero is a and zero + a is a
    assert (a + ozero).prec == 3 and (a + ozero).terms == a.terms
    assert (a * b).terms == ((1, F.residue(6)),) and (a * b).prec is None
    # a monomial known to O(t^4) times t^-1: known to O(t^3)
    c = F.scalar({1: 5}, prec=4)
    assert (c * a).terms == ((0, F.residue(10)),) and (c * a).prec == 3
    assert F.scalar({1: 5}) == c and not F.scalar({1: 4}) == c
