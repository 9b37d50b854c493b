import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicwf import linalg as la
from padicwf.localfield import LocalField, LocalScalar


F = LocalField(23)
E_UR = F.unramified_quadratic()
E_RAM = F.ramified_quadratic()


def rand_scalar(field, rng):
    terms = {}
    for _ in range(rng.randrange(4)):
        v = Fraction(rng.randrange(-6, 10), field.e)
        terms[v] = field.residue.random(rng)
    return field.scalar(terms)


@pytest.mark.parametrize("field", [F, E_UR, E_RAM])
def test_ring_axioms(field):
    rng = random.Random(7)
    for _ in range(40):
        a = rand_scalar(field, rng)
        b = rand_scalar(field, rng)
        c = rand_scalar(field, rng)
        assert not ((a + b) - b - a)
        assert not ((a * b) - (b * a))
        assert not ((a * (b + c)) - (a * b + a * c))


def test_val_and_residue():
    a = F.scalar({-1: 3, 0: 5})
    assert a.val() == -1
    assert a.residue_at(-1) == F.residue(3)
    assert a.residue_at(2) == F.residue(0)
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
            if len(a.terms) != 1:
                continue
            assert a * a.inv() == field.one()


@pytest.mark.parametrize("field", [F, E_UR, E_RAM])
def test_inverse_is_exact_and_for_monomials_only(field):
    # the inverse of t^v is the one term t^-v, with no tail; 1 + t has
    # no finite inverse
    step = Fraction(1, field.e)
    for v in (1, 2, 3):
        x = field.uniformizer() ** -v
        assert x.terms == ((-v * step, field.residue.one),)
        assert not (x - field.scalar({-v * step: 1}))
        assert repr(x) == "%s^%d" % (field.uname, -v)
    with pytest.raises(ValueError, match="not a monomial"):
        (field.one() + field.uniformizer()).inv()
    with pytest.raises(ZeroDivisionError):
        field.zero().inv()


def test_conj_unramified():
    E = E_UR
    s = E.residue.gen
    a = E.scalar({0: s, 1: (1, 1)})
    b = a.conj()
    assert b.residue_at(0) == -s
    assert b.residue_at(1) == E.residue((1, -1))
    # conj is an involution and fixes the base
    assert not ((a.conj().conj()) - a)


def test_conj_ramified():
    w = E_RAM.uniformizer()
    assert not ((w.conj()) + w)
    t = w * w
    assert not ((t.conj()) - t)
    # norm of w is -t, a uniformizer of the base
    nm = w * w.conj()
    assert nm.val() == 1
    assert nm.residue_at(1) == E_RAM.residue(-1)


def test_parse_roundtrip():
    a = F.parse("3*t^-1 + 5")
    assert a.val() == -1
    assert a.residue_at(-1) == F.residue(3)
    assert a.residue_at(0) == F.residue(5)

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
    assert b.residue_at(0) == F.residue(1)


def test_equality_semantics():
    a = F.parse("1 + t^4")
    assert a == F.parse("t^4 + 1")  # one scalar, one `terms`
    assert not (a == F.one())  # no term is hidden
    assert F.one() == 1 and F.zero() == 0


@pytest.mark.parametrize("text", ["1 + O(t^3)", "O(t)", "2*t^-1 + O(t^0)"])
def test_parse_refuses_a_precision_term(text):
    with pytest.raises(ValueError, match="only exact scalars"):
        F.parse(text)


@pytest.mark.parametrize("field", [F, E_UR, E_RAM])
def test_only_the_exact_zero_is_falsy(field):
    assert not field.zero()
    rng = random.Random(3)
    for _ in range(40):
        a = rand_scalar(field, rng)
        assert bool(a) == bool(a.terms)


def test_rref_and_mat_mul_follow_the_zero_contract():
    """rref passes over a zero for a pivot; mat_mul leaves an entry that
    only zeros reach zero."""
    z, one, t = F.zero(), F.one(), F.uniformizer()
    rows, pivots, det = la.rref(la.mat([[z, one], [t, z]]))
    assert pivots == [0, 1] and det == -t
    p = la.mat_mul(la.mat([[z, t], [one, z]]),
                   la.mat([[z, z], [one, z]]))
    assert p[0][0] == t and not p[1][0]
    assert all(not e for e in (p[0][1], p[1][1]))


# -- exact fast paths ----------------------------------------------------
#
# `==`, `*` and `+` take a shortcut on zeros, monomials and one field
# object.  The references below are the general route: equality as a
# zero difference, and the sum and product accumulated term by term in
# a dict.

F3 = LocalField(3)
FAST_PATH_FIELDS = [F3, F3.unramified_quadratic(), F3.ramified_quadratic(),
                    F, E_UR, E_RAM]


@st.composite
def scalars(draw, field):
    """A scalar, often zero or a monomial, valuations on a short range
    so that terms meet and cancel."""
    res = field.residue
    coeff = st.builds(res.from_coords,
                      st.lists(st.integers(0, res.p - 1), min_size=2,
                               max_size=2))
    size = draw(st.sampled_from([0, 1, 1, 2, 3]))
    return field.scalar({Fraction(draw(st.integers(-4, 4)), field.e):
                         draw(coeff) for _ in range(size)})


@st.composite
def scalar_pairs(draw):
    field = draw(st.sampled_from(FAST_PATH_FIELDS))
    return draw(scalars(field)), draw(scalars(field))


def dict_sum(a, b):
    """The terms of a + b by the general route."""
    acc = {}
    for v, c in a.terms + b.terms:
        acc[v] = acc.get(v, a.field.residue.zero) + c
    return tuple(sorted((v, c) for v, c in acc.items() if c))


def dict_product(a, b):
    """The terms of a * b by the general route."""
    acc = {}
    for v1, c1 in a.terms:
        for v2, c2 in b.terms:
            acc[v1 + v2] = acc.get(v1 + v2, a.field.residue.zero) + c1 * c2
    return tuple(sorted((v, c) for v, c in acc.items() if c))


@settings(max_examples=300, deadline=None)
@given(scalar_pairs())
def test_fast_paths_match_the_general_route(pair):
    a, b = pair
    s, m = a + b, a * b
    assert s.terms == dict_sum(a, b)
    assert m.terms == dict_product(a, b)
    assert (a == b) == (not (a - b).terms)
    assert (a == a) and (s == b + a)


@settings(max_examples=300, deadline=None)
@given(scalar_pairs())
def test_equality_fast_path_matches_the_general_route(pair):
    """`==` on the terms of two scalars of one field object agrees with
    a zero difference, and with the same comparison against a copy of
    the field."""
    a, b = pair
    copy = LocalField(b.field.q, b.field.kind)
    b2 = LocalScalar(copy, b.terms)
    assert (a == b) == (a == b2) == (not (a - b).terms) == (b == a)


def test_fast_paths_apply_to_exact_operands_only():
    zero = F.zero()
    a, b = F.parse("2*t^-1"), F.parse("3*t^2")
    assert a + zero is a and zero + a is a
    assert (a * b).terms == ((1, F.residue(6)),)


@st.composite
def monomial_pairs(draw):
    """Two exact monomials of one unramified or ramified field, on a short
    range of valuations; the second is often the negative of the
    first."""
    field = draw(st.sampled_from([E_UR, E_RAM, F3.unramified_quadratic(),
                                  F3.ramified_quadratic()]))
    res = field.residue
    coeff = st.builds(res.from_coords,
                      st.lists(st.integers(1, res.p - 1), min_size=2,
                               max_size=2))
    a, b = (field.scalar({Fraction(draw(st.integers(-2, 2)), field.e):
                          draw(coeff)}) for _ in range(2))
    return a, draw(st.sampled_from([b, -a]))


@settings(max_examples=300, deadline=None)
@given(monomial_pairs())
def test_monomial_sum_matches_the_general_route(pair):
    a, b = pair
    assert len(a.terms) == len(b.terms) == 1
    for s, x, y in ((a + b, a, b), (b + a, b, a), (a - b, a, -b)):
        assert s.terms == dict_sum(x, y)
        assert bool(s) == bool(s.terms)


@pytest.mark.parametrize("field", [E_UR, E_RAM])
def test_monomial_sum_cancels_exactly_and_keeps_precision(field):
    res, step = field.residue, Fraction(1, field.e)
    a = field.scalar({step: res(3)})
    for z in (a + (-a), a - a, -a + a):
        assert not z and z.terms == ()
