import random

import pytest
from hypothesis import given, strategies as st

from padicwf.ffield import (is_prime, least_nonresidue, prime_field,
                            quad_field)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_least_nonresidue():
    # brute-force cross-check: n is a non-residue and everything below is
    # either 0, 1 or a residue
    for p in (3, 5, 23):
        n = least_nonresidue(p)
        squares = {(x * x) % p for x in range(p)}
        assert n not in squares
        assert all(m in squares for m in range(1, n))


@pytest.mark.parametrize("p", [3, 5, 23])
def test_prime_field_axioms(p):
    F = prime_field(p)
    xs = list(F.elements())
    assert len(xs) == p
    for a in xs:
        assert a + F.zero == a
        assert a * F.one == a
        assert a - a == F.zero
        if a:
            assert a * a.inv() == F.one
        assert a.conj() == a


@pytest.mark.parametrize("p", [3, 5, 23])
def test_quad_field_axioms(p):
    E = quad_field(p)
    rng = random.Random(0)
    for _ in range(50):
        a, b = E.random(rng), E.random(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b).conj() == a.conj() + b.conj()
        assert (a * b).conj() == a.conj() * b.conj()
        if a:
            assert a * a.inv() == E.one
    # Frobenius is x -> x^p and has order 2
    for a in list(E.elements())[: p * p]:
        assert a.conj() == a ** p
        assert a.conj().conj() == a


def test_quad_field_tower():
    E = quad_field(5)
    F = E.base
    a = F(3)
    b = E((1, 2))
    assert a + b == E((4, 2))
    assert b * a == E((3, 6))
    # trace and norm land in the base field and match the formulas
    assert b.trace() == F(2)
    assert b.norm() == E((1, 2)) * E((1, 2)).conj()


def test_trace_zero_line():
    E = quad_field(3)
    g = E.gen
    assert g.trace() == E.base(0)
    assert g  # nonzero


@given(st.integers(), st.integers())
def test_prime_field_hom(x, y):
    F = prime_field(23)
    assert F(x) + F(y) == F(x + y)
    assert F(x) * F(y) == F(x * y)


def test_gen_squares_to_nonresidue():
    for p in (3, 5, 23):
        E = quad_field(p)
        assert E.gen * E.gen == E(E.n)
        # s is not in the base field image
        assert E.gen.v[1] != 0
