import random

import pytest
from hypothesis import given, strategies as st

from padicwf.ffield import (ExtField, is_prime, least_nonresidue,
                            prime_field, quad_field)


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


# -- extension fields ----------------------------------------------------


@pytest.mark.parametrize("p,d", [(3, 2), (3, 3), (5, 2)])
def test_ext_field_axioms(p, d):
    K = ExtField(p, d)
    rng = random.Random(p * 10 + d)
    for _ in range(40):
        a, b, c = (rng.randrange(K.q) for _ in range(3))
        assert K.mul[a][K.add[b][c]] == K.add[K.mul[a][b]][K.mul[a][c]]
        assert K.add[a][K.neg[a]] == 0
        if a:
            assert K.mul[a][K.inv[a]] == 1
    squares = set(K.mul[a][a] for a in range(K.q))
    for s in range(K.q):
        if K.sqrt[s] is not None:
            assert K.mul[K.sqrt[s]][K.sqrt[s]] == s
        else:
            assert s not in squares


def test_ext_field_frobenius_fixed_field():
    K = ExtField(3, 2)
    fixed = [a for a in range(K.q)
             if K.mul[a][K.mul[a][a]] == a]  # a^3 = a
    assert sorted(fixed) == [0, 1, 2]


@pytest.mark.parametrize("p,d,message", [
    (2, 1, "p = 2 is not an odd prime"),
    (9, 1, "p = 9 is not an odd prime"),
    (1, 1, "p = 1 is not an odd prime"),
    (3, 0, "extension degree 0 not supported"),
    (3, 4, "extension degree 4 not supported"),
])
def test_ext_field_rejects_unsupported(p, d, message):
    with pytest.raises(ValueError, match=message):
        ExtField(p, d)


def test_ext_field_arrays_match_tables():
    K = ExtField(3, 2)
    add, mul, neg = K.arrays()
    assert add.tolist() == K.add and mul.tolist() == K.mul
    assert neg.tolist() == K.neg
    assert K.arrays()[0] is add
