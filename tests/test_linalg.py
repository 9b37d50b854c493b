import operator
import random
from fractions import Fraction
from itertools import permutations
from types import SimpleNamespace

import pytest

from padicwf import linalg as la
from padicwf import springerlab as sl
from padicwf.ffield import prime_field, quad_field


def rand_mat(field, n, rng):
    return tuple(tuple(field.random(rng) for _ in range(n))
                 for _ in range(n))


def det_bruteforce(a, field):
    n = len(a)
    s = la.fzero(field)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        term = la.fone(field)
        for i in range(n):
            term = term * a[i][perm[i]]
        s = s + (term if sign == 1 else -term)
    return s


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 4), (23, 3)])
def test_charpoly_matches_det(p, n):
    """charpoly(a)(x) must equal det(xI - a) at every field point."""
    F = prime_field(p)
    rng = random.Random(n * p)
    for _ in range(5):
        a = rand_mat(F, n, rng)
        f = la.charpoly(a, F)
        assert len(f) == n + 1 and f[-1] == F.one
        for x in F.elements():
            xi = la.mat_sub(la.mat_scale(x, la.identity(F, n)), a)
            assert la.poly_eval(f, x, F) == det_bruteforce(xi, F)


def test_cayley_hamilton():
    for field in (prime_field(5), quad_field(3)):
        rng = random.Random(9)
        for n in (2, 3, 4):
            a = rand_mat(field, n, rng)
            f = la.charpoly(a, field)
            z = la.poly_eval_mat(f, a, field)
            assert z == la.zero_mat(field, n)


def field_kinds():
    """(field, ops, add, random element) for every element representation
    the kernel serves: Fractions, ffield objects and ExtField codes."""
    rationals = SimpleNamespace(zero=Fraction(0), one=Fraction(1))
    yield (rationals, la.Q_OPS, operator.add,
           lambda rng: Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
           if rng.random() < 0.5 else rng.randrange(-3, 4))
    for F in (prime_field(5), quad_field(3)):
        yield F, la.FF_OPS, operator.add, F.random
    for K in (sl.ExtField(3, 2), sl.ExtField(23, 1)):
        yield (K, K.ops, lambda a, b, K=K: K.add[a][b],
               lambda rng, K=K: rng.randrange(K.q))


def leibniz_det(a, field, ops, add):
    sub, mul, _ = ops
    s = la.fzero(field)
    for perm in permutations(range(len(a))):
        term = la.fone(field)
        for i, j in enumerate(perm):
            term = mul(term, a[i][j])
        inversions = sum(perm[i] > perm[j] for i in range(len(a))
                         for j in range(i + 1, len(a)))
        s = sub(s, term) if inversions % 2 else add(s, term)
    return s


def test_rank_kernel_solve():
    for field, ops, add, rand in field_kinds():
        mul = ops[1]
        z, o = la.fzero(field), la.fone(field)

        def apply(a, v):
            out = []
            for row in a:
                s = z
                for x, y in zip(row, v):
                    s = add(s, mul(x, y))
                out.append(s)
            return out

        rng = random.Random(3)
        for _ in range(30):
            n, m = rng.randrange(1, 5), rng.randrange(1, 5)
            # zero entries often enough that many samples lose rank
            a = [[rand(rng) if rng.random() < 0.6 else z for _ in range(m)]
                 for _ in range(n)]
            r = la.rank(a, ops)
            ker = la.kernel_basis(a, field, ops)
            assert r + len(ker) == m
            assert not ker or la.rank(ker, ops) == len(ker)
            for v in ker:
                assert not any(apply(a, v))
            # a x = a e for a random vector e must be solvable
            e = [rand(rng) for _ in range(m)]
            b = apply(a, e)
            x = la.solve(a, b, field, ops)
            assert x is not None and apply(a, x) == b
            assert la.solve(a + [[z] * m], b + [o], field, ops) is None
            if n == m:
                det = la.rref(a, ops)[2]
                assert det == leibniz_det(a, field, ops, add)
                assert bool(det) == (r == n)


def test_mat_inv():
    F = prime_field(23)
    rng = random.Random(4)
    for n in (1, 2, 3, 5):
        while True:
            a = rand_mat(F, n, rng)
            if la.rank(a) == n:
                break
        ai = la.mat_inv(a, F)
        assert la.mat_mul(a, ai) == la.identity(F, n)


def test_poly_gcd_and_radical():
    F = prime_field(3)
    x = [F.zero, F.one]  # the polynomial x

    def lift(*coeffs):
        return [F(c) for c in coeffs]

    # f = (x+1)^3 * (x+2): radical should be (x+1)(x+2) = x^2 + 2
    f = la.poly_mul(
        la.poly_mul(lift(1, 1), la.poly_mul(lift(1, 1), lift(1, 1), F), F),
        lift(2, 1), F)
    rad = la.poly_radical(f, F)
    assert la.poly_trim(rad) == lift(2, 0, 1)

    # a p-th power: f = (x^2+1)^3 over F_3 has zero derivative
    g = lift(1, 0, 1)
    f = la.poly_mul(g, la.poly_mul(g, g, F), F)
    rad = la.poly_radical(f, F)
    assert rad == la.poly_monic(g, F)


def test_poly_roots():
    F = prime_field(5)
    # x^2 - 1 has roots 1 and 4
    f = [F(-1), F(0), F(1)]
    roots = la.poly_roots(f, F)
    assert sorted(r.v for r in roots) == [1, 4]


def test_bracket_and_trace():
    F = prime_field(5)
    rng = random.Random(1)
    a, b = rand_mat(F, 3, rng), rand_mat(F, 3, rng)
    assert not la.trace(la.bracket(a, b))
