import operator
import random
from fractions import Fraction
from itertools import permutations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense
import newton
from padicwf import linalg as la
from padicwf.ffield import ExtField, ext_field, prime_field, quad_field
from padicwf.localfield import LocalField, LocalScalar


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
            assert dense.poly_eval(f, x, F) == det_bruteforce(xi, F)


def test_cayley_hamilton():
    for field in (prime_field(5), quad_field(3)):
        rng = random.Random(9)
        for n in (2, 3, 4):
            a = rand_mat(field, n, rng)
            f = la.charpoly(a, field)
            z = dense.poly_eval_mat(f, a, field)
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
    for K in (ExtField(3, 2), ExtField(23, 1)):
        yield (K, K.ops, lambda a, b, K=K: K.add[a][b],
               lambda rng, K=K: rng.randrange(K.q))
    # the prime field liealg solves over, at a size whose tables nothing
    # reads: its sums are taken mod p
    K = ext_field(10007, 1)
    yield (K, K.ops, lambda a, b: (a + b) % 10007,
           lambda rng: rng.randrange(10007))


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
        ai = newton.mat_inv(a, F)
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
    rad = newton.poly_radical(f, F)
    assert la.poly_trim(rad) == lift(2, 0, 1)

    # a p-th power: f = (x^2+1)^3 over F_3 has zero derivative
    g = lift(1, 0, 1)
    f = la.poly_mul(g, la.poly_mul(g, g, F), F)
    rad = newton.poly_radical(f, F)
    assert rad == la.poly_monic(g)


def test_factor_poly_degree_one_and_constant():
    F = quad_field(23)
    # 2x + 3 is its own factor, made monic: x + 3/2 = x + 13
    assert la.factor_poly([F(3), F(2)], F) == [([F(13), F.one], 1)]
    assert la.factor_poly([F(3)], F) == []


SQF_FIELDS = [prime_field(3), prime_field(5), quad_field(3)]


@st.composite
def factored_polys(draw):
    """A field and a monic f with irreducible divisors of degree at most
    2: a product of monic linear and quadratic powers, multiplicities up
    to p + 1, the whole raised to the p-th power or not."""
    F = draw(st.sampled_from(SQF_FIELDS))
    elts = list(F.elements())
    f = [F.one]
    for _ in range(draw(st.integers(0, 3))):
        g = draw(st.lists(st.sampled_from(elts), min_size=1, max_size=2))
        for _ in range(draw(st.integers(1, F.p + 1))):
            f = la.poly_mul(f, g + [F.one], F)
    if draw(st.booleans()):
        # f^p = f(x^p) with each coefficient raised to the p-th power
        fp = [F.zero] * (F.p * (len(f) - 1) + 1)
        fp[::F.p] = [c ** F.p for c in f]
        f = fp
    return F, f


def _monic_irreducibles_to_degree_2(F):
    elts = list(F.elements())
    linear = [[a, F.one] for a in elts]
    quadratic = [[a, b, F.one] for a in elts for b in elts
                 if all(a + b * x + x * x for x in elts)]
    return linear + quadratic


@settings(max_examples=60, deadline=None)
@given(factored_polys())
def test_squarefree_decomposition_properties(case):
    F, f = case
    parts = la.squarefree_decomposition(f, F)
    prod = [F.one]
    for g, m in parts:
        for _ in range(m):
            prod = la.poly_mul(prod, g, F)
    assert prod == la.poly_monic(f)
    for k, (g, _) in enumerate(parts):
        assert la.poly_deg(g) > 0 and g == la.poly_monic(g)
        assert la.poly_deg(la.poly_gcd(g, la.poly_deriv(g, F), F)) == 0
        for h, _ in parts[k + 1:]:
            assert la.poly_deg(la.poly_gcd(g, h, F)) == 0
    # the radical against a brute-force product of the monic irreducible
    # divisors, all of degree at most 2 by construction
    want = [F.one]
    for h in _monic_irreducibles_to_degree_2(F):
        if la.poly_deg(la.poly_divmod(f, h, F)[1]) < 0:
            want = la.poly_mul(want, h, F)
    assert newton.poly_radical(f, F) == want


def test_bracket_and_trace():
    F = prime_field(5)
    rng = random.Random(1)
    a, b = rand_mat(F, 3, rng), rand_mat(F, 3, rng)
    br = la.bracket(la.sparse(a), la.sparse(b))
    assert not sum((br.get((i, i), F.zero) for i in range(3)), F.zero)


# -- the sparse matrix kernels against the dense reference -------------


def dense_mul(a, b):
    """The product by the full triple loop, every entry pair included."""
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = a[i][0] * b[0][j]
            for l in range(1, k):
                s = s + a[i][l] * b[l][j]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def dense_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def dense_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def dense_scale(c, a):
    return tuple(tuple(c * x for x in r) for r in a)


def identical(x, y):
    """Same entry: for a LocalScalar the same terms."""
    if isinstance(x, LocalScalar):
        return isinstance(y, LocalScalar) and x.terms == y.terms
    return type(x) is type(y) and x == y


Q23 = LocalField(23)
LOCAL_23 = (Q23, Q23.unramified_quadratic(), Q23.ramified_quadratic())


@st.composite
def local_entries(draw, E):
    """Zeros and nonzero scalars, with the zeros drawn most often, as in
    graded monomial lifts."""
    if draw(st.sampled_from(["zero"] * 3 + ["scalar"] * 2)) == "zero":
        return E.zero()
    val = st.integers(-4, 6).map(lambda k: Fraction(k, E.e))
    return E.scalar(draw(st.dictionaries(val, nonzero(E.residue),
                                         min_size=1, max_size=3)))


def nonzero(F):
    return st.sampled_from([x for x in F.elements() if x])


def ff_entries(F):
    return st.one_of(st.just(F.zero), st.just(F.zero), nonzero(F))


FRACTION_ENTRIES = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))

ENTRY_KINDS = ([local_entries(E) for E in LOCAL_23]
               + [ff_entries(prime_field(23)), ff_entries(quad_field(23)),
                  FRACTION_ENTRIES])


@st.composite
def kernel_operands(draw):
    """(a, a2, b, c): a and a2 of one shape n x k, b of shape k x m and a
    scalar c, all over one representation; n, k, m from 1 to 7."""
    entry = draw(st.sampled_from(ENTRY_KINDS))
    n, k, m = (draw(st.integers(1, 7)) for _ in range(3))

    def matrix(rows, cols):
        return la.mat([[draw(entry) for _ in range(cols)]
                       for _ in range(rows)])

    return matrix(n, k), matrix(n, k), matrix(k, m), draw(entry)


@settings(max_examples=150, deadline=None)
@given(kernel_operands())
def test_kernels_match_dense_reference(ops):
    """Skipping zeros changes no entry: the terms of each LocalScalar
    entry are those of the dense loop."""
    a, a2, b, c = ops
    for got, want in [(la.mat_mul(a, b), dense_mul(a, b)),
                      (la.mat_add(a, a2), dense_add(a, a2)),
                      (la.mat_sub(a, a2), dense_sub(a, a2)),
                      (la.mat_scale(c, a), dense_scale(c, a))]:
        assert len(got) == len(want)
        for rg, rw in zip(got, want):
            assert len(rg) == len(rw)
            assert all(identical(x, y) for x, y in zip(rg, rw))


@st.composite
def bracket_operands(draw):
    """Two square matrices over one representation, n from 1 to 7."""
    entry = draw(st.sampled_from(ENTRY_KINDS))
    n = draw(st.integers(1, 7))
    return tuple(la.mat([[draw(entry) for _ in range(n)] for _ in range(n)])
                 for _ in range(2))


@settings(max_examples=150, deadline=None)
@given(bracket_operands())
def test_sparse_bracket_matches_dense_reference(ops):
    """The bracket of the nonzero entries holds an entry exactly where
    the dense products' difference is not zero, and that entry, its
    terms included."""
    a, b = ops
    got = la.bracket(la.sparse(a), la.sparse(b))
    want = dense_sub(dense_mul(a, b), dense_mul(b, a))
    assert set(got) == set(la.sparse(want))
    for key, x in got.items():
        assert identical(x, want[key[0]][key[1]])
    assert got == la.sparse(dense.bracket(a, b))


def test_mat_sub_keeps_exact_zeros():
    E = Q23.ramified_quadratic()
    z, one = E.zero(), E.one()
    d = la.mat_sub(((z, one),), ((z, z),))
    assert d[0][0] is z and d[0][1] is one
