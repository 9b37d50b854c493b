import contextlib
import io
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense
import newton
from padicwf import building as bd
from padicwf import cli
from padicwf import liealg as lg
from padicwf import linalg as la
from padicwf import orbits as ob
from padicwf import wavefront as wf
from padicwf.ffield import ExtField, prime_field, quad_field
from padicwf.localfield import LocalField


def mk(field, rows):
    return la.mat([[field(c) for c in row] for row in rows])


def antidiag_gram(field, n, signs=None):
    z, o = field.zero, field.one
    g = [[z] * n for _ in range(n)]
    for i in range(n):
        s = o if signs is None else field(signs[i])
        g[i][n - 1 - i] = s
    return la.mat(g)


# -- factor dimensions -------------------------------------------------


def test_factor_dims():
    F3, F9 = prime_field(3), quad_field(3)
    assert lg.Factor.gl(3, F3).dim() == 9
    assert lg.Factor.gl(2, F9).dim() == 8
    # sp_4: dim 10; so_5: dim 10; so_4: dim 6
    assert lg.Factor.sp(4, F3).dim() == 10
    g5 = la.identity(F3, 5)
    assert lg.Factor.so(5, F3, g5).dim() == 10
    assert lg.Factor.so(4, F3, la.identity(F3, 4)).dim() == 6
    # u_2 over F_9/F_3 with identity gram: dim 4 over F_3
    assert lg.Factor.u(2, F9, la.identity(F9, 2)).dim() == 4
    assert lg.Factor.u(3, F9, la.identity(F9, 3)).dim() == 9


def test_geom_types():
    F3 = prime_field(3)
    assert lg.Factor.gl(3, F3).geom_type() == "A"
    assert lg.Factor.sp(4, F3).geom_type() == "C"
    assert lg.Factor.so(5, F3, la.identity(F3, 5)).geom_type() == "B"
    assert lg.Factor.so(4, F3, la.identity(F3, 4)).geom_type() == "D"
    assert lg.Factor.u(2, quad_field(3),
                       la.identity(quad_field(3), 2)).geom_type() == "A"


def test_algebra_closed_under_bracket():
    F3 = prime_field(3)
    for fac in (lg.Factor.sp(4, F3),
                lg.Factor.so(5, F3, la.identity(F3, 5)),
                lg.Factor.u(2, quad_field(3),
                            la.identity(quad_field(3), 2))):
        basis = fac.algebra_basis()
        for a in basis:
            assert fac.is_lie(a)
            for b in basis:
                assert fac.is_lie(dense.bracket(a, b))


# -- jordan structure --------------------------------------------------


def test_jordan_type():
    F = prime_field(5)
    X = mk(F, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert lg.jordan_type(X) == (2, 1)
    X = mk(F, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert lg.jordan_type(X) == (3,)
    Z = la.zero_mat(F, 4)
    assert lg.jordan_type(Z) == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        lg.jordan_type(la.identity(F, 2))


def test_jordan_type_ad_invariant():
    F = prime_field(5)
    rng = random.Random(7)
    X = mk(F, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    for _ in range(20):
        while True:
            g = tuple(tuple(F.random(rng) for _ in range(3))
                      for _ in range(3))
            if la.rank(g) == 3:
                break
        Y = la.mat_mul(la.mat_mul(g, X), newton.mat_inv(g, F))
        assert lg.jordan_type(Y) == (2, 1)


def test_jordan_decomposition():
    F = prime_field(5)
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(10):
            X = tuple(tuple(F.random(rng) for _ in range(n))
                      for _ in range(n))
            s, nn = newton.jordan_decomposition(X, F)
            assert la.mat_add(s, nn) == X
            assert lg.is_nilpotent(nn)
            assert dense.bracket(s, nn) == la.zero_mat(F, n)
            # semisimple part has squarefree minimal polynomial
            f1 = newton.poly_radical(la.charpoly(s, F), F)
            assert dense.poly_eval_mat(f1, s, F) == la.zero_mat(F, n)


def test_jordan_decomposition_companion():
    # companion matrix of (x-1)^2 (x-2) over F_5
    F = prime_field(5)
    f = la.poly_mul(la.poly_mul([F(-1), F.one], [F(-1), F.one], F),
                    [F(-2), F.one], F)
    n = 3
    C = [[F.zero] * n for _ in range(n)]
    for i in range(1, n):
        C[i][i - 1] = F.one
    for i in range(n):
        C[i][n - 1] = -f[i]
    C = la.mat(C)
    s, nn = newton.jordan_decomposition(C, F)
    assert lg.jordan_type(nn) == (2, 1)


def test_centralizer_dim():
    F = prime_field(5)
    gl3 = lg.Factor.gl(3, F)
    dim = lambda X: len(lg.centralizer_basis(X, gl3))
    E12 = mk(F, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert dim(E12) == 5
    reg = mk(F, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert dim(reg) == 3
    assert dim(la.zero_mat(F, 3)) == 9
    # centralizer dims match partition statistics: sum of (2i-1) m_i'
    # for the dual partition
    for X, lam in ((E12, (2, 1)), (reg, (3,))):
        dual = [sum(1 for p in lam if p >= i)
                for i in range(1, max(lam) + 1)]
        assert dim(X) == sum(d * d for d in dual)


def test_centralizer_and_sl2_at_a_large_prime(monkeypatch):
    # at p = 1,000,003 a p x p table would hold 10^12 entries: both
    # solves must run on the mod-p ops of ext_field(p, 1) alone
    def no_tables(self):
        raise AssertionError("a q x q table at q = %d" % self.q)

    monkeypatch.setattr(ExtField, "_build_tables", no_tables)
    F = prime_field(1000003)
    fac = lg.Factor.gl(3, F)
    X = mk(F, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    zs = lg.centralizer_basis(X, fac)
    assert len(zs) == 3
    assert all(dense.bracket(X, Z) == la.zero_mat(F, 3) for Z in zs)
    assert lg.sl2_complete(X, fac).check(F)


# -- sl2 completion ----------------------------------------------------


def chain_nilpotents():
    """(F, factor, lam, X) for X the chain-aligned nilpotent of each
    non-trivial Jordan type lam in gl_2 and gl_3 over F_3 and F_5."""
    for p in (3, 5):
        F = prime_field(p)
        for n in (2, 3):
            fac = lg.Factor.gl(n, F)
            for lam in ob.partitions_of(n):
                if lam == (1,) * n:
                    continue
                X = [[F.zero] * n for _ in range(n)]
                pos = 0
                for part in lam:
                    for i in range(part - 1):
                        X[pos + i][pos + i + 1] = F.one
                    pos += part
                yield F, fac, lam, la.mat(X)


def sp4_nilpotents():
    """(F, factor, X) for the nonzero nilpotents among 200 random
    elements of sp_4 over F_5."""
    F = prime_field(5)
    fac = lg.Factor.sp(4, F)
    rng = random.Random(3)
    for _ in range(200):
        X = la.mat_comb([F.random(rng) for _ in fac.algebra_basis()],
                        fac.algebra_basis(), F, 4)
        if not lg.is_nilpotent(X):
            continue
        if all(not e for row in X for e in row):
            continue
        if max(lg.jordan_type(X)) > 5:
            continue
        yield F, fac, X


def test_sl2_complete_gl():
    seen = 0
    for F, fac, lam, X in chain_nilpotents():
        if max(lam) > F.p:
            continue  # characteristic too small for the chain
        trip = lg.sl2_complete(X, fac)
        assert trip.check(F)
        seen += 1
    assert seen == 6


def test_sl2_complete_sp4():
    found = 0
    for F, fac, X in sp4_nilpotents():
        trip = lg.sl2_complete(X, fac)
        assert trip.check(F)
        _, h, d = dense.mats(trip, F, 4)
        assert fac.is_lie(h) and fac.is_lie(d)
        found += 1
    assert found > 5


def test_sl2_complete_rejects():
    F = prime_field(5)
    fac = lg.Factor.gl(2, F)
    with pytest.raises(ValueError):
        lg.sl2_complete(la.zero_mat(F, 2), fac)
    with pytest.raises(ValueError):
        lg.sl2_complete(la.identity(F, 2), fac)


def test_sl2_regular_small_characteristic():
    # in good (odd) characteristic a triple exists even when the Jordan
    # block exceeds p; the corrected construction must still find one
    F = prime_field(3)
    fac = lg.Factor.gl(4, F)
    X = mk(F, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    trip = lg.sl2_complete(X, fac)
    assert trip.check(F)


# -- reference: the Jacobson-Morozov solve on FFElt matrices -----------
#
# The route jacobson_morozov and centralizer_basis took before the
# integer codes: brackets of dense ffield matrices, and one row per
# prime-field coordinate of every entry.  The solve on codes must give
# the same triple entry by entry, and fail where this one fails.


def reference_jacobson_morozov(c, basis, field, rows=()):
    n = len(c)
    kp = field.base_or_self()
    rows = list(rows)
    two = la.fone(field) + la.fone(field)
    ad1 = [dense.bracket(c, B) for B in basis]
    sol = la.solve(
        dense.linear_rows([dense.bracket(c, A) for A in ad1], field, n) + rows,
        dense.flat(la.mat_scale(-two, c), field) + [la.fzero(kp)] * len(rows),
        kp)
    if sol is None:
        raise ValueError("characteristic too small")
    d0 = la.mat_comb(sol, basis, field, n)
    h = dense.bracket(c, d0)
    defect = la.mat_add(dense.bracket(h, d0), la.mat_scale(two, d0))
    if all(not e for row in defect for e in row):
        return lg.Sl2Triple(la.sparse(c), la.sparse(h), la.sparse(d0))
    zc = [la.mat_comb(v, basis, field, n) for v in
          la.kernel_basis(dense.linear_rows(ad1, field, n) + rows, kp)]
    imgs = [la.mat_add(dense.bracket(h, Z), la.mat_scale(two, Z))
            for Z in zc]
    sol2 = la.solve(dense.linear_rows(imgs, field, n), dense.flat(defect, field),
                    kp)
    if sol2 is None:
        raise ValueError("characteristic too small")
    d = la.mat_sub(d0, la.mat_comb(sol2, zc, field, n))
    return lg.Sl2Triple(la.sparse(c), la.sparse(h), la.sparse(d))


def reference_centralizer_basis(X, factor):
    ker = la.kernel_basis(
        dense.linear_rows([dense.bracket(X, B)
                         for B in factor.algebra_basis()],
                        factor.field, factor.n),
        factor.field.base_or_self())
    return [la.mat_comb(v, factor.algebra_basis(), factor.field, factor.n)
            for v in ker]


def jm_outcome(solver, c, basis, field, rows=()):
    """The triple a solver returns, or the message of its ValueError."""
    try:
        trip = solver(c, basis, field, rows)
    except ValueError as err:
        return str(err)
    return trip.c, trip.h, trip.d


def assert_same_jm(c, basis, field, rows=()):
    """Both solves on the matrices c and basis, the one on codes given
    their nonzero entries."""
    got = jm_outcome(lg.jacobson_morozov, la.sparse(c),
                     [la.sparse(B) for B in basis], field, rows)
    assert got == jm_outcome(reference_jacobson_morozov, c, basis, field,
                             rows)
    if not isinstance(got, str):
        assert all(e.field is field for M in got for e in M.values())
    return got


def as_matrices(c, basis, field):
    """c and the basis of a recorded call, given by their nonzero
    entries, as n x n matrices for the least n that holds every entry:
    rows and columns past n are zero in c, in the span of the basis and
    in their brackets, so the reference solve on them gives the same
    nonzero entries."""
    n = 1 + max(max(key) for M in [c, *basis] for key in M)
    C, Bs = la.dense(c, field.zero, n), [la.dense(B, field.zero, n)
                                         for B in basis]
    assert la.sparse(C) == c and [la.sparse(B) for B in Bs] == list(basis)
    return C, Bs


def record_jm_calls(run):
    """The arguments of every jacobson_morozov call that run() makes."""
    calls = []
    solve = lg.jacobson_morozov

    def record(*args):
        calls.append(args)
        return solve(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lg, "jacobson_morozov", record)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            run()
    return calls


def test_jm_codes_match_the_reference_on_graph_commands():
    from padicwf import cli

    def run():
        bd._PLANE_CACHE.clear()
        for scenario, cmd, code in (("u7h", "trace", 0), ("sl2", "trace", 0),
                                    ("sl2", "reach", 0), ("u7h", "reach", 0)):
            assert cli.main(["graph", cmd, "--scenario", scenario]) == code

    calls = record_jm_calls(run)
    # every call solves; the u7h lifts over F_23 with Lie rows, the sl2
    # lifts over F_3 without; a facet walks each coset once, whether a
    # trace or a reach asks
    assert len(calls) == 114
    assert {(field.p, bool(rows)) for _, _, field, rows in calls} == \
        {(23, True), (3, False)}
    for c, basis, field, rows in calls:
        assert not isinstance(
            assert_same_jm(*as_matrices(c, basis, field), field, rows), str)


def test_jm_codes_match_the_reference_on_the_lift_test_cosets():
    from padicwf import mpquotient as mpq
    from test_mpquotient import _test_cosets

    calls = record_jm_calls(
        lambda: [mpq.lift_triple(c) for c in _test_cosets()])
    # the u6 coset lifts over F_{23^2} with Lie rows
    assert [(field.q, bool(rows)) for _, _, field, rows in calls] == \
        [(3, False), (23 ** 2, True), (23, True), (23, True)]
    for c, basis, field, rows in calls:
        assert not isinstance(
            assert_same_jm(*as_matrices(c, basis, field), field, rows), str)


def test_jm_codes_match_the_reference_on_sl2_complete_cases():
    outcomes = []
    for F, fac, lam, X in chain_nilpotents():
        outcomes.append(assert_same_jm(X, fac.algebra_basis(), F))
    for F, fac, X in sp4_nilpotents():
        outcomes.append(assert_same_jm(X, fac.algebra_basis(), F))
    F = prime_field(3)
    X = mk(F, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    outcomes.append(assert_same_jm(X, lg.Factor.gl(4, F).algebra_basis(), F))
    assert len(outcomes) > 12


@st.composite
def upper_nilpotents(draw):
    """(F, n, X): X strictly upper triangular in gl_n, n = 3 or 4, over
    F_3, F_5 or F_{3^2}."""
    F = draw(st.sampled_from([prime_field(3), prime_field(5),
                              quad_field(3)]))
    n = draw(st.sampled_from([3, 4]))
    elts = list(F.elements())
    X = [[F.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            X[i][j] = draw(st.sampled_from(elts))
    return F, n, la.mat(X)


@settings(max_examples=60, deadline=None)
@given(upper_nilpotents())
def test_jm_codes_match_the_reference_on_upper_nilpotents(case):
    F, n, X = case
    fac = lg.Factor.gl(n, F)
    assert_same_jm(X, fac.algebra_basis(), F)
    assert lg.centralizer_basis(X, fac) == \
        reference_centralizer_basis(X, fac)


def test_jm_and_centralizer_make_no_ffield_matrix_products(monkeypatch):
    cases = [(prime_field(5), mk(prime_field(5), [[0, 1, 0], [0, 0, 1],
                                                  [0, 0, 0]])),
             (quad_field(3), la.mat([[quad_field(3).zero, quad_field(3).gen],
                                     [quad_field(3).zero] * 2]))]
    facs = [lg.Factor.gl(len(X), F) for F, X in cases]
    for fac in facs:
        fac.algebra_basis()

    def product(*args):
        raise AssertionError("matrix product over ffield elements")

    bracket = la.bracket

    def code_bracket(a, b):
        # the one sparse commutator also serves the integer codes
        assert all(type(x) is int for M in (a, b) for x in M.values()), \
            "matrix product over ffield elements"
        return bracket(a, b)

    monkeypatch.setattr(la, "bracket", code_bracket)
    for name in ("mat_mul", "mat_add", "mat_sub", "mat_scale"):
        monkeypatch.setattr(la, name, product)
    for (F, X), fac in zip(cases, facs):
        lg.jacobson_morozov(la.sparse(X),
                            [la.sparse(B) for B in fac.algebra_basis()], F)
        lg.centralizer_basis(X, fac)


def test_jm_codes_raise_where_the_reference_does():
    F = prime_field(3)
    # ad(c)^2 d0 = -2c has no solution in the span of E_02, E_12, E_20
    c = mk(F, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    basis = la.unit_mats(F, 3, [(0, 2, F.one), (1, 2, F.one),
                                (2, 0, F.one)])
    assert assert_same_jm(c, basis, F) == "characteristic too small"
    # d0 exists, but no element of ker(ad c) in the span corrects it
    c = mk(F, [[0, 2, 0, 2], [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0]])
    units = [(0, 0), (0, 3), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1),
             (2, 2), (3, 1), (3, 2)]
    basis = la.unit_mats(F, 4, [(i, j, F.one) for i, j in units])
    assert la.solve(dense.linear_rows([dense.bracket(c, dense.bracket(c, B))
                                     for B in basis], F, 4),
                    dense.flat(la.mat_scale(F(-2), c), F), F) is not None
    assert assert_same_jm(c, basis, F) == "characteristic too small"


# -- levi data and induced labels --------------------------------------


@st.composite
def conjugated_jordan_forms(draw):
    """(F, lam, X): X = g J g^-1 for J the nilpotent Jordan form of the
    partition lam and g invertible, over F_3 or F_5."""
    F = draw(st.sampled_from([prime_field(3), prime_field(5)]))
    n = draw(st.integers(1, 5))
    lam = draw(st.sampled_from(ob.partitions_of(n)))
    J = [[F.zero] * n for _ in range(n)]
    pos = 0
    for part in lam:
        for i in range(pos, pos + part - 1):
            J[i][i + 1] = F.one
        pos += part
    g = la.mat([[F(draw(st.integers(0, F.p - 1))) for _ in range(n)]
                for _ in range(n)])
    assume(la.rank(g) == n)
    X = la.mat_mul(la.mat_mul(g, la.mat(J)), newton.mat_inv(g, F))
    return F, lam, X


@settings(max_examples=60, deadline=None)
@given(conjugated_jordan_forms())
def test_block_sizes_of_conjugated_jordan_form(case):
    F, lam, X = case
    assert lg.jordan_type(X) == lam
    # one primary part, the polynomial x, carrying the whole Jordan type
    assert lg.primary_parts(X, F) == [([F.zero, F.one], len(X), lam)]


def nilpotent_by_powers(X):
    """Reference: X^k = 0 for some k <= n, one product per power."""
    n = len(X)
    P = X
    for _ in range(n):
        if all(not e for row in P for e in row):
            return True
        P = la.mat_mul(P, X)
    return all(not e for row in P for e in row)


SMALL_FIELDS = (prime_field(3), prime_field(5), prime_field(7),
                quad_field(3), quad_field(5))


@st.composite
def square_matrices(draw, fields=SMALL_FIELDS, zeros=False):
    """(F, X) over one of the fields (default F_3, F_5, F_7, F_9 or
    F_25), n from 1 to 7: often strictly triangular up to a permutation
    of the indices (nilpotent), sometimes with a single diagonal entry
    added, otherwise dense.  With `zeros`, about half the entries drawn
    are zero, so that nilpotents of every Jordan type come up."""
    F = draw(st.sampled_from(fields))
    n = draw(st.integers(1, 7))
    elt = st.builds(F.from_coords,
                    st.lists(st.integers(0, F.p - 1), min_size=2,
                             max_size=2))
    if zeros:
        elt = st.one_of(st.just(F.zero), elt)
    X = [[draw(elt) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(["nilpotent", "near", "dense"]))
    if kind != "dense":
        X = [[x if i < j else F.zero for j, x in enumerate(row)]
             for i, row in enumerate(X)]
        if kind == "near":
            k = draw(st.integers(0, n - 1))
            X[k][k] = F.one
        perm = draw(st.permutations(range(n)))
        X = [[X[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    return F, la.mat(X)


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_is_nilpotent_by_squaring_matches_the_power_loop(case):
    F, X = case
    assert lg.is_nilpotent(X) == nilpotent_by_powers(X)


def jordan_outcomes(X, F):
    """Whether X is nilpotent, its Jordan type or the message of the
    ValueError, and its primary parts: on codes, and by the ffield
    references of `dense`."""
    def outcome(fn):
        try:
            return fn(X)
        except ValueError as err:
            return str(err)
    return ((lg.is_nilpotent(X), outcome(lg.jordan_type),
             lg.primary_parts(X, F)),
            (dense.is_nilpotent(X),
             outcome(lambda Y: dense.block_sizes(Y, 1, len(Y))),
             dense.primary_parts(X, F)))


def test_jordan_route_matches_the_references_on_gl2_f3():
    F = prime_field(3)
    nilpotent = 0
    for entries in product(range(3), repeat=4):
        got, want = jordan_outcomes(mk(F, [entries[:2], entries[2:]]), F)
        assert got == want
        assert got[0] or got[1] == "not nilpotent"
        nilpotent += got[0]
    # q^2 nilpotents in gl_2(F_q)
    assert nilpotent == 9


@settings(max_examples=80, deadline=None)
@given(square_matrices((prime_field(23), quad_field(23)), zeros=True))
def test_jordan_route_matches_the_references_over_f23(case):
    F, X = case
    got, want = jordan_outcomes(X, F)
    assert got == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([prime_field(3), prime_field(5)]), st.integers(1, 4),
       st.data())
def test_primary_parts_fill_the_space(F, n, data):
    X = la.mat([[F(data.draw(st.integers(0, F.p - 1))) for _ in range(n)]
                for _ in range(n)])
    parts = lg.primary_parts(X, F)
    assert all(sum(mu) == m for _, m, mu in parts)
    assert sum(la.poly_deg(p) * sum(mu) for p, _, mu in parts) == n


def test_primary_parts_gl():
    F = prime_field(5)
    # diag(1,1,2) + nilpotent linking the two 1s
    X = mk(F, [[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    # three 1x1 diagonal blocks; the coupled two of eigenvalue 1 make
    # one Jordan block of size 2
    assert lg._diagonal_blocks(X) == [[0], [1], [2]]
    parts = lg.primary_parts(X, F)
    got = sorted((la.poly_deg(p), m, mu) for p, m, mu in parts)
    assert got == [(1, 1, (1,)), (1, 2, (2,))]


def whole_charpoly_parts(X, F):
    """Primary parts read off the factors of the whole characteristic
    polynomial, each with the Jordan type of its primary component."""
    out = []
    for p, m in la.factor_poly(la.charpoly(X, F), F):
        d = la.poly_deg(p)
        pX = dense.poly_eval_mat(p, X, F)
        out.append((p, m, dense.block_sizes(pX, d, d * m)))
    return out


@st.composite
def permuted_block_triangular(draw):
    """A field and a block upper-triangular X, conjugated by a random
    permutation.  Its first two diagonal blocks are a*I plus a strictly
    upper-triangular part, so they share the eigenvalue a, and the entry
    coupling them is nonzero; the other blocks and the entries above the
    diagonal blocks are random."""
    F = draw(st.sampled_from([prime_field(3), prime_field(5),
                              quad_field(3), quad_field(5)]))
    elts = list(F.elements())
    a = draw(st.sampled_from(elts))
    sizes = draw(st.lists(st.integers(1, 2), min_size=2, max_size=4))
    n = sum(sizes)
    starts = [sum(sizes[:k]) for k in range(len(sizes))]
    X = [[F.zero] * n for _ in range(n)]
    for k, (s, size) in enumerate(zip(starts, sizes)):
        for i in range(s, s + size):
            for j in range(s, n):
                X[i][j] = draw(st.sampled_from(elts))
            if k < 2:
                X[i][s:i + 1] = [F.zero] * (i - s) + [a]
    X[starts[1] - 1][starts[1]] = draw(st.sampled_from(elts[1:]))
    perm = draw(st.permutations(range(n)))
    return F, la.mat([[X[perm[i]][perm[j]] for j in range(n)]
                      for i in range(n)])


@settings(max_examples=80, deadline=None)
@given(permuted_block_triangular())
def test_primary_parts_match_whole_charpoly(case):
    F, X = case
    assert sorted(lg.primary_parts(X, F), key=repr) == \
        sorted(whole_charpoly_parts(X, F), key=repr)


def test_induced_label_gl():
    F = prime_field(5)
    fac = lg.Factor.gl(5, F)
    # regular semisimple diagonal: Borel induction gives the regular orbit
    X = la.mat([[F(i + 1) if i == j else F.zero for j in range(5)]
                for i in range(5)])
    assert lg.induced_label(X, fac) == (5,)
    # eigenvalues (1,1,2,3,4): blocks (2,1,1,1)
    X = la.mat([[F(v) if i == j else F.zero
                 for j in range(5)]
                for i, v in enumerate((1, 1, 2, 3, 4))])
    assert lg.induced_label(X, fac) == (4, 1)
    # zero matrix: label [1^5]
    assert lg.induced_label(la.zero_mat(F, 5), fac) == (1, 1, 1, 1, 1)


def test_induced_label_gl_diagonal_with_repeats():
    # a 5x5 diagonal over F_{23^2} with eigenvalues (a, b, c, a, b), the
    # shape of a gl_5 block of a `wf compute` coset with repeated entries:
    # Levi GL_1 x GL_2 x GL_2, zero orbits, induced label (3, 2)
    F = quad_field(23)
    s = F.gen
    fac = lg.Factor.gl(5, F)
    X = la.mat([[v if i == j else F.zero for j in range(5)]
                for i, v in enumerate((16 * s, s, 17 * s, 16 * s, s))])
    assert lg.induced_label(X, fac) == (3, 2)


def test_induced_label_sp():
    F = prime_field(23)
    fac = lg.Factor.sp(6, F)
    # diag(a,0,0,0,0,-a): GL_1 pair x Sp_4 zero -> [2,1,1] doubled...
    X = la.mat([[F(2) if (i, j) == (0, 0) else
                 (F(-2) if (i, j) == (5, 5) else F.zero)
                 for j in range(6)] for i in range(6)])
    assert fac.is_lie(X)
    levi = lg.levi_factors_for_induction(X, fac)
    kinds = sorted((t, m) for t, m, _ in levi)
    assert kinds == [("A", 1), ("C", 4)]
    # regular split semisimple: Borel of Sp_6 -> regular orbit [6]
    X = la.mat([[F(v) if i == j else F.zero for j in range(6)]
                for i, v in enumerate((1, 2, 3, -3, -2, -1))])
    assert lg.induced_label(X, fac) == (6,)


def test_induced_label_sp_with_nilpotent_part():
    F = prime_field(23)
    fac = lg.Factor.sp(6, F)
    # semisimple part diag(a,0,0,0,0,-a); nilpotent part a [4]-chain in
    # the Sp_4 block; induction from GL_1 x Sp_4 with orbit [4] gives [6]
    X = [[F.zero] * 6 for _ in range(6)]
    X[0][0], X[5][5] = F(2), F(-2)
    X[1][2], X[2][3] = F.one, F.one
    X[3][4] = F(-1)
    X = la.mat(X)
    assert fac.is_lie(X)
    levi = lg.levi_factors_for_induction(X, fac)
    data = sorted((t, m, mu) for t, m, mu in levi)
    assert ("C", 4, (4,)) in data
    assert lg.induced_label(X, fac) == (6,)


def test_paired_eigenvalues_nonsplit():
    F = prime_field(5)
    fac = lg.Factor.sp(2, F)
    # [[0,1],[a,0]] with a a non-square: irreducible quadratic x^2 - a,
    # self-dual, eigenvalues +-sqrt(a): one GL_1 block over the
    # quadratic extension -> regular orbit of Sp_2
    X = mk(F, [[0, 1], [2, 0]])
    assert fac.is_lie(X)
    levi = lg.levi_factors_for_induction(X, fac)
    assert levi == [("A", 1, (1,))]
    assert lg.induced_label(X, fac) == (2,)


# -- goodness over the local field -------------------------------------


def test_good_depth_diagonal():
    L = LocalField(23)

    def diag(*es):
        n = len(es)
        return la.mat([[es[i] if i == j else L.zero()
                        for j in range(n)] for i in range(n)])

    # diag(t^-1, 2 t^-1, 0): differences all valuation -1 -> good depth -1
    g = diag(L.parse("t^-1"), L.parse("2*t^-1"), L.zero())
    assert lg.is_good_depth(g, Fraction(-1))
    assert not lg.is_good_depth(g, Fraction(0))
    # diag(t^-1, t^-1 + 1, 0): differences have valuations 0 and -1
    g = diag(L.parse("t^-1"), L.parse("t^-1 + 1"), L.zero())
    assert not lg.is_good_depth(g, Fraction(-1))
    # scalar shift is invisible to root values
    g = diag(L.parse("t^-1 + 3*t^2"), L.parse("2*t^-1 + 3*t^2"),
             L.parse("3*t^2"))
    assert lg.is_good_depth(g, Fraction(-1))


def test_good_depth_nondiagonal():
    L = LocalField(23)
    # [[0, 1], [t, 0]]: eigenvalues +-t^(1/2), ad eigenvalues 0, +-2 t^(1/2)
    g = la.mat([[L.zero(), L.one()], [L.uniformizer(), L.zero()]])
    assert lg.is_good_depth(g, Fraction(1, 2))
    assert not lg.is_good_depth(g, Fraction(1))
    # [[0, 1], [1, 0]]: root values of valuation 0
    g = la.mat([[L.zero(), L.one()], [L.one(), L.zero()]])
    assert lg.is_good_depth(g, Fraction(0))
    # [[0, 1], [t, 1]]: eigenvalue difference sqrt(1 + 4t), valuation 0
    g = la.mat([[L.zero(), L.one()], [L.uniformizer(), L.one()]])
    assert lg.is_good_depth(g, Fraction(0))


def test_good_depth_mixed_nondiagonal():
    L = LocalField(23)
    # block diag of [[0,1],[t,0]] and a far-away scalar: mixed valuations
    g = la.mat([
        [L.zero(), L.one(), L.zero()],
        [L.uniformizer(), L.zero(), L.zero()],
        [L.zero(), L.zero(), L.parse("t^-1")]])
    assert not lg.is_good_depth(g, Fraction(1, 2))
    assert not lg.is_good_depth(g, Fraction(-1))


def test_good_depth_ramified():
    E = LocalField(23).ramified_quadratic()
    # diag(w^-1, -w^-1): difference 2 w^-1, valuation -1/2
    g = la.mat([[E.parse("w^-1"), E.zero()],
                [E.zero(), E.parse("-w^-1")]])
    assert lg.is_good_depth(g, Fraction(-1, 2))


def root_value_data_reference(gamma):
    """`liealg.root_value_data` with its diagonal route over every ordered
    pair (i, j), i != j, one difference each."""
    n = len(gamma)
    if any(gamma[i][j].terms for i in range(n) for j in range(n)
           if i != j):
        return lg.root_value_data(gamma)
    vals = []
    zeros = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = gamma[i][i] - gamma[j][j]
            if not d:
                zeros += 1
            else:
                vals.append(d.val())
    return zeros + n, vals


def assert_root_values_match_the_reference(gamma, r=None):
    zeros, vals = lg.root_value_data(gamma)
    want_zeros, want = root_value_data_reference(gamma)
    assert zeros == want_zeros and Counter(vals) == Counter(want)
    if r is not None:
        good = "mixed" not in want and all(v == r for v in want)
        assert lg.is_good_depth(gamma, r) == good
        return good


def test_diagonal_root_values_match_the_full_pair_loop():
    rng = random.Random(7)
    for field in (LocalField(23), LocalField(23).unramified_quadratic(),
                  LocalField(23).ramified_quadratic()):
        res = field.residue
        unit = field.from_residue(res.gen if hasattr(res, "gen") else res(5))
        one, pi = field.one(), field.uniformizer()
        tail = field.from_int(3) * pi * pi
        entries = [field.zero(), one, unit, pi, pi.inv(), pi.inv() + one,
                   pi.inv() + tail, tail, unit * (pi.inv() + one + pi)]
        diags = [
            [field.zero()] * 4,  # all equal and zero
            [unit] * 3 + [field.zero()] * 3,  # equal runs and zeros
            entries[3:6] * 2,  # the (a, b, c, a, b, c) pattern
            entries,
        ]
        diags += [[rng.choice(entries) for _ in range(rng.randint(1, 7))]
                  for _ in range(40)]
        for d in diags:
            n = len(d)
            g = la.mat([[d[i] if i == j else field.zero() for j in range(n)]
                        for i in range(n)])
            for r in (None, Fraction(-1), Fraction(0), Fraction(1, 2)):
                assert_root_values_match_the_reference(g, r)


def test_good_depth_is_unchanged_on_the_shipped_pieces():
    inputs = Path(__file__).resolve().parent.parent / "inputs"
    pieces = []
    for path in sorted(inputs.glob("*.ini")):
        chain, _, _ = cli.parse_input(path.read_text())
        pieces += [(g, r) for _, g, r in chain.pieces]
    assert len(pieces) == 3
    u6, u7 = bd.u6_model(23), bd.u7_model(23)
    pieces += [(g, r) for _, g, r in wf.u6_chain().pieces]
    pieces += [(wf.toral_gamma(u6), 0), (wf.u7_gamma_zero(u7), 0)]
    # the u6 example's depth -1 piece is not good at depth 0
    pieces.append((wf.u6_gamma_deep(u6), 0))
    verdicts = [assert_root_values_match_the_reference(g, Fraction(r))
                for g, r in pieces]
    assert verdicts == [True] * 7 + [False]
