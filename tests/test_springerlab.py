import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldens
from padicwf import linalg as la
from padicwf import springerlab as sl


# -- fixtures ------------------------------------------------------------


@pytest.fixture(scope="module")
def gl2():
    return sl.MatContext(2, 3)


@pytest.fixture(scope="module")
def gl3():
    return sl.MatContext(3, 3)


@pytest.fixture(scope="module")
def gl2_xis(gl2):
    return [sl.test_fn(gl2, c, h, d) for _, c, h, d in sl.sl2_reps(gl2)]


@pytest.fixture(scope="module")
def gl3_xis(gl3):
    return [sl.test_fn(gl3, c, h, d) for _, c, h, d in sl.good_reps(gl3)]


def e12(n=2):
    m = np.zeros((n, n), dtype=np.int64)
    m[0][1] = 1
    return m


# -- cyclotomic integers -------------------------------------------------


def test_cyc_root_of_unity_relations():
    z = sl.zeta(3)
    assert z * z * z == 1
    assert z + z.shift(1) + sl.Cyc.from_int(3, 1) == 0  # 1 + z + z^2 = 0
    assert sl.zeta(5).shift(4) == 1


def test_cyc_ring_ops():
    p = 5
    a = sl.Cyc(p, (1, 2, 0, -1, 3))
    b = sl.Cyc(p, (0, 1, 1, 0, 0))
    assert a + b - b == a
    assert a * sl.Cyc.from_int(p, 1) == a
    assert (a * b).shift(2) == a * b.shift(2)
    assert -(a - a) == sl.Cyc(p)
    assert not sl.Cyc(p)
    assert bool(a)


# -- Fourier transform ---------------------------------------------------


def test_fourier_delta_is_constant():
    f = sl.FnOnPiece.delta(3, 2)
    fh = sl.fourier(f)
    assert fh.same(sl.FnOnPiece.constant(3, 2))


def test_fourier_constant_is_scaled_delta():
    f = sl.FnOnPiece.constant(3, 2)
    fh = sl.fourier(f)
    want = sl.FnOnPiece.delta(3, 2)
    want.vals *= 9
    assert fh.same(want)


def test_fourier_piece_too_large():
    f = sl.FnOnPiece.constant(3, 2)
    with pytest.raises(ValueError, match="piece too large"):
        sl.fourier(f, cap=5)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=9, max_size=9),
       st.integers(0, 1))
def test_fourier_inversion_random(table, swap):
    # fhat-hat(x) = q^dim f(-x), for any perfect pairing of the axes
    p, dim = 3, 2
    f = sl.FnOnPiece.from_ints(p, dim, table)
    pairing = [(1, 1), (0, 1)] if swap else [(0, 1), (1, 1)]
    fhh = sl.fourier(sl.fourier(f, pairing), pairing)
    want = f.negate_argument()
    want.vals *= p ** dim
    assert fhh.same(want)


def test_trace_pairing_swaps_matrix_coordinates():
    assert sl.trace_pairing(2) == [(0, 1), (2, 1), (1, 1), (3, 1)]


# -- group enumeration ---------------------------------------------------


def test_group_orders(gl2, gl3):
    assert len(gl2.group()[0]) == goldens.GL2_F3_ORDER
    assert len(gl3.group()[0]) == goldens.GL3_F3_ORDER


def test_group_inverses(gl2, gl3):
    for ctx in (gl2, gl3):
        gs, gis = ctx.group()
        prod = np.matmul(gs, gis) % 3
        assert (prod == np.eye(ctx.n, dtype=np.int64)).all()


def test_group_too_large():
    big = sl.MatContext(3, 5)
    with pytest.raises(ValueError, match="group too large"):
        big.group()


def test_nilpotent_mask_count(gl2):
    # nilpotent cone of gl_2(F_q) has q^2 points
    assert int(gl2.nilpotent_mask().sum()) == 9


def test_jordan_type_roundtrip(gl3):
    m = np.zeros((3, 3), dtype=np.int64)
    m[0][1] = 1
    assert gl3.jordan_type(m) == (2, 1)
    m[1][2] = 1
    assert gl3.jordan_type(m) == (3,)


def test_sl2_reps_bracket_relations(gl3):
    p = gl3.p
    for lam, c, h, d in sl.sl2_reps(gl3):
        assert np.array_equal((h @ c - c @ h) % p, (2 * c) % p)
        assert np.array_equal((h @ d - d @ h) % p, (-2 * d) % p)
        assert np.array_equal((c @ d - d @ c) % p, h % p)
        assert gl3.jordan_type(c) == lam


def test_good_reps_drops_small_characteristic(gl3):
    # the length-3 chain needs p >= 5, so it is invalid over F_3
    assert [t[0] for t in sl.good_reps(gl3)] == [(2, 1), (1, 1, 1)]


# -- test functions and the nilpotent-support property -------------------


def test_zero_slice_gives_group_order_times_constant(gl2):
    z = np.zeros((2, 2), dtype=np.int64)
    f = sl.test_fn(gl2, z, z, z)
    assert (f.vals[:, 0] == goldens.GL2_F3_ORDER).all()


def test_test_fn_counts_slice_meetings(gl2):
    # f(x) counts conjugators into the slice; for x in the open orbit
    # of the slice through a regular nilpotent, the count is positive
    _, c, h, d = sl.sl2_reps(gl2)[0]
    f = sl.test_fn(gl2, c, h, d)
    idx = int(gl2.encode(c[None])[0])
    assert f.vals[idx, 0] > 0
    # the zero matrix never conjugates into the regular slice
    assert f.vals[0, 0] == 0


def test_transform_supported_on_nilpotent_cone_gl2(gl2, gl2_xis):
    for xi in gl2_xis:
        assert sl.conil_support_ok(gl2, xi)


def test_transform_supported_on_nilpotent_cone_gl3(gl3, gl3_xis):
    for xi in gl3_xis:
        assert sl.conil_support_ok(gl3, xi)


def test_small_characteristic_breaks_nilpotent_support(gl3):
    # over F_3 the length-3 chain is outside the valid range, and its
    # slice function genuinely fails the support property: a negative
    # control for the conilpotency check
    lam, c, h, d = sl.sl2_reps(gl3)[0]
    assert lam == (3,)
    xi = sl.test_fn(gl3, c, h, d)
    assert not sl.conil_support_ok(gl3, xi)


# -- the parabolic averaging identity ------------------------------------


def test_identity_all_split_semisimple_gl2(gl2, gl2_xis):
    # every split regular semisimple element, both Borels
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            x = np.diag([a, b]).astype(np.int64)
            assert sl.verify_spr(gl2, x, (1, 1), xis=gl2_xis)
            assert sl.verify_spr(gl2, x, (1, 1), lower=True, xis=gl2_xis)


def test_identity_trivial_parabolic(gl2, gl2_xis):
    # P = G: the nilradical is zero and the identity is a tautology,
    # but it exercises the Jordan decomposition path
    x = np.array([[1, 1], [0, 1]])
    assert sl.verify_spr(gl2, x, (2,), xis=gl2_xis)


def test_identity_rejects_non_split(gl2, gl2_xis):
    # companion matrix of an irreducible quadratic: not split
    bad = np.array([[0, 1], [1, 1]])
    with pytest.raises(ValueError, match="x not split for P"):
        sl.verify_spr(gl2, bad, (1, 1), xis=gl2_xis)


def test_identity_rejects_repeated_scalars(gl2, gl2_xis):
    with pytest.raises(ValueError, match="x not split for P"):
        sl.verify_spr(gl2, np.diag([1, 1]), (1, 1), xis=gl2_xis)


def test_identity_sampled_split_gl3(gl3, gl3_xis):
    # block-scalar semisimple part plus block nilpotent part, for the
    # (2,1) parabolic, sampled over seeds
    rng = random.Random(20260823)
    for _ in range(1000):
        a, b = rng.sample(range(3), 2)
        x = np.array([[a, rng.randrange(3), 0],
                      [0, a, 0],
                      [0, 0, b]], dtype=np.int64)
        assert sl.verify_spr(gl3, x, (2, 1), xis=gl3_xis)
        assert sl.verify_spr(gl3, x, (2, 1), lower=True, xis=gl3_xis)


def test_identity_split_regular_gl3(gl3, gl3_xis):
    x = np.diag([0, 1, 2]).astype(np.int64)
    for comp in ((1, 1, 1), (1, 2)):
        try:
            ok = sl.verify_spr(gl3, x, comp, xis=gl3_xis)
        except ValueError:
            continue  # (1,2) needs matching scalar blocks, may reject
        assert ok


def test_nilradical_positions():
    assert sl.nilradical_positions((1, 1), 2) == [(0, 1)]
    assert sl.nilradical_positions((1, 1), 2, lower=True) == [(1, 0)]
    assert sl.nilradical_positions((2, 1), 3) == [(0, 2), (1, 2)]


# -- support triples -----------------------------------------------------


def test_support_regular_semisimple(gl2):
    assert sl.support_test(gl2, e12(), np.diag([1, 2])) == "supports"


def test_support_nilpotent_itself(gl2):
    assert sl.support_test(gl2, e12(), e12()) == "supports"


def test_support_smaller_orbit_is_refused(gl2):
    z = np.zeros((2, 2), dtype=np.int64)
    assert sl.support_test(gl2, e12(), z) == "not"


def test_support_gl3_label_filter(gl3):
    c = np.zeros((3, 3), dtype=np.int64)
    c[0][1] = 1
    c[1][2] = 1
    x = np.diag([0, 1, 2]).astype(np.int64)
    assert sl.support_test(gl3, c, x) == "supports"
    # subregular nilpotent does not carry the regular induced orbit
    assert sl.support_test(gl3, e12(3), x) == "not"


def test_support_sampled_budget_returns_unknown(gl2):
    # with one sample the search almost surely misses, and a sampled
    # miss must stay inconclusive
    out = sl.support_test(gl2, e12(), np.diag([1, 2]), budget=1,
                          rng=random.Random(0))
    assert out in ("supports", "unknown")
    misses = [sl.support_test(gl2, e12(), np.diag([1, 2]), budget=1,
                              rng=random.Random(s)) for s in range(10)]
    assert "unknown" in misses


# -- witness search ------------------------------------------------------


def test_witness_regular_semisimple(gl2):
    assert sl.good1_check(gl2, np.diag([1, 2]), (1, -1), 2, e12())


def test_witness_trivial_for_c_itself(gl2):
    assert sl.good1_check(gl2, e12(), (1, -1), 2, e12())


def test_witness_exhaustive_failure_is_false(gl2):
    z = np.zeros((2, 2), dtype=np.int64)
    assert sl.good1_check(gl2, z, (1, -1), 2, e12()) is False


def test_witness_sampled_failure_raises(gl2):
    z = np.zeros((2, 2), dtype=np.int64)
    with pytest.raises(ValueError, match="witness not found in budget"):
        sl.good1_check(gl2, z, (1, -1), 2, e12(), budget=10)


def test_witness_rejects_misplaced_c(gl2):
    with pytest.raises(ValueError, match="not concentrated"):
        sl.good1_check(gl2, np.diag([1, 2]), (1, -1), 2,
                       np.array([[0, 0], [1, 0]]))


def test_witness_sweep_gl3(gl3):
    # whenever the support test passes, a witness must exist
    c = np.zeros((3, 3), dtype=np.int64)
    c[0][1] = 1
    c[1][2] = 1
    lam = (2, 0, -2)
    rng = random.Random(5)
    for _ in range(20):
        a, b, cc = rng.sample(range(3), 3)
        x = np.diag([a, b, cc]).astype(np.int64)
        if sl.support_test(gl3, c, x) == "supports":
            assert sl.good1_check(gl3, x, lam, 2, c)


# -- slice geometry invariants -------------------------------------------


def test_slice_retract_gl2(gl2):
    # a nilpotent in the slice through c with the same class is c, and
    # no slice member has a strictly smaller class
    for lam, c, h, d in sl.sl2_reps(gl2):
        for y in sl.slice_points(gl2, c, d):
            if gl2.is_nilpotent(y):
                t = gl2.jordan_type(y)
                assert list(t) >= list(lam)
                if t == lam:
                    assert np.array_equal(y % 3, c % 3)


def test_low_weight_perturbation_conjugate_gl2(gl2):
    # same-class nilpotents in c + (weights below 2) are conjugate to c
    # by a lower-unitriangular element
    c = e12()
    lam = (1, -1)
    low = [(i, j) for i in range(2) for j in range(2)
           if lam[i] - lam[j] < 2]
    matched = 0
    for coeffs in product(range(3), repeat=len(low)):
        y = c.copy()
        for t, (i, j) in zip(coeffs, low):
            y[i][j] = (y[i][j] + t) % 3
        if gl2.is_nilpotent(y) and gl2.jordan_type(y) == (2,):
            assert any(
                np.array_equal((g @ y @ gi) % 3, c)
                for a in range(3)
                for g, gi in [(np.array([[1, 0], [a, 1]]),
                               np.array([[1, 0], [-a % 3, 1]]))])
            matched += 1
    assert matched == 3


def test_low_weight_perturbation_conjugate_gl3(gl3):
    # same check one rank up: perturb the regular nilpotent below
    # weight 2 and conjugate back by a lower-unitriangular element
    c = np.zeros((3, 3), dtype=np.int64)
    c[0][1] = 1
    c[1][2] = 1
    lam = (2, 0, -2)
    low = [(i, j) for i in range(3) for j in range(3)
           if lam[i] - lam[j] < 2]
    lowers = []
    for a, b, cc in product(range(3), repeat=3):
        g = np.array([[1, 0, 0], [a, 1, 0], [b, cc, 1]], dtype=np.int64)
        lowers.append((g, gl3.inv_mod(g)))
    matched = 0
    for coeffs in product(range(3), repeat=len(low)):
        y = c.copy()
        for t, (i, j) in zip(coeffs, low):
            y[i][j] = (y[i][j] + t) % 3
        if gl3.is_nilpotent(y) and gl3.jordan_type(y) == (3,):
            assert any(np.array_equal((g @ y @ gi) % 3, c)
                       for g, gi in lowers)
            matched += 1
    assert matched > 0


def test_centralizer_transitive_on_completions(gl2):
    # the centralizer of a regular nilpotent permutes its sl2
    # completions transitively
    c = e12()
    gs, gis = gl2.group()
    cen = [(g, gi) for g, gi in zip(gs, gis)
           if np.array_equal((g @ c @ gi) % 3, c)]
    mats = gl2.all_matrices()
    comps = [(h, d) for h in mats for d in mats
             if np.array_equal((h @ c - c @ h) % 3, (2 * c) % 3)
             and np.array_equal((h @ d - d @ h) % 3, (-2 * d) % 3)
             and np.array_equal((c @ d - d @ c) % 3, h % 3)]
    assert len(comps) == 3
    key = lambda h, d: (int(gl2.encode(h[None])[0]),
                        int(gl2.encode(d[None])[0]))
    h0, d0 = comps[0]
    orbit = set(key((g @ h0 @ gi) % 3, (g @ d0 @ gi) % 3)
                for g, gi in cen)
    assert orbit == set(key(h, d) for h, d in comps)


def test_restriction_rank_counts_nilpotent_classes(gl2, gl3, gl2_xis):
    # restricting the slice functions to the nilpotent cone spans a
    # space of dimension = number of nilpotent classes
    m2 = gl2.nilpotent_mask()
    rows = [xi.vals[m2, 0].tolist() for xi in gl2_xis]
    assert la.rank(rows, la.Q_OPS) == 2
    xis3 = [sl.test_fn(gl3, c, h, d) for _, c, h, d in sl.sl2_reps(gl3)]
    m3 = gl3.nilpotent_mask()
    rows3 = [xi.vals[m3, 0].tolist() for xi in xis3]
    assert la.rank(rows3, la.Q_OPS) == 3


# -- orbital counts over extensions --------------------------------------


def test_theta_count_linear_growth():
    x = [[1, 0], [0, 2]]
    for q, want in goldens.THETA_DIAG_GL2.items():
        deg = 1 if q == 3 else 2
        assert sl.theta_count(x, 3, deg) == want
    # degree-1 growth: the count is q' - 1 at both levels
    assert goldens.THETA_DIAG_GL2[3] == 3 - 1
    assert goldens.THETA_DIAG_GL2[9] == 9 - 1


# -- extension fields ----------------------------------------------------


@pytest.mark.parametrize("p,d", [(3, 2), (3, 3), (5, 2)])
def test_ext_field_axioms(p, d):
    K = sl.ExtField(p, d)
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
    K = sl.ExtField(3, 2)
    fixed = [a for a in range(K.q)
             if K.mul[a][K.mul[a][a]] == a]  # a^3 = a
    assert sorted(fixed) == [0, 1, 2]


# -- flag variety counts -------------------------------------------------


def test_isotropic_point_count_closed_form():
    spec = sl.curve_spec(1, 3)
    K = sl.ExtField(3, 1)
    pts = sl.isotropic_points(K, spec.gram)
    assert len(pts) == (3 + 1) * (9 + 1)


def test_all_free_pattern_counts_all_flags():
    spec = sl.curve_spec(1, 3)
    free = sl.VarietySpec(spec.gram, spec.X, ["*****"] * 5, 3)
    out = sl.point_count(free, degrees=(1, 2))
    assert out[1] == sl.flag_total(3) == 160
    assert out[2] == sl.flag_total(9) == 8200


def test_point_count_cap():
    spec = sl.curve_spec(1, 3)
    with pytest.raises(ValueError, match="enumeration too large"):
        sl.point_count(spec, degrees=(3,), cap=1000)


@pytest.mark.parametrize("p,coeff,want", [
    (3, 3, goldens.CURVE_COUNT_Q3[3]), (3, 1, goldens.CURVE_COUNT_Q3[1]),
    (5, 3, goldens.CURVE_COUNT_Q5[3]), (5, 1, goldens.CURVE_COUNT_Q5[1]),
])
def test_curve_fast_path_matches_generic(p, coeff, want):
    generic = sl.point_count(sl.curve_spec(coeff, p), degrees=(1,))[1]
    fast = sl.curve_count(coeff, p, 1)
    assert generic == fast == want


def test_curve_extension_degree_two():
    assert sl.curve_count(1, 3, 2) == goldens.CURVE_COUNT_Q9_COEFF1
    assert (sl.point_count(sl.curve_spec(1, 3), degrees=(2,))[2]
            == goldens.CURVE_COUNT_Q9_COEFF1)


def test_curve_decision_at_q23():
    # the decisive dichotomy: corner coefficient 3 admits no rational
    # point over F_23, coefficient 1 does
    assert sl.curve_count(3, 23) == goldens.CURVE_COUNT_Q23[3] == 0
    assert sl.curve_count(1, 23) == goldens.CURVE_COUNT_Q23[1] == 16


def test_variety_spec_validates_pattern():
    spec = sl.curve_spec(1, 3)
    with pytest.raises(AssertionError):
        sl.VarietySpec(spec.gram, spec.X, ["?????"] * 5, 3)
