import random
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import goldens
import newton
from padicwf import ffield as ff
from padicwf import liealg as lie
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
    return [sl.test_fn(gl2, c, d) for _, c, _, d in sl.sl2_reps(gl2)]


@pytest.fixture(scope="module")
def gl3_xis(gl3):
    return [sl.test_fn(gl3, c, d) for _, c, _, d in sl.good_reps(gl3)]


def e12(n=2):
    m = np.zeros((n, n), dtype=np.int64)
    m[0][1] = 1
    return m


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


def test_fourier_piece_too_large(monkeypatch):
    monkeypatch.setattr(sl, "FOURIER_CAP", 5)
    f = sl.FnOnPiece.constant(3, 2)
    with pytest.raises(ValueError, match="piece too large"):
        sl.fourier(f)


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


def test_group_matches_filtered_enumeration(gl3):
    # the row-by-row enumeration keeps the order of all_matrices
    mats = gl3.all_matrices()
    assert np.array_equal(gl3.group()[0], mats[gl3.det_mod(mats) != 0])


def test_group_enumeration_memory():
    # GL_3(F_3) and its inverses keep 0.2 MB of uint8 codes; the peak,
    # about 2.2 MB, is the int64 copy that inv_mod works on
    import tracemalloc
    ctx = sl.MatContext(3, 3)
    tracemalloc.start()
    try:
        ctx.group()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5e6


def test_group_too_large():
    # refused by the constructor, before the field or any table is built
    with pytest.raises(ValueError, match="group too large"):
        sl.MatContext(3, 5)
    with pytest.raises(ValueError, match="group too large"):
        sl.mat_context(3, 5)


# -- structures built once per process -----------------------------------


def test_mat_context_is_one_per_n_and_p():
    assert sl.mat_context(3, 3) is sl.mat_context(3, 3)
    assert sl.mat_context(2, 3) is not sl.mat_context(3, 3)
    # the plain constructor stays fresh, so it warms no shared context
    assert sl.MatContext(3, 3) is not sl.MatContext(3, 3)
    assert sl.MatContext(3, 3) is not sl.mat_context(3, 3)


def test_test_fns_are_built_once(monkeypatch):
    ctx = sl.MatContext(2, 3)
    calls = []
    real = sl.test_fn

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(sl, "test_fn", counted)
    first = ctx.test_fns()
    assert len(calls) == len(sl.good_reps(ctx)) == 2
    calls.clear()
    assert ctx.test_fns() is first
    assert calls == []
    for f, (_, c, _, d) in zip(first, sl.good_reps(ctx)):
        assert np.array_equal(f.vals, real(ctx, c, d).vals)


def test_memoized_arrays_are_read_only():
    ctx = sl.MatContext(2, 3)
    K = ff.ext_field(3, 1)
    gram = sl.curve_spec(1, 3).gram
    arrays = [*ctx.group(), ctx.nilpotent_mask(),
              *(f.vals for f in ctx.test_fns()),
              sl._isotropic_array(K, gram), *sl._flags(K, gram)]
    assert len(arrays) == 8
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = a


def test_quadric_memos_are_keyed_by_field_and_codes():
    K = ff.ext_field(3, 1)
    gram = sl.curve_spec(1, 3).gram
    frozen = tuple(map(tuple, gram))
    assert sl._isotropic_array(K, gram) is sl._isotropic_array(K, frozen)
    assert sl._flags(K, gram) is sl._flags(K, frozen)
    assert sl._flags(K, gram) is not sl._flags(ff.ext_field(3, 2), gram)


@pytest.mark.parametrize("n,p", [(2, 3), (3, 3), (2, 7), (2, 31)])
def test_narrow_group_matches_int64_enumeration(n, p):
    ctx = sl.mat_context(n, p)
    gs, ginvs = ctx.group()
    assert gs.dtype == ginvs.dtype == np.uint8
    mats = ctx.all_matrices()
    assert mats.dtype == np.int64
    want = mats[ctx.det_mod(mats) != 0]
    assert np.array_equal(gs, want)
    assert np.array_equal(ginvs, ctx.inv_mod(want))


def test_conjugates_at_p31_match_int64_reference():
    # p = 31 is the largest prime CAP admits at n = 2; the products of
    # uint8 codes would overflow without an int64 operand
    ctx = sl.mat_context(2, 31)
    gs, ginvs = (a.astype(np.int64) for a in ctx.group())
    rng = random.Random(31)
    for _ in range(3):
        x = np.array([[rng.randrange(31) for _ in range(2)]
                      for _ in range(2)])
        want = gs @ x @ ginvs % 31
        for arg in (x, x.astype(np.uint8)):
            moved, exhausted = ctx.conjugates(arg)
            assert exhausted and np.array_equal(moved, want)
        moved, exhausted = ctx.conjugates(x.astype(np.uint8), 50,
                                          random.Random(1))
        assert not exhausted
        assert np.array_equal(moved, _sampled_conjugates_reference(
            ctx, x, 50, random.Random(1)))


def test_scan_cap_refuses_after_the_structures_are_cached(monkeypatch):
    spec = sl.curve_spec(1, 3)
    assert sl.curve_counts((1,), 3) == [goldens.CURVE_COUNT_Q3[1]]
    assert sl.point_count(spec) == {1: goldens.CURVE_COUNT_Q3[1]}
    monkeypatch.setattr(sl, "SCAN_CAP", 10)
    with pytest.raises(ValueError,
                       match=r"enumeration too large \(40 points\)"):
        sl.curve_counts((1,), 3)
    with pytest.raises(ValueError,
                       match=r"enumeration too large \(160 flags\)"):
        sl.point_count(spec)


def test_per_form_memo_keeps_the_most_recent_keys():
    K = ff.ext_field(3, 1)
    grams = [[[a, 0, 0], [0, b, 0], [0, 0, c]]
             for a, b, c in product(range(3), repeat=3)][:17]
    first = [sl._isotropic_array(K, g) for g in grams]
    assert sl._isotropic_array(K, grams[-1]) is first[-1]
    # the 17th key evicted the oldest, which is built afresh
    again = sl._isotropic_array(K, grams[0])
    assert again is not first[0] and np.array_equal(again, first[0])


def test_scan_cap_refuses_before_any_lookup(monkeypatch):
    looked = []
    for name in ("_isotropic_array", "_flags", "_curve_table"):
        monkeypatch.setattr(sl, name, lambda K, gram, name=name:
                            looked.append(name))
    monkeypatch.setattr(sl, "SCAN_CAP", 10)
    with pytest.raises(ValueError, match="enumeration too large"):
        sl.curve_counts((1,), 3)
    with pytest.raises(ValueError, match="enumeration too large"):
        sl.point_count(sl.curve_spec(1, 3))
    assert looked == []


def _nullspace_reference(ctx, rows):
    # the kernel over the FFElt prime field, converted back to residues
    return ctx.from_ff(la.kernel_basis(ctx.to_ff(rows),
                                       ctx.field)).tolist()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_nullspace_matches_ffelt_route(p):
    ctx = sl.MatContext(2, p)
    rng = random.Random(p)
    for _ in range(40):
        k, m = rng.randrange(1, 6), rng.randrange(1, 7)
        rows = np.array([[rng.randrange(p) if rng.random() < 0.6 else 0
                          for _ in range(m)] for _ in range(k)])
        rows[rng.randrange(k)] = 0
        if k > 1:
            rows[0] = (rows[0] + 2 * rows[1]) % p
        assert ctx.nullspace(rows) == _nullspace_reference(ctx, rows)
    # the centralizer rows the membership test annihilates
    for _, c, _, d in sl.sl2_reps(ctx):
        rows = ctx.centralizer(d).reshape(-1, ctx.dim)
        assert ctx.nullspace(rows) == _nullspace_reference(ctx, rows)


def _sampled_conjugates_reference(ctx, x, budget, rng):
    # the draws support_test and good1_check made before `conjugates`
    gs, ginvs = ctx.group()
    picks = np.array([rng.randrange(len(gs)) for _ in range(budget)])
    return np.matmul(np.matmul(gs[picks], x), ginvs[picks]) % ctx.p


def test_conjugates_exhaustive(gl2, gl3):
    for ctx in (gl2, gl3):
        gs, ginvs = ctx.group()
        x = np.arange(ctx.dim).reshape(ctx.n, ctx.n) % ctx.p
        want = np.matmul(np.matmul(gs, x), ginvs) % ctx.p
        for budget in (None, len(gs), len(gs) + 1):
            rng = random.Random(1)
            moved, exhausted = ctx.conjugates(x, budget, rng)
            assert exhausted and np.array_equal(moved, want)
            # no draw is taken from rng
            assert rng.random() == random.Random(1).random()


@pytest.mark.parametrize("budget", [1, 7, 40])
def test_conjugates_sampled_match_reference_draws(gl2, gl3, budget):
    for ctx in (gl2, gl3):
        x = np.arange(ctx.dim).reshape(ctx.n, ctx.n) % ctx.p
        for seed in range(5):
            moved, exhausted = ctx.conjugates(x, budget,
                                              random.Random(seed))
            assert not exhausted
            assert np.array_equal(moved, _sampled_conjugates_reference(
                ctx, x, budget, random.Random(seed)))
        # without an rng the draws come from random.Random(0)
        assert np.array_equal(ctx.conjugates(x, budget)[0],
                              _sampled_conjugates_reference(
                                  ctx, x, budget, random.Random(0)))


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


def _slice_points_reference(ctx, c, d):
    # one coefficient tuple at a time, over the FFElt centralizer basis
    basis = [ctx.from_ff(z)
             for z in lie.centralizer_basis(ctx.to_ff(d), ctx.factor)]
    pts = []
    for coeffs in product(range(ctx.p), repeat=len(basis)):
        m = np.array(c, dtype=np.int64)
        for t, b in zip(coeffs, basis):
            if t:
                m = m + t * b
        pts.append(m % ctx.p)
    return np.stack(pts)


@pytest.mark.parametrize("n,p", [(2, 3), (2, 5), (2, 7), (3, 3)])
def test_slice_points_match_loop_reference(n, p):
    # every sl2_reps triple, compared point by point in order
    ctx = sl.MatContext(n, p)
    for _, c, _, d in sl.sl2_reps(ctx):
        got = sl.slice_points(ctx, c, d)
        assert got.dtype == np.int64
        assert np.array_equal(got, _slice_points_reference(ctx, c, d))


def test_zero_slice_gives_group_order_times_constant(gl2):
    z = np.zeros((2, 2), dtype=np.int64)
    f = sl.test_fn(gl2, z, z)
    assert (f.vals[:, 0] == goldens.GL2_F3_ORDER).all()


def test_test_fn_counts_slice_meetings(gl2):
    # f(x) counts conjugators into the slice; for x in the open orbit
    # of the slice through a regular nilpotent, the count is positive
    _, c, _, d = sl.sl2_reps(gl2)[0]
    f = sl.test_fn(gl2, c, d)
    idx = int(gl2.encode(c[None])[0])
    assert f.vals[idx, 0] > 0
    # the zero matrix never conjugates into the regular slice
    assert f.vals[0, 0] == 0


def _test_fn_reference(ctx, c, d):
    # one group element at a time over the whole slice
    gs, ginvs = ctx.group()
    if not c.any() and not d.any():
        return np.full(ctx.size(), len(gs), dtype=np.int64)
    pts = sl.slice_points(ctx, c, d)
    table = np.zeros(ctx.size(), dtype=np.int64)
    for g, gi in zip(gs, ginvs):
        np.add.at(table, ctx.encode(g @ pts @ gi % ctx.p), 1)
    return table


@pytest.mark.parametrize("n,p", [(2, 3), (2, 5), (2, 7), (3, 3)])
def test_test_fn_matches_per_element_reference(n, p):
    # every triple, the (3,) triple over F_3 that fails conilpotent
    # support included
    ctx = sl.MatContext(n, p)
    for _, c, _, d in sl.sl2_reps(ctx):
        f = sl.test_fn(ctx, c, d)
        assert not f.vals[:, 1:].any()
        assert np.array_equal(f.vals[:, 0], _test_fn_reference(ctx, c, d))


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
    lam, c, _, d = sl.sl2_reps(gl3)[0]
    assert lam == (3,)
    xi = sl.test_fn(gl3, c, d)
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


def _newton_parts(ctx, x):
    # the Jordan decomposition by the Newton route, as code arrays
    s, n = newton.jordan_decomposition(ctx.to_ff(x), ctx.field)
    return ctx.from_ff(s), ctx.from_ff(n)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_jordan_decomposition_matches_newton_on_all_of_gl2(p):
    ctx = sl.MatContext(2, p)
    mats = ctx.all_matrices()
    s, n = ctx.jordan_decomposition(mats)
    for x, xs, xn in zip(mats, s, n):
        ws, wn = _newton_parts(ctx, x)
        assert np.array_equal(xs, ws) and np.array_equal(xn, wn)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=9, max_size=9))
def test_jordan_decomposition_matches_newton_on_gl3(entries):
    ctx = sl.mat_context(3, 3)
    x = np.array(entries).reshape(3, 3)
    s, n = ctx.jordan_decomposition(x)
    ws, wn = _newton_parts(ctx, x)
    assert np.array_equal(s, ws) and np.array_equal(n, wn)


def test_jordan_decomposition_on_all_of_gl3():
    # all 19,683 matrices of gl3(F_3) at once: s + n = x, s and n
    # commute, n is nilpotent and s is semisimple (its own semisimple
    # part), so (s, n) is the Jordan decomposition
    ctx = sl.mat_context(3, 3)
    x = ctx.all_matrices()
    s, n = ctx.jordan_decomposition(x)
    assert len(x) == 19683
    assert np.array_equal((s + n) % 3, x)
    assert np.array_equal(s @ n % 3, n @ s % 3)
    assert not (n @ n % 3 @ n % 3).any()
    ss, sn = ctx.jordan_decomposition(s)
    assert np.array_equal(ss, s) and not sn.any()


def _verify_spr_reference(ctx, x, comp, lower, xis):
    # the split check block by block, then one nilradical translate at
    # a time
    x = np.asarray(x, dtype=np.int64) % ctx.p
    xs, xn = ctx.jordan_decomposition(x)
    edges = [0]
    for m in comp:
        edges.append(edges[-1] + m)
    scalars = []
    for lo, hi in zip(edges, edges[1:]):
        a = int(xs[lo][lo])
        if (np.any(xs[lo:hi, :lo]) or np.any(xs[lo:hi, hi:])
                or not np.array_equal(xs[lo:hi, lo:hi],
                                      a * np.eye(hi - lo, dtype=np.int64))):
            raise ValueError("x not split for P")
        scalars.append(a)
    if len(set(scalars)) != len(scalars):
        raise ValueError("x not split for P")
    block = lambda i: next(b for b in range(len(comp))
                           if edges[b] <= i < edges[b + 1])
    positions = [(i, j) for i in range(ctx.n) for j in range(ctx.n)
                 if (block(i) > block(j) if lower else block(i) < block(j))]
    xi_at = lambda xi, m: int(xi.vals[int(ctx.encode(m[None])[0]), 0])
    for xi in xis:
        rhs = 0
        for coeffs in product(range(ctx.p), repeat=len(positions)):
            u = xn.copy()
            for t, (i, j) in zip(coeffs, positions):
                u[i][j] = (u[i][j] + t) % ctx.p
            rhs += xi_at(xi, u)
        if ctx.p ** len(positions) * xi_at(xi, x) != rhs:
            return False
    return True


def _same_outcome(ctx, x, comp, lower, xis):
    try:
        want = _verify_spr_reference(ctx, x, comp, lower, xis)
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            sl.verify_spr(ctx, x, comp, lower, xis)
        return "raises"
    assert sl.verify_spr(ctx, x, comp, lower, xis) is want
    return want


def test_verify_spr_matches_loop_reference_gl2(gl2, gl2_xis):
    # both Borels on every diagonal element, repeated scalars and a
    # non-split companion matrix included, and the trivial parabolic,
    # whose nilradical is empty
    outcomes = []
    for a, b in product(range(3), repeat=2):
        for lower in (False, True):
            outcomes.append(_same_outcome(gl2, np.diag([a, b]), (1, 1),
                                          lower, gl2_xis))
    for x in ([[0, 1], [1, 1]], [[1, 1], [0, 1]], [[2, 0], [1, 2]]):
        for comp in ((1, 1), (2,)):
            outcomes.append(_same_outcome(gl2, np.array(x), comp, False,
                                          gl2_xis))
    assert {True, "raises"} <= set(outcomes)


def test_verify_spr_matches_loop_reference_gl3(gl3):
    # sampled split elements of both (2, 1) parabolics, against every
    # sl2_reps test function: the (3,) triple is not good over F_3, so
    # the identity fails on some of them
    xis = [sl.test_fn(gl3, c, d) for _, c, _, d in sl.sl2_reps(gl3)]
    rng = random.Random(1)
    outcomes = []
    for _ in range(12):
        a, b = rng.sample(range(3), 2)
        x = np.array([[a, rng.randrange(3), 0], [0, a, 0], [0, 0, b]])
        for lower in (False, True):
            outcomes.append(_same_outcome(gl3, x, (2, 1), lower, xis))
    # not split: the semisimple part is not scalar on the 2x2 block
    outcomes.append(_same_outcome(gl3, np.diag([0, 1, 2]), (2, 1), False,
                                  xis))
    outcomes.append(_same_outcome(
        gl3, np.array([[0, 1, 0], [1, 1, 0], [0, 0, 2]]), (2, 1), False,
        xis))
    assert {True, False, "raises"} <= set(outcomes)


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


def test_sampled_support_and_witness_use_reference_draws(gl2):
    # under a small budget both searches see exactly the reference draws
    # for the same rng
    c, x = e12(), np.diag([1, 2])
    trip = lie.sl2_complete(gl2.to_ff(c), gl2.factor)
    check = sl._membership_checker(gl2, c, gl2.from_ff(trip.d))
    seen = set()
    for seed in range(20):
        moved = _sampled_conjugates_reference(gl2, x, 3,
                                              random.Random(seed))
        want = "supports" if check(moved).any() else "unknown"
        assert sl.support_test(gl2, c, x, budget=3,
                               rng=random.Random(seed)) == want
        hit = (~((moved - c) % 3)[:, 0, 1:].any(axis=1)).any()
        if hit:
            assert sl.good1_check(gl2, x, (1, -1), 2, c, budget=3,
                                  rng=random.Random(seed)) is True
        else:
            with pytest.raises(ValueError, match="witness not found"):
                sl.good1_check(gl2, x, (1, -1), 2, c, budget=3,
                               rng=random.Random(seed))
        seen.add(want)
    assert seen == {"supports", "unknown"}


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
    xis3 = [sl.test_fn(gl3, c, d) for _, c, _, d in sl.sl2_reps(gl3)]
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


def _theta_reference(x, p):
    # Ad(g)x = g x g^-1 over F_p, one g at a time, inverse written out
    count = 0
    for a, b, c, d in product(range(p), repeat=4):
        det = (a * d - b * c) % p
        if det:
            g = np.array([[a, b], [c, d]])
            ginv = pow(det, p - 2, p) * np.array([[d, -b], [-c, a]]) % p
            y = g @ np.array(x) @ ginv % p
            count += y[0, 1] == 1 and y[0, 0] == y[1, 1]
    return count // (p - 1)


@pytest.mark.parametrize("p, samples", [(3, 81), (5, 12)])
def test_theta_count_matches_direct_reference(p, samples):
    xs = list(product(range(p), repeat=4))
    for x in random.Random(p).sample(xs, samples):
        x = [x[:2], x[2:]]
        assert sl.theta_count(x, p) == _theta_reference(x, p)


# -- flag variety counts -------------------------------------------------


@pytest.mark.parametrize("p,d", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1),
                                 (23, 1)])
def test_isotropic_point_count_closed_form(p, d):
    # a smooth quadric in P^4(F_q) has (q+1)(q^2+1) points: the split
    # form solves with G[4][4] = 0, the identity with G[4][4] != 0
    K = ff.ExtField(p, d)
    q = p ** d
    for gram in (sl.curve_spec(1, p).gram, np.eye(5, dtype=int).tolist()):
        assert len(sl.isotropic_points(K, gram)) == (q + 1) * (q * q + 1)


def _isotropic_by_direct_scan(K, gram):
    # one point of P^(n-1) at a time, B(v, v) summed on the field tables
    n = len(gram)
    out = []
    for pivot in range(n):
        for tail in product(range(K.q), repeat=n - pivot - 1):
            v = [0] * pivot + [1] + list(tail)
            s = 0
            for i in range(n):
                for j in range(n):
                    s = K.add[s][K.mul[v[i]][K.mul[gram[i][j]][v[j]]]]
            if s == 0:
                out.append(v)
    return out


def _isotropic_in(K, gram, V):
    # the bulk scan the quadric solve replaced: the columns of V with
    # B(v, v) = 0, in order
    return V[:, sl._dots(K, V, sl._mat_vecs(K, gram, V)) == 0]


def _projective_space(q, n):
    # P^(n-1)(F_q) as pivot-normalized integer columns, pivot by pivot
    # and lexicographic within each pivot
    blocks = []
    for pivot in range(n):
        free = n - 1 - pivot
        v = np.zeros((n, q ** free), dtype=np.int64)
        v[pivot] = 1
        v[pivot + 1:] = np.indices((q,) * free).reshape(free, q ** free)
        blocks.append(v)
    return np.concatenate(blocks, axis=1)


# Largest n drawn per field order q: P^(n-1)(F_q) stays within the reach
# of the per-point scan above, and p = 7 stops at n = 4, since a 5x5 gram
# with every row in the radical makes 1,120,400 flag pairs at p = 7,
# minutes for the flag reference (the p = 5 zero gram is pinned below).
MAX_DIM = {3: 5, 5: 5, 7: 4, 9: 5, 25: 4, 49: 3}


@st.composite
def symmetric_grams(draw, degrees=(1,)):
    p = draw(st.sampled_from([3, 5, 7]))
    d = draw(st.sampled_from(degrees))
    n = draw(st.integers(1, MAX_DIM[p ** d]))
    return ff.ExtField(p, d), _symmetric_gram(draw, p ** d, n)


def _symmetric_gram(draw, q, n):
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(st.integers(0, q - 1))
    # a radical: rows and columns forced to vanish
    for k in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        for i in range(n):
            gram[i][k] = gram[k][i] = 0
    return gram


@st.composite
def gram_batches(draw):
    # up to four forms of one size over one field, degenerate ones
    # (a radical, the zero form) included
    K, gram = draw(symmetric_grams(degrees=(1, 2)))
    return K, [gram] + [_symmetric_gram(draw, K.q, len(gram))
                        for _ in range(draw(st.integers(0, 3)))]


def _batch(K, grams):
    # the k x k grid of (F,) code arrays that `_quadric_points` takes
    n = len(grams[0])
    return [[np.array([g[s][t] for g in grams], dtype=K.arrays()[0].dtype)
             for t in range(n)] for s in range(n)]


@settings(max_examples=40, deadline=None)
@given(symmetric_grams(degrees=(1, 2)))
def test_isotropic_points_match_direct_scan(case):
    K, gram = case
    pts = sl.isotropic_points(K, gram)
    assert pts == _isotropic_by_direct_scan(K, gram)
    assert pts == _isotropic_in(K, gram,
                                _projective_space(K.q, len(gram))).T.tolist()


@settings(max_examples=40, deadline=None)
@given(gram_batches())
def test_batched_solver_matches_one_form_at_a_time(case):
    K, grams = case
    points, forms = sl._quadric_points(K, _batch(K, grams))
    assert points.shape == (len(grams[0]), len(forms))
    for f, gram in enumerate(grams):
        assert points[:, forms == f].T.tolist() == \
            sl._isotropic_array(K, gram).T.tolist()


@pytest.mark.parametrize("p,d", [(3, 2), (7, 1)])
def test_batched_solver_in_chunks_matches_one_chunk(p, d, monkeypatch):
    # the split, zero, diagonal and rank-2 forms on F_q^4: two prefixes
    # for all four forms a step (8 rows), then one
    K = ff.ExtField(p, d)
    grams = [[[int(i + j == 3) for j in range(4)] for i in range(4)],
             [[0] * 4 for _ in range(4)],
             np.eye(4, dtype=int).tolist(),
             [[int(i == j < 2) for j in range(4)] for i in range(4)]]
    whole = sl._quadric_points(K, _batch(K, grams))
    for chunk in (8, 1):
        monkeypatch.setattr(sl, "CURVE_CHUNK", chunk)
        for got, want in zip(sl._quadric_points(K, _batch(K, grams)),
                             whole):
            assert np.array_equal(got, want)


def _curve_count_by_scan(coeff, p, V):
    # the curve condition on every isotropic point of the scan V, in
    # integer arithmetic mod p
    spec = sl.curve_spec(coeff, p)
    G, X = np.array(spec.gram), np.array(spec.X)
    form = lambda a, b: (a * (G @ b)).sum(axis=0) % p
    V = V[:, form(V, V) == 0]
    W = X @ V % p
    ok = (form(V, W) == 0) & (form(W, W) == 0) & (form(X @ W % p, W) != 0)
    return int(np.count_nonzero(ok))


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_curve_count_matches_p4_scan(p):
    V = _projective_space(p, 5)
    for coeff in (1, 3):
        assert sl.curve_count(coeff, p) == _curve_count_by_scan(coeff, p, V)


# One vector at a time, on the field's tables: the arithmetic of the
# per-flag references below.

def _vec_add(K, u, v):
    return [K.add[a][b] for a, b in zip(u, v)]


def _vec_scale(K, t, u):
    return [K.mul[t][a] for a in u]


def _mat_vec(K, m, v):
    return [_dot(K, row, v) for row in m]


def _dot(K, u, v):
    s = 0
    for a, b in zip(u, v):
        s = K.add[s][K.mul[a][b]]
    return s


def _adapted_basis(K, gram, v0, v1):
    # one flag at a time, each step a `linalg` elimination: the route
    # that `sl._adapted_bases` takes for all flags at once
    gv0 = _mat_vec(K, gram, v0)
    gv1 = _mat_vec(K, gram, v1)
    # v2: perpendicular to the plane, unit length
    perp = la.kernel_basis([gv0, gv1], K, K.ops)
    v2 = None
    for w in perp:
        if la.rank([v0, v1, w], K.ops) == 3:
            v2 = w
            break
    s = _dot(K, v2, _mat_vec(K, gram, v2))
    root = K.sqrt[s]
    if not root:
        raise ValueError("middle vector has norm %d, not a nonzero square "
                         "in F_%d" % (s, K.q))
    v2 = _vec_scale(K, K.inv[root], v2)
    gv2 = _mat_vec(K, gram, v2)
    # v3: pairs with v1, isotropic
    w0 = la.solve([gv0, gv1, gv2], [0, 1, 0], K, K.ops)
    if w0 is None:
        raise sl._degenerate(K)
    b = K.mul[K.neg[_dot(K, w0, _mat_vec(K, gram, w0))]][K.inv[K.embed(2)]]
    v3 = _vec_add(K, w0, _vec_scale(K, b, v1))
    gv3 = _mat_vec(K, gram, v3)
    # v4: pairs with v0, isotropic
    u0 = la.solve([gv0, gv1, gv2, gv3], [1, 0, 0, 0], K, K.ops)
    if u0 is None:
        raise sl._degenerate(K)
    a = K.mul[K.neg[_dot(K, u0, _mat_vec(K, gram, u0))]][
        K.inv[K.embed(2)]]
    v4 = _vec_add(K, u0, _vec_scale(K, a, v0))
    basis = [v0, v1, v2, v3, v4]
    if la.rref(basis, K.ops)[2] != 1:
        basis[2] = _vec_scale(K, K.neg[1], v2)
    return basis


def _flag_pairs_reference(K, gram):
    # per v0: kernel of G v0 by elimination, a complement of v0 in it by
    # a greedy pass of independent vectors, then its isotropic points by
    # a scan of the complement's projective space
    n = len(gram)
    spaces = {}
    for v0 in _isotropic_by_direct_scan(K, gram):
        gv0 = _mat_vec(K, gram, v0)
        basis = []
        span = [v0]
        for w in la.kernel_basis([gv0], K, K.ops):
            cand = span + [w]
            if la.rank(cand, K.ops) == len(cand):
                span = cand
                basis.append(w)
        if not basis:
            continue
        qgram = [[_dot(K, a, _mat_vec(K, gram, b)) for b in basis]
                 for a in basis]
        if len(basis) not in spaces:
            spaces[len(basis)] = _projective_space(K.q, len(basis))
        for a in _isotropic_in(K, qgram, spaces[len(basis)]).T.tolist():
            v1 = [0] * n
            for t, w in zip(a, basis):
                v1 = _vec_add(K, v1, _vec_scale(K, t, w))
            yield v0, v1


def _flags_as_pairs(K, gram):
    v0s, v1s = sl._flags(K, gram)
    return list(zip(v0s.T.tolist(), v1s.T.tolist()))


@settings(max_examples=40, deadline=None)
@given(symmetric_grams())
def test_flags_match_reference_enumeration(case):
    K, gram = case
    assert _flags_as_pairs(K, gram) == list(_flag_pairs_reference(K, gram))


def test_flags_match_reference_on_zero_gram():
    # the fully degenerate shape: every point of P^4(F_5) is isotropic
    # and every complement too, 121,836 flag pairs
    K = ff.ExtField(5, 1)
    gram = [[0] * 5 for _ in range(5)]
    pairs = _flags_as_pairs(K, gram)
    assert len(pairs) == 121836
    assert pairs == list(_flag_pairs_reference(K, gram))


@settings(max_examples=40, deadline=None)
@given(symmetric_grams(degrees=(1, 2)))
def test_flag_count_matches_enumeration(case):
    K, gram = case
    assert sl._flag_count(K, gram) == sl._flags(K, gram)[0].shape[1]


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_flag_count_of_split_and_zero_forms(p, d):
    K = ff.ExtField(p, d)
    zero = [[0] * 5 for _ in range(5)]
    points = lambda k: (K.q ** k - 1) // (K.q - 1)
    assert sl._flag_count(K, sl.curve_spec(1, p).gram) == sl.flag_total(K.q)
    assert sl._flag_count(K, zero) == points(5) * points(4)


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_flags_match_reference_on_split_form(p, d):
    K = ff.ExtField(p, d)
    gram = sl.curve_spec(1, p).gram
    pairs = _flags_as_pairs(K, gram)
    assert len(pairs) == sl.flag_total(K.q)
    assert pairs == list(_flag_pairs_reference(K, gram))


def _point_count_reference(spec, deg):
    # one flag at a time, constraints in order of basis demand
    K = ff.ExtField(spec.p, deg)
    gram = [[K.embed(x) for x in row] for row in spec.gram]
    X = [[K.embed(x) for x in row] for row in spec.X]
    n = len(gram)
    cons = sorted(((i, j, spec.pattern[i][j]) for i in range(n)
                   for j in range(n) if spec.pattern[i][j] != "*"),
                  key=lambda t: max(t[1], n - 1 - t[0]))
    count = 0
    for v0, v1 in _flag_pairs_reference(K, gram):
        basis = None
        for i, j, kind in cons:
            if max(j, n - 1 - i) <= 1:
                vj, wi = (v0, v1)[j], (v0, v1)[n - 1 - i]
            else:
                if basis is None:
                    basis = _adapted_basis(K, gram, v0, v1)
                vj, wi = basis[j], basis[::-1][i]
            val = _dot(K, wi, _mat_vec(K, gram,
                                             _mat_vec(K, X, vj)))
            if (kind == "0") != (val == 0):
                break
        else:
            count += 1
    return count


def _outcome(fn):
    try:
        return fn()
    except ValueError as e:
        return "ValueError: %s" % e


@st.composite
def count_specs(draw):
    p = draw(st.sampled_from([3, 5]))
    ints = st.integers(0, p - 1)
    gram = draw(st.sampled_from([
        sl.curve_spec(1, p).gram,
        [[2 if i + j == 4 else 0 for j in range(5)] for i in range(5)],
        [[1 if i + j == 4 and i != 2 else 0 for j in range(5)]
         for i in range(5)]]))
    X = [[draw(ints) for _ in range(5)] for _ in range(5)]
    cells = st.tuples(st.integers(0, 4), st.integers(0, 4))
    cons = draw(st.dictionaries(cells, st.sampled_from("0!"), max_size=6))
    pattern = ["".join(cons.get((i, j), "*") for j in range(5))
               for i in range(5)]
    return sl.VarietySpec(gram, X, pattern, p)


@settings(max_examples=30, deadline=None)
@given(count_specs(), st.just(1))
@example(sl.VarietySpec([[2 if i + j == 4 else 0 for j in range(5)]
                         for i in range(5)],
                        sl.curve_spec(1, 3).X, sl.curve_spec(1, 3).pattern,
                        3), 2)
def test_point_count_matches_per_flag_reference(spec, deg):
    assert (_outcome(lambda: sl.point_count(spec, (deg,))[deg])
            == _outcome(lambda: _point_count_reference(spec, deg)))


def test_point_count_in_chunks_matches_one_chunk(monkeypatch):
    # the 112 flags of the curve spec at F_9 that reach the adapted bases
    # three at a time, and one at a time on a spec that raises
    spec = sl.curve_spec(1, 3)
    degenerate = sl.VarietySpec(
        [[1 if i + j == 4 and i != 2 else 0 for j in range(5)]
         for i in range(5)], spec.X, spec.pattern, 3)
    whole = [_outcome(lambda: sl.point_count(s, (2,))[2])
             for s in (spec, degenerate)]
    for flags in (3, 1):
        monkeypatch.setattr(sl, "CURVE_CHUNK", 25 * flags)
        assert [_outcome(lambda: sl.point_count(s, (2,))[2])
                for s in (spec, degenerate)] == whole


def _reaching_flags(K, spec):
    # the flags that pass the pattern entries read off v0 and v1 alone,
    # as point_count selects them
    gram = [[K.embed(x) for x in row] for row in spec.gram]
    GX = sl._mat_vecs(K, gram, np.array(spec.X, dtype=np.int64) % K.p)
    early = [(i, j, c) for i, row in enumerate(spec.pattern)
             for j, c in enumerate(row) if c != "*" and max(j, 4 - i) <= 1]
    flags = sl._flags(K, gram)
    ok = sl._pattern_holds(K, GX, flags, early)
    return gram, flags[0][:, ok], flags[1][:, ok]


@pytest.mark.parametrize("coeff", [1, 3])
@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_adapted_bases_match_per_flag_reference(p, d, coeff):
    K = ff.ExtField(p, d)
    gram, V0, V1 = _reaching_flags(K, sl.curve_spec(coeff, p))
    assert V0.shape[1] > 0
    bases = sl._adapted_bases(K, gram, V0, V1)
    assert bases.shape == (5, 5, V0.shape[1])
    for f, (v0, v1) in enumerate(zip(V0.T.tolist(), V1.T.tolist())):
        assert bases[:, :, f].tolist() == _adapted_basis(K, gram, v0, v1)


CURVE_PATTERN = sl.curve_spec(1, 3).pattern


@pytest.mark.parametrize("p,gram,pattern,error", [
    (3, [[2 if i + j == 4 else 0 for j in range(5)] for i in range(5)],
     CURVE_PATTERN, "middle vector has norm 2,"),
    (3, [[1 if i + j == 4 and i != 2 else 0 for j in range(5)]
         for i in range(5)], CURVE_PATTERN, "middle vector has norm 0,"),
    # rank 3: the first flag with an error has a middle vector of square
    # norm and a system with no solution
    (5, [[0, 4, 0, 0, 0], [4, 0, 0, 0, 0], [0, 0, 4, 0, 0], [0] * 5,
         [0] * 5], CURVE_PATTERN, "degenerate gram:"),
    # the first flag with an error has both, and the norm comes first
    (3, [[0, 2, 0, 0, 0], [2, 0, 0, 0, 2], [0] * 5, [0, 0, 0, 0, 2],
         [0, 2, 0, 2, 2]], ["*****", "*****", "0****", "*****", "*****"],
     "middle vector has norm 0,"),
])
def test_point_count_errors_match_per_flag_reference(p, gram, pattern,
                                                     error):
    spec = sl.VarietySpec(gram, sl.curve_spec(1, p).X, pattern, p)
    got = _outcome(lambda: sl.point_count(spec)[1])
    assert got.startswith("ValueError: " + error)
    assert got == _outcome(lambda: _point_count_reference(spec, 1))


def test_all_free_pattern_counts_all_flags():
    spec = sl.curve_spec(1, 3)
    free = sl.VarietySpec(spec.gram, spec.X, ["*****"] * 5, 3)
    out = sl.point_count(free, degrees=(1, 2))
    assert out[1] == sl.flag_total(3) == 160
    assert out[2] == sl.flag_total(9) == 8200


def test_point_count_cap():
    # F_125 has flag_total(125) = 248,078,376 flags, past SCAN_CAP
    spec = sl.curve_spec(1, 5)
    with pytest.raises(ValueError,
                       match=r"enumeration too large \(248078376 flags\)"):
        sl.point_count(spec, degrees=(3,))


def test_point_count_cap_on_degenerate_form():
    # the zero gram has every point of P^4(F_9) isotropic and every
    # complement too: 7,381 x 820 flags, past SCAN_CAP, where the split
    # form over F_9 has 8,200
    zero = [[0] * 5 for _ in range(5)]
    spec = sl.VarietySpec(zero, sl.curve_spec(1, 3).X, ["*****"] * 5, 3)
    with pytest.raises(ValueError,
                       match=r"enumeration too large \(6052420 flags\)"):
        sl.point_count(spec, degrees=(2,))
    # over F_3 the same form has 121 x 40 flags
    assert sl.point_count(spec, degrees=(1,)) == {1: 4840}


def test_point_count_accepts_degenerate_form_within_cap():
    # the zero gram over F_5: 781 x 156 = 121,836 flags, all counted
    zero = [[0] * 5 for _ in range(5)]
    spec = sl.VarietySpec(zero, sl.curve_spec(1, 5).X, ["*****"] * 5, 5)
    assert sl.point_count(spec) == {1: 121836}


@pytest.mark.parametrize("p,coeff,want", [
    (3, 3, goldens.CURVE_COUNT_Q3[3]), (3, 1, goldens.CURVE_COUNT_Q3[1]),
    (5, 3, goldens.CURVE_COUNT_Q5[3]), (5, 1, goldens.CURVE_COUNT_Q5[1]),
    (7, 3, 4), (7, 1, 0), (11, 3, 8), (11, 1, 8),
])
def test_curve_fast_path_matches_generic(p, coeff, want):
    generic = sl.point_count(sl.curve_spec(coeff, p), degrees=(1,))[1]
    fast = sl.curve_count(coeff, p, 1)
    assert generic == fast == want


def test_curve_extension_degree_two():
    assert sl.curve_count(1, 3, 2) == goldens.CURVE_COUNT_Q9_COEFF1
    assert (sl.point_count(sl.curve_spec(1, 3), degrees=(2,))[2]
            == goldens.CURVE_COUNT_Q9_COEFF1)


@pytest.mark.parametrize("p", sorted(goldens.CURVE_ZEROS))
def test_curve_zero_sets_across_primes(p):
    counts = sl.curve_counts(range(1, p), p)
    assert {c for c, n in zip(range(1, p), counts) if not n} \
        == goldens.CURVE_ZEROS[p]
    assert all(n % 4 == 0 for n in counts)


def _curve_count_per_coefficient(K, code):
    # the curve condition tested at one corner coefficient, given by its
    # element code, against the isotropic points: the body of
    # curve_counts before the one pass over all coefficients
    gram = [[K.embed(x) for x in row] for row in sl.curve_spec(1, K.p).gram]
    X = [[K.embed(x) for x in row] for row in sl.curve_spec(0, K.p).X]
    X[0][1] = X[3][4] = code
    v0 = sl._isotropic_array(K, gram)
    w = sl._mat_vecs(K, X, v0)
    gw = sl._mat_vecs(K, gram, w)
    ok = (sl._dots(K, v0, gw) == 0) & (sl._dots(K, w, gw) == 0)
    ok &= sl._dots(K, sl._mat_vecs(K, X, w), gw) != 0
    return int(np.count_nonzero(ok))


@pytest.mark.parametrize("p,d", [(5, 1), (7, 1), (11, 1), (13, 1),
                                 (17, 1), (19, 1), (23, 1), (29, 1),
                                 (31, 1), (3, 2), (5, 2), (3, 3)])
def test_one_pass_matches_per_coefficient_tests(p, d):
    # every element of F_q as the corner coefficient, the prime field's
    # 0..p-1 among them
    K = ff.ext_field(p, d)
    want = [_curve_count_per_coefficient(K, c) for c in range(K.q)]
    gram = [[K.embed(x) for x in row] for row in sl.curve_spec(1, p).gram]
    table = sl._curve_table(K, gram)
    assert table.tolist() == want
    assert sl.curve_counts(range(p), p, d) == want[:p]


def test_one_pass_in_chunks_matches_one_chunk(monkeypatch):
    # p = 31 has 30,784 isotropic points: 1,000 a step against all at once
    K = ff.ExtField(31, 1)
    gram = sl.curve_spec(1, 31).gram
    whole = sl._curve_table(K, gram)
    monkeypatch.setattr(sl, "CURVE_CHUNK", 1000)
    assert np.array_equal(sl._curve_table(ff.ExtField(31, 1), gram), whole)


def test_curve_decision_at_q23():
    # the decisive dichotomy: corner coefficient 3 admits no rational
    # point over F_23, coefficient 1 does
    assert sl.curve_count(3, 23) == goldens.CURVE_COUNT_Q23[3] == 0
    assert sl.curve_count(1, 23) == goldens.CURVE_COUNT_Q23[1] == 16


def test_variety_spec_validates_pattern():
    spec = sl.curve_spec(1, 3)
    with pytest.raises(ValueError, match="pattern entries"):
        sl.VarietySpec(spec.gram, spec.X, ["?????"] * 5, 3)


def test_variety_spec_reads_symmetry_mod_p():
    # 4 = 1 mod 3: the split form at p = 3, but not symmetric at p = 5
    spec = sl.curve_spec(1, 3)
    gram = [list(row) for row in spec.gram]
    gram[0][4] = 4
    assert sl.point_count(sl.VarietySpec(gram, spec.X, spec.pattern, 3)) \
        == sl.point_count(spec)
    with pytest.raises(ValueError, match="gram must be symmetric"):
        sl.VarietySpec(gram, spec.X, spec.pattern, 5)
