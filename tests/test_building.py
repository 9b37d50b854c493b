import functools
import json
import math
from fractions import Fraction as Fr
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicwf import building as bd
from padicwf.graph import facet_center, in_closure
from padicwf.localfield import LocalField

from goldens import SL3_FACET_SIGNS


def zmat(field, n):
    return [[field.zero() for _ in range(n)] for _ in range(n)]


# -- exact rational helpers ---------------------------------------------


def test_qsolve_unique():
    assert bd.qsolve_unique([[1, 1], [1, -1]], [3, 1]) == (2, 1)
    assert bd.qsolve_unique([[1, 1]], [3]) is None  # underdetermined
    assert bd.qsolve_unique([[1, 0], [1, 0]], [1, 2]) is None


def test_qrank():
    assert bd.qrank([[1, 2], [2, 4]]) == 1
    assert bd.qrank([[1, 0], [0, 1], [1, 1]]) == 2
    assert bd.qrank([]) == 0


def cell(window, cuts):
    """The one-cell route's vertices as rational points, each with its
    mask of tight cuts, for constraints (a, b, s) over Q."""
    return {bd._point(h): m for h, m in bd.cell_vertices(
        window, [(bd._integral(a, b), s) for a, b, s in cuts])}


def test_cell_vertices_triangle():
    # x >= 0, y >= 0, x + y <= 1 inside the box [-1, 2]^2
    cuts = [((Fr(-1), Fr(0)), Fr(0), -1), ((Fr(0), Fr(-1)), Fr(0), -1),
            ((Fr(1), Fr(1)), Fr(1), -1)]
    vs = cell(bd.Window([(-1, 2)], -1, 2), cuts)
    assert vs == {(0, 0): 0b011, (1, 0): 0b110, (0, 1): 0b101}


def test_cell_vertices_with_equality():
    # segment x + y = 1 inside the unit square
    vs = cell(bd.Window([(0, 1)], 0, 1), [((Fr(1), Fr(1)), Fr(1), 0)])
    assert vs == {(1, 0): 1, (0, 1): 1}


def test_cell_vertices_parallel_dedup():
    # two parallel upper bounds: only the tighter one matters
    cuts = [((Fr(1),), Fr(5), -1), ((Fr(1),), Fr(2), -1),
            ((Fr(-1),), Fr(0), -1)]
    vs = cell(bd.Window([], -1, 6), cuts)
    assert vs == {(0,): 0b100, (2,): 0b010}
    assert cell(bd.Window([], -1, 6), cuts + [((Fr(1),), Fr(3), 1)]) == {}


# -- coupling classes ----------------------------------------------------


def test_gl_classes():
    L = LocalField(5)
    cls = bd.coupling_classes("gl", 3, L)
    assert len(cls) == 9
    assert all(c.pdim == 1 and c.step == 1 for c in cls)


def test_u6_classes_dimension():
    m = bd.u6_model(23)
    # total residue dims per unit valuation interval = dim_k of the algebra
    # over one period: 6 diag lines + 15 off-diag pairs * 2 = 36
    assert sum(c.pdim for c in m.classes) == 36
    # the (i,5) pairs carry the gram shift val(varpi) = 1
    c, s = m.position_class(5, 0)
    partner = [mem for mem in c.members if (mem[0], mem[1]) == (0, 5)]
    assert partner and partner[0][2] - s in (1, -1)


def test_u7_self_coupled_grid():
    m = bd.u7_model(23)
    c, _ = m.position_class(0, 6)  # antidiagonal position, self-paired
    assert c.offset == Fr(1, 2) and c.step == 1 and c.pdim == 1


# -- critical hyperplanes ------------------------------------------------

SL2_WIN = bd.Window([(0, Fr(1, 2))], 0, 1)


def plane_of(form):
    """(coeffs, const) of the plane {r = f(x)} whose integer form
    `critical_hyperplanes` gives: a positive multiple w of
    (-coeffs, 1, -const)."""
    w = form[-2]
    return tuple(Fr(-a, w) for a in form[:-2]), Fr(-form[-1], w)


def test_sl2_plane_list():
    m = bd.sl2_model(3)
    planes = bd.critical_hyperplanes(m, SL2_WIN)
    got = {plane_of(c) for c in planes}
    want = {((Fr(0),), Fr(0)), ((Fr(0),), Fr(1)),
            ((Fr(2),), Fr(-1)), ((Fr(2),), Fr(0)), ((Fr(2),), Fr(1)),
            ((Fr(-2),), Fr(0)), ((Fr(-2),), Fr(1)), ((Fr(-2),), Fr(2))}
    assert got == want


def test_planes_meet_window():
    m = bd.u7_model(23)
    win = bd.Window([(0, 1), (0, 1)], 0, Fr(1, 2))
    for c in bd.critical_hyperplanes(m, win):
        lo, hi = bd._frange(*plane_of(c), win)
        assert lo <= win.rmax and hi >= win.rmin


# -- facets --------------------------------------------------------------


def test_facet_of_vertex():
    m = bd.sl2_model(3)
    f = bd.facet_of(m, SL2_WIN, (0,), 0)
    assert f.dim() == 0 and f.depth() == 0 and f.is_horizontal()
    # lies on r=0, r=2x and r=-2x simultaneously
    assert sum(1 for s in f.signs if s == 0) == 3


def test_facet_of_outside_window():
    m = bd.sl2_model(3)
    with pytest.raises(ValueError):
        bd.facet_of(m, SL2_WIN, (2,), 0)


def test_facet_constant_on_chamber():
    m = bd.sl2_model(3)
    f1 = bd.facet_of(m, SL2_WIN, (Fr(1, 8),), Fr(1, 16))
    f2 = bd.facet_of(m, SL2_WIN, (Fr(1, 10),), Fr(1, 20))
    assert f1 == f2
    assert f1.dim() == 2 and not f1.is_horizontal()


# -- the arrangement engine ---------------------------------------------


def sl2_grid_census(x0, x1, r0, r1):
    """Distinct sign vectors of the sl2 lines r = k, r = k + 2x and
    r = k - 2x over the 1/48 grid of a window with endpoints in 1/4
    steps.  Vertices then have denominators dividing 8, edge midpoints
    16 and triangle centroids 24, so the grid meets every face."""
    n = 48
    lines = []
    for c in (0, 2, -2):
        lo, hi = min(c * x0, c * x1), max(c * x0, c * x1)
        lines += [(c, k) for k in range(math.ceil(r0 - hi),
                                        math.floor(r1 - lo) + 1)]
    return len({tuple((d > 0) - (d < 0)
                      for d in (R - n * k - c * X for c, k in lines))
                for X in range(int(x0 * n), int(x1 * n) + 1)
                for R in range(int(r0 * n), int(r1 * n) + 1)})


def sl2_grid_vertices(model, win):
    """The vertices of the arrangement on the 1/8 grid, with their sign
    vectors: the points at which the tight lines and box sides have rank
    2.  With window endpoints in 1/4 steps, every vertex is on the grid.
    The closure of a face has for vertices those lying in it."""
    planes = [plane_of(c) for c in bd.critical_hyperplanes(model, win)]
    (x0, x1), = win.xranges
    out = {}
    for i in range(int(x0 * 8), int(x1 * 8) + 1):
        for j in range(int(win.rmin * 8), int(win.rmax * 8) + 1):
            x, r = Fr(i, 8), Fr(j, 8)
            signs = tuple(sign_at(pl, (x,), r) for pl in planes)
            rows = [(-coeffs[0], 1)
                    for (coeffs, _), s in zip(planes, signs) if s == 0]
            rows += [(1, 0)] * (x in (x0, x1)) + \
                [(0, 1)] * (r in (win.rmin, win.rmax))
            if any(a * d - b * c for a, b in rows for c, d in rows):
                out[(x, r)] = signs
    return out


@st.composite
def sl2_subwindows(draw):
    """Sub-windows of x in [0, 1], r in [-1, 2], endpoints in 1/4 steps
    (degenerate ranges included)."""
    x0, x1 = sorted(draw(st.integers(0, 4)) for _ in range(2))
    r0, r1 = sorted(draw(st.integers(-4, 8)) for _ in range(2))
    return Fr(x0, 4), Fr(x1, 4), Fr(r0, 4), Fr(r1, 4)


@settings(max_examples=100, deadline=None)
@given(sl2_subwindows())
def test_arrangement_sl2_faces(window):
    x0, x1, r0, r1 = window
    m = bd.sl2_model(3)
    win = bd.Window([(x0, x1)], r0, r1)
    faces = bd.Arrangement(m, win).faces
    assert len(faces) == len({f.signs for f in faces})
    assert len(faces) == sl2_grid_census(*window)
    corners = sl2_grid_vertices(m, win)
    for f in faces:
        x, r = facet_center(f)
        assert bd.facet_of(m, win, x, r).signs == f.signs
        assert set(f.vertices()) == {
            p for p, signs in corners.items()
            if all(s == t or s == 0 for s, t in zip(signs, f.signs))}


def _dim_windows():
    """Every sl2 tier window of the arrangement benchmark, the sl2
    window of the descent scenario, the sl3 and u7h unit windows and
    two degenerate windows."""
    sl2, sl3, u7h = bd.sl2_model(3), bd.sl3_model(3), bd.u7_h_model(23)
    tiers = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                        / "windows.json").read_text())["tiers"]
    out = []
    for tier in tiers:
        for w in tier["windows"]:
            x0, x1, r0, r1 = map(Fr, w.split())
            out.append((sl2, bd.Window([(x0, x1)], r0, r1)))
    unit = [(0, 1), (0, 1)]
    return out + [(sl2, bd.Window([(0, 1)], -1, 2)),
                  (sl3, bd.Window(unit, -1, 1)),
                  (u7h, bd.Window(unit, -1, 1)),
                  (sl2, bd.Window([(Fr(1, 2), Fr(1, 2))], -1, 2)),
                  (sl3, bd.Window([(Fr(1, 2), Fr(1, 2)), (0, 1)], -1, 1))]


@functools.lru_cache(maxsize=None)
def _dim_faces():
    """The faces of every `_dim_windows` window, built once."""
    return [f for model, win in _dim_windows()
            for f in bd.Arrangement(model, win).faces]


def test_engine_dimensions_equal_the_vertex_rank():
    # the arrangement reads a face's dimension off the constraints tight
    # at all its vertices; the rank of the vertex differences must agree
    n = 0
    for f in _dim_faces():
        v0, *rest = f.vertices()
        diffs = [[a - b for a, b in zip(v, v0)] for v in rest]
        assert f.dim() == (bd.qrank(diffs) if diffs else 0)
        n += 1
    assert n == 19867


def test_depth_kind_and_centre_equal_the_fraction_route():
    # faces hold homogeneous integer vertices; depth, kind and centre
    # read off them must equal the Fraction route over their points
    for f in _dim_faces():
        vs = f.vertices()
        depth = max(v[-1] for v in vs)
        assert f.depth() == depth
        assert f.is_horizontal() == all(v[-1] == depth for v in vs)
        c = tuple(sum(col) / len(vs) for col in zip(*vs))
        assert facet_center(f) == (c[:-1], c[-1])


UNIT_WINDOWS = _dim_windows()[-5:-2]  # the sl2, sl3 and u7h unit windows


def test_direction_keyed_rank_equals_the_rank_of_the_masked_rows(
        monkeypatch):
    # the window's ranker reads a mask as a set of row directions and
    # keeps one rank per set for the model; on every mask an arrangement
    # asks about, that rank is the rank of the rows the mask picks
    monkeypatch.setattr(bd, "_PLANE_CACHE", {})
    asked = []
    ranker = bd._ranker

    def recording(rows, *memo):
        rank = ranker(rows, *memo)

        def asking(mask):
            got = rank(mask)
            asked.append((rows, mask, got))
            return got
        return asking
    monkeypatch.setattr(bd, "_ranker", recording)
    for model, win in UNIT_WINDOWS:
        bd.Arrangement(model, win)
    assert len({(id(rows), mask) for rows, mask, _ in asked}) > 2000
    for rows, mask, got in asked:
        assert got == bd.qrank([row for i, row in enumerate(rows)
                                if mask >> i & 1])


def test_arrangement_sl3_golden():
    m = bd.sl3_model(3)
    win = bd.Window([(0, Fr(1, 4)), (0, Fr(1, 4))], Fr(1, 8), Fr(1, 4))
    code = {1: "+", -1: "-", 0: "0"}
    got = sorted("".join(code[s] for s in f.signs)
                 for f in bd.Arrangement(m, win).faces)
    assert got == SL3_FACET_SIGNS


def test_facets_below_sl2_segment():
    m = bd.sl2_model(3)
    # open segment of {r = 2x} below its crossing with {r = 1 - 2x}
    f = bd.facet_of(m, SL2_WIN, (Fr(1, 8),), Fr(1, 4))
    assert f.dim() == 1 and f.depth() == Fr(1, 2)
    below = bd.facets_below(f)
    assert len(below) == 1
    b = below[0]
    assert b.is_horizontal() and b.depth() == Fr(1, 2) and b.dim() == 0
    assert facet_center(b) == ((Fr(1, 4),), Fr(1, 2))


def test_no_horizontal_facet_below():
    # the chamber's top is the box side r = 3/8, on no critical line
    m = bd.sl2_model(3)
    win = bd.Window([(0, Fr(1, 2))], 0, Fr(3, 8))
    f = bd.facet_of(m, win, (Fr(1, 4),), Fr(11, 32))
    assert f.dim() == 2 and f.depth() == Fr(3, 8)
    with pytest.raises(ValueError, match="no horizontal facet below"):
        bd.facets_below(f)


@settings(max_examples=100, deadline=None)
@given(sl2_subwindows())
def test_facets_below_matches_the_arrangement(window):
    """Second route for the descent step: the facets below a face are
    the engine's horizontal faces in its closure at its depth."""
    x0, x1, r0, r1 = window
    m = bd.sl2_model(3)
    faces = bd.Arrangement(m, bd.Window([(x0, x1)], r0, r1)).faces
    for f in faces:
        if f.is_horizontal():
            continue
        want = sorted(g.signs for g in faces
                      if g.is_horizontal() and g.depth() == f.depth()
                      and in_closure(g, f))
        if not want:
            with pytest.raises(ValueError, match="no horizontal facet"):
                bd.facets_below(f)
            continue
        below = bd.facets_below(f)
        assert sorted(g.signs for g in below) == want
        order = [(g.dim(), g.signs) for g in below]
        assert order == sorted(order)
        assert all(bd.precede(f, g) for g in below)


def test_facets_below_requires_vertical():
    m = bd.sl2_model(3)
    f = bd.facet_of(m, SL2_WIN, (0,), 0)
    with pytest.raises(ValueError):
        bd.facets_below(f)


def test_precede():
    m = bd.sl2_model(3)
    v0 = bd.facet_of(m, SL2_WIN, (0,), 0)
    seg = bd.facet_of(m, SL2_WIN, (Fr(1, 8),), Fr(1, 4))
    chamber = bd.facet_of(m, SL2_WIN, (Fr(1, 8),), Fr(1, 16))
    assert bd.precede(v0, seg) and not bd.precede(seg, v0)
    assert bd.precede(v0, chamber)


def test_facets_below_invariants():
    """Everything below a facet: horizontal, same depth, closure signs."""
    m = bd.sl2_model(3)
    samples = [((Fr(1, 8),), Fr(1, 4)), ((Fr(1, 8),), Fr(1, 16)),
               ((Fr(3, 8),), Fr(1, 4)), ((Fr(1, 4),), Fr(1, 8))]
    for x, r in samples:
        f = bd.facet_of(m, SL2_WIN, x, r)
        if f.is_horizontal():
            continue
        for b in bd.facets_below(f):
            assert b.is_horizontal()
            assert b.depth() == f.depth()
            assert bd.precede(f, b)
            assert all(s2 == s1 or s2 == 0
                       for s1, s2 in zip(f.signs, b.signs))


U7_WIN = bd.Window([(0, 1), (0, 1)], 0, Fr(1, 2))


def test_u7_vertex_facet():
    m = bd.u7_model(23)
    f = bd.facet_of(m, U7_WIN, (Fr(3, 4), Fr(1, 4)), 0)
    assert f.dim() == 0 and f.depth() == 0 and f.is_horizontal()


def test_u7_descent_step():
    # chamber just off the vertex in direction (-3,-1): its horizontal
    # boundary at depth 1/10 is the single facet at ((3/5,1/5), 1/10)
    m = bd.u7_model(23)
    s = Fr(1, 40)
    f = bd.facet_of(m, U7_WIN, (Fr(3, 4) - 3 * s, Fr(1, 4) - s), 2 * s)
    below = bd.facets_below(f)
    assert f.depth() == Fr(1, 10)
    assert len(below) == 1
    assert facet_center(below[0]) == ((Fr(3, 5), Fr(1, 5)), Fr(1, 10))


# -- integer plane forms against the Fraction route ---------------------


def sign_at(pl, x, r):
    """The sign of r - f(x) at (x, r) for the plane {r = f(x)} given as
    (coeffs, const), in Fractions: the reference for the integer signs
    of `facet_of`."""
    coeffs, const = pl
    d = Fr(r) - const - sum(c * Fr(xi) for c, xi in zip(coeffs, x))
    return (d > 0) - (d < 0)


# sl2, sl3 and the u7h window of the descent trace (85 planes)
PROPERTY_WINDOWS = [
    (bd.sl2_model(3), bd.Window([(0, 1)], -1, 2)),
    (bd.sl3_model(3), bd.Window([(0, Fr(1, 2))] * 2, 0, Fr(1, 2))),
    (bd.u7_h_model(23), bd.Window([(0, 1), (0, 1)], -1, 1)),
]


@st.composite
def window_points(draw):
    """A model, a window and a point of it, on a grid fine enough that
    the point often lies on planes, their crossings and the box."""
    model, win = draw(st.sampled_from(PROPERTY_WINDOWS))
    den = draw(st.sampled_from([1, 2, 4, 6, 8, 12, 20, 60]))

    def coord(a, b):
        return Fr(draw(st.integers(math.ceil(a * den),
                                   math.floor(b * den))), den)

    x = tuple(coord(a, b) for a, b in win.xranges)
    return model, win, x, coord(win.rmin, win.rmax)


@settings(max_examples=200, deadline=None)
@given(window_points())
def test_facet_of_signs_match_the_fraction_route(case):
    model, win, x, r = case
    want = tuple(sign_at(plane_of(c), x, r)
                 for c in bd.critical_hyperplanes(model, win))
    assert bd.facet_of(model, win, x, r).signs == want


def test_windows_with_one_key_are_equal():
    a = bd.Window([(0, 1)], -1, 2)
    b = bd.Window(((Fr(0), Fr(1)),), Fr(-1), Fr(2))
    assert a == b and hash(a) == hash(b) and a.key() == b.key()
    assert a != bd.Window([(0, 1)], -1, 1) and a != a.key()
    assert len({a, b}) == 1


def test_chart_models_are_built_once():
    assert bd.sl2_model(3) is bd.sl2_model(3)
    assert bd.sl3_model(3) is bd.sl3_model(3)
    assert bd.gl_split_model(2, 5) is bd.gl_split_model(2, 5)
    assert bd.sl2_model(3) is not bd.sl2_model(5)


def test_plane_cache_entry_holds_its_model_and_facets(monkeypatch):
    monkeypatch.setattr(bd, "_PLANE_CACHE", {})
    model = bd.Model("sl2", 2, LocalField(3),
                     bd.coupling_classes("gl", 2, LocalField(3)),
                     weight_funcs=[((Fr(1),), Fr(0)), ((Fr(-1),), Fr(0))])
    win = bd.Window([(0, 1)], -1, 2)
    f = bd.facet_of(model, win, (Fr(1, 8),), Fr(1, 16))
    forms, _, facets, held = bd._PLANE_CACHE[model.name, id(model),
                                             win.key()]
    assert held is model and f.forms is forms
    assert facets == {(f.pos, f.neg): f}
    # a second window object with the same key finds the same facet
    again = bd.Window(((Fr(0), Fr(1)),), Fr(-1), Fr(2))
    assert bd.facet_of(model, again, (Fr(1, 10),), Fr(1, 20)) is f


def test_plane_cache_keeps_the_most_recent_windows(monkeypatch):
    monkeypatch.setattr(bd, "_PLANE_CACHE", {})
    m = bd.sl2_model(3)
    wins = [bd.Window([(0, Fr(1, k))], -1, 2) for k in range(1, 18)]
    for win in wins:
        bd.facet_of(m, win, (Fr(0),), Fr(0))
    assert len(bd._PLANE_CACHE) == bd._PLANE_CACHE_SIZE == 16
    assert [k[2] for k in bd._PLANE_CACHE] == [w.key() for w in wins[1:]]


def test_plane_forms_share_the_plane_cache_entry():
    model, win = PROPERTY_WINDOWS[2]
    forms = bd.critical_hyperplanes(model, win)
    assert bd.critical_hyperplanes(model, win) is forms  # read, not rebuilt
    assert bd._PLANE_CACHE[(model.name, id(model), win.key())][0] is forms
    planes = [plane_of(c) for c in forms]
    assert len(forms) == len(planes) == 85
    assert planes == sorted(set(planes))  # by (coeffs, const), no repeats
    assert forms == [bd._integral(tuple(-a for a in coeffs) + (Fr(1),),
                                  const) for coeffs, const in planes]


def test_window_rank_memo_serves_the_arrangement_and_every_cell(
        monkeypatch):
    # on a cleared cache the window builds its one ranker, which the
    # arrangement and every cell share; a repeat builds none
    model, win = PROPERTY_WINDOWS[0]
    monkeypatch.setattr(bd, "_PLANE_CACHE", {})
    built = []
    ranker = bd._ranker
    monkeypatch.setattr(bd, "_ranker",
                        lambda rows, *memo: built.append(rows)
                        or ranker(rows, *memo))

    def cells():
        faces = bd.Arrangement(model, win).faces
        forms = bd.critical_hyperplanes(model, win)
        return [bd.AugFacet(model, win, forms, f.pos, f.neg).cell()
                for f in faces]

    first = cells()
    assert all(first) and len(built) == 1
    assert cells() == first and len(built) == 1
    forms, rank = bd._window_planes(model, win)[:2]
    # the memo ranks the same rows a cell of its own would
    own = ranker([a for a, _ in win.box_constraints()] +
                 [c[:-1] for c in forms])
    assert [own(m) for m in range(1 << 8)] == [rank(m)
                                               for m in range(1 << 8)]


def cell_in_order(window, cuts):
    """The cut loop of `cell_vertices` with the cuts applied in the order
    given, inequalities possibly before equalities."""
    box = window.box_constraints()
    rank = bd._ranker([a for a, _ in box] + [c[:-1] for c, _ in cuts])
    verts = bd._box_vertices(window)
    for k, (c, s) in enumerate(cuts):
        vals, verts, cut = bd._cut(verts, c, 1 << len(box) + k, rank)
        verts = bd._side(verts, vals, s) + cut
    return {h: m >> len(box) for h, m in verts}


@settings(max_examples=40, deadline=None)
@given(window_points(), st.randoms(use_true_random=False))
def test_cell_vertices_whatever_the_cut_order(case, rnd):
    """A facet's closed cell: the same points and masks with the cuts in
    any order, and each mask is the set of planes through its point."""
    model, win, x, r = case
    forms = bd.critical_hyperplanes(model, win)
    cuts = list(zip(forms, bd.facet_of(model, win, x, r).signs))
    want = dict(bd.cell_vertices(win, cuts))
    assert want
    for h, m in want.items():
        assert m == sum(1 << k for k, c in enumerate(forms)
                        if sum(a * b for a, b in zip(c, h)) == 0)
    order = list(range(len(cuts)))
    rnd.shuffle(order)
    got = cell_in_order(win, [cuts[k] for k in order])
    assert {y: sum(1 << k for i, k in enumerate(order) if m >> i & 1)
            for y, m in got.items()} == want


# -- membership and depth ------------------------------------------------


def test_mp_member_zero_everywhere():
    m = bd.u6_model(23)
    z = zmat(m.field, 6)
    assert bd.mp_member(m, z, bd.U6_Y, 5, strict=True)


def test_mp_member_gl():
    m = bd.gl_split_model(2, 5)
    g = zmat(m.field, 2)
    g[0][1] = m.field.parse("t^-1")
    assert not bd.mp_member(m, g, (0, 0), 0)
    assert bd.mp_member(m, g, (0, 0), -1)
    assert bd.mp_member(m, g, (Fr(1, 2), Fr(-1, 2)), 0)


def test_mp_member_boundary_strictness():
    m = bd.u7_model(23)
    E = m.field
    g = zmat(E, 7)
    g[0][6] = E.parse("5") * E.uniformizer()
    g[6][0] = E.parse("w^-1")
    w = m.point((Fr(3, 4), Fr(1, 4)))
    assert bd.mp_member(m, g, w, 0)
    assert not bd.mp_member(m, g, w, 0, strict=True)


def test_dep_element_sl2():
    m = bd.sl2_model(3)
    win = bd.Window([(0, Fr(1, 2))], -1, 1)
    g = zmat(m.field, 2)
    g[0][1] = m.field.parse("t^-1")
    g[1][0] = m.field.one()
    # max over x of min(-1 + 2x, -2x) is -1/2, at x = 1/4
    assert bd.dep_element(m, g, win) == Fr(-1, 2)
    u = zmat(m.field, 2)
    u[0][0], u[1][1] = m.field.one(), m.field.parse("-1")
    assert bd.dep_element(m, u, win) == 0


def test_dep_element_u7_semisimple():
    m = bd.u7_model(23)
    E = m.field
    g = zmat(E, 7)
    g[0][6] = E.parse("5") * E.uniformizer()
    g[6][0] = E.parse("w^-1")
    win = bd.Window([(0, 1), (0, 1)], -1, 1)
    assert bd.dep_element(m, g, win) == 0


# -- graded pieces and reductive quotients -------------------------------


def test_grade_dims_u6():
    m = bd.u6_model(23)
    assert bd.grade_dim(m, bd.U6_Y, 0) == 26
    assert bd.grade_dim(m, bd.U6_Z, 0) == 18


def test_grade_dims_u7():
    m = bd.u7_model(23)
    assert bd.grade_dim(m, m.point((0, 0)), 0) == 13
    assert bd.grade_dim(m, m.point((Fr(3, 4), Fr(1, 4))), 0) == 21


def test_heart_structure_u6():
    m = bd.u6_model(23)
    assert bd.heart_structure(m, bd.U6_Y) == [
        ((0, 1, 2, 3, 4), "A", 5, 25), ((5,), "A", 1, 1)]
    assert bd.heart_structure(m, bd.U6_Z) == [
        ((0, 1, 5), "A", 3, 9), ((2, 3, 4), "A", 3, 9)]


def test_heart_structure_u6_alcove():
    m = bd.u6_hyp_model(23)
    assert bd.heart_structure(m, bd.U6_ALCOVE) == [
        ((0, 1), "T", 2, 2), ((2, 3, 4), "A", 3, 9), ((5,), "A", 1, 1)]


def test_heart_structure_u7():
    m = bd.u7_model(23)
    assert bd.heart_structure(m, m.point((0, 0))) == [
        ((0, 6), "C", 2, 3), ((1, 2, 3, 4, 5), "B", 5, 10)]
    assert bd.heart_structure(m, m.point((Fr(3, 4), Fr(1, 4)))) == [
        ((0, 1, 2, 4, 5, 6), "C", 6, 21), ((3,), "B", 1, 0)]


def test_heart_structure_u7_centralizer():
    m = bd.u7_h_model(23)
    hs = bd.heart_structure(m, m.point((0, 0)))
    # the U_5 part, plus the rank-one torus seen as SO_2
    assert hs == [((0, 6), "D", 2, 1), ((1, 2, 3, 4, 5), "B", 5, 10)]


def heart_blocks_reference(model, w):
    """`heart_blocks` by the Fraction route: a class is active when
    `class_threshold` at level 0 sits on its grid."""
    w = tuple(Fr(wi) for wi in w)
    parent = list(range(model.n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    active = [c for c in model.classes if bd.class_threshold(c, w, 0)[1]]
    for c in active:
        idx = sorted({k for pos in c.positions() for k in pos})
        for k in idx[1:]:
            parent[find(idx[0])] = find(k)
    blocks = {}
    for i in range(model.n):
        blocks.setdefault(find(i), []).append(i)
    return sorted((tuple(b), sum(c.pdim for c in active
                                 if all(i in b and j in b
                                        for i, j in c.positions())))
                  for b in blocks.values())


def structure_or_error(blocks):
    try:
        return [(mem, *bd.classify_block(mem, dim), dim)
                for mem, dim in blocks]
    except ValueError as exc:
        return str(exc)


@st.composite
def heart_points(draw):
    """A model and a weight vector: any vector for u6 and u6hyp, a chart
    point for u7, on a grid fine enough to meet the class grids."""
    name = draw(st.sampled_from(["u6", "u6hyp", "u7"]))
    den = draw(st.sampled_from([1, 2, 4, 8, 12]))
    coord = st.integers(-2 * den, 2 * den).map(lambda k: Fr(k, den))
    if name == "u7":
        m = bd.u7_model(23)
        return m, m.point(tuple(draw(coord) for _ in range(2)))
    m = bd.u6_model(23) if name == "u6" else bd.u6_hyp_model(23)
    return m, tuple(draw(coord) for _ in range(6))


@settings(max_examples=200, deadline=None)
@given(heart_points())
def test_heart_blocks_in_units_match_the_fraction_route(case):
    m, w = case
    want = heart_blocks_reference(m, w)
    assert bd.heart_blocks(m, w) == tuple(want)
    try:
        got = bd.heart_structure(m, w)
    except ValueError as exc:
        got = str(exc)
    assert got == structure_or_error(want)


def test_heart_blocks_are_kept_per_model_and_point(monkeypatch):
    # a repeat point is served from the model's memo, without grading
    # it again, and equals a fresh computation; the memo keeps the most
    # recent HEART_MEMO_SIZE points
    m = bd.u6_model(23)
    monkeypatch.setattr(m, "_hearts", {})
    first = bd.heart_blocks(m, bd.U6_Z)
    graded = []
    units = bd.grading_units
    monkeypatch.setattr(bd, "grading_units",
                        lambda *a: graded.append(a) or units(*a))
    assert bd.heart_blocks(m, tuple(bd.U6_Z)) is first
    assert graded == [] and isinstance(first, tuple)
    m._hearts.clear()
    assert bd.heart_blocks(m, bd.U6_Z) == first
    assert len(graded) == 1
    assert first == tuple(heart_blocks_reference(m, bd.U6_Z))
    monkeypatch.setattr(bd, "HEART_MEMO_SIZE", 3)
    for k in range(5):
        bd.heart_blocks(m, (Fr(k, 8),) + bd.U6_Z[1:])
    assert list(m._hearts) == [(Fr(k, 8),) + bd.U6_Z[1:]
                               for k in range(2, 5)]


def test_grade_dim_periodicity():
    # shifting the level by the lattice period preserves the dimension
    m = bd.u6_model(23)
    for r in (0, Fr(1, 2), Fr(1, 4)):
        assert bd.grade_dim(m, bd.U6_Y, r) == bd.grade_dim(m, bd.U6_Y, r + 1)


def test_classify_block_rejects_garbage():
    with pytest.raises(ValueError):
        bd.classify_block((0, 1, 2), 5)
