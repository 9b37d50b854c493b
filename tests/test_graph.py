import math
import random
from collections import Counter
from fractions import Fraction as Fr

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from padicwf import building as bd
from padicwf import graph as gr
from padicwf import mpquotient as mpq
from padicwf import orbits as ob

import goldens
from test_building import plane_of, window_points


def zmat(field, n):
    return [[field.zero() for _ in range(n)] for _ in range(n)]


# -- fixtures ------------------------------------------------------------


def sl2_setup():
    m = bd.sl2_model(3)
    E = m.field
    win = bd.Window(((Fr(0), Fr(1)),), Fr(-1), Fr(2))
    c = zmat(E, 2)
    c[0][1] = E.one()
    origin = bd.facet_of(m, win, (Fr(0),), Fr(0))
    return m, win, c, gr.GraphVertex(m, origin, c)


def u7h_setup():
    """Length-4 chain in the rank-2 centralizer model, at the chamber
    base point ((3/4, 1/4), 0)."""
    m = bd.u7_h_model(23)
    E = m.field
    c = zmat(E, 7)
    for i, j in ((2, 1), (4, 2), (5, 4)):
        c[i][j] = E.uniformizer()
    win = bd.Window(((Fr(0), Fr(1)), (Fr(0), Fr(1))), Fr(-1), Fr(1))
    f0 = bd.facet_of(m, win, (Fr(3, 4), Fr(1, 4)), Fr(0))
    return m, win, c, gr.GraphVertex(m, f0, c)


# -- vertices ------------------------------------------------------------


def test_vertex_coset_and_label():
    m, win, c, v = sl2_setup()
    assert v.is_nilpotent()
    assert v.label() == (2,)
    assert v.coset().mat[0][1] == m.field.residue.one


def test_vertex_builds_its_graded_piece_once():
    m, win, c, v = sl2_setup()
    q = v.quot()
    assert v.quot() is q
    v.in_lattice()
    v.coset()
    assert v.quot() is q and v.coset().quot is q


def test_vertex_equality_is_by_facet_and_coset():
    m, win, c, v = sl2_setup()
    w = gr.GraphVertex(m, v.facet, c)
    assert v == w and hash(v) == hash(w)
    c2 = zmat(m.field, 2)
    c2[1][0] = m.field.uniformizer()  # different coset, same facet
    assert gr.GraphVertex(m, v.facet, c2) != v


def test_facet_center_lies_in_facet():
    m, win, c, v = sl2_setup()
    x, r = gr.facet_center(v.facet)
    assert bd.facet_of(m, win, x, r).signs == v.facet.signs


def closure_by_signs(inner, outer):
    """The sign-vector definition of closure, the reference for the plane
    masks of `in_closure`: each sign of `inner` is the sign of `outer`
    or 0."""
    return all(si == so or si == 0
               for so, si in zip(outer.signs, inner.signs))


def test_in_closure_matches_the_sign_vectors():
    sl2 = bd.Arrangement(bd.sl2_model(3), bd.Window([(0, 1)], -1, 2)).faces
    sl3 = bd.Arrangement(bd.sl3_model(3),
                         bd.Window([(0, 1)] * 2, -1, 1)).faces
    assert (len(sl2), len(sl3)) == (71, 1047)
    rng = random.Random(20000)
    for pairs in ([(f, g) for f in sl2 for g in sl2],
                  [(rng.choice(sl3), rng.choice(sl3))
                   for _ in range(20000)]):
        got = [gr.in_closure(f, g) for f, g in pairs]
        assert got == [closure_by_signs(f, g) for f, g in pairs]
        assert 0 < sum(got) < len(got)
    for face in sl2 + sl3:
        x, r = gr.facet_center(face)
        assert bd.facet_of(face.model, face.window, x, r) == face


# -- rule 2: the cocharacter walk ----------------------------------------


def test_rule2_walks_onto_wall_segment():
    m, win, c, v = sl2_setup()
    u = gr.out_edge_rule2(v)
    assert not u.facet.is_horizontal()
    assert u.facet.dim() == 1 and u.facet.depth() == Fr(1, 2)
    assert gr.in_closure(v.facet, u.facet)
    assert bd.precede(v.facet, u.facet)
    # the walk transports the matrix unchanged
    assert u.cmat == v.cmat


def test_rule2_direction_from_lifted_triple():
    m, win, c, v = sl2_setup()
    lam, weights = gr._walk_direction(v)
    assert lam == (Fr(1),) and weights == (Fr(1), Fr(-1))


def walk_step_reference(model, window, x, r, lam, slope):
    """`_walk_step` with each plane's f evaluated in Fractions."""
    ts = []
    for form in bd.critical_hyperplanes(model, window):
        coeffs, const = plane_of(form)
        den = slope - sum(c * l for c, l in zip(coeffs, lam))
        if den:
            fx = const + sum(c * xi for c, xi in zip(coeffs, x))
            t = (fx - r) / den
            if t > 0:
                ts.append(t)
    walls = []
    for k, (a, b) in enumerate(window.xranges):
        if lam[k] > 0:
            walls.append((b - x[k]) / lam[k])
        elif lam[k] < 0:
            walls.append((a - x[k]) / lam[k])
    if slope > 0:
        walls.append((window.rmax - r) / slope)
    elif slope < 0:
        walls.append((window.rmin - r) / slope)
    if 0 in walls or not ts + walls:
        raise ValueError("no room to walk inside the window")
    return min(ts + walls) / 2


@settings(max_examples=200, deadline=None)
@given(window_points(), st.data())
def test_walk_step_matches_the_fraction_route(case, data):
    model, win, x, r = case
    small = st.builds(Fr, st.integers(-4, 4), st.integers(1, 3))
    lam = tuple(data.draw(small) for _ in x)
    slope = data.draw(small)
    try:
        want = walk_step_reference(model, win, x, r, lam, slope)
    except ValueError:
        with pytest.raises(ValueError, match="no room to walk"):
            gr._walk_step(model, win, x, r, lam, slope)
        return
    assert gr._walk_step(model, win, x, r, lam, slope) == want


def test_rule2_requires_nilpotent():
    m, win, c, v = sl2_setup()
    g = zmat(m.field, 2)
    g[0][0] = m.field.one()
    g[1][1] = m.field.from_int(-1)
    w = gr.GraphVertex(m, v.facet, g)
    with pytest.raises(ValueError, match="nilpotent"):
        gr.out_edge_rule2(w)


# -- rule 1: fibers ------------------------------------------------------


def test_rule1_fiber_partition_count():
    # the fiber is an affine space over the residue field: q^dim cosets
    m, win, c, v = sl2_setup()
    u = gr.out_edge_rule2(v)
    below = bd.facets_below(u.facet)
    assert len(below) == 1 and below[0].is_horizontal()
    basis = gr.fiber_basis(u, below[0])
    outs = gr.out_edges_rule1(u, below[0])
    assert len(outs) == 3 ** len(basis) == 3
    assert len(set(o.coset().key() for o in outs)) == len(outs)


def test_rule1_fiber_nilpotent_part():
    m, win, c, v = sl2_setup()
    u = gr.out_edge_rule2(v)
    below = bd.facets_below(u.facet)[0]
    nil = [o for o in gr.out_edges_rule1(u, below) if o.is_nilpotent()]
    assert len(nil) == 1
    assert nil[0].coset() == gr.GraphVertex(m, below, c).coset()
    assert nil[0].label() == (2,)


def test_fiber_too_large():
    m, win, c, v = u7h_setup()
    edges = gr.path_trace(v, Fr(1, 2))
    last = edges[-1]
    assert last.rule == 1
    below = bd.facets_below(last.src.facet)[0]
    # the depth-1/2 fiber has 23^11 cosets: refuse to materialize it
    with pytest.raises(gr.FiberTooLarge) as ei:
        gr.out_edges_rule1(last.src, below)
    assert ei.value.dim == 11
    assert isinstance(ei.value, ValueError)


@st.composite
def sl2_nilpotent_cosets(draw, horizontal=False):
    """A face of a random sl2 sub-window of x in [0, 1], r in [-1, 2]
    (endpoints in 1/4 steps) and a matrix whose coset at the face centre
    is a nonzero nilpotent: a unit times t^threshold in one off-diagonal
    position whose threshold is integral, and deeper terms elsewhere.
    With `horizontal`, only horizontal faces are drawn."""
    x0, x1 = sorted(draw(st.integers(0, 4)) for _ in range(2))
    r0, r1 = sorted(draw(st.integers(-4, 8)) for _ in range(2))
    m = bd.sl2_model(3)
    win = bd.Window([(Fr(x0, 4), Fr(x1, 4))], Fr(r0, 4), Fr(r1, 4))
    faces = []
    for f in bd.Arrangement(m, win).faces:
        if horizontal and not f.is_horizontal():
            continue
        (x,), r = gr.facet_center(f)
        thr = {(0, 1): r - 2 * x, (1, 0): r + 2 * x}
        live = sorted(pos for pos, t in thr.items() if t.denominator == 1)
        if live:
            faces.append((f, thr, live))
    assume(faces)
    f, thr, live = draw(st.sampled_from(faces))
    pos = draw(st.sampled_from(live))
    E = m.field
    g = zmat(E, 2)
    for ij, t in thr.items():
        if ij == pos:
            g[ij[0]][ij[1]] = E.scalar({t: draw(st.integers(1, 2))})
        else:
            g[ij[0]][ij[1]] = E.scalar({math.floor(t) + 1:
                                        draw(st.integers(0, 2))})
    (x,), r = gr.facet_center(f)
    diag = E.scalar({math.floor(r) + 1: draw(st.integers(0, 2))})
    g[0][0], g[1][1] = diag, -diag
    return m, f, g


def check_edge(src, dst, rule):
    """Criterion 8 on one descent edge: strictly up in the order, the
    lower facet in the closure of the upper one, and on rule-1 edges to a
    nilpotent coset the label up in dominance (a fiber coset off the
    nilpotent cone need not respect the reductive-quotient blocks, and
    then has no label)."""
    assert bd.precede(src.facet, dst.facet)
    assert not bd.precede(dst.facet, src.facet)
    if rule == 2:
        assert gr.in_closure(src.facet, dst.facet)
    else:
        assert gr.in_closure(dst.facet, src.facet)
        if dst.is_nilpotent():
            assert ob.dominance_leq(src.label(), dst.label())


@settings(max_examples=60, deadline=None)
@given(sl2_nilpotent_cosets())
def test_graded_triple_and_fiber_split_on_random_sl2_cosets(case):
    m, f, g = case
    v = gr.GraphVertex(m, f, g)
    c = v.coset()
    assert c.is_nilpotent() and not c.is_zero()
    quot = c.quot
    # the lifted triple is graded and exact
    trip = mpq.lift_triple(c)
    assert bd.mp_member(m, trip.c, quot.w, quot.r)
    assert bd.mp_member(m, trip.h, quot.w, 0)
    assert bd.mp_member(m, trip.d, quot.w, -quot.r)
    assert trip.check(m.field)
    assert quot.project(trip.c) == c
    # the fiber over each facet below splits the coset into q^dim
    # distinct cosets there, each reached by an edge that meets
    # criterion 8
    if f.is_horizontal():
        return
    try:
        below = bd.facets_below(f)
    except ValueError:
        return
    for b in below:
        basis = gr.fiber_basis(v, b)
        outs = gr.out_edges_rule1(v, b)
        assert len({o.key() for o in outs}) == 3 ** len(basis)
        for o in outs:
            check_edge(v, o, 1)


# Most draws end at the window: the trace walks out of it, stops on its
# boundary, or the face already sits at the top.  Those are filtered.
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(sl2_nilpotent_cosets(horizontal=True), st.data())
def test_path_trace_edges_on_random_sl2_windows(case, data):
    # every edge of a trace from a horizontal face to a depth inside the
    # window meets criterion 8
    m, f, g = case
    win = f.window
    depths = [Fr(k, 4) for k in range(-4, 9)
              if f.depth() < Fr(k, 4) <= win.rmax]
    assume(depths)
    to_depth = data.draw(st.sampled_from(depths))
    try:
        edges = gr.path_trace(gr.GraphVertex(m, f, g), to_depth)
    except ValueError:
        assume(False)
    assert edges
    for e in edges:
        check_edge(e.src, e.dst, e.rule)


# -- adjacency helpers ---------------------------------------------------


def test_facets_above_finds_diagonal_wall():
    # the wall {r = 2x} through the origin is not axis-aligned; relaxing
    # sign vectors must still discover it
    m, win, c, v = sl2_setup()
    above = gr.facets_above(v.facet, bd.Arrangement(m, win).faces)
    dims = sorted(f.dim() for f in above)
    assert dims[0] >= 1
    walls = [f for f in above if f.dim() == 1 and not f.is_horizontal()
             and f.depth() == Fr(1, 2)]
    assert walls, "missing the sloped wall segment through the origin"


def test_closure_horizontals_of_wall_segment():
    m, win, c, v = sl2_setup()
    seg = gr.out_edge_rule2(v).facet
    hor = gr.closure_horizontals(seg, bd.Arrangement(m, win).faces)
    assert all(f.is_horizontal() for f in hor)
    depths = sorted(f.depth() for f in hor)
    assert depths[0] == Fr(0) and depths[-1] == Fr(1, 2)
    assert any(f.signs == v.facet.signs for f in hor)


# -- paths ---------------------------------------------------------------


def test_path_trace_sl2_two_steps():
    m, win, c, v = sl2_setup()
    edges = gr.path_trace(v, Fr(1, 2))
    assert [e.rule for e in edges] == [2, 1]
    assert edges[-1].dst.facet.is_horizontal()
    assert edges[-1].dst.facet.depth() == Fr(1, 2)
    assert gr.facet_center(edges[-1].dst.facet) == ((Fr(1, 4),), Fr(1, 2))


def test_path_trace_rejects_non_nilpotent():
    m, win, c, v = sl2_setup()
    g = zmat(m.field, 2)
    g[0][0] = m.field.one()
    g[1][1] = m.field.from_int(-1)
    with pytest.raises(ValueError, match="dead end"):
        gr.path_trace(gr.GraphVertex(m, v.facet, g), Fr(1, 2))


def test_path_trace_from_window_edge_heading_outward():
    # the face at x = 1/4 sits on the window's right wall and the walk
    # (lambda = (1,)) heads out through it at distance 0
    m = bd.sl2_model(3)
    win = bd.Window(((Fr(0), Fr(1, 4)),), Fr(0), Fr(1))
    c = zmat(m.field, 2)
    c[0][1] = m.field.one()
    f = bd.facet_of(m, win, (Fr(1, 4),), Fr(1, 2))
    assert f.is_horizontal()
    with pytest.raises(ValueError,
                       match="no room to walk inside the window"):
        gr.path_trace(gr.GraphVertex(m, f, c), Fr(1))


def test_path_trace_u7_twelve_edges():
    m, win, c, v = u7h_setup()
    assert v.label() == (4, 1)
    edges = gr.path_trace(v, Fr(1, 2))
    assert len(edges) == 12
    assert [e.rule for e in edges] == [2, 1] * 6
    stops = [gr.facet_center(e.dst.facet) for e in edges if e.rule == 1]
    # the walk parameter at each stop, from x1 = 3/4 - 3s
    svals = [(Fr(3, 4) - x[0]) / 3 for x, r in stops]
    assert svals == [Fr(1, 20), Fr(1, 12), Fr(1, 8),
                     Fr(3, 20), Fr(1, 6), Fr(1, 4)]
    assert [r for x, r in stops] == [Fr(1, 10), Fr(1, 6), Fr(1, 4),
                                     Fr(3, 10), Fr(1, 3), Fr(1, 2)]
    assert stops[-1] == ((Fr(0), Fr(0)), Fr(1, 2))
    # the label never moves along this path
    assert all(e.dst.label() == (4, 1) for e in edges)


def test_path_trace_u7_computes_each_cell_once(monkeypatch):
    # on a cleared cache, one cell per distinct facet: the start and the
    # six walk targets, whose cells also serve `facets_below`; a repeat
    # trace meets the same shared facets and computes no cell
    monkeypatch.setattr(bd, "_PLANE_CACHE", {})
    calls = []
    cell_vertices = bd.cell_vertices
    monkeypatch.setattr(bd, "cell_vertices",
                        lambda *a: calls.append(1) or cell_vertices(*a))
    m, win, c, v = u7h_setup()
    edges = gr.path_trace(v, Fr(1, 2))
    assert len(calls) == 7
    assert len({e.src.facet.signs for e in edges} |
               {e.dst.facet.signs for e in edges}) == 13
    m, win, c, v = u7h_setup()
    again = gr.path_trace(v, Fr(1, 2))
    assert len(calls) == 7
    assert [e.dst.facet for e in again] == [e.dst.facet for e in edges]


def test_path_trace_u7_computes_no_center_on_repeat(monkeypatch):
    # a repeat trace meets the same shared facets and reads their kept
    # centres: it computes no barycentre, so it reads no vertex set
    monkeypatch.setattr(bd, "_PLANE_CACHE", {})
    m, win, c, v = u7h_setup()
    gr.path_trace(v, Fr(1, 2))
    reads = []
    vertices = bd.AugFacet.vertices
    monkeypatch.setattr(bd.AugFacet, "vertices",
                        lambda f: reads.append(f) or vertices(f))
    m, win, c, v = u7h_setup()
    edges = gr.path_trace(v, Fr(1, 2))
    assert reads == []
    facets = {e.src.facet for e in edges} | {e.dst.facet for e in edges}
    assert len(facets) == 13
    for f in facets:
        vs = vertices(f)
        bary = tuple(sum(col) / len(vs) for col in zip(*vs))
        assert gr.facet_center(f) == (bary[:-1], bary[-1])


def test_shared_facets_match_fresh_cells():
    # the facets of the u7h trace are its window's shared ones; every
    # facet of the trace and of the sl2 reach has the vertex set, depth,
    # dimension and kind of a cell made afresh from its masks
    m, win, c, v = u7h_setup()
    edges = gr.path_trace(v, Fr(1, 2))
    facets = {e.src.facet for e in edges} | {e.dst.facet for e in edges}
    table = bd._window_planes(m, win)[2]
    assert len(facets) == 13
    assert all(table[f.pos, f.neg] is f for f in facets)
    facets |= {u.facet for u in gr.reachable(_reach_target("sl2"))}
    assert len(facets) == 21
    for f in facets:
        fresh = bd.AugFacet(f.model, f.window, f.forms, f.pos, f.neg)
        assert set(f.vertices()) == {y for y, _ in fresh.cell()}
        assert (f.depth(), f.dim(), f.is_horizontal()) == (
            fresh.depth(), fresh.dim(), fresh.is_horizontal())


def test_facet_quotient_is_kept_with_the_facet():
    m, win, c, v = u7h_setup()
    q = gr.facet_quotient(v.facet)
    assert gr.facet_quotient(v.facet) is q
    assert gr.GraphVertex(m, v.facet, c).quot() is q
    x, r = gr.facet_center(v.facet)
    assert q.key() == mpq.GradedQuotient(m, m.point(x), r).key()


def test_path_trace_u7_labels_each_vertex_once(monkeypatch):
    # the start and the six rule-1 targets carry labels; a vertex keeps
    # its label, and the trace asks for each one once
    calls = []
    n_label = mpq.n_label
    monkeypatch.setattr(mpq, "n_label",
                        lambda c: calls.append(1) or n_label(c))
    m, win, c, v = u7h_setup()
    edges = gr.path_trace(v, Fr(1, 2))
    assert len(calls) == 7
    labels = [e.dst.label() for e in edges if e.rule == 1]
    assert len(labels) == 6 and len(calls) == 7


def test_path_edges_strictly_increase_order():
    m, win, c, v = u7h_setup()
    edges = gr.path_trace(v, Fr(1, 2))
    for e in edges:
        assert bd.precede(e.src.facet, e.dst.facet)
        assert not bd.precede(e.dst.facet, e.src.facet)  # acyclic


def test_inserted_vertex_fiber_keeps_label():
    # the extra stop at ((1/4, 1/12), 1/3): every coset in its fiber is
    # nilpotent with the same label, so nothing new flows through it
    m, win, c, v = u7h_setup()
    edges = gr.path_trace(v, Fr(1, 2))
    ins = [e for e in edges
           if e.rule == 1 and e.dst.facet.depth() == Fr(1, 3)]
    assert len(ins) == 1
    assert gr.facet_center(ins[0].dst.facet) == ((Fr(1, 4), Fr(1, 12)),
                                                 Fr(1, 3))
    below = bd.facets_below(ins[0].src.facet)[0]
    outs = gr.out_edges_rule1(ins[0].src, below)
    assert len(outs) == 23
    assert all(o.is_nilpotent() and o.label() == (4, 1) for o in outs)
    assert sum(1 for o in outs if o.coset() == ins[0].dst.coset()) == 1


# -- reachability --------------------------------------------------------


def test_predecessors_of_horizontal_target():
    m, win, c, v = sl2_setup()
    target = gr.GraphVertex(m, bd.facet_of(m, win, (Fr(1, 4),), Fr(1, 2)),
                            c)
    preds = gr.Reach(target).predecessors(target)
    assert preds
    for u in preds:
        assert not u.facet.is_horizontal()
        assert u.facet.depth() == target.facet.depth()


def test_predecessors_of_wall_segment_include_origin():
    m, win, c, v = sl2_setup()
    seg = gr.out_edge_rule2(v)
    preds = gr.Reach(seg).predecessors(seg)
    assert any(u == v for u in preds)
    for u in preds:
        assert u.facet.is_horizontal()
        assert gr.out_edge_rule2(u).facet.signs == seg.facet.signs


def test_reachable_sl2_contains_origin():
    m, win, c, v = sl2_setup()
    target = gr.GraphVertex(m, bd.facet_of(m, win, (Fr(1, 4),), Fr(1, 2)),
                            c)
    back = gr.reachable(target)
    assert any(u == v for u in back)
    assert target in back
    assert len(back) == 8
    assert all(u.facet.depth() <= Fr(1, 2) for u in back)


def test_reachable_builds_one_arrangement(monkeypatch):
    # the backward closure queries one window: its arrangement is built
    # once per reach, which splits its faces for every predecessor query
    m, win, c, v = sl2_setup()
    target = gr.GraphVertex(m, bd.facet_of(m, win, (Fr(1, 4),), Fr(1, 2)),
                            c)
    built = []

    class Counted(bd.Arrangement):
        def __init__(self, model, window):
            built.append(window)
            super().__init__(model, window)

    monkeypatch.setattr(bd, "Arrangement", Counted)
    assert len(gr.reachable(target)) == 8
    assert built == [win]


def test_reachable_stops_at_the_arrangement_budget():
    # a reach has at most one vertex per face of its window's
    # arrangement, so the budget on faces is its only limit: the u7 unit
    # window (113 planes in 3-D) is beyond it
    m = bd.u7_model(23)
    win = bd.Window(((Fr(0), Fr(1)), (Fr(0), Fr(1))), Fr(-1), Fr(1))
    f = bd.facet_of(m, win, (Fr(3, 4), Fr(1, 4)), Fr(0))
    with pytest.raises(ValueError, match="arrangement budget exceeded"):
        gr.reachable(gr.GraphVertex(m, f, zmat(m.field, 7)))


def _reach_target(scenario):
    """The end of a scenario's trace: the target of `graph reach`."""
    from padicwf import cli
    v, depth = cli._scenario_vertex(scenario)
    return gr.path_trace(v, depth)[-1].dst


def test_reachable_walks_each_candidate_once(monkeypatch):
    # a facet met by several predecessor queries is tested for the
    # lattice once per reach, and walked at most once, whether its walk
    # lands or raises
    in_lattice, walk = gr.GraphVertex.in_lattice, gr._walk_target
    for scenario, size, n_tests, n_walks, n_raised in [
            ("sl2", 8, 12, 6, 4),
            ("u7h", goldens.U7H_REACH_VERTICES, 1816, 316, 205)]:
        target = _reach_target(scenario)
        tests, walks, raised = Counter(), Counter(), set()

        def counted_test(u):
            tests[u.facet.signs] += 1
            return in_lattice(u)

        def counted_walk(u):
            walks[u.facet.signs] += 1
            try:
                return walk(u)
            except ValueError:
                raised.add(u.facet.signs)
                raise

        monkeypatch.setattr(gr.GraphVertex, "in_lattice", counted_test)
        monkeypatch.setattr(gr, "_walk_target", counted_walk)
        assert len(gr.reachable(target)) == size
        assert len(tests) == n_tests and set(tests.values()) == {1}
        assert len(walks) == n_walks and set(walks.values()) == {1}
        assert len(raised) == n_raised


def test_candidate_that_cannot_walk_is_skipped_on_later_queries(
        monkeypatch):
    target = _reach_target("sl2")
    back = sorted(gr.reachable(target),
                  key=lambda u: (u.facet.depth(), u.facet.signs))
    reach = gr.Reach(target)
    first = [reach.predecessors(u) for u in back]
    failed = {k for k, t in reach.walks.items() if t is None}
    assert len(failed) == 4
    # in a fresh reach per query, the failing candidates are walked again
    walk, calls = gr._walk_target, Counter()

    def counted(u):
        calls[u.facet.pos, u.facet.neg] += 1
        return walk(u)

    monkeypatch.setattr(gr, "_walk_target", counted)
    for u in back:
        gr.Reach(target).predecessors(u)
    assert max(calls[k] for k in failed) > 1
    # in one reach, no query walks again, and each gives the same answer
    calls.clear()
    assert [reach.predecessors(u) for u in back] == first
    assert not calls


def test_u7h_reach_closes_and_each_vertex_steps_into_the_set():
    # The u7h backward closure is finite.  A second, forward route
    # certifies it: every vertex but the target has an out-edge into the
    # set, its cocharacter walk (made afresh) from a horizontal facet,
    # else a facet below with the same matrix.
    target = _reach_target("u7h")
    back = gr.reachable(target)
    keys = {u.key() for u in back}
    assert len(keys) == len(back) == goldens.U7H_REACH_VERTICES
    for u in back:
        assert u.is_nilpotent()
        if u == target:
            continue
        if u.facet.is_horizontal():
            fresh = gr.GraphVertex(u.model, u.facet, u.cmat)
            assert gr.out_edge_rule2(fresh).key() in keys
        else:
            assert any(gr.GraphVertex(u.model, b, u.cmat).key() in keys
                       for b in bd.facets_below(u.facet))
    census = Counter((str(u.facet.depth()), u.facet.dim()) for u in back)
    assert census == {(dep, dim): n
                      for dep, row in goldens.U7H_REACH_CENSUS.items()
                      for dim, n in enumerate(row) if n}
    assert len(census) == 78
