import math
from fractions import Fraction as Fr
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicwf import building as bd
from padicwf import cli
from padicwf import graph as gr
from padicwf import liealg as lie
from padicwf import linalg as la
from padicwf import mpquotient as mpq

import dense
import shipped


def zmat(field, n):
    return [[field.zero() for _ in range(n)] for _ in range(n)]


# -- example elements ----------------------------------------------------


def u6_c_n(model):
    """Regular nilpotent of the U_2 block {0,1} at valuation -1."""
    E = model.field
    k = E.residue  # F_{q^2}; gen^2 = 5 for q = 23
    g = zmat(E, 6)
    tinv = E.parse("t^-1")
    b = k((5, 2))      # norm(b) = 25 - 5*4 = 5
    m = [[k.gen, b], [-b.conj(), -k.gen]]  # trace 0, det 0
    for i in range(2):
        for j in range(2):
            g[i][j] = tinv * E.from_residue(m[i][j])
    return g


def u7_gamma_0(model):
    E = model.field
    g = zmat(E, 7)
    g[0][6] = E.from_int(5) * E.uniformizer()
    g[6][0] = E.parse("w^-1")
    return g


def u7_chain_z(model):
    """Length-4 nilpotent chain in the depth-0 quotient at z."""
    E = model.field
    g = zmat(E, 7)
    for i, j in ((2, 1), (4, 2), (5, 4)):
        g[i][j] = E.uniformizer()
    return g


def u7_chain_y(model):
    """Length-5 nilpotent chain in the depth-0 quotient at y."""
    E = model.field
    g = zmat(E, 7)
    g[2][1] = E.one()
    g[3][2] = E.one()
    g[4][3] = E.from_int(-1)
    g[5][4] = E.from_int(-1)
    return g


def u7_z_rows_guard(model):
    """Nilpotent at U7_Z, level -3/4: two level pieces of the chart's
    residue units, at valuations -1 and -3/2.  The particular solution
    of the Jacobson-Morozov system leaves the unitary Lie algebra here
    unless the Lie rows cut it down."""
    E = model.field
    g = zmat(E, 7)
    g[2][3] = E.parse("-w^-2")
    g[3][4] = E.parse("w^-2")
    g[1][3] = E.parse("w^-3")
    g[3][5] = E.parse("w^-3")
    return g


def unit_mats(quot, units):
    """The residue matrices b E_ij of a quotient's units (i, j, b)."""
    return la.unit_mats(quot.residue_field(), quot.model.n, units)


def madd(a, b):
    return la.mat_add(la.mat(a), la.mat(b))


U7_Z = (Fr(3, 4), Fr(1, 4))


# -- projection ----------------------------------------------------------


def test_project_basic():
    m = bd.sl2_model(3)
    g = zmat(m.field, 2)
    g[1][0] = m.field.uniformizer()
    c = mpq.project(m, g, (0, 0), 1)
    assert c.mat[1][0] == m.field.residue.one and not c.mat[0][1]
    assert c.is_nilpotent() and not c.is_zero()


def test_project_deeper_is_zero():
    m = bd.sl2_model(3)
    g = zmat(m.field, 2)
    g[0][1] = m.field.parse("t^2")
    assert mpq.project(m, g, (0, 0), 1).is_zero()


def test_project_not_in_lattice():
    m = bd.sl2_model(3)
    g = zmat(m.field, 2)
    g[0][1] = m.field.parse("t^-1")
    with pytest.raises(ValueError):
        mpq.project(m, g, (0, 0), 0)


def test_project_u6_diagonal():
    m = bd.u6_model(23)
    c = mpq.project(m, shipped.piece("u6", -1), bd.U6_Y, -1)
    k = m.field.residue
    assert c.mat[2][2] == k.gen * k(3)
    assert not c.mat[0][0]  # the depth-0 part vanishes at level -1
    assert not c.is_nilpotent()


# -- labels --------------------------------------------------------------


def test_minimal_orbit_sl2_regular():
    m = bd.sl2_model(3)
    g = zmat(m.field, 2)
    g[1][0] = m.field.uniformizer()
    assert mpq.minimal_orbit_ur(mpq.project(m, g, (0, 0), 1)) == (2,)


def test_minimal_orbit_rejects_semisimple():
    m = bd.u6_model(23)
    c = mpq.project(m, shipped.piece("u6", -1), bd.U6_Z, -1)
    with pytest.raises(ValueError):
        mpq.minimal_orbit_ur(c)


def test_minimal_orbit_u6_c_n():
    m = bd.u6_model(23)
    c = mpq.project(m, u6_c_n(m), bd.U6_Z, -1)
    assert c.is_nilpotent()
    assert mpq.minimal_orbit_ur(c) == (2, 1, 1, 1, 1)


def test_n_label_u6_y():
    m = bd.u6_model(23)
    g = madd(shipped.piece("u6", -1), shipped.piece("u6", 0))
    assert mpq.n_label(mpq.project(m, g, bd.U6_Y, -1)) == (4, 1, 1)


def test_n_label_u6_z():
    m = bd.u6_model(23)
    g = madd(madd(shipped.piece("u6", -1), shipped.piece("u6", 0)),
             u6_c_n(m))
    assert mpq.n_label(mpq.project(m, g, bd.U6_Z, -1)) == (3, 3)


def test_n_label_u7_y():
    m = bd.u7_model(23)
    g = madd(u7_gamma_0(m), u7_chain_y(m))
    c = mpq.project(m, g, m.point((0, 0)), 0)
    assert not c.is_nilpotent()
    assert mpq.n_label(c) == (5, 2)


def test_n_label_u7_z():
    m = bd.u7_model(23)
    g = madd(u7_gamma_0(m), u7_chain_z(m))
    c = mpq.project(m, g, m.point(U7_Z), 0)
    assert mpq.n_label(c) == (6, 1)


def test_n_label_nilpotent_matches_jordan():
    m = bd.u7_model(23)
    c = mpq.project(m, u7_chain_z(m), m.point(U7_Z), 0)
    assert mpq.n_label(c) == mpq.minimal_orbit_ur(c) == (4, 1, 1, 1)


# -- the label table -----------------------------------------------------

INPUTS = Path(__file__).resolve().parent.parent / "inputs"

# the commands whose output tests/stdout pins and that label cosets
LABELLING = {
    "wf-example-u6": ["wf", "example", "u6"],
    "wf-example-u7": ["wf", "example", "u7"],
    "wf-example-toral": ["wf", "example", "toral"],
    "wf-compute-u6-chain": ["wf", "compute", "--input",
                            str(INPUTS / "u6_chain.ini")],
    "wf-compute-toral": ["wf", "compute", "--input",
                         str(INPUTS / "toral.ini")],
    "graph-trace-sl2": ["graph", "trace", "--scenario", "sl2"],
    "graph-trace-u7h": ["graph", "trace", "--scenario", "u7h"],
}


def _unreached(c):
    raise AssertionError("a coset was labelled afresh")


def _asked(argv, monkeypatch, capsys):
    """The cosets whose labels one run of the command asks for."""
    asked = []
    n_label = mpq.n_label
    monkeypatch.setattr(mpq, "n_label",
                        lambda c: asked.append(c) or n_label(c))
    assert cli.main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(mpq, "n_label", n_label)
    return asked


@pytest.mark.parametrize("name", sorted(LABELLING))
def test_labels_from_the_table_equal_a_fresh_labelling(name, monkeypatch,
                                                       capsys):
    asked = _asked(LABELLING[name], monkeypatch, capsys)
    assert asked
    fresh = [mpq._n_label(c) for c in asked]
    monkeypatch.setattr(mpq, "_n_label", _unreached)
    assert [mpq.n_label(c) for c in asked] == fresh


@pytest.mark.parametrize("name", ["wf-example-u6", "wf-compute-u6-chain"])
def test_a_second_run_labels_nothing(name, monkeypatch, capsys):
    assert cli.main(LABELLING[name]) == 0
    first = capsys.readouterr().out
    monkeypatch.setattr(mpq, "_n_label", _unreached)
    assert cli.main(LABELLING[name]) == 0
    assert capsys.readouterr().out == first


def test_a_cleared_table_gives_equal_values(monkeypatch, capsys):
    asked = [c for name in ("wf-example-u6", "graph-trace-u7h")
             for c in _asked(LABELLING[name], monkeypatch, capsys)]
    kept = [mpq.n_label(c) for c in asked]
    models = {id(c.quot.model): c.quot.model for c in asked}
    for m in models.values():
        monkeypatch.setattr(m, "_labels", {})
    calls = []
    n_label = mpq._n_label
    monkeypatch.setattr(mpq, "_n_label",
                        lambda c: calls.append(c) or n_label(c))
    assert [mpq.n_label(c) for c in asked * 2] == kept * 2
    # each distinct coset is labelled afresh once
    assert len(calls) == len({(id(c.quot.model),) + c.key()[1:]
                              for c in asked}) == 10


def _diagonal_cosets(m, k):
    """k cosets of the u6 level-0 piece at U6_Z, diag(a, 0, ..., 0)."""
    kres = m.field.residue
    quot = mpq.GradedQuotient(m, bd.U6_Z, 0)
    out = []
    for a in range(1, k + 1):
        mat = [[kres.zero] * 6 for _ in range(6)]
        mat[0][0] = kres(a)
        out.append(mpq.QuotientElement(quot, mat))
    return out


def test_the_table_drops_its_oldest_coset_at_the_bound(monkeypatch):
    m = bd.u6_model(23)
    monkeypatch.setattr(m, "_labels", {})
    monkeypatch.setattr(bd, "LABEL_MEMO_SIZE", 3)
    cosets = _diagonal_cosets(m, 5)
    labels = [mpq.n_label(c) for c in cosets]
    assert list(m._labels) == [c.key()[1:] for c in cosets[2:]]
    calls = []
    n_label = mpq._n_label
    monkeypatch.setattr(mpq, "_n_label",
                        lambda c: calls.append(c) or n_label(c))
    assert mpq.n_label(cosets[4]) == labels[4] and calls == []
    assert mpq.n_label(cosets[0]) == labels[0] and calls == [cosets[0]]
    assert list(m._labels) == [c.key()[1:] for c in cosets[3:] + cosets[:1]]


def test_a_coset_whose_labelling_raises_is_not_kept(monkeypatch):
    # at U6_Z the heart blocks are {0, 1, 5} and {2, 3, 4}: an entry at
    # (0, 2) respects neither
    m = bd.u6_model(23)
    monkeypatch.setattr(m, "_labels", {})
    kres = m.field.residue
    mat = [[kres.zero] * 6 for _ in range(6)]
    mat[0][0], mat[0][2] = kres.gen, kres.one
    c = mpq.QuotientElement(mpq.GradedQuotient(m, bd.U6_Z, 0), mat)
    calls = []
    n_label = mpq._n_label
    monkeypatch.setattr(mpq, "_n_label",
                        lambda c: calls.append(c) or n_label(c))
    for k in range(2):
        with pytest.raises(ValueError) as err:
            mpq.n_label(c)
        assert str(err.value) == \
            "element does not respect the reductive-quotient blocks"
        assert m._labels == {} and len(calls) == k + 1


# -- sl2 lifting ---------------------------------------------------------


def check_graded_triple(model, quot, trip):
    """Check the lifted triple on its matrices, and return them."""
    E = model.field
    c, h, d = dense.mats(trip, E, model.n)
    assert trip.check(E) and dense.sl2_check(c, h, d, E)
    # graded placement: h at level 0, d at level -r, both in the algebra
    assert bd.mp_member(model, h, quot.w, 0)
    assert bd.mp_member(model, d, quot.w, -quot.r)
    if model.kind == "u":
        f = lie.Factor.u(model.n, E, model.gram)
        assert f.is_lie(h) and f.is_lie(d)
    return c, h, d


def test_lift_triple_sl2():
    m = bd.sl2_model(3)
    g = zmat(m.field, 2)
    g[1][0] = m.field.uniformizer()
    c = mpq.project(m, g, (0, 0), 1)
    tc, _, _ = check_graded_triple(m, c.quot, mpq.lift_triple(c))
    # projecting the lift back recovers the coset
    assert c.quot.project(tc).mat == c.mat


def test_lift_triple_u6():
    m = bd.u6_model(23)
    c = mpq.project(m, u6_c_n(m), bd.U6_Z, -1)
    tc, _, _ = check_graded_triple(m, c.quot, mpq.lift_triple(c))
    assert c.quot.project(tc).mat == c.mat


def test_lift_triple_u7():
    m = bd.u7_model(23)
    c = mpq.project(m, u7_chain_z(m), m.point(U7_Z), 0)
    tc, _, _ = check_graded_triple(m, c.quot, mpq.lift_triple(c))
    assert mpq.minimal_orbit_ur(c) == lie.jordan_type(
        c.quot.project(tc).club())


def test_lift_triple_uses_the_lie_rows():
    m = bd.u7_model(23)
    c = mpq.project(m, u7_z_rows_guard(m), m.point(U7_Z), Fr(-3, 4))
    assert c.is_nilpotent()
    _, _, td = check_graded_triple(m, c.quot, mpq.lift_triple(c))
    f = lie.Factor.u(m.n, m.field, m.gram)
    assert f.is_lie(td)
    # the same solve without the rows: d leaves the Lie algebra
    quot = c.quot
    units = mpq._grade_units(quot, -quot.r)
    free = lie.jacobson_morozov(la.sparse(c.mat),
                                [{(i, j): b} for i, j, b in units],
                                quot.residue_field())
    d = la.dense(mpq._lift(quot, free.d, -quot.r), m.field.zero(), m.n)
    assert d != td and not f.is_lie(d)


def test_lift_triple_rejects():
    m = bd.u7_model(23)
    w = m.point(U7_Z)
    with pytest.raises(ValueError):
        mpq.lift_triple(mpq.project(m, zmat(m.field, 7), w, 0))
    with pytest.raises(ValueError):
        mpq.lift_triple(mpq.project(m, u7_gamma_0(m), w, 0))


# -- reference: the Jacobson-Morozov solve on local matrices -------------
#
# The route lift_triple took before the graded solve: bracket the exact
# monomial lifts over the local field, flatten every (position,
# valuation) coefficient of the images into rows over the prime residue
# field, and combine the solutions back into local matrices.  The graded
# solve must give the same triple entry by entry, term by term.


def reference_local_factor(model):
    if model.kind == "u":
        return lie.Factor.u(model.n, model.field, model.gram)
    return lie.Factor.gl(model.n, model.field)


def _reference_unit_lifts(quot, level):
    model = quot.model
    E = model.field
    out = []
    for i in range(model.n):
        for j in range(model.n):
            pc = model.position_class(i, j)
            if pc is None:
                continue
            cls, s = pc
            thr = quot.threshold(i, j, level)
            if not cls.allows(thr - s):
                continue
            for b in quot.residue_field().basis:
                M = [[E.zero()] * model.n for _ in range(model.n)]
                M[i][j] = E.scalar({thr: b})
                out.append(la.mat(M))
    return out


def _reference_system(images, targets, kres):
    """Rows of sum_k x_k images[k] = each target over the prime residue
    field, one per coordinate of each (i, j, valuation) term."""
    keys = sorted({(i, j, v) for M in list(images) + list(targets)
                   for i, row in enumerate(M) for j, e in enumerate(row)
                   for v, _ in e.terms})

    def coeff(e, v):
        return next((cf for w, cf in e.terms if w == v), kres.zero)

    rows, rhs = [], [[] for _ in targets]
    for i, j, v in keys:
        cells = [kres.coords(coeff(M[i][j], v)) for M in images]
        tcells = [kres.coords(coeff(T[i][j], v)) for T in targets]
        for ci in range(len(kres.basis)):
            rows.append([cell[ci] for cell in cells])
            for ti, tc in enumerate(tcells):
                rhs[ti].append(tc[ci])
    return rows, rhs


def _reference_combine(basis, coeffs, E, n):
    X = la.zero_mat(E, n)
    for cf, B in zip(coeffs, basis):
        if cf:
            X = la.mat_add(X, la.mat_scale(E.from_residue(cf), B))
    return X


def reference_lift_triple(c):
    quot = c.quot
    model = quot.model
    E = model.field
    kres = quot.residue_field()
    kp = kres.base_or_self()
    n = model.n
    if c.is_zero():
        raise ValueError("zero element has no sl2-triple")
    if not c.is_nilpotent():
        raise ValueError("not nilpotent")
    chat = mpq.monomial_lift(quot, c.mat, quot.r)
    factor = reference_local_factor(model)
    basis = _reference_unit_lifts(quot, -quot.r)
    zero = la.zero_mat(E, n)
    defects = [factor.lie_defect(B) or zero for B in basis]
    ad1 = [dense.bracket(chat, B) for B in basis]
    ad2 = [dense.bracket(chat, A) for A in ad1]
    two = E.from_int(2)
    rows_a, rhs_a = _reference_system(ad2, [la.mat_scale(-two, chat)], kres)
    rows_d, rhs_d = _reference_system(defects, [zero], kres)
    sol = la.solve(rows_a + rows_d, rhs_a[0] + rhs_d[0], kp)
    if sol is None:
        raise ValueError("characteristic too small")
    d0 = _reference_combine(basis, sol, E, n)
    h = dense.bracket(chat, d0)
    defect = la.mat_add(dense.bracket(h, d0), la.mat_scale(two, d0))
    d = d0
    if any(e.terms for row in defect for e in row):
        rows_k, _ = _reference_system(ad1, [zero], kres)
        kern = la.kernel_basis(la.mat(rows_k + rows_d), kp)
        Zs = [_reference_combine(basis, v, E, n) for v in kern]
        imgs = [la.mat_add(dense.bracket(h, Z), la.mat_scale(two, Z))
                for Z in Zs]
        rows_c, rhs_c = _reference_system(imgs, [defect], kres)
        sol2 = la.solve(rows_c, rhs_c[0], kp)
        if sol2 is None:
            raise ValueError("characteristic too small")
        d = la.mat_sub(d0, _reference_combine(Zs, sol2, E, n))
    if not dense.sl2_check(chat, h, d, E):
        raise ValueError("characteristic too small")
    return lie.Sl2Triple(la.sparse(chat), la.sparse(h), la.sparse(d))


# -- reference: the Lie rows read from local lie_defect products --------
#
# The rows lift_triple and fiber_basis took before the closed form: the
# monomial lift of every unit, its lie_defect over the local field, and
# one row per residue coordinate of each (position, valuation) term.  The
# closed form must give the same row space, hence the same solutions.


def reference_lie_rows(model, lifts):
    kres = model.field.residue
    factor = reference_local_factor(model)
    cells = {}
    for k, B in enumerate(lifts):
        for i, row in enumerate(factor.lie_defect(B) or ()):
            for j, e in enumerate(row):
                for v, cf in e.terms:
                    cells.setdefault((i, j, v),
                                     [kres.zero] * len(lifts))[k] = cf
    rows = []
    for cell in cells.values():
        coords = [kres.coords(cf) for cf in cell]
        rows.extend([co[a] for co in coords]
                    for a in range(len(kres.basis)))
    return rows


def reference_fiber_basis(v, below):
    """graph.fiber_basis with each unit lifted and tested by mp_member and
    the rows read by reference_lie_rows."""
    model = v.model
    kres = model.field.residue
    kp = kres.base_or_self()
    bx, brr = gr.facet_center(below)
    quot = mpq.GradedQuotient(model, model.point(bx), brr)
    fx, fr = gr.facet_center(v.facet)
    wf = model.point(fx)
    units, lifts = [], []
    for U in unit_mats(quot, mpq._grade_units(quot, brr)):
        B = mpq.monomial_lift(quot, U, brr)
        if bd.mp_member(model, B, wf, fr, strict=True):
            units.append(U)
            lifts.append(B)
    if not units:
        return []
    rows = reference_lie_rows(model, lifts)
    kern = la.kernel_basis(rows, kp) if rows else \
        la.identity(kp, len(units))
    return [mpq.monomial_lift(quot, la.mat_comb(vco, units, kres, model.n),
                              brr) for vco in kern]


def _same_row_space(a, b):
    return la.rank(a) == la.rank(b) == la.rank(a + b)


def _outcome(fn, c):
    """The terms of every nonzero entry of c, h and d, or the error
    message."""
    try:
        trip = fn(c)
    except ValueError as err:
        return "ValueError: %s" % err
    return [{key: e.terms for key, e in M.items()}
            for M in (trip.c, trip.h, trip.d)]


@lru_cache(maxsize=None)
def _graph_runs():
    """Every coset lift_triple is called on, and every (quotient, level,
    units) the Lie rows are written for, in graph trace and graph reach
    for the sl2 and u7h scenarios, in call order, from a cleared plane
    cache: a facet walks each coset once while its window's entry
    lives."""
    from padicwf import cli
    bd._PLANE_CACHE.clear()
    cosets, pieces = [], []
    lift, rows = mpq.lift_triple, mpq._lie_relations

    def record(c):
        cosets.append(c)
        return lift(c)

    def record_rows(quot, level, units):
        pieces.append((quot, level, units))
        return rows(quot, level, units)
    mpq.lift_triple, mpq._lie_relations = record, record_rows
    try:
        for scenario in ("sl2", "u7h"):
            for cmd in ("trace", "reach"):
                cli.main(["graph", cmd, "--scenario", scenario])
    finally:
        mpq.lift_triple, mpq._lie_relations = lift, rows
    return cosets, pieces


def _test_cosets():
    """The cosets of the test_lift_triple_* tests."""
    m2, m6, m7 = bd.sl2_model(3), bd.u6_model(23), bd.u7_model(23)
    g = zmat(m2.field, 2)
    g[1][0] = m2.field.uniformizer()
    return [mpq.project(m2, g, (0, 0), 1),
            mpq.project(m6, u6_c_n(m6), bd.U6_Z, -1),
            mpq.project(m7, u7_chain_z(m7), m7.point(U7_Z), 0),
            mpq.project(m7, u7_z_rows_guard(m7), m7.point(U7_Z),
                        Fr(-3, 4))]


def _fiber_cases():
    """(vertex, facet below) for every rule-1 step of the sl2 and u7h
    scenario paths and every facet below it: the fibers the graph tests
    split."""
    from padicwf import cli
    out = []
    for scenario in ("sl2", "u7h"):
        v, depth = cli._scenario_vertex(scenario)
        for e in gr.path_trace(v, depth):
            if e.rule == 1:
                out.extend((e.src, b) for b in bd.facets_below(e.src.facet))
    return out


def test_lift_triple_matches_the_local_reference(capsys):
    cosets, _ = _graph_runs()
    capsys.readouterr()
    outcomes = [(_outcome(mpq.lift_triple, c),
                 _outcome(reference_lift_triple, c)) for c in cosets]
    # 322 calls on 322 distinct cosets (a facet walks each coset once,
    # whether a trace or a reach asks); 208 calls raise
    assert len(outcomes) == 322 and len({c.key() for c in cosets}) == 322
    assert sum(isinstance(ref, str) for _, ref in outcomes) == 208
    for got, ref in outcomes:
        assert got == ref


def test_lift_triple_test_cosets_match_the_local_reference():
    for c in _test_cosets():
        got = _outcome(mpq.lift_triple, c)
        assert not isinstance(got, str)
        assert got == _outcome(reference_lift_triple, c)


# -- the sparse sl2 certificate against the dense one ---------------------


def _lifts():
    """(model, triple) for each coset that lift_triple lifts in the graph
    runs and among the lift test cosets, each coset once."""
    cosets, _ = _graph_runs()
    seen, out = set(), []
    for c in cosets + _test_cosets():
        if c.key() not in seen:
            seen.add(c.key())
            try:
                out.append((c.quot.model, mpq.lift_triple(c)))
            except ValueError:
                pass
    return out


def _perturbed(trip, E):
    """The triple with h doubled; with the first monomial of c moved up
    one valuation step; and with the unit 1 added to d at (0, 0)."""
    key = min(trip.c)
    c = dict(trip.c)
    c[key] = c[key].shift(Fr(1, E.e))
    d = dict(trip.d)
    d[0, 0] = d.get((0, 0), E.zero()) + E.one()
    return [lie.Sl2Triple(trip.c, {k: x + x for k, x in trip.h.items()},
                          trip.d),
            lie.Sl2Triple(c, trip.h, trip.d),
            lie.Sl2Triple(trip.c, trip.h,
                          {k: x for k, x in d.items() if x})]


def test_sparse_check_matches_the_dense_certificate(capsys):
    lifts = _lifts()
    capsys.readouterr()
    # 114 distinct cosets lift in the sl2 and u7h graph runs, 4 more
    # among the test cosets
    assert len(lifts) == 118
    for model, trip in lifts:
        E = model.field
        assert trip.check(E)
        assert dense.sl2_check(*dense.mats(trip, E, model.n), E)
        for bad in _perturbed(trip, E):
            assert not bad.check(E)
            assert not dense.sl2_check(*dense.mats(bad, E, model.n), E)


def _entries(mats):
    return [[[e.terms for e in row] for row in M] for M in mats]


def test_fiber_basis_matches_the_local_reference():
    cases = _fiber_cases()
    assert len(cases) == 7
    for v, below in cases:
        assert _entries(gr.fiber_basis(v, below)) == \
            _entries(reference_fiber_basis(v, below))


def test_lie_rows_match_the_local_reference(capsys):
    _, pieces = _graph_runs()
    capsys.readouterr()
    pieces = list(pieces)
    for c in _test_cosets():
        quot = c.quot
        pieces.append((quot, -quot.r, mpq._grade_units(quot, -quot.r)))
    for _, below in _fiber_cases():
        bx, brr = gr.facet_center(below)
        quot = mpq.GradedQuotient(below.model, below.model.point(bx), brr)
        pieces.append((quot, brr, mpq._grade_units(quot, brr)))
    short = []
    for quot, level, units in pieces:
        rows = mpq._lie_relations(quot, level, units)
        lifts = [mpq.monomial_lift(quot, U, level)
                 for U in unit_mats(quot, units)]
        assert _same_row_space(rows, reference_lie_rows(quot.model, lifts))
        if len(units) - la.rank(rows) != quot.dim(level):
            short.append((quot.key(), level))
    # the kernel is the graded piece everywhere but on the u6 quotient of
    # test_u6_monomial_kernel_is_smaller_than_the_graded_piece
    assert short == [(("u6", tuple(bd.U6_Z), Fr(-1)), Fr(1))]


def test_u6_monomial_kernel_is_smaller_than_the_graded_piece():
    # At U6_Z, level 1, the partners of (0,5), (5,0), (1,5) and (5,1) sit
    # one valuation above their thresholds: a monomial lift cannot carry
    # them, so the Lie rows force those residues to zero.  The monomial
    # kernel has dimension 14, the graded piece 18.
    m = bd.u6_model(23)
    quot = mpq.GradedQuotient(m, bd.U6_Z, -1)
    units = mpq._grade_units(quot, 1)
    rows = mpq._lie_relations(quot, 1, units)
    kp = quot.residue_field().base_or_self()
    kern = la.kernel_basis(rows, kp)
    assert len(kern) == 14 and quot.dim(1) == 18
    forced = {(0, 5), (5, 0), (1, 5), (5, 1)}
    assert all(not v[k] for v in kern for k, (i, j, _) in enumerate(units)
               if (i, j) in forced)
    lifts = [mpq.monomial_lift(quot, U, 1)
             for U in unit_mats(quot, units)]
    assert _same_row_space(rows, reference_lie_rows(m, lifts))


# -- base-point shifts ---------------------------------------------------


def test_shift_check_trivial():
    m = bd.sl2_model(3)
    g = zmat(m.field, 2)
    g[0][1] = m.field.uniformizer()
    c = mpq.project(m, g, (0, 0), 1)
    assert mpq.shift_check(c, (1,), 2, 0)


def test_shift_check_sl2():
    m = bd.sl2_model(3)
    g = zmat(m.field, 2)
    g[0][1] = m.field.uniformizer()
    c = mpq.project(m, g, (0, 0), 1)
    assert mpq.shift_check(c, (1,), 2, Fr(1, 4))


def test_shift_check_wrong_weight():
    m = bd.sl2_model(3)
    g = zmat(m.field, 2)
    g[1][0] = m.field.uniformizer()
    c = mpq.project(m, g, (0, 0), 1)
    with pytest.raises(ValueError):
        mpq.shift_check(c, (1,), 2, Fr(1, 4))


def test_shift_check_u7_walk():
    # the chain at z sits in the weight-2 piece for the walk direction
    # (-3,-1); its label survives small steps along the walk
    m = bd.u7_model(23)
    c = mpq.project(m, u7_chain_z(m), m.point(U7_Z), 0)
    for t in (Fr(1, 100), Fr(1, 60), Fr(1, 40)):
        assert mpq.shift_check(c, (-3, -1), 2, t)


# -- structural invariants -----------------------------------------------


def test_bracket_respects_grading():
    m = bd.u6_model(23)
    w = bd.U6_Z
    qa = mpq.GradedQuotient(m, w, -1)
    qb = mpq.GradedQuotient(m, w, 1)
    A = [mpq.monomial_lift(qa, U, -1)
         for U in unit_mats(qa, mpq._grade_units(qa, -1))]
    B = [mpq.monomial_lift(qb, U, 1)
         for U in unit_mats(qb, mpq._grade_units(qb, 1))]
    for X in A[:6]:
        for Y in B[:6]:
            assert bd.mp_member(m, dense.bracket(X, Y), w, 0)


def test_label_comparelift_dominance():
    # adding a lower-weight term can only move the label up in dominance
    from padicwf import orbits as ob
    m = bd.gl_split_model(3, 5)
    E = m.field
    g = zmat(E, 3)
    g[0][2] = E.one()
    c = mpq.project(m, g, (0, 0, 0), 0)
    g2 = zmat(E, 3)
    g2[0][2] = E.one()
    g2[1][0] = E.one()  # weight -1 < 2 for lam = (1,0,-1)
    c2 = mpq.project(m, g2, (0, 0, 0), 0)
    l1, l2 = mpq.n_label(c), mpq.n_label(c2)
    assert l1 == (2, 1) and l2 == (3,)
    assert ob.dominance_leq(l1, l2)


def test_label_stable_under_residue_extension():
    # the same integer nilpotent read over k and over k^2
    base = bd.gl_split_model(3, 5)
    L2 = base.field.unramified_quadratic()
    ext = bd.Model("gl3e", 3, L2, bd.coupling_classes("gl", 3, L2),
                   weight_funcs=base.weight_funcs, kind="gl")
    for mdl in (base, ext):
        g = zmat(mdl.field, 3)
        g[0][1] = mdl.field.one()
        g[1][2] = mdl.field.one()
        assert mpq.n_label(mpq.project(mdl, g, (0, 0, 0), 0)) == (3,)


# -- reference: thresholds as Fractions -----------------------------------
#
# The route the graded piece took before its integer thresholds: every
# threshold r + w_j - w_i is a Fraction, compared with the valuation and
# read with `residue_at`, and the class grid is tested with
# `EntryClass.allows`.  The integer route must give the same units, rows,
# cosets, lifts and memberships, and raise the same errors.


def reference_project(quot, gamma):
    model, kres = quot.model, quot.residue_field()
    C = [[kres.zero] * model.n for _ in range(model.n)]
    for i in range(model.n):
        for j in range(model.n):
            e = gamma[i][j]
            thr = quot.threshold(i, j)
            if e and e.val() < thr:
                raise ValueError("not in lattice")
            pc = model.position_class(i, j)
            if pc is None:
                if e.terms:
                    raise ValueError("not in lattice")
                continue
            cls, s = pc
            cf = e.residue_at(thr)
            if cf and not cls.allows(thr - s):
                raise ValueError("entry valuation off the coupling grid")
            C[i][j] = cf
    return la.mat(C)


def reference_grade_units(quot, level):
    model, out = quot.model, []
    for i in range(model.n):
        for j in range(model.n):
            pc = model.position_class(i, j)
            if pc is not None and \
                    pc[0].allows(quot.threshold(i, j, level) - pc[1]):
                out.extend((i, j, b) for b in quot.residue_field().basis)
    return out


def reference_lie_relations(quot, level, units):
    if quot.model.form is None:
        return []
    sigma, gv, gu = quot.model.form
    kres = quot.residue_field()
    ram = quot.model.field.kind == "ram"
    cells = {}
    for k, (i, j, b) in enumerate(units):
        th = quot.threshold(i, j, level)
        cb = -b if ram and (2 * th) % 2 else b.conj()
        si = sigma[i]
        for cell, cf in (((j, si, th + gv[i]), cb * gu[i]),
                         ((si, j, th + gv[si]), gu[si] * b)):
            col = cells.setdefault(cell, [kres.zero] * len(units))
            col[k] = col[k] + cf
    rows = []
    for cell in cells.values():
        coords = [kres.coords(cf) for cf in cell]
        rows.extend([co[a] for co in coords]
                    for a in range(len(kres.basis)))
    return rows


def reference_monomial_lift(quot, mat, level):
    E = quot.model.field
    return [[E.scalar({quot.threshold(i, j, level): cf}) if cf
             else E.zero() for j, cf in enumerate(row)]
            for i, row in enumerate(mat)]


def reference_mp_member(model, gamma, w, r, strict):
    for i in range(model.n):
        for j in range(model.n):
            e, thr = gamma[i][j], r + w[j] - w[i]
            if e and (e.val() <= thr if strict else e.val() < thr):
                return False
    return True


def _result(fn, *args):
    """fn(*args), with local matrices as the terms of their entries, or
    the type and message of the error it raises."""
    try:
        out = fn(*args)
    except ValueError as err:
        return type(err).__name__, str(err)
    if isinstance(out, mpq.QuotientElement):
        out = out.mat
    if isinstance(out, (list, tuple)) and out and \
            isinstance(out[0], (list, tuple)) and out[0] and \
            hasattr(out[0][0], "terms"):
        out = [[e.terms for e in row] for row in out]
    return out


# The u6 models have no chart; they bring the class shifts and Gram
# valuations that the others lack (all zero there).
THRESHOLD_WINDOWS = [
    (bd.sl2_model(3), bd.Window([(0, 1)], -1, 2)),
    (bd.sl3_model(3), bd.Window([(0, Fr(1, 2))] * 2, 0, Fr(1, 2))),
    (bd.u7_h_model(23), bd.Window([(0, 1), (0, 1)], -1, 1)),
    (bd.u6_model(23), None),
    (bd.u6_hyp_model(23), None),
]


@st.composite
def facet_centres(draw):
    """A model, a facet centre (w, r) of one of its windows (a grid
    point for a model without a chart), a level
    among r, 0 and -r, and a matrix near the lattice there: up to four
    entries of one or two terms at or next to the first valuation
    above the threshold."""
    model, win = draw(st.sampled_from(THRESHOLD_WINDOWS))
    den = draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
    if win is None:
        # no chart: a weight vector on a grid, in the box of U6_Z
        w = tuple(Fr(draw(st.integers(-den, den)), 2 * den)
                  for _ in range(model.n))
        r = Fr(draw(st.integers(-2 * den, 2 * den)), 2 * den)
    else:
        x = tuple(Fr(draw(st.integers(math.ceil(a * den),
                                      math.floor(b * den))), den)
                  for a, b in win.xranges)
        r0 = Fr(draw(st.integers(math.ceil(win.rmin * den),
                                 math.floor(win.rmax * den))), den)
        cx, r = gr.facet_center(bd.facet_of(model, win, x, r0))
        w = model.point(cx)
    level = draw(st.sampled_from([r, Fr(0), -r]))
    E, e = model.field, model.field.e
    res = E.residue
    coeff = st.builds(res.from_coords,
                      st.lists(st.integers(1, res.p - 1), min_size=2,
                               max_size=2))
    step = st.sampled_from([0, 0, 0, 1, -1])
    pos = st.tuples(st.integers(0, model.n - 1), st.integers(0, model.n - 1))
    gamma = zmat(E, model.n)
    for i, j in draw(st.lists(pos, max_size=4)):
        base = math.ceil((level + w[j] - w[i]) * e)
        gamma[i][j] = E.scalar({Fr(base + draw(step), e): draw(coeff)
                                for _ in range(draw(st.integers(1, 2)))})
    return model, w, r, level, la.mat(gamma), draw(st.data())


@settings(max_examples=120, deadline=None)
@given(facet_centres())
def test_integer_thresholds_match_the_fraction_route(case):
    model, w, r, level, gamma, data = case
    quot = mpq.GradedQuotient(model, w, r)
    units = mpq._grade_units(quot, level)
    assert units == reference_grade_units(quot, level)
    assert mpq._lie_relations(quot, level, units) == \
        reference_lie_relations(quot, level, units)
    kres = quot.residue_field()
    mat = [[kres.zero] * model.n for _ in range(model.n)]
    for i, j, b in units:
        if data.draw(st.booleans()):
            mat[i][j] = mat[i][j] + b
    assert _result(mpq.monomial_lift, quot, la.mat(mat), level) == \
        _result(reference_monomial_lift, quot, la.mat(mat), level)
    at_level = mpq.GradedQuotient(model, w, level)
    assert _result(at_level.project, gamma) == \
        _result(reference_project, at_level, gamma)
    for strict in (False, True):
        assert _result(bd.mp_member, model, gamma, w, level, strict) == \
            _result(reference_mp_member, model, gamma, w, level, strict)


def test_off_grid_entry_raises_the_same_error():
    # at U7_Z, level 0, the threshold at (3, 3) is 0, but its class (the
    # antidiagonal self-paired one) has valuations in 1/2 + Z only
    model = bd.u7_h_model(23)
    E = model.field
    quot = mpq.GradedQuotient(model, model.point(U7_Z), 0)
    g = zmat(E, 7)
    g[3][3] = E.one()
    got = _result(quot.project, la.mat(g))
    assert got == ("ValueError", "entry valuation off the coupling grid")
    assert got == _result(reference_project, quot, la.mat(g))
