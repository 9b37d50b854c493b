from fractions import Fraction as Fr

import pytest

from padicwf import building as bd
from padicwf import liealg as lie
from padicwf import linalg as la
from padicwf import mpquotient as mpq


def zmat(field, n):
    return [[field.zero() for _ in range(n)] for _ in range(n)]


# -- example elements ----------------------------------------------------


def u6_gamma_minus1(model):
    """Diagonal depth -1 part: varpi^{-1} diag(0,0,l3,l4,l5,l6) with the
    l_i distinct trace-zero units."""
    E = model.field
    g = zmat(E, 6)
    s = E.from_residue(E.residue.gen)
    for i in range(2, 6):
        g[i][i] = E.parse("t^-1") * s * E.from_int(i + 1)
    return g


def u6_gamma_0(model):
    E = model.field
    g = zmat(E, 6)
    s = E.from_residue(E.residue.gen)
    for i in range(2):
        g[i][i] = s * E.from_int(i + 1)
    return g


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
    c = mpq.project(m, u6_gamma_minus1(m), bd.U6_Y, -1)
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
    c = mpq.project(m, u6_gamma_minus1(m), bd.U6_Z, -1)
    with pytest.raises(ValueError):
        mpq.minimal_orbit_ur(c)


def test_minimal_orbit_u6_c_n():
    m = bd.u6_model(23)
    c = mpq.project(m, u6_c_n(m), bd.U6_Z, -1)
    assert c.is_nilpotent()
    assert mpq.minimal_orbit_ur(c) == (2, 1, 1, 1, 1)


def test_n_label_u6_y():
    m = bd.u6_model(23)
    g = madd(u6_gamma_minus1(m), u6_gamma_0(m))
    assert mpq.n_label(mpq.project(m, g, bd.U6_Y, -1)) == (4, 1, 1)


def test_n_label_u6_z():
    m = bd.u6_model(23)
    g = madd(madd(u6_gamma_minus1(m), u6_gamma_0(m)), u6_c_n(m))
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


# -- sl2 lifting ---------------------------------------------------------


def check_graded_triple(model, quot, trip):
    E = model.field
    two = E.from_int(2)
    assert la.bracket(trip.h, trip.c) == la.mat_scale(two, trip.c)
    assert la.bracket(trip.h, trip.d) == la.mat_scale(
        E.from_int(-2), trip.d)
    assert la.bracket(trip.c, trip.d) == trip.h
    # graded placement: h at level 0, d at level -r, both in the algebra
    assert bd.mp_member(model, trip.h, quot.w, 0)
    assert bd.mp_member(model, trip.d, quot.w, -quot.r)
    if model.kind == "u":
        f = lie.Factor.u(model.n, E, model.gram)
        assert f.is_lie(trip.h) and f.is_lie(trip.d)


def test_lift_triple_sl2():
    m = bd.sl2_model(3)
    g = zmat(m.field, 2)
    g[1][0] = m.field.uniformizer()
    c = mpq.project(m, g, (0, 0), 1)
    trip = mpq.lift_triple(c)
    check_graded_triple(m, c.quot, trip)
    # projecting the lift back recovers the coset
    assert c.quot.project(trip.c).mat == c.mat


def test_lift_triple_u6():
    m = bd.u6_model(23)
    c = mpq.project(m, u6_c_n(m), bd.U6_Z, -1)
    trip = mpq.lift_triple(c)
    check_graded_triple(m, c.quot, trip)
    assert c.quot.project(trip.c).mat == c.mat


def test_lift_triple_u7():
    m = bd.u7_model(23)
    c = mpq.project(m, u7_chain_z(m), m.point(U7_Z), 0)
    trip = mpq.lift_triple(c)
    check_graded_triple(m, c.quot, trip)
    assert mpq.minimal_orbit_ur(c) == lie.jordan_type(
        c.quot.project(trip.c).club(), m.field.residue)


def test_lift_triple_rejects():
    m = bd.u7_model(23)
    w = m.point(U7_Z)
    with pytest.raises(ValueError):
        mpq.lift_triple(mpq.project(m, zmat(m.field, 7), w, 0))
    with pytest.raises(ValueError):
        mpq.lift_triple(mpq.project(m, u7_gamma_0(m), w, 0))


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
    A = mpq._grade_unit_lifts(qa, -1)
    B = mpq._grade_unit_lifts(qb, 1)
    for X in A[:6]:
        for Y in B[:6]:
            assert bd.mp_member(m, la.bracket(X, Y), w, 0)


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
