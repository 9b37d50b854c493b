import pytest

from padicwf import building as bd
from padicwf import cli
from padicwf import liealg as lie
from padicwf import linalg as la
from padicwf import orbits as ob
from padicwf import wavefront as wf

import shipped


# -- characteristic bound ------------------------------------------------


def test_char_bound():
    assert [bd.sl2_model(23).rank, bd.sl3_model(23).rank] == [1, 2]
    wf.check_char(bd.sl3_model(23))  # 23 > 11
    with pytest.raises(ValueError, match="p > 35"):
        wf.check_char(bd.u6_model(23))
    with pytest.raises(ValueError, match="p > 41"):
        wf.check_char(bd.u7_model(23))
    wf.check_char(bd.u7_model(23), override=True)


# -- chain validation ----------------------------------------------------


def test_chain_orders_by_depth():
    with pytest.raises(AssertionError):
        wf.GoodChain([("a", shipped.piece("u6", -1), -1),
                      ("b", shipped.piece("u6", 0), 0)])


def test_chain_rejects_bad_piece():
    E = bd.u6_model(23).field
    not_good = wf.zmat(E, 6)
    s = E.from_residue(E.residue.gen)
    not_good[0][0] = s
    not_good[1][1] = s * E.parse("t")  # valuation 1 at declared depth 0

    with pytest.raises(ValueError, match="not good at depth"):
        wf.GoodChain([("bad", not_good, 0)])


def test_chain_rejects_non_commuting():
    E = bd.u6_model(23).field
    s = E.from_residue(E.residue.gen)
    tinv = E.parse("t^-1")
    diag_deep = wf.zmat(E, 6)
    for i in range(2, 6):
        diag_deep[i][i] = tinv * s * E.from_int(i + 1)
    b = E.residue((5, 2))
    cross_part = wf.zmat(E, 6)
    cross_part[2][3] = E.from_residue(b)
    cross_part[3][2] = E.from_residue(-b.conj())

    with pytest.raises(ValueError, match="do not commute"):
        wf.GoodChain([("a", cross_part, 0), ("b", diag_deep, -1)])


def test_u6_chain_validates():
    chain, _, _ = shipped.example("u6")
    wf.GoodChain(chain.pieces)  # goodness + commutation pass


def test_u6_pieces_lie_membership_per_model():
    # The u6 seed puts its alcove entry in the hyperbolic-basis model,
    # but the chain pieces are written in u6's diagonal basis: only the
    # depth -1 piece lies in both Lie algebras.  The alcove's label is
    # dominated, so the u6 answer does not depend on it.
    m = bd.u6_model(23)
    pieces = [shipped.piece("u6", 0), shipped.piece("u6", -1),
              shipped.piece("toral", 0), wf.u6_chain_regular(m)]
    member = {name: [lie.Factor.u(6, model.field, model.gram).is_lie(
        la.mat(g)) for g in pieces]
        for name, model in (("u6", m), ("u6hyp", bd.u6_hyp_model(23)))}
    assert member == {"u6": [True, True, True, True],
                      "u6hyp": [False, True, False, False]}


# -- descent and labels --------------------------------------------------


def test_descend_adds_piece_to_every_entry():
    m = bd.u6_model(23)
    want = shipped.piece("u6", -1)
    seed = wf.u6_seed()
    out = wf.descend(seed, want)
    assert out.depth == seed.depth == -1
    assert len(out.entries) == 3
    diff = la.mat_add(out.entries[0].cmat,
                      la.mat_scale(m.field.from_int(-1),
                                   seed.entries[0].cmat))
    assert diff == want


def test_compute_wf_requires_matching_depth():
    # a piece strictly deeper than the seed needs a level transfer,
    # which the generic driver does not provide
    m = bd.u6_model(23)
    g = shipped.piece("toral", 0)
    deep = la.mat_scale(m.field.parse("t^-2"), g)
    chain = wf.GoodChain([("g0", g, 0), ("g-2", deep, -2)])
    seed = wf.SpectralDatum(0, [wf.Entry("y", m, bd.U6_Y,
                                         wf.zmat(m.field, 6))])
    with pytest.raises(ValueError) as err:
        wf.compute_wf(chain, seed)
    assert str(err.value) == (
        "piece 'g-2' at depth -2 lies below the seed depth 0: the level "
        "transfer needs explicit facet data")


# -- the unitary rank-6 reproduction -------------------------------------


def u6_example(mode="exact"):
    """The shipped u6 file, run as `wf example u6` runs it."""
    return cli.compute_input(*shipped.example("u6"), mode)


def test_u6_labels_and_provenance():
    res = u6_example()
    assert res.labels == ((4, 1, 1), (3, 3))
    assert not res.is_upper_bound
    assert res.provenance[(4, 1, 1)] == ["y"]
    assert res.provenance[(3, 3)] == ["z"]
    # the alcove contribution is recorded but dominated
    assert res.provenance[(3, 1, 1, 1)] == ["alcove"]
    assert ob.dominance_leq((3, 1, 1, 1), (4, 1, 1))


def test_u6_bound_mode_same_labels():
    res = u6_example(mode="bound")
    assert res.labels == ((4, 1, 1), (3, 3))
    assert res.is_upper_bound
    assert any("conjectural" in n for n in res.notes)


def test_u6_labels_incomparable():
    a, b = (4, 1, 1), (3, 3)
    assert not ob.dominance_leq(a, b) and not ob.dominance_leq(b, a)


def test_translated_origin_same_labels():
    # shifting every apartment coordinate by a constant leaves all the
    # pairwise thresholds, hence all labels, unchanged
    chain, _, _ = shipped.example("u6")
    base = wf.u6_seed()
    shifted = wf.SpectralDatum(-1, [
        wf.Entry(e.name, e.model, tuple(x + 1 for x in e.point), e.cmat)
        for e in base.entries])
    r1 = wf.compute_wf(chain, base)
    r2 = wf.compute_wf(chain, shifted)
    assert r1.labels == r2.labels
    assert r1.provenance == r2.provenance


# -- the toral singleton -------------------------------------------------


def test_toral_singleton():
    res = cli.compute_input(*shipped.example("toral"), "exact")
    assert res.labels == ((5, 1),)
    assert not res.is_upper_bound


def test_toral_unit_scalar_invariance():
    m = bd.u6_model(23)
    scaled = la.mat_scale(m.field.from_int(2), shipped.piece("toral", 0))
    chain = wf.GoodChain([("gamma", scaled, 0)])
    seed = wf.SpectralDatum(0, [wf.Entry("y", m, bd.U6_Y,
                                         wf.zmat(m.field, 6))])
    assert wf.compute_wf(chain, seed).labels == cli.compute_input(
        *shipped.example("toral"), "exact").labels


# -- the rank-7 half-depth bound -----------------------------------------


def test_u7_plain_variant():
    res = wf.u7_example("plain")
    assert res.labels == ((5, 2),)
    assert res.is_upper_bound
    assert res.provenance[(5, 2)] == ["y"]
    assert any("count at the second vertex: 0" in n for n in res.notes)


def test_u7_prime_variant_strictly_larger():
    res = wf.u7_example("prime")
    assert res.labels == ((6, 1),)
    assert res.provenance[(6, 1)] == ["z"]
    assert res.provenance[(5, 2)] == ["y"]
    assert any("count at the second vertex: 16" in n for n in res.notes)
    # strictly larger than the plain bound
    plain = wf.u7_example("plain").labels[0]
    assert ob.dominance_lt(plain, res.labels[0])


def test_u7_notes_report_path_discrepancy():
    res = wf.u7_example("plain")
    note = next(n for n in res.notes if "12 edges" in n)
    assert "10 edges" in note and "1/8" in note
