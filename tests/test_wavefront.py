import pytest

from padicwf import building as bd
from padicwf import linalg as la
from padicwf import orbits as ob
from padicwf import wavefront as wf


# -- group spec ----------------------------------------------------------


def test_char_bound():
    assert wf.GroupSpec("A", 2, 2, 23).char_bound_ok()
    assert not wf.u6_spec().char_bound_ok()  # 23 < 35
    assert not wf.u7_spec().char_bound_ok()  # 23 < 41
    with pytest.raises(ValueError, match="p > 41"):
        wf.u7_spec().check_char()
    wf.u7_spec().check_char(override=True)


# -- chain validation ----------------------------------------------------


def test_chain_orders_by_depth():
    with pytest.raises(AssertionError):
        wf.GoodChain([("a", wf.u6_gamma_deep, -1),
                      ("b", wf.u6_gamma_zero, 0)])


def test_chain_rejects_bad_piece():
    m = bd.u6_model(23)

    def not_good(model):
        E = model.field
        g = wf.zmat(E, 6)
        s = E.from_residue(E.residue.gen)
        g[0][0] = s
        g[1][1] = s * E.parse("t")  # valuation 1 at declared depth 0
        return g

    with pytest.raises(ValueError, match="not good at depth"):
        wf.GoodChain([("bad", not_good, 0)], check_model=m)


def test_chain_rejects_non_commuting():
    m = bd.u6_model(23)

    def diag_deep(model):
        E = model.field
        g = wf.zmat(E, 6)
        s = E.from_residue(E.residue.gen)
        tinv = E.parse("t^-1")
        for i in range(2, 6):
            g[i][i] = tinv * s * E.from_int(i + 1)
        return g

    def cross_part(model):
        E = model.field
        k = E.residue
        g = wf.zmat(E, 6)
        b = k((5, 2))
        g[2][3] = E.from_residue(b)
        g[3][2] = E.from_residue(-b.conj())
        return g

    with pytest.raises(ValueError, match="do not commute"):
        wf.GoodChain([("a", cross_part, 0), ("b", diag_deep, -1)],
                     check_model=m)


def test_u6_chain_validates():
    wf.u6_chain()  # goodness + commutation pass


# -- descent and labels --------------------------------------------------


def test_descend_adds_piece_to_every_entry():
    seed = wf.u6_seed()
    out = wf.descend(seed, wf.u6_gamma_deep)
    assert out.depth == seed.depth == -1
    assert len(out.entries) == 3
    m = bd.u6_model(23)
    want = la.mat(wf.u6_gamma_deep(m))
    diff = la.mat_add(out.entries[0].cmat,
                      la.mat_scale(m.field.from_int(-1),
                                   seed.entries[0].cmat))
    assert diff == want


def test_compute_wf_requires_matching_depth():
    # a piece strictly deeper than the seed needs a level transfer,
    # which the generic driver does not provide
    m = bd.u6_model(23)
    chain = wf.GoodChain([("g0", wf.toral_gamma, 0),
                          ("g-2", wf.toral_gamma, -2)])
    seed = wf.SpectralDatum(0, [wf.Entry("y", m, bd.U6_Y,
                                         wf.zmat(m.field, 6))])
    with pytest.raises(ValueError) as err:
        wf.compute_wf(chain, seed)
    assert str(err.value) == (
        "piece 'g-2' at depth -2 lies below the seed depth 0: the level "
        "transfer needs explicit facet data")


# -- the unitary rank-6 reproduction -------------------------------------


def test_u6_labels_and_provenance():
    res = wf.u6_example()
    assert res.labels == ((4, 1, 1), (3, 3))
    assert not res.is_upper_bound
    assert res.provenance[(4, 1, 1)] == ["y"]
    assert res.provenance[(3, 3)] == ["z"]
    # the alcove contribution is recorded but dominated
    assert res.provenance[(3, 1, 1, 1)] == ["alcove"]
    assert ob.dominance_leq((3, 1, 1, 1), (4, 1, 1))


def test_u6_bound_mode_same_labels():
    res = wf.u6_example(mode="bound")
    assert res.labels == ((4, 1, 1), (3, 3))
    assert res.is_upper_bound
    assert any("conjectural" in n for n in res.notes)


def test_u6_labels_incomparable():
    a, b = (4, 1, 1), (3, 3)
    assert not ob.dominance_leq(a, b) and not ob.dominance_leq(b, a)


def test_translated_origin_same_labels():
    # shifting every apartment coordinate by a constant leaves all the
    # pairwise thresholds, hence all labels, unchanged
    m = bd.u6_model(23)
    base = wf.u6_seed()
    shifted = wf.SpectralDatum(-1, [
        wf.Entry(e.name, e.model, tuple(x + 1 for x in e.point), e.cmat)
        for e in base.entries])
    r1 = wf.compute_wf(wf.u6_chain(), base)
    r2 = wf.compute_wf(wf.u6_chain(), shifted)
    assert r1.labels == r2.labels
    assert r1.provenance == r2.provenance


# -- the toral singleton -------------------------------------------------


def test_toral_singleton():
    res = wf.toral_example()
    assert res.labels == ((5, 1),)
    assert not res.is_upper_bound


def test_toral_unit_scalar_invariance():
    m = bd.u6_model(23)

    def scaled(model):
        two = model.field.from_int(2)
        return la.mat_scale(two, la.mat(wf.toral_gamma(model)))

    chain = wf.GoodChain([("gamma", scaled, 0)], check_model=m)
    seed = wf.SpectralDatum(0, [wf.Entry("y", m, bd.U6_Y,
                                         wf.zmat(m.field, 6))])
    assert wf.compute_wf(chain, seed).labels == wf.toral_example().labels


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
