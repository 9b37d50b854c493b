import pytest
from hypothesis import given, strategies as st

from padicwf import orbits as ob


def test_dominance_examples():
    assert ob.dominance_leq([4, 1], [5])
    assert not ob.dominance_leq([4, 1, 1], [3, 3])
    assert not ob.dominance_leq([3, 3], [4, 1, 1])  # incomparable
    assert ob.dominance_leq([2, 2], [3, 1])
    with pytest.raises(ValueError):
        ob.dominance_leq([2], [1, 1, 1])


def test_dominance_partial_order():
    for n in range(1, 11):
        ps = ob.partitions_of(n)
        for a in ps:
            assert ob.dominance_leq(a, a)
        for a in ps:
            for b in ps:
                if ob.dominance_leq(a, b) and ob.dominance_leq(b, a):
                    assert a == b
        # transitivity on a sample triple sweep (full for small n)
        if n <= 7:
            for a in ps:
                for b in ps:
                    if not ob.dominance_leq(a, b):
                        continue
                    for c in ps:
                        if ob.dominance_leq(b, c):
                            assert ob.dominance_leq(a, c)


def test_validity():
    assert ob.is_valid([3, 1, 1], "B")
    assert not ob.is_valid([4, 1], "B")  # even part 4 with odd multiplicity
    assert ob.is_valid([4, 4, 1], "D")
    assert ob.is_valid([3, 3], "C")
    assert not ob.is_valid([5, 1], "C")
    assert ob.is_valid([2, 2, 2], "C")


def test_collapse_examples():
    assert ob.collapse([3, 3], "C") == (3, 3)
    assert ob.collapse([4, 1], "B") == (3, 1, 1)
    assert ob.collapse([5, 1], "C") == (4, 2)
    assert ob.collapse([6], "C") == (6,)
    assert ob.collapse([7], "B") == (7,)


def test_collapse_is_max_valid_below():
    # brute-force re-verification of the defining property for n <= 8
    for n in range(1, 9):
        for lam in ob.partitions_of(n):
            types = ("B", "C", "D") if n % 2 == 0 else ("B", "D")
            for typ in types:
                mu = ob.collapse(lam, typ)
                assert ob.is_valid(mu, typ)
                assert ob.dominance_leq(mu, lam)
                for nu in ob.partitions_of(n):
                    if ob.is_valid(nu, typ) and ob.dominance_leq(nu, lam):
                        assert ob.dominance_leq(nu, mu)


def test_ls_induce_examples():
    # Borel of GL_5: regular orbit
    levi = [("A", 1, ()) for _ in range(5)]
    assert ob.ls_induce(levi, "A", 5) == (5,)
    # eigenvalue blocks (2,1,1,1) with zero orbits inside a U_5-type group
    levi = [("A", 2, ()), ("A", 1, ()), ("A", 1, ()), ("A", 1, ())]
    assert ob.ls_induce(levi, "A", 5) == (4, 1)
    # GL_1 x Sp_4 inside Sp_6, inducing [4] from the Sp_4 factor
    levi = [("A", 1, ()), ("C", 4, (4,))]
    assert ob.ls_induce(levi, "C", 6) == (6,)
    # Borel torus of Sp_4 -> regular [4]; of SO_5 -> regular [5]
    levi = [("A", 1, ()), ("A", 1, ())]
    assert ob.ls_induce(levi, "C", 4) == (4,)
    levi_b = [("A", 1, ()), ("A", 1, ()), ("B", 1, ())]
    assert ob.ls_induce(levi_b, "B", 5) == (5,)
    with pytest.raises(ValueError):
        ob.ls_induce([("A", 1, ())], "A", 5)


def test_embed_orbit_examples():
    assert ob.embed_orbit([(4, 1), (1,)], "A") == (4, 1, 1)
    assert ob.embed_orbit([(3,), (3,)], "A") == (3, 3)
    assert ob.embed_orbit([(), ()], "A") == ()
    assert ob.embed_orbit([(5,), (2,)], "A") == (5, 2)
    assert ob.embed_orbit([(6,), (1,)], "A") == (6, 1)


def test_max_antichain():
    got = ob.max_antichain([(4, 1, 1), (3, 3), (3, 1, 1, 1)])
    assert set(got) == {(4, 1, 1), (3, 3)}
    assert ob.max_antichain([(5,)]) == [(5,)]
    assert ob.max_antichain([(5,), (4, 1), (3, 2)]) == [(5,)]


def test_dynkin_cocharacter():
    assert ob.dynkin_cocharacter([2]) == (1, -1)
    assert ob.dynkin_cocharacter([3]) == (2, 0, -2)
    assert ob.dynkin_cocharacter([2, 2]) == (1, 1, -1, -1)
    assert ob.dynkin_cocharacter([4, 1]) == (3, 1, 0, -1, -3)


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                max_size=5))
def test_collapse_idempotent(parts):
    lam = ob.partition(parts)
    types = ("B", "C", "D") if sum(lam) % 2 == 0 else ("B", "D")
    for typ in types:
        mu = ob.collapse(lam, typ)
        assert ob.collapse(mu, typ) == mu
