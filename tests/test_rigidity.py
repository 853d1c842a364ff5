import random

import pytest

from cutsys import rigidity as R
from cutsys.sympcurves import HClass, SympSpace
from cutsys.universe import make_universe

G, K = 3, 2
S = SympSpace(G)
a1, b1, a2 = S.basis_a(1), S.basis_b(1), S.basis_a(2)


def zu():
    return make_universe("sympZ", g=G)


def test_induced_map_of_a_twist():
    u = zu()
    w = R.TwistWord(((a1, 1),))
    fmap = R.InducedCurveMap(u, R.twist_oracle(u, w), K, G)
    assert fmap(b1) == HClass((1, 1, 0, 0))


def test_induced_map_identity():
    u = zu()
    w = R.TwistWord(((a1, 0),))
    fmap = R.InducedCurveMap(u, R.twist_oracle(u, w), K, G)
    assert fmap(b1) == b1
    assert fmap(a2) == a2


def test_well_definedness_over_choices():
    u = zu()
    rng = random.Random(20)
    words = [
        R.TwistWord(((a1, 1),)),
        R.TwistWord(((b1, -1), (a2, 2))),
        R.TwistWord(((a2, 1), (a1, -1))),
    ]
    for w in words:
        oracle = R.twist_oracle(u, w)
        for _ in range(15):
            curve = b1 if rng.random() < 0.5 else a2
            comps = R._companions(u, curve, K, G, rng)
            partner = R._partner(u, curve, comps)
            got = R.induced_curve_map(u, oracle, curve, K, G, comps, partner)
            assert got == w.act(u, curve)


def test_phi_psi_suite():
    u = zu()
    rng = random.Random(22)
    words = [
        R.TwistWord(((a1, 1),)),
        R.TwistWord(((b1, 1),)),
        R.TwistWord(((a2, -1), (a1, 1))),
        R.TwistWord(((b1, -2),)),
    ]
    rep = R.check_phi_psi(u, words, G, K, rng, curve_samples=6)
    assert rep.passed, rep.failures[:3]


def test_twist_word_algebra():
    u = zu()
    w = R.TwistWord(((a1, 2), (b1, -1)))
    composite = w * R.TwistWord(((b1, 1), (a1, -2)))  # w times its inverse
    for c in (b1, a2, HClass((1, 1, 0, 0))):
        assert composite.act(u, c) == c


def test_twist_word_trivial_iff_freely_trivial():
    assert R.TwistWord(((a1, -1), (a1, 1))).trivial
    assert R.TwistWord(((a1, 0),)).trivial
    assert not R.TwistWord(((a1, 1), (b1, 1))).trivial
    assert not R.TwistWord(((a1, 1), (b1, 1), (a1, -1))).trivial


def test_non_simplicial_oracle_rejected():
    u = zu()
    scramble = {}

    def fn(v):
        # swap two disjoint curves inconsistently: breaks move preservation
        return tuple(sorted((R.SympSpace(G).basis_a(((hash(c) % G) + 1)) for c in v)))

    with pytest.raises(R.NotAnAutomorphism):
        R.induced_curve_map(u, fn, b1, K, G)
