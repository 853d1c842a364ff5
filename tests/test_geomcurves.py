import random

import pytest

from cutsys.geomcurves import Slope, all_slopes, islope, twist_slope

from wordmodel import BoundExceeded, CyclicWord, Inessential, RibbonSurface, iword, iword_oracle, slope_word

T = RibbonSurface.standard(1, 1)
S21 = RibbonSurface.standard(2, 1)


def test_islope_examples():
    assert islope(Slope(1, 0), Slope(0, 1)) == 1
    assert islope(Slope(1, 0), Slope(1, 0)) == 0
    assert islope(Slope(2, 1), Slope(1, 1)) == 1


def test_twist_slope_examples():
    assert twist_slope(Slope(1, 0), 1, Slope(0, 1)) == Slope(1, 1)
    for k in range(-6, 7):
        img = twist_slope(Slope(1, 0), k, Slope(0, 1))
        assert img == Slope(k, 1)
        assert islope(img, Slope(1, 1)) == abs(k - 1)
    # with the fixed handedness (b -> b + <a,b> a, <a1,b1> = +1) the inverse
    # twist about (1,1) sends (1,0) to (2,1); the twist inverts it back
    img = twist_slope(Slope(1, 1), -1, Slope(1, 0))
    assert img == Slope(2, 1)
    assert twist_slope(Slope(1, 1), 1, img) == Slope(1, 0)


def test_twist_slope_fixes_axis():
    rng = random.Random(1)
    slopes = all_slopes(3)
    for _ in range(100):
        a, b = rng.choice(slopes), rng.choice(slopes)
        n = rng.randint(-6, 6)
        assert islope(twist_slope(a, n, b), a) == islope(b, a)


def test_slope_twist_inequality_exhaustive_small():
    slopes = all_slopes(2)
    for a in slopes:
        for b in slopes:
            for c in slopes:
                for n in range(-6, 7):
                    lhs = abs(
                        islope(twist_slope(a, n, b), c)
                        - abs(n) * islope(a, b) * islope(a, c)
                    )
                    assert lhs <= islope(b, c)


def test_ribbon_derivations():
    assert (T.genus, T.boundary_count) == (1, 1)
    assert (S21.genus, S21.boundary_count) == (2, 1)
    s12 = RibbonSurface.standard(1, 2)
    assert (s12.genus, s12.boundary_count) == (1, 2)
    assert 2 - 2 * T.genus - T.boundary_count == 1 - T.edges


def test_word_basics():
    x, y = CyclicWord([1], T), CyclicWord([2], T)
    xy = CyclicWord([1, 2], T)
    assert iword(x, y) == 1
    assert iword(x, x) == 0
    assert iword(xy, x) == 1
    with pytest.raises(Inessential):
        CyclicWord([1, -1], T)
    with pytest.raises(Inessential):
        CyclicWord([1, 2, -1, -2], T)  # the boundary walk of the one-holed torus


def test_word_bound():
    x = CyclicWord([1], T)
    long = CyclicWord([1, 2] * 7, T)
    with pytest.raises(BoundExceeded):
        iword(long, x)


def test_dictionary_matches_determinant():
    # slope_word with iword is an exact oracle for islope that shares no code
    # with it: crossings counted on the cutting-sequence words of the slopes
    for a in all_slopes(3):
        for b in all_slopes(3):
            wa, wb = slope_word(a), slope_word(b)
            assert iword(wa, wb, bound=16) == islope(a, b)


def test_oracle_agreement_random():
    rng = random.Random(2)
    for S, ne in ((T, 2), (S21, 4)):
        letters = [i for e in range(1, ne + 1) for i in (e, -e)]
        words = []
        while len(words) < 20:
            try:
                words.append(
                    CyclicWord([rng.choice(letters) for _ in range(rng.randint(1, 6))], S)
                )
            except Inessential:
                pass
        for u in words:
            for v in words:
                assert iword(u, v) == iword_oracle(u, v) == iword(v, u)


def test_islope_vanishes_iff_equal_and_twist_equivariance():
    rng = random.Random(5)
    slopes = all_slopes(3)
    for u in slopes:
        for v in slopes:
            assert (islope(u, v) == 0) == (u == v)
            assert islope(u, v) == islope(v, u)
    for _ in range(200):
        t = rng.choice(slopes)
        n = rng.randint(-3, 3)
        u, v = rng.choice(slopes), rng.choice(slopes)
        tu, tv = twist_slope(t, n, u), twist_slope(t, n, v)
        assert islope(tu, tv) == islope(u, v)


def test_slopes_order_by_p_then_q():
    assert Slope(0, 1) < Slope(1, -2) < Slope(1, 0) < Slope(1, 1) < Slope(2, -1)
    slopes = all_slopes(5)
    assert all(x < y for x, y in zip(slopes, slopes[1:]))
    assert [(s.p, s.q) for s in slopes] == sorted((s.p, s.q) for s in slopes)
