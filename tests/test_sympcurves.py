import copy
import gc
import json
import math
import pickle
import random
from itertools import product

import pytest

from cutsys import intlin
from cutsys.sympcurves import (
    HClass,
    SpaceMismatch,
    SympSpace,
    f2_is_cut,
    f2_pairing,
    f2_transvect,
    inter,
    is_cut_shadow,
    is_primitive_frame,
    pairing,
    solve_pairings,
    transvect,
)
from densevec import padded, pairing_vec, transvect_vec
from test_complexes import _parity_matrix

S2 = SympSpace(2)
S3 = SympSpace(3)
a1, b1 = S2.basis_a(1), S2.basis_b(1)
a2, b2 = S2.basis_a(2), S2.basis_b(2)


def test_pairing_defining_relations():
    assert pairing(a1, b1) == 1
    assert pairing(a1, a2) == 0
    assert pairing(b1, a1) == -1


def _padded_pairing(u, v):
    """The pairing as a zero-padded loop over the longer vector."""
    n = max(len(u), len(v))
    if n % 2:
        raise SpaceMismatch("odd-length coordinate vector")
    s = 0
    for i in range(0, n, 2):
        ua = u[i] if i < len(u) else 0
        ub = u[i + 1] if i + 1 < len(u) else 0
        va = v[i] if i < len(v) else 0
        vb = v[i + 1] if i + 1 < len(v) else 0
        s += ua * vb - ub * va
    return s


def test_pairing_vec_matches_padded_loop():
    rng = random.Random(11)
    for _ in range(400):
        lu, lv = 2 * rng.randint(0, 85), 2 * rng.randint(0, 85)
        if rng.random() < 0.2:  # an odd shorter vector still pairs in full
            lu, lv = min(lu, lv) - 1 if min(lu, lv) else 0, max(lu, lv)
        u = tuple(rng.randint(-5, 5) for _ in range(lu))
        v = tuple(rng.randint(-5, 5) for _ in range(lv))
        assert pairing_vec(u, v) == _padded_pairing(u, v) == -pairing_vec(v, u)
    for u, v in (((1, 2, 3), (1, 0)), ((1, 0), (1, 2, 3)), ((1,), ()), ((1, 2, 3), (4, 5, 6))):
        with pytest.raises(SpaceMismatch):
            pairing_vec(u, v)


def test_pairing_f2_bilinear_example():
    # (b1+b2, a1+a2) over F2: two unit terms cancel mod 2
    g = 2
    u = 0b1000 | 0b0010  # b1 + b2 as interleaved bitmask a1 b1 a2 b2
    v = 0b0100 | 0b0001
    # bit layout: index 0 = a1, 1 = b1, 2 = a2, 3 = b2
    u = (1 << 1) | (1 << 3)
    v = (1 << 0) | (1 << 2)
    assert f2_pairing(u, v, g) == 0


def test_f2_pairing_matches_parity_matrix_and_integer_pairing():
    # oracle: the signed integer pairing of the decoded 0/1 vectors, mod 2
    for g in (1, 2, 3):
        n = 1 << (2 * g)
        p = _parity_matrix(g)
        vec = [[(x >> i) & 1 for i in range(2 * g)] for x in range(n)]
        for u in range(n):
            for v in range(n):
                assert f2_pairing(u, v, g) == p[u, v] == pairing_vec(vec[u], vec[v]) % 2


def test_transvect_examples():
    assert transvect(a1, 1, b1) == HClass((1, 1))
    assert transvect(a1, 5, a2) == a2
    # over F2: (b1, 1, a1+a2) -> a1+a2+b1
    g = 2
    b1m = 1 << 1
    x = (1 << 0) | (1 << 2)
    assert f2_transvect(b1m, x, g) == x | b1m


def test_twist_identity_exact():
    rng = random.Random(4)
    for _ in range(300):
        u = tuple(rng.randint(-3, 3) for _ in range(6))
        v = tuple(rng.randint(-3, 3) for _ in range(6))
        w = tuple(rng.randint(-3, 3) for _ in range(6))
        for n in range(-5, 6):
            lhs = pairing_vec(transvect_vec(u, n, v), w)
            rhs = pairing_vec(v, w) + n * pairing_vec(u, v) * pairing_vec(u, w)
            assert lhs == rhs


def test_twist_inverse():
    rng = random.Random(5)
    for _ in range(100):
        coords = [rng.randint(-3, 3) for _ in range(6)]
        if not any(coords) or math.gcd(*coords) != 1:
            continue
        b = HClass(coords)
        for n in (-3, -1, 1, 2):
            assert transvect(a1, n, transvect(a1, -n, b)) == b


def test_shadow_inequality():
    rng = random.Random(6)
    for _ in range(200):
        vecs = []
        while len(vecs) < 3:
            c = [rng.randint(-3, 3) for _ in range(6)]
            if any(c) and math.gcd(*c) == 1:
                vecs.append(HClass(c))
        a, b, c = vecs
        for n in range(-5, 6):
            lhs = abs(inter(transvect(a, n, b), c) - abs(n) * inter(a, b) * inter(a, c))
            assert lhs <= inter(b, c)


def test_pairing_one_both_nonzero_mod2():
    rng = random.Random(7)
    for _ in range(200):
        c = [rng.randint(-3, 3) for _ in range(4)]
        d = [rng.randint(-3, 3) for _ in range(4)]
        if not any(c) or not any(d):
            continue
        if math.gcd(*c) != 1 or math.gcd(*d) != 1:
            continue
        u, v = HClass(c), HClass(d)
        if inter(u, v) == 1:
            assert any(x % 2 for x in u.coords)
            assert any(x % 2 for x in v.coords)


def test_canonical_form():
    assert HClass((-1, 2, 0, 0)) == HClass((1, -2))
    assert HClass((0, 0, 1, 0)).coords == (0, 0, 1, 0)
    with pytest.raises(ValueError):
        HClass((0, 0))
    with pytest.raises(ValueError):
        HClass((2, 4))


def test_cut_shadow_examples():
    assert is_cut_shadow([a1, a2])
    assert not is_cut_shadow([a1, b1])
    assert is_cut_shadow([a1, HClass((1, 0, 1, 0))])
    # non-primitive frame rejected even though pairwise orthogonal
    assert not is_cut_shadow([a1, HClass((1, 0, 2, 0))])


def test_cut_shadow_cache_keeps_duplicates_apart():
    assert is_cut_shadow([a1, a2])
    assert not is_cut_shadow([a1, a2, a1])
    assert is_cut_shadow([a1], extra=[a2])
    assert not is_cut_shadow([a1], extra=[a2, a2])


def test_cut_shadow_symplectic_completion_oracle():
    # [a1, a1+a2] extends to a symplectic basis of Z^4: explicit witness
    u = [1, 0, 0, 0]
    v = [1, 0, 1, 0]
    x = [0, 1, 0, -1]  # dual to u, orthogonal to v and y
    y = [0, 0, 0, 1]  # dual to v, orthogonal to u and x
    basis = [u, x, v, y]
    gram = [[pairing_vec(p, q) for q in basis] for p in basis]
    assert gram == [
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
    ]
    d = intlin.invariant_factors(basis)
    assert d == [1, 1, 1, 1]


def _padded_stack_is_primitive(classes):
    """The Smith test on the full padded stack: the oracle for is_primitive_frame."""
    g = max((c.g for c in classes), default=1)
    return intlin.is_primitive_stack([list(padded(c, g)) for c in classes])


def _sparse_class(rng, support):
    """A primitive class on a few of the support's coordinates, in the genus
    of the highest one."""
    while True:
        cols = rng.sample(support, rng.randint(1, min(3, len(support))))
        v = [0] * (2 * (max(cols) // 2 + 1))
        for j in cols:
            v[j] = rng.choice((-2, -1, 1, 1, 2, 3))
        if math.gcd(*v) == 1:
            return HClass(v)


def test_primitive_frame_over_supports_matches_the_padded_stack():
    rng = random.Random(1357)
    outcomes = {"free": [], "dependent": [], "imprimitive": []}
    for _ in range(400):
        g = rng.choice((2, 5, 20, 60, 82))
        support = rng.sample(range(2 * g), min(2 * g, rng.randint(2, 6)))
        # classes of mixed genus over a few shared coordinates
        classes = [_sparse_class(rng, support) for _ in range(rng.randint(1, 4))]
        mode = rng.choice(list(outcomes)) if len(classes) >= 2 else "free"
        if mode != "free":
            x, y = classes[0], classes[1]
            k = max(x.g, y.g)
            vec = [p + (1 if mode == "dependent" else 2) * q for p, q in zip(padded(x, k), padded(y, k))]
            if not any(vec) or math.gcd(*vec) != 1:
                continue
            if mode == "dependent":
                classes.append(HClass(vec))
            else:
                classes[1] = HClass(vec)
        rng.shuffle(classes)
        got = is_primitive_frame(classes)
        assert got == _padded_stack_is_primitive(classes), classes
        outcomes[mode].append(got)
    # x, x + 2y has every 2 x 2 minor even
    assert {k: set(v) for k, v in outcomes.items()} == {"free": {True, False}, "dependent": {False}, "imprimitive": {False}}
    assert min(map(len, outcomes.values())) > 50


def test_cut_shadow_invariances():
    rng = random.Random(8)
    frame = [a1, HClass((1, 0, 1, 0))]
    assert is_cut_shadow(frame)
    assert is_cut_shadow(list(reversed(frame)))
    pool = [a1, b1, a2, b2, HClass((1, 1, 0, 0)), HClass((0, 1, 1, 0))]
    for _ in range(30):
        imgs = list(frame)
        for _ in range(rng.randint(1, 4)):
            t = pool[rng.randrange(len(pool))]
            n = rng.choice((-2, -1, 1, 2))
            imgs = [transvect(t, n, c) for c in imgs]
        assert is_cut_shadow(imgs)


def test_solve_pairings_examples():
    # exhaustive search over F2^4 lifts: mod-2 pairing 1 with both a1 and a2
    sols = []
    for bits in product((0, 1), repeat=4):
        mask = sum(b << i for i, b in enumerate(bits))
        if mask == 0:
            continue
        if f2_pairing(mask, 1 << 0, 2) == 1 and f2_pairing(mask, 1 << 2, 2) == 1:
            sols.append(bits)
    assert (0, 1, 0, 1) in sols  # b1 + b2
    got = solve_pairings(S2, [(a1, 1), (a2, 1)])
    assert got == HClass((0, 1, 0, 1))
    assert inter(got, a1) == 1 and inter(got, a2) == 1

    assert solve_pairings(SympSpace(1), [(HClass((1, 0)), 0), (HClass((0, 1)), 0)]) is None

    any_dual = solve_pairings(S2, [(a1, 1)])
    assert any_dual is not None and inter(any_dual, a1) == 1


def test_solve_rows_are_the_dense_pairing_rows(monkeypatch):
    # each row r has r . x = <u, x> at width 2g, as the rows built from the
    # padded dense vectors had: the Smith form sees the same input
    seen = []
    solve = intlin.solve_integer
    monkeypatch.setattr(intlin, "solve_integer", lambda rows, rhs: seen.append(rows) or solve(rows, rhs))
    rng = random.Random(27)
    for _ in range(200):
        g = rng.randint(1, 6)
        classes = [_sparse_class(rng, range(2 * rng.randint(1, g))) for _ in range(rng.randint(1, 4))]
        cut = rng.randint(0, len(classes))
        solve_pairings(SympSpace(g), [(c, rng.randint(-1, 1)) for c in classes[:cut]], orthogonal=classes[cut:])
        units = [tuple(int(i == j) for j in range(2 * g)) for i in range(2 * g)]
        assert seen.pop() == [[pairing_vec(padded(c, g), e) for e in units] for c in classes]
    with pytest.raises(SpaceMismatch, match="class needs genus 3, space has 2"):
        solve_pairings(S2, [(S3.basis_b(3), 1)])


def test_f2_is_cut_counts():
    g = 2
    curves = [u for u in range(1, 16)]
    singles = [u for u in curves if f2_is_cut([u], g)]
    assert len(singles) == 15
    pairs = [
        (u, v)
        for i, u in enumerate(curves)
        for v in curves[i + 1 :]
        if f2_is_cut([u, v], g)
    ]
    assert len(pairs) == 45


# --- interning ---------------------------------------------------------------


def test_to_json_is_the_sparse_entry_and_from_json_its_inverse():
    rng = random.Random(2727)
    for _ in range(300):
        c = _sparse_class(rng, rng.sample(range(200), 4))
        e = c.to_json()
        assert e == [c.g, [[i, x] for i, x in enumerate(c.coords) if x]]
        assert HClass.from_json(json.loads(json.dumps(e))) is c
    assert b2.to_json() == [2, [[3, 1]]]


def test_equal_classes_are_one_object():
    from cutsys import homotopy as H
    from cutsys import walks
    from cutsys.sympcurves import combine
    from cutsys.universe import make_universe

    x = HClass((1, 1, 0, 0))
    assert HClass([-1, -1, 0, 0, 0, 0]) is x  # canonical sign, trailing handles dropped
    assert HClass._make(((0, 1), (1, 1))) is x  # _make takes the canonical support
    assert transvect(a1, 1, b1) is x and combine(a1, 1, b1) is x
    assert S3.basis_a(2) is a2 and SympSpace(7).basis_b(1) is b1 is HClass((0, 1))
    u = make_universe("sympZ", g=3)
    loop = walks.random_closed_walk(u, 3, 2, random.Random(3), steps=3)
    cert = H.HomotopyCertificate(H.contract(H.Prover(u), loop))
    back = H.HomotopyCertificate.from_json(json.loads(json.dumps(cert.to_json())))
    for s, t in zip(back.steps, cert.steps):
        assert all(c is d for v, w in zip(s.old + s.new, t.old + t.new) for c, d in zip(v, w))
    again = H.loop_from_json(json.loads(json.dumps(H.loop_to_json(loop))))
    assert all(c is d for v, w in zip(again, loop) for c, d in zip(v, w))


def test_class_order_is_the_dense_order():
    rng = random.Random(5)
    classes = []
    while len(classes) < 500:
        coords = [rng.randint(-3, 3) for _ in range(2 * rng.randint(1, 4))]
        if any(coords) and math.gcd(*coords) == 1:
            classes.append(HClass(coords))
    dense = sorted({c.coords for c in classes}, key=lambda t: (len(t), t))
    assert [c.coords for c in sorted(set(classes))] == dense
    assert len(dense) > 400


def test_copies_and_pickles_are_the_interned_object():
    x = HClass((2, 1, 0, -1))
    assert copy.copy(x) is x and copy.deepcopy(x) is x
    assert copy.deepcopy(((x, a1),)) == ((x, a1),)
    assert pickle.loads(pickle.dumps(x)) is x
    assert pickle.loads(pickle.dumps([x, b2])) == [x, b2]


def test_unreferenced_class_leaves_the_table():
    key = HClass((0,) * 40 + (3, 7)).support  # no other reference to this class
    gc.collect()
    assert key not in HClass._live
    x = HClass.of_support(key)
    assert HClass._live[key] is x


# --- the sparse arithmetic against the dense vectors -------------------------------


def _dense_vec(rng, g, support):
    """A primitive vector of length 2g, nonzero on a few coordinates of the
    support and on the last handle, so its class has genus g."""
    while True:
        v = [0] * (2 * g)
        inside = [j for j in support if j < 2 * g]
        for j in rng.sample(inside, min(len(inside), rng.randint(0, 4))) + [2 * g - 1 - rng.randint(0, 1)]:
            v[j] = rng.choice((-3, -2, -1, 1, 1, 2, 3))
        if math.gcd(*v) == 1:
            return tuple(v)


def _dense_sum(*terms):
    n = max(len(v) for _, v in terms)
    return tuple(sum(k * (v[i] if i < len(v) else 0) for k, v in terms) for i in range(n))


def _class_or_error(make):
    """The class that make() or HClass(make) gives, or ValueError."""
    try:
        return make() if callable(make) else HClass(make)
    except ValueError:
        return ValueError


def test_sparse_arithmetic_matches_the_dense_oracle():
    from cutsys.sympcurves import combine, lincomb

    rng = random.Random(2525)
    outcomes = {"pairing": set(), "combine": set(), "frame": set()}
    seen = []
    for _ in range(300):
        # mixed genera up to 100 over a few shared coordinates, so classes meet
        support = rng.sample(range(8), 3) + rng.sample(range(8, 200), 3)
        vecs = [_dense_vec(rng, rng.choice((1, 2, 5, 40, 82, 100)), support) for _ in range(3)]
        x, y, z = map(HClass, vecs)
        seen += (x, y, z)
        for c, v in zip((x, y, z), vecs):
            assert c.coords in (v, tuple(-t for t in v)) and c.g == len(v) // 2
            assert c.support == tuple((i, t) for i, t in enumerate(c.coords) if t)
            assert HClass(tuple(-t for t in v) + (0, 0) * rng.randint(0, 3)) is c is HClass.of_support(c.support)
            assert pickle.loads(pickle.dumps(c)) is c
        assert pairing(x, y) == pairing_vec(x.coords, y.coords) == -pairing(y, x)
        outcomes["pairing"].add(pairing(x, y) != 0)
        n = rng.choice((-2, -1, 1, 2))
        assert transvect(x, n, y) is HClass(transvect_vec(x.coords, n, y.coords))
        s = rng.choice((-1, 1, 2))
        want = _class_or_error(_dense_sum((1, x.coords), (s, y.coords)))
        assert _class_or_error(lambda: combine(x, s, y)) is want
        outcomes["combine"].add(want is ValueError)
        k, m = rng.randint(-2, 2), rng.randint(-2, 2)
        want = _class_or_error(_dense_sum((1, x.coords), (k, y.coords), (m, z.coords)))
        assert _class_or_error(lambda: lincomb((1, x), (k, y), (m, z))) is want
        frame = [x, y, z][: rng.randint(1, 3)]
        if len(frame) > 1 and rng.random() < 0.3:
            frame.append(combine(frame[0], 1, frame[1]) if want is ValueError else want)
        got = is_primitive_frame(frame)
        assert got == _padded_stack_is_primitive(frame), frame
        outcomes["frame"].add(got)
    assert outcomes == {"pairing": {True, False}, "combine": {True, False}, "frame": {True, False}}
    # the order: genus first, then the dense coordinates
    for x, y in zip(seen, seen[1:] + seen[:1]):
        assert (x < y) == ((len(x.coords), x.coords) < (len(y.coords), y.coords))
    dense = sorted({c.coords for c in seen}, key=lambda t: (len(t), t))
    assert [c.coords for c in sorted(set(seen))] == dense
