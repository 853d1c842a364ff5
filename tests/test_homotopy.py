import functools
import json
import random
import re
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cutsys import complexes as cx
from cutsys import homotopy as H
from cutsys import walks
from cutsys.geomcurves import Slope
from cutsys.sympcurves import HClass, SympSpace, combine
from cutsys.universe import SympZUniverse, make_universe

S2, S3 = SympSpace(2), SympSpace(3)
a1, b1, a2, b2 = S2.basis_a(1), S2.basis_b(1), S2.basis_a(2), S2.basis_b(2)


def zu(g):
    return make_universe("sympZ", g=g)


def _cert(steps):
    return H.HomotopyCertificate(H.flatten(steps))


# --- radius and segments -----------------------------------------------------


def test_radius_examples():
    u = zu(2)
    path = ((a1,), (b1,), (HClass((1, 1, 0, 0)),))
    assert H.radius(u, path, a1) == 1
    seg = ((a1, a2), (a1, b2))
    assert H.radius(u, seg, a1) == 0
    heavy = HClass((1, 2, 0, 0))  # pairs 2 with a1
    deep = ((a1,), (heavy,))
    # a vertex whose only curve meets the reference twice pushes radius to 2
    assert H.radius(u, ((a1,), (heavy,)), a1) == 2
    with pytest.raises(H.InvalidReference):
        H.radius(u, ((a1,),), b2)


def test_radius_reversal_invariance():
    u = zu(2)
    loop = ((a1,), (b1,), (HClass((1, 1, 0, 0)),), (a1,))
    rev = tuple(reversed(loop))
    assert H.radius(u, loop, a1) == H.radius(u, rev, a1)


def segment_decomposition(loop, a0):
    """Greedy maximal segments from index 0; ties to the least eligible curve.

    Returns [(curve, start, end)] covering the closed path, consecutive
    entries overlapping in one vertex.  The prover tests use the segment count
    as their measure of progress.
    """
    n = len(loop) - 1
    if a0 not in loop[0]:
        raise H.InvalidReference("decomposition starts at a vertex containing the curve")
    segs = []
    start, cur = 0, a0
    while start < n:
        end = H._maximal_run(loop, cur, start)
        segs.append((cur, start, end))
        if end == n:
            break
        if end == start and cur not in loop[end]:
            raise H.InvalidReference("segment curve missing from its own segment")
        shared = [c for c in loop[end] if c in loop[end + 1] and c != cur]
        if not shared:
            raise H.NotApplicable("consecutive vertices share no curve")
        cur = min(shared)
        start = end
    return segs


# --- bounded paths -------------------------------------------------------------


def test_path_common_direct_move():
    u = zu(2)
    p = H.Prover(u)
    v = tuple(sorted((a1, a2)))
    w = tuple(sorted((b1, a2)))
    assert H.path_common(p, v, w) == [v, w]


def test_path_common_length_two():
    u = zu(2)
    p = H.Prover(u)
    path = H.path_common(p, (a1,), (a2,))
    assert len(path) == 3
    mid = path[1][0]
    assert u.inter(mid, a1) == 1 and u.inter(mid, a2) == 1


def test_path_common_bound_random():
    rng = random.Random(10)
    for trial in range(60):
        g = rng.choice((2, 3, 4))
        k = rng.choice((1, 2, 3))
        if k > g - 1:
            continue
        u = zu(g)
        p = H.Prover(u)
        S = SympSpace(g)
        common = tuple(S.basis_a(i) for i in range(2, k + 1))
        a = S.basis_a(1)
        b = u.solve([(a, rng.choice((1, 2, 0)))] + [(c, 0) for c in common])
        if b is None or b == a or not u.cut_ok(common + (b,)):
            continue
        v = tuple(sorted(common + (a,)))
        w = tuple(sorted(common + (b,)))
        path = H.path_common(p, v, w)
        assert len(path) - 1 <= 4
        assert path[0] == v and path[-1] == w
        assert H.check_path(u, path)
        for vv in path[1:-1]:
            assert all(c in vv for c in common)


def test_connect_identity_and_bounds():
    u = zu(3)
    p = H.Prover(u)
    v = tuple(sorted((S3.basis_a(1), S3.basis_a(2))))
    assert H.connect(p, v, v) == [v]
    w = tuple(sorted((S3.basis_b(1), S3.basis_b(2))))
    path = H.connect(p, v, w)
    assert path[0] == v and path[-1] == w
    assert H.check_path(u, path)
    assert len(path) - 1 <= 8 * 2 - 4
    assert len(path) - 1 >= 2  # all four curves distinct


# --- squares and radius-1 -------------------------------------------------------


def test_contract_square_spec_example():
    u = zu(2)
    x2, x3 = HClass((1, 0, 1, 0)), HClass((0, 1, 1, 0))
    loop = ((a1,), (b1,), (x2,), (x3,), (a1,))
    steps = H.contract_square(u, loop)
    ok, idx = H.verify_certificate(u, loop, _cert(steps))
    assert ok, idx
    # diagonal already disjoint: no twist-reduction steps, just four triangles
    assert sum(1 for s in steps if s.op == H.CELL_FILL) == 4
    center = steps[0].new[1][0]
    assert all(u.inter(center, c) == 1 for c in (a1, b1, x2, x3))


def test_contract_square_with_reduction():
    u = zu(2)
    # make the (0,2)-diagonal meet: x2' = T_{b1}^2(a1) + ...: build explicitly
    x1 = b1
    x2 = HClass((1, 2, 1, 0))
    x3 = HClass((0, 1, 1, 0))
    loop = ((a1,), (x1,), (x2,), (x3,), (a1,))
    if H.check_path(u, loop, closed=True) and u.inter(x1, x3) == 0:
        steps = H.contract_square(u, loop)
        ok, idx = H.verify_certificate(u, loop, _cert(steps))
        assert ok, idx


def test_contract_square_not_applicable_on_slopes():
    us = make_universe("slope", bound=2)
    q = [Slope(1, 0), Slope(0, 1), Slope(1, 1), Slope(1, 2)]
    loop = tuple((s,) for s in q) + ((q[0],),)
    with pytest.raises(H.NotApplicable):
        H.contract_square(us, loop)


# --- escorts and the hexagon ----------------------------------------------------


def test_escort_triple_postconditions():
    u = zu(2)
    p = H.Prover(u)
    loop_curves = [a1, b1, HClass((1, 1, 0, 0))]
    b0, b1e, b2e = H.escort_triple(p, loop_curves)
    assert all(u.inter(b2e, c) == 0 for c in loop_curves)
    assert u.inter(b2e, b0) == 1 and u.inter(b2e, b1e) == 1
    assert u.inter(b0, loop_curves[0]) == 1
    assert u.inter(b1e, loop_curves[1]) == 1


def test_hex_escorts_spec_example():
    u = zu(2)
    p = H.Prover(u)
    trip = (a1, a2, HClass((1, 0, 1, 0)))
    (c0, c1, c2), hexagon, cert = H.hex_escorts(p, *trip)
    # all nine pattern pairings
    bs = (c0, c1, c2)
    for i in range(3):
        assert u.inter(trip[i], bs[i]) == 1
        assert u.inter(trip[(i + 1) % 3], bs[i]) == 1
        assert u.inter(trip[(i + 2) % 3], bs[i]) == 0
    assert u.inter(c0, c1) == 0 and u.inter(c0, c2) == 0 and u.inter(c1, c2) == 0
    ok, idx = H.verify_certificate(u, hexagon, cert)
    assert ok, idx
    kinds = sorted(s.kind for s in cert.steps if s.op == H.CELL_FILL)
    assert kinds == ["pentagon", "rectangle", "rectangle", "triangle", "triangle", "triangle"]


def test_hex_escorts_rejects_independent_triple():
    u = zu(3)
    p = H.Prover(u)
    with pytest.raises(H.NotApplicable):
        H.hex_escorts(p, S3.basis_a(1), S3.basis_a(2), S3.basis_a(3))


def test_hex_escorts_rejects_meeting_curves():
    u = zu(2)
    p = H.Prover(u)
    with pytest.raises(H.NotApplicable):
        H.hex_escorts(p, a1, b1, a2)


def test_hex_escorts_random_triples():
    rng = random.Random(11)
    done = 0
    while done < 15:
        g = rng.choice((2, 3))
        u = zu(g)
        p = H.Prover(u)
        S = SympSpace(g)
        x, y = S.basis_a(1), S.basis_a(2)
        z = combine(x, 1, y)
        # twist the triple around to vary it, preserving the hypotheses
        pool = [S.basis_a(i) for i in range(1, g + 1)] + [
            S.basis_b(i) for i in range(1, g + 1)
        ]
        trip = [x, y, z]
        for _ in range(rng.randint(0, 4)):
            t = pool[rng.randrange(len(pool))]
            n = rng.choice((-1, 1))
            trip = [u.twist(t, n, c) for c in trip]
        try:
            (c0, c1, c2), hexagon, cert = H.hex_escorts(p, *trip)
        except H.NotApplicable:
            continue
        bs = (c0, c1, c2)
        for i in range(3):
            assert u.inter(trip[i], bs[i]) == 1
            assert u.inter(trip[(i + 1) % 3], bs[i]) == 1
            assert u.inter(trip[(i + 2) % 3], bs[i]) == 0
        assert H.verify_certificate(u, hexagon, cert)[0]
        done += 1


# --- radius-0 and the master contraction ------------------------------------------


def test_sp_radius0_two_segment_loop():
    u = zu(3)
    p = H.Prover(u)
    S = SympSpace(3)
    c, x, y = S.basis_a(1), S.basis_a(2), S.basis_b(2)
    # a c-segment loop: x and y swap back and forth
    loop = (
        tuple(sorted((c, x))),
        tuple(sorted((c, y))),
        tuple(sorted((c, x))),
    )
    steps = H.flatten(H.sp_radius0(p, loop, c))
    assert H.verify_certificate(u, loop, _cert(steps))[0]


def test_contract_radius0_trivial_k1():
    u = zu(2)
    p = H.Prover(u)
    loop = ((a1,),)
    assert H.flatten(H.contract_radius0(p, loop, a1)) == []


def test_contract_cell_fast_path():
    u = zu(2)
    x = HClass((1, 1, 0, 0))
    tri = ((a1,), (b1,), (x,), (a1,))
    p = H.Prover(u)
    steps = H.contract(p, tri)
    fills = [s for s in steps if s.op == H.CELL_FILL]
    assert len(fills) == 1 and fills[0].kind == "triangle"
    assert H.verify_certificate(u, tri, _cert(steps))[0]


def test_contract_gamma1_loop(monkeypatch):
    u = zu(2)
    p = H.Prover(u)
    w = [a1, b1, HClass((1, 1, 0, 0)), HClass((2, 1, 0, 0))]
    # <z, a1 + b1> = <z, a1> + <z, b1> is even when z meets a1 and b1 once:
    # no center, so the escort route contracts the loop
    assert not H._f2_center_possible(w, ())
    monkeypatch.setattr(H, "_fan_center", lambda *a: None)
    loop = tuple((c,) for c in w) + ((a1,),)
    steps = H.contract(p, loop)
    ok, idx = H.verify_certificate(u, loop, _cert(steps))
    assert ok, idx


def test_contract_gamma1_fans_over_one_center():
    # x_i = a2 + y_i for the square y = a1, b1, -a1, -b1: every x_i meets b2 once
    u = zu(2)
    w = [HClass((1, 0, 1, 0)), HClass((0, 1, 1, 0)), HClass((-1, 0, 1, 0)), HClass((0, -1, 1, 0))]
    loop = tuple((c,) for c in w) + ((w[0],),)
    steps = H.contract(H.Prover(u), loop)
    assert [s.op for s in steps] == [H.BT_INSERT] + [H.CELL_FILL] * 4 + [H.BT_REMOVE]
    assert all(s.kind == "triangle" for s in steps[1:-1])
    (z,) = steps[0].new[1]
    assert all(u.inter(z, x) == 1 for x in w)
    assert u.room.used == 2  # the unbumped center is a cut system: no handle drawn
    assert H.verify_certificate(u, loop, _cert(steps)) == (True, None)


def test_kindless_fill_fails_at_its_step():
    u = zu(2)
    tri = ((a1,), (b1,), (HClass((1, 1, 0, 0)),), (a1,))
    fill, remove = H.contract(H.Prover(u), tri)
    assert H.verify_certificate(u, tri, [fill, remove]) == (True, None)
    for kind in ({}, {"kind": ""}, {"kind": "hexagon"}):
        bare = H.Step(fill.op, fill.at, fill.old, fill.new, **kind)
        assert H.verify_certificate(u, tri, [bare, remove]) == (False, 0)


def test_contract_radius0_random_multisegment():
    rng = random.Random(12)
    done = 0
    while done < 6:
        g = 5
        u = zu(g)
        p = H.Prover(u)
        loop = walks.random_closed_walk(u, g, 2, rng, steps=5)
        if loop is None:
            continue
        steps = H.contract(p, loop)
        ok, idx = H.verify_certificate(u, loop, _cert(steps))
        assert ok, idx
        done += 1


def test_contract_termination_measure():
    rng = random.Random(13)
    u = zu(4)
    p = H.Prover(u)
    loop = walks.random_closed_walk(u, 4, 2, rng, steps=4)
    assert loop is not None
    steps = H.contract(p, loop)
    assert H.verify_certificate(u, loop, _cert(steps))[0]


def test_verify_rejects_tampering():
    u = zu(2)
    x = HClass((1, 1, 0, 0))
    tri = ((a1,), (b1,), (x,), (a1,))
    p = H.Prover(u)
    steps = H.contract(p, tri)
    # corrupt the fill's replacement window
    bad = list(steps)
    s = bad[0]
    bad[0] = H.Step(s.op, s.at, s.old, ((a1,), (a2,)), s.kind)
    ok, idx = H.verify_certificate(u, tri, _cert(bad))
    assert not ok and idx == 0
    # delete a step: replay desynchronizes
    ok, idx = H.verify_certificate(u, tri, _cert(steps[1:]))
    assert not ok
    # a spike out to an empty vertex is no cut system: a failing step, not a raise
    spike = H.Step(H.BT_INSERT, 0, (tri[0],), (tri[0], (), tri[0]))
    assert H.verify_certificate(u, tri, _cert([spike] + steps)) == (False, 0)


def test_verify_rejects_loop_that_is_not_a_path():
    u = zu(2)
    a, mid = (a1, a2), (a1, HClass((0, 1, 0, 1)))  # b1 + b2 meets a1: no cut system
    loop = (a, mid, a)
    steps = [H.Step(H.BT_REMOVE, 0, loop, (a,))]
    assert not u.cut_ok(mid)
    assert H.verify_certificate(u, loop, _cert(steps)) == (False, -1)
    assert H.verify_certificate(u, (a, (), a), _cert(steps)) == (False, -1)


def test_certificate_json_roundtrip():
    u = zu(2)
    x = HClass((1, 1, 0, 0))
    tri = ((a1,), (b1,), (x,), (a1,))
    p = H.Prover(u)
    cert = _cert(H.contract(p, tri))
    blob = cert.to_json()
    back = H.HomotopyCertificate.from_json(blob)
    assert back.steps == cert.steps
    assert H.verify_certificate(u, tri, back)[0]


def test_rotation_wrapper():
    u = zu(2)
    x = HClass((1, 1, 0, 0))
    loop = ((b1,), (x,), (a1,), (b1,))  # triangle based elsewhere
    steps = H.flatten(H.contract_rebased(loop, 2, lambda vs: H.contract(H.Prover(u), vs)))
    assert H.verify_certificate(u, loop, _cert(steps))[0]


def test_termination_trace_segment_counts_decrease(monkeypatch):
    # at k = 2 every radius-0 reduction strictly shrinks the decomposition
    rng = random.Random(99)
    u = zu(4)
    p = H.Prover(u)
    loop = walks.random_closed_walk(u, 4, 2, rng, steps=5)
    assert loop is not None
    b = p.fresh_pair()[0]
    k = len(loop[0])
    v0, v1 = loop[0], loop[1]
    shared = sorted(set(v0) & set(v1))[0]
    w0 = p.fresh_fill([b, shared], k - 2)
    s1 = H.segment_connect(p, v0, w0, (shared,))
    s2 = H.segment_connect(p, w0, v1, (shared,))
    y = s1[:-1] + s2
    rw = H.PathRewriter(loop)
    rw.replace(0, 1, y, lambda l: H.sp_radius0(p, l, shared))
    trace = []
    based = H._radius0_based

    def traced(prover, vertices, a0, *rest):
        trace.append((len(vertices[0]), len(segment_decomposition(vertices, a0))))
        return based(prover, vertices, a0, *rest)

    monkeypatch.setattr(H, "_radius0_based", traced)
    steps = H.flatten(H.contract_radius0(p, tuple(rw.path), b))
    rw.apply_steps(steps)
    ok, idx = H.verify_certificate(u, loop, _cert(rw.parts))
    assert ok, idx
    top = [segs for kk, segs in trace if kk == 2]
    assert all(a > b2 for a, b2 in zip(top, top[1:])), top


def test_contract_word_triangle_fast_path():
    # a triangle over a universe with no solve (here the slope universe):
    # contract must fill the triangle cell itself
    us = make_universe("slope")
    x, y, xy = Slope(1, 0), Slope(0, 1), Slope(1, 1)
    tri = ((x,), (y,), (xy,), (x,))
    p = H.Prover(us)
    steps = H.contract(p, tri)
    assert H.verify_certificate(us, tri, _cert(steps)) == (True, None)


def build_curve_graph(universe):
    """The curve complex as a disjointness graph (reporting only, no cells)."""
    vertices = [(c,) for c in universe.all_curves()]
    edges = [(v, w) for v, w in combinations(vertices, 2) if universe.inter(v[0], w[0]) == 0]
    return cx.ComplexGraph(universe, 1, vertices, edges, [], tag=f"{universe.tag}-curves")


def test_curve_graph_reporting():
    u = make_universe("sympF2", g=2)
    cg = build_curve_graph(u)
    assert len(cg.vertices) == 15
    assert not cg.cells
    # disjointness degrees: each nonzero vector has 6 orthogonal companions
    assert {cg.degree(v) for v in cg.vertices} == {6}


def test_contract_radius0_rejects_nonzero_radius():
    u = zu(2)
    p = H.Prover(u)
    x = HClass((1, 1, 0, 0))
    tri = ((a1,), (b1,), (x,), (a1,))  # radius 1 about a1, not 0
    with pytest.raises(H.NotApplicable):
        H.contract_radius0(p, tri, a1)


def test_two_segment_radius0_loop():
    u = zu(3)
    p = H.Prover(u)
    S = SympSpace(3)
    A1, A2, B1, B2 = S.basis_a(1), S.basis_a(2), S.basis_b(1), S.basis_b(2)
    v0 = tuple(sorted((A1, A2)))
    s1mid = tuple(sorted((A1, B2)))
    s1far = tuple(sorted((A1, HClass((0, 0, 1, 1, 0, 0)))))
    s2mid = tuple(sorted((A2, B1)))
    s2far = tuple(sorted((A2, HClass((1, 1, 0, 0, 0, 0)))))
    loop = (v0, s1mid, s1far, v0, s2mid, s2far, v0)
    assert H.check_path(u, loop, closed=True)
    assert H.radius(u, loop, A1) == 0
    assert segment_decomposition(loop, A1) == [(A1, 0, 3), (A2, 3, 6)]
    steps = H.flatten(H.contract_radius0(p, loop, A1))
    ok, idx = H.verify_certificate(u, loop, _cert(steps))
    assert ok, idx


def test_case2_hexagon_route_full_loop():
    # the disjoint candidate sits inside the junction vertex, so the segment
    # reduction rides the hexagon bypass
    u = zu(3)
    S = SympSpace(3)
    A1, A2, A3 = S.basis_a(1), S.basis_a(2), S.basis_a(3)
    B1, B3 = S.basis_b(1), S.basis_b(3)
    a13 = HClass((1, 0, 0, 0, 1, 0))
    z = HClass((0, 1, 0, 1, 0, -1))
    y = HClass((0, 1, 0, 0, 0, 1))
    V = lambda *cs: tuple(sorted(cs))
    loop = (V(A1, A2), V(B1, A2), V(a13, A2), V(a13, z), V(B3, z),
            V(B3, A2), V(A3, A2), V(y, A2), V(A1, A2))
    assert H.check_path(u, loop, closed=True)
    assert H.radius(u, loop, A1) == 0
    p = H.Prover(u)
    steps = H.flatten(H.contract_radius0(p, loop, A1))
    ok, idx = H.verify_certificate(u, loop, _cert(steps))
    assert ok, idx
    kinds = {s.kind for s in steps if s.op == H.CELL_FILL}
    assert "pentagon" in kinds  # the hexagon certificate was spliced in


def test_separating_shadow_trap_recenters():
    # orthogonal pair with imprimitive span at the junction: no geometric
    # counterpart, the engine must dodge by recentering
    u = zu(3)
    S = SympSpace(3)
    A1, A3 = S.basis_a(1), S.basis_a(3)
    B1, B3 = S.basis_b(1), S.basis_b(3)
    a2c = HClass((1, 0, 2, 0, 0, 0))
    a3c = HClass((0, 0, 1, 0, 1, 0))
    z = HClass((0, 2, 0, -1, 0, 1))
    w6 = HClass((0, 0, 1, 0, 0, 1))
    V = lambda *cs: tuple(sorted(cs))
    loop = (V(A1, a3c), V(A1, B3), V(A1, A3), V(B1, A3), V(a2c, A3),
            V(a2c, z), V(a2c, w6), V(a2c, a3c), V(a3c, B1), V(A1, a3c))
    assert H.check_path(u, loop, closed=True)
    assert H.radius(u, loop, A1) == 0
    assert not H._stack_primitive(H.Prover(u), (A1, a2c))
    p = H.Prover(u)
    steps = H.flatten(H.contract_radius0(p, loop, A1))
    ok, idx = H.verify_certificate(u, loop, _cert(steps))
    assert ok, idx


def test_merge_when_next_segment_returns_to_center():
    u = zu(2)
    S = SympSpace(2)
    A1, A2, B1, B2 = S.basis_a(1), S.basis_a(2), S.basis_b(1), S.basis_b(2)
    ab = HClass((1, 1, 0, 0))
    V = lambda *cs: tuple(sorted(cs))
    loop = (V(A1, A2), V(B1, A2), V(ab, A2), V(A1, A2),
            V(A1, B2), V(B1, B2), V(B1, A2), V(A1, A2))
    assert H.check_path(u, loop, closed=True)
    assert H.radius(u, loop, A1) == 0
    p = H.Prover(u)
    steps = H.flatten(H.contract_radius0(p, loop, A1))
    ok, idx = H.verify_certificate(u, loop, _cert(steps))
    assert ok, idx


def test_case2_merge_worker_k3():
    # at k >= 3 with a non-separating triple, the worker merges through a
    # common vertex; every emitted step passes the step checker on replay
    u = zu(4)
    S = SympSpace(4)
    A1, A2, A3, A4 = (S.basis_a(i) for i in range(1, 5))
    B1, B3 = S.basis_b(1), S.basis_b(3)
    a13 = HClass((1, 0, 0, 0, 1, 0, 0, 0))
    V = lambda *cs: tuple(sorted(cs))
    seg2 = [V(A1, A2, A4), V(B1, A2, A4), V(a13, A2, A4), V(B3, A2, A4), V(A3, A2, A4)]
    assert H.check_path(u, seg2)
    p = H.Prover(u)
    rw = H.PathRewriter(seg2)
    H._case2(p, rw, A1, A2, A3, 0, len(seg2) - 1)
    path = list(seg2)
    for s in H.flatten(rw.parts):
        H.apply_step(u, path, s)
    assert path == rw.path
    assert rw.path[0] == seg2[0] and rw.path[-1] == seg2[-1]
    assert all(A1 in v or A3 in v for v in rw.path)


def test_contract_eight_step_walk_g4_k2():
    rng = random.Random(4242)
    u = zu(4)
    loop = walks.random_closed_walk(u, 4, 2, rng, steps=8, max_len=24)
    assert loop is not None
    p = H.Prover(u)
    steps = H.contract(p, loop)
    ok, idx = H.verify_certificate(u, loop, _cert(steps))
    assert ok, idx


# --- the step checker ------------------------------------------------------------


def _k3_loop(steps=2):
    """A fixed k=3 loop at g=3: 7 edges and 37 fills, or 13 edges and 309
    fills at steps=8."""
    u = zu(3)
    loop = walks.random_closed_walk(u, 3, 3, random.Random(1), steps=steps)
    assert loop is not None
    return u, loop


def _corrupt_first_lift(monkeypatch):
    """Make the first lifted step batch claim the wrong kind for one fill."""
    lift = H._lift_steps
    done = []

    def corrupt(steps, c):
        out = H.flatten(lift(steps, c))
        fills = [i for i, s in enumerate(out) if s.op == H.CELL_FILL]
        if fills and not done:
            s = out[fills[0]]
            wrong = "pentagon" if s.kind == "triangle" else "triangle"
            out[fills[0]] = H.Step(s.op, s.at, s.old, s.new, wrong)
            done.append(True)
        return out

    monkeypatch.setattr(H, "_lift_steps", corrupt)


def test_contract_checks_each_fill_once(monkeypatch):
    u, loop = _k3_loop(steps=8)
    calls = []
    apply = H.apply_step
    monkeypatch.setattr(H, "apply_step", lambda *a: calls.append(1) or apply(*a))
    steps = H.contract(H.Prover(u), loop)
    assert sum(s.op == H.CELL_FILL for s in steps) > 100
    # the prover checks nothing; the verifier checks each step once
    assert calls == []
    assert H.verify_certificate(u, loop, _cert(steps))[0]
    assert len(calls) == len(steps)


def test_contract_rejects_corrupted_inner_step(monkeypatch):
    u, loop = _k3_loop()
    _corrupt_first_lift(monkeypatch)
    steps = H.contract(H.Prover(u), loop)
    ok, idx = H.verify_certificate(u, loop, _cert(steps))
    assert not ok and steps[idx].op == H.CELL_FILL


# --- composed steps ------------------------------------------------------------


def _criterion6_loops(n=104):
    """The first n loops of the criterion-6 sequence, as (g, k, universe, loop)."""
    rng = random.Random(606)
    out = []
    while len(out) < n:
        g = rng.choice((2, 3, 4, 5))
        k = min(rng.choice((1, 2, 3)), max(1, g - 1))
        u = zu(g)
        loop = walks.random_closed_walk(u, g, k, rng, steps=rng.randint(2, 6))
        if loop is not None:
            out.append((g, k, u, loop))
    return out


# the eager shift, lift and inversion the prover once applied at every level
def _shifted(s, delta):
    return H.Step(s.op, s.at + delta, s.old, s.new, s.kind)


def _inverted(s):
    op = {H.CELL_FILL: H.CELL_FILL, H.BT_INSERT: H.BT_REMOVE, H.BT_REMOVE: H.BT_INSERT}[s.op]
    return H.Step(op, s.at, s.new, s.old, s.kind)


def _lifted(steps, c):
    def lift(v):
        return tuple(sorted(v + (c,)))

    return [H.Step(s.op, s.at, tuple(map(lift, s.old)), tuple(map(lift, s.new)), s.kind) for s in steps]


def _eager(t):
    """Composed steps flattened one level at a time by the eager operations."""
    if isinstance(t, H.Steps):
        steps = _eager(t.parts)
        for c in t.lift:
            steps = _lifted(steps, c)
        steps = [_shifted(s, t.offset) for s in steps]
        return [_inverted(s) for s in reversed(steps)] if t.inverted else steps
    if isinstance(t, list):
        return [s for p in t for s in _eager(p)]
    return [t]


def test_flatten_matches_eager_composition_on_nested_views():
    u, loop = _k3_loop()
    steps = H.contract(H.Prover(u), loop)
    a7, b8 = SympSpace(8).basis_a(7), SympSpace(8).basis_b(8)  # on no vertex of the certificate
    inner = H.Steps([steps[:5], H.Steps(steps[5:], offset=3, inverted=True)], offset=2, lift=(b8,))
    tree = H.Steps([steps[0], inner, H.Steps(inner, inverted=True)], offset=1, lift=(a7,), inverted=True)
    flat = H.flatten(tree)
    assert len(flat) == 2 * len(steps) + 1 and flat == _eager(tree)
    assert any(v.index(a7) < v.index(b8) for s in flat for v in s.old)  # the two lifts sorted together
    assert H.flatten(H.Steps(H.Steps(steps, inverted=True), inverted=True)) == steps
    # steps that nothing transforms are passed through, not rebuilt
    assert all(x is y for x, y in zip(H.flatten([steps[:3], H.Steps(steps[3:])]), steps))


def test_flatten_matches_eager_composition_on_criterion_6_loops():
    fills = 0
    for g, k, u, loop in _criterion6_loops():
        if k >= 2:
            tree = H._contract(H.Prover(u), loop)  # the composition that contract flattens
            flat = H.flatten(tree)
            assert flat == _eager(tree)
            assert H.verify_certificate(u, loop, flat)[0]
            fills += sum(s.op == H.CELL_FILL for s in flat)
    assert fills > 1000


def test_contract_builds_at_most_two_steps_per_final_step(monkeypatch):
    built = []
    step = H.Step
    monkeypatch.setattr(H, "Step", lambda *a, **kw: built.append(1) or step(*a, **kw))
    final = 0
    for fan in (True, False):
        if not fan:  # the escort route nests the deepest compositions
            monkeypatch.setattr(H, "_fan_center", lambda *a: None)
        for g, k, u, loop in _criterion6_loops():
            if k == 3 and g >= 4:
                built.clear()
                steps = H.contract(H.Prover(u), loop)
                assert len(built) <= 2 * len(steps), (fan, g, len(loop) - 1, len(built), len(steps))
                final += len(steps)
    assert final > 10_000


# --- the replay's path invariant ---------------------------------------------------


@functools.lru_cache(maxsize=None)
def _criterion6_certs():
    """The 104 criterion-6 loops with their steps, as (k, universe, loop, steps)."""
    return tuple((k, u, loop, H.contract(H.Prover(u), loop)) for g, k, u, loop in _criterion6_loops())


def test_replay_tests_only_what_each_step_adds(monkeypatch):
    """check_path tests every vertex and side of the loop; after that a spike
    insert costs one cut test and one edge test, a removal none, and a fill
    one cut test per new interior vertex and one edge test per new side."""
    cuts, edges = [], []
    cut_ok, edge_ok = SympZUniverse.cut_ok, H._edge_ok
    monkeypatch.setattr(SympZUniverse, "cut_ok", lambda *a: cuts.append(1) or cut_ok(*a))
    monkeypatch.setattr(H, "_edge_ok", lambda *a: edges.append(1) or edge_ok(*a))
    totals = [0, 0]
    for k, u, loop, steps in _criterion6_certs():
        cuts.clear()
        edges.clear()
        assert H.verify_certificate(u, loop, steps) == (True, None)
        inserts = sum(s.op == H.BT_INSERT for s in steps)
        fills = [len(s.new) for s in steps if s.op == H.CELL_FILL]
        assert len(cuts) == len(loop) + inserts + sum(n - 2 for n in fills), k
        assert len(edges) == len(loop) - 1 + inserts + sum(n - 1 for n in fills), k
        totals[0] += len(cuts)
        totals[1] += len(edges)
    # testing every window in full made 26,062 cut tests and 29,389 edge tests
    # on the escort route's certificates, which then took 7,655 and 14,832
    assert totals == [2_906, 4_325]


def test_fan_sets_the_corpus_counts():
    """Fans cut the corpus certificates from 13,868 steps (6,877 triangles)
    to 4,385, and the handles drawn from 75 at most and 207 in all."""
    certs = _criterion6_certs()
    steps = [s for *_, cert in certs for s in cert]
    # a regenerated loop's universe is where the cached one stood before contract
    drawn = [u.room.used - fresh.room.used for (*_, fresh, _), (_, u, *_) in zip(_criterion6_loops(), certs)]
    assert (len(steps), sum(s.kind == "triangle" for s in steps)) == (4_385, 1_119)
    assert (max(drawn), sum(drawn)) == (22, 55)


def test_escort_route_keeps_its_certificates(monkeypatch):
    """With no fan center, contract takes the escort route alone, and its
    corpus reports (each universe at its loop's genus, as perfbench/work.py
    builds it) hash to the contract-verify pass digest of the escort-only
    prover: the fallback is pinned byte for byte."""
    import hashlib

    monkeypatch.setattr(H, "_fan_center", lambda *a: None)
    digest = hashlib.sha256()
    for g, k, _, loop in _criterion6_loops():
        u = zu(max(c.g for v in loop for c in v))
        cert = H.HomotopyCertificate(H.contract(H.Prover(u), loop))
        digest.update(json.dumps({"loop": H.loop_to_json(loop), "certificate": cert.to_json()}, sort_keys=True).encode())
    assert digest.hexdigest() == "62538663b5b02371a00eeb735466afc0a22f0a1632295e3e41cc63ebaa633e50"


def test_f2_prefilter_says_no_only_when_no_sign_pattern_solves():
    """Whenever no class mod 2 pairs oddly with the curves and evenly with the
    context, no integer class pairs +-1 with the curves and 0 with the
    context, under any of the 2^m sign patterns."""
    from itertools import product

    rng = random.Random(29)
    said = {True: 0, False: 0}
    for _ in range(240):
        g = rng.choice((2, 3))
        u = zu(g)
        pool = [HClass.of_support((i, rng.choice((-1, 1))) for i in rng.sample(range(2 * g), rng.randint(1, 3)))
                for _ in range(8)]
        curves = list(dict.fromkeys(rng.sample(pool, rng.randint(2, 6))))
        context = tuple(c for c in pool[:1] if c not in curves and rng.random() < 0.5)
        ok = H._f2_center_possible(curves, context)
        said[ok] += 1
        if not ok:
            for signs in product((1, -1), repeat=len(curves)):
                assert u.solve(list(zip(curves, signs)), orthogonal=context) is None, (curves, signs, context)
    assert min(said.values()) > 40, said


def test_certificate_vertices_are_their_curves_in_curve_order():
    for k, u, loop, steps in _criterion6_certs():
        assert all(v == tuple(sorted(v)) for v in loop)
        assert all(v == tuple(sorted(v)) for s in steps for w in (s.old, s.new) for v in w)


def _rails_cycle(*rails):
    """The cycle whose vertex v_i is {e_(i-1), e_i}, each in curve order."""
    return tuple(tuple(sorted((rails[i - 1], rails[i]))) for i in range(len(rails)))


def _triangle(*bs):
    """The cycle whose vertex v_i is {b_i, a2}, in curve order."""
    return tuple(tuple(sorted((b, a2))) for b in bs)


CELLS = {  # at genus 3, k = 2
    "triangle": _triangle(a1, b1, HClass((1, 1, 0, 0))),
    "rectangle": _rails_cycle(a1, a2, b1, b2),
    "pentagon": _rails_cycle(a1, a2, b1, HClass((0, 1, 0, 1)), HClass((1, 0, -1, 1))),
}


@pytest.mark.parametrize("kind", sorted(CELLS))
def test_cell_pattern_asks_inter_once_per_side(kind, monkeypatch):
    # the cut and edge tests leave nothing for the cell match to ask
    calls = []
    inter = SympZUniverse.inter
    monkeypatch.setattr(SympZUniverse, "inter", lambda *a: calls.append(1) or inter(*a))
    cycle = CELLS[kind]
    assert H.cell_pattern(zu(3), cycle) == kind
    assert len(calls) == len(cycle)


@pytest.mark.parametrize("cycle", [
    # b_0 = a1 and b_2 = a1 + 2 b1 meet twice
    pytest.param(_triangle(a1, b1, HClass((1, 2, 0, 0))), id="triangle pair"),
    # e_0 = a1 and e_1 = b1 meet once: v_1 is no cut system
    pytest.param(_rails_cycle(a1, b1, HClass((0, 1, 1, 0)), HClass((1, 0, 0, 1))), id="neighbouring rails"),
    # e_0 = a1 and e_2 = a3 are disjoint
    pytest.param(_rails_cycle(a1, a2, S3.basis_a(3), b2), id="rails two apart"),
])
def test_cell_pattern_rejects_what_the_side_tests_cover(cycle):
    assert H.cell_pattern(zu(3), cycle) is None


def _oracle_edge(universe, v, w):
    """v and w differ in one curve each, and those two curves meet once."""
    out, into = [c for c in v if c not in w], [c for c in w if c not in v]
    return len(out) == len(into) == 1 and universe.inter(out[0], into[0]) == 1


def _oracle_cell(universe, cycle):
    """The cell type of a vertex cycle, from the definitions: a triangle's
    three swapped curves meet pairwise once; a rectangle's or pentagon's
    rails meet their neighbours zero times and every other rail once."""
    m, k = len(cycle), len(cycle[0])
    if len(set(cycle)) != m or not all(universe.cut_ok(v) for v in cycle):
        return None
    if not all(_oracle_edge(universe, cycle[i], cycle[(i + 1) % m]) for i in range(m)):
        return None
    common = set(cycle[0]).intersection(*cycle[1:])
    if m == 3 and len(common) == k - 1:
        bs = [c for v in cycle for c in v if c not in common]
        return "triangle" if all(universe.inter(x, y) == 1 for x, y in combinations(bs, 2)) else None
    if m not in (4, 5) or len(common) != k - 2:
        return None
    rails = [(set(cycle[i]) & set(cycle[(i + 1) % m])) - common for i in range(m)]
    if any(len(r) != 1 for r in rails):
        return None
    rails = [r.pop() for r in rails]
    if len(set(rails)) != m or any(set(cycle[i]) - common != {rails[i - 1], rails[i]} for i in range(m)):
        return None
    for i, j in combinations(range(m), 2):
        if universe.inter(rails[i], rails[j]) != (0 if (j - i) % m in (1, m - 1) else 1):
            return None
    return "rectangle" if m == 4 else "pentagon"


def _full_replay(universe, loop, steps):
    """The replay that tests each step's whole window, old part included, and
    decides every edge and cell from pairwise intersections: the oracle for
    verify_certificate.  It calls no check of the module under test."""
    path = list(loop)
    if not path or not all(path) or path[0] != path[-1] or not all(map(universe.cut_ok, path)):
        return False, -1
    if not all(_oracle_edge(universe, v, w) for v, w in zip(path, path[1:])):
        return False, -1
    for i, s in enumerate(steps):
        end = s.at + len(s.old)
        ok = bool(s.old and s.new and all(s.old) and all(s.new) and s.at >= 0 and end <= len(path))
        ok = ok and tuple(path[s.at : end]) == s.old and s.old[0] == s.new[0] and s.old[-1] == s.new[-1]
        if ok and s.op in (H.BT_INSERT, H.BT_REMOVE) and s.kind:
            ok = False  # a backtrack claims no cell
        elif ok and s.op == H.BT_INSERT:
            ok = len(s.old) == 1 and len(s.new) == 3 and s.new[0] == s.new[2]
            ok = ok and universe.cut_ok(s.new[1]) and _oracle_edge(universe, s.new[0], s.new[1])
        elif ok and s.op == H.BT_REMOVE:
            ok = len(s.old) == 3 and len(s.new) == 1 and s.old[0] == s.old[2]
            ok = ok and _oracle_edge(universe, s.old[0], s.old[1])
        elif ok and s.op == H.CELL_FILL and not len(s.old) == len(s.new) == 1:
            kind = _oracle_cell(universe, s.old + s.new[-2:0:-1])
            ok = kind is not None and s.kind in ("", kind)
        else:
            ok = False
        if not ok:
            return False, i
        path[s.at : end] = s.new
    return (True, None) if len(path) == 1 else (False, len(steps))


def _replay_mutant(steps, rng, pool):
    """A seeded corruption of one step: a vertex or curve swapped in a
    window, a step dropped, moved or reordered, or a claimed kind changed."""
    steps = list(steps)
    i = rng.randrange(len(steps))
    s = steps[i]
    mode = rng.choice(("new", "old", "curve", "drop", "swap", "at", "kind"))
    if mode in ("new", "old", "curve"):
        w = list(s.new if mode != "old" else s.old)
        j = rng.randrange(len(w))
        if mode == "curve":
            v = list(w[j])
            v[rng.randrange(len(v))] = rng.choice(pool)[0]
            w[j] = tuple(v)
        else:
            w[j] = rng.choice(pool)
        old, new = (tuple(w), s.new) if mode == "old" else (s.old, tuple(w))
        steps[i] = H.Step(s.op, s.at, old, new, s.kind)
    elif mode == "drop":
        del steps[i]
    elif mode == "swap" and i + 1 < len(steps):
        steps[i], steps[i + 1] = steps[i + 1], steps[i]
    elif mode == "at":
        steps[i] = H.Step(s.op, s.at + rng.choice((-1, 1)), s.old, s.new, s.kind)
    else:
        steps[i] = H.Step(s.op, s.at, s.old, s.new, rng.choice(("triangle", "rectangle", "pentagon")))
    return steps


def test_replay_matches_the_full_window_replay():
    rng = random.Random(1313)
    outcomes = set()
    for k, u, loop, steps in _criterion6_certs():
        assert H.verify_certificate(u, loop, steps) == _full_replay(u, loop, steps) == (True, None)
        pool = list(dict.fromkeys(v for s in steps for v in s.new))
        for _ in range(3 if k >= 2 else 1):
            bad = _replay_mutant(steps, rng, pool)
            got = H.verify_certificate(u, loop, bad)
            assert got == _full_replay(u, loop, bad)
            outcomes.add(got[0])
    assert outcomes == {True, False}


def test_full_replay_does_not_move_with_cell_pattern(monkeypatch):
    """A fill whose new vertex is no cut system is rejected at that fill by
    the replay and by the oracle.  With a cell_pattern that calls every 3-, 4-
    or 5-cycle a cell, the replay accepts that fill, and the oracle, which
    decides cells itself, still rejects it there."""
    u, loop = _k3_loop()
    steps = H.contract(H.Prover(u), loop)
    i, s = next((i, s) for i, s in enumerate(steps) if s.op == H.CELL_FILL and len(s.new) == 3)
    tip = s.new[1]
    twin = tuple(sorted((tip[0],) + tip[:-1]))
    bad = steps[:i] + [H.Step(s.op, s.at, s.old, (s.new[0], twin, s.new[2]), s.kind)] + steps[i + 1 :]
    assert H.verify_certificate(u, loop, bad) == _full_replay(u, loop, bad) == (False, i)
    lax = {3: "triangle", 4: "rectangle", 5: "pentagon"}
    monkeypatch.setattr(H, "cell_pattern", lambda universe, cycle, context=(), known=0: lax.get(len(cycle)))
    assert _full_replay(u, loop, bad) == (False, i)
    assert H.verify_certificate(u, loop, bad) != (False, i)


@pytest.mark.parametrize("op", [H.BT_INSERT, H.BT_REMOVE])
def test_backtrack_claiming_a_cell_is_rejected(op):
    """A backtrack replaces no cell, so one that claims a cell kind is
    rejected at that step, by the replay and by its full-window oracle."""
    u, loop = _k3_loop()
    steps = H.contract(H.Prover(u), loop)
    i = next(i for i, s in enumerate(steps) if s.op == op)
    s = steps[i]
    bad = steps[:i] + [H.Step(op, s.at, s.old, s.new, "pentagon")] + steps[i + 1 :]
    assert H.verify_certificate(u, loop, steps) == (True, None)
    assert H.verify_certificate(u, loop, bad) == _full_replay(u, loop, bad) == (False, i)


def test_replay_still_tests_what_a_fill_adds(monkeypatch):
    """A fill whose new vertex is no cut system, or whose new sides are no
    edges, is rejected at that fill: the vertex is first seen there."""
    u, loop = _k3_loop()
    steps = H.contract(H.Prover(u), loop)
    seen = set(loop)
    for i, s in enumerate(steps):
        if s.op == H.CELL_FILL and len(s.new) == 3 and s.new[1] not in seen:
            break
        seen.update(s.new)
    else:
        raise AssertionError("no fill brings in a vertex first")
    tip = s.new[1]
    cut_ok, edge_ok = SympZUniverse.cut_ok, H._edge_ok
    with monkeypatch.context() as m:
        m.setattr(SympZUniverse, "cut_ok", lambda self, v, ctx=(): v != tip and cut_ok(self, v, ctx))
        assert H.verify_certificate(u, loop, steps) == (False, i)
    for side in ({s.new[0], tip}, {tip, s.new[2]}):
        with monkeypatch.context() as m:
            m.setattr(H, "_edge_ok", lambda uu, x, y, side=side: {x, y} != side and edge_ok(uu, x, y))
            assert H.verify_certificate(u, loop, steps) == (False, i)
    # and a real one: the new vertex with a curve doubled is no cut system
    twin = tuple(sorted((tip[0],) + tip[:-1]))
    bad = list(steps)
    bad[i] = H.Step(s.op, s.at, s.old, (s.new[0], twin, s.new[2]), s.kind)
    assert not u.cut_ok(twin)
    assert H.verify_certificate(u, loop, bad) == (False, i)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p: H.sp_radius0(p, ((a1, a2), (a2, b1), (a1, a2)), a1), "a vertex misses the segment curve"),
        (lambda p: H.escort_triple(p, [a1, a2]), "first two loop curves do not meet once"),
        (lambda p: H.connect(p, (a1,), (a1, b2)), "cut systems of different sizes"),
        (lambda p: H.segment_connect(p, (a1, a2), (a2, b1), (a1,)), "an end misses a common curve"),
        (lambda p: H._clean_flank(p.u, a1, a2, b1, ()), "run curves x_i, x_next do not meet once"),
    ],
)
def test_prover_postconditions_raise_contraction_error(call, message):
    with pytest.raises(H.ContractionError, match=re.escape(message)):
        call(H.Prover(zu(2)))


# sha256 of the certificate JSON that contract gives for _k3_loop()
K3_DIGEST = "17e0ecac24a8960b9f03fc865926b138e57dd936a41b5007aedca2e7f712d864"


def test_contract_digest_under_optimize_flag():
    import hashlib
    import os
    import subprocess
    import sys

    script = """
import hashlib, json, random, sys
from cutsys import homotopy as H, walks
from cutsys.sympcurves import SympSpace
from cutsys.universe import make_universe
if __debug__:
    sys.exit("not running under -O")
u = make_universe("sympZ", g=3)
loop = walks.random_closed_walk(u, 3, 3, random.Random(1), steps=2)
cert = H.HomotopyCertificate(H.contract(H.Prover(u), loop))
S = SympSpace(2)
a1, a2, b1 = S.basis_a(1), S.basis_a(2), S.basis_b(1)
try:
    H.sp_radius0(H.Prover(u), ((a1, a2), (a2, b1), (a1, a2)), a1)
    sys.exit("a loop off its segment curve contracted")
except H.ContractionError:
    pass
print(hashlib.sha256(json.dumps(cert.to_json()).encode()).hexdigest())
"""
    u, loop = _k3_loop()
    here = hashlib.sha256(json.dumps(_cert(H.contract(H.Prover(u), loop)).to_json()).encode()).hexdigest()
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == here == K3_DIGEST


def test_prover_vertex_rejects_non_cut_system():
    p = H.Prover(zu(2))
    with pytest.raises(H.InvalidStep, match="not a cut system"):
        p.vertex((a1, a1))


def test_from_json_interns_curves():
    u, loop = _k3_loop()
    cert = _cert(H.contract(H.Prover(u), loop))
    blob = cert.to_json()
    back = H.HomotopyCertificate.from_json(blob)
    assert back.steps == cert.steps
    seen = {}
    for s in back.steps:
        for v in s.old + s.new:
            for c in v:
                assert seen.setdefault(c.coords, c) is c
    assert len(blob["curves"]) == len(seen)
    for entry in ([2, []], [2, [[0, 2], [3, 2]]]):
        bad = json.loads(json.dumps(blob))
        bad["curves"][0] = entry
        with pytest.raises(ValueError, match="curve 0"):
            H.HomotopyCertificate.from_json(bad)


def _tri_blob():
    x = HClass((1, 1, 0, 0))
    return _cert(H.contract(H.Prover(zu(2)), ((a1,), (b1,), (x,), (a1,)))).to_json()


@pytest.mark.parametrize(
    "entry, why",
    [
        ([2, [[0, 1]]], "genus 2, but the highest index 0 gives genus 1"),
        ([1, [[0, -1]]], "leading value negative"),
        ([2, [[2, 1], [0, 1]]], "strictly increasing"),
        ([1, [[0, 1], [2, 1]]], "genus 1, but the highest index 2 gives genus 2"),
        ([1, [[0, 0]]], "zero value"),
        ([2, [[0, 2], [2, 2]]], "imprimitive"),
        ([1, []], "must be nonzero"),
        ([True, [[0, 1]]], "not a [genus"),
        ([1, [[0, 1.0]]], "not an [index, value] pair"),
    ],
)
def test_from_json_rejects_noncanonical_entry(entry, why):
    blob = _tri_blob()
    blob["curves"][0] = entry
    with pytest.raises(ValueError, match=r"^curve 0: .*" + re.escape(why)):
        H.HomotopyCertificate.from_json(blob)
    # a loop curve is the same entry
    with pytest.raises(ValueError, match=r"^loop vertex 1 curve 0: .*" + re.escape(why)):
        H.loop_from_json([[[1, [[0, 1]]]], [entry]])


def test_from_json_rejects_duplicate_entry_and_bad_index():
    blob = _tri_blob()
    n, m = len(blob["curves"]), len(blob["vertices"])
    blob["curves"].append(blob["curves"][0])
    with pytest.raises(ValueError, match=f"^curve {n}: duplicate of curve 0"):
        H.HomotopyCertificate.from_json(blob)
    for x in (True, "0", -1, n, 1.0):
        blob = _tri_blob()
        blob["vertices"][1][0] = x
        with pytest.raises(ValueError, match="^vertex 1: .* is not a non-empty list of curve indices"):
            H.HomotopyCertificate.from_json(blob)
    for x in (True, "0", -1, m, 1.0):
        blob = _tri_blob()
        blob["steps"][1][3][0] = x
        with pytest.raises(ValueError, match=f"^step 1: 'with' holds .*, not a list of vertex indices below {m}$"):
            H.HomotopyCertificate.from_json(blob)
    blob["vertices"][0] = []
    with pytest.raises(ValueError, match=r"^vertex 0: \[\] is not a non-empty list"):
        H.HomotopyCertificate.from_json(blob)


def test_from_json_rejects_duplicate_vertex_and_repeated_curve():
    blob = _tri_blob()
    m = len(blob["vertices"])
    blob["vertices"].append(list(blob["vertices"][1]))
    with pytest.raises(ValueError, match=f"^vertex {m}: duplicate of vertex 1$"):
        H.HomotopyCertificate.from_json(blob)
    blob = _tri_blob()
    blob["vertices"][0] = blob["vertices"][0] * 2
    with pytest.raises(ValueError, match="^vertex 0: a curve repeats$"):
        H.HomotopyCertificate.from_json(blob)


def test_from_json_rejects_a_vertex_out_of_curve_order():
    # [i, j] and [j, i] would be two entries, so two indices, for one vertex
    blob = json.loads(_fuzz_base()[1])
    j, v = next((j, v) for j, v in enumerate(blob["vertices"]) if len(v) > 1)
    blob["vertices"].append(v[::-1])
    with pytest.raises(ValueError, match=f"^vertex {len(blob['vertices']) - 1}: curves out of curve order$"):
        H.HomotopyCertificate.from_json(blob)
    blob["vertices"][j] = blob["vertices"].pop()
    with pytest.raises(ValueError, match=f"^vertex {j}: curves out of curve order$"):
        H.HomotopyCertificate.from_json(blob)


@pytest.mark.parametrize("kind", ["hexagon", "", "Triangle", 3, None])
def test_from_json_rejects_an_unknown_cell_kind(kind):
    blob = _tri_blob()
    i, row = next((i, r) for i, r in enumerate(blob["steps"]) if r[0] == H.CELL_FILL)
    row[4] = kind
    why = f"step {i}: the cell kind must be one of triangle/rectangle/pentagon, not {kind!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
        H.HomotopyCertificate.from_json(blob)


@pytest.mark.parametrize("op, edit, why", [
    (H.CELL_FILL, lambda row: row.pop(), "a fill row ends with its kind"),
    (H.BT_REMOVE, lambda row: row.append("triangle"), "a backtrack row does not"),
    (H.CELL_FILL, lambda row: row.append("triangle"), "not a row"),
    (H.BT_REMOVE, lambda row: row.clear(), "not a row"),
])
def test_from_json_rejects_a_row_of_the_wrong_length(op, edit, why):
    blob = _tri_blob()
    edit(next(r for r in blob["steps"] if r[0] == op))
    with pytest.raises(ValueError, match=re.escape(why)):
        H.HomotopyCertificate.from_json(blob)


def test_a_high_genus_entry_costs_memory_by_its_size():
    """The 21-byte entry [500000, [[999999, 1]]] is b_500000: a class of one
    nonzero coordinate, read in well under 1 MB (through a dense vector of
    its 1,000,000 coordinates, reading it took 8 MB or more)."""
    import tracemalloc

    blob = _tri_blob()
    blob["curves"].append([500000, [[999999, 1]]])
    tracemalloc.start()
    try:
        back = H.HomotopyCertificate.from_json(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.steps == H.HomotopyCertificate.from_json(_tri_blob()).steps
    assert peak < 1 << 20, peak
    assert SympSpace(500000).basis_b(500000).support == ((999999, 1),)


def test_a_high_genus_loop_curve_costs_memory_by_its_size():
    # the same b_500000 as a loop curve, read in well under 1 MB (as a
    # {"g", "coords"} object it held 1,000,000 integers)
    import tracemalloc

    tracemalloc.start()
    try:
        loop = H.loop_from_json([[[500000, [[999999, 1]]]]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loop == ((SympSpace(500000).basis_b(500000),),)
    assert peak < 1 << 20, peak


def test_criterion_6_certificates_fit_in_a_megabyte():
    # each vertex is written once; spelling out every window's vertex lists
    # took 1,988,721 bytes, and the escort route's certificates 887,054
    texts = [json.dumps(_cert(steps).to_json()) for k, u, loop, steps in _criterion6_certs()]
    assert sum(map(len, texts)) == 263_657 < 1_000_000


def test_certificate_codec_writes_and_reads_each_vertex_once():
    u, loop = _k3_loop()
    cert = _cert(H.contract(H.Prover(u), loop))
    blob = cert.to_json()
    table = blob["vertices"]
    refs = [x for row in blob["steps"] for w in row[2:4] for x in w]
    # to_json: each vertex once, in order of first use
    assert len({tuple(v) for v in table}) == len(table) == len(set(refs))
    assert list(dict.fromkeys(refs)) == list(range(len(table)))
    back = H.HomotopyCertificate.from_json(blob)
    assert back.steps == cert.steps
    built = [v for s in back.steps for w in (s.old, s.new) for v in w]
    assert len(built) == len(refs)
    one = {}
    for x, t in zip(refs, built):
        assert one.setdefault(x, t) is t  # from_json: one tuple per table entry
    assert len({id(t) for t in built}) == len(table) < len(refs) // 5


@pytest.mark.parametrize("fake, imitates", [(True, 1), (1.0, 1), (False, 0), (0.0, 0), ([0], 0)])
def test_from_json_rejects_a_lookalike_of_a_vertex_already_read(fake, imitates):
    """An element that equals an index (or, as a list, cannot be one) is a bad
    index: among a vertex's curve indices, and in a window that re-reads a
    vertex an earlier step used."""
    u, loop = _k3_loop()
    text = json.dumps(_cert(H.contract(H.Prover(u), loop)).to_json())
    blob = json.loads(text)
    n, m = len(blob["curves"]), len(blob["vertices"])
    v = blob["vertices"][0]
    assert imitates in v
    v[v.index(imitates)] = fake
    with pytest.raises(ValueError, match=f"^vertex 0: {re.escape(repr(v))} is not a non-empty list of curve indices below {n}$"):
        H.HomotopyCertificate.from_json(blob)
    blob = json.loads(text)
    i = max(i for i, row in enumerate(blob["steps"]) if imitates in row[3])
    w = blob["steps"][i][3]
    assert any(imitates in row[2] + row[3] for row in blob["steps"][:i])
    w[w.index(imitates)] = fake
    with pytest.raises(ValueError, match=f"^step {i}: 'with' holds {re.escape(repr(w))}, not a list of vertex indices below {m}$"):
        H.HomotopyCertificate.from_json(blob)


@functools.lru_cache(maxsize=None)
def _fuzz_base():
    u = zu(2)
    loop = walks.random_closed_walk(u, 2, 2, random.Random(1), steps=2)
    blob = _cert(H.contract(H.Prover(u), loop)).to_json()
    return loop, json.dumps(blob)


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(allow_nan=False), st.text(max_size=3),
    st.lists(st.integers(-2, 4), max_size=3), st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)
_PAIRS = st.lists(st.tuples(st.integers(-1, 12), st.integers(-3, 3)).map(list), max_size=4)
_ENTRY = st.one_of(_JUNK, st.tuples(st.integers(-1, 7), _PAIRS).map(list))


def _is_entry(e):
    return (isinstance(e, list) and len(e) == 2 and type(e[0]) is int and isinstance(e[1], list)
            and all(isinstance(p, list) and len(p) == 2 for p in e[1]))


def _mutate(data, blob):
    steps, curves, vertices = blob["steps"], blob["curves"], blob["vertices"]
    n, m = len(curves), len(vertices)
    kind = data.draw(st.sampled_from(["entry", "edit", "vertex", "index", "duplicate", "vindex", "at", "op",
                                      "cell", "window", "truncate", "swap"]))
    i = data.draw(st.integers(0, len(steps) - 1)) if steps else None
    # half the draws favour the first entries: the loop's own curves, used by the first steps
    j = data.draw(st.integers(0, n - 1) | st.integers(0, min(n - 1, 3))) if n else None
    h = data.draw(st.integers(0, m - 1) | st.integers(0, min(m - 1, 3))) if m else None
    if kind == "entry" and n:
        curves[j] = data.draw(_ENTRY)
    elif kind == "edit" and n and _is_entry(curves[j]):
        # a near miss of a real entry: shifted genus, dropped pairs, or one value scaled
        g, pairs = curves[j]
        edit = data.draw(st.sampled_from(["genus", "drop", "scale"]))
        if edit == "genus":
            curves[j] = [g + data.draw(st.sampled_from([-1, 1])), pairs]
        elif edit == "drop":
            curves[j] = [g, pairs[: data.draw(st.integers(0, max(0, len(pairs) - 1)))]]
        elif pairs:
            k = data.draw(st.integers(0, len(pairs) - 1))
            pairs[k] = [pairs[k][0], pairs[k][1] * data.draw(st.sampled_from([-1, 0, 2]))]
    elif kind == "vertex" and m:
        vertices[h] = data.draw(st.one_of(st.lists(st.integers(-1, n), max_size=4), _JUNK))
    elif kind == "index" and m and isinstance(vertices[h], list) and vertices[h]:
        v = vertices[h]
        v[data.draw(st.integers(0, len(v) - 1))] = data.draw(st.one_of(st.integers(-2, n + 1), _JUNK))
    elif kind == "duplicate" and m:
        # a copy of a vertex entry, added or written over another, or a curve repeated in it
        copy = json.loads(json.dumps(vertices[h]))
        where = data.draw(st.sampled_from(["append", "over", "repeat"]))
        if where == "append":
            vertices.append(copy)
        elif where == "over":
            vertices[data.draw(st.integers(0, m - 1))] = copy
        elif isinstance(copy, list) and copy:
            vertices[h] = copy + copy[:1]
    elif i is None or not isinstance(steps[i], list) or len(steps[i]) < 4:
        del steps[:1]  # an earlier mutation left no step row to edit here
    elif kind == "vindex":
        w = steps[i][data.draw(st.sampled_from([2, 3]))]
        if isinstance(w, list) and w:
            w[data.draw(st.integers(0, len(w) - 1))] = data.draw(st.one_of(st.integers(-2, m + 1), _JUNK))
    elif kind == "at":
        steps[i][1] = data.draw(st.one_of(st.integers(-2, 60), _JUNK))
    elif kind == "op":
        steps[i][0] = data.draw(st.one_of(st.sampled_from([H.CELL_FILL, H.BT_INSERT, H.BT_REMOVE]), _JUNK))
    elif kind == "cell":
        # the kind slot: a name or junk written, added to a backtrack, or dropped from a fill
        names = st.sampled_from(["triangle", "rectangle", "pentagon", ""])
        steps[i][4:] = data.draw(st.one_of(st.lists(st.one_of(names, _JUNK), max_size=2), st.just([])))
    elif kind == "window":
        windows = st.lists(st.integers(-1, m), max_size=4)
        steps[i][data.draw(st.sampled_from([2, 3]))] = data.draw(st.one_of(windows, _JUNK))
    elif kind == "truncate":
        del steps[i:]
    else:
        k = data.draw(st.integers(0, len(steps) - 1))
        steps[i], steps[k] = steps[k], steps[i]


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_certificates_are_rejected_cleanly(data):
    """Reading and replaying a mutated real certificate either succeeds,
    names a failing step, or raises ValueError from the reader."""
    loop, text = _fuzz_base()
    blob = json.loads(text)
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(data, blob)
    try:
        cert = H.HomotopyCertificate.from_json(blob)
    except ValueError:
        return
    ok, idx = H.verify_certificate(zu(2), loop, cert)
    assert (ok, idx) == (True, None) or (ok is False and type(idx) is int)


def test_soundness_checks_survive_optimize_flag():
    import os
    import subprocess
    import sys

    script = """
import random, sys
from cutsys import homotopy as H, walks
from cutsys.sympcurves import HClass, SympSpace
from cutsys.universe import make_universe
if __debug__:
    sys.exit("not running under -O")
u = make_universe("sympZ", g=3)
loop = walks.random_closed_walk(u, 3, 3, random.Random(1), steps=2)
steps = H.contract(H.Prover(u), loop)
if not H.verify_certificate(u, loop, H.HomotopyCertificate(steps))[0]:
    sys.exit("certificate rejected")
bad = list(steps)
s = bad[0]
bad[0] = H.Step(s.op, s.at, s.old + s.old[:1], s.new, s.kind)
if H.verify_certificate(u, loop, bad)[0]:
    sys.exit("corrupted certificate accepted")
S = SympSpace(2)
a, mid = (S.basis_a(1), S.basis_a(2)), (S.basis_a(1), HClass((0, 1, 0, 1)))
spike = (a, mid, a)
if H.verify_certificate(make_universe("sympZ", g=2), spike, [H.Step(H.BT_REMOVE, 0, spike, (a,))]) != (False, -1):
    sys.exit("loop through a non-cut-system accepted")
try:
    H.Prover(u).vertex((loop[0][0], loop[0][0]))
    sys.exit("invalid vertex built")
except H.InvalidStep:
    pass
try:
    H.PathRewriter(loop).replace(0, 1, (loop[0], loop[2]), lambda l: [])
    sys.exit("replace that moves the window's end accepted")
except H.InvalidStep:
    pass
print("ok")
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0 and out.stdout.strip() == "ok", out.stderr
