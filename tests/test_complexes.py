import functools
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from cutsys import complexes as cx
from cutsys import intlin
from cutsys.sympcurves import HClass, SympSpace, f2_is_cut, f2_pairing, f2_swap
from cutsys.universe import make_universe

U2 = make_universe("sympF2", g=2)
U3 = make_universe("sympF2", g=3)


@functools.cache
def _gamma_g3_k2():
    # the slowest build here: the tests that read it share one per session
    return cx.build_gamma(U3, 2)


def _named(graph, ids):
    """The vertex tuples of a sequence of vertex ids, such as an edge or a
    cell's cycle."""
    return tuple(graph.vertices[i] for i in ids)


def _edges_named(graph):
    return [_named(graph, e) for e in graph.edges]


def test_gamma1_vertex_count_with_enumeration_oracle():
    # oracle: count nonzero vectors directly
    oracle = sum(1 for u in range(1, 16))
    g1 = cx.build_gamma(U2, 1)
    assert len(g1.vertices) == oracle == 15


def test_gamma2_vertex_count_with_enumeration_oracle():
    # oracle: orthogonal independent pairs counted by brute force
    oracle = 0
    for u in range(1, 16):
        for v in range(u + 1, 16):
            if f2_pairing(u, v, 2) == 0 and u != v:
                oracle += 1
    assert oracle == 45
    g2 = cx.build_gamma(U2, 2)
    assert len(g2.vertices) == 45


def test_schmutz_equals_gamma1():
    for u in (U2, U3):
        g1 = cx.build_gamma(u, 1)
        sm = cx.build_schmutz(u)
        assert g1.vertices == sm.vertices
        assert set(g1.edges) == set(sm.edges)


def test_schmutz_degree_eight():
    sm = cx.build_schmutz(U2)
    assert {sm.degree(v) for v in sm.vertices} == {8}


def test_farey_fragment_edges_in_triangles():
    us = make_universe("slope", bound=2)
    fs = cx.build_gamma(us, 1)
    assert len(fs.vertices) > 0
    covered = set()
    for c in fs.cells:
        assert c.kind == "triangle"
        cyc = c.cycle
        for i in range(3):
            covered.add(frozenset((cyc[i], cyc[(i + 1) % 3])))
    assert all(frozenset(e) in covered for e in fs.edges)
    # Farey adjacency present
    from cutsys.geomcurves import Slope

    edges = _edges_named(fs)
    assert ((Slope(0, 1),), (Slope(1, 0),)) in edges or ((Slope(1, 0),), (Slope(0, 1),)) in edges


def test_every_edge_is_a_move():
    from cutsys.homotopy import check_path

    g2 = cx.build_gamma(U2, 2)
    for v, w in _edges_named(g2):
        assert check_path(U2, [v, w])


def test_cells_reverified_independently():
    from cutsys.homotopy import cell_pattern

    g2 = cx.build_gamma(U2, 2)
    kinds = {"triangle": 0, "rectangle": 0, "pentagon": 0}
    for cell in g2.cells:
        assert cell_pattern(U2, _named(g2, cell.cycle)) == cell.kind
        kinds[cell.kind] += 1
    assert all(n > 0 for n in kinds.values())


def _short_cycles(graph, m):
    """Every simple m-cycle of the 1-skeleton once, as a tuple of vertex ids
    that starts at its least id and whose second id is below its last."""
    out = []
    for s in range(len(graph.vertices)):
        paths = [(s,)]
        for _ in range(m - 1):
            paths = [p + (y,) for p in paths for y in graph.adj[p[-1]] if y > s and y not in p]
        out += [p for p in paths if s in graph.adj[p[-1]] and p[1] < p[-1]]
    return out


def test_cell_check_rejects_coincidental_short_cycles():
    # the cycle search the builder avoids: of all simple 4- and 5-cycles at
    # g = 2, k = 2, exactly the built rectangles and pentagons pass the check
    from cutsys.homotopy import cell_pattern

    g2 = cx.build_gamma(U2, 2)
    built = {}
    for kind, cycle in g2.cells:
        if kind != "triangle":
            i = cycle.index(min(cycle))
            cycle = cycle[i:] + cycle[:i]
            built[cycle if cycle[1] < cycle[-1] else cycle[:1] + cycle[:0:-1]] = kind
    cycles = _short_cycles(g2, 4) + _short_cycles(g2, 5)
    assert (len(cycles), len(built)) == (1467, 162)
    found = {c: cell_pattern(U2, _named(g2, c)) for c in cycles}
    assert {c: kind for c, kind in found.items() if kind} == built


def test_bfs_examples():
    sm = cx.build_schmutz(U2)
    a1, b1, a2 = (1 << 0,), (1 << 1,), (1 << 2,)
    d, path = cx.bfs(sm, a1, b1)
    assert d == 1
    d, path = cx.bfs(sm, a1, a2)
    assert d == 2
    mid = path[1][0]
    assert f2_pairing(a1[0], mid, 2) == 1 and f2_pairing(a2[0], mid, 2) == 1
    g2 = cx.build_gamma(U2, 2)
    v = tuple(sorted((1 << 0, 1 << 2)))
    w = tuple(sorted((1 << 1, 1 << 3)))
    d, _ = cx.bfs(g2, v, w)
    assert d == 2


def test_bfs_unknown_vertex():
    sm = cx.build_schmutz(U2)
    with pytest.raises(cx.NotFound):
        cx.bfs(sm, (1,), (99,))


def test_diameter_examples():
    sm = cx.build_schmutz(U2)
    assert cx.diameter(sm) == 2
    g2 = cx.build_gamma(U2, 2)
    assert 2 <= cx.diameter(g2) <= 12
    single = cx.ComplexGraph(U2, 1, [(1,)], [], [])
    assert cx.diameter(single) == 0


def test_diameter_disconnected():
    g = cx.ComplexGraph(U2, 1, [(1,), (2,)], [], [])
    with pytest.raises(cx.InfiniteDiameter):
        cx.diameter(g)


def test_implicit_matches_explicit_g3_k2():
    g32 = _gamma_g3_k2()
    explicit = cx.diameter(g32)
    layers = []
    implicit, total = cx.f2_gamma_k2_eccentricity(3, lambda d, size: layers.append(size))
    assert implicit == explicit
    assert total == len(g32.vertices) == cx.f2_count_vertices_k2(3)
    # oracle: BFS layer sizes of the explicit graph from the base vertex {a1, a2}
    base = g32.index[1, 4]
    seen, frontier, explicit_layers = {base}, {base}, []
    while frontier := {y for x in frontier for y in g32.adj[x]} - seen:
        seen |= frontier
        explicit_layers.append(len(frontier))
    assert layers == explicit_layers


def test_implicit_k2_rejects_genus_out_of_range():
    with pytest.raises(ValueError):
        cx.f2_gamma_k2_eccentricity(1)  # no pair of disjoint curves
    # the type BFS runs at genus 4 whatever g is, and the orbit sizes are exact integers
    for g in (8, 12):
        tracemalloc.start()
        try:
            assert cx.f2_gamma_k2_eccentricity(g) == (4, cx.f2_count_vertices_k2(g))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


def test_implicit_k2_detects_disconnection(monkeypatch):
    # one vertex more than exists: the layer after the last real one is empty
    count = cx.f2_count_vertices
    monkeypatch.setattr(cx, "f2_count_vertices", lambda g, k: count(g, k) + 1)
    with pytest.raises(cx.InfiniteDiameter, match="k = 2 shadow is disconnected"):
        cx.f2_gamma_k2_eccentricity(3)


def test_implicit_k3_detects_disconnection(monkeypatch):
    # moves confined to handles 1-3 reach 196 of the 505 types at genus 6,
    # and the eccentricity alone would still read 6
    moves = cx._f2_moves

    def stay_on_handles_1_to_3(rows, ids, g):
        out = moves(rows, ids, g)
        return out[(out < 1 << 6).all(axis=1)]

    monkeypatch.setattr(cx, "_f2_moves", stay_on_handles_1_to_3)
    with pytest.raises(cx.InfiniteDiameter, match="k = 3 shadow is disconnected"):
        cx.f2_orbit_eccentricity(6, 3)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_f2_walsh_matches_explicit_sums(g):
    # m = 2^g = 2, 4, 8: W[b, x] = sum over v of rows[b, v] (-1)^<v, x>, term by term
    n = 1 << (2 * g)
    rows = np.random.default_rng(g).random((5, n)) < 0.3
    hi, lo = _pairing_signs(g - g // 2), _pairing_signs(g // 2)
    assert hi.shape[0] * lo.shape[0] == n
    w = _f2_walsh(rows, hi, lo).reshape(5, n)
    for b in range(5):
        for x in range(n):
            assert w[b, x] == sum(-1 if f2_pairing(v, x, g) else 1 for v in np.flatnonzero(rows[b])), (b, x)


def test_implicit_k2_memory_holds_no_dense_product():
    # no vertex set is held: a 4^5 x 4^5 boolean set alone would take 1 MiB,
    # and a float32 parity matrix or product 4 MiB
    tracemalloc.start()
    try:
        assert cx.f2_gamma_k2_eccentricity(5) == (4, cx.f2_count_vertices_k2(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, peak


_K2_BLOCK = 128  # frontier rows per transform, and the side of a symmetrizing tile


def _pairing_signs(g):
    """S[u, v] = (-1)^<u, v> over the 4^g classes of genus g, as float32."""
    ids = np.arange(1 << (2 * g), dtype=np.uint32)
    return 1 - 2 * (np.bitwise_count(f2_swap(ids, g)[:, None] & ids) & 1).astype(np.float32)


def _f2_walsh(rows, hi, lo):
    """W[b, x] = sum over v of rows[b, v] (-1)^<v, x>, for 0/1 rows over the
    4^g classes of genus g, shaped (len(rows), len(hi), len(lo)) with
    x = x_hi * len(lo) + x_lo.

    The pairing is a sum over handles, so the 4^g x 4^g sign matrix is the
    Kronecker product of hi = _pairing_signs(g - g // 2), on the high handles,
    and lo = _pairing_signs(g // 2), on the low ones; a row reshaped to
    len(hi) x len(lo) is transformed by two small products (the fast
    Walsh-Hadamard transform in Kronecker form).  Every partial sum is an
    integer of size at most 4^g, exact in float32 below 2^24.
    """
    return hi @ rows.reshape(len(rows), len(hi), len(lo)).astype(np.float32) @ lo


def _symmetrize(a):
    """a |= a.T in place, one pair of square tiles at a time."""
    n, t = len(a), _K2_BLOCK
    for i in range(0, n, t):
        for j in range(i, n, t):
            tile = a[i : i + t, j : j + t]
            tile |= a[j : j + t, i : i + t].T
            a[j : j + t, i : i + t] = tile.T


def _walsh_k2(g):
    """Oracle: (eccentricity, vertices reached, layer sizes) of the base vertex
    {a1, a2} in the k = 2 shadow, by a BFS over vertex sets.

    A set of vertices is a symmetric boolean n x n matrix F (F[u, v] for the
    pair {u, v}), n = 4^g. Keeping u and swapping v for x needs <x, v> = 1 and
    <x, u> = 0. The partners v of u with <v, x> = 1 number (W_u[0] - W_u[x]) / 2,
    with W_u the Walsh transform of the row F[u] under the pairing (`_f2_walsh`),
    so the pairs one move away are (W_u[x] < W_u[0]) & (<u, x> = 0) and their
    transposes. Only the rows of F holding a pair are transformed, 128 at a
    time, and the layer overwrites the frontier in place.
    """
    n = 1 << (2 * g)
    hi, lo = _pairing_signs(g - g // 2), _pairing_signs(g // 2)
    frontier = np.zeros((n, n), dtype=bool)
    frontier[1, 4] = frontier[4, 1] = True  # a1 and a2 as bitmask classes
    visited = frontier.copy()
    layers = []
    while True:
        rows = np.flatnonzero(frontier.any(axis=1))
        for r in np.split(rows, range(_K2_BLOCK, rows.size, _K2_BLOCK)):
            w = _f2_walsh(frontier[r], hi, lo)
            nxt = w < w[:, :1, :1]
            # (-1)^<u, x> factors like the transform: <u, x> = 0 where the signs agree
            u_hi, u_lo = np.divmod(r, len(lo))
            nxt &= hi[u_hi, :, None] == lo[u_lo, None, :]
            frontier[r] = nxt.reshape(r.size, n)
        _symmetrize(frontier)
        np.greater(frontier, visited, out=frontier)  # drop the visited pairs
        size = int(np.count_nonzero(frontier)) // 2
        if not size:
            return len(layers), 1 + sum(layers), layers
        visited |= frontier
        layers.append(size)


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_implicit_k2_layers_match_walsh_oracle(g):
    layers = []
    ecc, total = cx.f2_gamma_k2_eccentricity(g, lambda d, size: layers.append(size))
    assert (ecc, total, layers) == _walsh_k2(g)


def _vertices(g, k):
    """Every size-k vertex at genus g, as an (N, k) array of classes
    x_1 < ... < x_k: nonzero, pairwise orthogonal and independent."""
    ids = np.arange(1 << (2 * g), dtype=np.int64)
    rows = ids[1:, None]
    for _ in range(k - 1):
        ok = ids > rows[:, -1:]
        span = np.zeros((len(rows), 1), dtype=np.int64)
        for x in rows.T:
            ok &= (np.bitwise_count(f2_swap(x, g)[:, None] & ids) & 1) == 0
            span = np.hstack((span, span ^ x[:, None]))
        for u in span.T:
            ok &= ids != u[:, None]
        row, col = np.nonzero(ok)
        rows = np.column_stack((rows[row], ids[col]))
    return rows


def _check_orbit_sizes(g, k):
    # every vertex typed, against the embedding count of one vertex of each
    # type, the last one enumerated, which may use any handle
    xs = _vertices(g, k)[::-1]
    types, last, counts = np.unique(cx._f2_types(xs), return_index=True, return_counts=True)
    assert cx._f2_orbit_sizes(xs[last], types, g) == counts.tolist()
    assert len(xs) == cx.f2_count_vertices(g, k)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_k2_orbit_sizes_count_every_vertex(g):
    _check_orbit_sizes(g, 2)


def test_k2_types_by_layer_stop_changing_at_genus_4():
    layers = {g: [types.tolist() for types, _ in cx._f2_type_layers(g, 2)] for g in (2, 3, 4, 5, 6)}
    assert [sum(map(len, layers[g])) for g in layers] == [12, 24, 25, 25, 25]
    assert layers[4] == layers[5] == layers[6]


def test_type_layers_yield_a_vertex_of_each_type():
    for types, reps in cx._f2_type_layers(3, 2):
        assert cx._f2_types(reps).tolist() == types.tolist()
        assert all(f2_is_cut(row, 3) for row in reps.tolist())


@pytest.mark.parametrize("g", range(1, 9))
def test_k1_type_bfs_matches_gamma1(g):
    # the k = 1 type graph stops changing at genus 2, where f2_orbit_eccentricity
    # runs it; the dense oracle test checks its values
    layers = [types.tolist() for types, _ in cx._f2_type_layers(g, 1)]
    assert layers == [types.tolist() for types, _ in cx._f2_type_layers(min(g, 2), 1)]
    assert len(layers) - 1 == cx.f2_orbit_eccentricity(g, 1)[0] == min(g, 2)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_k1_orbit_sizes_count_every_vertex(g):
    # the third type, a_2's, is empty at g = 1
    _check_orbit_sizes(g, 1)


@pytest.mark.parametrize("g", [3, 4])
def test_k3_orbit_sizes_count_every_vertex(g):
    # 196 types and 3,780 vertices at g = 3; 462 and 321,300 at g = 4
    _check_orbit_sizes(g, 3)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_count_vertices_matches_cut_test(k):
    for g in range(1, 4):
        count = sum(f2_is_cut(c, g) for c in combinations(range(1, 1 << (2 * g)), k))
        assert cx.f2_count_vertices(g, k) == count, g


@pytest.mark.parametrize("g", range(3, 13))
def test_implicit_k3_reaches_every_vertex(g):
    assert cx.f2_orbit_eccentricity(g, 3) == (6, cx.f2_count_vertices(g, 3))


def test_orbit_eccentricity_refuses_what_it_cannot_answer():
    with pytest.raises(ValueError, match="no cut system of size 3 at genus 2"):
        cx.f2_orbit_eccentricity(2, 3)
    with pytest.raises(ValueError, match="type codes of k = 4 take 152 bits"):
        cx.f2_orbit_eccentricity(8, 4)


def test_implicit_gamma1_matches_explicit():
    assert cx.f2_gamma1_eccentricity(2) == cx.diameter(cx.build_schmutz(U2))


def _parity_matrix(g):
    """P[u, v] = f2 pairing of u and v, as a dense boolean matrix."""
    u = np.arange(1 << (2 * g), dtype=np.uint32)
    return (np.bitwise_count(f2_swap(u, g)[:, None] & u[None, :]) & 1).astype(bool)


@functools.cache
def _dense_parity(g):
    return _parity_matrix(g)


def _dense_gamma1_eccentricity(g, start):
    """Oracle: BFS over the rows of the full 4^g x 4^g parity matrix."""
    p = _dense_parity(g)
    dist = np.full(p.shape[0], -1)
    dist[start] = 0
    frontier, d = np.array([start]), 0
    while frontier.size:
        d += 1
        nbr = p[frontier].any(axis=0) & (dist < 0)
        nbr[0] = False
        frontier = np.flatnonzero(nbr)
        dist[frontier] = d
    if (dist[1:] < 0).any():
        raise cx.InfiniteDiameter("disconnected")
    return int(dist[1:].max())


def _dense_gamma_k2_eccentricity(g):
    """Oracle: the k = 2 BFS that multiplies every row of every layer, and
    runs one more product to find the empty layer."""
    p = _dense_parity(g)
    n = p.shape[0]
    frontier = np.zeros((n, n), dtype=bool)
    frontier[1, 4] = frontier[4, 1] = True
    visited, ecc, total, layers = frontier.copy(), 0, 1, []
    while True:
        nxt = ((frontier.astype(np.float32) @ p.astype(np.float32)) > 0) & ~p
        nxt |= nxt.T
        nxt &= ~visited
        size = int(np.count_nonzero(nxt)) // 2
        if not size:
            return ecc, total, layers
        visited |= nxt
        ecc, total, frontier = ecc + 1, total + size, nxt
        layers.append(size)


def test_implicit_gamma1_matches_dense_oracle():
    for g in (1, 2, 3):
        for start in range(1, 1 << (2 * g)):
            assert cx.f2_gamma1_eccentricity(g, start) == _dense_gamma1_eccentricity(g, start), (g, start)
    rng = random.Random(14)
    for g in (4, 5, 6):
        for start in rng.sample(range(1, 1 << (2 * g)), 20):
            assert cx.f2_gamma1_eccentricity(g, start) == _dense_gamma1_eccentricity(g, start), (g, start)


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_implicit_k2_matches_full_product_oracle(g):
    layers = []
    ecc, total = cx.f2_gamma_k2_eccentricity(g, lambda d, size: layers.append(size))
    assert (ecc, total, layers) == _dense_gamma_k2_eccentricity(g)
    assert total == cx.f2_count_vertices_k2(g)


def test_implicit_gamma1_detects_disconnection(monkeypatch):
    moves = cx._f2_moves

    def stay_on_handle_1(rows, ids, g):
        out = moves(rows, ids, g)
        return out[(out < 4).all(axis=1)]  # a2's type is now out of reach

    monkeypatch.setattr(cx, "_f2_moves", stay_on_handle_1)
    with pytest.raises(cx.InfiniteDiameter, match="k = 1 shadow is disconnected"):
        cx.f2_gamma1_eccentricity(3)


def test_implicit_gamma1_memory_is_linear_in_classes():
    # the parity matrix at g = 8 would hold 65,536^2 entries
    tracemalloc.start()
    try:
        assert cx.f2_gamma1_eccentricity(8) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20, peak


@pytest.mark.parametrize("start", [0, -1, 64, True, 2.0])
def test_implicit_gamma1_rejects_start_that_is_no_class(start):
    with pytest.raises(ValueError, match="is not a nonzero class id below 4"):
        cx.f2_gamma1_eccentricity(3, start)


def test_implicit_gamma1_rejects_genus_out_of_range():
    with pytest.raises(ValueError, match="no cut system"):
        cx.f2_gamma1_eccentricity(0)


def test_vertex_transitivity_samples():
    g32 = _gamma_g3_k2()
    rng = random.Random(0)
    eccs = {cx.eccentricity(g32, rng.choice(g32.vertices)) for _ in range(4)}
    assert len(eccs) == 1


def _dense_homology(graph):
    """Oracle: (b0, b1, torsion) from dense d1 and d2 over Z, by Smith normal
    form cross-checked against rational ranks; torsion is the list of the
    invariant factors of d2 above 1."""
    nv, ne = len(graph.vertices), len(graph.edges)
    eid = {e: i for i, e in enumerate(graph.edges)}
    d1 = [[0] * nv for _ in range(ne)]
    for (a, b), i in eid.items():
        d1[i][a] = -1
        d1[i][b] = 1
    d2 = [[0] * ne for _ in range(len(graph.cells))]
    for ci, cell in enumerate(graph.cells):
        cyc = cell.cycle
        for t in range(len(cyc)):
            a, b = cyc[t], cyc[(t + 1) % len(cyc)]
            if (a, b) in eid:
                d2[ci][eid[a, b]] += 1
            else:
                d2[ci][eid[b, a]] -= 1
    f1 = intlin.invariant_factors(d1) if ne else []
    f2 = intlin.invariant_factors(d2) if graph.cells else []
    assert len(f1) == (intlin.rational_rank(d1) if ne else 0)
    assert len(f2) == (intlin.rational_rank(d2) if graph.cells else 0)
    return nv - len(f1), ne - len(f1) - len(f2), [f for f in f2 if f > 1]


A, B, C = (1,), (2,), (3,)
TRIANGLE = [(A, B), (B, C), (A, C)]


def _disk():
    return cx.ComplexGraph(U2, 1, [A, B, C], TRIANGLE, [cx.Cell("triangle", (A, B, C))])


def _rp2():
    # the 6-vertex real projective plane: H_0 = Z, H_1 = Z/2, H_2 = 0
    faces = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
             (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4)]
    verts = [(i,) for i in range(1, 7)]
    cells = [cx.Cell("triangle", tuple((i,) for i in f)) for f in faces]
    return cx.ComplexGraph(U2, 1, verts, list(combinations(verts, 2)), cells)


def _two_disks():
    D, E, F = (4,), (5,), (6,)
    cells = [cx.Cell("triangle", (A, B, C)), cx.Cell("triangle", (D, E, F))]
    return cx.ComplexGraph(U2, 1, [A, B, C, D, E, F],
                           TRIANGLE + [(D, E), (E, F), (D, F)], cells)


def _spy_leftover(monkeypatch):
    """Record every non-empty matrix that chain_homology ranks with
    intlin.rational_rank: the rows that coreduce leaves."""
    seen = []
    real = intlin.rational_rank

    def spy(m):
        if m:
            seen.append(m)
        return real(m)

    monkeypatch.setattr(intlin, "rational_rank", spy)
    return seen


def test_chain_homology_disk_and_circle():
    assert cx.chain_homology(_disk()) == (1, 0)
    circle = cx.ComplexGraph(U2, 1, [A, B, C], TRIANGLE, [])
    assert cx.chain_homology(circle) == (1, 1)


def test_chain_homology_rp2_counts_torsion_in_rank(monkeypatch):
    rp2 = _rp2()
    assert len(rp2.edges) == 15 and len(rp2.cells) == 10
    _, kills, _ = cx.coreduce(rp2)
    assert len(kills) == 5  # of the 15 - 5 = 10 generators: H_1 = Z/2 stops the pass
    seen = _spy_leftover(monkeypatch)
    assert cx.chain_homology(rp2) == (1, 0)
    (m,) = seen
    assert (len(m), len(m[0])) == (5, 5)
    assert intlin.invariant_factors(m) == [1, 1, 1, 1, 2] and intlin.rational_rank(m) == 5


def test_chain_homology_two_components():
    two = _two_disks()
    assert cx.chain_homology(two) == _dense_homology(two)[:2] == (2, 0)
    circles = cx.ComplexGraph(U2, 1, two.vertices, _edges_named(two), [])
    assert cx.chain_homology(circles) == _dense_homology(circles)[:2] == (2, 2)


def _oracle_complexes():
    """The named complexes and 24 seeded random subcomplexes (each cell kept
    with probability 0.6) of three of them."""
    full = {
        "sympF2 g=2 k=1": cx.build_gamma(U2, 1),
        "sympF2 g=2 k=2": cx.build_gamma(U2, 2),
        "slope 3": cx.build_gamma(make_universe("slope", bound=3), 1),
        "slope 5": cx.build_gamma(make_universe("slope", bound=5), 1),
    }
    named = {
        "disk": _disk(),
        "circle": cx.ComplexGraph(U2, 1, [A, B, C], TRIANGLE, []),
        "rp2": _rp2(),
        # a disk glued twice around a triangle: its one live edge has
        # coefficient +-2, which the pass must not kill (H_1 = Z/2)
        "degree-2 disk": cx.ComplexGraph(U2, 1, [A, B, C], TRIANGLE,
                                         [cx.Cell("triangle", (A, B, C, A, B, C))]),
        "two disks": _two_disks(),
        "empty": cx.ComplexGraph(U2, 1, [], [], []),
    }
    rng = random.Random(12)
    subs = {}
    for name in ("sympF2 g=2 k=1", "sympF2 g=2 k=2", "slope 5"):
        g = full[name]
        for i in range(8):
            cells = [(c.kind, _named(g, c.cycle)) for c in g.cells if rng.random() < 0.6]
            subs[f"{name} sub {i}"] = cx.ComplexGraph(g.universe, g.k, g.vertices, _edges_named(g), cells)
    return full, named, subs


def test_chain_homology_matches_dense_oracle(monkeypatch):
    full, named, subs = _oracle_complexes()
    fallback = set()
    for name, graph in {**full, **named, **subs}.items():
        *betti, torsion = _dense_homology(graph)
        seen = _spy_leftover(monkeypatch)
        assert list(cx.chain_homology(graph)) == betti, name
        monkeypatch.undo()
        smith = [f for m in seen for f in intlin.invariant_factors(m)]
        assert [f for f in smith if f > 1] == torsion, name  # the leftover keeps the torsion
        if seen:
            fallback.add(name)
            (m,) = seen  # one matrix, over the generators at most
            assert len(m[0]) <= len(graph.edges) - len(graph.vertices) + betti[0], name
    assert cx.chain_homology(named["empty"]) == (0, 0)
    assert not fallback & set(full)  # every generator of a whole complex is killed
    assert {"rp2", "degree-2 disk"} <= fallback
    assert sum(name in fallback for name in subs) >= 5, sorted(fallback)


def test_chain_homology_full_complexes_report():
    for k in (1, 2):
        g = cx.build_gamma(U2, k)
        b0, b1 = cx.chain_homology(g)
        assert b0 == 1
        assert b1 >= 0


def test_chain_homology_g3_k2():
    assert cx.chain_homology(_gamma_g3_k2()) == (1, 0)


def test_exports_stable():
    g1 = cx.build_gamma(U2, 1)
    j1 = g1.to_json()
    j2 = cx.build_gamma(make_universe("sympF2", g=2), 1).to_json()
    assert j1 == j2
    dot = g1.to_dot()
    assert dot.startswith("graph complex {") and dot.endswith("}")


def test_ball_build_needs_seed():
    uz = make_universe("sympZ", g=2)
    with pytest.raises(cx.NeedsSeed):
        cx.build_gamma(uz, 1)


def test_ball_build_sympz():
    g = _ball("sympZ g=2 k=1 ball")
    assert all(len(v) == 1 for v in g.vertices)
    assert len(g.vertices) >= 2


def test_ball_seeds_must_be_cut_systems_of_size_k():
    S = SympSpace(2)
    a1, b1, a2 = S.basis_a(1), S.basis_b(1), S.basis_a(2)
    uz = make_universe("sympZ", g=2)
    with pytest.raises(ValueError, match=r"seed \(b1, a1\) is not a cut system of size 2"):
        cx.build_gamma(uz, 2, seeds=[(b1, a1), (a1, a2)], radius=1)  # b1 meets a1 once
    with pytest.raises(ValueError, match=r"seed \(a1, a2\) is not a cut system of size 1"):
        cx.build_gamma(uz, 1, seeds=[(a1, a2)], radius=0)


def test_ball_on_enumerable_universe():
    # bits 1 and 2 are a1 and b1, which meet once: no cut system
    with pytest.raises(ValueError, match=r"seed \(1, 2\) is not a cut system of size 2"):
        cx.build_gamma(U2, 2, seeds=[(1, 2)], radius=0)
    with pytest.raises(cx.NeedsSeed):
        cx.build_gamma(U2, 2, seeds=[], radius=1)
    seed = (1, 4)  # (a1, a2)
    assert cx.build_gamma(U2, 2, seeds=[seed], radius=0).vertices == [seed]
    full = cx.build_gamma(U2, 2)
    ball = cx.build_gamma(U2, 2, seeds=[seed], radius=1)
    near = _named(full, full.adj[full.index[seed]])
    assert set(ball.vertices) == {seed, *near} and len(ball.vertices) == 9
    inside = set(ball.vertices)
    assert _edges_named(ball) == [e for e in _edges_named(full) if inside.issuperset(e)]


S3 = SympSpace(3)
A1, B1, A2, B2 = S3.basis_a(1), S3.basis_b(1), S3.basis_a(2), S3.basis_b(2)
A1B1, A2B2 = HClass((1, 1, 0, 0)), HClass((0, 0, 1, 1))
# genus, k, seeds and radius of each sympZ ball the tests build
BALLS = {
    "sympZ g=2 k=1 ball": (2, 1, [(SympSpace(2).basis_a(1),), (SympSpace(2).basis_b(1),)], 2),
    "sympZ g=3 k=2 ball": (
        3, 2, [(A1, A2), (B1, A2), (A1B1, A2), (A1, B2), (A1, A2B2), (B1, B2)], 1
    ),
    # radius 0 keeps 3 of the 9 cut systems over these curves
    "sympZ g=3 k=2 radius 0": (3, 2, [(A1, A2), (B1, B2), (A1B1, A2B2)], 0),
}


def _ball(name):
    g, k, seeds, radius = BALLS[name]
    return cx.build_gamma(make_universe("sympZ", g=g), k, seeds=seeds, radius=radius)


# sha256 of the sorted-key JSON export, and (vertices, edges, triangles,
# rectangles, pentagons); a dropped, duplicated or re-oriented cell changes it
PINNED_BUILDS = {
    "sympF2 g=2 k=1": (
        lambda: cx.build_gamma(U2, 1),
        (15, 60, 80, 0, 0),
        "fa838ac73453d8e41ba40a1aebc8662df432232aa4882c07049c38d40b076aae",
    ),
    "sympF2 g=2 k=2": (
        lambda: cx.build_gamma(U2, 2),
        (45, 180, 120, 90, 72),
        "b9a5faaab1a059aecc71cd4ea1175053d02a3d94a708e47df1f358669e3d10fa",
    ),
    "sympF2 g=3 k=1": (
        lambda: cx.build_gamma(U3, 1),
        (63, 1008, 5376, 0, 0),
        "a2d25d855f856d0005e4d3d1cdfcf0efe2c4c63224957f6d92a9b2bc9721b568",
    ),
    "slope bound=3": (
        lambda: cx.build_gamma(make_universe("slope", bound=3), 1),
        (16, 29, 14, 0, 0),
        "b45b2f197a66fcdd5af1d06b7866b56714f08b93174e13f85bc2232cef322f50",
    ),
    "sympF2 g=3 k=2": (
        _gamma_g3_k2,
        (945, 15120, 40320, 30240, 96768),
        "2bbf7b9bd4169e134484ca14d2d78ca3cbd67d4e5776c173f414318a6997b627",
    ),
    "sympZ g=3 k=2 ball": (
        lambda: _ball("sympZ g=3 k=2 ball"),
        (9, 18, 6, 9, 0),
        "6dea25d4db71a78cca8c09892cd064e4b8dbfa422280ccbdeb93dcc764e36d24",
    ),
    # the one pinned build whose free = 1 pass runs over common sets of two curves
    "sympF2 g=3 k=3": (
        lambda: cx.build_gamma(U3, 3),
        (3780, 45360, 60480, 90720, 145152),
        "33f514044a5836531369d3d971b97a1ae4fc3eb59c01405456427b84ababda2e",
    ),
}


def _set_cells(universe, curves, common, free):
    """Oracle: the edges and (kind, cycle) 2-cells whose vertices all contain
    the curves of `common`, over vertex tuples, from Python sets filled by one
    predicate call per pair of pool curves.

    free = 1 gives the edges, which are the once-pairs of the pool, and the
    triangles; free = 2 gives no edges, and the rectangles and pentagons.
    Each cell is generated once, in the rotation and direction that starts
    from its earliest curves (by pool position).
    """
    pool = [c for c in curves if c not in common and universe.cut_ok((c,) + common)]

    def linked(test):  # per pool position, the positions it passes test with
        out = [set() for _ in pool]
        for i, j in combinations(range(len(pool)), 2):
            if test(pool[i], pool[j]):
                out[i].add(j)
                out[j].add(i)
        return out

    once = linked(lambda x, y: universe.inter(x, y) == 1)
    pairs = [(b0, b1) for b0, ends in enumerate(once) for b1 in ends if b0 < b1]
    if free == 1:
        v = [tuple(sorted((c,) + common)) for c in pool]
        edges = [(v[b0], v[b1]) for b0, b1 in pairs]
        return edges, [
            ("triangle", (v[b0], v[b1], v[b2]))
            for b0, b1 in pairs
            for b2 in once[b0] & once[b1]
            if b1 < b2
        ]
    apart = linked(lambda x, y: universe.cut_ok((x, y) + common))
    v = {}  # the vertex of each apart pair, under both orders
    for b0, ends in enumerate(apart):
        for b1 in ends:
            if b0 < b1:
                v[b0, b1] = v[b1, b0] = tuple(sorted((pool[b0], pool[b1]) + common))
    cells = []
    for b0, b1 in pairs:
        both = apart[b0] & apart[b1]
        for c0 in both:
            for c1 in once[c0] & both:
                if b0 < c0 < c1:
                    cells.append(("rectangle", (v[b0, c0], v[b0, c1], v[b1, c1], v[b1, c0])))
        for b2 in once[b1] & apart[b0]:
            for b3 in once[b2] & apart[b0] & apart[b1]:
                for b4 in once[b3] & once[b0] & apart[b1] & apart[b2]:
                    if b0 < min(b2, b3) and b1 < b4:
                        ring = ((b0, b2), (b2, b4), (b4, b1), (b1, b3), (b3, b0))
                        cells.append(("pentagon", tuple(v[p] for p in ring)))
    return [], cells


def _set_build(universe, k, seeds=None, radius=None):
    """Oracle: build_gamma from `_set_cells` and the tuple constructor, with
    the ball grown over vertex tuples."""
    if universe.enumerable:
        curves = list(universe.all_curves())
    else:
        curves = sorted({c for v in seeds for c in v})
    vertices = [tuple(sorted(c)) for c in combinations(curves, k) if universe.cut_ok(c)]
    edges, cells = [], []
    for free in range(1, min(k, 2) + 1):
        for common in combinations(curves, k - free):
            if not common or universe.cut_ok(common):
                more_edges, more_cells = _set_cells(universe, curves, common, free)
                edges += more_edges
                cells += more_cells
    if seeds:
        ball = frontier = {tuple(sorted(s)) for s in seeds}
        for _ in range(radius or 0):
            near = {w for v, w in edges if v in frontier} | {v for v, w in edges if w in frontier}
            frontier, ball = near - ball, ball | near
        vertices = [v for v in vertices if v in ball]
        edges = [(v, w) for v, w in edges if v in ball and w in ball]
        cells = [(kind, cyc) for kind, cyc in cells if ball.issuperset(cyc)]
    return cx.ComplexGraph(universe, k, vertices, edges, cells)


@pytest.mark.parametrize("name", sorted(set(PINNED_BUILDS) | set(BALLS)))
def test_build_matches_set_oracle(name):
    if name in BALLS:
        g, k, seeds, radius = BALLS[name]
        graph = _ball(name)
        oracle = _set_build(make_universe("sympZ", g=g), k, seeds, radius)
    else:
        graph = PINNED_BUILDS[name][0]()
        oracle = _set_build(graph.universe, graph.k)
    assert graph.vertices == oracle.vertices
    assert graph.edges == oracle.edges
    assert graph.cells == oracle.cells
    assert graph.adj == oracle.adj and graph.index == oracle.index


@pytest.mark.parametrize("name", sorted(set(PINNED_BUILDS) | set(BALLS)))
def test_vertices_are_their_curves_in_curve_order(name):
    graph = _ball(name) if name in BALLS else PINNED_BUILDS[name][0]()
    assert all(v == tuple(sorted(v)) for v in graph.vertices)
    assert graph.vertices == sorted(graph.vertices)


def test_f2_build_asks_no_pair_predicate(monkeypatch):
    # the mod-2 relations come from bitmask arithmetic: a fall back to one
    # predicate call per pair fails here on a count, not on a time
    calls = []
    real = type(U3).inter
    monkeypatch.setattr(type(U3), "inter", lambda self, x, y: calls.append(1) or real(self, x, y))
    cx.build_gamma(U3, 1)
    assert calls == []
    cx.build_schmutz(U3)  # the pairwise definition: the counter sees it
    assert len(calls) == 63 * 62 // 2


def _edges_between(universe, vertices, curves):
    """Oracle: every move between two of the vertices, found by swapping each
    curve of each vertex for each curve that meets it once."""
    vset = set(vertices)
    edges = set()
    for v in vertices:
        for c in v:
            rest = tuple(x for x in v if x != c)
            for c2 in curves:
                if c2 == c or c2 in rest or universe.inter(c, c2) != 1:
                    continue
                w = tuple(sorted(rest + (c2,)))
                if w in vset:
                    edges.add(frozenset((v, w)))
    return edges


def _ball_vertices(universe, seeds, radius):
    """Oracle: the vertices within `radius` moves of the seeds, with moves
    only to the seeds' curves, found by a move search from each frontier."""
    curves = sorted({c for v in seeds for c in v})
    vertices = {tuple(sorted(v)) for v in seeds}
    frontier = set(vertices)
    for _ in range(radius):
        new = set()
        for v in frontier:
            for c in v:
                rest = tuple(x for x in v if x != c)
                for c2 in curves:
                    if c2 == c or c2 in rest or universe.inter(c, c2) != 1:
                        continue
                    w = tuple(sorted(rest + (c2,)))
                    if w not in vertices and universe.cut_ok(w):
                        new.add(w)
        vertices |= new
        frontier = new
    return vertices, curves


@pytest.mark.parametrize(
    "name", ["sympF2 g=2 k=1", "sympF2 g=2 k=2", "sympF2 g=3 k=2", "slope bound=3"]
)
def test_edges_are_every_move(name):
    g = PINNED_BUILDS[name][0]()
    curves = list(g.universe.all_curves())
    assert {frozenset(e) for e in _edges_named(g)} == _edges_between(g.universe, g.vertices, curves)


@pytest.mark.parametrize("name", sorted(BALLS))
def test_ball_is_every_vertex_and_move_within_radius(name):
    _, _, seeds, radius = BALLS[name]
    g = _ball(name)
    vertices, curves = _ball_vertices(g.universe, seeds, radius)
    assert set(g.vertices) == vertices
    assert {frozenset(e) for e in _edges_named(g)} == _edges_between(g.universe, vertices, curves)


@pytest.mark.parametrize("name", sorted(PINNED_BUILDS))
def test_build_output_pinned(name):
    import hashlib
    import json

    build, counts, digest = PINNED_BUILDS[name]
    g = build()
    kinds = [
        sum(c.kind == kind for c in g.cells) for kind in ("triangle", "rectangle", "pentagon")
    ]
    assert (len(g.vertices), len(g.edges), *kinds) == counts
    blob = json.dumps(g.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


# sha256 of the DOT export of each pinned build
PINNED_DOTS = {
    "slope bound=3": "5c499f66594ad3a7a4835414730d673e80483e80811e462edddd7d9767e3af67",
    "sympF2 g=2 k=1": "fbf21e14e32ac034f8cbf1a0740939df6c8df83393687658e1e6fb4c0cce3c93",
    "sympF2 g=2 k=2": "118a8bb330060738befaea1971a2e69d73ebbabcd64492d24ba9b779498d4af2",
    "sympF2 g=3 k=1": "c02e0190766ac63b78fa65fbeb05b6c11f10f96006af78d70ce4d488adede777",
    "sympF2 g=3 k=2": "8ace98c2094069781fe400d7dc36a7bb72b2f246d14e192bb685956306d3a3fc",
    "sympZ g=3 k=2 ball": "254b59178adb749120683eed405771cd522c01750ac488f7e3806aa05ccd982c",
}


@pytest.mark.parametrize("name", sorted(PINNED_DOTS))
def test_dot_export_pinned(name):
    import hashlib

    dot = PINNED_BUILDS[name][0]().to_dot()
    assert hashlib.sha256(dot.encode()).hexdigest() == PINNED_DOTS[name]


def test_graph_holds_vertex_ids():
    g = cx.build_gamma(U2, 2)
    n = len(g.vertices)
    assert g.index == {v: i for i, v in enumerate(g.vertices)}
    assert g.edges == sorted(set(g.edges)) and all(0 <= i < j < n for i, j in g.edges)
    assert g.adj == [sorted({j for e in g.edges if i in e for j in e} - {i}) for i in range(n)]
    assert g.cells == sorted(g.cells)
    assert all(type(x) is int and 0 <= x < n for c in g.cells for x in c.cycle)
    assert [g.degree(v) for v in g.vertices] == [len(a) for a in g.adj]
    j = g.to_json()
    assert j["edges"] == [list(e) for e in g.edges]
    assert [c["cycle"] for c in j["cells"]] == [list(c.cycle) for c in g.cells]


def test_pentagon_with_same_free_curves_on_two_common_sets():
    # one genus-2 pentagon ring, completed by a3 and by b3: two distinct cells
    from cutsys.homotopy import cell_pattern
    from cutsys.sympcurves import HClass

    uz = make_universe("sympZ", g=3)
    coords = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 0, 0, 1), (0, 1, 1, -1))
    ring = [HClass(c) for c in coords]  # a1, b1, a1 + a2, b2, b1 + a2 - b2
    a3, b3 = HClass((0, 0, 0, 0, 1, 0)), HClass((0, 0, 0, 0, 0, 1))
    seeds = [(ring[i], ring[(i + 2) % 5], c) for c in (a3, b3) for i in range(5)]
    g = cx.build_gamma(uz, 3, seeds=seeds, radius=0)
    pentagons = [c for c in g.cells if c.kind == "pentagon"]
    assert len(pentagons) == 2
    assert all(cell_pattern(uz, _named(g, c.cycle)) == "pentagon" for c in pentagons)
    assert {frozenset.intersection(*map(frozenset, _named(g, c.cycle))) for c in pentagons} == {
        frozenset({a3}),
        frozenset({b3}),
    }


def _nx_graph(graph):
    nx = pytest.importorskip("networkx")
    out = nx.Graph()
    out.add_nodes_from(range(len(graph.vertices)))
    out.add_edges_from(graph.edges)
    return nx, out


@pytest.mark.parametrize(
    # past 2,048 vertices `diameter` runs one Python BFS per vertex, minutes at g=3, k=3
    "name", sorted(name for name, (_, counts, _) in PINNED_BUILDS.items() if counts[0] <= 2048)
)
def test_bfs_eccentricity_diameter_match_networkx(name):
    g = PINNED_BUILDS[name][0]()
    nx, oracle = _nx_graph(g)
    rng = random.Random(15)
    for v in rng.sample(range(len(g.vertices)), min(8, len(g.vertices))):
        dist = nx.single_source_shortest_path_length(oracle, v)
        assert cx.eccentricity(g, g.vertices[v]) == max(dist.values())
        for w in rng.sample(range(len(g.vertices)), min(8, len(g.vertices))):
            d, path = cx.bfs(g, g.vertices[v], g.vertices[w])
            assert d == dist[w] == len(path) - 1
            ids = [g.index[x] for x in path]
            assert ids[0] == v and ids[-1] == w
            assert all(oracle.has_edge(x, y) for x, y in zip(ids, ids[1:]))
    assert cx.diameter(g) == nx.diameter(oracle, usebounds=True)


def test_diameter_past_the_dense_closure_matches_networkx():
    # a path over more than 2,048 single-curve vertices, in shuffled vertex
    # order, so diameter takes the maximum of per-vertex BFS eccentricities
    n = 2100
    labels = list(range(1, n + 1))
    random.Random(15).shuffle(labels)
    edges = [((a,), (b,)) for a, b in zip(labels, labels[1:])]
    g = cx.ComplexGraph(U2, 1, [(x,) for x in labels], edges, [])
    nx, oracle = _nx_graph(g)
    assert cx.diameter(g) == n - 1
    for v in random.Random(16).sample(range(n), 5):
        assert cx.eccentricity(g, g.vertices[v]) == nx.eccentricity(oracle, v)
    d, path = cx.bfs(g, (labels[0],), (labels[-1],))
    assert d == n - 1 and [x for (x,) in path] == labels
    apart = cx.ComplexGraph(U2, 1, g.vertices + [(n + 1,)], edges, [])
    with pytest.raises(cx.InfiniteDiameter):
        cx.diameter(apart)
