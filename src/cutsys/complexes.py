"""Cut-system complexes: vertices, elementary moves, 2-cells, and queries.

The 1-skeleton has cut systems of size k as vertices and elementary moves as
edges; triangle, rectangle, and pentagon cells are detected from their
defining curve data (never by cycle search, which misidentifies coincidental
short cycles).  The Schmutz graph, the curve complex as a disjointness graph,
BFS distances, exact diameters, and Betti numbers of the finite shadows round
out the toolkit.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, compress, islice, permutations, repeat
from math import factorial, prod
from typing import NamedTuple

import numpy as np

from . import intlin
from .sympcurves import f2_swap
from .universe import SympF2Universe


class NotFound(KeyError):
    pass


class InfiniteDiameter(ValueError):
    pass


class NeedsSeed(ValueError):
    pass


class Cell(NamedTuple):
    kind: str  # triangle | rectangle | pentagon
    cycle: tuple  # boundary vertex ids in cyclic order


class ComplexGraph:
    """Immutable 2-complex over vertex ids, the positions in `vertices`.

    `edges` holds sorted id pairs (i, j) with i < j, `adj[i]` the sorted
    neighbour ids of vertex i, and `cells` Cell(kind, cycle of ids), sorted
    by (kind, cycle).  The constructor takes edges and (kind, cycle) cells
    over vertex tuples and numbers them; `from_ids` is the core it calls.
    """

    def __init__(self, universe, k, vertices, edges, cells, tag=None):
        vertices = sorted(vertices)
        index = {v: i for i, v in enumerate(vertices)}
        ids = ((index[v], index[w]) for v, w in edges)
        edges = sorted({(i, j) if i < j else (j, i) for i, j in ids})
        cells = sorted(Cell(kind, tuple(index[v] for v in cycle)) for kind, cycle in cells)
        self._fill(universe, k, vertices, edges, cells, tag)

    @classmethod
    def from_ids(cls, universe, k, vertices, edges, cells):
        """The graph over `vertices` in sorted order, with `edges` and `cells`
        already over ids and sorted as the attributes hold them."""
        graph = cls.__new__(cls)
        graph._fill(universe, k, vertices, edges, cells, None)
        return graph

    def _fill(self, universe, k, vertices, edges, cells, tag):
        self.universe = universe
        self.k = k
        self.vertices = vertices
        self.index = {v: i for i, v in enumerate(vertices)}
        self.edges = edges
        self.adj = [[] for _ in vertices]
        for i, j in edges:  # in edge order, so each list comes out sorted
            self.adj[i].append(j)
            self.adj[j].append(i)
        self.cells = cells
        self.tag = tag or getattr(universe, "tag", "?")

    def degree(self, v):
        return len(self.adj[self.index[v]])

    # -- exports ---------------------------------------------------------

    def to_json(self):
        return {
            "backend": self.tag,
            "k": self.k,
            "vertices": [[c.to_json() if hasattr(c, "to_json") else c for c in v] for v in self.vertices],
            "edges": [list(e) for e in self.edges],
            "cells": [{"kind": c.kind, "cycle": list(c.cycle)} for c in self.cells],
        }

    def to_dot(self):
        lines = ["graph complex {"]
        for i, v in enumerate(self.vertices):
            label = ",".join(str(c) for c in v)
            lines.append(f'  n{i} [label="{label}"];')
        lines += [f"  n{a} -- n{b};" for a, b in self.edges]
        lines += [f"  // {c.kind}: {list(c.cycle)}" for c in self.cells]
        lines.append("}")
        return "\n".join(lines)


def _pool(universe, curves, common, free):
    """The curves that complete `common` to a cut system, in `curves` order,
    and their boolean P x P relations: once (the pair meets once) and, at
    free = 2, apart (the pair plus `common` is a cut system).

    A mod-2 pool comes from bitmask arithmetic: a member is orthogonal to
    `common` and outside its span, and two members are apart when they
    pair to 0 and lie in distinct cosets of that span.  Other universes ask
    their predicates once per pair.
    """
    if isinstance(universe, SympF2Universe):
        g = universe.g
        ids = np.arange(1, 1 << (2 * g), dtype=np.int64)
        basis = np.array(common, dtype=np.int64)
        coset = ids  # each id reduced modulo span(common)
        for b in _f2_basis(basis):
            coset = np.minimum(coset, coset ^ b)
        keep = _f2_orthogonal(ids, f2_swap(basis, g)) & (coset != 0)
        pool, coset = ids[keep], coset[keep]
        once = (np.bitwise_count(f2_swap(pool, g)[:, None] & pool) & 1).astype(bool)
        apart = ~once & (coset[:, None] != coset) if free == 2 else None
        return pool.tolist(), once, apart
    pool = [c for c in curves if c not in common and universe.cut_ok((c,) + common)]

    def linked(test):
        out = np.zeros((len(pool), len(pool)), dtype=bool)
        for i, j in combinations(range(len(pool)), 2):
            out[i, j] = out[j, i] = test(pool[i], pool[j])
        return out

    once = linked(lambda x, y: universe.inter(x, y) == 1)
    # a pair passing the cut test is two distinct disjoint curves, in every universe
    apart = linked(lambda x, y: universe.cut_ok((x, y) + common)) if free == 2 else None
    return pool, once, apart


def _extend(paths, allowed):
    """Each row of paths (N, m) followed by each column its row of allowed
    (N, P) holds, in row-major order: an (M, m + 1) array."""
    row, col = np.nonzero(allowed)
    return np.column_stack((paths[row], col))


# the pool positions of the free curves behind each cell's vertices, in
# cycle order, as columns of the paths that `_cells` enumerates
_RECTANGLE = np.array([(0, 2), (0, 3), (1, 3), (1, 2)])  # (b0c0, b0c1, b1c1, b1c0)
_PENTAGON = np.array([(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])  # (b0b2, b2b4, b4b1, b1b3, b3b0)


def _cells(once, apart=None):
    """The edges and 2-cells of one pool, as int arrays of vertex slots.

    With apart None (free = 1) a slot is a pool position, the vertex of that
    curve plus the common ones, and the result holds the edges, which are
    the once-pairs, and the triangles.  With apart (free = 2) a slot x * P + y
    is the vertex of the apart pair (x, y), and the result holds the
    rectangles and the pentagons.  Each cell is generated once, in the
    rotation and direction that starts from its earliest curves.  Every side
    of a cell is a once-pair of the pool of its own common curves, so it is
    an edge of the free = 1 pass there.
    """
    n = len(once)
    after = np.arange(n) > np.arange(n)[:, None]  # after[x, y]: x < y
    pairs = np.argwhere(once & after)  # (b0, b1), b0 < b1
    b0, b1 = pairs.T
    if apart is None:
        triangles = _extend(pairs, once[b0] & once[b1] & after[b1])
        return {"edge": pairs, "triangle": triangles}
    # rectangles: a second once-edge c0-c1, with b0 < c0 < c1 and every
    # cross pair apart
    both = apart[b0] & apart[b1]
    quads = _extend(pairs, both & after[b0])
    p0, p1, c0 = quads.T
    quads = _extend(quads, apart[p0] & apart[p1] & once[c0] & after[c0])
    # pentagons: once-walks b0-b1-b2-b3-b4-b0 with b0 the earliest curve and
    # b1 before b4; the vertices are the five pairs at distance 2
    walks = _extend(pairs, once[b1] & apart[b0] & after[b0])
    w0, w1, w2 = walks.T
    walks = _extend(walks, once[w2] & apart[w0] & apart[w1] & after[w0])
    w0, w1, w2, w3 = walks.T
    walks = _extend(walks, once[w3] & once[w0] & apart[w1] & apart[w2] & after[w1])
    return {
        kind: paths[:, ring[:, 0]] * n + paths[:, ring[:, 1]]
        for kind, paths, ring in (("rectangle", quads, _RECTANGLE), ("pentagon", walks, _PENTAGON))
    }


_ROW_BLOCK = 1 << 16  # rows per tolist(), so one block's lists, not a whole kind's, sit beside the tuples


def _sorted_rows(a, ids):
    """The rows of an int array as tuples, in lexicographic order, with each
    entry x read as ids[x], so that all rows share one int object per id.
    Rows leave numpy `_ROW_BLOCK` at a time."""
    a = a[np.lexsort(a.T[::-1])]
    out = []
    for i in range(0, len(a), _ROW_BLOCK):
        out += zip(*(map(ids.__getitem__, col) for col in a[i : i + _ROW_BLOCK].T.tolist()))
    return out


def build_gamma(universe, k, seeds=None, radius=None):
    """The complex on cut systems of size k over an enumerable universe.

    With seeds, the ball of the given radius around the seed vertices: the
    complex (on all curves, or on the seeds' curves when the universe is not
    enumerable) cut to the vertices within `radius` moves of a seed and the
    edges and cells among them.
    """
    if seeds is not None or not universe.enumerable:
        if not seeds:
            raise NeedsSeed("a ball needs seed vertices")
        for seed in seeds:
            if len(seed) != k or not universe.cut_ok(seed):
                raise ValueError(f"seed {seed} is not a cut system of size {k}")
    curves = sorted(universe.all_curves() if universe.enumerable else {c for v in seeds for c in v})
    # combinations of sorted curves are sorted vertices, and come in sorted order
    vertices = [c for c in combinations(curves, k) if universe.cut_ok(c)]
    if not vertices:
        raise ValueError(f"no cut system of size {k} at genus {universe.g}")
    index = {v: i for i, v in enumerate(vertices)}
    found = {}
    for free in range(1, min(k, 2) + 1):
        for common in combinations(curves, k - free):
            if common and not universe.cut_ok(common):
                continue
            pool, once, apart = _pool(universe, curves, common, free)
            if free == 1:
                vid = np.array([index[tuple(sorted((c,) + common))] for c in pool], dtype=np.int64)
            else:
                vid = np.full(once.shape, -1, dtype=np.int64)
                x, y = np.nonzero(np.triu(apart))
                pairs = zip(x.tolist(), y.tolist())
                vid[x, y] = vid[y, x] = [index[tuple(sorted((pool[i], pool[j]) + common))] for i, j in pairs]
            for kind, slots in _cells(once, apart).items():
                found.setdefault(kind, []).append(vid.ravel()[slots])
    found = {kind: np.concatenate(arrays) for kind, arrays in found.items()}
    edges = np.sort(found.pop("edge"), axis=1)  # each edge has one common set: no duplicates
    if seeds:
        ball = np.zeros(len(vertices), dtype=bool)
        ball[[index[tuple(sorted(s))] for s in seeds]] = True
        for _ in range(radius or 0):
            near = ball.copy()
            near[edges[ball[edges[:, 0]], 1]] = near[edges[ball[edges[:, 1]], 0]] = True
            ball = near
        vertices = list(compress(vertices, ball.tolist()))
        new_id = np.cumsum(ball) - 1  # increasing, so sorted rows stay sorted
        edges = new_id[edges[ball[edges].all(axis=1)]]
        found = {kind: new_id[a[ball[a].all(axis=1)]] for kind, a in found.items()}
    ids = list(range(len(vertices)))
    cells = []
    for kind in sorted(found):
        cells += map(Cell._make, zip(repeat(kind), _sorted_rows(found[kind], ids)))
    return ComplexGraph.from_ids(universe, k, vertices, _sorted_rows(edges, ids), cells)


def build_schmutz(universe):
    """Non-separating curves, edges at intersection exactly one.

    Built directly from the definition; must coincide with build_gamma(., 1).
    """
    curves = list(universe.all_curves())
    vertices = [(c,) for c in curves if universe.cut_ok((c,))]
    edges = []
    for (v,), (w,) in combinations([v for v in vertices], 2):
        if universe.inter(v, w) == 1:
            edges.append(((v,), (w,)))
    return ComplexGraph(universe, 1, vertices, edges, [], tag=f"{universe.tag}-schmutz")


def _bfs(adj, root, parent):
    """Visit order and depths of a breadth-first search from root.

    adj lists the neighbour ids of each vertex id; parent[y] is -1 for each
    vertex not yet visited, and the search sets it to the vertex y was reached
    from (None at root).
    """
    parent[root] = None
    order, depth = [root], [0]
    for x, d in zip(order, depth):  # the loop also visits what it appends
        for y in adj[x]:
            if parent[y] == -1:
                parent[y] = x
                order.append(y)
                depth.append(d + 1)
    return order, depth


def bfs(graph, v, w):
    """Exact distance and one geodesic; (inf, None) when disconnected."""
    if v not in graph.index or w not in graph.index:
        raise NotFound("unknown vertex")
    parent = [-1] * len(graph.vertices)
    _bfs(graph.adj, graph.index[v], parent)
    x = graph.index[w]
    if parent[x] == -1:
        return float("inf"), None
    path = [x]
    while parent[x] is not None:
        x = parent[x]
        path.append(x)
    return len(path) - 1, [graph.vertices[x] for x in reversed(path)]


def eccentricity(graph, v):
    order, depth = _bfs(graph.adj, graph.index[v], [-1] * len(graph.vertices))
    if len(order) != len(graph.vertices):
        raise InfiniteDiameter("graph is disconnected")
    return depth[-1]


def diameter(graph):
    """Exact max eccentricity of a finite connected graph: the number of
    closure steps from the identity until every pair is reached.  Each step is
    a float32 product of 0/1 matrices, whose counts (at most n <= 2048) are
    exact."""
    n = len(graph.vertices)
    if n > 2048:
        return max(eccentricity(graph, v) for v in graph.vertices)
    a = np.zeros((n, n), dtype=np.float32)
    if graph.edges:
        i, j = np.array(graph.edges).T
        a[i, j] = a[j, i] = 1
    reach, d = np.eye(n, dtype=bool), 0
    while not reach.all():
        more = reach | (reach.astype(np.float32) @ a > 0)
        if np.array_equal(more, reach):
            raise InfiniteDiameter("graph is disconnected")
        reach, d = more, d + 1
    return d


# --- implicit F2 universes: fast exact eccentricity -------------------------


def _f2_basis(vecs):
    """A basis of the span of the bitmask vectors vecs, largest first, each
    with a top bit that no later one has.

    Each pass takes the largest vector b left and replaces every x by
    min(x, x ^ b), which clears b's top bit; at most 2g passes empty vecs.
    Reducing any x the same way, b by b, gives the one member of its coset
    modulo the span with none of those top bits.
    """
    b = vecs.max(initial=0)
    while b:
        yield b
        vecs = np.minimum(vecs, vecs ^ b)
        b = vecs.max()


def _f2_orthogonal(ids, vecs):
    """Mask of the ids whose mod-2 dot product with every vector of vecs is 0."""
    inside = np.ones(ids.size, dtype=bool)
    for b in _f2_basis(vecs):
        inside &= (np.bitwise_count(ids & b) & 1) == 0
    return inside


def f2_gamma1_eccentricity(g, start=None):
    """Eccentricity of a vertex in the mod-2 Schmutz shadow at genus g, its
    diameter: Sp(2g, F2) is transitive on nonzero classes, so any start gives
    the eccentricity of a_1."""
    if g < 1:
        raise ValueError(f"no cut system of size 1 at genus {g}")
    start = 1 if start is None else start  # the class a_1
    if type(start) is not int or not 1 <= start < 1 << (2 * g):
        raise ValueError(f"start {start!r} is not a nonzero class id below 4^{g}")
    return f2_orbit_eccentricity(g, 1)[0]


def _f2_codes(xs):
    """One int64 code per ordering of the rows of the (N, k) int64 array xs,
    each vertex X relative to the base B = (a_1, ..., a_k).

    A code packs parts of 2k bits: for each x_j its b bits on handles 1..k,
    which are its pairings with a_1, ..., a_k; then for each nonempty subset
    of the row its sum when that lies in span B, else 0.  Equal codes make
    X -> X' with B fixed a well-defined isometry of span(B, X), which Witt's
    theorem extends to Sp(2g, F2).
    """
    k = xs.shape[1]
    span = sum(1 << (2 * i) for i in range(k))  # the a bits of handles 1..k
    sums = [np.bitwise_xor.reduce(xs[:, [j for j in range(k) if s >> j & 1]], axis=1) for s in range(1 << k)]
    rel = [np.where(x & ~span, 0, x) for x in sums]
    for order in permutations(range(k)):
        code = 0
        for j in order:
            code = (code << 2 * k) | (xs[:, j] & (span << 1))
        for s in range(1, 1 << k):  # subset s of the reordered row
            code = (code << 2 * k) | rel[sum(1 << order[j] for j in range(k) if s >> j & 1)]
        yield code


def _f2_types(xs):
    """The type of each row of xs, the least of its codes over the k!
    orderings, so d(B, X) depends only on the type."""
    return reduce(np.minimum, _f2_codes(xs))


_TYPE_BLOCK = 16  # frontier rows moved and typed at once; 16 keeps each genus-4, k = 2 layer one block


def _f2_moves(rows, ids, g):
    """Every vertex one move from a row of rows, an (N, k) int64 array, in
    row-major order: x_i swapped for each y of ids with <y, x_i> = 1 and
    <y, x_j> = 0 for j != i."""
    pairs = np.bitwise_count(f2_swap(rows, g)[:, None, :] & ids[:, None]) & 1
    row, y, i = np.nonzero(pairs & (pairs.sum(axis=2, keepdims=True) == 1))
    moves = rows[row]
    moves[np.arange(row.size), i] = y
    return moves


def _f2_type_layers(g, k):
    """Yield the vertex types of the size-k shadow at genus g by distance from
    the base, one (types, reps) pair per layer: the sorted int64 types and an
    (N, k) array whose row i, the first move to reach types[i], is the one
    expanded.  `_TYPE_BLOCK` frontier rows at a time are moved and typed, so a
    layer holds its moves and their codes but not the pairing and typing
    temporaries of all of them at once."""
    ids = np.arange(1 << (2 * g), dtype=np.int64)
    frontier = np.array([[1 << (2 * i) for i in range(k)]], dtype=np.int64)
    layer, seen = _f2_types(frontier), set()
    while layer.size:
        yield layer, frontier
        seen.update(layer.tolist())
        moves, codes = [], []
        for i in range(0, len(frontier), _TYPE_BLOCK):
            moves.append(_f2_moves(frontier[i : i + _TYPE_BLOCK], ids, g))
            codes.append(_f2_types(moves[-1]))
        types, first = np.unique(np.concatenate(codes), return_index=True)
        new = [n for n, t in enumerate(types.tolist()) if t not in seen]
        layer, frontier = types[new], np.concatenate(moves)[first[new]]


def _f2_orbit_sizes(reps, types, g):
    """The number of vertices at genus g of each type, given one vertex X of
    each: a row of reps, an (N, k) int64 array.

    By Witt's theorem the orderings of vertices with X's code are the
    isometric embeddings of span(B, X) that fix B.  Walk x_1, ..., x_k with
    U = span(B, x_1, ..., x_(j-1)) of dimension d: x_j's image is forced when
    x_j lies in U, and otherwise it is one of the 2^(2g-d) classes with x_j's
    pairings on U, less the members of U that have them.  Each vertex of the
    type has as many orderings with code equal to the type as X has.  The
    small counts come from the 2^(2k) subset sums of (B, X); the products are
    Python ints, exact at any genus.
    """
    n, k = reps.shape
    gens = np.hstack((np.broadcast_to(1 << 2 * np.arange(k), (n, k)), reps))
    sums = np.zeros((n, 1), dtype=np.int64)
    for i in range(2 * k):  # bit i of a subset's index takes generator i
        sums = np.hstack((sums, sums ^ gens[:, i : i + 1]))
    h = (int(reps.max()).bit_length() + 1) // 2  # the handles the classes use
    pairs = np.bitwise_count(f2_swap(sums, h)[:, :, None] & gens[:, None, :]) & 1
    sizes = [1] * n
    for m in range(k, 2 * k):  # x_j is generator m, U spans the m before it
        zeros = (sums[:, : 1 << m] == 0).sum(axis=1)  # 2^(m - d)
        shifted = slice(1 << m, 2 << m)  # the sums x_j + u, u in U
        matches = (~pairs[:, shifted, :m].any(axis=2)).sum(axis=1) // zeros
        inside = (sums[:, shifted] == 0).any(axis=1)
        grow = zip(sizes, inside.tolist(), zeros.tolist(), matches.tolist())
        sizes = [s if i else s * ((z << (2 * g - m)) - c) for s, i, z, c in grow]
    ties = sum(code == types for code in _f2_codes(reps)).tolist()
    return [size // tie for size, tie in zip(sizes, ties)]


def f2_count_vertices(g, k):
    """Number of cut systems of size k over F2 at genus g: in order, each
    x_(j+1) is orthogonal to x_1, ..., x_j and outside their span."""
    return prod((1 << (2 * g - j)) - (1 << j) for j in range(k)) // factorial(k)


def f2_orbit_eccentricity(g, k, progress=None):
    """Eccentricity of the base vertex in the size-k shadow at genus g, its
    diameter, and the number of vertices it reached, for k <= 3.

    A move (B, X, y) spans at most 2k + 1 dimensions and pairs to 1 there, so
    it embeds at genus 2k: the type graph is the same for every g >= 2k, and
    the type BFS runs at genus min(g, 2k).  Each layer is sized at genus g by
    `_f2_orbit_sizes` and passed to progress(layer, size); InfiniteDiameter
    unless the layers hold every vertex."""
    if g < k:
        raise ValueError(f"no cut system of size {k} at genus {g}")
    if k > 3:
        raise ValueError(f"type codes of k = {k} take {2 * k * (k + (1 << k) - 1)} bits, past int64")
    layers = list(_f2_type_layers(min(g, 2 * k), k))
    types, reps = map(np.concatenate, zip(*layers))
    sizes = iter(_f2_orbit_sizes(reps, types, g))
    total = 0
    for ecc, (layer, _) in enumerate(layers):
        size = sum(islice(sizes, len(layer)))
        total += size
        if progress and ecc:
            progress(ecc, size)
    if total != f2_count_vertices(g, k):
        raise InfiniteDiameter(f"k = {k} shadow is disconnected")
    return ecc, total


# the k = 2 names the f2-diameter benchmark calls
def f2_gamma_k2_eccentricity(g, progress=None):
    return f2_orbit_eccentricity(g, 2, progress)


def f2_count_vertices_k2(g):
    return f2_count_vertices(g, 2)


# --- chain homology -----------------------------------------------------------


def coreduce(graph):
    """One BFS spanning forest and the kill pass over the cell boundaries.

    Vertices and edges are named by their positions in graph.vertices and
    graph.edges.  Returns (parent, kills, rows): parent[v] is the BFS parent
    of v (None at each component's root); kills lists, in order, the
    (cell, edge) pairs where the cell's boundary had one edge left outside the
    forest and the earlier kills, with coefficient +-1, and so killed it;
    rows[cell] is the cell's boundary {edge: coefficient} on the edges still
    live (empty for a killing cell, and for any cell with no live edge).  A
    boundary is a closed walk, and cycles project injectively onto the
    non-forest edges, so the rows lose no rank there; the kill rows form a
    unit triangular minor, zero on the live edges.
    """
    parent = [-1] * len(graph.vertices)
    for root in range(len(parent)):
        if parent[root] == -1:
            _bfs(graph.adj, root, parent)
    eid = {e: i for i, e in enumerate(graph.edges)}
    tree = {eid[min(v, p), max(v, p)] for v, p in enumerate(parent) if p is not None}
    rows, cols = [], {}
    for c, cell in enumerate(graph.cells):
        cyc = cell.cycle
        row = {}
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            e, sign = (eid[a, b], 1) if a < b else (eid[b, a], -1)
            if e not in tree:
                row[e] = row.get(e, 0) + sign
        rows.append({e: x for e, x in row.items() if x})
        for e in rows[-1]:
            cols.setdefault(e, []).append(c)
    kills = []
    queue = [c for c, row in enumerate(rows) if len(row) == 1 and abs(*row.values()) == 1]
    for c in queue:  # a queued row keeps its one +-1 entry unless a kill took it
        if rows[c]:
            (e,) = rows[c]
            kills.append((c, e))
            for other in cols.pop(e):
                row = rows[other]
                del row[e]
                if len(row) == 1 and abs(*row.values()) == 1:
                    queue.append(other)
    return parent, kills, rows


def chain_homology(graph):
    """Betti numbers (b0, b1) of the 2-complex.

    rank d1 is V minus the number of components, and rank d2 the number of
    kills of `coreduce` plus the rational rank of the rows it leaves.
    """
    parent, kills, rows = coreduce(graph)
    b0, left = parent.count(None), [row for row in rows if row]
    live = sorted({e for row in left for e in row})
    r = intlin.rational_rank([[row.get(e, 0) for e in live] for row in left])
    return b0, len(graph.edges) - (len(parent) - b0) - len(kills) - r
