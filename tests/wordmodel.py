"""The ribbon-graph word model: an exact, independent oracle for slope
intersection numbers, used by the test suite.

Curves are cyclically reduced words on a one-vertex ribbon graph modelling
any Sigma_{g,b} with b >= 1 (free fundamental group).  Word intersection
numbers are computed by counting linked occurrence pairs in the boundary
order of the unfolded fattened graph.  The fast path (`iword`) compares rays
recursively; the oracle (`iword_oracle`) materializes explicit boundary
itineraries for a taut (bigon-free) picture and reads the count off sorted
positions.  Both are exact, and the tests require them to agree with each
other and, through the cutting-sequence dictionary `slope_word`, with
`geomcurves.islope` on the one-holed torus.
"""

from __future__ import annotations

from dataclasses import dataclass


class BoundExceeded(ValueError):
    pass


class Inessential(ValueError):
    pass


# --- ribbon surfaces ---------------------------------------------------------


@dataclass(frozen=True)
class RibbonSurface:
    """One-vertex ribbon graph; edges are loops, labelled 1..n.

    The cyclic order lists signed half-edges, +e for the departure along e and
    -e for the departure along its reversal.  Genus and boundary count are
    derived from the boundary walks (chi = 1 - n = 2 - 2g - b).
    """

    edges: int
    cyclic_order: tuple

    def __post_init__(self):
        want = sorted(list(range(1, self.edges + 1)) + [-e for e in range(1, self.edges + 1)])
        if sorted(self.cyclic_order) != want:
            raise ValueError("cyclic order must list each signed half-edge once")

    @property
    def slots(self):
        return 2 * self.edges

    def boundary_walks(self):
        """Boundary components as tuples of signed edges (the walk words)."""
        order = self.cyclic_order
        pos = {h: i for i, h in enumerate(order)}
        succ = {}
        for h in order:
            # travel along h to its far end, then turn to the next slot
            succ[h] = order[(pos[-h] + 1) % len(order)]
        seen = set()
        walks = []
        for h in order:
            if h in seen:
                continue
            walk = []
            cur = h
            while cur not in seen:
                seen.add(cur)
                walk.append(cur)
                cur = succ[cur]
            walks.append(tuple(walk))
        return walks

    @property
    def boundary_count(self):
        return len(self.boundary_walks())

    @property
    def genus(self):
        b = self.boundary_count
        g2 = 1 + self.edges - b
        if g2 % 2:
            raise ArithmeticError(f"odd 2g = {g2}: not an orientable ribbon surface")
        return g2 // 2

    @classmethod
    def standard(cls, g, b):
        """Default model of Sigma_{g,b}: 2g handle edges plus b-1 monogon edges."""
        if b < 1:
            raise ValueError("word backend needs at least one boundary component")
        order = []
        for i in range(g):
            x, y = 2 * i + 1, 2 * i + 2
            order += [x, y, -x, -y]
        for j in range(b - 1):
            z = 2 * g + j + 1
            order += [z, -z]
        surf = cls(2 * g + b - 1, tuple(order))
        if (surf.genus, surf.boundary_count) != (g, b):
            raise ArithmeticError(f"standard model has genus {surf.genus}, {surf.boundary_count} boundaries")
        return surf


def _cyclic_reduce(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    while len(out) >= 2 and out[0] == -out[-1]:
        out = out[1:-1]
    return out


def _min_rotation(seq):
    best = seq
    for i in range(1, len(seq)):
        rot = seq[i:] + seq[:i]
        if rot < best:
            best = rot
    return best


def _canonical_cyclic(letters):
    """Least representative over rotations and orientation reversal."""
    fwd = _min_rotation(tuple(letters))
    rev = _min_rotation(tuple(-x for x in reversed(letters)))
    return min(fwd, rev)


class CyclicWord:
    """Cyclically reduced free-homotopy class of an essential closed curve."""

    __slots__ = ("letters", "surface")

    def __init__(self, letters, surface):
        red = _cyclic_reduce(list(letters))
        if not red:
            raise Inessential("null-homotopic word")
        for x in red:
            if x == 0 or abs(x) > surface.edges:
                raise ValueError(f"letter {x} is not an edge of the surface")
        canon = _canonical_cyclic(red)
        for walk in surface.boundary_walks():
            if _canonical_cyclic(_cyclic_reduce(list(walk))) == canon:
                raise Inessential("word is homotopic to a boundary component")
        object.__setattr__(self, "letters", canon)
        object.__setattr__(self, "surface", surface)

    def __setattr__(self, *a):
        raise AttributeError("CyclicWord is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, CyclicWord)
            and self.letters == other.letters
            and self.surface == other.surface
        )

    def __hash__(self):
        return hash((self.letters, self.surface.cyclic_order))

    def __lt__(self, other):
        return (len(self.letters), self.letters) < (len(other.letters), other.letters)

    def __len__(self):
        return len(self.letters)

    def __repr__(self):
        return "w" + "".join(f"{x:+d}" for x in self.letters)

    def root(self):
        """(primitive root letters, power)."""
        w = self.letters
        n = len(w)
        for d in range(1, n + 1):
            if n % d == 0 and w == w[:d] * (n // d):
                return w[:d], n // d
        raise AssertionError


# --- intersection numbers for words ------------------------------------------


def _ray_forward(word, start, depth):
    n = len(word)
    return tuple(word[(start + t) % n] for t in range(depth))


def _ray_backward(word, start, depth):
    n = len(word)
    return tuple(-word[(start - 1 - t) % n] for t in range(depth))


def _rank_string(surface, ray):
    """Itinerary of a ray in boundary coordinates.

    Entry 0 is the absolute slot of the first departure; entry t the position
    of departure t counted from the arrival direction (counterclockwise, the
    arrival itself excluded).
    """
    order = surface.cyclic_order
    pos = {h: i for i, h in enumerate(order)}
    nslots = len(order)
    out = [pos[ray[0]]]
    for t in range(1, len(ray)):
        d = -ray[t - 1]
        r = (pos[ray[t]] - pos[d]) % nslots
        if r == 0:
            raise ValueError("ray is not reduced")
        out.append(r)
    return tuple(out)


def _ccw(x, y, z, n):
    return 1 if ((y - x) % n) < ((z - x) % n) else -1


def _orient3(sa, sb, sc, nslots):
    """Cyclic orientation of three distinct rays given their rank strings."""
    a0, b0, c0 = sa[0], sb[0], sc[0]
    if a0 != b0 and b0 != c0 and a0 != c0:
        return _ccw(a0, b0, c0, nslots)
    if a0 == b0 != c0:
        return 1 if sa[1:] < sb[1:] else -1
    if b0 == c0 != a0:
        return 1 if sb[1:] < sc[1:] else -1
    if a0 == c0 != b0:
        return 1 if sc[1:] < sa[1:] else -1
    # all three inside one root branch: the arc is ordered linearly
    if sa < sb < sc or sb < sc < sa or sc < sa < sb:
        return 1
    return -1


def _visit_rays(word, p, depth):
    return _ray_backward(word, p, depth), _ray_forward(word, p, depth)


def _linked_fast(surface, wa, p, wb, q, depth):
    am, ap = _visit_rays(wa, p, depth)
    bm, bp = _visit_rays(wb, q, depth)
    rays = [am, ap, bm, bp]
    if len(set(rays)) != 4:
        # strands sharing a ray to this depth share it forever (Fine-Wilf);
        # coincident geodesics never cross transversally
        return False
    sam, sap, sbm, sbp = (_rank_string(surface, r) for r in rays)
    side_m = _orient3(sam, sbm, sap, surface.slots)
    side_p = _orient3(sam, sbp, sap, surface.slots)
    return side_m != side_p


def _linked_oracle(surface, wa, p, wb, q, depth):
    """Same question answered from explicit sorted boundary positions."""
    am, ap = _visit_rays(wa, p, depth)
    bm, bp = _visit_rays(wb, q, depth)
    tagged = [
        (_rank_string(surface, am), "a"),
        (_rank_string(surface, ap), "a"),
        (_rank_string(surface, bm), "b"),
        (_rank_string(surface, bp), "b"),
    ]
    if len({s for s, _ in tagged}) != 4:
        return False
    tagged.sort()
    tags = [t for _, t in tagged]
    return tags in (["a", "b", "a", "b"], ["b", "a", "b", "a"])


def _shares_back_edge(wa, p, wb, q):
    """Does the q-strand of wb run through the edge the p-strand arrived by?

    True when the strands fellow-travel (in either direction) across the edge
    behind the p-visit; the crossing of such a stretch is charged to the one
    vertex where this is false.
    """
    return wb[q - 1] == wa[p - 1] or wb[q % len(wb)] == -wa[p - 1]


def _count_crossings(surface, u, v, linked):
    ru, ku = u.root()
    rv, kv = v.root()
    if _canonical_cyclic(ru) == _canonical_cyclic(rv):
        return 0
    depth = len(ru) + len(rv) + 2
    total = 0
    for p in range(len(ru)):
        for q in range(len(rv)):
            if _shares_back_edge(ru, p, rv, q):
                continue
            if linked(surface, ru, p, rv, q, depth):
                total += 1
    return ku * kv * total


def iword(u, v, surface=None, bound=12):
    """Geometric intersection number of two free-homotopy classes."""
    surface = surface or u.surface
    if u.surface != surface or v.surface != surface:
        raise ValueError("words on different surfaces")
    if len(u) > bound or len(v) > bound:
        raise BoundExceeded(f"word longer than bound {bound}")
    if u == v:
        return 0
    return _count_crossings(surface, u, v, _linked_fast)


def iword_oracle(u, v, surface=None, bound=12):
    """Crossing count read off the taut unfolded picture (no bigons left)."""
    surface = surface or u.surface
    if len(u) > bound or len(v) > bound:
        raise BoundExceeded(f"word longer than bound {bound}")
    if u == v:
        return 0
    return _count_crossings(surface, u, v, _linked_oracle)


# --- the slope <-> word dictionary on Sigma_{1,1} ----------------------------


def slope_word(s, surface=None):
    """Cutting-sequence word of the slope s on the standard one-holed torus."""
    surface = surface or RibbonSurface.standard(1, 1)
    p, q = s.p, s.q
    sy = 1 if q >= 0 else -1
    q = abs(q)
    n = p + q
    if n == 0:
        raise ValueError("slope (0,0)")
    letters = []
    for i in range(n):
        if (i + 1) * p // n > i * p // n:
            letters.append(1)
        else:
            letters.append(2 * sy)
    return CyclicWord(letters, surface)
