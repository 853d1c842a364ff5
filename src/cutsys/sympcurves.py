"""Homological curve shadows: primitive classes in a symplectic lattice.

A non-separating curve on a closed genus-g surface is modelled by its first
homology class: a primitive integer vector of length 2g, taken mod sign.  The
algebraic pairing |u^T J v| stands in for the geometric intersection number,
transvections stand in for Dehn twists, and "cut system" becomes "primitive
isotropic frame".  Coordinates are interleaved (a1, b1, a2, b2, ...), so a
class extends to any larger genus by zero padding; canonical representatives
drop trailing zero handle-pairs, which makes classes stable under
stabilization.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import zip_longest
from math import gcd, inf

from . import intlin


class SpaceMismatch(ValueError):
    pass


@dataclass(frozen=True)
class SympSpace:
    """Standard symplectic lattice of rank 2g with <a_i, b_i> = +1."""

    g: int

    def basis_a(self, i):
        """Class of the i-th a-curve (1-indexed)."""
        if not 1 <= i <= self.g:
            raise SpaceMismatch(f"no handle {i} at genus {self.g}")
        return HClass._make(((2 * i - 2, 1),))

    def basis_b(self, i):
        if not 1 <= i <= self.g:
            raise SpaceMismatch(f"no handle {i} at genus {self.g}")
        return HClass._make(((2 * i - 1, 1),))


def _support(pairs):
    """The canonical support of the class with these (index, value) pairs:
    zeros dropped, indices in order, the leading value positive."""
    s = sorted(p for p in pairs if p[1])
    g = gcd(*(x for _, x in s))
    if g == 0:
        raise ValueError("class of a non-separating curve must be nonzero")
    if g > 1:
        raise ValueError("imprimitive class is not a simple-curve shadow")
    return tuple(s) if s[0][1] > 0 else tuple((i, -x) for i, x in s)


class HClass:
    """Primitive homology class mod sign (shadow of a non-separating curve),
    interned: equal classes are one object, compared and hashed by identity.
    Stored sparse: `support` holds the (index, value) pairs of the nonzero
    coordinates in index order, and `g` is the genus of the highest one."""

    __slots__ = ("g", "support", "__weakref__")
    _live = weakref.WeakValueDictionary()  # canonical support -> the one instance

    def __new__(cls, coords):
        if len(coords) % 2:
            raise ValueError("coordinate vector must have even length")
        return cls.of_support(enumerate(coords))

    @classmethod
    def of_support(cls, pairs):
        """The class with these (index, value) pairs as its coordinates."""
        return cls._make(_support(pairs))

    @classmethod
    def _make(cls, support):
        obj = cls._live.get(support)
        if obj is None:
            obj = object.__new__(cls)
            object.__setattr__(obj, "g", support[-1][0] // 2 + 1)
            object.__setattr__(obj, "support", support)
            cls._live[support] = obj
        return obj

    def __reduce__(self):
        return HClass._make, (self.support,)

    @property
    def coords(self):
        """The dense canonical representative, of length 2g."""
        c = [0] * (2 * self.g)
        for i, x in self.support:
            c[i] = x
        return tuple(c)

    def __setattr__(self, *a):
        raise AttributeError("HClass is immutable")

    def __lt__(self, other):
        """The dense order (len(coords), coords), read off the supports."""
        if self.g != other.g:
            return self.g < other.g
        for p, q in zip_longest(self.support, other.support, fillvalue=(inf, 0)):
            if p != q:  # they first differ at min(i, j), where a missing pair is 0
                (i, x), (j, y) = p, q
                return x < 0 if i < j else 0 < y if j < i else x < y
        return False

    def __repr__(self):
        terms = []
        for i, x in self.support:
            name = ("a" if i % 2 == 0 else "b") + str(i // 2 + 1)
            if x == 1:
                terms.append(f"+{name}")
            elif x == -1:
                terms.append(f"-{name}")
            else:
                terms.append(f"{x:+d}{name}")
        s = "".join(terms)
        return s[1:] if s.startswith("+") else s

    def to_json(self):
        """[g, [[index, value], ...]]: the genus and the support."""
        return [self.g, [list(p) for p in self.support]]

    @classmethod
    def from_json(cls, obj):
        """The class of a to_json entry; ValueError unless the entry is
        exactly the canonical one that to_json writes."""
        if not (isinstance(obj, list) and len(obj) == 2 and type(obj[0]) is int and isinstance(obj[1], list)):
            raise ValueError("not a [genus, [[index, value], ...]] entry")
        g, pairs = obj
        last = -1
        for p in pairs:
            if not (isinstance(p, list) and len(p) == 2 and type(p[0]) is int and type(p[1]) is int):
                raise ValueError(f"{p!r} is not an [index, value] pair of integers")
            if p[0] <= last:
                raise ValueError("indices not strictly increasing from 0")
            if p[1] == 0:
                raise ValueError(f"zero value at index {p[0]}")
            last = p[0]
        if g != max(1, last // 2 + 1):
            raise ValueError(f"genus {g}, but the highest index {last} gives genus {max(1, last // 2 + 1)}")
        if pairs and pairs[0][1] < 0:
            raise ValueError("leading value negative: not the canonical sign")
        return cls.of_support(map(tuple, pairs))


_PAIR_CACHE = {}  # keyed on the interned classes themselves


def _pair(u, v):
    """<u, v> over u's support: each a_i meets b_i at +1, each b_i meets a_i at -1."""
    d = dict(v.support)
    s = 0
    for i, x in u.support:
        y = d.get(i ^ 1)
        if y:
            s += -x * y if i & 1 else x * y
    return s


def pairing(u, v):
    """Signed pairing of the canonical representatives of two classes."""
    key = (u, v)
    hit = _PAIR_CACHE.get(key)
    if hit is None:
        hit = _pair(u, v)
        _PAIR_CACHE[key] = hit
        if len(_PAIR_CACHE) > 1_000_000:
            _PAIR_CACHE.clear()
    return hit


def inter(u, v):
    """Intersection shadow |<u,v>| (well defined mod sign)."""
    return abs(pairing(u, v))


def lincomb(*terms):
    """The class of sum(n * c) over the (n, c) terms, each c an HClass."""
    d = {}
    for n, c in terms:
        for i, x in c.support:
            d[i] = d.get(i, 0) + n * x
    return HClass.of_support(d.items())


def transvect(a, n, b):
    """Class of the n-th twist power of b about a."""
    c = n * _pair(a, b)
    return lincomb((1, b), (c, a)) if c else b


def combine(x, sign, y):
    """The class of x + sign * y."""
    return lincomb((1, x), (sign, y))


def is_primitive_frame(classes):
    """True iff the classes stack to a matrix whose Smith invariant factors
    are all 1 (a primitive frame).  Only the columns where some class is
    nonzero are stacked: a zero column changes no factor."""
    rows = [dict(c.support) for c in classes]
    cols = sorted({j for r in rows for j in r})
    return intlin.is_primitive_stack([[r.get(j, 0) for j in cols] for r in rows])


# keyed on the interned classes in id order: a key holds its classes, so their
# ids cannot be reused while it is cached
_CUT_CACHE = {}


def is_cut_shadow(classes, extra=()):
    """Shadow of the cut-system predicate.

    True iff the classes are pairwise distinct and orthogonal, orthogonal to
    every class in `extra` (curves already cut along), and the full stack has
    all Smith invariant factors 1: a primitive frame, hence extendable to a
    symplectic basis.
    """
    classes = list(classes)
    extra = list(extra)
    if not classes:
        raise ValueError("a cut system has at least one curve")
    key = (tuple(sorted(classes, key=id)), tuple(sorted(extra, key=id)))
    hit = _CUT_CACHE.get(key)
    if hit is not None:
        return hit
    result = _cut_shadow_uncached(classes, extra)
    _CUT_CACHE[key] = result
    if len(_CUT_CACHE) > 200_000:
        _CUT_CACHE.clear()
    return result


def _cut_shadow_uncached(classes, extra):
    if len(set(classes)) != len(classes):
        return False
    for i, u in enumerate(classes):
        for v in classes[i + 1 :]:
            if pairing(u, v) != 0:
                return False
        for f in extra:
            if pairing(u, f) != 0:
                return False
        if u in extra:
            return False
    return is_primitive_frame(classes + extra)


def solve_pairings(space, constraints, orthogonal=(), forbid=()):
    """Find a primitive class x with <x, u_i> = t_i for every (u_i, t_i).

    `orthogonal` adds <x, f> = 0 constraints.  Returns None when the linear
    system has no integer solution; when every solution found is imprimitive,
    small kernel perturbations are searched for a primitive representative.
    """
    g = space.g
    rows, rhs = [], []
    for u, t in [*constraints, *((f, 0) for f in orthogonal)]:
        if u.g > g:
            raise SpaceMismatch(f"class needs genus {u.g}, space has {g}")
        row = [0] * (2 * g)  # row . x = <u, x>
        for i, x in u.support:
            row[i ^ 1] = -x if i & 1 else x
        rows.append(row)
        rhs.append(t)
    if not rows:
        return space.basis_a(1)
    sol = intlin.solve_integer(rows, rhs)
    if sol is None:
        return None
    forbid = set(forbid)
    if gcd(*sol) == 1:
        c = HClass(sol)
        if c not in forbid:
            return c
    kb = intlin.kernel_basis(rows)
    for radius in (1, 2, 3):
        for vec in _box_walk(len(kb), radius):
            cand = sol[:]
            for coef, b in zip(vec, kb):
                if coef:
                    cand = [x + coef * y for x, y in zip(cand, b)]
            if any(cand) and gcd(*cand) == 1:
                c = HClass(cand)
                if c not in forbid:
                    return c
    return None


def _box_walk(dim, radius):
    for i in range(dim):
        for s in (radius, -radius):
            vec = [0] * dim
            vec[i] = s
            yield vec
    for i in range(dim):
        for j in range(i + 1, dim):
            for si in (radius, -radius):
                for sj in (radius, -radius):
                    vec = [0] * dim
                    vec[i], vec[j] = si, sj
                    yield vec


# --- F2 classes ------------------------------------------------------------


def f2_swap(u, g):
    """Swap the a and b bit of every handle: bit 2i holds a_(i+1), bit 2i+1
    holds b_(i+1). Works on Python ints and on uint32 arrays alike."""
    m = (4**g - 1) // 3  # the a bits
    return ((u & m) << 1) | ((u >> 1) & m)


def f2_pairing(u, v, g):
    """Symplectic pairing mod 2 of two bitmask vectors."""
    return (f2_swap(u, g) & v).bit_count() & 1


def f2_transvect(a, b, g):
    """Twist action mod 2: b + <a,b> a."""
    return b ^ (a if f2_pairing(a, b, g) else 0)


def f2_rank(vectors):
    """Rank over F2 of bitmask vectors: each is reduced by an echelon basis
    kept in descending order, and joins it unless it reduces to zero."""
    basis = []
    for x in vectors:
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
            basis.sort(reverse=True)
    return len(basis)


def f2_is_cut(classes, g):
    """Pairwise orthogonal, nonzero, and linearly independent over F2."""
    cl = list(classes)
    for i, u in enumerate(cl):
        for v in cl[i + 1 :]:
            if f2_pairing(u, v, g):
                return False
    return f2_rank(cl) == len(cl)
