"""Seeded random closed walks in the integer-shadow complexes.

The generator performs a bounded random walk of elementary moves from a
standard basis vertex and closes it up with the bounded-length connecting
path.  Moves are kept tame: an in-curve never forms a separating-shadow pair
(orthogonal but imprimitive as a frame) with a curve already on the walk, so
the loops stay in the regime where the lattice shadows faithfully mirror
curves on a surface.
"""

from __future__ import annotations

from . import homotopy as H
from .sympcurves import SympSpace, is_primitive_frame


def _tame(universe, d, vertices):
    for v in vertices:
        for c in v:
            if c != d and universe.inter(c, d) == 0 and not is_primitive_frame([c, d]):
                return False
    return True


def random_step(universe, v, vertices, rng, g):
    """One random elementary move from v, or None if sampling stalls."""
    S = SympSpace(g)
    k = len(v)
    for _ in range(40):
        out = v[rng.randrange(k)]
        rest = tuple(c for c in v if c != out)
        d = universe.solve(
            [(out, rng.choice((1, -1)))] + [(c, 0) for c in rest]
        )
        if d is None:
            continue
        if rng.random() < 0.5:
            x = S.basis_a(rng.randrange(1, g + 1))
            if universe.inter(x, d) == 1 and all(
                universe.inter(x, c) == 0 for c in rest
            ):
                d = universe.twist(x, rng.choice((1, -1)), d)
        if d in v or universe.inter(out, d) != 1:
            continue
        w = tuple(sorted(rest + (d,)))
        if not universe.cut_ok(w):
            continue
        if not _tame(universe, d, list(vertices) + [w]):
            continue
        return w
    return None


def random_closed_walk(universe, g, k, rng, steps=4, max_len=16):
    """A closed walk of at most max_len moves starting at (a_1, ..., a_k)."""
    prover = H.Prover(universe)
    S = SympSpace(g)
    v0 = tuple(S.basis_a(i) for i in range(1, k + 1))
    for _ in range(20):
        v, path = v0, [v0]
        for _ in range(steps):
            w = random_step(universe, v, path, rng, g)
            if w is None:
                break
            path.append(w)
            v = w
        if v == v0:
            loop = path + [v0] if path[-1] != v0 else path
            if len(path) == 1:
                continue
        else:
            closing = H.connect(prover, v, v0)
            loop = path[:-1] + closing
        if loop[-1] != loop[0]:
            loop = loop + [loop[0]]
        if 2 <= len(loop) - 1 <= max_len:
            return tuple(loop)
    return None
