"""Curve universes: uniform predicate hooks over the three curve backends.

A universe supplies exactly what the complex builders and the contraction
engine consume: an intersection shadow, a twist action, a cut-system test
relative to a frozen context, and (for the integer shadow) a stabilization
source handing out fresh handles, emulating genus drawn from a non-planar
end.
"""

from __future__ import annotations

from . import geomcurves, sympcurves
from .surfaces import SurfaceSpec, exhaust, stabilize
from .sympcurves import SympSpace


class Room:
    """Tracks how much genus the current exhaustion stage provides.

    fresh_pair() hands out the next unused handle (a_i, b_i), advancing the
    exhaustion when the stage runs dry; finite surfaces run out for good.
    """

    def __init__(self, spec):
        self.stage = exhaust(spec, 1)
        self.used = 0

    @property
    def genus(self):
        return self.stage.genus

    def ensure(self, genus):
        while self.stage.genus < genus:
            self.stage = stabilize(self.stage)
        self.used = max(self.used, genus)

    def fresh_pair(self):
        idx = self.used + 1
        while self.stage.genus < idx:
            self.stage = stabilize(self.stage)  # raises NoRoom on finite specs
        self.used = idx
        space = SympSpace(idx)
        return space.basis_a(idx), space.basis_b(idx)

    def space(self):
        return SympSpace(max(self.used, 1))


class SympZUniverse:
    """Integer homology shadow; the only backend with room to stabilize."""

    tag = "sympZ"
    enumerable = False

    def __init__(self, room):
        self.room = room

    def inter(self, x, y):
        return sympcurves.inter(x, y)

    def signed(self, x, y):
        return sympcurves.pairing(x, y)

    def twist(self, a, n, b):
        return sympcurves.transvect(a, n, b)

    def cut_ok(self, curves, context=()):
        return sympcurves.is_cut_shadow(curves, extra=list(context))

    def solve(self, constraints, orthogonal=(), forbid=()):
        g = max(
            [self.room.space().g]
            + [c.g for c, _ in constraints]
            + [c.g for c in orthogonal]
        )
        self.room.ensure(g)
        return sympcurves.solve_pairings(
            SympSpace(g), constraints, orthogonal=orthogonal, forbid=forbid
        )

    def key(self, x):
        return (len(x.coords), x.coords)


class SympF2Universe:
    """Mod-2 homology shadow at fixed genus; finite, fully enumerable."""

    tag = "sympF2"
    enumerable = True

    def __init__(self, g):
        self.g = g

    def all_curves(self):
        return range(1, 1 << (2 * self.g))

    def inter(self, x, y):
        return sympcurves.f2_pairing(x, y, self.g)

    signed = inter

    def twist(self, a, n, b):
        return sympcurves.f2_transvect(a, b, self.g) if n % 2 else b

    def cut_ok(self, curves, context=()):
        return sympcurves.f2_is_cut(list(curves) + list(context), self.g)

    def key(self, x):
        return x


class SlopeUniverse:
    """Exact slopes on the one-holed torus, enumerable within a box."""

    tag = "slope"
    enumerable = True
    g = 1

    def __init__(self, bound=2):
        self.bound = bound

    def all_curves(self):
        return geomcurves.all_slopes(self.bound)

    def inter(self, x, y):
        return geomcurves.islope(x, y)

    def signed(self, x, y):
        return geomcurves.slope_det(x, y)

    def twist(self, a, n, b):
        return geomcurves.twist_slope(a, n, b)

    def cut_ok(self, curves, context=()):
        # two distinct slopes always intersect: cut systems are singletons
        curves = list(curves)
        if len(curves) != 1 or context:
            return False
        return True

    def key(self, x):
        return (x.p, x.q)


def make_universe(backend, g=2, bound=2):
    """Factory used by the CLI and the test suites."""
    if backend == "sympF2":
        return SympF2Universe(g)
    if backend == "sympZ":
        room = Room(SurfaceSpec("catalog", catalog="loch_ness"))
        room.ensure(g)
        return SympZUniverse(room)
    if backend == "slope":
        return SlopeUniverse(bound)
    raise ValueError(f"unknown backend {backend!r}")
