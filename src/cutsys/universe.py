"""Curve universes: uniform predicate hooks over the three curve backends.

A universe supplies exactly what the complex builders and the contraction
engine consume: an intersection shadow, a twist action, a cut-system test
relative to a frozen context, and (for the integer shadow) a counter of
handles drawn so far, standing in for the genus a non-planar end of the
infinite-type surface always has to spare.
"""

from __future__ import annotations

from . import geomcurves, sympcurves
from .sympcurves import SympSpace


class Room:
    """Counts the handles drawn so far from a non-planar end.

    The end never runs out: fresh_pair() hands out handle (a_i, b_i) with
    i = used + 1.
    """

    def __init__(self):
        self.used = 0

    def ensure(self, genus):
        self.used = max(self.used, genus)

    def fresh_pair(self):
        self.used += 1
        space = SympSpace(self.used)
        return space.basis_a(self.used), space.basis_b(self.used)

    def space(self):
        return SympSpace(max(self.used, 1))


class SympZUniverse:
    """Integer homology shadow; the only backend that draws fresh handles."""

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


def make_universe(backend, g=2, bound=2):
    """Factory used by the CLI and the test suites."""
    if backend == "sympF2":
        return SympF2Universe(g)
    if backend == "sympZ":
        room = Room()
        room.ensure(g)
        return SympZUniverse(room)
    if backend == "slope":
        return SlopeUniverse(bound)
    raise ValueError(f"unknown backend {backend!r}")
