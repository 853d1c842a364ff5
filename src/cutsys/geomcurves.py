"""Slopes on the one-holed torus, the geometric curve backend.

A slope is a primitive (p, q) mod sign.  Its intersection number with
(p', q') is the determinant |pq' - qp'|, and twists act by transvection.
The test suite checks the intersection numbers against an independent
ribbon-graph word model.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True, order=True)
class Slope:
    """Primitive (p, q) mod sign: an essential simple closed curve on Sigma_{1,1}."""

    p: int
    q: int

    def __post_init__(self):
        if (self.p, self.q) == (0, 0):
            raise ValueError("slope (0,0) is not a curve")
        g = gcd(abs(self.p), abs(self.q))
        if g != 1:
            raise ValueError("slope must be primitive")
        if self.p < 0 or (self.p == 0 and self.q < 0):
            object.__setattr__(self, "p", -self.p)
            object.__setattr__(self, "q", -self.q)

    def to_json(self):
        return [self.p, self.q]


def slope_det(u, v):
    return u.p * v.q - u.q * v.p


def islope(u, v):
    """Geometric intersection number on the one-holed torus."""
    return abs(slope_det(u, v))


def twist_slope(a, n, b):
    """Image of b under the n-th twist power about a."""
    d = slope_det(a, b)
    return Slope(b.p + n * d * a.p, b.q + n * d * a.q)


def all_slopes(bound):
    """All slopes with |p|, |q| <= bound, canonical mod sign."""
    out = set()
    for p in range(0, bound + 1):
        for q in range(-bound, bound + 1):
            if (p, q) != (0, 0) and gcd(p, abs(q)) == 1:
                if p == 0 and q < 0:
                    continue
                out.add(Slope(p, q))
    return sorted(out)
