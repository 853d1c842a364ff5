"""Induced curve maps of complex automorphisms, and the sampled identities
pinning them to twist actions.

An automorphism is only ever available as an oracle on a finite ball.  From
it the curve-level map is read off as the unique curve in f(v) - f(w) for a
move v <-> w swapping the queried curve; the module checks well-definedness
over companion choices, the homomorphism law of the induced-map assignment,
and the pointwise match with the underlying twist word.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import homotopy as H
from .sympcurves import SympSpace


class NotAnAutomorphism(ValueError):
    pass


@dataclass(frozen=True)
class TwistWord:
    """Composition of twist powers, leftmost applied last."""

    factors: tuple  # ((curve, exponent), ...)

    def act(self, universe, c):
        for curve, exp in reversed(self.factors):
            c = universe.twist(curve, exp, c)
        return c

    def __mul__(self, other):
        return TwistWord(self.factors + other.factors)

    @property
    def trivial(self):
        """True iff the word freely reduces to nothing: adjacent powers of one
        curve merge by summing exponents, and a zero power drops out."""
        reduced = []
        for c, e in self.factors:
            if reduced and reduced[-1][0] == c:
                e += reduced.pop()[1]
            if e:
                reduced.append((c, e))
        return not reduced


def twist_oracle(universe, word):
    """Vertex map of the twist word on cut systems, as a plain callable."""

    def fn(v):
        return tuple(sorted(word.act(universe, c) for c in v))

    return fn


@dataclass
class InducedCurveMap:
    """The curve-level map read off an automorphism oracle, built lazily."""

    universe: object
    oracle: object  # vertex map on cut systems
    k: int
    g: int
    cache: dict = field(default_factory=dict)

    def __call__(self, a):
        if a not in self.cache:
            self.cache[a] = induced_curve_map(self.universe, self.oracle, a, self.k, self.g)
        return self.cache[a]


def _companions(universe, a, k, g, rng=None):
    """Curves completing a to a cut system of size k."""
    rng = rng or random.Random(0)
    out = []
    space = SympSpace(g)
    for _ in range(200):
        if len(out) == k - 1:
            break
        cons = [(a, 0)] + [(c, 0) for c in out]
        pool = [space.basis_a(i) for i in range(1, g + 1)] + [
            space.basis_b(i) for i in range(1, g + 1)
        ]
        x = pool[rng.randrange(len(pool))]
        jitter = [(x, rng.choice((0, 1)))]
        d = universe.solve(cons + jitter, forbid=tuple(out) + (a,))
        if d is None:
            continue
        if universe.cut_ok(tuple(out) + (d, a)):
            out.append(d)
    if len(out) != k - 1:
        raise NotAnAutomorphism("could not complete the curve to a cut system")
    return tuple(out)


def _partner(universe, a, companions):
    d = universe.solve([(a, 1)] + [(c, 0) for c in companions], forbid=(a,) + tuple(companions))
    if d is None or not universe.cut_ok(tuple(companions) + (d,)):
        raise NotAnAutomorphism("no partner curve meeting the query once")
    return d


def induced_curve_map(universe, oracle, a, k, g, companions=None, partner=None):
    """The unique curve in f(v) - f(w) for a move v <-> w swapping a."""
    companions = companions or _companions(universe, a, k, g)
    b = partner or _partner(universe, a, companions)
    v = tuple(sorted((a,) + companions))
    w = tuple(sorted((b,) + companions))
    fv, fw = oracle(v), oracle(w)
    if not H.check_path(universe, [fv, fw]):
        raise NotAnAutomorphism("oracle does not preserve the elementary move")
    diff = set(fv) - set(fw)
    if len(diff) != 1:
        raise NotAnAutomorphism("image systems do not differ in one curve")
    return next(iter(diff))


@dataclass
class Report:
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures

    def to_json(self):
        return {
            "checked": self.checked,
            "failed": len(self.failures),
            "first_counterexample": repr(self.failures[0]) if self.failures else None,
        }


def check_phi_psi(universe, words, g, k, rng, curve_samples=30):
    """Homomorphism, pointwise-match, and moving-vertex identities for the
    induced maps of twist words."""
    rep = Report()
    space = SympSpace(g)
    pool = [space.basis_a(i) for i in range(1, g + 1)] + [
        space.basis_b(i) for i in range(1, g + 1)
    ]

    def random_curve():
        while True:
            cons = [(pool[rng.randrange(len(pool))], rng.choice((0, 1, 1)))]
            d = universe.solve(cons)
            if d is not None:
                return d

    for word in words:
        fmap = InducedCurveMap(universe, twist_oracle(universe, word), k, g)
        for _ in range(curve_samples):
            a = random_curve()
            rep.checked += 1
            if fmap(a) != word.act(universe, a):
                rep.failures.append(("pointwise", word, a))
        if not word.trivial:
            moved = False
            for i in range(1, g + 1):
                for c in (space.basis_a(i), space.basis_b(i)):
                    if word.act(universe, c) != c:
                        moved = True
            rep.checked += 1
            if not moved:
                rep.failures.append(("kernel-witness", word))
    for w1 in words[: len(words) // 2]:
        for w2 in words[len(words) // 2 :]:
            composite = w1 * w2
            f1 = InducedCurveMap(universe, twist_oracle(universe, w1), k, g)
            f2 = InducedCurveMap(universe, twist_oracle(universe, w2), k, g)
            fc = InducedCurveMap(universe, twist_oracle(universe, composite), k, g)
            for _ in range(3):
                a = random_curve()
                rep.checked += 1
                if f1(f2(a)) != fc(a):
                    rep.failures.append(("homomorphism", w1, w2, a))
    return rep
