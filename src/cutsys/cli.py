"""Batch front door: build complexes, measure them, contract loops, verify
certificates, and run the rigidity and invariant suites.

Every run is driven by a 64-bit seed and writes canonical JSON (sorted keys,
no timestamps), so identical configurations produce byte-identical reports.
Exit codes: 0 all assertions hold, 1 an assertion failed (first counterexample
in the report), 2 bad usage.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from math import gcd

from . import complexes as cx
from . import geomcurves, homotopy, rigidity, walks
from .sympcurves import HClass, SympSpace, inter, pairing, transvect
from .universe import make_universe


def _dump(obj, out):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _universe(args):
    return make_universe(args.backend, g=args.g, bound=args.bound)


def cmd_build(args):
    u = _universe(args)
    if args.schmutz:
        graph = cx.build_schmutz(u)
    else:
        graph = cx.build_gamma(u, args.k)
    report = graph.to_json()
    _dump(report, args.out)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(graph.to_dot() + "\n")
    return 0


def cmd_diam(args):
    u = _universe(args)
    if args.implicit:
        d, _ = cx.f2_orbit_eccentricity(args.g, args.k)
    else:
        d = cx.diameter(cx.build_gamma(u, args.k))
    ok = args.k <= d <= 8 * args.k - 4
    _dump(
        {"backend": args.backend, "g": u.g, "k": args.k, "diameter": d,
         "window": [args.k, 8 * args.k - 4], "in_window": ok},
        args.out,
    )
    return 0 if ok else 1


def cmd_homology(args):
    u = _universe(args)
    graph = cx.build_gamma(u, args.k)
    b0, b1 = cx.chain_homology(graph)
    _dump({"backend": args.backend, "g": u.g, "k": args.k, "b0": b0, "b1": b1}, args.out)
    return 0


def cmd_contract(args):
    rng = random.Random(args.seed)
    u = make_universe("sympZ", g=args.g)
    loop = walks.random_closed_walk(u, args.g, args.k, rng, steps=args.steps)
    if loop is None:
        print("loop sampling stalled", file=sys.stderr)
        return 1
    prover = homotopy.Prover(u)
    cert = homotopy.HomotopyCertificate(homotopy.contract(prover, loop))
    ok, idx = homotopy.verify_certificate(u, loop, cert)
    report = {
        "g": args.g,
        "k": args.k,
        "seed": args.seed,
        "loop": homotopy.loop_to_json(loop),
        "certificate": cert.to_json(),
        "verified": ok,
    }
    _dump(report, args.out)
    if not ok:
        print(f"certificate fails its replay at step {idx}", file=sys.stderr)
    return 0 if ok else 1


def _read_certificate(path):
    """Loop and certificate of a `cutsys contract` report; ValueError names
    what is malformed, so bad input exits 2 and only a replay failure exits 1."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: not a JSON object")
    for key in ("loop", "certificate"):
        if key not in data:
            raise ValueError(f"{path}: no {key!r} key")
    try:
        return homotopy.loop_from_json(data["loop"]), homotopy.HomotopyCertificate.from_json(data["certificate"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_verify(args):
    loop, cert = _read_certificate(args.input)
    g = max(c.g for v in loop for c in v)
    u = make_universe("sympZ", g=g)
    ok, idx = homotopy.verify_certificate(u, loop, cert)
    _dump({"verified": ok, "failing_step": idx}, args.out)
    return 0 if ok else 1


def cmd_rigidity(args):
    rng = random.Random(args.seed)
    u = make_universe("sympZ", g=args.g)
    S = SympSpace(args.g)
    pool = [S.basis_a(i) for i in range(1, args.g + 1)] + [
        S.basis_b(i) for i in range(1, args.g + 1)
    ]
    words = []
    for _ in range(args.words):
        n = rng.randint(1, 3)
        factors = tuple(
            (pool[rng.randrange(len(pool))], rng.choice((-2, -1, 1, 2)))
            for _ in range(n)
        )
        words.append(rigidity.TwistWord(factors))
    rep = rigidity.check_phi_psi(u, words, args.g, args.k, rng, curve_samples=args.samples)
    _dump({"suite": "phi-psi", **rep.to_json()}, args.out)
    return 0 if rep.passed else 1


def _props_tasks(args):
    def twist_identity():
        rng = random.Random(args.seed)

        def draw():
            while True:
                x = [rng.randint(-2, 2) for _ in range(6)]
                if gcd(*x) == 1:
                    return HClass(x)

        count = 0
        for _ in range(2000):
            u_, v_, w_ = draw(), draw(), draw()
            n = rng.randint(-5, 5)
            if inter(transvect(u_, n, v_), w_) != abs(pairing(v_, w_) + n * pairing(u_, v_) * pairing(u_, w_)):
                return {"name": "twist-identity", "checked": count,
                        "failed": [u_.to_json(), v_.to_json(), w_.to_json(), n]}
            count += 1
        return {"name": "twist-identity", "checked": count, "failed": None}

    def slope_inequality():
        slopes = geomcurves.all_slopes(3)
        count = 0
        for a in slopes:
            for b in slopes:
                for c in slopes:
                    for n in range(-4, 5):
                        lhs = abs(
                            geomcurves.islope(geomcurves.twist_slope(a, n, b), c)
                            - abs(n) * geomcurves.islope(a, b) * geomcurves.islope(a, c)
                        )
                        if lhs > geomcurves.islope(b, c):
                            return {
                                "name": "slope-inequality",
                                "checked": count,
                                "failed": [a.to_json(), b.to_json(), c.to_json(), n],
                            }
                        count += 1
        return {"name": "slope-inequality", "checked": count, "failed": None}

    def schmutz_equality():
        u = make_universe("sympF2", g=2)
        g1 = cx.build_gamma(u, 1)
        sm = cx.build_schmutz(u)
        same = g1.vertices == sm.vertices and set(g1.edges) == set(sm.edges)
        return {"name": "schmutz-identity", "checked": 1, "failed": None if same else "graphs differ"}

    def contract_roundtrip():
        rng = random.Random(args.seed)
        u = make_universe("sympZ", g=3)
        loop = walks.random_closed_walk(u, 3, 2, rng, steps=3)
        if loop is None:
            return {"name": "contract-roundtrip", "checked": 0, "failed": "sampling"}
        prover = homotopy.Prover(u)
        cert = homotopy.HomotopyCertificate(homotopy.contract(prover, loop))
        ok, idx = homotopy.verify_certificate(u, loop, cert)
        return {
            "name": "contract-roundtrip",
            "checked": 1,
            "failed": None if ok else f"step {idx}",
        }

    return [twist_identity, slope_inequality, schmutz_equality, contract_roundtrip]


def cmd_props(args):
    results = [f() for f in _props_tasks(args)]
    ok = all(r["failed"] is None for r in results)
    _dump({"suites": results, "passed": ok}, args.out)
    return 0 if ok else 1


def make_parser():
    p = argparse.ArgumentParser(
        prog="cutsys",
        description="cut-system complexes: build, measure, contract, verify",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=0, help="64-bit seed for all randomness")
    shared.add_argument("--out", default=None, help="report file (default: stdout)")
    sub = p.add_subparsers(dest="command", required=True)

    def common(q):
        # the enumerable backends: the sympZ universe has no finite vertex set
        q.add_argument("--backend", choices=("sympF2", "slope"), default="sympF2")
        q.add_argument("--g", type=int, default=2)
        q.add_argument("--k", type=int, default=1)
        q.add_argument("--bound", type=int, default=2, help="slope box bound")

    q = sub.add_parser("build", parents=[shared], help="build a complex, write JSON and DOT")
    common(q)
    q.add_argument("--schmutz", action="store_true", help="build the Schmutz graph")
    q.add_argument("--dot", default=None, help="also write DOT to this path")
    q.set_defaults(fn=cmd_build)

    q = sub.add_parser("diam", parents=[shared], help="exact diameter with the k..8k-4 window check")
    common(q)
    q.add_argument("--implicit", action="store_true", help="implicit BFS for big F2 graphs")
    q.set_defaults(fn=cmd_diam)

    q = sub.add_parser("homology", parents=[shared], help="Betti numbers of the 2-complex")
    common(q)
    q.set_defaults(fn=cmd_homology)

    q = sub.add_parser("contract", parents=[shared], help="contract a seeded random loop")
    q.add_argument("--g", type=int, default=3)
    q.add_argument("--k", type=int, default=2)
    q.add_argument("--steps", type=int, default=4)
    q.set_defaults(fn=cmd_contract)

    q = sub.add_parser("verify", parents=[shared], help="replay a certificate against its loop")
    q.add_argument("input", help="JSON file with loop and certificate")
    q.set_defaults(fn=cmd_verify)

    q = sub.add_parser("rigidity", parents=[shared], help="induced-map identity suites")
    q.add_argument("--g", type=int, default=3)
    q.add_argument("--k", type=int, default=2)
    q.add_argument("--words", type=int, default=8)
    q.add_argument("--samples", type=int, default=10)
    q.set_defaults(fn=cmd_rigidity)

    q = sub.add_parser("props", parents=[shared], help="invariant property suites")
    q.set_defaults(fn=cmd_props)

    return p


def _check_usage(args):
    """ValueError for a flag value no command can honour, before any work."""
    for flag in ("g", "k", "steps", "words", "samples"):
        if getattr(args, flag, 1) < 1:
            raise ValueError(f"--{flag} must be at least 1, got {getattr(args, flag)}")
    if getattr(args, "schmutz", False) and args.k != 1:
        raise ValueError(f"--schmutz builds the k = 1 Schmutz graph, got --k {args.k}")
    if getattr(args, "implicit", False) and args.backend != "sympF2":
        raise ValueError(f"--implicit needs --backend sympF2, got --backend {args.backend}")
    if getattr(args, "implicit", False) and args.k > 3:
        raise ValueError(f"implicit diameter supports k in {{1, 2, 3}}, got --k {args.k}")


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        _check_usage(args)
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
