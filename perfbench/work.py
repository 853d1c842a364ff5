"""One benchmark pass of a workload, run in a fresh interpreter by run.py.

    python3 perfbench/work.py --workload NAME --seed N --mode setup|pass|traced [--smoke]

The child imports cutsys, generates the seeded inputs (the set-up), and with
--mode pass or traced runs every cutsys call of the workload once, checking
each output.  It prints one JSON line: the wall clock when set-up ended (the
parent subtracts its spawn time), the timed phases, the total and slowest
call, the checks attempted and failed, a digest of the outputs and the peak
RSS.  With --mode traced the calls run under perfbench/layertrace.py and the
line also holds the per-layer metrics.

Inputs must reach the program only through its public API; nothing here
patches cutsys except the traced mode's wrappers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import time

import numpy
from cutsys import complexes as cx
from cutsys import homotopy as H
from cutsys import walks
from cutsys.sympcurves import HClass
from cutsys.universe import make_universe

clock = time.perf_counter

# The contract-verify loops are the criterion-6 sequence of the acceptance
# suite (generator seed 606), so their cost is the same for every --seed: 5-7%
# of these loops (k = 3, g >= 4) take 2-10 s each, and a seed-dependent loop
# set moves the total by about 45% between seeds.  --seed orders the
# contractions and places the mutations.
CORPUS_SEED = 606
CORPUS_LOOPS = {"full": 104, "smoke": 4}

# Values computed by the seed code.  Diameters, counts and Betti numbers are
# theorems or fixed combinatorics of these finite complexes; a change to any of
# them is a wrong answer, not a benchmark drift.
K2_DIAMETER = 4  # k = 2 mod-2 shadow at g = 3, 4, 5
GAMMA1_DIAMETER = 2  # mod-2 Schmutz shadow at every g >= 2
EXPECTED_COMPLEXES = {
    # (g, k): (vertices, edges, triangles, rectangles, pentagons, diameter)
    (2, 1): (15, 60, 80, 0, 0, 2),
    (2, 2): (45, 180, 120, 90, 72, 3),
    (3, 1): (63, 1008, 5376, 0, 0, 2),
}
EXPECTED_BETTI = {(2, 1): (1, 0), (2, 2): (1, 0)}

F2_K2_GENERA = {"full": (3, 4, 5), "smoke": (3,)}
F2_K1_GENUS = {"full": 6, "smoke": 3}
CH_BUILDS = {"full": ((2, 1), (2, 2), (3, 1)), "smoke": ((2, 1),)}
CH_HOMOLOGY = {"full": ((2, 1), (2, 2)), "smoke": ((2, 1),)}


class Pass:
    """Timers, per-call times, checks and counts of one pass."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.marks = {}  # phase name -> traced call counts when it ended
        self.phases = {}  # phase name -> seconds
        self.calls = []  # (label, seconds) of each timed cutsys call
        self.extra = {}  # reported values that are not phase times
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.counts = {}
        self.digest = hashlib.sha256()

    def timed(self, phase, label, fn, *args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            d = clock() - t0
            self.phases[phase] = self.phases.get(phase, 0.0) + d
            self.calls.append((label, d))

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def mark(self, phase):
        if self.tracer is not None:
            self.marks[phase] = {n: st.calls for n, st in self.tracer.stats.items()}

    def record(self, obj):
        self.digest.update(json.dumps(obj, sort_keys=True).encode())


# --- contract-verify ------------------------------------------------------------


def sample_corpus(n):
    """The first n loops of the criterion-6 distribution for CORPUS_SEED."""
    rng = random.Random(CORPUS_SEED)
    loops = []
    calls = 0
    while len(loops) < n:
        calls += 1
        if calls > 20 * n:
            raise RuntimeError("loop sampling stalled")
        g = rng.choice((2, 3, 4, 5))
        k = min(rng.choice((1, 2, 3)), max(1, g - 1))
        u = make_universe("sympZ", g=g)
        loop = walks.random_closed_walk(u, g, k, rng, steps=rng.randint(2, 6))
        if loop is not None:
            loops.append(loop)
    return loops


def loop_json(loop):
    return [[c.to_json() for c in v] for v in loop]


def loop_from_json(obj):
    return tuple(tuple(sorted(HClass.from_json(c) for c in v)) for v in obj)


def loop_genus(loop):
    return max(c.g for v in loop for c in v)


def mutate(cert, rng):
    """A corrupted copy of a certificate that a sound replay must reject."""
    steps = list(cert.steps)
    i = rng.randrange(len(steps))
    s = steps[i]
    mode = rng.choice(("window", "drop", "fill"))
    if mode == "drop" and len(steps) > 1:
        del steps[i]
    elif mode == "fill" and s.op == H.CELL_FILL and len(s.new) > 2:
        new = list(s.new)
        new[1] = new[1][::-1] if len(new[1]) > 1 else (new[1][0], new[1][0])
        steps[i] = H.Step(s.op, s.at, s.old, tuple(new), s.kind)
    else:
        old = list(s.old)
        old[0] = old[0] + (old[0][0],)
        steps[i] = H.Step(s.op, s.at, tuple(old), s.new, s.kind)
    return H.HomotopyCertificate(steps)


def replay(loop, cert):
    """Replay in a universe rebuilt from the loop alone, as `cutsys verify` does."""
    u = make_universe("sympZ", g=loop_genus(loop))
    ok, _ = H.verify_certificate(u, loop, cert)
    return ok


def roundtrip_verify(loop, cert):
    """`cutsys contract | cutsys verify`: the report goes through JSON text."""
    text = json.dumps({"loop": loop_json(loop), "certificate": cert.to_json()}, sort_keys=True)
    data = json.loads(text)
    cert2 = H.HomotopyCertificate.from_json(data["certificate"])
    return replay(loop_from_json(data["loop"]), cert2), text


class ContractVerify:
    def __init__(self, seed, size):
        self.loops = sample_corpus(CORPUS_LOOPS[size])
        self.rng = random.Random(seed)
        self.order = list(range(len(self.loops)))
        self.rng.shuffle(self.order)

    def run(self, p):
        certs = [None] * len(self.loops)
        for i in self.order:
            loop = self.loops[i]
            u = make_universe("sympZ", g=loop_genus(loop))
            before = u.room.used
            try:
                steps = p.timed("contract_s", "contract", H.contract, H.Prover(u), loop)
            except Exception as exc:  # any raise is a failed loop, reported by name
                p.check(False, f"loop {i}: {type(exc).__name__}: {exc}")
                continue
            certs[i] = H.HomotopyCertificate(steps)
            drawn = u.room.used - before
            p.counts["genus_drawn.max"] = max(p.counts.get("genus_drawn.max", 0), drawn)
            p.add("genus_drawn.sum", drawn)
            for s in steps:
                p.add("cert.steps", 1)
                p.add("cert." + s.op, 1)
                if s.kind:
                    p.add("cert." + s.kind, 1)
        p.mark("contract")
        for i, cert in enumerate(certs):
            if cert is None:
                continue
            ok, text = p.timed("verify_s", "verify", roundtrip_verify, self.loops[i], cert)
            p.check(ok, f"loop {i}: certificate rejected")
            p.add("verify.steps", len(cert))
            p.digest.update(text.encode())
        # one mutant per certificate, so the replay cost does not depend on
        # which certificates the seed happens to pick
        for i, cert in enumerate(certs):
            if cert is None:
                continue
            while True:
                bad = mutate(cert, self.rng)
                if bad.steps != cert.steps:
                    break
            ok = p.timed("verify_s", "verify", replay, self.loops[i], bad)
            p.check(not ok, f"mutant of loop {i} accepted")
            p.add("verify.steps", len(bad))
        times = [d for label, d in p.calls if label == "contract"]
        if len(times) >= 2:
            p.extra["contract_p95_ms"] = statistics.quantiles(times, n=20)[-1] * 1e3
            p.extra["contract_loops"] = len(times)


# --- f2-diameter -----------------------------------------------------------------


class F2Diameter:
    def __init__(self, seed, size):
        rng = random.Random(seed)
        self.k2 = list(F2_K2_GENERA[size])
        self.k1 = F2_K1_GENUS[size]
        # the group acts transitively on nonzero classes: any start is valid
        self.start = rng.randrange(1, 1 << (2 * self.k1))
        self.queries = [("k2", g) for g in self.k2] + [("k1", self.k1), ("cross", 2)]
        rng.shuffle(self.queries)

    def run(self, p):
        for kind, g in self.queries:
            if kind == "k2":
                layers = []
                progress = None
                if p.tracer is not None:
                    t_last = [clock()]

                    def progress(d, size):
                        now = clock()
                        layers.append((size, now - t_last[0]))
                        t_last[0] = now

                ecc, total = p.timed(
                    "diam_s", f"k2 g={g}", cx.f2_gamma_k2_eccentricity, g, progress=progress
                )
                p.check(ecc == K2_DIAMETER, f"k2 g={g}: eccentricity {ecc}")
                p.check(total == cx.f2_count_vertices_k2(g), f"k2 g={g}: {total} vertices")
                p.record(["k2", g, ecc, total])
                p.add("bfs.vertices", total)
                for size, dt in layers:
                    p.add("bfs_layer.count", 1)
                    p.counts["bfs_layer.max_s"] = max(p.counts.get("bfs_layer.max_s", 0.0), dt)
                    p.counts["bfs_layer.max_frontier"] = max(
                        p.counts.get("bfs_layer.max_frontier", 0), size
                    )
            elif kind == "k1":
                d = p.timed("diam_s", f"k1 g={g}", cx.f2_gamma1_eccentricity, g, start=self.start)
                p.check(d == GAMMA1_DIAMETER, f"k1 g={g}: eccentricity {d}")
                p.record(["k1", g, d])
            else:
                u = make_universe("sympF2", g=g)
                ecc2, total = p.timed("diam_s", "implicit k=2", cx.f2_gamma_k2_eccentricity, g)
                p.add("bfs.vertices", total)
                implicit = {1: p.timed("diam_s", "implicit k=1", cx.f2_gamma1_eccentricity, g), 2: ecc2}
                for k in (1, 2):
                    graph = p.timed("diam_s", f"build g={g} k={k}", cx.build_gamma, u, k)
                    count_complex(p, graph)
                    explicit = p.timed("diam_s", f"diameter g={g} k={k}", cx.diameter, graph)
                    p.check(implicit[k] == explicit, f"g={g} k={k}: implicit {implicit[k]} != {explicit}")
                    p.record(["cross", g, k, implicit[k], explicit])


# --- complex-homology ------------------------------------------------------------


def count_complex(p, graph):
    p.add("complexes.vertices", len(graph.vertices))
    p.add("complexes.edges", len(graph.edges))
    for kind in ("triangle", "rectangle", "pentagon"):
        p.add("complexes.cells." + kind, sum(c.kind == kind for c in graph.cells))


class ComplexHomology:
    def __init__(self, seed, size):
        rng = random.Random(seed)
        self.builds = list(CH_BUILDS[size])
        rng.shuffle(self.builds)
        self.homology = list(CH_HOMOLOGY[size])
        rng.shuffle(self.homology)

    def run(self, p):
        graphs = {}
        for g, k in self.builds:
            u = make_universe("sympF2", g=g)
            graph = graphs[g, k] = p.timed("build_s", f"build g={g} k={k}", cx.build_gamma, u, k)
            count_complex(p, graph)
            d = p.timed("build_s", f"diameter g={g} k={k}", cx.diameter, graph)
            kinds = tuple(
                sum(c.kind == kind for c in graph.cells) for kind in ("triangle", "rectangle", "pentagon")
            )
            nv, ne, nt, nr, npn, diam = EXPECTED_COMPLEXES[g, k]
            p.check(len(graph.vertices) == nv, f"g={g} k={k}: {len(graph.vertices)} vertices")
            p.check(len(graph.edges) == ne, f"g={g} k={k}: {len(graph.edges)} edges")
            p.check(kinds == (nt, nr, npn), f"g={g} k={k}: cells {kinds}")
            p.check(d == diam, f"g={g} k={k}: diameter {d}")
            p.record(["build", g, k, graph.to_json(), d])
            if k == 1:
                s = p.timed("build_s", f"schmutz g={g}", cx.build_schmutz, u)
                same = s.vertices == graph.vertices and set(s.edges) == set(graph.edges)
                p.check(same, f"g={g}: Schmutz graph differs from the k=1 complex")
        for g, k in self.homology:
            graph = graphs[g, k]
            p.add("complexes.d2.entries", sum(len(c.cycle) for c in graph.cells))
            betti = p.timed("homology_s", f"homology g={g} k={k}", cx.chain_homology, graph)
            p.check(tuple(betti) == EXPECTED_BETTI[g, k], f"g={g} k={k}: betti {betti}")
            p.record(["homology", g, k, list(betti)])


WORKLOADS = {
    "contract-verify": ContractVerify,
    "f2-diameter": F2Diameter,
    "complex-homology": ComplexHomology,
}


# --- per-layer metrics from a traced pass -----------------------------------------


def layer_metrics(tracer, p, walk_stats):
    st = tracer.stats

    def get(name, field="calls"):
        s = st.get(name)
        return getattr(s, field) if s is not None else 0

    def ratio(a, b):
        return a / b if b else 0.0

    c = p.counts
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def calls_s(name):
        put(name + ".calls", get(name), "count")
        put(name + ".s", get(name, "s"), "s")

    calls_s("homotopy.contract")
    put("homotopy.contract.self_s", get("homotopy.contract", "self_s"), "s")
    durations = st["homotopy.contract"].durations if "homotopy.contract" in st else []
    put("homotopy.contract.p50_ms", statistics.median(durations) * 1e3 if durations else 0.0, "ms")
    for name in ("connect", "path_common", "contract_radius0"):
        calls_s("homotopy." + name)
    put("homotopy.hex_escorts.calls", get("homotopy.hex_escorts"), "count")
    calls_s("homotopy.cell_pattern")
    # checks per emitted fill while proving; the verify phase adds one per fill
    proving = p.marks.get("contract", {}).get("homotopy.cell_pattern", 0)
    put("homotopy.cell_pattern.per_fill", ratio(proving, c.get("cert.cell_fill", 0)), "ratio")
    for name in ("steps", "cell_fill", "backtrack_insert", "backtrack_remove", "triangle", "rectangle", "pentagon"):
        short = {"backtrack_insert": "bt_insert", "backtrack_remove": "bt_remove"}.get(name, name)
        put("homotopy.cert." + short, c.get("cert." + name, 0), "count")
    put("homotopy.verify_certificate.s", get("homotopy.verify_certificate", "s"), "s")
    put("homotopy.verify_certificate.steps", c.get("verify.steps", 0), "count")
    # the JSON round trip and universe rebuild around each replay
    verify_s = p.phases.get("verify_s", 0.0)
    put("homotopy.cert_json.s", max(0.0, verify_s - get("homotopy.verify_certificate", "s")), "s")

    put("universe.genus_drawn.sum", c.get("genus_drawn.sum", 0), "count")
    put("universe.genus_drawn.max", c.get("genus_drawn.max", 0), "count")
    calls_s("universe.solve")
    put("universe.inter.calls", get("universe.inter"), "count")
    put("universe.cut_ok.calls", get("universe.cut_ok"), "count")

    for name in ("pairing", "is_cut_shadow", "solve_pairings", "f2_pairing", "f2_is_cut"):
        calls_s("sympcurves." + name)
    put("sympcurves.is_cut_shadow.self_s", get("sympcurves.is_cut_shadow", "self_s"), "s")

    calls_s("intlin.is_primitive_stack")
    put(
        "intlin.is_primitive_stack.per_cut_test",
        ratio(get("intlin.is_primitive_stack"), get("sympcurves.is_cut_shadow")),
        "ratio",
    )
    calls_s("intlin.smith_normal_form")
    put("intlin.smith_normal_form.entries", get("intlin.smith_normal_form", "entries"), "count")
    put("intlin.invariant_factors.s", get("intlin.invariant_factors", "s"), "s")
    calls_s("intlin.rational_rank")

    for name in ("build_gamma", "diameter", "chain_homology"):
        put(f"complexes.{name}.s", get("complexes." + name, "s"), "s")
    put("complexes.build_gamma.self_s", get("complexes.build_gamma", "self_s"), "s")
    put("complexes.vertices", c.get("complexes.vertices", 0), "count")
    put("complexes.edges", c.get("complexes.edges", 0), "count")
    for kind in ("triangle", "rectangle", "pentagon"):
        put("complexes.cells." + kind, c.get("complexes.cells." + kind, 0), "count")
    put("complexes.d2.entries", c.get("complexes.d2.entries", 0), "count")
    ecc_s = get("complexes.f2_gamma_k2_eccentricity", "s") + get("complexes.f2_gamma1_eccentricity", "s")
    put("complexes.f2_eccentricity.s", ecc_s, "s")
    put("complexes.bfs_layer.count", c.get("bfs_layer.count", 0), "count")
    put("complexes.bfs_layer.max_s", c.get("bfs_layer.max_s", 0.0), "s")
    put("complexes.bfs_layer.max_frontier", c.get("bfs_layer.max_frontier", 0), "count")
    k2_s = get("complexes.f2_gamma_k2_eccentricity", "s")
    put("complexes.bfs.vertices_per_s", ratio(c.get("bfs.vertices", 0), k2_s), "1/s")

    put("walks.random_closed_walk.calls", walk_stats["calls"], "count")
    put("walks.random_closed_walk.s", walk_stats["s"], "s")
    put("walks.accept_ratio", ratio(walk_stats["accepted"], walk_stats["calls"]), "ratio")
    return out


# --- entry point -------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "pass", "traced"))
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    ap.add_argument("--spans", default=None, help="traced mode: write the span records here")
    args = ap.parse_args(argv)
    size = "smoke" if args.smoke else "full"

    tracer = None
    if args.mode == "traced":
        import cutsys
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install(cutsys)
    workload = WORKLOADS[args.workload](args.seed, size)
    setup_done = time.time()
    out = {"setup_done": setup_done}
    if args.mode != "setup":
        if tracer is not None:
            # loop sampling is set-up: keep its numbers, then count the pass alone
            ws = tracer.stat("walks.random_closed_walk")
            walk_stats = {
                "calls": ws.calls,
                "s": ws.s,
                "accepted": len(getattr(workload, "loops", ())),
            }
            tracer.reset()
        p = Pass(tracer)
        workload.run(p)
        out.update(
            phases=p.phases,
            extra=p.extra,
            total_s=sum(d for _, d in p.calls),
            slowest_s=max((d for _, d in p.calls), default=0.0),
            slowest_call=max(p.calls, key=lambda c: c[1], default=("", 0))[0],
            attempted=p.attempted,
            failed=p.failed,
            failures=p.failures,
            digest=p.digest.hexdigest(),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            python=sys.version.split()[0],
            numpy=numpy.__version__,
        )
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = layer_metrics(tracer, p, walk_stats)
            out["untraced_targets"] = tracer.missing
            if args.spans:
                tracer.dump_spans(args.spans)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
