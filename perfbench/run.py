"""The cutsys benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass of the workload runs in a fresh
interpreter (perfbench/work.py), because the pairing and cut-test caches of
cutsys are module-global and peak memory is only meaningful per process.
Passes repeat until the next one would end after --seconds; every reported
time is the median over passes.  Set-up is timed from spawning a child to the
end of its input generation, over at least nine children spread over the run:
set-up-only children run before and after every pass.

--trace 0 reports the end-to-end metrics with no instrumentation.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the traced passes, plus the tracing overhead (traced minus untraced time).

The last line of stdout is {"correct", "attempted", "failed", "metrics"}; the
line before it holds the run's context (versions, nproc, load average, phase
times, output digest, failures).  Exit 0 when the run completed, whether or
not the outputs were correct; 1 when a child failed; 2 on bad usage or when
the cutsys sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("contract-verify", "f2-diameter", "complex-homology")
MIN_SETUPS = 9
DEADLINE_S = 170  # a run must end within 180 s, children included


class ChildFailed(RuntimeError):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    path = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    # same thread budget for numpy's BLAS/OpenMP on every commit
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


class Runner:
    def __init__(self, args):
        self.args = args
        self.env = child_env()
        self.start = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.start

    def spawn(self, mode):
        a = self.args
        cmd = [sys.executable, str(HERE / "work.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--mode", mode]
        if a.smoke:
            cmd.append("--smoke")
        if mode == "traced":
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            cmd += ["--spans", str(out / f"spans-{a.workload}-{a.seed}.json")]
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise ChildFailed("out of time before the next child")
        spawned = time.time()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} child exceeded {timeout:.0f} s") from None
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise ChildFailed(f"{mode} child exited {proc.returncode}:\n{tail}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        rec["setup_s"] = rec["setup_done"] - spawned
        return rec

    def passes(self, modes):
        """Run rounds of children, one per listed mode, while another round fits."""
        runs = {m: [] for m in modes}
        rounds = 0
        while True:
            for m in modes:
                runs[m].append(self.spawn(m))
            rounds += 1
            if self.elapsed() * (rounds + 1) / rounds > self.args.seconds:
                return runs

    def setups(self, recs):
        samples = [r["setup_s"] for r in recs]
        while len(samples) < MIN_SETUPS:
            samples.append(self.spawn("setup")["setup_s"])
        return samples


def median_of(recs, key):
    return statistics.median(r[key] for r in recs)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description="cutsys benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cutsys" / "__init__.py").is_file():
        print(f"error: no cutsys sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    runner = Runner(args)
    try:
        if args.trace:
            runs = runner.passes(("pass", "traced"))
            plain, traced = runs["pass"], runs["traced"]
            recs = plain + traced
        else:
            runs = runner.passes(("setup", "pass", "setup"))
            plain = recs = runs["pass"]
            setups = runner.setups(runs["setup"] + plain)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in recs)
    failed = sum(r["failed"] for r in recs)
    digests = sorted({r["digest"] for r in recs})
    # every pass of one seed must produce byte-identical outputs
    attempted += len(recs) - 1
    failed += len(digests) - 1

    phases = {}
    for name in sorted({k for r in plain for k in r["phases"]}):
        phases[name] = statistics.median(r["phases"].get(name, 0.0) for r in plain)
    for name in sorted({k for r in plain for k in r["extra"]}):
        phases[name] = statistics.median_low(r["extra"][name] for r in plain)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(plain),
        "pass_total_s": [r["total_s"] for r in plain],
        "python": recs[0]["python"],
        "numpy": recs[0]["numpy"],
        "nproc": nproc(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "phases": phases,
        "slowest_call": plain[0]["slowest_call"],
        "digest": digests[0] if len(digests) == 1 else digests,
        "fail_frac": failed / attempted,
        "failures": [f for r in recs for f in r["failures"]][:10],
    }

    if args.trace:
        names = recs[-1]["layers"]
        metrics = {
            n: metric(statistics.median(r["layers"][n]["value"] for r in traced), names[n]["unit"])
            for n in names
        }
        base = median_of(plain, "total_s")
        overhead = median_of(traced, "total_s") - base
        metrics["trace.overhead_s"] = metric(overhead, "s")
        metrics["trace.overhead_frac"] = metric(overhead / base, "ratio")
        context["untraced_targets"] = recs[-1]["untraced_targets"]
    else:
        context["setup_samples_s"] = setups
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(median_of(plain, "peak_rss_mb"), "MB"),
            "total_s": metric(median_of(plain, "total_s"), "s"),
            "slowest_s": metric(median_of(plain, "slowest_s"), "s"),
        }
    print(json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
