"""Timing wrappers installed on the public functions of the cutsys modules.

The traced run replaces module and class attributes with wrappers; the
untraced run never imports this file.  Every wrapper keeps a stack of open
calls, so each call's self time (its duration minus the wrapped calls it
made) is known when it returns.  Coarse calls are also kept as span records
(name, start, end, parent); hot predicates, called up to millions of times
per pass, are only counted and timed in aggregate.
"""

from __future__ import annotations

import json
import time

# (dotted owner, attribute, hot).  Owners are modules or classes under cutsys.
TARGETS = (
    ("homotopy", "contract", False),
    ("homotopy", "connect", False),
    ("homotopy", "path_common", False),
    ("homotopy", "contract_radius0", False),
    # hexagon bypass: used by the public hex_escorts and by junction case 2
    ("homotopy", "_hexagon_cert", False),
    ("homotopy", "cell_pattern", True),
    ("homotopy", "verify_certificate", False),
    ("universe.SympZUniverse", "solve", True),
    ("universe.SympZUniverse", "inter", True),
    ("universe.SympZUniverse", "cut_ok", True),
    ("universe.SympF2Universe", "inter", True),
    ("universe.SympF2Universe", "cut_ok", True),
    ("sympcurves", "pairing", True),
    ("sympcurves", "is_cut_shadow", True),
    ("sympcurves", "solve_pairings", True),
    ("sympcurves", "f2_pairing", True),
    ("sympcurves", "f2_is_cut", True),
    ("intlin", "is_primitive_stack", True),
    ("intlin", "smith_normal_form", True),
    ("intlin", "invariant_factors", True),
    ("intlin", "rational_rank", False),
    ("complexes", "build_gamma", False),
    ("complexes", "build_schmutz", False),
    ("complexes", "diameter", False),
    ("complexes", "chain_homology", False),
    ("complexes", "f2_gamma_k2_eccentricity", False),
    ("complexes", "f2_gamma1_eccentricity", False),
    ("walks", "random_closed_walk", False),
)

# metric name for each wrapped attribute, where it differs from owner.attr
ALIASES = {
    "homotopy._hexagon_cert": "homotopy.hex_escorts",
    "universe.SympZUniverse.solve": "universe.solve",
    "universe.SympZUniverse.inter": "universe.inter",
    "universe.SympZUniverse.cut_ok": "universe.cut_ok",
    "universe.SympF2Universe.inter": "universe.inter",
    "universe.SympF2Universe.cut_ok": "universe.cut_ok",
}


class Stat:
    __slots__ = ("calls", "s", "self_s", "depth", "durations", "entries")

    def __init__(self):
        self.calls = 0
        self.s = 0.0  # inclusive time of outermost calls (recursion counted once)
        self.self_s = 0.0
        self.depth = 0
        self.durations = []
        self.entries = 0


class Tracer:
    """Install with `install(package)`, read `stats` and `spans`, then
    `uninstall()` to restore the original attributes.  Wrappers hold their
    Stat objects, so `reset()` zeroes them in place."""

    def __init__(self):
        self.stats = {}
        self.spans = []  # (id, parent id or -1, name, start, end)
        self.missing = []
        self._stack = []  # open frames: [child time, span id]
        self._saved = []

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def install(self, package):
        for owner_path, attr, hot in TARGETS:
            owner = package
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            full = f"{owner_path}.{attr}"
            if fn is None:
                self.missing.append(full)
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, ALIASES.get(full, full), hot))

    def reset(self):
        """Zero every counter and drop the spans; the wrappers stay installed."""
        for st in self.stats.values():
            st.__init__()
        self.spans.clear()

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, hot):
        st = self.stat(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        keep_durations = name == "homotopy.contract"
        count_entries = name == "intlin.smith_normal_form"

        def wrapper(*args, **kwargs):
            if count_entries and args and args[0]:
                st.entries += len(args[0]) * len(args[0][0])
            parent = stack[-1][1] if stack else -1
            sid = parent if hot else len(spans)
            if not hot:
                spans.append(None)
            frame = [0.0, sid]
            stack.append(frame)
            st.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                d = t1 - t0
                stack.pop()
                st.depth -= 1
                if stack:
                    stack[-1][0] += d
                st.calls += 1
                st.self_s += d - frame[0]
                if st.depth == 0:
                    st.s += d
                    if keep_durations:
                        st.durations.append(d)
                if not hot:
                    spans[sid] = (sid, parent, name, t0, t1)

        wrapper.__wrapped__ = fn
        return wrapper

    def dump_spans(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start", "end"],
                    "spans": self.spans,
                    "aggregated": {
                        n: {"calls": st.calls, "s": st.s, "self_s": st.self_s}
                        for n, st in sorted(self.stats.items())
                    },
                },
                fh,
            )
