"""The per-layer tracer of perfbench/ wraps cutsys functions by name; a
rename in cutsys must fail here, not only show up as untraced targets in a
traced benchmark run."""

import importlib.util
import os
import random

import cutsys
from cutsys import homotopy as H
from cutsys import intlin, walks  # noqa: F401  (the tracer reaches them as cutsys attributes)
from cutsys.universe import make_universe


def _layertrace():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layertrace.py")
    spec = importlib.util.spec_from_file_location("layertrace", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_trace_target_exists():
    tracer = _layertrace().Tracer()
    tracer.install(cutsys)
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_traced_replay_forwards_known(monkeypatch):
    """Under the tracer a certificate still verifies, and the wrapped
    cell_pattern passes known= on: each fill tests only its new vertices."""
    u = make_universe("sympZ", g=3)
    loop = walks.random_closed_walk(u, 3, 3, random.Random(1), steps=8)
    with monkeypatch.context() as m:
        # case-1 rails to a fresh fill: 106 fills, against 11 through the
        # neighbours of the junction vertex
        m.setattr(H, "_near_target", lambda *a: None)
        steps = H.contract(H.Prover(u), loop)
    tracer = _layertrace().Tracer()
    tracer.install(cutsys)
    try:
        assert hasattr(H.cell_pattern, "__wrapped__")
        ok = H.verify_certificate(u, loop, H.HomotopyCertificate(steps))
    finally:
        tracer.uninstall()
    assert ok == (True, None)
    inserts = sum(s.op == H.BT_INSERT for s in steps)
    fills = [len(s.new) for s in steps if s.op == H.CELL_FILL]
    assert tracer.stats["homotopy.cell_pattern"].calls == len(fills) > 100
    assert tracer.stats["universe.cut_ok"].calls == len(loop) + inserts + sum(n - 2 for n in fills)
