"""The per-layer tracer of perfbench/ wraps cutsys functions by name; a
rename in cutsys must fail here, not only show up as untraced targets in a
traced benchmark run."""

import importlib.util
import os

import cutsys
from cutsys import intlin, walks  # noqa: F401  (the tracer reaches them as cutsys attributes)


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
