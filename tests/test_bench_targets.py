"""The traced benchmark run wraps functions by name; every name must exist.

``benchmarks/tracer.py`` looks each ``(module, attr)`` of ``TARGETS`` up in
``aacohom.<module>`` when a ``--trace 1`` run starts.  Renaming or deleting
one of those functions would break only that run, so this test loads the
tracer by path and checks the names here.
"""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _tracer_targets():
    # executed from its source, so no bytecode cache is written beside it
    namespace = {"__name__": "benchmark_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["TARGETS"]


def test_every_traced_target_exists():
    missing = [
        f"aacohom.{module}.{attr}"
        for module, attr, _, _ in _tracer_targets()
        if not callable(
            getattr(importlib.import_module(f"aacohom.{module}"), attr, None)
        )
    ]
    assert not missing
