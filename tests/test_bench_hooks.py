"""The benchmark's call hooks must find every function they are declared to trace.

``bench/tracer.py`` refuses to run when a name in its ``REQUIRED`` list is
missing from the package, so a rename or deletion under the benchmark shows
up here instead of only when the benchmark runs.
"""

from __future__ import annotations

import importlib.util
import os

from sgdcodec import model, numerics

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_required_hook_and_uninstalls():
    tracer_mod = _load_tracer()
    original_sweep = model.correctness_vector
    original_update = numerics.FixedVector.gd_update
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert model.correctness_vector is not original_sweep
        assert numerics.FixedVector.gd_update is not original_update
    finally:
        tracer.uninstall()
    assert model.correctness_vector is original_sweep
    assert numerics.FixedVector.gd_update is original_update
