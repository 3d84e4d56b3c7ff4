"""The benchmark's call hooks must find every function they are declared to trace.

``bench/tracer.py`` refuses to run when a name in its ``REQUIRED`` list is
missing from the package, so a rename or deletion under the benchmark shows
up here instead of only when the benchmark runs.
"""

from __future__ import annotations

import importlib.util
import os
from fractions import Fraction

from sgdcodec import harness, model, numerics
from sgdcodec.harness import ExperimentSpec
from sgdcodec.model import GeneratorSpec
from sgdcodec.numerics import GridSpec
from sgdcodec.sgd_engine import RunConfig

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


def test_traced_strict_decode_goes_through_the_reverse_walkers():
    # Acceptance criterion 2's STRICT run: seed 3, every epoch SPLIT.  Its
    # decoder must reach reverse_step through reverse_epoch, or the
    # benchmark's sgd_engine.reverse_epoch.s metric silently reads zero.
    gen = GeneratorSpec(family="two-gaussians", n=32, dim=1, seed=3,
                        sigma=Fraction(1, 2), center_dist=Fraction(2))
    cfg = RunConfig(generator=gen, batch_size=4, step_raw=8, eps=Fraction(1, 100),
                    progress_coeff=Fraction(1), seed=3, max_epochs=4,
                    grid=GridSpec(scale=6, clip=4))
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        result = harness.run_experiment(ExperimentSpec(config=cfg, mode="STRICT"))
    finally:
        tracer.uninstall()
    rows = result.replications[0].report.rows
    assert [r.case for r in rows] == ["SPLIT"] * 4
    assert tracer.calls["epoch_codec.decode_epoch"] == 4
    assert tracer.calls["sgd_engine.reverse_epoch"] == 4
    assert tracer.calls["sgd_engine.reverse_step"] == 4 * 8


def test_traced_logistic_run_counts_one_mask_per_checkpoint_sweep():
    # Training sweeps through model.correctness_mask; correctness_vector is
    # only a list view of it, so the benchmark's sweep metrics must be read
    # off the mask's name.  Training sweeps every checkpoint it records, on
    # dense rows and on sparse one-hot rows alike; an ACCOUNTING decode,
    # BACKWARD or SPLIT, reads the trace's masks and sweeps nothing.
    random_labels = RunConfig(
        generator=GeneratorSpec(family="random-labels", n=64, dim=2, seed=3),
        batch_size=16, step_raw=1 << 13, eps=Fraction(1, 4), progress_coeff=Fraction(4),
        seed=3, max_epochs=2, grid=GridSpec())
    one_hot = RunConfig(  # the default run settings at n = d = 32
        generator=GeneratorSpec(family="one-hot", n=32, dim=32, seed=1),
        batch_size=16, step_raw=58982, eps=Fraction(1, 100), progress_coeff=Fraction(20),
        seed=1, max_epochs=4, grid=GridSpec())
    for cfg, cases in ((random_labels, ["BACKWARD", "SPLIT"]), (one_hot, ["SPLIT"])):
        tracer = _load_tracer().Tracer()
        tracer.install()
        try:
            result = harness.run_experiment(ExperimentSpec(config=cfg, mode="ACCOUNTING"))
        finally:
            tracer.uninstall()
        rep = result.replications[0]
        sweeps = sum(len(trace.masks) for trace in rep.run.traces)
        assert [row.case for row in rep.report.rows] == cases
        assert tracer.calls["model.correctness_mask"] == sweeps
        assert tracer.calls["model.correctness_vector"] == 0


def test_traced_run_counts_each_training_step_on_the_step_hooks():
    # Training steps through sgd_engine.forward_step, which calls
    # model.loss_gradient and FixedVector.gd_update once each.  A kernel that
    # stepped any other way would hide training from the per-layer table.
    # An ACCOUNTING decode replays no step, so every count is a training step.
    cfg = RunConfig(
        generator=GeneratorSpec(family="random-labels", n=64, dim=2, seed=3),
        batch_size=16, step_raw=1 << 13, eps=Fraction(1, 4), progress_coeff=Fraction(4),
        seed=3, max_epochs=2, grid=GridSpec())
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        result = harness.run_experiment(ExperimentSpec(config=cfg, mode="ACCOUNTING"))
    finally:
        tracer.uninstall()
    traces = result.replications[0].run.traces
    steps = sum(t.steps_done for t in traces)
    assert len(traces) == 2 and steps == 2 * 64 // 16
    for name in ("sgd_engine.forward_step", "model.loss_gradient",
                 "numerics.FixedVector.gd_update"):
        assert tracer.calls[name] == steps, name
