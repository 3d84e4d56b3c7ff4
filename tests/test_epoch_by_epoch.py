"""Training is consumed one epoch at a time.

``run_experiment`` round-trips each completed epoch before the next one
trains, so a failing round trip stops the run at that epoch, with the error
that checking every epoch after training gave.  ``run_training`` collects
the same generator, so both build the same ``TrainingRun``.  ``decode``
checks that a replication directory exists before it regenerates data.
"""

from __future__ import annotations

import os
import shutil
from fractions import Fraction

import pytest

from sgdcodec import harness, sgd_engine
from sgdcodec.cli import main
from sgdcodec.harness import ExperimentSpec, run_experiment
from sgdcodec.model import GeneratorSpec, generate_dataset
from sgdcodec.numerics import GridSpec
from sgdcodec.sgd_engine import MultiplePreimage, RunConfig, run_training
from test_golden import MANIFESTS


def strict_chain_spec(seed: int) -> ExperimentSpec:
    """Acceptance criterion 2's STRICT configuration at one run seed."""
    gen = GeneratorSpec(family="two-gaussians", n=32, dim=1, seed=3,
                        sigma=Fraction(1, 2), center_dist=Fraction(2))
    cfg = RunConfig(generator=gen, batch_size=4, step_raw=8, eps=Fraction(1, 100),
                    progress_coeff=Fraction(1), seed=seed, max_epochs=4,
                    grid=GridSpec(scale=6, clip=4))
    return ExperimentSpec(config=cfg, mode="STRICT")


# Per run seed: the epochs trained before the first failing round trip, and
# the reverse search's error text and step index.  The text and step index
# are those that training all four epochs first gave.
FAILING_SEEDS = {
    1: (1, "2 preimages found: (22,) and (23,)", 8),
    2: (2, "2 preimages found: (34,) and (35,)", 4),
    4: (1, "2 preimages found: (10,) and (11,)", 4),
    5: (2, "2 preimages found: (31,) and (32,)", 3),
    6: (1, "2 preimages found: (15,) and (16,)", 5),
    7: (2, "2 preimages found: (34,) and (35,)", 4),
    8: (3, "2 preimages found: (60,) and (61,)", 8),
}


@pytest.fixture
def trained_epochs(monkeypatch):
    """The epoch numbers ``run_epoch`` is called for, in order."""
    real = sgd_engine.run_epoch
    epochs: list[int] = []

    def spy(model, dataset, config, epoch, *rest):
        epochs.append(epoch)
        return real(model, dataset, config, epoch, *rest)

    monkeypatch.setattr(sgd_engine, "run_epoch", spy)
    return epochs


@pytest.mark.parametrize("seed", sorted(FAILING_SEEDS))
def test_a_failing_round_trip_stops_training_at_its_epoch(seed, tmp_path, trained_epochs):
    epochs, message, step_index = FAILING_SEEDS[seed]
    out = tmp_path / "exp"
    with pytest.raises(MultiplePreimage) as info:
        run_experiment(strict_chain_spec(seed), str(out))
    assert trained_epochs == list(range(1, epochs + 1))
    assert str(info.value) == message
    assert info.value.step_index == step_index
    # nothing of the replication is written before all its epochs pass
    assert sorted(os.listdir(out)) == ["dataset.tsv", "manifest.json"]


def test_a_run_whose_round_trips_pass_trains_every_epoch(trained_epochs):
    result = run_experiment(strict_chain_spec(3))
    assert trained_epochs == [1, 2, 3, 4]
    assert len(result.replications[0].codes) == 4


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_the_experiment_run_equals_run_training(name):
    spec = MANIFESTS[name]
    result = run_experiment(spec)
    run = result.replications[0].run
    ref = run_training(spec.config, generate_dataset(spec.config.generator,
                                                     spec.config.grid))
    assert run.config == ref.config
    assert run.traces == ref.traces
    for got, want in zip(run.traces, ref.traces):
        assert got.masks == want.masks
        assert got.checkpoints == want.checkpoints
    assert run.final_model.weights == ref.final_model.weights
    assert run.terminated == ref.terminated


@pytest.fixture
def no_dataset(monkeypatch):
    """Called after the run, which shares ``generate_dataset`` with decode."""

    def refuse(*args, **kwargs):
        raise AssertionError("decode regenerated the dataset")

    return lambda: monkeypatch.setattr(harness, "generate_dataset", refuse)


def test_decode_of_a_run_that_raised_exits_2_before_regenerating_data(
    tmp_path, capsys, no_dataset
):
    out = str(tmp_path / "exp")
    with pytest.raises(MultiplePreimage):
        run_experiment(strict_chain_spec(1), out)
    no_dataset()
    capsys.readouterr()
    assert main(["decode", "--dir", out]) == 2
    missing = os.path.join(out, "rep_00")
    assert capsys.readouterr().err == (
        f"error: {missing}: replication 0 of the manifest is missing\n"
    )


def two_replications() -> ExperimentSpec:
    return MANIFESTS["accounting-onehot"]._replace(replications=2)


def test_decode_without_rep_00_exits_2_before_regenerating_data(
    tmp_path, capsys, no_dataset
):
    out = str(tmp_path / "exp")
    run_experiment(two_replications(), out)
    no_dataset()
    shutil.rmtree(os.path.join(out, "rep_00"))
    capsys.readouterr()
    assert main(["decode", "--dir", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {os.path.join(out, 'rep_00')}: replication 0 of the manifest is missing\n"
    )


def test_decode_generates_the_dataset_once(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "exp")
    run_experiment(two_replications(), out)
    real = harness.generate_dataset
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "generate_dataset", counted)
    assert main(["decode", "--dir", out]) == 0
    assert len(calls) == 1
    assert "MISMATCH" not in capsys.readouterr().out
