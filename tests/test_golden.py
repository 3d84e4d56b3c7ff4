"""Golden artifact digests: a few small manifests must reproduce every file bit for bit.

The runs cover both decoder modes, both epoch cases, both model kinds, a run
that terminates early and one that saturates.  Each epoch code's recorded
widths must add up to its stream and equal ``predict_segments``.  The digests in
``golden_digests.json`` may only change with a deliberate artifact format
change; regenerate them with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from fractions import Fraction

import pytest

from sgdcodec.epoch_codec import predict_segments
from sgdcodec.harness import ExperimentSpec, run_experiment
from sgdcodec.model import GeneratorSpec
from sgdcodec.numerics import GridSpec
from sgdcodec.sgd_engine import RunConfig

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "golden_digests.json")


def _spec(generator: GeneratorSpec, mode: str = "ACCOUNTING", **config) -> ExperimentSpec:
    return ExperimentSpec(config=RunConfig(generator=generator, **config), mode=mode)


MANIFESTS = {
    # logistic-linear, scale 6: BACKWARD then two SPLIT epochs, unwound by reverse search
    "strict-labels": _spec(
        GeneratorSpec(family="random-labels", n=32, dim=1, seed=5),
        "STRICT",
        batch_size=8, step_raw=8, eps=Fraction(1, 4), progress_coeff=Fraction(2),
        seed=5, max_epochs=3, grid=GridSpec(scale=6, clip=4),
    ),
    # logistic-linear, scale 16: two BACKWARD epochs then SPLIT
    "accounting-labels": _spec(
        GeneratorSpec(family="random-labels", n=64, dim=4, seed=2),
        batch_size=16, step_raw=1 << 14, eps=Fraction(1, 4),
        progress_coeff=Fraction(2), seed=2, max_epochs=3,
    ),
    # one-hidden-layer, scale 8: BACKWARD then two SPLIT epochs
    "accounting-hidden": _spec(
        GeneratorSpec(family="random-labels", n=32, dim=2, seed=3),
        batch_size=8, step_raw=256, eps=Fraction(1, 4), progress_coeff=Fraction(2),
        seed=3, max_epochs=3, model_kind="one-hidden-layer", hidden_width=2,
        grid=GridSpec(scale=8, clip=8),
    ),
    # memorization: one SPLIT epoch, then the accuracy target stops the run
    "accounting-onehot": _spec(
        GeneratorSpec(family="one-hot", n=32, dim=32, seed=1),
        batch_size=8, step_raw=58982, eps=Fraction(1, 100),
        progress_coeff=Fraction(20), seed=1, max_epochs=3,
    ),
    # one-hidden-layer, scale 6: one SPLIT epoch, then a weight update clips
    "saturating-hidden": _spec(
        GeneratorSpec(family="random-labels", n=16, dim=2, seed=5, feature_scale=1),
        batch_size=4, step_raw=700, eps=Fraction(1, 20), progress_coeff=Fraction(1),
        seed=5, max_epochs=3, model_kind="one-hidden-layer", hidden_width=2,
        grid=GridSpec(scale=6, clip=2),
    ),
}


def artifact_digests(spec: ExperimentSpec, outdir: str) -> dict[str, str]:
    """sha256 of every file the run writes, keyed by its path under outdir."""
    run_experiment(spec, outdir)
    out = {}
    for dirpath, _, files in os.walk(outdir):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                rel = os.path.relpath(path, outdir).replace(os.sep, "/")
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def _recorded() -> dict:
    with open(DIGESTS_PATH, encoding="ascii") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_artifacts_match_golden_digests(name, tmp_path):
    assert artifact_digests(MANIFESTS[name], str(tmp_path / name)) == _recorded()[name]


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_golden_manifests_read_back_as_their_specs(name):
    spec = MANIFESTS[name]
    manifest = json.loads(json.dumps(spec.to_dict()))
    assert ExperimentSpec.from_dict(manifest) == spec


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_golden_codes_record_every_stream_bit_as_predicted(name):
    spec = MANIFESTS[name]
    for rep in run_experiment(spec).replications:
        assert rep.codes
        traces = {trace.epoch: trace for trace in rep.run.traces}
        for code in rep.codes:
            assert sum(w for _, w in code.segments) == code.measured_bits
            predicted = predict_segments(
                traces[code.epoch], rep.run.config, code.selector, spec.mode
            )
            assert predicted == code.segments


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {
            name: artifact_digests(spec, os.path.join(tmp, name))
            for name, spec in sorted(MANIFESTS.items())
        }
    with open(DIGESTS_PATH, "w", encoding="ascii") as fh:
        fh.write(json.dumps(digests, indent=2, sort_keys=True) + "\n")
