"""Sparse rows pay only for what changed.

A run on sparse logistic-linear rows carries its packed score sum from
checkpoint to checkpoint and adds only the coordinates a step moved; at
every checkpoint that carry must give ``correctness_mask``'s mask, and raise
where it raises.  Dense and short rows, and hidden-layer models, keep the
full sweep.  The one-hot generator stores each element's nonzero pairs as it
builds it, and ``to_text`` writes sparse rows as runs of zeros; both must
give what a scan of the row gives.
"""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import manual_dataset, one_hot_dataset, to_text_oracle
from sgdcodec import model as model_module
from sgdcodec.model import (
    Dataset,
    GeneratorSpec,
    Model,
    _Sweep,
    _nonzeros,
    correctness_mask,
    generate_dataset,
    zero_model,
)
from sgdcodec.numerics import DomainError, FixedVector, GridSpec
from sgdcodec.sgd_engine import RunConfig, run_epoch, run_training

GRIDS = (GridSpec(scale=4, clip=2), GridSpec(scale=6, clip=4), GridSpec(scale=16, clip=64))


@st.composite
def sparse_datasets(draw) -> Dataset:
    """One-hot rows, or hand-built rows with up to three nonzeros each and at
    most one entry in eight nonzero overall."""
    grid = draw(st.sampled_from(GRIDS))
    if draw(st.booleans()):
        n = draw(st.sampled_from((8, 16, 24)))
        return one_hot_dataset(grid, n, draw(st.integers(1, grid.raw_max)))
    dim = draw(st.sampled_from((8, 16, 40)))
    n = draw(st.integers(1, 12))
    raw = st.integers(grid.raw_min, grid.raw_max).filter(bool)
    budget, rows = n * dim // 8, []
    for _ in range(n):
        cols = draw(st.sets(st.integers(0, dim - 1), max_size=min(3, budget)))
        budget -= len(cols)
        feats = [0] * dim
        for c in sorted(cols):
            feats[c] = draw(raw)
        rows.append((feats, draw(st.integers(0, 1))))
    return manual_dataset(grid, rows)


def next_weights(draw, grid: GridSpec, w: list[int]) -> list[int]:
    """The next checkpoint: no move, a random subset moved, every coordinate
    moved, every sign flipped, or a subset sent to the clip edges."""
    d, lo, hi = len(w), grid.raw_min, grid.raw_max
    move = draw(st.sampled_from(("none", "subset", "all", "flip", "edge")))
    w = list(w)
    if move == "flip":
        return [min(-x, hi) for x in w]
    if move == "none":
        return w
    cols = range(d) if move == "all" else draw(st.sets(st.integers(0, d - 1)))
    for c in cols:
        w[c] = draw(st.sampled_from((lo, hi))) if move == "edge" else draw(st.integers(lo, hi))
    return w


@settings(max_examples=150, deadline=None)
@given(sparse_datasets(), st.data())
def test_carried_sweep_equals_the_full_sweep_at_every_checkpoint(ds, data):
    sweep = _Sweep(ds, "logistic-linear")
    assert sweep.carry
    w = [0] * ds.dim
    for _ in range(data.draw(st.integers(1, 8))):
        model = Model("logistic-linear", FixedVector(tuple(w), ds.grid), ds.dim)
        assert sweep.mask(model) == correctness_mask(model, ds)
        w = next_weights(data.draw, ds.grid, w)


def test_carried_sweep_runs_the_full_sweeps_checks():
    grid = GridSpec(scale=6, clip=4)
    ds = one_hot_dataset(grid, 16, 64)
    sweep = _Sweep(ds, "logistic-linear")
    zero = zero_model("logistic-linear", 16, grid)
    sweep.mask(zero)
    for bad in (
        zero.with_weights(FixedVector((grid.raw_max + 1,) + (0,) * 15, grid)),
        zero_model("logistic-linear", 16, GridSpec(scale=6, clip=8)),
        zero_model("logistic-linear", 8, grid),
    ):
        for sweep_of in (sweep.mask, lambda m: correctness_mask(m, ds)):
            with pytest.raises(DomainError):
                sweep_of(bad)
    # a refused checkpoint leaves the carry where it was
    moved = zero.with_weights(FixedVector((5,) + (0,) * 15, grid))
    assert sweep.mask(moved) == correctness_mask(moved, ds)


def config_for(ds: Dataset, step_raw: int, max_epochs: int) -> RunConfig:
    gen = GeneratorSpec(family=ds.spec.family, n=ds.n, dim=ds.dim, seed=1)
    return RunConfig(generator=gen, batch_size=2 if ds.n % 4 else 4, step_raw=step_raw, eps=Fraction(1, 100),
                     progress_coeff=Fraction(1), seed=1, max_epochs=max_epochs, grid=ds.grid)


def test_dense_rows_and_hidden_layers_never_take_the_carry(monkeypatch):
    grid = GridSpec(scale=6, clip=4)
    dense = [
        generate_dataset(GeneratorSpec(family="random-labels", n=16, dim=2, seed=1), grid),
        generate_dataset(GeneratorSpec(family="random-labels", n=16, dim=16, seed=1), grid),
        manual_dataset(grid, [([1] * 5 + [0] * 11, 1), ([0] * 16, 0)]),  # 5 of 32 nonzero
        one_hot_dataset(grid, 4, 64),  # rows shorter than the sparse rule scans
    ]
    assert not any(_Sweep(ds, "logistic-linear").carry for ds in dense)
    sparse = manual_dataset(grid, [([1] * 3 + [0] * 13, 1), ([0] * 15 + [1], 0)])  # 4 of 32
    assert _Sweep(sparse, "logistic-linear").carry
    assert not _Sweep(one_hot_dataset(grid, 16, 64), "one-hidden-layer").carry
    # a run that does not carry sweeps every checkpoint through correctness_mask
    calls, real = [], model_module.correctness_mask
    monkeypatch.setattr(model_module, "correctness_mask", lambda m, d: calls.append(1) or real(m, d))
    for ds in dense:
        calls.clear()
        run = run_training(config_for(ds, 0, 2), ds)
        assert len(calls) == sum(len(t.masks) for t in run.traces) > 0
    calls.clear()
    run = run_training(config_for(dense[-1], 2, 2), one_hot_dataset(grid, 16, 64))
    assert calls == [] and sum(len(t.masks) for t in run.traces) > 1


def conflicting_rows(grid: GridSpec) -> Dataset:
    """16 rows in 24 columns, one or two nonzeros each; rows 2k and 2k + 1
    share their nonzeros but not their label, so training never stops."""
    rows = []
    for e in range(16):
        feats = [0] * 24
        feats[e // 2] = (-1) ** (e // 2) * (e // 2 + 3)
        if e // 2 % 2 == 0:
            feats[23 - e // 4] = 7
        rows.append((feats, e % 2))
    return manual_dataset(grid, rows)


@pytest.mark.parametrize("case", ["one-hot-1", "one-hot-2", "one-hot-3", "one-hot-128", "conflict"])
def test_carried_training_masks_equal_the_full_sweep(case):
    # the carry runs across checkpoints and across the epochs of one run
    grid = GridSpec(scale=6, clip=4)
    if case == "conflict":
        ds, step_raw = conflicting_rows(grid), 40
    else:
        fs = int(case.rsplit("-", 1)[1])
        n = 128 if fs == 128 else 16
        fs = 2 if fs == 128 else fs
        ds = generate_dataset(GeneratorSpec(family="one-hot", n=n, dim=n, seed=2,
                                            feature_scale=fs), grid)
        step_raw = 63 // fs**2  # the largest step with step * L < 1
    cfg = config_for(ds, step_raw, 3)
    run = run_training(cfg, ds)
    template = zero_model("logistic-linear", ds.dim, grid)
    assert len(run.traces) > 1 and _Sweep(ds, "logistic-linear").carry
    assert len({w for t in run.traces for w in t.checkpoints}) > 2  # the weights moved
    for trace in run.traces:
        assert len(trace.masks) == len(trace.checkpoints)
        for w, mask in zip(trace.checkpoints, trace.masks):
            assert mask == correctness_mask(template.with_weights(w), ds)
    # an epoch run alone builds its own sweep and gives the same trace
    alone, _ = run_epoch(template.with_weights(run.traces[0].checkpoints[-1]), ds, cfg, 2)
    assert alone.masks == run.traces[1].masks


@pytest.mark.parametrize("n", [1, 8, 9, 64, 128])
@pytest.mark.parametrize("feature_scale", [1, 2, 3])
def test_one_hot_generator_stores_the_pairs_a_scan_finds(n, feature_scale):
    grid = GridSpec(scale=6, clip=4)
    spec = GeneratorSpec(family="one-hot", n=n, dim=n, seed=0, feature_scale=feature_scale)
    ds = generate_dataset(spec, grid)
    assert all("_pairs" in el.__dict__ for el in ds.elements)
    assert [el._pairs for el in ds.elements] == [_nonzeros(el.features.raws) for el in ds.elements]


def test_sparse_text_equals_the_cell_by_cell_text(monkeypatch):
    grid = GridSpec(scale=6, clip=4)
    lo, hi = grid.raw_min, grid.raw_max
    rows = [
        ([lo] + [0] * 15, 0),  # first column, the most negative raw
        ([0] * 15 + [hi], 1),  # last column
        ([-3] + [0] * 14 + [7], 1),  # first and last
        ([0] * 16, 0),  # no nonzero
        ([0, 0, -1, 0, 5, 0, 0, 0, 0, 0, 0, -64, 0, 0, 0, 0], 1),  # several, negatives
        ([0] * 16, 1),
        ([0] * 16, 0),
        ([0] * 16, 1),
    ]
    datasets = [
        manual_dataset(grid, rows),
        one_hot_dataset(grid, 8, -5),
        generate_dataset(GeneratorSpec(family="one-hot", n=128, dim=128, seed=0), grid),
    ]
    for ds in datasets:
        assert model_module._sparse_pairs(ds.elements, ds.dim) is not None
        assert ds.to_text() == to_text_oracle(ds)
        assert Dataset.from_text(ds.to_text(), grid).elements == ds.elements
