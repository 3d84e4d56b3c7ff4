"""Shared builders for handcrafted datasets, models, and epoch traces."""

from __future__ import annotations

import random
from fractions import Fraction

from sgdcodec.model import (
    Dataset,
    Element,
    GeneratorSpec,
    Model,
    correctness_mask,
)
from sgdcodec.numerics import FixedVector, GridSpec
from sgdcodec.sgd_engine import EpochTrace


def mask_of(ids) -> int:
    """The set mask of these element ids."""
    return sum(1 << e for e in ids)


def manual_dataset(grid: GridSpec, rows, family: str = "random-labels") -> Dataset:
    """Builds a dataset from (raw_feature_tuple, label) rows."""
    spec = GeneratorSpec(
        family=family, n=len(rows), dim=len(rows[0][0]), seed=0
    )
    elements = tuple(
        Element(i, FixedVector(tuple(raws), grid), label)
        for i, (raws, label) in enumerate(rows)
    )
    return Dataset(elements, grid, spec)


def band_dataset(grid: GridSpec, n: int, lo_raw: int, hi_raw: int, seed: int) -> Dataset:
    """One-feature elements, labels all 0, features inside a raw-value band."""
    rng = random.Random(seed)
    rows = [((rng.randint(lo_raw, hi_raw),), 0) for _ in range(n)]
    return manual_dataset(grid, rows)


def one_hot_dataset(grid: GridSpec, n: int, scale_raw: int) -> Dataset:
    """n elements, element i carries scale_raw at coordinate i, labels all 1."""
    spec = GeneratorSpec(family="one-hot", n=n, dim=n, seed=0)
    elements = []
    for i in range(n):
        raws = [0] * n
        raws[i] = scale_raw
        elements.append(Element(i, FixedVector(tuple(raws), grid), 1))
    return Dataset(tuple(elements), grid, spec)


def weights_on(dataset: Dataset, ids, raw: int) -> FixedVector:
    """Weight vector with the given raw value at each listed coordinate."""
    raws = [0] * dataset.dim
    for i in ids:
        raws[i] = raw
    return FixedVector(tuple(raws), dataset.grid)


def synthesize_trace(
    dataset: Dataset,
    order,
    batch_size: int,
    weight_rows,
    epoch: int = 1,
) -> EpochTrace:
    """Builds an EpochTrace from explicit checkpoint weights.

    weight_rows holds T+1 FixedVectors; the correctness masks come from real
    correctness sweeps so the trace is internally consistent even though the
    checkpoints need not satisfy the update rule.
    """
    trace = EpochTrace(epoch=epoch, batch_size=batch_size, order=tuple(order))
    for weights in weight_rows:
        model = Model("logistic-linear", weights, dataset.dim)
        trace.checkpoints.append(weights)
        trace.masks.append(correctness_mask(model, dataset))
    return trace


def staircase_trace(n: int, b: int, grid: GridSpec = GridSpec()):
    """Memorization profile: batch j is exactly the correct set at W_{j+1}."""
    ds = one_hot_dataset(grid, n, 2 * grid.unit)
    order = tuple(range(n))
    rows = [weights_on(ds, (), grid.unit)]
    for i in range(n // b):
        rows.append(weights_on(ds, order[i * b : (i + 1) * b], grid.unit))
    return ds, synthesize_trace(ds, order, b, rows)


def split_trace(n: int, b: int, grid: GridSpec = GridSpec()):
    """Half the data learned at the midpoint checkpoint, all of it at the end."""
    ds = one_hot_dataset(grid, n, 2 * grid.unit)
    order = tuple(range(n))
    rows = [
        weights_on(ds, (), grid.unit),
        weights_on(ds, order[:b], grid.unit),
        weights_on(ds, order, grid.unit),
    ]
    return ds, synthesize_trace(ds, order, b, rows)


def staircase_report_inputs():
    """Dataset plus accounting row and ceiling verdict for one good epoch."""
    from sgdcodec.epoch_codec import (
        ACCOUNTING,
        check_eps_beta_ceiling,
        encode_epoch,
        epoch_accounting,
    )
    from sgdcodec.sgd_engine import RunConfig

    ds, tr = staircase_trace(160, 4)
    cfg = RunConfig(
        generator=ds.spec, batch_size=4, step_raw=0, eps=Fraction(1, 4),
        progress_coeff=Fraction(4), seed=0, max_epochs=1, grid=ds.grid,
    )
    code = encode_epoch(tr, ds, cfg, mode=ACCOUNTING)
    row = epoch_accounting(code, tr, cfg)
    return ds, [row], [check_eps_beta_ceiling(tr, cfg.eps)]
