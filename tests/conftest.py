"""Shared builders for handcrafted datasets, models, and epoch traces; the
exact hypergeometric law the Hoeffding verifier is checked against; the
per-case margins of three inequality sweeps, evaluated case by case; and the
dataset generator spelled out on stdlib ``randrange`` and ``Fraction``."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from sgdcodec.codec import binomial, ceil_log2
from sgdcodec.model import (
    Dataset,
    Element,
    GeneratorSpec,
    Model,
    correctness_mask,
)
from sgdcodec.numerics import (
    DomainError,
    FixedVector,
    GridSpec,
    _entropy,
    _kl,
    _realizable_q,
    round_half_even,
)
from sgdcodec.sgd_engine import EpochTrace
from sgdcodec.stable import stable_entropy


def hypergeometric_pmf(population: int, ones: int, sample: int) -> list[Fraction]:
    """P[ones in sample = c] for c in 0..sample, exact."""
    total = math.comb(population, sample)
    return [
        Fraction(math.comb(ones, c) * math.comb(population - ones, sample - c), total)
        for c in range(sample + 1)
    ]


def split_slack_oracle(a: int, g: int, c: int, n: int) -> float:
    """The two-block split slack at numerators a, g, c over n, spelled out."""
    if g == 0:
        return 0.0
    lhs = 0.0
    if c > 0:
        lhs += c / n * _entropy(a * g, c * n)
    if c < n:
        lhs += (n - c) / n * _entropy((n - a) * g, (n - c) * n)
    return _entropy(g, n) - g / n * _kl(a, c, n) - lhs


def split_margins_oracle(side: int) -> list[float]:
    """The split-entropy sweep's margins, one slack evaluated per case."""
    margins = []
    for a in range(1, side + 1):
        for g in range(1, side + 1):
            for c in _realizable_q(a, g, side):
                margins.append(split_slack_oracle(a, g, c, side))
    return margins


def pinsker_margins_oracle(side: int) -> list[float]:
    """The Pinsker sweep's margins, the penalty evaluated per case."""
    margins = []
    for a in range(1, side + 1):
        for c in range(1, side):
            margins.append(
                _kl(a, c, side) - 2.0 * ((a - c) ** 2 / side**2) / math.log(2)
            )
    return margins


def binomial_margins_oracle(max_m: int) -> list[float]:
    """The binomial-vs-entropy sweep's margins, one binomial per case."""
    entropies = [stable_entropy(Fraction(num, 16)) for num in range(1, 16)]
    margins = []
    m = 16
    while m <= max_m:
        for num, h in enumerate(entropies, 1):
            margins.append(ceil_log2(binomial(m, num * m // 16)) - (m * h + 1))
        m *= 2
    return margins


def generate_dataset_oracle(spec: GeneratorSpec, grid: GridSpec) -> Dataset:
    """``model.generate_dataset`` spelled out on ``random.Random.randrange``,
    with one ``Fraction`` rounding per gaussian coordinate: the reference its
    ``getrandbits`` sampler must match draw for draw."""
    rng = random.Random(spec.seed)
    unit = grid.unit
    half = spec.feature_scale * unit
    if half > grid.raw_max:
        raise DomainError("feature_scale exceeds the grid clip range")

    def box_raw(half_width_raw: int) -> int:
        return rng.randrange(-half_width_raw, half_width_raw + 1)

    def gauss_raw(sigma_raw: int) -> int:
        m = 1 << 20
        centered = sum(rng.randrange(m) for _ in range(12)) - 6 * (m - 1)
        return round_half_even(Fraction(centered * sigma_raw, m))

    elements: list[Element] = []
    if spec.family == "separable-margin":
        normal = [0] * spec.dim
        while all(v == 0 for v in normal):
            normal = [rng.randrange(-unit, unit + 1) for _ in range(spec.dim)]
        norm = math.sqrt(sum(v * v for v in normal))
        for eid in range(spec.n):
            for _ in range(10000):
                raws = [box_raw(half) for _ in range(spec.dim)]
                dot = sum(w * x for w, x in zip(normal, raws))
                if abs(dot) >= float(spec.margin) * norm * unit:
                    break
            else:
                raise DomainError("margin too large for the feature box")
            elements.append(
                Element(eid, FixedVector(tuple(raws), grid), 1 if dot > 0 else 0)
            )
    elif spec.family == "two-gaussians":
        center_raw = round_half_even(Fraction(spec.center_dist, 2) * unit)
        sigma_raw = round_half_even(spec.sigma * unit)
        for eid in range(spec.n):
            label = rng.getrandbits(1)
            sign = 1 if label else -1
            raws = []
            for c in range(spec.dim):
                base = sign * center_raw if c == 0 else 0
                raw, _ = grid.clamp_raw(base + gauss_raw(sigma_raw))
                raws.append(raw)
            elements.append(Element(eid, FixedVector(tuple(raws), grid), label))
    elif spec.family == "random-labels":
        for eid in range(spec.n):
            raws = tuple(box_raw(half) for _ in range(spec.dim))
            elements.append(Element(eid, FixedVector(raws, grid), rng.getrandbits(1)))
    elif spec.family == "one-hot":
        for eid in range(spec.n):
            raws = [0] * spec.dim
            raws[eid] = spec.feature_scale * unit
            elements.append(Element(eid, FixedVector(tuple(raws), grid), 1))
    return Dataset(tuple(elements), grid, spec)


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
