"""The integer training kernel against an independent Fraction oracle.

The oracle below recomputes scores, the interpolated table sigmoid, its slope,
the mean batch gradient, its quantization and the descent update with exact
rationals, straight from the definitions.  The kernel must agree with it bit
for bit, including floor semantics on negative arguments, arguments exactly at
the table ends, and round-half-even ties.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import manual_dataset
from sgdcodec.model import (
    KNOT_BITS,
    MODEL_KINDS,
    Z_MAX,
    Model,
    GeneratorSpec,
    _sigmoid_knots,
    correctness_mask,
    correctness_vector,
    generate_dataset,
    loss_gradient,
    zero_model,
)
from sgdcodec.numerics import DomainError, FixedVector, GridSpec, SaturationError
from sgdcodec.sgd_engine import RunConfig, run_training

SCALES = (4, 6, 16)
FAMILIES = ("random-labels", "two-gaussians", "one-hot")
HALF = Fraction(1, 2)


def oracle_round(v: Fraction) -> int:
    q = math.floor(v)
    r = v - q
    if r == HALF:
        return q + q % 2
    return q + (1 if r > HALF else 0)


def oracle_sigmoid(z: Fraction, scale: int) -> Fraction:
    if z >= Z_MAX:
        return Fraction(1)
    if z <= -Z_MAX:
        return Fraction(0)
    knots = _sigmoid_knots(scale)
    scaled = z * 2**KNOT_BITS
    k = math.floor(scaled)
    lo = Fraction(knots[k + Z_MAX * 2**KNOT_BITS], 2**scale)
    hi = Fraction(knots[k + Z_MAX * 2**KNOT_BITS + 1], 2**scale)
    return lo + (hi - lo) * (scaled - k)


def oracle_slope(z: Fraction, scale: int) -> Fraction:
    if z >= Z_MAX or z < -Z_MAX:
        return Fraction(0)
    knots = _sigmoid_knots(scale)
    base = math.floor(z * 2**KNOT_BITS) + Z_MAX * 2**KNOT_BITS
    return Fraction(knots[base + 1] - knots[base], 2**scale) * 2**KNOT_BITS


def _values(raws, grid: GridSpec) -> list[Fraction]:
    return [Fraction(r, grid.unit) for r in raws]


def oracle_forward(model, x: list[Fraction]):
    """(score, hidden pre-activations, hidden activations) in exact rationals."""
    w = _values(model.weights.raws, model.grid)
    if model.kind == "logistic-linear":
        return sum((a * b for a, b in zip(w, x)), Fraction(0)), [], []
    dim, width = model.dim, model.width
    pre = [sum((a * b for a, b in zip(w[r * dim : (r + 1) * dim], x)), Fraction(0))
           for r in range(width)]
    act = [oracle_sigmoid(p, model.grid.scale) for p in pre]
    score = sum((v * h for v, h in zip(w[width * dim :], act)), Fraction(0))
    return score, pre, act


def oracle_correct(model, el) -> int:
    score, _, _ = oracle_forward(model, _values(el.features.raws, model.grid))
    return int((score > 0) == el.label)


def oracle_mean_gradient(model, batch) -> list[Fraction]:
    scale = model.grid.scale
    total = [Fraction(0)] * model.d
    dim, width = model.dim, model.width
    v = _values(model.weights.raws, model.grid)[width * dim :]
    for el in batch:
        x = _values(el.features.raws, model.grid)
        score, pre, act = oracle_forward(model, x)
        resid = oracle_sigmoid(score, scale) - el.label
        if model.kind == "logistic-linear":
            for c in range(dim):
                total[c] += resid * x[c]
            continue
        for r in range(width):
            coef = resid * v[r] * oracle_slope(pre[r], scale)
            for c in range(dim):
                total[r * dim + c] += coef * x[c]
            total[width * dim + r] += resid * act[r]
    return [t / len(batch) for t in total]


def oracle_loss_gradient(model, batch):
    """Quantized gradient raws, or None where the kernel must raise SaturationError."""
    grid = model.grid
    raws = tuple(oracle_round(g * grid.unit) for g in oracle_mean_gradient(model, batch))
    if model.weights.saturated or any(r < grid.raw_min or r > grid.raw_max for r in raws):
        return None
    return raws


def oracle_update(raws, step_raw: int, grad_raws, grid: GridSpec):
    out, sat = [], False
    for w, g in zip(raws, grad_raws):
        r = w - oracle_round(Fraction(step_raw * g, grid.unit))
        clipped = min(max(r, grid.raw_min), grid.raw_max)
        sat = sat or clipped != r
        out.append(clipped)
    return tuple(out), sat


def assert_kernel_matches(model, dataset, batch) -> None:
    assert correctness_vector(model, dataset) == [
        oracle_correct(model, el) for el in dataset.elements
    ]
    expect = oracle_loss_gradient(model, batch)
    if expect is None:
        with pytest.raises(SaturationError):
            loss_gradient(model, batch)
    else:
        assert loss_gradient(model, batch).raws == expect


@st.composite
def kernel_cases(draw):
    scale = draw(st.sampled_from(SCALES))
    grid = GridSpec(scale=scale, clip=4)
    family = draw(st.sampled_from(FAMILIES))
    kind = draw(st.sampled_from(MODEL_KINDS))
    n = draw(st.integers(2, 6))
    dim = n if family == "one-hot" else draw(st.integers(1, 3))
    spec = GeneratorSpec(family=family, n=n, dim=dim, seed=draw(st.integers(0, 999)))
    dataset = generate_dataset(spec, grid)
    width = draw(st.integers(1, 3)) if kind == "one-hidden-layer" else 0
    d = dim if kind == "logistic-linear" else width * dim + width
    # mostly weights within one unit, so the table interior is hit, plus
    # full-range weights that push scores past the table ends
    coord = st.one_of(
        st.integers(-grid.unit, grid.unit), st.integers(grid.raw_min, grid.raw_max)
    )
    raws = tuple(draw(st.lists(coord, min_size=d, max_size=d)))
    model = Model(kind, FixedVector(raws, grid), dim, width)
    ids = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    grad = tuple(draw(st.lists(coord, min_size=d, max_size=d)))
    step_raw = draw(st.integers(0, 2 * grid.unit))
    return model, dataset, dataset.subset(ids), grad, step_raw


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_integer_kernel_matches_fraction_oracle(case):
    model, dataset, batch, grad, step_raw = case
    assert_kernel_matches(model, dataset, batch)
    grid = model.grid
    updated = model.weights.gd_update(step_raw, FixedVector(grad, grid))
    assert (updated.raws, updated.saturated) == oracle_update(
        model.weights.raws, step_raw, grad, grid
    )


@pytest.mark.parametrize("scale", SCALES)
def test_negative_dots_floor_inside_a_segment(scale):
    grid = GridSpec(scale=scale, clip=4)
    ds = manual_dataset(grid, [((1, 3), 1), ((5, -2), 0)])
    for kind, width, raws in (
        ("logistic-linear", 0, (-1, 0)),
        ("one-hidden-layer", 1, (-1, 0, grid.unit)),
    ):
        model = Model(kind, FixedVector(raws, grid), 2, width)
        # z = dot / 2^(2s) is negative and off the knots: floor != truncation
        dot = sum(w * x for w, x in zip(raws, ds.elements[0].features.raws))
        assert dot < 0 and (dot << KNOT_BITS) % (1 << 2 * scale) != 0
        assert_kernel_matches(model, ds, ds.elements)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("sign", (1, -1))
def test_scores_exactly_at_the_table_ends(scale, sign):
    grid = GridSpec(scale=scale, clip=16)
    ds = manual_dataset(grid, [((grid.unit,), 1), ((grid.unit,), 0)])
    at_end = sign * Z_MAX * grid.unit
    logistic = Model("logistic-linear", FixedVector((at_end,), grid), 1)
    # hidden pre-activation exactly at +/-Z_MAX, where the activation takes
    # its end value and the slope its end rule
    hidden = Model(
        "one-hidden-layer", FixedVector((at_end, grid.unit), grid), 1, 1
    )
    assert oracle_forward(logistic, [Fraction(1)])[0] == sign * Z_MAX
    assert oracle_forward(hidden, [Fraction(1)])[1] == [sign * Z_MAX]
    for model in (logistic, hidden):
        assert_kernel_matches(model, ds, ds.elements)


@pytest.mark.parametrize("scale", SCALES)
def test_half_even_ties(scale):
    grid = GridSpec(scale=scale, clip=4)
    # zero weights: residual 1/2 - y times a one-raw feature is exactly half a raw
    ds = manual_dataset(grid, [((1,), 0), ((1,), 1), ((3,), 0)])
    model = zero_model("logistic-linear", 1, grid)
    for el in ds.elements:
        exact = oracle_mean_gradient(model, [el])[0] * grid.unit
        assert exact - math.floor(exact) == HALF
        assert_kernel_matches(model, ds, [el])
    # step 1/2 times odd gradient raws lands halfway between two updates
    w = FixedVector((0, 0, 0, 0), grid)
    grad = FixedVector((1, -1, 3, -3), grid)
    step_raw = grid.unit // 2
    assert w.gd_update(step_raw, grad).raws == (0, 0, -2, 2)
    assert w.gd_update(step_raw, grad).raws == oracle_update(w.raws, step_raw, grad.raws, grid)[0]


def oracle_mask(model, dataset) -> int:
    return sum(oracle_correct(model, el) << el.eid for el in dataset.elements)


def _near_zero_or_ends(grid: GridSpec):
    # small raws hit scores of exactly 0 and +/-1; the ends fill the lanes
    return st.one_of(
        st.integers(max(-2, grid.raw_min), min(2, grid.raw_max)),
        st.sampled_from((grid.raw_min, grid.raw_max)),
        st.integers(grid.raw_min, grid.raw_max),
    )


@st.composite
def sweep_cases(draw):
    grid = GridSpec(scale=draw(st.sampled_from((0,) + SCALES)), clip=draw(st.integers(1, 64)))
    n, dim = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    coord = _near_zero_or_ends(grid)
    rows = draw(st.lists(
        st.tuples(st.lists(coord, min_size=dim, max_size=dim), st.integers(0, 1)),
        min_size=n, max_size=n,
    ))
    weights = tuple(draw(st.lists(coord, min_size=dim, max_size=dim)))
    dataset = manual_dataset(grid, rows)
    return Model("logistic-linear", FixedVector(weights, grid), dim), dataset


@settings(max_examples=200, deadline=None)
@given(sweep_cases())
def test_packed_sweep_matches_the_per_element_oracle(case):
    model, dataset = case
    assert correctness_mask(model, dataset) == oracle_mask(model, dataset)
    assert correctness_vector(model, dataset) == [
        oracle_correct(model, el) for el in dataset.elements
    ]


@pytest.mark.parametrize("scale", SCALES)
def test_packed_sweep_scores_zero_and_one(scale):
    grid = GridSpec(scale=scale, clip=4)
    top = grid.raw_max
    # scores 0, 0, +1, +1, -1, -1: a score of 0 is correct only for label 0
    rows = [((top, top), 0), ((top, top), 1), ((top, top - 1), 0),
            ((top, top - 1), 1), ((top - 1, top), 0), ((top - 1, top), 1)]
    ds = manual_dataset(grid, rows)
    model = Model("logistic-linear", FixedVector((1, -1), grid), 2)
    assert correctness_vector(model, ds) == [1, 0, 0, 1, 1, 0]


def test_packed_sweep_one_hot():
    grid = GridSpec()
    ds = generate_dataset(GeneratorSpec(family="one-hot", n=64, dim=64, seed=0), grid)
    rng = random.Random(5)
    for _ in range(4):
        raws = tuple(rng.choice((grid.raw_min, -1, 0, 0, 1, grid.raw_max)) for _ in range(64))
        model = Model("logistic-linear", FixedVector(raws, grid), 64)
        # one-hot labels are all 1: element e is correct iff its weight is positive
        assert correctness_mask(model, ds) == oracle_mask(model, ds)
        assert correctness_mask(model, ds) == sum(1 << e for e, w in enumerate(raws) if w > 0)


@pytest.mark.parametrize("bad", ("below", "above"))
def test_packed_sweep_rejects_a_weight_off_the_grid(bad):
    grid = GridSpec(scale=6, clip=4)
    ds = generate_dataset(GeneratorSpec(family="random-labels", n=8, dim=2, seed=1), grid)
    off = grid.raw_min - 1 if bad == "below" else grid.raw_max + 1
    model = Model("logistic-linear", FixedVector((0, off), grid), 2)
    with pytest.raises(DomainError):
        correctness_mask(model, ds)


def test_hidden_model_sweep_is_per_element():
    grid = GridSpec(scale=6, clip=4)
    ds = generate_dataset(GeneratorSpec(family="two-gaussians", n=24, dim=2, seed=4), grid)
    rng = random.Random(2)
    for _ in range(4):
        raws = tuple(rng.randint(-2 * grid.unit, 2 * grid.unit) for _ in range(3 * 2 + 3))
        model = Model("one-hidden-layer", FixedVector(raws, grid), 2, 3)
        assert correctness_mask(model, ds) == oracle_mask(model, ds)


def test_packed_sweep_on_checkpoints_of_a_large_random_labels_run():
    gen = GeneratorSpec(family="random-labels", n=4096, dim=2, seed=1)
    cfg = RunConfig(generator=gen, batch_size=16, step_raw=1 << 13, eps=Fraction(1, 4),
                    progress_coeff=Fraction(4), seed=1, max_epochs=2, grid=GridSpec())
    run = run_training(cfg)
    trace = run.traces[-1]
    assert len(trace.masks) == 4096 // 16 + 1
    for k in (0, 1, 128, 256):
        model = Model("logistic-linear", trace.checkpoints[k], 2)
        assert trace.masks[k] == oracle_mask(model, run.dataset)
