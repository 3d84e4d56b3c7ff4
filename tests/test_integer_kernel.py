"""The integer training kernel against an independent Fraction oracle.

The oracle below recomputes scores, the interpolated table sigmoid, its slope,
the mean batch gradient, its quantization and the descent update with exact
rationals, straight from the definitions.  The kernel must agree with it bit
for bit, including floor semantics on negative arguments, arguments exactly at
the table ends, and round-half-even ties.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import linear_sum_oracle, manual_dataset, pull_oracle, run_generated
from sgdcodec import model as model_module
from sgdcodec import sgd_engine
from sgdcodec.model import (
    KNOT_BITS,
    MODEL_KINDS,
    Z_MAX,
    Element,
    Model,
    GeneratorSpec,
    _dot,
    _linear_batch,
    _linear_sum,
    _sigmoid_knots,
    _sigmoid_num,
    _sparse_pairs,
    correctness_mask,
    correctness_vector,
    generate_dataset,
    loss_gradient,
    zero_model,
)
from sgdcodec.numerics import (
    DomainError,
    FixedVector,
    GridSpec,
    SaturationError,
    div_round_half_even,
    round_half_even,
)
from sgdcodec.sgd_engine import RunConfig, forward_step

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
    if any(r < grid.raw_min or r > grid.raw_max for r in raws):
        return None
    return raws


def oracle_update(raws, step_raw: int, grad_raws, grid: GridSpec):
    """The updated raws, or SaturationError where one leaves the clip range."""
    out = tuple(
        w - oracle_round(Fraction(step_raw * g, grid.unit)) for w, g in zip(raws, grad_raws)
    )
    if any(r < grid.raw_min or r > grid.raw_max for r in out):
        return SaturationError
    return out


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
    expect = oracle_update(model.weights.raws, step_raw, grad, grid)
    if expect is SaturationError:
        with pytest.raises(SaturationError, match="weight update clipped"):
            model.weights.gd_update(step_raw, FixedVector(grad, grid))
    else:
        assert model.weights.gd_update(step_raw, FixedVector(grad, grid)).raws == expect


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
    assert w.gd_update(step_raw, grad).raws == oracle_update(w.raws, step_raw, grad.raws, grid)


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
    run = run_generated(cfg)
    trace = run.traces[-1]
    assert len(trace.masks) == 4096 // 16 + 1
    for k in (0, 1, 128, 256):
        model = Model("logistic-linear", trace.checkpoints[k], 2)
        assert trace.masks[k] == oracle_mask(model, run.dataset)


def reference_step(model, batch, step_raw: int):
    """The step kernel as first written: row-wise accumulate, one division per
    coordinate, then the Fraction oracle's update.

    Returns (gradient raws, ``oracle_update``'s result) or, where
    loss_gradient must raise, the exception type.
    """
    grid, s, w = model.grid, model.grid.scale, model.weights.raws
    total = [0] * len(w)
    for el in batch:
        x = el.features.raws
        z = sum(a * b for a, b in zip(w, x))
        resid = _sigmoid_num(z, 2 * s, s) - (el.label << 3 * s)
        for c in range(len(x)):
            total[c] += resid * x[c]
    den = len(batch) << 3 * s
    grad = tuple(div_round_half_even(t, den) for t in total)
    if any(g < grid.raw_min or g > grid.raw_max for g in grad):
        return SaturationError
    return grad, oracle_update(w, step_raw, grad, grid)


def assert_step_matches_reference(model, batch, step_raw: int):
    """loss_gradient, gd_update and forward_step against reference_step; returns it."""
    expect = reference_step(model, batch, step_raw)
    if expect is SaturationError:
        with pytest.raises(SaturationError):
            loss_gradient(model, batch)
        with pytest.raises(SaturationError):
            forward_step(model, batch, step_raw)
        return expect
    grad_raws, raws = expect
    grad = loss_gradient(model, batch)
    assert grad.raws == grad_raws
    if raws is SaturationError:
        with pytest.raises(SaturationError, match="weight update clipped"):
            model.weights.gd_update(step_raw, grad)
        with pytest.raises(SaturationError, match="weight update clipped"):
            forward_step(model, batch, step_raw)
    else:
        assert model.weights.gd_update(step_raw, grad).raws == raws
        assert forward_step(model, batch, step_raw).weights.raws == raws
    return expect


@st.composite
def step_cases(draw):
    grid = GridSpec(scale=draw(st.sampled_from(SCALES)), clip=draw(st.integers(1, 8)))
    dim = draw(st.integers(1, 130))
    n = draw(st.integers(1, 6))
    coord = _near_zero_or_ends(grid)
    rows = []
    for _ in range(n):
        if draw(st.booleans()):  # a one-hot row
            raws = [0] * dim
            raws[draw(st.integers(0, dim - 1))] = draw(coord)
        else:
            raws = draw(st.lists(coord, min_size=dim, max_size=dim))
        rows.append((raws, draw(st.integers(0, 1))))
    dataset = manual_dataset(grid, rows)
    weights = draw(st.one_of(
        st.just([0] * dim),  # residuals of exactly +/-1/2: ties for odd features
        st.lists(coord, min_size=dim, max_size=dim),
    ))
    model = Model("logistic-linear", FixedVector(tuple(weights), grid), dim)
    step_raw = draw(st.one_of(st.integers(0, 2 * grid.unit), st.just(grid.unit // 2)))
    return model, dataset.elements, step_raw


@settings(max_examples=200, deadline=None)
@given(step_cases())
def test_step_kernel_matches_the_row_wise_reference(case):
    model, batch, step_raw = case
    assert_step_matches_reference(model, batch, step_raw)


def test_step_kernel_named_cases():
    grid = GridSpec(scale=4, clip=4)
    lo, hi, unit = grid.raw_min, grid.raw_max, grid.unit
    one_hot = [([0] * c + [2 * unit] + [0] * (129 - c), 1) for c in (0, 64, 129)]
    # one to three nonzeros a row, clip ends and -1 among them: the pair path
    sparse = [([0] * c + [x] + [0] * (129 - c), c % 2) for c, x in
              ((0, lo), (1, hi), (1, -1), (129, 3), (64, -unit))]
    sparse += [([lo] + [0] * 64 + [-1] + [0] * 63 + [hi], 0), ([0] * 127 + [1, 2, 3], 1)]
    # dense rows among one-hot ones push the batch past the cutoff: the column path
    mixed = one_hot + [([(-1) ** c * (c % 5) for c in range(130)], 0), ([hi] * 130, 1)]
    cases = {
        # zero weights: residual -1/2 times features of 1 and 3 raws gives
        # gradients of -1/2 and -3/2 raws; a quarter step of -2 is -1/2 again
        "ties": ([([1, 3] + [0] * 128, 1)], [0] * 130, unit // 4),
        # the first element's score is past the table end: residual exactly 0
        "zero residual": ([([hi], 1), ([1], 0)], [hi], unit),
        "one-hot": (one_hot, [0] * 130, unit),
        "all-sparse": (sparse, [(c % 7 - 3) * unit // 2 for c in range(130)], unit),
        "mixed-density": (mixed, [(3 - c % 7) for c in range(130)], unit // 2),
        # residual -1 times a feature of -clip is a gradient of +clip: one past raw_max
        "gradient clip": ([([lo], 1)], [unit * 2], unit),
        # residual near 1 times -1: the update pushes w_0 past raw_max
        "weight clip": ([([-unit, 2 * unit], 0)], [hi, hi], unit),
    }
    results, paths = {}, {}
    for name, (rows, weights, step_raw) in cases.items():
        ds = manual_dataset(grid, rows)
        model = Model("logistic-linear", FixedVector(tuple(weights), grid), ds.dim)
        results[name] = assert_step_matches_reference(model, ds.elements, step_raw)
        paths[name] = "pairs" if _sparse_pairs(ds.elements, ds.dim) else "columns"
    assert paths["all-sparse"] == paths["one-hot"] == "pairs"
    assert paths["mixed-density"] == "columns"
    assert results["all-sparse"] is not SaturationError and any(results["all-sparse"][0])
    assert results["mixed-density"] is not SaturationError and any(results["mixed-density"][0])
    assert results["ties"][0][:2] == (0, -2) and results["ties"][1][:2] == (0, 0)
    assert results["gradient clip"] is SaturationError
    assert results["weight clip"][1] is SaturationError
    assert results["one-hot"][0] == tuple(
        -round_half_even(Fraction(unit, 3)) if c in (0, 64, 129) else 0 for c in range(130)
    )
    assert _sigmoid_num(hi * hi, 2 * grid.scale, grid.scale) == 1 << 3 * grid.scale


@st.composite
def linear_kernel_cases(draw):
    """Weights, a batch, a target and a step for the inline table kernel.

    The flag fixes the path: sparse rows have at least ``_SPARSE_DIM``
    features and at most one nonzero in ``_SPARSE_DIM``; dense rows have
    fewer features, or every feature but the first nonzero.  An edge row
    solves for its first feature (w[0] is one raw) so that its score lands
    exactly on a table end, one raw inside it, or on a negative score off
    the floor grid of the knots; in an all-zero batch every score lies at
    or past the end its label sits at."""
    s = draw(st.sampled_from(SCALES))
    grid = GridSpec(scale=s, clip=64)
    unit, top = grid.unit, Z_MAX << 2 * s
    knot = 1 << 2 * s - KNOT_BITS  # scores between two knots are not multiples
    sparse = draw(st.booleans())
    dim = draw(st.sampled_from((8, 9, 16) if sparse else (1, 2, 7, 8, 9)))
    raw = st.integers(-2 * unit, 2 * unit)
    pivot = draw(st.sampled_from((1, -1)))
    w = (pivot, *draw(st.lists(raw, min_size=dim - 1, max_size=dim - 1)))
    all_zero = draw(st.sampled_from((False, False, True)))
    batch = []
    for e in range(draw(st.integers(1, 6))):
        label = draw(st.integers(0, 1))
        x = [0] * dim
        if sparse:
            for c in draw(st.lists(st.integers(0, dim - 1), max_size=dim // 8, unique=True)):
                x[c] = draw(raw.filter(bool))
        else:
            x = draw(st.lists(raw.filter(bool) if dim >= 8 else raw, min_size=dim, max_size=dim))
        edge = "past" if all_zero else draw(st.sampled_from(("free", "end", "inside", "floor")))
        if edge == "past":
            target = (top + draw(st.integers(0, unit))) * (1 if label else -1)
        elif edge == "end":
            target = draw(st.sampled_from((top, -top)))
        elif edge == "inside":
            target = draw(st.sampled_from((top - 1, 1 - top)))
        elif edge == "floor":
            target = -draw(st.integers(0, top // knot - 1)) * knot - draw(st.integers(1, knot - 1))
        if edge != "free":
            if sparse:
                x = [0] * dim
            x[0] = pivot * (target - sum(map(operator.mul, w[1:], x[1:])))
        batch.append(Element(e, FixedVector(tuple(x), grid), label))
    model = Model("logistic-linear", FixedVector(w, grid), dim)
    base = tuple(draw(st.lists(st.integers(grid.raw_min, grid.raw_max), min_size=dim, max_size=dim)))
    return model, batch, base, draw(st.integers(0, 2 * unit)), sparse, all_zero


@settings(max_examples=200, deadline=None, derandomize=True)
@given(linear_kernel_cases())
def test_inline_table_kernel_matches_the_per_element_oracles(case):
    model, batch, base, step_raw, sparse, all_zero = case
    grid, w = model.grid, model.weights.raws
    terms = _linear_batch(model, batch)
    assert terms == (
        [el._pairs for el in batch] if sparse else None,
        [el.features.raws for el in batch],
        [el.label << 3 * grid.scale for el in batch],
    )
    total = _linear_sum(terms, w, grid.scale)
    assert total == linear_sum_oracle(terms, w, grid.scale)
    if all_zero:
        assert not any(total[0])
    assert sgd_engine._pull(terms, w, base, step_raw, grid) == pull_oracle(
        terms, w, base, step_raw, grid
    )


def test_with_weights_rejects_a_wrong_weight_count():
    grid = GridSpec(scale=4, clip=4)
    model = zero_model("logistic-linear", 3, grid)
    with pytest.raises(DomainError):
        model.with_weights(FixedVector((0, 0), grid))
    hidden = zero_model("one-hidden-layer", 2, grid, width=2)
    with pytest.raises(DomainError):
        hidden.with_weights(FixedVector((0,) * 7, grid))


@pytest.mark.parametrize("scale,clip", ((0, 1), (4, 4), (16, 64)))
@pytest.mark.parametrize("dim", (1, 2, 63, 64, 65, 129, 130))
def test_lane_width_holds_the_extreme_scores(scale, clip, dim):
    grid = GridSpec(scale=scale, clip=clip)
    lo, hi = grid.raw_min, grid.raw_max
    patterns = (
        [lo] * dim, [hi] * dim, [lo, hi] * (dim // 2) + [lo] * (dim % 2), [0] * dim,
    )
    datasets = [
        manual_dataset(grid, [(raws, label) for raws in patterns for label in (0, 1)]),
        manual_dataset(grid, [([hi] * dim, 1), ([hi] * dim, 0)]),
        manual_dataset(grid, [([0] * dim, label) for label in (0, 1, 1, 0, 1)]),
    ]
    for weights in ([lo] * dim, [hi] * dim, [lo, hi] * (dim // 2) + [hi] * (dim % 2)):
        w = tuple(weights)
        model = Model("logistic-linear", FixedVector(w, grid), dim)
        for ds in datasets:
            expect = [int((_dot(w, el.features.raws) > 0) == el.label) for el in ds.elements]
            assert correctness_vector(model, ds) == expect
            assert correctness_mask(model, ds) == sum(b << e for e, b in enumerate(expect))


@pytest.mark.parametrize("scale,clip", ((0, 1), (4, 4), (16, 64)))
@pytest.mark.parametrize("dim", (63, 64, 65, 129, 130))
def test_sparse_lanes_equal_the_packed_bytes(monkeypatch, scale, clip, dim):
    grid = GridSpec(scale=scale, clip=clip)
    values = (grid.raw_min, grid.raw_max, -1)
    # one-hot rows cycling through the clip ends and -1, labels mixed; past
    # dim the coordinates wrap, so some columns hold two lanes, a negative
    # one among them; two all-zero rows close the dataset
    rows = [([0] * (e % dim) + [values[e % 3]] + [0] * (dim - 1 - e % dim), e % 2)
            for e in range(dim + 4)]
    rows += [([0] * dim, 1), ([0] * dim, 0)]
    # negative entries only: the lane width must come from |raw_min|
    negative = [(raws, label) for raws, label in rows if max(raws) <= 0]
    sparse = [manual_dataset(grid, r) for r in (rows, negative)]
    assert all(_sparse_pairs(ds.elements, dim) is not None for ds in sparse)
    lanes = [ds._lanes for ds in sparse]
    monkeypatch.setattr(model_module, "_SPARSE_DIM", dim + 1)
    dense = [manual_dataset(grid, r) for r in (rows, negative)]
    assert all(_sparse_pairs(ds.elements, dim) is None for ds in dense)
    assert lanes == [ds._lanes for ds in dense]
    w = tuple(values[c % 3] for c in range(dim))
    m = Model("logistic-linear", FixedVector(w, grid), dim)
    for s, d in zip(sparse, dense):
        expect = sum(((_dot(w, el.features.raws) > 0) == el.label) << el.eid for el in d.elements)
        assert correctness_mask(m, s) == correctness_mask(m, d) == expect
