"""Dataset generators, the table sigmoid, gradients, accuracy bookkeeping."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import hypothesis.strategies as st
import mpmath
import pytest
from hypothesis import given, settings

from conftest import generate_dataset_oracle, manual_dataset, one_hot_dataset
from sgdcodec.model import (
    Dataset,
    Element,
    FAMILIES,
    GeneratorSpec,
    KNOT_BITS,
    Model,
    Z_MAX,
    _gradient_sum,
    _sigmoid_knots,
    _sigmoid_num,
    _sigmoid_slope_num,
    _sparse_pairs,
    analytic_logistic_smoothness,
    correctness_mask,
    generate_dataset,
    loss_gradient,
    sigmoid_table_max_slope,
    zero_model,
)
from sgdcodec.numerics import (
    DomainError,
    FixedVector,
    GridSpec,
    SaturationError,
    round_half_even,
)
from sgdcodec.stable import stable_sigmoid_float

GRID = GridSpec()
SMALL = GridSpec(scale=6, clip=4)


def _dyadic(z):
    zf = Fraction(z)
    exp = zf.denominator.bit_length() - 1
    assert zf.denominator == 1 << exp
    return zf.numerator, exp


def sigmoid_table_value(z, scale):
    """Interpolated table sigmoid at a dyadic z, exact rational in [0, 1]."""
    num, exp = _dyadic(z)
    return Fraction(_sigmoid_num(num, exp, scale), 1 << (scale + exp))


def sigmoid_table_slope(z, scale):
    """Right-segment slope of the table sigmoid at a dyadic z (zero beyond the ends)."""
    num, exp = _dyadic(z)
    return Fraction(_sigmoid_slope_num(num, exp, scale), 1 << scale)


def gradient_exact(model, batch):
    """Exact rational mean gradient of the table-defined logistic loss over a batch."""
    total, exp = _gradient_sum(model, batch)
    return tuple(Fraction(t, len(batch) << exp) for t in total)


def test_generator_is_deterministic():
    spec = GeneratorSpec(family="two-gaussians", n=24, dim=3, seed=9)
    a = generate_dataset(spec, GRID)
    b = generate_dataset(spec, GRID)
    assert a.to_text() == b.to_text()
    c = generate_dataset(GeneratorSpec(family="two-gaussians", n=24, dim=3, seed=10), GRID)
    assert a.to_text() != c.to_text()


# Every family over seeds, dims, feature scales and grids; two-gaussians also
# over a sigma (3 on the clip-4 grid) that clamps coordinates.
_ORACLE_SPECS = [
    (GeneratorSpec(family, 20, 20 if family == "one-hot" else dim, seed,
                   sigma=sigma, feature_scale=scale), grid)
    for family in FAMILIES
    for sigma in (Fraction(1, 2), Fraction(3))[: 2 if family == "two-gaussians" else 1]
    for seed, dim, scale, grid in itertools.product(
        (0, 3, 1234567),
        (1, 3),
        (1, 3),
        (GridSpec(scale=6, clip=4), GridSpec(scale=0, clip=8), GridSpec()),
    )
    if scale * grid.unit <= grid.raw_max
]


@pytest.mark.parametrize("spec, grid", _ORACLE_SPECS)
def test_generator_matches_the_randrange_oracle(spec, grid):
    got = generate_dataset(spec, grid)
    want = generate_dataset_oracle(spec, grid)
    assert got.n == want.n == spec.n
    for a, b in zip(got.elements, want.elements):
        assert (a.eid, a.label, a.features) == (b.eid, b.label, b.features)


def test_generator_rejects_unknown_family():
    with pytest.raises(DomainError):
        GeneratorSpec(family="mystery", n=8, dim=2, seed=0)


def test_one_hot_structure():
    spec = GeneratorSpec(family="one-hot", n=12, dim=12, seed=4, feature_scale=2)
    ds = generate_dataset(spec, GRID)
    for el in ds.elements:
        nonzero = [c for c, r in enumerate(el.features.raws) if r]
        assert nonzero == [el.eid]
        assert el.features.raws[el.eid] == 2 * GRID.unit
        assert el.label == 1


def test_one_hot_requires_square_dim():
    with pytest.raises(DomainError):
        GeneratorSpec(family="one-hot", n=12, dim=4, seed=0)


def values(vec: FixedVector) -> tuple[Fraction, ...]:
    """The vector's coordinates as exact rationals."""
    return tuple(Fraction(r, vec.grid.unit) for r in vec.raws)


def perceptron_separates(ds: Dataset, iters: int = 2000) -> bool:
    """Independent separability oracle: exact-rational perceptron."""
    w = [Fraction(0)] * ds.dim
    bias = Fraction(0)
    for _ in range(iters):
        clean = True
        for el in ds.elements:
            dot = sum(wi * xv for wi, xv in zip(w, values(el.features))) + bias
            pred = 1 if dot > 0 else 0
            if pred != el.label:
                sign = 1 if el.label == 1 else -1
                w = [wi + sign * xv for wi, xv in zip(w, values(el.features))]
                bias += sign
                clean = False
        if clean:
            return True
    return False


def test_separable_margin_family_is_separable():
    spec = GeneratorSpec(
        family="separable-margin", n=48, dim=4, seed=3, margin=Fraction(1, 4)
    )
    ds = generate_dataset(spec, GRID)
    assert perceptron_separates(ds)
    labels = {el.label for el in ds.elements}
    assert labels == {0, 1}


def test_two_gaussians_centers():
    spec = GeneratorSpec(
        family="two-gaussians", n=40, dim=2, seed=6,
        sigma=Fraction(0), center_dist=Fraction(2),
    )
    ds = generate_dataset(spec, GRID)
    for el in ds.elements:
        expect = GRID.unit if el.label == 1 else -GRID.unit
        assert el.features.raws[0] == expect  # center_dist/2 on axis 0
        assert el.features.raws[1] == 0


def test_random_labels_balance():
    spec = GeneratorSpec(family="random-labels", n=64, dim=4, seed=1)
    ds = generate_dataset(spec, GRID)
    ones = sum(el.label for el in ds.elements)
    assert 10 <= ones <= 54


def test_dataset_text_round_trip():
    spec = GeneratorSpec(family="random-labels", n=16, dim=3, seed=2)
    ds = generate_dataset(spec, GRID)
    back = Dataset.from_text(ds.to_text(), GRID)
    assert back.to_text() == ds.to_text()
    assert [el.features.raws for el in back.elements] == [
        el.features.raws for el in ds.elements
    ]


def dense_text(ds: Dataset) -> str:
    """The dataset text rendered entry by entry, as every row once was."""
    lines = [f"{ds.n}\t{ds.dim}\t{ds.grid.scale}"]
    for el in ds.elements:
        lines.append(f"{el.eid}\t{el.label}\t{','.join(map(str, el.features.raws))}")
    return "\n".join(lines) + "\n"


def sparse_row_datasets() -> dict[str, Dataset]:
    lo, hi = SMALL.raw_min, SMALL.raw_max
    one_hot = generate_dataset(GeneratorSpec(family="one-hot", n=64, dim=64, seed=0), GRID)
    mixed = [([0] * c + [c + 1] + [0] * (39 - c), c % 2) for c in range(39)]
    mixed += [([(-1) ** c * c for c in range(40)], 1), ([0] * 40, 0)]
    negative = [([0] * (e % 16) + [(lo, -1, hi, -7)[e % 4]] + [0] * (15 - e % 16), 1)
                for e in range(20)]
    return {
        "one-hot": one_hot,
        "mixed": manual_dataset(SMALL, mixed),
        "negative": manual_dataset(SMALL, negative),
    }


@pytest.mark.parametrize("name", ("one-hot", "mixed", "negative"))
def test_sparse_rows_render_and_bound_like_dense_rows(name):
    ds = sparse_row_datasets()[name]
    assert _sparse_pairs(ds.elements, ds.dim) is not None
    assert ds.to_text() == dense_text(ds)
    assert Dataset.from_text(ds.to_text(), ds.grid).elements == ds.elements
    worst = max(sum(r * r for r in el.features.raws) for el in ds.elements)
    assert analytic_logistic_smoothness(ds.elements) == Fraction(worst, ds.grid.unit**2) / 4
    assert analytic_logistic_smoothness(iter(ds.elements)) == Fraction(worst, ds.grid.unit**2) / 4


def test_dataset_text_rejects_scale_mismatch():
    ds = generate_dataset(GeneratorSpec(family="random-labels", n=4, dim=2, seed=0), GRID)
    with pytest.raises(DomainError):
        Dataset.from_text(ds.to_text(), SMALL)


def test_dataset_ids_must_be_dense():
    ds = generate_dataset(GeneratorSpec(family="random-labels", n=4, dim=2, seed=0), GRID)
    with pytest.raises(DomainError):
        Dataset(ds.elements[1:], GRID)


def test_dataset_rejects_ragged_features():
    # once accepted: correctness_mask then truncated row 1 through zip(*rows)
    # and marked it wrong, while loss_gradient raised on the same data
    elements = (
        Element(0, FixedVector((1, 0), GRID), 0),
        Element(1, FixedVector((0, 0, 16), GRID), 1),
    )
    with pytest.raises(DomainError, match="element 1 has 3 features, not 2"):
        Dataset(elements, GRID)


def test_sigmoid_table_fixed_points():
    assert sigmoid_table_value(0, 16) == Fraction(1, 2)
    assert sigmoid_table_value(Z_MAX, 16) == 1
    assert sigmoid_table_value(-Z_MAX, 16) == 0
    assert sigmoid_table_value(Fraction(100), 16) == 1
    assert sigmoid_table_value(Fraction(-100), 16) == 0


def _mpmath_knot_floats():
    """sigma at every knot as mpmath gave it: 40 digits, then one float."""
    with mpmath.workdps(40):
        return [
            float(1 / (1 + mpmath.exp(-mpmath.mpf(k) / mpmath.mpf(1 << KNOT_BITS))))
            for k in range(-(Z_MAX << KNOT_BITS), (Z_MAX << KNOT_BITS) + 1)
        ]


def test_sigmoid_knots_match_reference():
    # every knot at every scale 0-40 equals the table mpmath built
    floats = _mpmath_knot_floats()
    for scale in range(41):
        expect = tuple(round_half_even(Fraction(v) * (1 << scale)) for v in floats)
        assert _sigmoid_knots(scale) == expect, scale


def test_sigmoid_knot_is_the_stable_sigmoid_float_on_the_grid():
    # knot k sits at z = k / 2^KNOT_BITS, rounded half-even at the scale
    for k in (-512, -511, -300, -64, -1, 0, 1, 77, 256, 511, 512):
        v = stable_sigmoid_float(Fraction(k, 1 << KNOT_BITS))
        for scale in (0, 16, 40):
            knots = _sigmoid_knots(scale)
            assert knots[k + (Z_MAX << KNOT_BITS)] == round_half_even(Fraction(v) * (1 << scale))


def test_sigmoid_interpolation_is_linear():
    s = 16
    lo = sigmoid_table_value(Fraction(3, 64), s)
    hi = sigmoid_table_value(Fraction(4, 64), s)
    mid = sigmoid_table_value(Fraction(7, 128), s)
    assert mid == (lo + hi) / 2


def test_sigmoid_monotone_nondecreasing():
    s = 8
    pts = [Fraction(k, 128) for k in range(-8 * 128, 8 * 128 + 1, 37)]
    vals = [sigmoid_table_value(z, s) for z in pts]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_sigmoid_slope_matches_segments():
    s = 16
    z = Fraction(5, 64)
    step = Fraction(1, 64)
    expect = (sigmoid_table_value(z + step, s) - sigmoid_table_value(z, s)) / step
    assert sigmoid_table_slope(z, s) == expect
    assert sigmoid_table_slope(Fraction(9), s) == 0


def test_sigmoid_table_max_slope_by_scale():
    # knots rounded to a coarse grid make the table steeper than sigmoid' <= 1/4
    slopes = [sigmoid_table_max_slope(s) for s in (4, 6, 8, 16)]
    assert slopes == [4, 1, Fraction(1, 4), Fraction(1, 4)]


def test_zero_model_gradient_formula():
    # at W = 0 the logistic residual is exactly 1/2 - y
    ds = generate_dataset(GeneratorSpec(family="random-labels", n=8, dim=3, seed=5), GRID)
    model = zero_model("logistic-linear", 3, GRID)
    batch = ds.elements[:4]
    grad = gradient_exact(model, batch)
    for c in range(3):
        expect = sum(
            (Fraction(1, 2) - el.label) * values(el.features)[c] for el in batch
        ) / len(batch)
        assert grad[c] == expect


def test_gradient_matches_independent_recompute():
    ds = generate_dataset(GeneratorSpec(family="two-gaussians", n=12, dim=2, seed=8), GRID)
    w = FixedVector((GRID.unit // 3, -GRID.unit // 5), GRID)
    model = Model("logistic-linear", w, 2)
    batch = ds.elements[2:9]
    grad = gradient_exact(model, batch)
    total = [Fraction(0), Fraction(0)]
    for el in batch:
        z = sum(wv * xv for wv, xv in zip(values(w), values(el.features)))
        resid = sigmoid_table_value(z, GRID.scale) - el.label
        for c in range(2):
            total[c] += resid * values(el.features)[c]
    assert grad == tuple(t / len(batch) for t in total)


def test_gradient_rejects_empty_batch():
    model = zero_model("logistic-linear", 2, GRID)
    with pytest.raises(DomainError):
        gradient_exact(model, [])


@pytest.mark.parametrize("kind, width", [("logistic-linear", 0), ("one-hidden-layer", 2)])
def test_a_model_of_another_dim_than_the_data_is_rejected(kind, width):
    # zip would pair 3 weights with 2 features and drop the third silently
    ds = generate_dataset(GeneratorSpec(family="random-labels", n=8, dim=2, seed=1), GRID)
    model = zero_model(kind, 3, GRID, width)
    with pytest.raises(DomainError):
        correctness_mask(model, ds)
    with pytest.raises(DomainError):
        loss_gradient(model, ds.elements[:4])
    with pytest.raises(DomainError):
        gradient_exact(model, ds.elements[:1])


def test_loss_gradient_quantizes_half_even():
    ds = one_hot_dataset(SMALL, 4, 2 * SMALL.unit)
    model = zero_model("logistic-linear", 4, SMALL)
    vec = loss_gradient(model, ds.elements[:1])
    exact = gradient_exact(model, ds.elements[:1])
    assert vec.raws == tuple(round_half_even(g * SMALL.unit) for g in exact)


def test_loss_gradient_saturation():
    rows = [((SMALL.raw_max,), 0)]
    ds = manual_dataset(SMALL, rows)
    # gradient magnitude ~ x/2 stays on grid; saturated model flag must raise
    model = Model(
        "logistic-linear", FixedVector((0,), SMALL, saturated=True), 1
    )
    with pytest.raises(SaturationError):
        loss_gradient(model, ds.elements)


def test_hidden_model_gradient_shape():
    ds = generate_dataset(GeneratorSpec(family="random-labels", n=6, dim=2, seed=3), GRID)
    model = zero_model("one-hidden-layer", 2, GRID, width=3)
    grad = gradient_exact(model, ds.elements[:3])
    assert len(grad) == 3 * 2 + 3
    # zero hidden weights: output residual only reaches the output layer
    assert all(g == 0 for g in grad[:6])


def test_analytic_smoothness_bounds():
    rows = [((3, 4), 1), ((0, 2), 0)]
    ds = manual_dataset(GridSpec(scale=0, clip=64), rows)
    assert analytic_logistic_smoothness(ds.elements) == Fraction(25, 4)  # max |x|^2 = 25
    assert analytic_logistic_smoothness(ds.elements[1:]) == 1
    assert analytic_logistic_smoothness(()) == 0


@st.composite
def feature_batches(draw):
    grid = GridSpec(scale=draw(st.sampled_from((0, 6, 16))), clip=draw(st.integers(1, 64)))
    dim = draw(st.integers(1, 4))
    raw = st.integers(grid.raw_min, grid.raw_max)
    rows = draw(st.lists(st.lists(raw, min_size=dim, max_size=dim), max_size=6))
    return [Element(e, FixedVector(tuple(r), grid), 0) for e, r in enumerate(rows)]


@settings(max_examples=100, deadline=None)
@given(feature_batches())
def test_analytic_smoothness_matches_the_per_element_formula(batch):
    worst = Fraction(0)
    for el in batch:
        x = el.features
        worst = max(worst, Fraction(sum(r * r for r in x.raws), x.grid.unit**2))
    assert analytic_logistic_smoothness(batch) == worst / 4
