"""The reverse search's integer pull against the forward step it stands in for.

``reverse_step`` tests Phi(w) = target + round(step * g(w)) = w in integers
and runs ``forward_step`` only where that holds.  The skip is exact only if
every forward hit is a fixed point of the pull, and only saturation keeps a
fixed point from being a hit.  These tests check both on every point of
small grids and on the clip cases of the step kernel, count the forward
steps the search runs, and check that bad inputs raise as they did before
any point is evaluated.
"""

from __future__ import annotations

import operator
from fractions import Fraction

import pytest

from conftest import manual_dataset
from sgdcodec import sgd_engine
from sgdcodec.model import Element, _linear_batch, _sigmoid_num, zero_model
from sgdcodec.numerics import (
    DomainError,
    FixedVector,
    GridSpec,
    PreconditionError,
    SaturationError,
    div_round_half_even,
)
from sgdcodec.sgd_engine import ReverseError, RunConfig, forward_step, reverse_step

SMALL = GridSpec(scale=3, clip=2)
KERNEL = GridSpec(scale=4, clip=4)  # the grid of test_step_kernel_named_cases

# (grid, rows, step_raw): every small-grid batch has step * L < 1
SMALL_CASES = {
    "d=1": (SMALL, [((3,), 1), ((2,), 1), ((-1,), 0), ((1,), 1)], 6),
    "d=2": (SMALL, [((1, 0), 1), ((-1, -2), 0), ((0, 2), 1), ((1, -1), 0)], 6),
}


def grid_points(grid: GridSpec, d: int) -> list[tuple[int, ...]]:
    """Every point of the grid in d coordinates, ascending lexicographic."""
    points = [()]
    for _ in range(d):
        points = [p + (r,) for p in points for r in range(grid.raw_min, grid.raw_max + 1)]
    return points


def unclipped_image(p, batch, step_raw: int, grid: GridSpec) -> tuple[int, ...]:
    """p - round(step * g(p)), the gradient summed row by row and nothing clipped."""
    s = grid.scale
    total = [0] * len(p)
    for el in batch:
        x = el.features.raws
        resid = _sigmoid_num(sum(map(operator.mul, p, x)), 2 * s, s) - (el.label << 3 * s)
        for c, xc in enumerate(x):
            total[c] += resid * xc
    den = len(batch) << 3 * s
    return tuple(
        w - div_round_half_even(step_raw * div_round_half_even(t, den), grid.unit)
        for w, t in zip(p, total)
    )


def assert_pull_parity(grid, rows, step_raw, points) -> list[bool]:
    """At each point p, for its unclipped image t* and each t* +/- one raw in
    one coordinate as the target t: the pull fixes p iff t = t*, and the
    forward step maps p onto t iff the pull fixes p and the step does not
    saturate.  Returns whether each point's forward step saturated."""
    ds = manual_dataset(grid, rows)
    template = zero_model("logistic-linear", ds.dim, grid)
    terms = _linear_batch(template, ds.elements)
    saturated = []
    for p in points:
        try:
            image = forward_step(template.with_weights(FixedVector(p, grid)),
                                 ds.elements, step_raw).weights.raws
        except SaturationError:
            image = None
        saturated.append(image is None)
        star = unclipped_image(p, ds.elements, step_raw, grid)
        targets = [star] + [
            star[:c] + (star[c] + o,) + star[c + 1 :] for c in range(len(p)) for o in (-1, 1)
        ]
        for t in targets:
            fixed = sgd_engine._pull(terms, p, t, step_raw, grid) == p
            assert fixed == (t == star), (p, t)
            assert (image == t) == (fixed and image is not None), (p, t)
    return saturated


@pytest.mark.parametrize("name", sorted(SMALL_CASES))
def test_pull_fixes_exactly_the_forward_preimages_on_every_grid_point(name):
    grid, rows, step_raw = SMALL_CASES[name]
    saturated = assert_pull_parity(grid, rows, step_raw, grid_points(grid, len(rows[0][0])))
    assert any(saturated) and not all(saturated)  # both sides of the accept test


@pytest.mark.parametrize("rows, weights, step_raw", [
    # gradient clip: residual -1 times a feature of -clip is a gradient of +clip
    ([((KERNEL.raw_min,), 1)], (2 * KERNEL.unit,), KERNEL.unit),
    # weight clip: the update pushes w_0 past raw_max
    ([((-KERNEL.unit, 2 * KERNEL.unit), 0)], (KERNEL.raw_max,) * 2, KERNEL.unit),
], ids=["gradient clip", "weight clip"])
def test_a_saturating_fixed_point_is_no_forward_preimage(rows, weights, step_raw):
    # the pull fixes each named point for its unclipped image, yet the
    # forward step raises there: only the accept test tells them apart
    assert assert_pull_parity(KERNEL, rows, step_raw, [weights]) == [True]


def test_reverse_step_steps_forward_once_per_fixed_point(monkeypatch):
    grid, rows, step_raw = SMALL_CASES["d=2"]
    ds = manual_dataset(grid, rows)
    cfg = RunConfig(generator=ds.spec, batch_size=4, step_raw=step_raw, eps=Fraction(1, 100),
                    progress_coeff=Fraction(1), seed=0, max_epochs=1, grid=grid)
    template = zero_model("logistic-linear", 2, grid)
    pulls, stepped = [], []
    real_pull, real_step = sgd_engine._pull, sgd_engine.forward_step

    def pull_spy(terms, w, base, step_raw, grid):
        pulls.append((w, real_pull(terms, w, base, step_raw, grid)))
        return pulls[-1][1]

    def step_spy(model, batch, step_raw):
        stepped.append(model.weights.raws)
        return real_step(model, batch, step_raw)

    monkeypatch.setattr(sgd_engine, "_pull", pull_spy)
    monkeypatch.setattr(sgd_engine, "forward_step", step_spy)
    outcomes = set()
    for target in grid_points(grid, 2):
        pulls.clear()
        stepped.clear()
        try:
            reverse_step(FixedVector(target, grid), ds.elements, cfg, template)
            outcomes.add("unique")
        except ReverseError as exc:
            outcomes.add(type(exc).__name__)
        points = [w for w, _ in pulls]
        assert len(points) == len(set(points))  # one pull per distinct point
        # only the last iterate can be a fixed point off the scan, and it
        # centres the ball, so the fixed points on the grid are the ball's
        fixed = sorted(w for w, pulled in pulls if pulled == w and grid.holds(w))
        assert stepped == fixed
    assert outcomes == {"unique", "MultiplePreimage", "PreimageNotFound"}


def _bad_input(case: str):
    """(target, batch, config, template, error type, error text) for one bad input."""
    grid = GridSpec(scale=6, clip=4)
    ds = manual_dataset(grid, [((8,), 1)] * 2)
    cfg = RunConfig(generator=ds.spec, batch_size=2, step_raw=8, eps=Fraction(1, 100),
                    progress_coeff=Fraction(1), seed=0, max_epochs=1, grid=grid)
    template = zero_model("logistic-linear", 1, grid)
    target, batch = FixedVector((0,), grid), ds.elements
    if case == "empty batch":
        return target, (), cfg, template, DomainError, "empty batch"
    if case == "another grid":
        other = GridSpec(scale=6, clip=8)
        batch = tuple(Element(e, FixedVector((8,), other), 1) for e in range(2))
        return target, batch, cfg, template, DomainError, "element and model live on different grids"
    if case == "another dim":
        batch = tuple(Element(e, FixedVector((8, 8), grid), 1) for e in range(2))
        return target, batch, cfg, template, DomainError, "element 0 and the model differ in dim"
    if case == "hidden layer":
        hidden = zero_model("one-hidden-layer", 1, grid, width=1)
        return (FixedVector((0, 0), grid), batch, cfg, hidden, PreconditionError,
                "no smoothness bound for one-hidden-layer")
    # |x| = 250 raw and step_raw 8: step * L = 8 * 250**2 * 64 / 64**4 >= 1
    steep = tuple(Element(e, FixedVector((250,), grid), 1) for e in range(2))
    text = "step*smoothness = 15625/8192 >= 1 on this batch"
    return target, steep, cfg, template, PreconditionError, text


@pytest.mark.parametrize(
    "case", ["empty batch", "another grid", "another dim", "hidden layer", "steep batch"]
)
def test_reverse_step_refuses_bad_input_before_any_pull(case, monkeypatch):
    target, batch, cfg, template, error, text = _bad_input(case)
    evaluated = []
    monkeypatch.setattr(sgd_engine, "_pull", lambda *a: evaluated.append(a))
    monkeypatch.setattr(sgd_engine, "forward_step", lambda *a: evaluated.append(a))
    with pytest.raises(error) as got:
        reverse_step(target, batch, cfg, template)
    assert str(got.value) == text
    assert evaluated == []
