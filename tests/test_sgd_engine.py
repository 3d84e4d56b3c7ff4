"""Permutation tape, epoch loop, and the exhaustive reverse-step oracle."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import band_dataset, manual_dataset, one_hot_dataset
from sgdcodec.harness import write_trace_csv
from sgdcodec.model import (
    GeneratorSpec,
    analytic_logistic_smoothness,
    generate_dataset,
    zero_model,
)
from sgdcodec.numerics import (
    DomainError,
    FixedVector,
    GridSpec,
    PreconditionError,
    SaturationError,
)
from sgdcodec.sgd_engine import (
    BitTape,
    GOLDEN64,
    MultiplePreimage,
    PreimageNotFound,
    RunConfig,
    check_step_smoothness,
    draw_epoch_permutation,
    draw_permutation,
    forward_step,
    reverse_epoch,
    reverse_step,
    run_epoch,
    run_training,
    splitmix64,
    step_smoothness,
    vector_from_bytes,
    vector_to_bytes,
)

GRID = GridSpec()
GRID6 = GridSpec(scale=6, clip=4)


def band_config(dataset, step_raw, seed=1, **kw):
    return RunConfig(
        generator=dataset.spec,
        batch_size=kw.pop("batch_size", 4),
        step_raw=step_raw,
        eps=kw.pop("eps", Fraction(1, 100)),
        progress_coeff=kw.pop("progress_coeff", Fraction(1)),
        seed=seed,
        max_epochs=kw.pop("max_epochs", 3),
        grid=dataset.grid,
        **kw,
    )


def test_splitmix64_reference_vectors():
    # published sequence for seed 0
    state, out = splitmix64(0)
    assert state == GOLDEN64
    assert out == 0xE220A8397B1DCDAF
    state, out = splitmix64(state)
    assert out == 0x6E789E6AA1B965F4
    state, out = splitmix64(state)
    assert out == 0x06C45D188009454F


def test_bit_tape_is_deterministic_and_epoch_separated():
    a = BitTape(seed=42, epoch=1)
    b = BitTape(seed=42, epoch=1)
    c = BitTape(seed=42, epoch=2)
    va = [a.take(13) for _ in range(20)]
    vb = [b.take(13) for _ in range(20)]
    vc = [c.take(13) for _ in range(20)]
    assert va == vb
    assert va != vc


def test_bit_tape_rejects_negative_width():
    with pytest.raises(DomainError):
        BitTape(0, 0).take(-1)


class ScriptedSource:
    """Bit source answering take() from a fixed list, for exact FY oracles."""

    def __init__(self, values):
        self.values = list(values)

    def take(self, width):
        return self.values.pop(0)


def test_fisher_yates_scripted_draws():
    # n=4: i=3 takes 2 bits, i=2 takes 2 bits (rejects 3), i=1 takes 1 bit
    src = ScriptedSource([2, 3, 1, 0])
    order = draw_permutation(4, src)
    # start [0,1,2,3]: swap(3,2) -> [0,1,3,2]; draw 3 rejected, then 1:
    # swap(2,1) -> [0,3,1,2]; swap(1,0) -> [3,0,1,2]
    assert order == (3, 0, 1, 2)
    assert src.values == []


def test_draw_permutation_is_valid_and_replayable():
    for seed in range(5):
        order = draw_epoch_permutation(50, seed, epoch=3)
        assert sorted(order) == list(range(50))
        assert draw_epoch_permutation(50, seed, epoch=3) == order


def test_permutation_uniformity_smoke():
    counts = {}
    for seed in range(4096):
        order = draw_epoch_permutation(3, seed, epoch=1)
        counts[order] = counts.get(order, 0) + 1
    assert len(counts) == 6
    assert min(counts.values()) > 4096 / 6 * 0.7


def test_run_config_validation():
    gen = GeneratorSpec(family="random-labels", n=16, dim=2, seed=0)
    with pytest.raises(DomainError):
        RunConfig(generator=gen, batch_size=3, step_raw=1, eps=Fraction(1, 4),
                  progress_coeff=Fraction(1), seed=0, max_epochs=1, grid=GRID)
    with pytest.raises(DomainError):
        RunConfig(generator=gen, batch_size=4, step_raw=-1, eps=Fraction(1, 4),
                  progress_coeff=Fraction(1), seed=0, max_epochs=1, grid=GRID)
    with pytest.raises(DomainError):
        RunConfig(generator=gen, batch_size=4, step_raw=1, eps=Fraction(2),
                  progress_coeff=Fraction(1), seed=0, max_epochs=1, grid=GRID)


def test_zero_step_epoch_keeps_model_frozen():
    ds = generate_dataset(GeneratorSpec(family="random-labels", n=16, dim=2, seed=3), GRID)
    cfg = band_config(ds, step_raw=0, eps=Fraction(1, 100), max_epochs=2)
    run = run_training(cfg, ds)
    assert run.epochs_completed == 2
    for tr in run.completed_traces:
        first = tr.checkpoints[0].raws
        assert all(w.raws == first for w in tr.checkpoints)
        assert len(set(tr.full_acc)) == 1


def test_trace_accuracy_identity():
    # n*lambda == |seen|*lambda' + |unseen|*lambda'' at every checkpoint
    ds = generate_dataset(GeneratorSpec(family="two-gaussians", n=24, dim=2, seed=4), GRID)
    cfg = band_config(ds, step_raw=GRID.unit // 8, batch_size=4, max_epochs=2,
                      eps=Fraction(1, 1000))
    run = run_training(cfg, ds)
    assert run.traces, "no epochs ran"
    for tr in run.traces:
        n, b = tr.n, tr.batch_size
        for j in range(2, tr.steps_done + 1):
            seen_count = (j - 1) * b
            lhs = n * tr.full(j)
            rhs = seen_count * tr.seen(j) + (n - seen_count) * tr.unseen(j)
            assert lhs == rhs


def test_termination_happens_before_any_step():
    # zero model is already accurate enough: epoch 1 stops at j=1, no steps
    rows = [((GRID.unit,), 0) for _ in range(8)]
    ds = manual_dataset(GRID, rows)
    cfg = band_config(ds, step_raw=GRID.unit // 4, eps=Fraction(1, 2), batch_size=2)
    run = run_training(cfg, ds)
    assert run.terminated
    tr = run.traces[0]
    assert tr.terminated and tr.terminated_at == 1
    assert tr.steps_done == 0 and not tr.completed
    assert run.epochs_completed == 0


def test_saturation_aborts_epoch():
    grid = GridSpec(scale=4, clip=1)
    # one solidly correct point dominates the mean gradient and drags the
    # weight over the clip edge; the barely wrong point keeps accuracy low
    rows = [((grid.raw_max,), 0), ((1,), 1)]
    ds = manual_dataset(grid, rows)
    cfg = band_config(ds, step_raw=grid.unit - 1, eps=Fraction(1, 100),
                      batch_size=2, max_epochs=3)
    model = zero_model("logistic-linear", 1, grid)
    w = FixedVector((grid.raw_min + 1,), grid)
    trace, _ = run_epoch(model.with_weights(w), ds, cfg, epoch=1)
    assert trace.saturated and not trace.completed


def test_check_step_smoothness_rejects_large_steps():
    rows = [((2 * GRID.unit,), 1), ((GRID.unit,), 0)]
    ds = manual_dataset(GRID, rows)
    cfg = band_config(ds, step_raw=2 * GRID.unit, batch_size=2)
    # L = max|x|^2/4 = 1, step 2 -> product 2 >= 1
    with pytest.raises(PreconditionError):
        check_step_smoothness(cfg, ds)


def test_check_step_smoothness_uses_the_table_slope():
    # at scale 6 the table's steepest segment has slope 1, not 1/4:
    # step 1/2 with max|x|^2 = 4 passes the analytic bound (1/2) but the
    # table's smoothness gives step*L = 2
    rows = [((2 * GRID6.unit,), 1), ((GRID6.unit,), 0)]
    ds = manual_dataset(GRID6, rows)
    cfg = band_config(ds, step_raw=GRID6.unit // 2, batch_size=2)
    quarter_l = analytic_logistic_smoothness(ds.elements)
    assert Fraction(cfg.step_raw, GRID6.unit) * quarter_l < 1
    with pytest.raises(PreconditionError):
        check_step_smoothness(cfg, ds)


def test_reverse_step_inverts_forward_on_band():
    # constant-update band: every forward step is well inside the ball
    ds = band_dataset(GRID6, 16, lo_raw=22, hi_raw=29, seed=5)
    cfg = band_config(ds, step_raw=4, batch_size=4)
    template = zero_model("logistic-linear", 1, GRID6)
    batch = ds.subset((0, 3, 7, 11))
    for w_raw in (-60, -10, 0, 17, 63):
        start = FixedVector((w_raw,), GRID6)
        stepped, _ = forward_step(template.with_weights(start), batch, cfg.step_raw)
        back = reverse_step(stepped.weights, batch, cfg, template)
        assert back.raws == start.raws


def test_reverse_step_detects_multiple_preimages():
    # criterion 2's grid and step, where step*L < 1 on the batch: rounding
    # the update still merges two neighbouring weights onto one image
    ds = band_dataset(GRID6, 8, lo_raw=100, hi_raw=120, seed=3)
    cfg = band_config(ds, step_raw=8, batch_size=4)
    template = zero_model("logistic-linear", 1, GRID6)
    batch = ds.subset((0, 1, 2, 3))
    assert step_smoothness(cfg.step_raw, GRID6, batch) < 1
    images = {}
    collision = None
    for w_raw in range(GRID6.raw_min + 8, GRID6.raw_max - 8):
        w = FixedVector((w_raw,), GRID6)
        img = forward_step(template.with_weights(w), batch, cfg.step_raw)[0].weights.raws
        if img in images:
            collision = img
            break
        images[img] = w_raw
    assert collision is not None, "expected a rounding collision on this band"
    with pytest.raises(MultiplePreimage):
        reverse_step(FixedVector(collision, GRID6), batch, cfg, template)


def test_reverse_step_not_found_and_infeasible():
    ds = band_dataset(GRID6, 8, lo_raw=22, hi_raw=29, seed=6)
    cfg = band_config(ds, step_raw=4, batch_size=4)
    template = zero_model("logistic-linear", 1, GRID6)
    batch = ds.subset((0, 1, 2, 3))
    # the update is nonnegative on this band, so nothing maps to the top
    # corner of the grid
    lonely = FixedVector((GRID6.raw_max,), GRID6)
    with pytest.raises(PreimageNotFound):
        reverse_step(lonely, batch, cfg, template)
    # without a contraction the search has no derived radius: a wide feature
    # spread puts step*L near 3.5 on the batch
    wide = band_dataset(GRID6, 8, lo_raw=100, hi_raw=250, seed=3)
    steep = band_config(wide, step_raw=16, batch_size=4)
    wide_batch = wide.subset((0, 1, 2, 3))
    assert step_smoothness(steep.step_raw, GRID6, wide_batch) > 3
    with pytest.raises(PreconditionError):
        reverse_step(lonely, wide_batch, steep, template)
    # and only logistic-linear has a proven smoothness bound
    hidden = zero_model("one-hidden-layer", 1, GRID6, width=1)
    with pytest.raises(PreconditionError):
        reverse_step(FixedVector((0, 0), GRID6), batch, cfg, hidden)


def test_reverse_step_matches_a_full_grid_scan():
    # every step of criterion 2's config over run seeds 1-8, against every
    # preimage on the whole grid; the targets are the step's endpoint, its two
    # grid neighbours and the nearest grid point that nothing maps onto
    gen = GeneratorSpec(family="two-gaussians", n=32, dim=1, seed=3,
                        sigma=Fraction(1, 2), center_dist=Fraction(2))
    template = zero_model("logistic-linear", 1, GRID6)
    grid_points = range(GRID6.raw_min, GRID6.raw_max + 1)
    outcomes = {"unique": 0, "multiple": 0, "none": 0}
    for seed in range(1, 9):
        cfg = RunConfig(generator=gen, batch_size=4, step_raw=8, eps=Fraction(1, 100),
                        progress_coeff=Fraction(1), seed=seed, max_epochs=4, grid=GRID6)
        run = run_training(cfg)
        for tr in run.traces:
            for j in range(1, tr.steps_done + 1):
                batch = run.dataset.subset(tr.batches[j - 1])
                preimages = {}
                for w in grid_points:
                    start = template.with_weights(FixedVector((w,), GRID6))
                    try:
                        img = forward_step(start, batch, cfg.step_raw)[0].weights.raws
                    except SaturationError:
                        continue
                    preimages.setdefault(img[0], []).append(w)
                (t,) = tr.checkpoints[j].raws
                gap = min((w for w in grid_points if w not in preimages),
                          key=lambda w: abs(w - t))
                for target in (t - 1, t, t + 1, gap):
                    want = preimages.get(target, [])
                    try:
                        got = reverse_step(FixedVector((target,), GRID6), batch, cfg,
                                           template, j)
                        assert [got.raws[0]] == want
                        outcomes["unique"] += 1
                    except MultiplePreimage:
                        assert len(want) >= 2
                        outcomes["multiple"] += 1
                    except PreimageNotFound:
                        assert want == []
                        outcomes["none"] += 1
    assert all(outcomes.values()), outcomes


def test_reverse_epoch_recovers_checkpoint_chain():
    gen = GeneratorSpec(family="two-gaussians", n=32, dim=1, seed=3,
                        sigma=Fraction(1, 2), center_dist=Fraction(2))
    cfg = RunConfig(generator=gen, batch_size=4, step_raw=8,
                    eps=Fraction(1, 100), progress_coeff=Fraction(1),
                    seed=3, max_epochs=2, grid=GRID6)
    run = run_training(cfg)
    template = zero_model("logistic-linear", 1, GRID6)
    for tr in run.completed_traces:
        chain = reverse_epoch(
            tr.checkpoints[-1], tr.batches, run.dataset, cfg, template
        )
        assert [w.raws for w in chain] == [w.raws for w in tr.checkpoints]


def test_vector_bytes_round_trip():
    v = FixedVector((7, -9, 0, GRID.raw_max), GRID)
    back = vector_from_bytes(vector_to_bytes(v), GRID)
    assert back.raws == v.raws
    with pytest.raises(DomainError):
        vector_from_bytes(vector_to_bytes(v), GRID6)
    with pytest.raises(DomainError):
        vector_from_bytes(b"\x00" * 4, GRID)


def test_write_trace_csv_shape(tmp_path):
    ds = generate_dataset(GeneratorSpec(family="random-labels", n=8, dim=2, seed=1), GRID)
    cfg = band_config(ds, step_raw=GRID.unit // 8, batch_size=4, eps=Fraction(1, 4),
                      max_epochs=2)
    run = run_training(cfg, ds)
    out = tmp_path / "trace.csv"
    write_trace_csv(run.traces, str(out))
    lines = out.read_text().splitlines()
    assert lines[0].startswith("epoch,j,lambda")
    expect = sum(tr.steps_done + 1 for tr in run.traces)
    assert len(lines) == 1 + expect
