"""Integer bookkeeping on the step path against its ``Fraction`` oracles.

The reverse-step set-up, the stop test, case selection, the split side, the
accounting row and the ``trace.csv`` cells count in integers; the oracles in
``conftest`` keep the ``Fraction`` arithmetic they replaced, and every result
must agree exactly, floats bit for bit.  The last test counts ``Fraction``
constructions over training and a STRICT unwind, so a ``Fraction`` that comes
back into a per-step path fails it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import (
    choose_split_side_oracle,
    epoch_accounting_oracle,
    manual_dataset,
    progress_oracle,
    reverse_setup_oracle,
    run_generated,
    select_case_oracle,
    trace_cells_oracle,
)
from sgdcodec.epoch_codec import (
    ACCOUNTING,
    AccountRow,
    check_eps_beta_ceiling,
    choose_split_side,
    encode_epoch,
    epoch_accounting,
    select_case,
)
from sgdcodec.harness import _cell, _ratio_cell
from sgdcodec.model import (
    Element,
    GeneratorSpec,
    _max_sq_norm,
    _table_max_slope,
    loss_gradient,
    zero_model,
)
from sgdcodec import sgd_engine
from sgdcodec.numerics import FixedVector, GridSpec, PreconditionError, div_round_half_even
from sgdcodec.sgd_engine import (
    EpochTrace,
    RunConfig,
    _reverse_setup,
    reverse_epoch,
    reverse_step,
    run_training,
)

GRID6 = GridSpec(scale=6, clip=4)
REACH_STEPS = 6


@st.composite
def setup_cases(draw):
    """A batch of 2-5 elements in d = 1..3 on a scale 4-8 grid, and a step."""
    grid = GridSpec(draw(st.integers(4, 8)), 4)
    d = draw(st.integers(1, 3))
    coord = st.integers(-2 * grid.unit, 2 * grid.unit)
    rows = draw(st.lists(st.tuples(*[coord] * d), min_size=2, max_size=5))
    batch = tuple(Element(e, FixedVector(raws, grid), 0) for e, raws in enumerate(rows))
    step_raw = draw(st.one_of(st.integers(0, 8), st.integers(0, 2 * grid.unit)))
    return step_raw, grid, batch, d


@settings(max_examples=400, deadline=None)
@given(setup_cases())
def test_reverse_setup_matches_the_fraction_oracle(case):
    step_raw, grid, batch, d = case
    try:
        q, rho2, reach2 = reverse_setup_oracle(step_raw, grid, batch, d, REACH_STEPS)
    except PreconditionError as want:
        with pytest.raises(PreconditionError) as got:
            _reverse_setup(step_raw, grid, _max_sq_norm(batch), d)
        assert str(got.value) == str(want)
        return
    q_num, q_den, r2, reach_num, reach_den = _reverse_setup(
        step_raw, grid, _max_sq_norm(batch), d
    )
    assert q_den == grid.unit**4 and Fraction(q_num, q_den) == q
    assert r2 == rho2
    # the search multiplies the reach by q**2 per iteration and stops at <= 1
    for want in reach2:
        assert Fraction(reach_num, reach_den) == want
        assert (reach_num <= reach_den) == (want <= 1)
        reach_num *= q_num * q_num
        reach_den *= q_den * q_den


@pytest.mark.parametrize("scale", [4, 6, 8])
def test_reverse_step_refuses_q_exactly_one_with_the_same_text(scale):
    # |x| = 1 and step = unit**2 / slope numerator put step * L at exactly 1
    grid = GridSpec(scale, 4)
    step_raw = grid.unit**2 // _table_max_slope(scale)
    batch = tuple(Element(e, FixedVector((grid.unit,), grid), 0) for e in range(2))
    with pytest.raises(PreconditionError) as want:
        reverse_setup_oracle(step_raw, grid, batch, 1, 0)
    assert str(want.value) == "step*smoothness = 1 >= 1 on this batch"
    ds = manual_dataset(grid, [((grid.unit,), 0)] * 2)
    cfg = RunConfig(generator=ds.spec, batch_size=2, step_raw=step_raw,
                    eps=Fraction(1, 100), progress_coeff=Fraction(1), seed=0,
                    max_epochs=1, grid=grid)
    template = zero_model("logistic-linear", 1, grid)
    with pytest.raises(PreconditionError) as got:
        reverse_step(template.weights, batch, cfg, template)
    assert str(got.value) == str(want.value)
    # one raw step less is the largest step the search accepts
    assert _reverse_setup(step_raw - 1, grid, _max_sq_norm(batch), 1)[0] < grid.unit**4


def test_reverse_step_stops_iterating_when_the_reach_is_exactly_one_unit(monkeypatch):
    # step_raw 8 and max|x| = 8 raw at scale 6 put (step * max|x|)**2 at
    # exactly 1 raw unit on entry, so the search must stop after its first
    # pull and scan the radius isqrt(rho2) + 2 ball around the target itself
    grid = GridSpec(scale=6, clip=64)
    batch = tuple(Element(e, FixedVector((8,), grid), 1) for e in range(2))
    _, _, rho2, reach_num, reach_den = _reverse_setup(8, grid, _max_sq_norm(batch), 1)
    assert reach_num == reach_den
    template = zero_model("logistic-linear", 1, grid)
    before = FixedVector((-2000,), grid)  # far from label 1: a nonzero pull
    target = sgd_engine.forward_step(template.with_weights(before), batch, 8).weights
    grad = loss_gradient(template.with_weights(target), batch).raws
    assert div_round_half_even(8 * grad[0], grid.unit) != 0  # not a fixed point
    pulled, stepped = [], []
    real_pull, real_step = sgd_engine._pull, sgd_engine.forward_step

    def pull_spy(terms, w, base, step_raw, grid):
        pulled.append(w)
        return real_pull(terms, w, base, step_raw, grid)

    def step_spy(model, batch, step_raw):
        stepped.append(model.weights.raws)
        return real_step(model, batch, step_raw)

    monkeypatch.setattr(sgd_engine, "_pull", pull_spy)
    monkeypatch.setattr(sgd_engine, "forward_step", step_spy)
    ds = manual_dataset(grid, [((8,), 1)] * 2)
    cfg = RunConfig(generator=ds.spec, batch_size=2, step_raw=8, eps=Fraction(1, 100),
                    progress_coeff=Fraction(1), seed=0, max_epochs=1, grid=grid)
    assert reverse_step(target, batch, cfg, template) == before
    radius = math.isqrt(rho2) + 2
    ball = [(target.raws[0] + o,) for o in range(-radius, radius + 1)]
    # the one pull of the iteration is the target's; the scan takes that
    # value from the iteration and pulls every other ball point in order
    assert pulled == [target.raws] + [p for p in ball if p != target.raws]
    assert stepped == [before.raws]  # the forward step confirms only the hit


@pytest.mark.parametrize("eps, stops", [(Fraction(1, 4), True), (Fraction(1, 5), False)])
def test_run_epoch_stops_at_exactly_one_minus_eps(eps, stops):
    # the zero model scores 0 and predicts label 0: six of eight correct
    ds = manual_dataset(GRID6, [((GRID6.unit,), 0)] * 6 + [((GRID6.unit,), 1)] * 2)
    cfg = RunConfig(generator=ds.spec, batch_size=2, step_raw=0, eps=eps,
                    progress_coeff=Fraction(1), seed=1, max_epochs=1, grid=GRID6)
    tr = run_training(cfg, ds).traces[0]
    assert tr.terminated is stops
    assert tr.steps_done == (0 if stops else 4)


@st.composite
def traced_epochs(draw):
    """A completed epoch with arbitrary masks, and a config whose floor
    beta = eps * coefficient lies in (0, 1]."""
    b = draw(st.integers(2, 5))
    t = draw(st.integers(1, 8))
    n = b * t
    order = tuple(draw(st.permutations(range(n))))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=t + 1, max_size=t + 1))
    coeff = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(4), Fraction(20)]))
    simple = st.sampled_from([Fraction(1, k) for k in (2, 4, 5, 8, 20, 100)])
    den = draw(st.integers(2, 300))
    eps = draw(st.one_of(simple, st.just(Fraction(draw(st.integers(1, den - 1)), den))))
    if eps * coeff > 1:
        coeff = Fraction(1)
    ds = manual_dataset(GRID6, [((0,), 0)] * n)
    cfg = RunConfig(generator=ds.spec, batch_size=b, step_raw=0, eps=eps,
                    progress_coeff=coeff, seed=0, max_epochs=1, grid=GRID6)
    zero = FixedVector((0,), GRID6)
    trace = EpochTrace(1, b, order, [zero] * (t + 1), masks)
    return trace, ds, cfg


@settings(max_examples=400, deadline=None)
@given(traced_epochs())
def test_case_selection_and_accounting_match_the_fraction_oracles(epoch):
    trace, ds, cfg = epoch
    beta, t = cfg.progress_floor, trace.num_batches
    assert select_case(trace, beta) == select_case_oracle(trace, beta)
    for j in range(2, t + 1):
        assert choose_split_side(trace, j) == choose_split_side_oracle(trace, j)
    assert trace.progress() == progress_oracle(trace)
    code = encode_epoch(trace, ds, cfg, mode=ACCOUNTING)
    row = epoch_accounting(code, trace, cfg)
    want = epoch_accounting_oracle(code, trace, cfg)
    for name in AccountRow._fields:
        got, expected = getattr(row, name), getattr(want, name)
        # the cell text pins the type and every float bit (repr round-trips)
        assert got == expected and _cell(got) == _cell(expected), name
    low = min(mask.bit_count() for mask in trace.masks)
    verdict = check_eps_beta_ceiling(trace, cfg.eps)
    assert verdict.applicable == (low >= (1 - cfg.eps) * trace.n)


@settings(max_examples=300, deadline=None)
@given(traced_epochs(), st.integers(0, 8))
def test_trace_cells_match_the_fraction_oracle(epoch, stop):
    trace = epoch[0]
    # a stopped epoch's rows too: fewer checkpoints than batches
    del trace.masks[min(stop, trace.num_batches) + 1 :]
    for i in range(len(trace.masks)):
        assert [_ratio_cell(c) for c in trace.rates(i)] == trace_cells_oracle(trace, i)


def test_ratio_cell_prints_what_a_fraction_cell_prints():
    for hits, size in ((0, 7), (7, 7), (4, 8), (6, 9), (12, 12), (0, 1)):
        assert _ratio_cell((hits, size)) == _cell(Fraction(hits, size))
    assert _ratio_cell((0, 4)) == "0/1" and _ratio_cell((4, 4)) == "1/1"
    assert _ratio_cell(None) == _cell(None) == ""


def test_fraction_count_does_not_grow_with_epochs(monkeypatch):
    """Training and a STRICT unwind build as many Fractions over four epochs
    as over one: none is built per step, per checkpoint or per epoch."""
    gen = GeneratorSpec(family="two-gaussians", n=32, dim=1, seed=3,
                        sigma=Fraction(1, 2), center_dist=Fraction(2))
    base = RunConfig(generator=gen, batch_size=4, step_raw=8,
                     eps=Fraction(1, 100), progress_coeff=Fraction(1),
                     seed=3, max_epochs=4, grid=GRID6)
    template = zero_model("logistic-linear", gen.dim, GRID6)
    built = Fraction.__new__
    counts = {}
    for epochs in (1, 4):
        cfg = base._replace(max_epochs=epochs)
        made = [0]

        def counting_new(cls, *args, **kwargs):
            made[0] += 1
            return built(cls, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", staticmethod(counting_new))
            run = run_generated(cfg)
            for tr in run.traces:
                chain = reverse_epoch(tr.checkpoints[-1], tr.batches, run.dataset, cfg,
                                      template)
                assert [w.raws for w in chain] == [w.raws for w in tr.checkpoints]
        assert len(run.completed_traces) == epochs
        counts[epochs] = made[0]
    assert counts[4] == counts[1]
