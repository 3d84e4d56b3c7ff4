"""Every sweep pays only for what changed since the dataset's last one.

A ``Dataset`` owns ``correctness_mask``'s state: the raws and packed scores
of its last sweep, from which a new sweep adds only the columns whose raw
moved.  At every checkpoint, on sparse, dense, short and clip-edge rows, and
on sweeps that alternate between datasets, that must give the mask of the
full packed sum (``correctness_mask_oracle``) and raise where it raises,
leaving the state as it was.  Training sweeps each checkpoint it records
once; an ACCOUNTING round trip, in the run or from ``sgdcodec decode``,
reads the trace's masks and sweeps nothing, and a STRICT one sweeps only
checkpoints of the chain it recovers.  max |x|^2 is taken once per dataset;
a hidden-layer model touches no state.
The one-hot generator stores each element's nonzero pairs as it builds it,
and ``to_text`` writes sparse rows as runs of zeros; both must give what a
scan of the row gives.
"""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import correctness_mask_oracle, manual_dataset, one_hot_dataset, to_text_oracle
from sgdcodec import cli, epoch_codec, harness, sgd_engine
from sgdcodec import model as model_module
from sgdcodec.harness import ExperimentSpec
from sgdcodec.model import (
    Dataset,
    GeneratorSpec,
    Model,
    _nonzeros,
    correctness_mask,
    generate_dataset,
    zero_model,
)
from sgdcodec.numerics import DomainError, FixedVector, GridSpec
from sgdcodec.sgd_engine import RunConfig, run_epoch, run_training

GRIDS = (GridSpec(scale=4, clip=2), GridSpec(scale=6, clip=4), GridSpec(scale=16, clip=64))


@st.composite
def row_datasets(draw) -> Dataset:
    """One-hot rows; hand-built sparse rows, with up to three nonzeros each
    and at most one entry in eight nonzero overall; dense rows; rows shorter
    than the sparse rule scans; or rows of clip-edge and zero cells."""
    grid = draw(st.sampled_from(GRIDS))
    rows_of = draw(st.sampled_from(("one-hot", "sparse", "dense", "short", "edge")))
    if rows_of == "one-hot":
        n = draw(st.sampled_from((8, 16, 24)))
        return one_hot_dataset(grid, n, draw(st.integers(1, grid.raw_max)))
    n = draw(st.integers(1, 12))
    raw = st.integers(grid.raw_min, grid.raw_max)
    if rows_of == "sparse":
        dim = draw(st.sampled_from((8, 16, 40)))
        budget, rows = n * dim // 8, []
        for _ in range(n):
            cols = draw(st.sets(st.integers(0, dim - 1), max_size=min(3, budget)))
            budget -= len(cols)
            feats = [0] * dim
            for c in sorted(cols):
                feats[c] = draw(raw.filter(bool))
            rows.append((feats, draw(st.integers(0, 1))))
        return manual_dataset(grid, rows)
    dim = draw(st.integers(1, 7) if rows_of == "short" else st.sampled_from((8, 16, 40)))
    if rows_of == "edge":
        raw = st.sampled_from((grid.raw_min, 0, grid.raw_max))
    cells = st.lists(raw, min_size=dim, max_size=dim)
    return manual_dataset(grid, [(draw(cells), draw(st.integers(0, 1))) for _ in range(n)])


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


class CountedSweeps(list):
    """A ``Dataset._sweep`` that records the raws of each sweep stored into it."""

    def __init__(self):
        super().__init__()
        self.raws = []

    @property
    def computed(self) -> int:
        return len(self.raws)

    def __setitem__(self, key, value):
        self.raws.append(value[0])
        super().__setitem__(key, value)


def counting(ds: Dataset) -> CountedSweeps:
    """Puts a ``CountedSweeps`` in place of the dataset's empty sweep state."""
    assert ds._sweep == []
    object.__setattr__(ds, "_sweep", CountedSweeps())
    return ds._sweep


def state(ds: Dataset) -> list:
    return list(ds._sweep)


@settings(max_examples=150, deadline=None)
@given(row_datasets(), st.data())
def test_carried_sweep_equals_the_full_sweep_at_every_checkpoint(ds, data):
    # every call sweeps and stores, a checkpoint met again (a "none" move) too
    sweeps, w = counting(ds), [0] * ds.dim
    for k in range(1, data.draw(st.integers(1, 8)) + 1):
        model = Model("logistic-linear", FixedVector(tuple(w), ds.grid), ds.dim)
        assert correctness_mask(model, ds) == correctness_mask_oracle(model, ds)
        assert ds._sweep[0] == tuple(w) and sweeps.computed == k
        w = next_weights(data.draw, ds.grid, w)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(GRIDS), st.data())
def test_sweeps_alternating_between_two_datasets_equal_the_full_sweep(grid, data):
    # each dataset sweeps from its own last sweep, whichever dataset came between
    dim = data.draw(st.sampled_from((2, 16)))
    raw = st.integers(grid.raw_min, grid.raw_max)
    rows = st.tuples(st.lists(raw, min_size=dim, max_size=dim), st.integers(0, 1))
    pair = [manual_dataset(grid, data.draw(st.lists(rows, min_size=1, max_size=9)))
            for _ in range(2)]
    w = [0] * dim
    for _ in range(data.draw(st.integers(2, 10))):
        ds = pair[data.draw(st.integers(0, 1))]
        model = Model("logistic-linear", FixedVector(tuple(w), grid), dim)
        assert correctness_mask(model, ds) == correctness_mask_oracle(model, ds)
        w = next_weights(data.draw, grid, w)


def test_carried_sweep_runs_the_full_sweeps_checks():
    # an off-grid raw, another grid and another dim each raise and leave the
    # dataset's last sweep as it was, empty or filled
    grid = GridSpec(scale=6, clip=4)
    ds = one_hot_dataset(grid, 16, 64)
    zero = zero_model("logistic-linear", 16, grid)
    bad_models = (
        zero.with_weights(FixedVector((grid.raw_max + 1,) + (0,) * 15, grid)),
        zero_model("logistic-linear", 16, GridSpec(scale=6, clip=8)),
        zero_model("logistic-linear", 8, grid),
    )
    for fill in (False, True):
        if fill:
            correctness_mask(zero.with_weights(FixedVector((3,) + (0,) * 15, grid)), ds)
        kept = state(ds)
        for bad in bad_models:
            for sweep_of in (lambda m: correctness_mask(m, ds),
                             lambda m: correctness_mask_oracle(m, ds)):
                with pytest.raises(DomainError):
                    sweep_of(bad)
            assert state(ds) == kept
    moved = zero.with_weights(FixedVector((5,) + (0,) * 15, grid))
    assert correctness_mask(moved, ds) == correctness_mask_oracle(moved, ds)


class CountedColumn(int):
    """A packed column that counts the products taken of it."""

    products = 0

    def __rmul__(self, other):
        CountedColumn.products += 1
        return other * int(self)


def test_a_new_sweep_multiplies_only_the_columns_that_moved(monkeypatch):
    # from the last sweep, a checkpoint met before included
    grid = GridSpec(scale=6, clip=4)
    rows = [([(e * c) % 7 * 8 - 24 for c in range(16)], e % 2) for e in range(8)]
    ds, plain = manual_dataset(grid, rows), manual_dataset(grid, rows)
    size, columns, *rest = ds._lanes
    ds.__dict__["_lanes"] = (size, tuple(map(CountedColumn, columns)), *rest)
    monkeypatch.setattr(CountedColumn, "products", 0)
    zero = zero_model("logistic-linear", 16, grid)
    one, three = (5,) + (0,) * 15, (5,) * 3 + (0,) * 13
    for w, products in (((0,) * 16, 0), (one, 1), (three, 2), (three, 0), ((0,) * 16, 3),
                        (one, 1), ((5, 1) + (0,) * 14, 1)):
        before = CountedColumn.products
        model = zero.with_weights(FixedVector(w, grid))
        assert correctness_mask(model, ds) == correctness_mask_oracle(model, plain)
        assert CountedColumn.products - before == products


def config_for(ds: Dataset, step_raw: int, max_epochs: int, **kw) -> RunConfig:
    gen = GeneratorSpec(family=ds.spec.family, n=ds.n, dim=ds.dim, seed=1)
    return RunConfig(generator=gen, batch_size=2 if ds.n % 4 else 4, step_raw=step_raw, eps=Fraction(1, 100),
                     progress_coeff=Fraction(1), seed=1, max_epochs=max_epochs, grid=ds.grid, **kw)


def counted_sweeps(monkeypatch, module) -> list:
    """Records the dataset of each ``correctness_mask`` call made from module."""
    calls, real = [], model_module.correctness_mask

    def counted(m, d):
        calls.append(d)
        return real(m, d)

    monkeypatch.setattr(module, "correctness_mask", counted)
    return calls


def recorded(traces) -> list:
    """The raws of every checkpoint the traces record, in training's order;
    an epoch's first checkpoint repeats the previous epoch's last."""
    return [w.raws for t in traces for w in t.checkpoints]


def test_every_logistic_run_sweeps_each_checkpoint_once_on_one_carry(monkeypatch):
    grid = GridSpec(scale=6, clip=4)
    rows = [
        manual_dataset(grid, [([48, -32], 1), ([16, 64], 0), ([-32, 32], 1), ([64, 16], 0)]),
        manual_dataset(grid, [([(e * c) % 7 * 8 - 24 for c in range(16)], e % 2) for e in range(8)]),
        manual_dataset(grid, [([32] * 5 + [0] * 11, 1), ([0] * 16, 0)]),  # 5 of 32 nonzero
        one_hot_dataset(grid, 4, 64),  # shorter than the sparse rule scans
        one_hot_dataset(grid, 16, 64),  # sparse
    ]
    calls = counted_sweeps(monkeypatch, sgd_engine)
    for ds in rows:
        calls.clear()
        sweeps = counting(ds)
        run = run_training(config_for(ds, 16, 2), ds)
        masks = [mask for t in run.traces for mask in t.masks]
        assert len(calls) == len(masks) > 2 and len(run.traces) == 2
        assert all(d is ds for d in calls)
        # one sweep per recorded checkpoint, in the order training records them
        assert sweeps.raws == recorded(run.traces) and len(set(recorded(run.traces))) > 1
        assert ds._sweep[0] == run.final_model.weights.raws
        # a second run on the dataset sweeps from the first run's last sweep
        again = run_training(config_for(ds, 16, 2), ds)
        assert [t.masks for t in again.traces] == [t.masks for t in run.traces]
        assert sweeps.raws == 2 * recorded(run.traces)


def test_a_hidden_layer_model_ignores_the_carry(monkeypatch):
    grid = GridSpec(scale=6, clip=4)
    ds = one_hot_dataset(grid, 16, 64)
    raws = tuple((7 * i) % 41 - 20 for i in range(2 * 16 + 2))
    hidden = Model("one-hidden-layer", FixedVector(raws, grid), 16, 2)
    logistic = zero_model("logistic-linear", 16, grid).with_weights(FixedVector(raws[:16], grid))
    expect = correctness_mask(hidden, ds)
    assert state(ds) == []
    correctness_mask(logistic, ds)
    kept = state(ds)
    assert correctness_mask(hidden, ds) == expect
    assert state(ds) == kept
    calls = counted_sweeps(monkeypatch, sgd_engine)
    fresh = one_hot_dataset(grid, 16, 64)
    run = run_training(config_for(fresh, 1, 2, model_kind="one-hidden-layer", hidden_width=2), fresh)
    assert len(calls) == sum(len(t.masks) for t in run.traces) > 2
    assert state(fresh) == []


def accounting_run_config() -> RunConfig:
    """Random labels whose two ACCOUNTING epochs code BACKWARD, then SPLIT."""
    gen = GeneratorSpec(family="random-labels", n=64, dim=2, seed=3)
    return RunConfig(generator=gen, batch_size=16, step_raw=1 << 13, eps=Fraction(1, 4),
                     progress_coeff=Fraction(4), seed=3, max_epochs=2, grid=GridSpec())


def counted_datasets(monkeypatch) -> list:
    """Makes ``harness.generate_dataset`` count each dataset's stored sweeps;
    returns the (dataset, ``CountedSweeps``) pairs it made."""
    made = []

    def generated(spec, grid):
        ds = generate_dataset(spec, grid)
        made.append((ds, counting(ds)))
        return ds

    monkeypatch.setattr(harness, "generate_dataset", generated)
    return made


def test_each_backward_decode_walk_keeps_one_carry(monkeypatch):
    # an ACCOUNTING round trip, BACKWARD or SPLIT, reads the trace's masks:
    # the decoder calls correctness_mask zero times, and the dataset's only
    # sweeps are training's, one per recorded checkpoint
    calls = counted_sweeps(monkeypatch, epoch_codec)
    made = counted_datasets(monkeypatch)
    rep = harness.run_experiment(ExperimentSpec(config=accounting_run_config())).replications[0]
    assert [row.case for row in rep.report.rows] == ["BACKWARD", "SPLIT"]
    [(ds, sweeps)] = made
    assert calls == [] and sweeps.raws == recorded(rep.run.traces)


def test_sgdcodec_decode_of_an_accounting_run_computes_no_sweep(monkeypatch, tmp_path, capsys):
    # check_run reruns training, which sweeps each recorded checkpoint once;
    # decoding its BACKWARD and SPLIT epoch files adds no sweep
    out = str(tmp_path / "run")
    rep = harness.run_experiment(ExperimentSpec(config=accounting_run_config()), out)
    assert [row.case for row in rep.replications[0].report.rows] == ["BACKWARD", "SPLIT"]
    calls = counted_sweeps(monkeypatch, epoch_codec)
    made = counted_datasets(monkeypatch)
    assert cli.main(["decode", "--dir", out]) == 0
    assert capsys.readouterr().out.count(": ok") == 4  # dataset, two epochs, final model
    [(ds, sweeps)] = made
    assert calls == [] and sweeps.raws == recorded(rep.replications[0].run.traces)


def test_a_strict_decode_sweeps_only_the_chain_it_recovers(monkeypatch):
    # each mask a STRICT decode reads is the full sweep of a checkpoint of
    # the chain it returns: W_{T+1} .. W_2 walking BACKWARD, the embedded
    # W_j of a SPLIT
    gen = GeneratorSpec(family="random-labels", n=32, dim=1, seed=5)
    cfg = RunConfig(generator=gen, batch_size=8, step_raw=8, eps=Fraction(1, 4),
                    progress_coeff=Fraction(2), seed=5, max_epochs=3,
                    grid=GridSpec(scale=6, clip=4))
    run = run_training(cfg, generate_dataset(gen, cfg.grid))
    swept, real = [], model_module.correctness_mask

    def recorded_sweep(m, d):
        mask = real(m, d)
        swept.append((m, mask))
        return mask

    monkeypatch.setattr(epoch_codec, "correctness_mask", recorded_sweep)
    cases = []
    for tr in run.completed_traces:
        code = epoch_codec.encode_epoch(tr, run.dataset, cfg, epoch_codec.STRICT)
        cases.append(code.case)
        swept.clear()
        side = epoch_codec.SideInfo.of(epoch_codec.STRICT, tr)
        dec = epoch_codec.decode_epoch(code.stream, run.dataset, cfg, side)
        assert dec.order == tr.order
        assert [w.raws for w in dec.checkpoints] == [w.raws for w in tr.checkpoints]
        if code.case == "SPLIT":
            chain = [dec.checkpoints[code.split_j - 1]]
        else:
            chain = dec.checkpoints[:0:-1]
        assert [m.weights.raws for m, _ in swept] == [w.raws for w in chain]
        for m, mask in swept:
            assert mask == correctness_mask_oracle(m, run.dataset)
    assert cases == ["BACKWARD", "SPLIT", "SPLIT"]


@pytest.mark.parametrize("mode,seed,cases", [
    ("ACCOUNTING", 2, ["BACKWARD", "BACKWARD"]),
    ("ACCOUNTING", 1, ["SPLIT", "SPLIT"]),
    ("STRICT", 3, ["SPLIT"] * 4),  # criterion 2's chain, rebuilt by reverse search
], ids=["backward", "split", "strict"])
def test_round_trips_compute_no_sweep_training_did_not(mode, seed, cases, monkeypatch):
    # ACCOUNTING: the dataset's sweeps are training's, one per recorded
    # checkpoint.  STRICT: each epoch's decode, which follows its training,
    # adds one more, at the SPLIT's embedded checkpoint W_j
    if mode == "STRICT":
        gen = GeneratorSpec(family="two-gaussians", n=32, dim=1, seed=3)
        cfg = RunConfig(generator=gen, batch_size=4, step_raw=8, eps=Fraction(1, 100),
                        progress_coeff=Fraction(1), seed=seed, max_epochs=4,
                        grid=GridSpec(scale=6, clip=4))
    else:
        gen = GeneratorSpec(family="random-labels", n=64, dim=2, seed=seed)
        cfg = RunConfig(generator=gen, batch_size=16, step_raw=1 << 13, eps=Fraction(1, 4),
                        progress_coeff=Fraction(4), seed=seed, max_epochs=2, grid=GridSpec())
    made = counted_datasets(monkeypatch)
    rep = harness.run_experiment(ExperimentSpec(config=cfg, mode=mode)).replications[0]
    assert [row.case for row in rep.report.rows] == cases
    [(ds, sweeps)] = made
    assert len(rep.run.traces) == len(cases)
    expect = []
    for trace, row in zip(rep.run.traces, rep.report.rows):
        expect += recorded([trace])
        if mode == "STRICT":
            expect.append(trace.checkpoints[row.split_j - 1].raws)
    assert sweeps.raws == expect


def test_max_sq_norm_is_taken_once_per_dataset(monkeypatch):
    calls, real = [], model_module._max_sq_norm

    def counted(elements):
        calls.append(elements)
        return real(elements)

    monkeypatch.setattr(model_module, "_max_sq_norm", counted)
    grid = GridSpec(scale=6, clip=4)
    ds = one_hot_dataset(grid, 16, 64)
    cfg = config_for(ds, 16, 2)
    for _ in range(2):
        assert len(list(sgd_engine.train_epochs(cfg, ds))) == 2
    assert calls == [ds.elements]
    assert ds._sq_norm == 64 * 64


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
    # the dataset's sweep state runs across checkpoints and epochs of one run
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
    assert len(run.traces) > 1
    assert len({w for t in run.traces for w in t.checkpoints}) > 2  # the weights moved
    for trace in run.traces:
        assert len(trace.masks) == len(trace.checkpoints)
        for w, mask in zip(trace.checkpoints, trace.masks):
            assert mask == correctness_mask_oracle(template.with_weights(w), ds)
    # an epoch run alone on a fresh copy of the dataset gives the same trace
    fresh = Dataset(ds.elements, grid, ds.spec)
    alone, _ = run_epoch(template.with_weights(run.traces[0].checkpoints[-1]), fresh, cfg, 2)
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
