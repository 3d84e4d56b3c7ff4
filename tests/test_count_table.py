"""The epoch trace's count table against the span counts it replaced.

Every statistic of an epoch is read from ``EpochTrace.counts``: per
checkpoint the full, seen, batch-after and batch-before counts.  Each entry
must equal the ``hits`` oracle in ``conftest`` at its span, on completed,
terminated and saturated traces alike, and every reader of the table (case
selection, width prediction, accounting and ``trace.csv``) must give what
its oracle gives.  The table is built on first read, so a decode that reads
no statistic never builds it.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import (
    epoch_accounting_oracle,
    hits,
    manual_dataset,
    predict_segments_oracle,
    progress_oracle,
    select_case_oracle,
    trace_cells_oracle,
)
from sgdcodec import cli, harness
from sgdcodec.epoch_codec import (
    ACCOUNTING,
    AccountRow,
    encode_epoch,
    epoch_accounting,
    predict_segments,
    select_case,
)
from sgdcodec.harness import ExperimentSpec, _cell, write_trace_csv
from sgdcodec.model import GeneratorSpec
from sgdcodec.numerics import FixedVector, GridSpec
from sgdcodec.sgd_engine import EpochTrace, HitCounts, RunConfig

GRID6 = GridSpec(scale=6, clip=4)
KINDS = ("completed", "terminated", "saturated")


@st.composite
def drawn_traces(draw, kinds=KINDS):
    """A trace of t = 1..16 batches with random masks, completed, or stopped
    after 0..t-1 steps by termination or saturation; and a config whose floor
    beta = eps * coefficient lies in (0, 1]."""
    b = draw(st.integers(2, 5))
    t = draw(st.integers(1, 16))
    n = b * t
    kind = draw(st.sampled_from(kinds))
    steps = t if kind == "completed" else draw(st.integers(0, t - 1))
    order = tuple(draw(st.permutations(range(n))))
    masks = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=steps + 1, max_size=steps + 1)
    )
    eps = draw(st.sampled_from([Fraction(1, k) for k in (2, 4, 5, 8, 20, 100)]))
    coeff = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(4), Fraction(20)]))
    if eps * coeff > 1:
        coeff = Fraction(1)
    ds = manual_dataset(GRID6, [((0,), 0)] * n)
    cfg = RunConfig(generator=ds.spec, batch_size=b, step_raw=0, eps=eps,
                    progress_coeff=coeff, seed=0, max_epochs=1, grid=GRID6)
    zero = FixedVector((0,), GRID6)
    trace = EpochTrace(1, b, order, [zero] * (steps + 1), masks,
                       terminated=kind == "terminated", saturated=kind == "saturated")
    return trace, ds, cfg


@settings(max_examples=300, deadline=None)
@given(drawn_traces())
def test_every_count_equals_hits_at_its_span(epoch):
    trace = epoch[0]
    t = trace.num_batches
    assert "counts" not in vars(trace)  # nothing has read a statistic yet
    table = trace.counts
    assert len(table) == len(trace.masks)
    for i, row in enumerate(table):
        assert isinstance(row, HitCounts)
        assert row.full == hits(trace, i, 0, t)
        assert row.seen == hits(trace, i, 0, i)
        assert row.full - row.seen == hits(trace, i, i, t)
        assert row.after == (hits(trace, i, i - 1, i) if i else 0)
        assert row.before == (hits(trace, i, i, i + 1) if i < t else 0)
    assert trace.counts is table  # read again, not rebuilt
    assert trace.progress() == progress_oracle(trace)


@settings(max_examples=200, deadline=None)
@given(drawn_traces())
def test_trace_csv_matches_the_cell_oracle(epoch):
    trace = epoch[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        write_trace_csv([trace], path)
        with open(path, encoding="ascii") as fh:
            header, *rows = fh.read().splitlines()
    assert header.split(",")[2:7] == [
        "lambda", "lambda_prime", "lambda_doubleprime", "phi", "batch_acc_before"
    ]
    assert len(rows) == trace.steps_done + 1
    stopped = _cell(trace.terminated or trace.saturated)
    for i, row in enumerate(rows):
        assert row.split(",") == ["1", str(i + 1), *trace_cells_oracle(trace, i), stopped]


@settings(max_examples=400, deadline=None)
@given(drawn_traces(kinds=("completed",)))
def test_table_readers_match_their_oracles(epoch):
    trace, ds, cfg = epoch
    beta = cfg.progress_floor
    selector = select_case(trace, beta)
    assert selector == select_case_oracle(trace, beta)
    code = encode_epoch(trace, ds, cfg, mode=ACCOUNTING)
    predicted = predict_segments(trace, cfg, selector)
    assert predicted == predict_segments_oracle(trace, cfg, selector) == code.segments
    row = epoch_accounting(code, trace, cfg)
    want = epoch_accounting_oracle(code, trace, cfg)
    for name in AccountRow._fields:
        got, expected = getattr(row, name), getattr(want, name)
        assert got == expected and _cell(got) == _cell(expected), name


def test_decode_never_builds_a_count_table(tmp_path, monkeypatch):
    # a run reads its statistics; the decode's training rerun reads none
    gen = GeneratorSpec(family="random-labels", n=64, dim=2, seed=3)
    cfg = RunConfig(generator=gen, batch_size=8, step_raw=1 << 13, eps=Fraction(1, 4),
                    progress_coeff=Fraction(4), seed=3, max_epochs=2)
    result = harness.run_experiment(ExperimentSpec(cfg, 1, ACCOUNTING), str(tmp_path))
    traces = result.replications[0].run.traces
    assert all(len(vars(tr)["counts"]) == len(tr.masks) for tr in traces)
    built = []
    real = EpochTrace.counts.func

    def counting(trace):
        built.append(trace.epoch)
        return real(trace)

    monkeypatch.setattr(EpochTrace, "counts", property(counting))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["decode", "--dir", str(tmp_path)]) == 0
    assert built == []
