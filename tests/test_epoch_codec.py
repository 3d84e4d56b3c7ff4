"""Case selection, epoch streams, decode round trips, and bit accounting."""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import (
    one_hot_dataset,
    split_trace,
    staircase_trace,
    synthesize_trace,
    weights_on,
)
from sgdcodec.codec import BitStream, CodecError, ceil_log2
from sgdcodec.model import GeneratorSpec
from sgdcodec.numerics import DomainError, GridSpec
from sgdcodec.sgd_engine import (
    MultiplePreimage,
    PreimageNotFound,
    RunConfig,
    run_training,
)
from sgdcodec.epoch_codec import (
    ACCOUNTING,
    BACKWARD,
    SPLIT,
    STRICT,
    SideInfo,
    check_eps_beta_ceiling,
    choose_split_side,
    decode_epoch,
    encode_epoch,
    epoch_accounting,
    epoch_target_bits,
    model_description_bits,
    predict_segments,
    read_epoch_file,
    select_case,
    write_epoch_file,
)

GRID = GridSpec()
GRID6 = GridSpec(scale=6, clip=4)

DECODE_ERRORS = (
    CodecError,
    DomainError,
    MultiplePreimage,
    PreimageNotFound,
)


def one_hot_config(ds, batch_size, eps=Fraction(1, 4), coeff=Fraction(4)):
    return RunConfig(
        generator=ds.spec, batch_size=batch_size, step_raw=0, eps=eps,
        progress_coeff=coeff, seed=0, max_epochs=1, grid=ds.grid,
    )


def gaussians_run():
    gen = GeneratorSpec(family="two-gaussians", n=32, dim=1, seed=3,
                        sigma=Fraction(1, 2), center_dist=Fraction(2))
    cfg = RunConfig(generator=gen, batch_size=4, step_raw=8, eps=Fraction(1, 100),
                    progress_coeff=Fraction(1), seed=3, max_epochs=4, grid=GRID6)
    return cfg, run_training(cfg)


def labels_run(seed=5):
    gen = GeneratorSpec(family="random-labels", n=32, dim=1, seed=seed)
    cfg = RunConfig(generator=gen, batch_size=8, step_raw=8, eps=Fraction(1, 4),
                    progress_coeff=Fraction(2), seed=seed, max_epochs=3, grid=GRID6)
    return cfg, run_training(cfg)


def flip_bit(stream: BitStream, k: int) -> BitStream:
    s = BitStream.from_bytes(stream.to_bytes())
    out = BitStream()
    for i in range(len(s)):
        out.write_uint(s.read_uint(1) ^ (1 if i == k else 0), 1)
    return out


def test_select_case_finds_first_gap():
    ds, tr = split_trace(16, 8)
    sel = select_case(tr, Fraction(1))
    assert sel.case == SPLIT
    assert sel.split_j == 2
    assert sel.witness_gap == 1
    assert not sel.degenerate


def test_select_case_degenerate_window():
    # single-batch epochs have no interior checkpoint to split at
    ds, tr = staircase_trace(8, 8)
    sel = select_case(tr, Fraction(1, 2))
    assert sel.case == BACKWARD
    assert sel.degenerate


def test_select_case_window_excludes_early_checkpoints():
    # beta=1 on 40 batches starts the window at position 6, skipping the
    # large early gaps of the staircase profile
    ds, tr = staircase_trace(160, 4)
    sel = select_case(tr, Fraction(1))
    assert (sel.window_start, sel.window_end) == (6, 36)
    assert sel.case == BACKWARD
    assert not sel.degenerate


def test_select_case_needs_completed_trace():
    ds = one_hot_dataset(GRID, 8, 2 * GRID.unit)
    rows = [weights_on(ds, (), GRID.unit), weights_on(ds, (0, 1, 2, 3), GRID.unit)]
    tr = synthesize_trace(ds, tuple(range(8)), 4, rows)
    with pytest.raises(DomainError):
        select_case(tr, Fraction(1, 2))


def test_choose_split_side_tie_and_weighting():
    ds, tr = split_trace(16, 8)
    # gamma=1/2 and symmetric divergences: tie resolves to the prefix
    assert choose_split_side(tr, 2) == 0
    # late checkpoint where only the last batch is correct: suffix wins
    ds2 = one_hot_dataset(GRID, 16, 2 * GRID.unit)
    order = tuple(range(16))
    rows = [
        weights_on(ds2, (), GRID.unit),
        weights_on(ds2, order[0:4], GRID.unit),
        weights_on(ds2, order[4:8], GRID.unit),
        weights_on(ds2, order[12:16], GRID.unit),
        weights_on(ds2, order, GRID.unit),
    ]
    tr2 = synthesize_trace(ds2, order, 4, rows)
    assert choose_split_side(tr2, 4) == 1


def test_split_stream_width_is_fully_predictable():
    # a clean half/half split: both set ranks collapse to zero bits and the
    # stream is two permutation ranks plus a fixed header
    ds, tr = split_trace(256, 128)
    cfg = one_hot_config(ds, 128)
    code = encode_epoch(tr, ds, cfg, mode=ACCOUNTING)
    assert code.case == SPLIT and code.split_j == 2 and code.side == 0
    widths = dict(code.segments)
    assert widths["case"] == 1
    assert widths["split_j"] == 1
    assert widths["side"] == 1
    assert widths["set_sizes"] == 2 * ceil_log2(129)
    assert widths["set_rank_pos"] == 0
    assert widths["set_rank_neg"] == 0
    assert widths["perm_left"] == ceil_log2(math.factorial(128)) == 717
    assert widths["perm_right"] == 717
    assert code.measured_bits == 1453
    assert ceil_log2(math.factorial(256)) - code.measured_bits == 231
    dec = decode_epoch(code, ds, cfg, SideInfo.of(ACCOUNTING, tr.checkpoints))
    assert dec.order == tr.order


def test_staircase_backward_stream_beats_baseline():
    # each batch is exactly the correct set at its checkpoint, so both set
    # ranks vanish and the whole epoch costs headers plus tiny perm ranks
    ds, tr = staircase_trace(160, 4)
    cfg = one_hot_config(ds, 4)
    code = encode_epoch(tr, ds, cfg, mode=ACCOUNTING)
    assert code.case == BACKWARD
    assert code.measured_bits == 441
    assert ceil_log2(math.factorial(160)) == 946
    dec = decode_epoch(code, ds, cfg, SideInfo.of(ACCOUNTING, tr.checkpoints))
    assert dec.order == tr.order


def test_declared_segments_sum_to_stream_length():
    ds, tr = staircase_trace(32, 4)
    cfg = one_hot_config(ds, 4)
    code = encode_epoch(tr, ds, cfg, mode=ACCOUNTING)
    assert sum(w for _, w in code.segments) == len(code.stream)


def test_predict_segments_matches_encoder_on_real_runs():
    gen_grid = GRID
    cases = set()
    for seed in range(1, 9):
        gen = GeneratorSpec(family="random-labels", n=64, dim=4, seed=seed)
        cfg = RunConfig(generator=gen, batch_size=16, step_raw=gen_grid.unit // 4,
                        eps=Fraction(1, 4), progress_coeff=Fraction(2), seed=seed,
                        max_epochs=3, grid=gen_grid)
        run = run_training(cfg)
        for tr in run.completed_traces:
            code = encode_epoch(tr, run.dataset, cfg, mode=ACCOUNTING)
            cases.add(code.case)
            assert predict_segments(tr, cfg, code.selector, ACCOUNTING) == code.segments
            dec = decode_epoch(code, run.dataset, cfg, SideInfo.of(ACCOUNTING, tr.checkpoints))
            assert dec.order == tr.order
    assert cases == {SPLIT, BACKWARD}


def test_strict_split_round_trip_recovers_chain():
    cfg, run = gaussians_run()
    assert run.epochs_completed == 4
    for tr in run.completed_traces:
        code = encode_epoch(tr, run.dataset, cfg, mode=STRICT)
        assert code.case == SPLIT
        assert code.stream_model_bits == cfg.grid.coord_bits
        assert predict_segments(tr, cfg, code.selector, STRICT) == code.segments
        dec = decode_epoch(code, run.dataset, cfg, SideInfo.of(STRICT, tr.checkpoints))
        assert dec.order == tr.order
        assert [w.raws for w in dec.checkpoints] == [w.raws for w in tr.checkpoints]


def test_strict_backward_round_trip_recovers_chain():
    cfg, run = labels_run(seed=5)
    codes = [encode_epoch(tr, run.dataset, cfg, mode=STRICT)
             for tr in run.completed_traces]
    assert [c.case for c in codes] == [BACKWARD, SPLIT, SPLIT]
    for tr, code in zip(run.completed_traces, codes):
        dec = decode_epoch(code, run.dataset, cfg, SideInfo.of(STRICT, tr.checkpoints))
        assert dec.order == tr.order
        assert [w.raws for w in dec.checkpoints] == [w.raws for w in tr.checkpoints]


def test_side_info_of_hands_strict_the_last_checkpoint_alone():
    _, run = gaussians_run()
    trace = run.completed_traces[0]
    strict = SideInfo.of(STRICT, trace.checkpoints)
    assert strict.mode == STRICT and strict.checkpoints == (trace.checkpoints[-1],)
    accounting = SideInfo.of(ACCOUNTING, trace.checkpoints)
    assert accounting.mode == ACCOUNTING
    assert accounting.checkpoints == tuple(trace.checkpoints)
    with pytest.raises(DomainError):
        SideInfo.of("FAST", trace.checkpoints)


def test_decode_rejects_a_checkpoint_source_of_the_wrong_length():
    cfg, run = gaussians_run()
    tr = run.completed_traces[0]
    strict = encode_epoch(tr, run.dataset, cfg, mode=STRICT)
    accounting = encode_epoch(tr, run.dataset, cfg, mode=ACCOUNTING)
    assert strict.case == accounting.case == SPLIT
    short = SideInfo.of(ACCOUNTING, tr.checkpoints[:-1])
    with pytest.raises(CodecError, match="checkpoint"):
        decode_epoch(accounting, run.dataset, cfg, short)
    two = SideInfo(STRICT, tuple(tr.checkpoints[-2:]))
    with pytest.raises(CodecError, match="checkpoint"):
        decode_epoch(strict, run.dataset, cfg, two)


def test_accounting_decode_returns_the_chain_it_was_given():
    cfg, run = labels_run(seed=5)
    cases = set()
    for tr in run.completed_traces:
        code = encode_epoch(tr, run.dataset, cfg, mode=ACCOUNTING)
        cases.add(code.case)
        side = SideInfo.of(ACCOUNTING, tr.checkpoints)
        dec = decode_epoch(code, run.dataset, cfg, side)
        assert dec.checkpoints == side.checkpoints == tuple(tr.checkpoints)
    assert cases == {SPLIT, BACKWARD}


@pytest.mark.parametrize("mode", [ACCOUNTING, STRICT])
def test_decode_rejects_a_split_position_past_the_epoch(mode):
    cfg, run = gaussians_run()
    tr = run.completed_traces[0]
    width = ceil_log2(tr.num_batches)
    stream = BitStream()
    stream.write_uint(1, 1)
    stream.write_uint((1 << width) - 1, width)  # split position 2**width + 1
    with pytest.raises(CodecError, match="split position"):
        decode_epoch(stream, run.dataset, cfg, SideInfo.of(mode, tr.checkpoints))


def test_accounting_mode_never_embeds_the_model():
    cfg, run = gaussians_run()
    tr = run.completed_traces[0]
    code = encode_epoch(tr, run.dataset, cfg, mode=ACCOUNTING)
    assert code.stream_model_bits == 0
    strict = encode_epoch(tr, run.dataset, cfg, mode=STRICT)
    assert strict.measured_bits == code.measured_bits + cfg.grid.coord_bits


def test_tampered_stream_never_decodes_silently():
    cfg, run = gaussians_run()
    tr = run.completed_traces[0]
    code = encode_epoch(tr, run.dataset, cfg, mode=STRICT)
    side = SideInfo.of(STRICT, tr.checkpoints)
    for k in (0, 1, 2, 40, len(code.stream) - 1):
        bad = flip_bit(code.stream, k)
        try:
            dec = decode_epoch(bad, run.dataset, cfg, side)
        except DECODE_ERRORS:
            continue
        assert dec.order != tr.order


def test_decode_rejects_trailing_bits(tmp_path):
    cfg, run = labels_run(seed=5)
    traces = run.completed_traces[:2]
    codes = [encode_epoch(tr, run.dataset, cfg, mode=ACCOUNTING) for tr in traces]
    assert [c.case for c in codes] == [BACKWARD, SPLIT]
    path = str(tmp_path / "epoch.epc")
    for tr, code in zip(traces, codes):
        side = SideInfo.of(ACCOUNTING, tr.checkpoints)
        for extra in range(1, 8):
            for fill in (0, (1 << extra) - 1):
                padded = BitStream.from_bytes(code.stream.to_bytes())
                padded.write_uint(fill, extra)
                with pytest.raises(CodecError):
                    decode_epoch(padded, run.dataset, cfg, side)
                write_epoch_file(path, replace(code, stream=padded))
                with pytest.raises(CodecError):
                    decode_epoch(read_epoch_file(path)[3], run.dataset, cfg, side)
        write_epoch_file(path, code)
        dec = decode_epoch(read_epoch_file(path)[3], run.dataset, cfg, side)
        assert dec.order == tr.order


def test_strict_mode_refuses_infeasible_shapes():
    ds, tr = split_trace(256, 128)
    cfg = one_hot_config(ds, 128)
    with pytest.raises(CodecError):
        encode_epoch(tr, ds, cfg, mode=STRICT)


def test_encode_rejects_incomplete_trace():
    ds = one_hot_dataset(GRID, 8, 2 * GRID.unit)
    rows = [weights_on(ds, (), GRID.unit), weights_on(ds, (0, 1, 2, 3), GRID.unit)]
    tr = synthesize_trace(ds, tuple(range(8)), 4, rows)
    cfg = one_hot_config(ds, 4)
    with pytest.raises(CodecError):
        encode_epoch(tr, ds, cfg, mode=ACCOUNTING)


def test_epoch_target_bits_frozen_value():
    assert epoch_target_bits(256, 2, Fraction(1, 4)) == pytest.approx(
        1806.6622570324254, abs=1e-9
    )


def test_model_description_bits():
    gen = GeneratorSpec(family="random-labels", n=16, dim=4, seed=0)
    cfg = RunConfig(generator=gen, batch_size=4, step_raw=1, eps=Fraction(1, 4),
                    progress_coeff=Fraction(1), seed=0, max_epochs=1, grid=GRID)
    assert model_description_bits(cfg) == 4 * (16 + 6)
    gen1 = GeneratorSpec(family="random-labels", n=16, dim=1, seed=0)
    cfg1 = RunConfig(generator=gen1, batch_size=4, step_raw=1, eps=Fraction(1, 4),
                     progress_coeff=Fraction(1), seed=0, max_epochs=1, grid=GRID6)
    assert model_description_bits(cfg1) == 6 + 2


def test_accounting_good_backward_epoch():
    ds, tr = staircase_trace(160, 4)
    cfg = one_hot_config(ds, 4)
    code = encode_epoch(tr, ds, cfg, mode=ACCOUNTING)
    row = epoch_accounting(code, tr, cfg)
    assert row.beta_hat == 1 and row.progress_ok
    assert row.model_charge_bits == 0 and row.good
    assert row.charged_bits == row.measured_bits == row.payload_bits
    assert row.savings_bits == row.baseline_bits - row.measured_bits > 0
    assert row.epoch_bound_ok and row.backward_bound_ok
    assert row.batch_lag_ok and row.divergence_precond_ok and row.divergence_ok
    assert row.split_bound_ok is None


def test_accounting_split_epoch_pays_model_charge():
    ds, tr = split_trace(256, 128)
    cfg = one_hot_config(ds, 128)
    code = encode_epoch(tr, ds, cfg, mode=ACCOUNTING)
    row = epoch_accounting(code, tr, cfg)
    assert row.case == SPLIT and row.progress_ok
    # the flat per-checkpoint charge dwarfs the n*beta^3/512 budget here
    assert row.model_charge_bits == model_description_bits(cfg)
    assert not row.model_charge_ok and not row.good
    assert row.charged_bits == row.baseline_bits
    assert row.savings_bits == 0
    assert row.epoch_bound_ok is None
    assert row.split_bound_ok and row.backward_bound_ok is None
    assert not row.divergence_precond_ok


def test_accounting_no_progress_epoch_charged_baseline():
    cfg, run = labels_run(seed=5)
    tr = run.completed_traces[0]
    code = encode_epoch(tr, run.dataset, cfg, mode=ACCOUNTING)
    row = epoch_accounting(code, tr, cfg)
    assert not row.progress_ok and not row.good
    assert row.charged_bits == row.baseline_bits
    assert row.epoch_bound_ok is None


def test_accounting_beta_override_changes_gating():
    ds, tr = staircase_trace(160, 4)
    cfg = one_hot_config(ds, 4)
    code = encode_epoch(tr, ds, cfg, mode=ACCOUNTING)
    floor_one = epoch_accounting(code, tr, cfg)
    assert floor_one.good
    # the same stream accounted under a config whose floor is 1/2
    lower = epoch_accounting(code, tr, one_hot_config(ds, 4, coeff=Fraction(2)))
    assert lower.good and lower.divergence_ok
    assert lower.divergence_floor == floor_one.divergence_floor
    assert lower.epoch_bound_bits > floor_one.epoch_bound_bits


def test_ceiling_inapplicable_cases():
    cfg, run = gaussians_run()
    first = run.completed_traces[0]
    verdict = check_eps_beta_ceiling(first, cfg.eps)
    assert not verdict.applicable
    assert verdict.note == "some checkpoint below 1-eps"
    ds = one_hot_dataset(GRID, 8, 2 * GRID.unit)
    rows = [weights_on(ds, (), GRID.unit), weights_on(ds, (0, 1, 2, 3), GRID.unit)]
    partial = synthesize_trace(ds, tuple(range(8)), 4, rows)
    assert not check_eps_beta_ceiling(partial, cfg.eps).applicable


def test_ceiling_applies_to_high_accuracy_epochs():
    cfg, run = gaussians_run()
    eps = Fraction(15, 100)
    applicable = [tr for tr in run.completed_traces
                  if min(tr.full_acc) >= 1 - eps]
    assert applicable, "expected late epochs to sit above 85 percent"
    for tr in applicable:
        verdict = check_eps_beta_ceiling(tr, eps)
        assert verdict.applicable and verdict.ok
        assert verdict.margin >= 0
        assert float(verdict.beta_hat) <= verdict.ceiling


def test_epoch_file_round_trip(tmp_path):
    cfg, run = gaussians_run()
    tr = run.completed_traces[0]
    code = encode_epoch(tr, run.dataset, cfg, mode=ACCOUNTING)
    path = str(tmp_path / "epoch.epc")
    write_epoch_file(path, code)
    n, b, epoch, stream = read_epoch_file(path)
    assert (n, b, epoch) == (code.n, code.batch_size, code.epoch)
    dec = decode_epoch(stream, run.dataset, cfg, SideInfo.of(ACCOUNTING, tr.checkpoints))
    assert dec.order == tr.order


def test_epoch_file_rejects_bad_headers(tmp_path):
    bad_magic = tmp_path / "bad.epc"
    bad_magic.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(CodecError):
        read_epoch_file(str(bad_magic))
    short = tmp_path / "short.epc"
    short.write_bytes(b"EPC1" + b"\x00" * 4)
    with pytest.raises(CodecError):
        read_epoch_file(str(short))
