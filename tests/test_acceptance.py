"""End-to-end acceptance checks.

Each test exercises one numbered acceptance criterion at its stated
tolerance and prints a single [PASS] line through the captured-output
escape hatch so the verdicts stay visible in a plain pytest run.  The
numbers quoted in assertions (bit widths, savings, time budgets) are
frozen from the designs worked out in the unit suites; nothing here is
tuned at runtime.
"""

from __future__ import annotations

import math
import os
import random
import time
from fractions import Fraction

from conftest import (
    band_dataset,
    mask_of,
    run_generated,
    split_trace,
    theoretical_set_bound,
)
from sgdcodec.codec import binomial, ceil_log2, encode_set_conditional
from sgdcodec.epoch_codec import (
    ACCOUNTING,
    SPLIT,
    STRICT,
    SideInfo,
    check_eps_beta_ceiling,
    decode_epoch,
    encode_epoch,
    epoch_accounting,
)
from sgdcodec.harness import (
    ExperimentSpec,
    HoeffdingCheck,
    load_manifest,
    run_experiment,
    run_inequality_suite,
    verify_hoeffding,
)
from sgdcodec.model import (
    GeneratorSpec,
    Model,
    correctness_vector,
    zero_model,
)
from sgdcodec.numerics import FixedVector, GridSpec
from sgdcodec.sgd_engine import (
    MultiplePreimage,
    RunConfig,
    SaturationError,
    check_step_smoothness,
    forward_step,
    reverse_step,
)

GRID = GridSpec()
GRID6 = GridSpec(scale=6, clip=4)


def announce(capsys, number: int) -> None:
    with capsys.disabled():
        print(f"[PASS] criterion {number}", flush=True)


def test_criterion_01_accounting_round_trips_at_scale(capsys):
    """54 mixed-size runs, every completed epoch decodes exactly."""
    t0 = time.monotonic()
    runs = 0
    epochs = 0
    for n in (32, 64, 256):
        for b in (4, 8, 16):
            for seed in range(1, 7):
                gen = GeneratorSpec(family="random-labels", n=n, dim=2, seed=seed)
                cfg = RunConfig(
                    generator=gen, batch_size=b, step_raw=GRID.unit // 8,
                    eps=Fraction(1, 4), progress_coeff=Fraction(2),
                    seed=seed, max_epochs=2, grid=GRID,
                )
                run = run_generated(cfg)
                runs += 1
                for tr in run.completed_traces:
                    code = encode_epoch(tr, run.dataset, cfg, mode=ACCOUNTING)
                    dec = decode_epoch(
                        code.stream, run.dataset, cfg, SideInfo.of(ACCOUNTING, tr)
                    )
                    assert dec.order == tr.order
                    row = epoch_accounting(code, tr, cfg)
                    # holds here only because no epoch of these 54 runs is
                    # good, and a bad epoch is charged the baseline itself;
                    # a good one is charged its payload, which can exceed
                    # it (random-labels n=32 d=2 b=16 step_raw=8192 eps=1/20
                    # coeff 1, 2 epochs: charged 278, baseline 236)
                    assert row.charged_bits <= row.baseline_bits
                    assert row.measured_bits == len(code.stream)
                    epochs += 1
    elapsed = time.monotonic() - t0
    assert runs == 54 and runs >= 50
    assert epochs >= 100
    assert elapsed < 300.0
    announce(capsys, 1)


def test_criterion_02_strict_chain_from_final_weights_alone(capsys):
    """Bit streams plus the final model reproduce every visit order."""
    t0 = time.monotonic()
    gen = GeneratorSpec(family="two-gaussians", n=32, dim=1, seed=3,
                        sigma=Fraction(1, 2), center_dist=Fraction(2))
    cfg = RunConfig(generator=gen, batch_size=4, step_raw=8,
                    eps=Fraction(1, 100), progress_coeff=Fraction(1),
                    seed=3, max_epochs=4, grid=GRID6)
    run = run_generated(cfg)
    assert len(run.completed_traces) == 4
    codes = [encode_epoch(tr, run.dataset, cfg, mode=STRICT)
             for tr in run.completed_traces]
    current = run.final_model.weights
    for tr, code in zip(reversed(run.completed_traces), reversed(codes)):
        dec = decode_epoch(code.stream, run.dataset, cfg, SideInfo(STRICT, last=current))
        assert dec.order == tr.order
        assert [w.raws for w in dec.checkpoints] == [w.raws for w in tr.checkpoints]
        current = dec.checkpoints[0]
    assert current.raws == zero_model("logistic-linear", gen.dim, GRID6).weights.raws
    assert time.monotonic() - t0 < 600.0
    announce(capsys, 2)


def test_criterion_03_reverse_step_unique_over_full_grid(capsys):
    """One-coordinate sweep: injective forward map, unique preimages."""
    grid = GridSpec(scale=6, clip=1)
    ds = band_dataset(grid, 32, 22, 29, seed=7)
    cfg = RunConfig(generator=ds.spec, batch_size=4, step_raw=4,
                    eps=Fraction(1, 100), progress_coeff=Fraction(1),
                    seed=1, max_epochs=1, grid=grid)
    assert check_step_smoothness(cfg, ds) < 1
    template = zero_model("logistic-linear", 1, grid)
    rng = random.Random(20260814)
    multiple_preimages = 0
    for _ in range(20):
        ids = rng.sample(range(32), 4)
        batch = [ds.elements[i] for i in ids]
        images: dict[tuple[int, ...], int] = {}
        saturated = 0
        for w in range(grid.raw_min, grid.raw_max + 1):
            start = Model("logistic-linear", FixedVector((w,), grid), 1)
            try:
                nxt = forward_step(start, batch, cfg.step_raw)
            except SaturationError:
                saturated += 1
                continue
            img = nxt.weights.raws
            assert img not in images
            images[img] = w
        # only the bottom edge can clip out of range on this band
        assert saturated <= 1
        assert len(images) == grid.raw_max - grid.raw_min + 1 - saturated
        for img, w in images.items():
            try:
                back = reverse_step(FixedVector(img, grid), batch, cfg, template)
            except MultiplePreimage:
                multiple_preimages += 1
                continue
            assert back.raws == (w,)
    assert multiple_preimages == 0
    announce(capsys, 3)


def test_criterion_04_conditional_width_respects_set_bound(capsys):
    """1000 random subset instances against the closed-form allowance."""
    rng = random.Random(20260814)
    violations = 0
    for trial in range(1000):
        m = 4096 if trial == 0 else max(16, min(4096, int(2 ** rng.uniform(4, 12))))
        k = rng.randint(1, m - 1)
        n1 = rng.randint(0, m)
        lo, hi = max(0, k - (m - n1)), min(k, n1)
        k1 = rng.randint(lo, hi)
        pool = tuple(range(m))
        ones = set(rng.sample(pool, n1))
        zeros = [e for e in pool if e not in ones]
        picked = rng.sample(sorted(ones), k1) + rng.sample(zeros, k - k1)
        fields = encode_set_conditional(mask_of(picked), (1 << m) - 1, mask_of(ones))
        bound = theoretical_set_bound(m, Fraction(k, m), Fraction(n1, m), Fraction(k1, k))
        allowance = bound + 4 * math.log2(m) + 2 * ceil_log2(k + 1)
        if sum(w for _, w in fields) > allowance:
            violations += 1
    assert violations == 0
    announce(capsys, 4)


def test_criterion_05_inequality_sweeps_within_tolerance(capsys):
    """Analytic inequalities the accounting relies on, swept numerically."""
    rows = {r.name: r for r in run_inequality_suite()}
    assert all(r.passed for r in rows.values())
    assert max(rows["entropy-vs-plog2ep"].worst, 0.0) <= 1e-12
    assert rows["split-entropy-drop"].worst >= -1e-12
    assert rows["pinsker-bernoulli"].worst >= -1e-12
    assert rows["stirling-log2-factorial"].worst <= 0.1
    assert rows["binomial-vs-entropy"].worst <= 0.0
    assert rows["conditional-codec-overhead"].worst <= 0.0
    announce(capsys, 5)


def test_criterion_06_sampling_tail_bound_holds_empirically(capsys):
    """10^6 without-replacement trials per setting stay under the bound."""
    checks = [
        HoeffdingCheck(
            population_size=1024, population_ones=512,
            sample_size=k, delta=delta, trials=10**6, seed=11,
        )
        for k in (64, 256)
        for delta in (Fraction(1, 10), Fraction(1, 5))
    ]
    for res in verify_hoeffding(checks):  # one shared read of the stream
        assert res.ok_empirical
        assert res.ok_exact
        assert float(res.empirical_freq) <= res.bound + 3.0 * res.sigma
    announce(capsys, 6)


def test_criterion_07_favorable_epochs_show_real_savings(capsys):
    """Perfect split epoch and per-batch conditional savings."""
    # (a) the half-learned checkpoint drives both set ranks to zero bits
    ds, tr = split_trace(256, 128)
    cfg = RunConfig(generator=ds.spec, batch_size=128, step_raw=0,
                    eps=Fraction(1, 4), progress_coeff=Fraction(4),
                    seed=0, max_epochs=1, grid=ds.grid)
    code = encode_epoch(tr, ds, cfg, mode=ACCOUNTING)
    assert code.case == SPLIT
    baseline = ceil_log2(math.factorial(256))
    assert baseline == 1684
    assert baseline - code.measured_bits >= 0.9 * 256
    dec = decode_epoch(code.stream, ds, cfg, SideInfo.of(ACCOUNTING, tr))
    assert dec.order == tr.order
    # (b) batches drawn inside a 90 percent-correct pool save bits each step
    m, ones_count, b = 1600, 1440, 160
    unconditional = ceil_log2(binomial(m, b))
    rng = random.Random(5)
    for _ in range(10):
        batch = mask_of(rng.sample(range(ones_count), b))
        fields = encode_set_conditional(batch, (1 << m) - 1, (1 << ones_count) - 1)
        assert unconditional - sum(w for _, w in fields) > 0
    announce(capsys, 7)


def test_criterion_08_full_run_stays_below_permutation_cost(capsys):
    """Separable memorization run: total stream cost beats the baseline."""
    gen = GeneratorSpec(family="one-hot", n=256, dim=256, seed=1)
    cfg = RunConfig(generator=gen, batch_size=16, step_raw=58982,
                    eps=Fraction(1, 100), progress_coeff=Fraction(20),
                    seed=1, max_epochs=4, grid=GRID)
    run = run_generated(cfg)
    assert check_step_smoothness(cfg, run.dataset) < 1
    # the all-ones weight vector classifies every element correctly
    witness = Model(
        "logistic-linear",
        FixedVector((run.dataset.grid.unit,) * 256, run.dataset.grid),
        256,
    )
    assert all(correctness_vector(witness, run.dataset))
    assert len(run.completed_traces) >= 1
    total_measured = 0
    baseline = ceil_log2(math.factorial(256))
    for tr in run.completed_traces:
        code = encode_epoch(tr, run.dataset, cfg, mode=ACCOUNTING)
        dec = decode_epoch(code.stream, run.dataset, cfg, SideInfo.of(ACCOUNTING, tr))
        assert dec.order == tr.order
        row = epoch_accounting(code, tr, cfg)
        assert row.beta_hat > 0
        assert row.batch_lag_ok
        assert row.split_bound_ok if row.case == SPLIT else row.backward_bound_ok
        total_measured += row.measured_bits
        verdict = check_eps_beta_ceiling(tr, cfg.eps)
        assert (not verdict.applicable) or verdict.ok
    assert total_measured < len(run.completed_traces) * baseline
    announce(capsys, 8)


def test_criterion_09_experiments_reproduce_byte_identically(capsys, tmp_path):
    """Rerunning a manifest rebuilds every artifact byte for byte."""
    gen = GeneratorSpec(family="two-gaussians", n=64, dim=2, seed=1,
                        sigma=Fraction(1), center_dist=Fraction(1))
    cfg = RunConfig(generator=gen, batch_size=8, step_raw=GRID.unit // 8,
                    eps=Fraction(1, 10), progress_coeff=Fraction(1),
                    seed=1, max_epochs=3, grid=GRID)
    spec = ExperimentSpec(config=cfg, replications=2, mode=ACCOUNTING)
    dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
    run_experiment(spec, dir_a)
    respec = load_manifest(os.path.join(dir_a, "manifest.json"))
    run_experiment(respec, dir_b)
    tree_a, tree_b = _tree_bytes(dir_a), _tree_bytes(dir_b)
    assert sorted(tree_a) == sorted(tree_b)
    assert tree_a == tree_b
    announce(capsys, 9)


def _tree_bytes(root: str) -> dict[str, bytes]:
    out: dict[str, bytes] = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out
