"""Experiment driver, artifact determinism, tail checks, and the CLI."""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
from dataclasses import fields, replace
from fractions import Fraction
from functools import reduce
from operator import getitem

import pytest

from conftest import hypergeometric_pmf, staircase_report_inputs
from sgdcodec import cli, harness, model
from sgdcodec.cli import main, read_config_file
from sgdcodec.codec import binomial
from sgdcodec.harness import (
    SETTINGS,
    CompressionReport,
    ExperimentSpec,
    HoeffdingCheck,
    dataset_description_bits,
    load_manifest,
    run_experiment,
    run_inequality_suite,
    verify_hoeffding,
)
from sgdcodec.model import GeneratorSpec, generate_dataset
from sgdcodec.numerics import DomainError, FixedVector, GridSpec
from sgdcodec.sgd_engine import RunConfig

GRID = GridSpec()
GRID6 = GridSpec(scale=6, clip=4)


def plateau_spec(max_epochs=3, replications=1):
    gen = GeneratorSpec(family="two-gaussians", n=64, dim=2, seed=1,
                        sigma=Fraction(1), center_dist=Fraction(1))
    cfg = RunConfig(generator=gen, batch_size=8, step_raw=GRID.unit // 8,
                    eps=Fraction(1, 10), progress_coeff=Fraction(1), seed=1,
                    max_epochs=max_epochs, grid=GRID)
    return ExperimentSpec(config=cfg, replications=replications)


def strict_spec():
    gen = GeneratorSpec(family="two-gaussians", n=32, dim=1, seed=3,
                        sigma=Fraction(1, 2), center_dist=Fraction(2))
    cfg = RunConfig(generator=gen, batch_size=4, step_raw=8, eps=Fraction(1, 100),
                    progress_coeff=Fraction(1), seed=3, max_epochs=4, grid=GRID6)
    return ExperimentSpec(config=cfg, mode="STRICT")


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_dataset_description_bits():
    ds = generate_dataset(GeneratorSpec(family="random-labels", n=8, dim=2, seed=0), GRID)
    assert dataset_description_bits(ds) == 8 * (1 + 2 * GRID.coord_bits) + 64


def test_experiment_spec_validation():
    spec = plateau_spec()
    with pytest.raises(DomainError):
        ExperimentSpec(config=spec.config, replications=0)
    with pytest.raises(DomainError):
        ExperimentSpec(config=spec.config, mode="FAST")
    with pytest.raises(DomainError):
        # default grid scale exceeds the reverse-search budget
        ExperimentSpec(config=spec.config, mode="STRICT")
    # replication r runs seed + r, which must stay below 2**64
    top = replace(spec.config, seed=(1 << 64) - 1)
    with pytest.raises(DomainError, match="replications"):
        ExperimentSpec(config=top, replications=2)
    with pytest.raises(DomainError, match="replications"):
        ExperimentSpec(config=replace(top, seed=(1 << 64) - 3), replications=4)
    ExperimentSpec(config=top, replications=1)
    ExperimentSpec(config=replace(top, seed=(1 << 64) - 3), replications=3)


@pytest.mark.parametrize(
    "flags",
    [["--data-seed", "-5"], ["--seed", "-1"], ["--seed", str(1 << 64)],
     ["--seed", str((1 << 64) - 1), "--replications", "2"]],
)
def test_cli_rejects_a_seed_that_would_alias_another(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert main(["run", *flags, "--out", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_run_experiment_writes_artifacts(tmp_path):
    out = str(tmp_path / "exp")
    result = run_experiment(plateau_spec(), out)
    rep = result.replications[0]
    assert rep.report.epochs == 3
    assert rep.report.check_conservation()
    for rel in (
        "manifest.json",
        "dataset.tsv",
        "rep_00/trace.csv",
        "rep_00/final_model.bin",
        "rep_00/report.csv",
        "rep_00/summary.json",
        "rep_00/epochs/epoch_001.epc",
        "rep_00/epochs/epoch_003.epc",
    ):
        assert os.path.exists(os.path.join(out, rel)), rel
    with open(os.path.join(out, "rep_00/summary.json")) as fh:
        summary = json.load(fh)
    assert summary["epochs"] == 3
    assert summary["conservation_ok"] is True
    assert summary["total_charged_bits"] == rep.report.total_charged_bits
    assert len(summary["ceilings"]) == 3


def test_rerun_from_manifest_is_byte_identical(tmp_path):
    first = str(tmp_path / "a")
    second = str(tmp_path / "b")
    run_experiment(plateau_spec(replications=2), first)
    spec = load_manifest(os.path.join(first, "manifest.json"))
    run_experiment(spec, second)
    a, b = tree_bytes(first), tree_bytes(second)
    assert a.keys() == b.keys()
    for rel in a:
        assert a[rel] == b[rel], rel


def test_load_manifest_round_trip(tmp_path):
    out = str(tmp_path / "exp")
    spec = plateau_spec(replications=2)
    run_experiment(spec, out)
    assert load_manifest(os.path.join(out, "manifest.json")) == spec


def test_strict_experiment_verifies_chain():
    result = run_experiment(strict_spec(), None)
    rep = result.replications[0]
    assert rep.report.epochs == 4
    assert all(r.case == "SPLIT" for r in rep.report.rows)
    assert all(r.stream_model_bits == GRID6.coord_bits for r in rep.report.rows)


def shift_first_checkpoint(decode):
    """Wraps a decoder so a result's first checkpoint is one raw off."""

    def shifted(*args, **kwargs):
        result = decode(*args, **kwargs)
        first = result.checkpoints[0]
        wrong = FixedVector((first.raws[0] + 1,) + first.raws[1:], first.grid)
        return replace(result, checkpoints=(wrong,) + result.checkpoints[1:])

    return shifted


def test_strict_round_trip_checks_the_recovered_chain(monkeypatch):
    # The visit order still matches, so only the chain comparison can catch it.
    monkeypatch.setattr(
        harness, "decode_epoch", shift_first_checkpoint(harness.decode_epoch)
    )
    with pytest.raises(DomainError, match="checkpoint chain"):
        run_experiment(strict_spec(), None)


def test_strict_round_trip_decodes_from_the_last_checkpoint_alone(monkeypatch):
    real_decode = harness.decode_epoch
    sides = []

    def recorded(code, dataset, config, side):
        sides.append(side)
        return real_decode(code, dataset, config, side)

    monkeypatch.setattr(harness, "decode_epoch", recorded)
    result = run_experiment(strict_spec(), None)
    traces = result.replications[0].run.completed_traces
    assert len(sides) == len(traces) == 4
    for side, trace in zip(sides, traces):
        assert side.mode == "STRICT"
        assert side.checkpoints == (trace.checkpoints[-1],)


def test_replications_shift_the_run_seed(tmp_path):
    out = str(tmp_path / "exp")
    result = run_experiment(plateau_spec(max_epochs=2, replications=2), out)
    r0, r1 = result.replications
    assert r0.run.traces[0].order != r1.run.traces[0].order
    assert r0.run.config.seed + 1 == r1.run.config.seed


def test_report_totals_and_projection():
    ds, rows, ceilings = staircase_report_inputs()
    report = CompressionReport(
        rows, ceilings, dataset_description_bits(ds), 160 * 22
    )
    assert report.good_epochs == 1 and report.good_fraction == 1
    assert report.total_measured_bits == 441
    assert report.total_baseline_bits == 946
    assert report.total_savings_bits == 505
    assert report.mean_savings_bits == 505
    side = dataset_description_bits(ds) + 160 * 22
    assert report.projected_epoch_bound == math.ceil(side / 505)
    assert report.check_conservation()
    d = report.summary_dict()
    assert d["projected_epoch_bound"] == report.projected_epoch_bound
    assert d["mean_savings_bits"] == "505/1"


def test_projection_absent_without_savings():
    result = run_experiment(plateau_spec(max_epochs=2), None)
    report = result.replications[0].report
    assert report.total_savings_bits <= 0 or report.good_epochs == 0
    assert report.projected_epoch_bound is None


def test_hypergeometric_pmf_is_exact():
    pmf = hypergeometric_pmf(20, 8, 6)
    assert sum(pmf, Fraction(0)) == 1
    mean = sum(c * p for c, p in enumerate(pmf))
    assert mean == Fraction(6 * 8, 20)
    assert pmf[3] == Fraction(binomial(8, 3) * binomial(12, 3), binomial(20, 6))


def test_verify_hoeffding_small_case():
    check = HoeffdingCheck(population_size=64, population_ones=32,
                           sample_size=16, delta=Fraction(1, 8),
                           trials=20_000, seed=0)
    res = verify_hoeffding([check])[0]
    assert res.threshold_count == 6
    assert res.ok_exact and res.ok_empirical
    assert float(res.exact_prob) <= res.bound + 1e-12
    assert abs(float(res.empirical_freq - res.exact_prob)) < 0.01


def test_hoeffding_check_validation():
    with pytest.raises(DomainError):
        HoeffdingCheck(64, 32, 65, Fraction(1, 8), 20_000)
    with pytest.raises(DomainError):
        HoeffdingCheck(64, 70, 16, Fraction(1, 8), 20_000)
    with pytest.raises(DomainError):
        HoeffdingCheck(64, 32, 16, Fraction(3, 4), 20_000)
    with pytest.raises(DomainError):
        HoeffdingCheck(64, 32, 16, Fraction(1, 8), 100)


@pytest.mark.parametrize(
    "field, value",
    [
        ("delta", 0.125),
        ("delta", "1/8"),
        ("delta", False),
        ("population_size", 64.5),
        ("population_ones", 32.0),
        ("sample_size", True),
        ("trials", 20_000.0),
        ("trials", True),
        ("trials", None),
        ("seed", None),
        ("seed", 1.5),
        ("seed", True),
        ("seed", "0"),
    ],
)
def test_hoeffding_check_rejects_inputs_of_the_wrong_type(field, value):
    # a float delta used to fail later inside stable_exp, a float population
    # inside math.comb, and seed=None drew from OS entropy, so the verdict
    # could not be reproduced
    args = dict(population_size=64, population_ones=32, sample_size=16,
                delta=Fraction(1, 8), trials=20_000, seed=0)
    args[field] = value
    with pytest.raises(DomainError):
        HoeffdingCheck(**args)


def test_inequality_suite_passes():
    rows = run_inequality_suite(
        entropy_points=2000, split_side=20, pinsker_side=60, codec_instances=60
    )
    names = [r.name for r in rows]
    assert names == [
        "entropy-vs-plog2ep",
        "split-entropy-drop",
        "pinsker-bernoulli",
        "stirling-log2-factorial",
        "binomial-vs-entropy",
        "conditional-codec-overhead",
    ]
    for row in rows:
        assert row.passed, row.line()
        assert "pass" in row.line()


@pytest.mark.parametrize("empty", [
    dict(entropy_points=0),
    dict(split_side=0),
    dict(pinsker_side=1),
    dict(codec_instances=0),
], ids=["entropy", "split", "pinsker", "codec"])
def test_inequality_suite_rejects_sizes_that_leave_a_sweep_no_case(empty):
    # each of these sizes used to print a pass row with cases=0
    sizes = dict(entropy_points=8, split_side=4, pinsker_side=4, codec_instances=4)
    assert all(row.cases > 0 for row in run_inequality_suite(**sizes))
    with pytest.raises(DomainError):
        run_inequality_suite(**{**sizes, **empty})


@pytest.mark.parametrize("size", ["entropy_points", "split_side", "pinsker_side",
                                  "codec_instances"])
@pytest.mark.parametrize("value", [True, 2.5, 4.0, Fraction(4)],
                         ids=["bool", "float", "integral-float", "fraction"])
def test_inequality_suite_rejects_sizes_that_are_not_ints(size, value):
    # entropy_points=True used to print a row with cases=True, and
    # pinsker_side=2.5 to raise a bare TypeError from range
    sizes = dict(entropy_points=8, split_side=4, pinsker_side=4, codec_instances=4)
    with pytest.raises(DomainError, match="must be ints"):
        run_inequality_suite(**{**sizes, size: value})


def test_entropy_sweep_of_one_point_reports_its_only_margin():
    # the sweep used to start from a worst of -1 and print it: the one case,
    # p = 1, has margin h(1) - 1 * log2(e / 1) = -log2(e)
    row = harness._sweep_entropy_upper(1)
    assert (row.cases, row.worst, row.passed) == (1, -harness.LOG2_E, True)
    assert "worst=-1.443e+00" in row.line()


def test_cli_run_and_report(tmp_path, capsys):
    out = str(tmp_path / "exp")
    rc = main([
        "run", "--family", "two-gaussians", "--n", "32", "--dim", "2",
        "--sigma", "1", "--center-dist", "1", "--batch-size", "8",
        "--step-raw", "8192", "--eps", "1/10", "--progress-coeff", "1",
        "--max-epochs", "2", "--out", out,
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "rep 00:" in text and "artifacts written" in text
    assert main(["report", "--dir", out]) == 0
    assert "conservation=ok" in capsys.readouterr().out


def test_cli_run_prints_the_final_accuracy_as_a_fraction(capsys):
    assert main(["run", "--n", "16"]) == 0
    assert capsys.readouterr().out == (
        "rep 00: epochs=1 good=1/1 measured=56 charged=56 baseline=45"
        " savings=-11 t*=- terminated=True acc=1/1\n"
    )
    assert main(["run", "--family", "two-gaussians", "--n", "32", "--dim", "2",
                 "--sigma", "1", "--center-dist", "1", "--step-raw", "8192",
                 "--max-epochs", "1"]) == 0
    assert capsys.readouterr().out.endswith(" terminated=False acc=25/32\n")


def test_cli_report_reads_artifacts_only(tmp_path, capsys):
    # a manifest without any rep_NN/summary.json is an error, not a rerun
    out = tmp_path / "exp"
    out.mkdir()
    (out / "manifest.json").write_text(json.dumps(plateau_spec().to_dict()))
    assert main(["report", "--dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "summary.json" in err


def manifest_with(**config):
    d = plateau_spec().to_dict()
    d["config"].update(config)
    return d


def manifest_keyed(**top):
    d = plateau_spec().to_dict()
    d.update(top)
    return d


def manifest_generator_with(**generator):
    d = plateau_spec().to_dict()
    d["config"]["generator"].update(generator)
    return d


MISSING = object()


def manifest_setting(setting, value, spec=None):
    """The manifest of spec (the plateau spec for None) with one setting's
    value replaced, or removed."""
    d = (spec or plateau_spec()).to_dict()
    level = reduce(getitem, harness._MANIFEST_PATHS[setting.level], d)
    if value is MISSING:
        del level[setting.name]
    else:
        level[setting.name] = value
    return d


# every required setting missing, every int and rational one mistyped
TABLE_FAULTS = [
    (s, value, f"{s.key}-{label}")
    for s in SETTINGS
    for value, label in (
        ([(MISSING, "missing")] if not s.optional else [])
        + ([(True, "as-bool"), (1.5, "as-float"), ("3", "as-string")] if s.kind is int else [])
        + ([(0.5, "as-float"), (1, "as-int"), ("four", "as-word")] if s.kind is Fraction else [])
    )
]


@pytest.mark.parametrize("command", ["decode", "report"])
@pytest.mark.parametrize(
    "manifest, name",
    [
        pytest.param(manifest, None, id=case)
        for manifest, case in [
            ({"format": "sgdcodec-run-v1"}, "no-config"),
            ([], "list"),
            ({"format": "sgdcodec-run-v1", "config": [], "replications": 1,
              "mode": "ACCOUNTING"}, "config-list"),
            (manifest_with(generator=7), "generator-int"),
            (manifest_with(batch_size=None), "batch-size-null"),
            (manifest_keyed(replications=1.9), "replications-float"),
            (manifest_keyed(replications=True), "replications-bool"),
            (manifest_with(max_epochs="3"), "config-int-string"),
            (manifest_generator_with(n=64.0), "generator-int-float"),
            (manifest_with(eps=0.01), "eps-float"),
            (manifest_generator_with(sigma=True), "sigma-bool"),
            (manifest_generator_with(margin=1), "margin-int"),
            (manifest_with(progress_coeff="four"), "coeff-unparsable"),
            (manifest_generator_with(center_dist="1/0"), "center-zero-denominator"),
        ]
    ]
    + [pytest.param(manifest_setting(s, value), s.name, id=case)
       for s, value, case in TABLE_FAULTS],
)
def test_cli_rejects_a_malformed_manifest(tmp_path, capsys, command, manifest, name):
    # valid JSON of the wrong shape is an error: exit 2, not a traceback; an
    # integer field takes a JSON integer only, never a bool, float or string,
    # and a rational field only the "num/den" string that to_dict writes
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert main([command, "--dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.replace(str(tmp_path), "")
    assert err.startswith("error:") and "manifest" in err
    if name is not None:  # a table case names the key at fault
        assert repr(name) in err


def hidden_spec():
    """A spec whose six optional settings all differ from their defaults."""
    gen = GeneratorSpec(family="two-gaussians", n=32, dim=2, seed=4, margin=Fraction(1, 4),
                        sigma=Fraction(1), center_dist=Fraction(3, 2), feature_scale=3)
    cfg = RunConfig(generator=gen, batch_size=8, step_raw=256, eps=Fraction(1, 10),
                    progress_coeff=Fraction(1), seed=2, max_epochs=2,
                    model_kind="one-hidden-layer", hidden_width=2, grid=GridSpec(8, 8))
    return ExperimentSpec(config=cfg, replications=2)


def outcome(make):
    try:
        return make()
    except DomainError as exc:
        return f"DomainError: {exc}"


def with_defaults(spec, settings):
    """spec with each of these optional settings at its default."""
    generator = {s.name: s.default for s in settings if s.level == "generator"}
    config = {s.name: s.default for s in settings if s.level == "config"}
    config["generator"] = replace(spec.config.generator, **generator)
    return replace(spec, config=replace(spec.config, **config))


# the six settings a manifest may omit
OPTIONAL = [s for s in SETTINGS if s.optional]


@pytest.mark.parametrize("setting", OPTIONAL, ids=lambda s: s.key)
def test_a_manifest_without_an_optional_setting_reads_its_default(setting):
    # hidden_spec holds each optional setting off its default, so the absent
    # key must load as the spec with that one field at its default; alone,
    # the model kind or its width at its default is refused, as that spec is
    assert [s.key for s in OPTIONAL] == [
        "margin", "sigma", "center_dist", "feature_scale", "model_kind", "hidden_width"
    ]
    owner = GeneratorSpec if setting.level == "generator" else RunConfig
    assert {f.name: f.default for f in fields(owner)}[setting.name] == setting.default
    spec = hidden_spec()
    d = manifest_setting(setting, MISSING, spec)
    expected = outcome(lambda: with_defaults(spec, [setting]))
    assert expected != spec
    assert outcome(lambda: ExperimentSpec.from_dict(d)) == expected
    if setting.level == "config":  # together they read a logistic-linear model
        model = [s for s in OPTIONAL if s.level == "config"]
        for s in model:
            d["config"].pop(s.name, None)
        assert ExperimentSpec.from_dict(d) == with_defaults(spec, model)


def test_the_cli_default_spec_reads_back_from_its_manifest():
    spec = cli.build_spec(dict(cli._DEFAULTS))
    assert ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


@pytest.mark.parametrize("command", ["run", "encode"])
@pytest.mark.parametrize("setting", SETTINGS, ids=lambda s: s.key)
def test_every_setting_is_a_flag_and_a_config_key(tmp_path, command, setting):
    flag = "--" + setting.key.replace("_", "-")
    parser = cli.build_parser(command)
    choices = setting.kind if isinstance(setting.kind, tuple) else None
    for value in choices or [str(setting.default)]:
        parsed = getattr(parser.parse_args([command, flag, value]), setting.key)
        assert parsed == (int(value) if setting.kind is int else value)
        assert type(parsed) is (int if setting.kind is int else str)
    if choices:
        with pytest.raises(SystemExit):
            parser.parse_args([command, flag, "bogus"])
    elif setting.kind is int:
        with pytest.raises(SystemExit):
            parser.parse_args([command, flag, "1/2"])
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{setting.key} = {value}\n")
    assert read_config_file(str(cfg)) == {setting.key: value}


@pytest.mark.parametrize("summary", [{}, [], {"epochs": 1}])
def test_cli_report_rejects_a_malformed_summary(tmp_path, capsys, summary):
    (tmp_path / "manifest.json").write_text(json.dumps(plateau_spec().to_dict()))
    (tmp_path / "rep_00").mkdir()
    (tmp_path / "rep_00" / "summary.json").write_text(json.dumps(summary))
    assert main(["report", "--dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "summary.json" in err


def test_cli_decode_fails_a_stray_epoch_file(tmp_path, capsys):
    out = tmp_path / "exp"
    run_experiment(plateau_spec(max_epochs=1), str(out))
    epochs = out / "rep_00" / "epochs"
    assert sorted(os.listdir(epochs)) == ["epoch_001.epc"]
    (epochs / "epoch_007.epc").write_bytes((epochs / "epoch_001.epc").read_bytes())
    capsys.readouterr()
    assert main(["decode", "--dir", str(out)]) == 1
    text = capsys.readouterr().out
    assert f"{epochs / 'epoch_007.epc'}: no such epoch in the rerun" in text
    assert "rep 00 epoch 1: ok" in text


def test_cli_decode_fails_a_stray_replication(tmp_path, capsys):
    out = tmp_path / "exp"
    run_experiment(plateau_spec(max_epochs=1), str(out))
    shutil.copytree(out / "rep_00", out / "rep_03")
    capsys.readouterr()
    assert main(["decode", "--dir", str(out)]) == 1
    text = capsys.readouterr().out
    assert f"{out / 'rep_03'}: no such replication in the manifest" in text
    assert "rep 00 epoch 1: ok" in text


def test_cli_decode_detects_tampering(tmp_path, capsys):
    out = str(tmp_path / "exp")
    args = ["--family", "two-gaussians", "--n", "32", "--dim", "2",
            "--sigma", "1", "--center-dist", "1", "--batch-size", "8",
            "--step-raw", "8192", "--eps", "1/10", "--progress-coeff", "1",
            "--max-epochs", "2", "--out", out]
    assert main(["encode"] + args) == 0
    assert main(["decode", "--dir", out]) == 0
    capsys.readouterr()
    victim = os.path.join(out, "rep_00", "epochs", "epoch_002.epc")
    blob = bytearray(open(victim, "rb").read())
    blob[17] ^= 0xFF  # one byte into the payload, past the 16 byte header
    with open(victim, "wb") as fh:
        fh.write(bytes(blob))
    rc = main(["decode", "--dir", out])
    captured = capsys.readouterr()
    assert rc in (1, 2)
    assert "MISMATCH" in captured.out or "error:" in captured.err


def test_cli_verify_inequalities(capsys):
    assert main(["verify", "--suites", "inequalities"]) == 0
    text = capsys.readouterr().out
    assert text.count("pass") >= 6 and "FAIL" not in text


@pytest.mark.parametrize("suites", ["hoefding", "inequalities,hoefding", "hoeffding,", ""])
def test_cli_verify_rejects_unknown_suites(suites, capsys):
    # a typo must not run nothing and exit 0, which would read as a pass
    assert main(["verify", "--suites", suites]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown suite(s)")


def test_cli_verify_takes_no_trials_flag(capsys):
    # the shipped checks fix their trial count: harness.HOEFFDING_CHECKS
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--trials", "100000"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --trials 100000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        *([c, "--help"] for c in ("run", "encode", "decode", "report", "verify")),
        [],
        ["bogus"],
        ["run", "--g-bound", "5"],
        ["decode", "--x"],
        ["--dir", "x", "decode"],
        ["decode", "--dir", "x", "extra"],
        ["decode", "-h", "--dir"],
        ["encode", "--n", "3", "extra"],
        ["ru"],
    ],
)
def test_cli_prints_what_the_parser_with_every_flag_prints(argv, capsys):
    # main registers the invoked subcommand only; no output may show it
    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return exc.value.code, capsys.readouterr()

    assert outcome(main) == outcome(cli.build_parser().parse_args)


@pytest.mark.parametrize(
    "argv, error",
    [(["ru"], "error: argument command: invalid choice: 'ru'"),
     ([], "error: the following arguments are required: command\n")],
)
def test_cli_names_the_command_argument_in_usage_errors(argv, error, capsys):
    # the lean parser's metavar must not leak into the full parser's errors
    with pytest.raises(SystemExit):
        main(argv)
    assert error in capsys.readouterr().err


def test_cli_parser_gives_flags_to_the_invoked_command_only():
    assert cli.build_parser("decode").parse_args(["decode", "--dir", "d"]).dir == "d"
    assert cli.build_parser("run").parse_args(["run", "--n", "3"]).n == 3
    with pytest.raises(SystemExit):
        cli.build_parser("decode").parse_args(["run", "--n", "3"])
    assert list(cli.build_parser("decode")._subparsers._group_actions[0].choices) == ["decode"]
    for command in (None, "bogus"):
        assert cli.build_parser(command).parse_args(["run", "--n", "3"]).n == 3


def test_cli_config_file_merge(tmp_path, capsys):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(
        "# comment\n"
        "family = two-gaussians\n"
        "n = 32\n"
        "dim = 2\n"
        "sigma = 1\n"
        "center_dist = 1\n"
        "batch_size = 8\n"
        "step_raw = 8192\n"
        "eps = 1/10\n"
        "progress_coeff = 1\n"
        "max_epochs = 2\n"
    )
    values = read_config_file(str(cfg))
    assert values["family"] == "two-gaussians" and values["n"] == "32"
    rc = main(["run", "--config", str(cfg), "--max-epochs", "1"])
    assert rc == 0
    assert "epochs=1" in capsys.readouterr().out


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("learning_rate = 0.1\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["step_raw", "batch_size", "eps"])
def test_cli_rejects_an_empty_config_value(tmp_path, key):
    # an empty value is an error, never a silent default such as a step size
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(f"{key} =\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--eps", "1/0"), ("--margin", "1/0"), ("--sigma", "0/0"),
     ("--progress-coeff", "1/0"), ("--center-dist", "2/0")],
)
def test_cli_rejects_a_zero_denominator_flag(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    assert main(["run", flag, value, "--out", str(out)]) == 2
    key = flag[2:].replace("-", "_")
    assert f"error: {key} = {value} has a zero denominator" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["eps", "progress_coeff", "sigma"])
def test_cli_rejects_a_zero_denominator_config_value(tmp_path, capsys, key):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(f"{key} = 1/0\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "zero denominator" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_the_retired_search_knobs(tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("ball_cap = 5000000\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "unknown key 'ball_cap'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["run", "--g-bound", "5"])


def test_cli_refuses_strict_for_the_hidden_kind(tmp_path, capsys):
    out = str(tmp_path / "exp")
    hidden = ["--model-kind", "one-hidden-layer", "--hidden-width", "1"]
    assert main(["run", "--out", out] + STRICT_FLAGS + hidden) == 2
    assert "no proven smoothness bound" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_decodes_a_manifest_with_the_retired_search_knobs(tmp_path, capsys):
    out = tmp_path / "exp"
    run_experiment(strict_spec(), str(out))
    manifest = json.loads((out / "manifest.json").read_text())
    assert "ball_cap" not in manifest["config"]
    manifest["config"].update({"g_bound": None, "ball_cap": 5000000})
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert load_manifest(str(out / "manifest.json")) == strict_spec()
    capsys.readouterr()
    assert main(["decode", "--dir", str(out)]) == 0
    assert "MISMATCH" not in capsys.readouterr().out


def test_cli_decode_requires_directory(capsys, monkeypatch):
    monkeypatch.delenv("SGDCODEC_OUT", raising=False)
    assert main(["decode"]) == 2
    assert "requires" in capsys.readouterr().err


def test_cli_directory_flags_win_over_the_environment(tmp_path, capsys, monkeypatch):
    env, flag = tmp_path / "env", tmp_path / "flag"
    monkeypatch.setenv("SGDCODEC_OUT", str(env))
    assert main(["run", "--n", "16", "--out", str(flag)]) == 0
    assert f"artifacts written to {flag}" in capsys.readouterr().out
    assert (flag / "manifest.json").exists() and not env.exists()
    # decode would exit 2 at the environment's directory: it holds no manifest
    assert main(["decode", "--dir", str(flag)]) == 0
    assert "MISMATCH" not in capsys.readouterr().out and not env.exists()
    # without the flags, both read the environment
    assert main(["run", "--n", "16"]) == 0
    assert (env / "manifest.json").exists()
    assert main(["decode"]) == 0


@pytest.mark.parametrize("argv", [["encode", "--n", "16"], ["report"]])
def test_cli_encode_and_report_require_a_directory(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SGDCODEC_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert f"{argv[0]} requires" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_cli_decode_fails_a_rewritten_header(tmp_path, capsys):
    out = tmp_path / "exp"
    run_experiment(plateau_spec(max_epochs=1), str(out))
    victim = out / "rep_00" / "epochs" / "epoch_001.epc"
    blob = bytearray(victim.read_bytes())
    blob[12:16] = (7).to_bytes(4, "big")  # the epoch field of the header
    victim.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["decode", "--dir", str(out)]) == 1
    text = capsys.readouterr().out
    assert f"{victim}: header mismatch" in text
    assert "rep 00 epoch 1" not in text
    assert "rep 00 final_model.bin: ok" in text


STRICT_FLAGS = [
    "--family", "two-gaussians", "--n", "32", "--dim", "1", "--data-seed", "3",
    "--sigma", "1/2", "--center-dist", "2", "--batch-size", "4",
    "--step-raw", "8", "--eps", "1/100", "--progress-coeff", "1", "--seed", "3",
    "--max-epochs", "4", "--scale", "6", "--clip", "4", "--mode", "STRICT",
]


def test_cli_decode_checks_final_model(tmp_path, capsys):
    out = str(tmp_path / "exp")
    run_experiment(plateau_spec(max_epochs=2), out)
    victim = os.path.join(out, "rep_00", "final_model.bin")
    blob = bytearray(open(victim, "rb").read())
    blob[8] ^= 0xFF  # lowest byte of the first raw, after the 8 byte header
    with open(victim, "wb") as fh:
        fh.write(bytes(blob))
    capsys.readouterr()
    assert main(["decode", "--dir", out]) == 1
    assert "rep 00 final_model.bin: MISMATCH" in capsys.readouterr().out


def edit_first_row(text, spec):
    header, row, rest = text.split("\n", 2)
    eid, label, feats = row.split("\t")
    return "\n".join((header, "\t".join((eid, str(1 - int(label)), feats)), rest))


def other_data_seed(text, spec):
    gen = spec.config.generator
    return generate_dataset(replace(gen, seed=gen.seed + 1), spec.config.grid).to_text()


@pytest.mark.parametrize("tamper", [edit_first_row, other_data_seed])
def test_cli_decode_checks_the_dataset_file(tmp_path, capsys, tamper):
    spec, out = plateau_spec(max_epochs=1), tmp_path / "exp"
    run_experiment(spec, str(out))
    capsys.readouterr()
    assert main(["decode", "--dir", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "dataset.tsv: ok"
    victim = out / "dataset.tsv"
    text = victim.read_text()
    victim.write_text(tamper(text, spec))
    assert victim.read_text() != text
    assert main(["decode", "--dir", str(out)]) == 1
    # the run itself still decodes: only the file differs
    assert capsys.readouterr().out.splitlines() == [
        "dataset.tsv: MISMATCH", "rep 00 epoch 1: ok", "rep 00 final_model.bin: ok"
    ]


def test_cli_decode_of_a_deleted_dataset_file_exits_2(tmp_path, capsys):
    out = tmp_path / "exp"
    run_experiment(plateau_spec(max_epochs=1), str(out))
    (out / "dataset.tsv").unlink()
    capsys.readouterr()
    assert main(["decode", "--dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "dataset.tsv" in captured.err


@pytest.mark.parametrize(
    "spec", [plateau_spec(max_epochs=2, replications=2), strict_spec()],
    ids=["accounting", "strict"],
)
def test_cli_decode_reruns_training_only(tmp_path, capsys, monkeypatch, spec):
    out = str(tmp_path / "exp")
    run_experiment(spec, out)
    epc_files = sum(
        len(files) for d, _, files in os.walk(out) if d.endswith("epochs")
    )
    real_decode = harness.decode_epoch
    calls = []

    def refuse(*args, **kwargs):
        raise AssertionError("decode must rerun training only")

    def counted(*args, **kwargs):
        calls.append(1)
        return real_decode(*args, **kwargs)

    for name in ("encode_epoch", "predict_segments", "epoch_accounting"):
        monkeypatch.setattr(harness, name, refuse)
    monkeypatch.setattr(harness, "decode_epoch", counted)
    assert main(["decode", "--dir", out]) == 0
    assert len(calls) == epc_files > 0
    assert "MISMATCH" not in capsys.readouterr().out


def test_cli_decode_checks_the_strict_chain(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "exp")
    run_experiment(strict_spec(), out)
    monkeypatch.setattr(
        harness, "decode_epoch", shift_first_checkpoint(harness.decode_epoch)
    )
    capsys.readouterr()
    assert main(["decode", "--dir", out]) == 1
    assert "rep 00 epoch 1: MISMATCH" in capsys.readouterr().out


def test_cli_decode_reports_corrupt_strict_payloads(tmp_path, capsys):
    out = str(tmp_path / "exp")
    assert main(["encode", "--out", out] + STRICT_FLAGS) == 0
    victim = os.path.join(out, "rep_00", "epochs", "epoch_001.epc")
    original = open(victim, "rb").read()
    assert len(original) > 16
    for pos in range(16, len(original)):  # every byte after the 16 byte header
        blob = bytearray(original)
        blob[pos] ^= 0xFF
        with open(victim, "wb") as fh:
            fh.write(bytes(blob))
        assert main(["decode", "--dir", out]) in (1, 2), pos
    with open(victim, "wb") as fh:
        fh.write(original)
    capsys.readouterr()
    assert main(["decode", "--dir", out]) == 0


def random_labels_spec():
    """Random labels at d = 2: both epochs run and are coded BACKWARD."""
    gen = GeneratorSpec(family="random-labels", n=64, dim=2, seed=1)
    cfg = RunConfig(generator=gen, batch_size=16, step_raw=1 << 13, eps=Fraction(1, 4),
                    progress_coeff=Fraction(4), seed=1, max_epochs=2, grid=GRID)
    return ExperimentSpec(config=cfg)


def one_hot_spec():
    gen = GeneratorSpec(family="one-hot", n=32, dim=32, seed=1)
    cfg = RunConfig(generator=gen, batch_size=8, step_raw=58982, eps=Fraction(1, 100),
                    progress_coeff=Fraction(20), seed=1, max_epochs=4, grid=GRID)
    return ExperimentSpec(config=cfg)


@pytest.mark.parametrize(
    "spec", [random_labels_spec(), strict_spec(), one_hot_spec()],
    ids=["random-labels", "strict", "one-hot"],
)
def test_only_sparse_rows_build_their_nonzero_pairs(tmp_path, capsys, monkeypatch, spec):
    real, calls = model._nonzeros, []

    def counted(raws):
        calls.append(len(raws))
        return real(raws)

    monkeypatch.setattr(model, "_nonzeros", counted)
    out = str(tmp_path / "exp")
    run_experiment(spec, out)
    assert main(["decode", "--dir", out]) == 0
    # the one-hot generator stores each element's pairs as it builds it, and
    # dense rows keep the column kernels: neither scans a row for nonzeros
    assert calls == []
    if spec.config.generator.family == "one-hot":
        ds = model.generate_dataset(spec.config.generator, spec.config.grid)
        assert [el._pairs for el in ds.elements] == [real(el.features.raws) for el in ds.elements]


def test_cli_decode_rejects_nonzero_pad_bits(tmp_path, capsys):
    out = str(tmp_path / "exp")
    run_experiment(plateau_spec(max_epochs=1), out)
    victim = os.path.join(out, "rep_00", "epochs", "epoch_001.epc")
    blob = bytearray(open(victim, "rb").read())
    assert blob[-1] != 0  # the trailer: the last payload byte has 8 - rem pad bits
    blob[-2] ^= 1  # the lowest pad bit
    with open(victim, "wb") as fh:
        fh.write(bytes(blob))
    capsys.readouterr()
    assert main(["decode", "--dir", out]) == 2
    assert "nonzero pad bits" in capsys.readouterr().err


class Expired(Exception):
    """Raised by the alarm; no subclass of what ``cli.main`` turns into exit 2."""


def decode_within_a_second(out):
    """``sgdcodec decode --dir out``, failing the test if it runs past 1 s."""

    def expire(signum, frame):
        raise Expired("decode did not return within 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(1)
    try:
        return main(["decode", "--dir", str(out)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_cli_decode_of_a_huge_replication_count_exits_2_at_once(tmp_path, capsys):
    out = tmp_path / "exp"
    run_experiment(plateau_spec(max_epochs=1), str(out))
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["replications"] = 2**31
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert decode_within_a_second(out) == 2
    captured = capsys.readouterr()
    assert "rep 00 epoch 1: ok" in captured.out
    assert f"{out / 'rep_01'}: replication 1 of the manifest is missing" in captured.err


@pytest.mark.parametrize(
    "key,value", [("scale", 10**6), ("scale", 2**62), ("clip", 2**62)],
    ids=["scale-1e6", "scale-2^62", "clip-2^62"],
)
def test_cli_decode_of_a_grid_past_int64_exits_2_at_once(tmp_path, capsys, key, value):
    out = tmp_path / "exp"
    run_experiment(plateau_spec(max_epochs=1), str(out))
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["config"][key] = value
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert decode_within_a_second(out) == 2
    assert "clip * 2**scale must be <= 2**63" in capsys.readouterr().err
