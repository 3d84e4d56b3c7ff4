"""Command line front end.

Subcommands: run (train + encode + account + artifacts), verify (inequality
and tail-bound suites), encode (the same artifacts as run, but --out or
SGDCODEC_OUT is required), decode (decode each epoch code file on disk once
and check it, and final_model.bin, against a rerun of training), report
(print the summaries of an artifact directory, reading its files only).
A flat key=value file can provide any flag's default; explicit flags win.
SGDCODEC_OUT names the artifact directory where --out (run, encode) or --dir
(decode, report) is not given; the flag wins over it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .epoch_codec import (
    ACCOUNTING,
    STRICT,
    SideInfo,
    decode_epoch,
    read_epoch_file,
)
from .harness import (
    ExperimentSpec,
    HoeffdingCheck,
    _cell,
    epoch_code_dir,
    epoch_code_path,
    load_manifest,
    replication_config,
    replication_dir,
    run_experiment,
    run_inequality_suite,
    verify_hoeffding,
)
from .model import FAMILIES, GeneratorSpec, MODEL_KINDS, generate_dataset
from .numerics import DomainError, GridSpec, SaturationError
from .sgd_engine import ReverseError, RunConfig, run_training, vector_from_bytes

OUT_ENV = "SGDCODEC_OUT"

_DEFAULTS = {
    "family": "one-hot",
    "n": "256",
    "dim": "4",
    "data_seed": "1",
    "margin": "1/2",
    "sigma": "1/2",
    "center_dist": "2",
    "feature_scale": "2",
    "batch_size": "16",
    "step_raw": "58982",
    "eps": "1/100",
    "progress_coeff": "20",
    "seed": "1",
    "max_epochs": "4",
    "model_kind": "logistic-linear",
    "hidden_width": "0",
    "scale": "16",
    "clip": "64",
    "replications": "1",
    "mode": ACCOUNTING,
}


def read_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in _DEFAULTS:
                raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value.strip()
    return out


def _merge_values(args: argparse.Namespace) -> dict[str, str]:
    values = dict(_DEFAULTS)
    if getattr(args, "config", None):
        values.update(read_config_file(args.config))
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = str(flag)
    return values


def build_spec(values: dict[str, str]) -> ExperimentSpec:
    def rational(key: str) -> Fraction:
        try:
            return Fraction(values[key])
        except ZeroDivisionError:
            raise DomainError(f"{key} = {values[key]} has a zero denominator") from None

    n = int(values["n"])
    family = values["family"]
    dim = n if family == "one-hot" else int(values["dim"])
    generator = GeneratorSpec(
        family=family,
        n=n,
        dim=dim,
        seed=int(values["data_seed"]),
        margin=rational("margin"),
        sigma=rational("sigma"),
        center_dist=rational("center_dist"),
        feature_scale=int(values["feature_scale"]),
    )
    grid = GridSpec(int(values["scale"]), int(values["clip"]))
    config = RunConfig(
        generator=generator,
        batch_size=int(values["batch_size"]),
        step_raw=int(values["step_raw"]),
        eps=rational("eps"),
        progress_coeff=rational("progress_coeff"),
        seed=int(values["seed"]),
        max_epochs=int(values["max_epochs"]),
        model_kind=values["model_kind"],
        hidden_width=int(values["hidden_width"]),
        grid=grid,
    )
    return ExperimentSpec(
        config=config,
        replications=int(values["replications"]),
        mode=values["mode"],
    )


def _resolve_out(args: argparse.Namespace) -> Optional[str]:
    return getattr(args, "out", None) or os.environ.get(OUT_ENV)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value defaults file")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--data-seed", dest="data_seed", type=int)
    p.add_argument("--margin")
    p.add_argument("--sigma")
    p.add_argument("--center-dist", dest="center_dist")
    p.add_argument("--feature-scale", dest="feature_scale", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--step-raw", dest="step_raw", type=int)
    p.add_argument("--eps")
    p.add_argument("--progress-coeff", dest="progress_coeff")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--model-kind", dest="model_kind", choices=MODEL_KINDS)
    p.add_argument("--hidden-width", dest="hidden_width", type=int)
    p.add_argument("--scale", type=int)
    p.add_argument("--clip", type=int)
    p.add_argument("--replications", type=int)
    p.add_argument("--mode", choices=(ACCOUNTING, STRICT))
    p.add_argument("--out", help="artifact directory")


def _print_run_result(result) -> None:
    for rep in result.replications:
        rpt = rep.report
        t_star = rpt.projected_epoch_bound
        print(
            f"rep {rep.index:02d}: epochs={rpt.epochs} good={rpt.good_epochs}"
            f"/{rpt.epochs} measured={rpt.total_measured_bits}"
            f" charged={rpt.total_charged_bits} baseline={rpt.total_baseline_bits}"
            f" savings={rpt.total_savings_bits}"
            f" t*={'-' if t_star is None else t_star}"
            f" terminated={rep.run.terminated}"
            f" acc={_cell(rep.run.final_accuracy)}"
        )


def cmd_run(args: argparse.Namespace) -> int:
    spec = build_spec(_merge_values(args))
    outdir = _resolve_out(args)
    result = run_experiment(spec, outdir)
    _print_run_result(result)
    if outdir:
        print(f"artifacts written to {outdir}")
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    spec = build_spec(_merge_values(args))
    outdir = _resolve_out(args)
    if not outdir:
        print("encode requires --out or SGDCODEC_OUT", file=sys.stderr)
        return 2
    result = run_experiment(spec, outdir)
    total = sum(len(rep.codes) for rep in result.replications)
    print(f"{total} epoch code file(s) under {outdir}")
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    """Decodes each epoch code file once and checks it against a training rerun.

    Only training is rerun (no encode, prediction or accounting).  Every
    ``.epc`` must decode to the rerun's visit order, and the checkpoint chain
    the decoder walked (in STRICT mode, recovered from the rerun's last
    checkpoint alone) must equal the rerun's.  Each replication's
    ``final_model.bin`` must hold the rerun's final weights.
    An ``.epc`` file that names no completed epoch of the rerun, or a
    ``rep_NN`` directory that names no replication of the manifest, is a
    failure too.  Returns 1 on any mismatch; a missing replication
    directory, unreadable or undecodable files raise, and ``main`` reports
    them with exit code 2.  The dataset is generated once, when the first
    replication directory is found, so a manifest whose ``rep_00`` is
    missing stops before any data is regenerated.
    """
    outdir = args.dir or _resolve_out(args)
    if not outdir:
        print("decode requires --dir or SGDCODEC_OUT", file=sys.stderr)
        return 2
    spec = load_manifest(os.path.join(outdir, "manifest.json"))
    dataset = None
    failures = 0
    for name in sorted(os.listdir(outdir)):
        path = os.path.join(outdir, name)
        if not (name.startswith("rep_") and name[4:].isdecimal()):
            continue
        # matched by index: the manifest's count may be far too large to list
        index = int(name[4:])
        if index >= spec.replications or path != replication_dir(outdir, index):
            print(f"{path}: no such replication in the manifest")
            failures += 1
    for r in range(spec.replications):
        rep_dir = replication_dir(outdir, r)
        if not os.path.isdir(rep_dir):
            raise DomainError(f"{rep_dir}: replication {r} of the manifest is missing")
        if dataset is None:
            dataset = generate_dataset(spec.config.generator, spec.config.grid)
        config = replication_config(spec.config, r)
        run = run_training(config, dataset)
        epoch_dir = epoch_code_dir(rep_dir)
        rerun_files = {epoch_code_path(rep_dir, t.epoch) for t in run.completed_traces}
        for name in sorted(os.listdir(epoch_dir)):
            path = os.path.join(epoch_dir, name)
            if name.endswith(".epc") and path not in rerun_files:
                print(f"{path}: no such epoch in the rerun")
                failures += 1
        for trace in run.completed_traces:
            path = epoch_code_path(rep_dir, trace.epoch)
            n, b, epoch, stream = read_epoch_file(path)
            if (n, b, epoch) != (trace.n, trace.batch_size, trace.epoch):
                print(f"{path}: header mismatch")
                failures += 1
                continue
            decoded = decode_epoch(
                stream, dataset, config, SideInfo.of(spec.mode, trace.checkpoints)
            )
            ok = decoded.order == trace.order and decoded.chain_matches(
                trace.checkpoints
            )
            failures += 0 if ok else 1
            print(f"rep {r:02d} epoch {epoch}: {'ok' if ok else 'MISMATCH'}")
        with open(os.path.join(rep_dir, "final_model.bin"), "rb") as fh:
            final = vector_from_bytes(fh.read(), config.grid)
        ok = final.raws == run.final_model.weights.raws
        failures += 0 if ok else 1
        print(f"rep {r:02d} final_model.bin: {'ok' if ok else 'MISMATCH'}")
    return 0 if failures == 0 else 1


def cmd_report(args: argparse.Namespace) -> int:
    outdir = args.dir or _resolve_out(args)
    if not outdir:
        print("report requires --dir or SGDCODEC_OUT", file=sys.stderr)
        return 2
    manifest_path = os.path.join(outdir, "manifest.json")
    spec = load_manifest(manifest_path)
    print(f"manifest: {manifest_path} mode={spec.mode} replications={spec.replications}")
    for r in range(spec.replications):
        path = os.path.join(replication_dir(outdir, r), "summary.json")
        with open(path, "r", encoding="ascii") as fh:
            summary = json.load(fh)
        try:
            line = (
                f"rep {r:02d}: epochs={summary['epochs']}"
                f" good={summary['good_epochs']}/{summary['epochs']}"
                f" charged={summary['total_charged_bits']}"
                f" baseline={summary['total_baseline_bits']}"
                f" savings={summary['total_savings_bits']}"
                f" t*={summary['projected_epoch_bound']}"
                f" conservation={'ok' if summary['conservation_ok'] else 'VIOLATED'}"
            )
        except (KeyError, TypeError) as exc:
            raise DomainError(f"{path}: malformed summary: {exc!r}") from exc
        print(line)
    return 0


VERIFY_SUITES = ("inequalities", "hoeffding")


def cmd_verify(args: argparse.Namespace) -> int:
    suites = args.suites.split(",") if args.suites is not None else list(VERIFY_SUITES)
    unknown = [s for s in suites if s not in VERIFY_SUITES]
    if unknown:
        raise DomainError(
            f"unknown suite(s) {','.join(map(repr, unknown))}; "
            f"choose from {','.join(VERIFY_SUITES)}"
        )
    all_ok = True
    if "inequalities" in suites:
        for row in run_inequality_suite():
            print(row.line())
            all_ok = all_ok and row.passed
    if "hoeffding" in suites:
        checks = [
            HoeffdingCheck(
                population_size=1024,
                population_ones=512,
                sample_size=k,
                delta=delta,
                trials=args.trials,
                seed=11,
            )
            for k in (64, 256)
            for delta in (Fraction(1, 10), Fraction(1, 5))
        ]
        for res in verify_hoeffding(checks):
            check = res.check
            ok = res.ok_empirical and res.ok_exact
            all_ok = all_ok and ok
            print(
                f"{'pass' if ok else 'FAIL'}  hypergeometric-tail: k={check.sample_size}"
                f" delta={check.delta} trials={check.trials}"
                f" freq={float(res.empirical_freq):.3e}"
                f" exact={float(res.exact_prob):.3e}"
                f" bound={res.bound:.3e} sigma={res.sigma:.3e}"
            )
    return 0 if all_ok else 1


def _add_dir_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dir", help="artifact directory")


def _add_verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suites", help=f"comma list: {','.join(VERIFY_SUITES)}")
    p.add_argument("--trials", type=int, default=100_000)


# name, help, the flags it takes, the function it runs
_COMMANDS = (
    ("run", "train, encode, account, write artifacts", _add_config_flags, cmd_run),
    ("encode", "write manifest and epoch code files", _add_config_flags, cmd_encode),
    ("decode", "decode epoch code files and verify", _add_dir_flag, cmd_decode),
    ("report", "print run summaries", _add_dir_flag, cmd_report),
    ("verify", "run statistical and inequality suites", _add_verify_flags, cmd_verify),
)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The sgdcodec parser with ``command``'s subparser alone registered, or
    all five for no command or one that names none of them.  A subcommand
    shows only in its own help and usage messages, and the usage line lists
    all five names either way, so the lean parser prints what the full one does.
    """
    parser = argparse.ArgumentParser(
        prog="sgdcodec",
        description="Deterministic SGD with exact permutation compression.",
    )
    names = [name for name, *_ in _COMMANDS]
    known = command in names
    # only when lean: a metavar renames "argument command:" in error text
    metavar = "{" + ",".join(names) + "}" if known else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, add_flags, func in _COMMANDS:
        if not known or name == command:
            p = sub.add_parser(name, help=help_text)
            add_flags(p)
            p.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, OSError, ValueError, ReverseError, SaturationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
