"""Command line front end: it parses arguments and prints lines.

``harness`` does the work and owns the artifact directory; this module names
none of its files.  Subcommands: run (train + encode + account + artifacts),
verify (the inequality suite and ``harness.HOEFFDING_CHECKS``), encode (the
same artifacts as run, but --out or SGDCODEC_OUT is required), decode (the
lines of ``harness.check_run``: the directory checked against a rerun of
training), report (the lines of ``harness.report_lines``: the directory's
summaries, read from its files only).
A flat key=value file can provide any flag's default; explicit flags win.
The 20 setting flags, their config-file keys and defaults come from
``harness.SETTINGS``; for one-hot data dim is n, whatever --dim or dim = say.
SGDCODEC_OUT names the artifact directory where --out (run, encode) or --dir
(decode, report) is not given; the flag wins over it.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .harness import (
    HOEFFDING_CHECKS,
    SETTINGS,
    ExperimentSpec,
    Setting,
    _cell,
    check_run,
    report_lines,
    run_experiment,
    run_inequality_suite,
    verify_hoeffding,
)
from .numerics import DomainError, SaturationError
from .sgd_engine import ReverseError

OUT_ENV = "SGDCODEC_OUT"

_DEFAULTS = {s.key: str(s.default) for s in SETTINGS}


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


def _parse(setting: Setting, text: str) -> object:
    if setting.kind is int:
        return int(text)
    if setting.kind is Fraction:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise DomainError(f"{setting.key} = {text} has a zero denominator") from None
    return text  # a choice, which its dataclass checks


def build_spec(values: dict[str, str]) -> ExperimentSpec:
    """The spec of one config-file string per setting key."""
    if values["family"] == "one-hot":  # its dim is n, whatever dim says
        values = {**values, "dim": values["n"]}
    return ExperimentSpec.from_settings({s.key: _parse(s, values[s.key]) for s in SETTINGS})


def _resolve_out(args: argparse.Namespace) -> Optional[str]:
    return getattr(args, "out", None) or os.environ.get(OUT_ENV)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value defaults file")
    for s in SETTINGS:  # a rational flag is parsed with the config values
        choices = s.kind if isinstance(s.kind, tuple) else None
        flag, kind = "--" + s.key.replace("_", "-"), int if s.kind is int else None
        p.add_argument(flag, dest=s.key, type=kind, choices=choices)
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
    """Prints the lines of ``harness.check_run``; 1 if any check failed."""
    outdir = args.dir or _resolve_out(args)
    if not outdir:
        print("decode requires --dir or SGDCODEC_OUT", file=sys.stderr)
        return 2
    all_ok = True
    for line, passed in check_run(outdir):
        print(line)
        all_ok = all_ok and passed
    return 0 if all_ok else 1


def cmd_report(args: argparse.Namespace) -> int:
    """Prints the lines of ``harness.report_lines``."""
    outdir = args.dir or _resolve_out(args)
    if not outdir:
        print("report requires --dir or SGDCODEC_OUT", file=sys.stderr)
        return 2
    for line in report_lines(outdir):
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
    rows: list = run_inequality_suite() if "inequalities" in suites else []
    if "hoeffding" in suites:
        rows += verify_hoeffding(HOEFFDING_CHECKS)
    for row in rows:
        print(row.line())
    return 0 if all(row.passed for row in rows) else 1


def _add_dir_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dir", help="artifact directory")


def _add_verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suites", help=f"comma list: {','.join(VERIFY_SUITES)}")


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
