"""Experiment orchestration, statistical checks, and artifact emission.

A run is fully pinned by its manifest (config plus replication count and
mode): datasets, shuffles, streams, and reports are all deterministic
functions of it, and re-running a manifest reproduces every artifact byte for
byte.  ``SETTINGS`` is the one table of the 20 run settings: the manifest is
written, read and built into an ``ExperimentSpec`` from it, and the CLI's
flags and config-file keys come from it.  This module owns the artifact
directory: it writes the layout, the manifest, and the text artifacts
``trace.csv``, ``report.csv`` and ``summary.json``, whose cells print as
``_cell`` prints them, and it reads them back: ``check_run`` checks a
directory against a rerun of training, with the round trip ``run_experiment``
checks in memory (``_round_trip``: the decoded order, and in STRICT the chain
reverse search recovered), and ``report_lines`` reads its summaries.  The CLI only
prints their lines.  On the pipeline's side ``Fraction``
appears only where a manifest is parsed and where a cell is rendered: a
``trace.csv`` rate comes from its two counts in the trace's count table,
put in lowest terms by ``_ratio_cell``, so no ``Fraction`` is built per
checkpoint.
Alongside the compression pipeline it hosts the two statistical verifiers: a
Monte Carlo check of the without-replacement tail bound against the exact
hypergeometric law (``HOEFFDING_CHECKS`` are the ones ``sgdcodec verify``
runs), and grid sweeps of the inequalities the bit accounting relies on,
three of them exact over one table of fixed-point log2 k (``_exact_row``).
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import struct
from fractions import Fraction
from functools import reduce
from operator import getitem
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .codec import (
    BitStream,
    binomial,
    ceil_log2,
    encode_set_conditional,
    subset_unrank,
)
from .epoch_codec import (
    ACCOUNTING,
    STRICT,
    AccountRow,
    CeilingVerdict,
    EpochCode,
    SideInfo,
    check_eps_beta_ceiling,
    check_strict_limits,
    decode_epoch,
    encode_epoch,
    epoch_accounting,
    model_description_bits,
    predict_segments,
    read_epoch_file,
    write_epoch_file,
)
from .model import (
    FAMILIES,
    MODEL_KINDS,
    Dataset,
    GeneratorSpec,
    _TOP_BIT_DIGITS,
    generate_dataset,
)
from .numerics import (
    DomainError,
    GridSpec,
    Record,
    _realizable_q,
    _split_units,
)
from .sgd_engine import (
    MASK64,
    EpochTrace,
    RunConfig,
    TrainingRun,
    run_training,
    train_epochs,
    vector_from_bytes,
    vector_to_bytes,
)
from .stable import (LOG2_E, _WORK, _log2_e, _log2_table, _ziv_units, stable_entropy, stable_exp,
                     stable_log2)

MANIFEST_FORMAT = "sgdcodec-run-v1"


class Setting(NamedTuple):
    """One run setting.  ``key`` names it in a config file and, dashed, as a
    flag; it is field ``name`` of its ``level``'s record and of that level's
    manifest object.  ``kind`` is ``int``, ``Fraction`` or a tuple of choices;
    a manifest that omits an ``optional`` setting reads the CLI's ``default``."""

    key: str
    level: str
    name: str
    kind: object
    default: object
    optional: bool = False


# Every run setting, in the order the flags are registered.
SETTINGS = (
    Setting("family", "generator", "family", FAMILIES, "one-hot"),
    Setting("n", "generator", "n", int, 256),
    Setting("dim", "generator", "dim", int, 4),
    Setting("data_seed", "generator", "seed", int, 1),
    Setting("margin", "generator", "margin", Fraction, Fraction(1, 2), True),
    Setting("sigma", "generator", "sigma", Fraction, Fraction(1, 2), True),
    Setting("center_dist", "generator", "center_dist", Fraction, Fraction(2), True),
    Setting("feature_scale", "generator", "feature_scale", int, 2, True),
    Setting("batch_size", "config", "batch_size", int, 16),
    Setting("step_raw", "config", "step_raw", int, 58982),
    Setting("eps", "config", "eps", Fraction, Fraction(1, 100)),
    Setting("progress_coeff", "config", "progress_coeff", Fraction, Fraction(20)),
    Setting("seed", "config", "seed", int, 1),
    Setting("max_epochs", "config", "max_epochs", int, 4),
    Setting("model_kind", "config", "model_kind", MODEL_KINDS, "logistic-linear", True),
    Setting("hidden_width", "config", "hidden_width", int, 0, True),
    Setting("scale", "grid", "scale", int, 16),
    Setting("clip", "grid", "clip", int, 64),
    Setting("replications", "spec", "replications", int, 1),
    Setting("mode", "spec", "mode", (ACCOUNTING, STRICT), ACCOUNTING),
)

# Each level's object in the manifest, as its path of keys from the top;
# the grid's fields sit in the config's object.
_MANIFEST_PATHS = {"spec": (), "config": ("config",), "grid": ("config",),
                   "generator": ("config", "generator")}


def _manifest_value(manifest: dict, setting: Setting) -> object:
    """The setting's value in a manifest, or its default where an optional
    setting is absent.  An int takes a JSON integer only, never a bool, float
    or string, and a rational only the ``num/den`` string ``to_dict`` writes;
    a choice is left to its record's constructor to check."""
    obj = reduce(getitem, _MANIFEST_PATHS[setting.level], manifest)
    if setting.optional and setting.name not in obj:
        return setting.default
    name, value = setting.name, obj[setting.name]
    if setting.kind is int and type(value) is not int:
        raise DomainError(f"manifest key {name!r} is not a JSON integer: {value!r}")
    if setting.kind is not Fraction:
        return value
    if type(value) is not str or not re.fullmatch(r"-?[0-9]+(/[1-9][0-9]*)?", value):
        raise DomainError(f"manifest key {name!r} is not a rational string: {value!r}")
    return Fraction(value)


class ExperimentSpec(Record):
    """One reproducible experiment: a config, how often, and in which mode."""

    __slots__ = _fields = ("config", "replications", "mode")

    def __init__(self, config: RunConfig, replications: int = 1, mode: str = ACCOUNTING) -> None:
        self._init(config, replications, mode)
        if self.replications < 1:
            raise DomainError("replications must be >= 1")
        if self.config.seed + self.replications - 1 > MASK64:
            raise DomainError("run seeds seed + replications - 1 must lie below 2**64")
        if self.mode not in (ACCOUNTING, STRICT):
            raise DomainError(f"unknown mode {self.mode!r}")
        if self.mode == STRICT:
            check_strict_limits(self.config, DomainError)

    @classmethod
    def from_settings(cls, values: dict) -> "ExperimentSpec":
        """The spec of one parsed value per setting key.  Each level's
        record checks its fields in turn: generator, grid, config, spec."""
        held: dict[str, dict] = {level: {} for level in _MANIFEST_PATHS}
        for s in SETTINGS:
            held[s.level][s.name] = values[s.key]
        generator, grid = GeneratorSpec(**held["generator"]), GridSpec(**held["grid"])
        return cls(RunConfig(generator=generator, grid=grid, **held["config"]), **held["spec"])

    def to_dict(self) -> dict:
        """The manifest: every setting in its level's object, a rational as
        its ``num/den`` string."""
        c = self.config
        held = {"generator": c.generator, "grid": c.grid, "config": c, "spec": self}
        d: dict = {"format": MANIFEST_FORMAT, "config": {"generator": {}}}
        for s in SETTINGS:
            obj = reduce(getitem, _MANIFEST_PATHS[s.level], d)
            value = getattr(held[s.level], s.name)
            obj[s.name] = str(value) if s.kind is Fraction else value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        """The spec a manifest holds; a missing key or a value of the wrong
        type is a ``DomainError``."""
        if not isinstance(d, dict):
            raise DomainError("manifest is not a JSON object")
        if d.get("format") != MANIFEST_FORMAT:
            raise DomainError(f"unsupported manifest format {d.get('format')!r}")
        try:
            return cls.from_settings({s.key: _manifest_value(d, s) for s in SETTINGS})
        except (KeyError, AttributeError, TypeError) as exc:
            raise DomainError(f"malformed manifest: {exc!r}") from exc


def dataset_description_bits(dataset: Dataset) -> int:
    """Flat description cost of X: label plus coord grid cells, plus header."""
    return dataset.n * (1 + dataset.dim * dataset.grid.coord_bits) + 64


class CompressionReport(NamedTuple):
    """Per-epoch accounting rows plus the run-level totals built from them."""

    rows: list[AccountRow]
    ceilings: list[CeilingVerdict]
    dataset_bits: int
    model_bits: int

    @property
    def epochs(self) -> int:
        return len(self.rows)

    @property
    def good_epochs(self) -> int:
        return sum(1 for r in self.rows if r.good)

    @property
    def good_fraction(self) -> Fraction:
        return Fraction(self.good_epochs, self.epochs) if self.rows else Fraction(0)

    @property
    def total_measured_bits(self) -> int:
        return sum(r.measured_bits for r in self.rows)

    @property
    def total_charged_bits(self) -> int:
        return sum(r.charged_bits for r in self.rows)

    @property
    def total_baseline_bits(self) -> int:
        return sum(r.baseline_bits for r in self.rows)

    @property
    def total_savings_bits(self) -> int:
        return self.total_baseline_bits - self.total_charged_bits

    @property
    def side_charge_bits(self) -> int:
        """Total description charge: the dataset plus one final model."""
        return self.dataset_bits + self.model_bits

    @property
    def mean_savings_bits(self) -> Optional[Fraction]:
        if not self.rows:
            return None
        return Fraction(self.total_savings_bits, self.epochs)

    @property
    def projected_epoch_bound(self) -> Optional[int]:
        """t* = ceil(charge / mean per-epoch savings); None without savings."""
        mean = self.mean_savings_bits
        if mean is None or mean <= 0:
            return None
        return math.ceil(Fraction(self.side_charge_bits) / mean)

    def check_conservation(self) -> bool:
        good = sum(r.payload_bits + r.model_charge_bits for r in self.rows if r.good)
        bad = sum(r.baseline_bits for r in self.rows if not r.good)
        return self.total_charged_bits == good + bad

    def summary_dict(self) -> dict:
        mean = self.mean_savings_bits
        return {
            "epochs": self.epochs,
            "good_epochs": self.good_epochs,
            "good_fraction": _cell(self.good_fraction),
            "total_measured_bits": self.total_measured_bits,
            "total_charged_bits": self.total_charged_bits,
            "total_baseline_bits": self.total_baseline_bits,
            "total_savings_bits": self.total_savings_bits,
            "dataset_bits": self.dataset_bits,
            "model_bits": self.model_bits,
            "side_charge_bits": self.side_charge_bits,
            "mean_savings_bits": None if mean is None else _cell(mean),
            "projected_epoch_bound": self.projected_epoch_bound,
            "conservation_ok": self.check_conservation(),
            "ceilings": [
                dict(c._asdict(), beta_hat=None if c.beta_hat is None else _cell(c.beta_hat))
                for c in self.ceilings
            ],
        }


def _cell(v) -> str:
    """A text-artifact cell: None empty, bools lower case, Fractions num/den."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _ratio_cell(counts: Optional[tuple[int, int]]) -> str:
    """``_cell`` of the Fraction hits/size, from the counts: lowest terms by gcd,
    so 0/1 and 1/1 as a Fraction prints them; None is empty."""
    if counts is None:
        return ""
    hits, size = counts
    g = math.gcd(hits, size)
    return f"{hits // g}/{size // g}"


def _write_lines(path: str, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trace_csv(traces: Sequence[EpochTrace], path: str) -> None:
    """One row per checkpoint: its ``EpochTrace.rates``, read off the trace's
    count table, then whether the epoch stopped early."""
    lines = ["epoch,j,lambda,lambda_prime,lambda_doubleprime,phi,batch_acc_before,terminated"]
    for t in traces:
        epoch, stopped = str(t.epoch), _cell(t.terminated or t.saturated)
        lines.extend(
            ",".join((epoch, str(i + 1), *map(_ratio_cell, t.rates(i)), stopped))
            for i in range(t.steps_done + 1)
        )
    _write_lines(path, lines)


def write_report_csv(rows: Sequence[AccountRow], path: str) -> None:
    """One row per accounted epoch; the columns are ``AccountRow``'s fields."""
    cells = (",".join(map(_cell, row)) for row in rows)
    _write_lines(path, [",".join(AccountRow._fields), *cells])


class ReplicationResult(NamedTuple):
    index: int
    run: TrainingRun
    codes: list[EpochCode]
    report: CompressionReport


class ExperimentResult(NamedTuple):
    spec: ExperimentSpec
    dataset: Dataset
    replications: list[ReplicationResult]


def _json_bytes(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _replication_config(config: RunConfig, index: int) -> RunConfig:
    """Replication ``index`` trains ``config`` with its seed shifted by index."""
    return config._replace(seed=config.seed + index)


def _replication_dir(outdir: str, index: int) -> str:
    """Replication ``index`` keeps its artifacts in ``rep_NN`` under outdir."""
    return os.path.join(outdir, f"rep_{index:02d}")


def _epoch_code_path(rep_dir: str, epoch: Optional[int] = None) -> str:
    """Where a replication keeps one epoch's code, ``epochs/epoch_NNN.epc``;
    the ``epochs`` directory itself for no epoch."""
    epochs = os.path.join(rep_dir, "epochs")
    return epochs if epoch is None else os.path.join(epochs, f"epoch_{epoch:03d}.epc")


def _round_trip(stream: BitStream, trace: EpochTrace, dataset: Dataset,
                config: RunConfig, mode: str) -> Optional[str]:
    """What failed in decoding an epoch's stream from the side info
    ``SideInfo.of`` gives (its masks in ACCOUNTING, its last checkpoint
    alone in STRICT), or None where the order equals the trained one and,
    in STRICT, so does the chain reverse search walked."""
    decoded = decode_epoch(stream, dataset, config, SideInfo.of(mode, trace))
    if decoded.order != trace.order:
        return f"epoch {trace.epoch} failed its round trip"
    if mode == STRICT and not decoded.chain_matches(trace.checkpoints):
        return f"epoch {trace.epoch} decode walked a wrong checkpoint chain"
    return None


def run_experiment(spec: ExperimentSpec, outdir: Optional[str] = None) -> ExperimentResult:
    """Runs, encodes, decodes, accounts, and (optionally) writes artifacts.

    Training is consumed epoch by epoch from ``train_epochs``: each completed
    epoch is encoded, round-tripped, predicted and accounted before the next
    one trains, so a failing round trip raises there and no later epoch
    trains.  ``_round_trip`` decodes it as ``check_run`` decodes its file:
    the order, and in STRICT the walked chain, must equal the trained ones.
    Completed epochs are contiguous (epoch e starts where epoch e-1 ends), so
    by induction from the last checkpoint the STRICT checks are exactly the
    backward walk from the final weights across all completed epochs.  A
    replication's artifacts are written once all its epochs have passed.
    """
    dataset = generate_dataset(spec.config.generator, spec.config.grid)
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "manifest.json"), "w", encoding="ascii") as fh:
            fh.write(_json_bytes(spec.to_dict()))
        with open(os.path.join(outdir, "dataset.tsv"), "w", encoding="ascii") as fh:
            fh.write(dataset.to_text())
    reps: list[ReplicationResult] = []
    for r in range(spec.replications):
        config = _replication_config(spec.config, r)
        traces: list[EpochTrace] = []
        rows: list[AccountRow] = []
        epoch_codes: list[EpochCode] = []
        ceilings: list[CeilingVerdict] = []
        for trace, final_model in train_epochs(config, dataset):
            traces.append(trace)
            if not trace.completed:
                continue
            code = encode_epoch(trace, dataset, config, spec.mode)
            failed = _round_trip(code.stream, trace, dataset, config, spec.mode)
            if failed is not None:
                raise DomainError(failed)
            predicted = predict_segments(trace, config, code.selector, spec.mode)
            if predicted != code.segments:
                raise DomainError(
                    f"epoch {trace.epoch} declared widths disagree with the "
                    f"statistics-derived prediction"
                )
            epoch_codes.append(code)
            rows.append(epoch_accounting(code, trace, config))
            ceilings.append(check_eps_beta_ceiling(trace, config.eps))
        run = TrainingRun(config, dataset, traces, final_model)
        report = CompressionReport(
            rows,
            ceilings,
            dataset_description_bits(dataset),
            model_description_bits(config),
        )
        if not report.check_conservation():
            raise DomainError("charged-bits conservation identity violated")
        reps.append(ReplicationResult(r, run, epoch_codes, report))
        if outdir is not None:
            _write_replication(outdir, r, run, epoch_codes, report)
    return ExperimentResult(spec, dataset, reps)


def _write_replication(
    outdir: str,
    index: int,
    run: TrainingRun,
    codes: Sequence[EpochCode],
    report: CompressionReport,
) -> None:
    rep_dir = _replication_dir(outdir, index)
    os.makedirs(_epoch_code_path(rep_dir), exist_ok=True)
    write_trace_csv(run.traces, os.path.join(rep_dir, "trace.csv"))
    for code in codes:
        write_epoch_file(_epoch_code_path(rep_dir, code.epoch), code)
    with open(os.path.join(rep_dir, "final_model.bin"), "wb") as fh:
        fh.write(vector_to_bytes(run.final_model.weights))
    write_report_csv(report.rows, os.path.join(rep_dir, "report.csv"))
    summary = report.summary_dict()
    summary["terminated"] = run.terminated
    summary["final_accuracy"] = _cell(run.final_accuracy)
    with open(os.path.join(rep_dir, "summary.json"), "w", encoding="ascii") as fh:
        fh.write(_json_bytes(summary))


def load_manifest(path: str) -> ExperimentSpec:
    with open(path, "r", encoding="ascii") as fh:
        return ExperimentSpec.from_dict(json.load(fh))


def _verdict(label: str, ok: bool) -> tuple[str, bool]:
    return f"{label}: {'ok' if ok else 'MISMATCH'}", ok


def check_run(outdir: str) -> Iterator[tuple[str, bool]]:
    """One ``(line, passed)`` pair per check of a run directory against a
    rerun of training alone: ``dataset.tsv`` byte for byte, each ``.epc`` by
    ``_round_trip``, each ``final_model.bin``, and no stray ``rep_NN`` or
    ``.epc``.  A missing replication directory or a file that cannot be read
    or decoded raises.  The dataset is generated at the first replication
    directory found, so a run without ``rep_00`` stops before any data is."""
    spec = load_manifest(os.path.join(outdir, "manifest.json"))
    for name in sorted(os.listdir(outdir)):
        path = os.path.join(outdir, name)
        if not (name.startswith("rep_") and name[4:].isdecimal()):
            continue
        # matched by index: the manifest's count may be far too large to list
        index = int(name[4:])
        if index >= spec.replications or path != _replication_dir(outdir, index):
            yield f"{path}: no such replication in the manifest", False
    dataset = None
    for r in range(spec.replications):
        rep_dir = _replication_dir(outdir, r)
        if not os.path.isdir(rep_dir):
            raise DomainError(f"{rep_dir}: replication {r} of the manifest is missing")
        if dataset is None:
            dataset = generate_dataset(spec.config.generator, spec.config.grid)
            with open(os.path.join(outdir, "dataset.tsv"), "rb") as fh:
                yield _verdict("dataset.tsv", fh.read() == dataset.to_text().encode())
        config = _replication_config(spec.config, r)
        run = run_training(config, dataset)
        epoch_dir = _epoch_code_path(rep_dir)
        rerun_files = {_epoch_code_path(rep_dir, t.epoch) for t in run.completed_traces}
        for name in sorted(os.listdir(epoch_dir)):
            path = os.path.join(epoch_dir, name)
            if name.endswith(".epc") and path not in rerun_files:
                yield f"{path}: no such epoch in the rerun", False
        for trace in run.completed_traces:
            path = _epoch_code_path(rep_dir, trace.epoch)
            n, b, epoch, stream = read_epoch_file(path)
            if (n, b, epoch) != (trace.n, trace.batch_size, trace.epoch):
                yield f"{path}: header mismatch", False
                continue
            failed = _round_trip(stream, trace, dataset, config, spec.mode)
            yield _verdict(f"rep {r:02d} epoch {epoch}", failed is None)
        with open(os.path.join(rep_dir, "final_model.bin"), "rb") as fh:
            final = vector_from_bytes(fh.read(), config.grid).raws
        yield _verdict(f"rep {r:02d} final_model.bin", final == run.final_model.weights.raws)


def report_lines(outdir: str) -> Iterator[str]:
    """The manifest's line, then each replication's totals and conservation
    check as its ``summary.json`` records them; a malformed summary raises."""
    manifest_path = os.path.join(outdir, "manifest.json")
    spec = load_manifest(manifest_path)
    yield f"manifest: {manifest_path} mode={spec.mode} replications={spec.replications}"
    for r in range(spec.replications):
        path = os.path.join(_replication_dir(outdir, r), "summary.json")
        with open(path, "r", encoding="ascii") as fh:
            summary = json.load(fh)
        try:
            t_star = summary["projected_epoch_bound"]
            line = (
                f"rep {r:02d}: epochs={summary['epochs']}"
                f" good={summary['good_epochs']}/{summary['epochs']}"
                f" charged={summary['total_charged_bits']}"
                f" baseline={summary['total_baseline_bits']}"
                f" savings={summary['total_savings_bits']}"
                f" t*={'-' if t_star is None else t_star}"
                f" conservation={'ok' if summary['conservation_ok'] else 'VIOLATED'}"
            )
        except (KeyError, TypeError) as exc:
            raise DomainError(f"{path}: malformed summary: {exc!r}") from exc
        yield line


class HoeffdingCheck(Record):
    """Tail check spec: k draws without replacement from a binary population.

    ``delta`` is an exact rational (an int or a Fraction) and every other
    field an int, so a check always names one reproducible verdict.
    """

    __slots__ = _fields = (
        "population_size", "population_ones", "sample_size", "delta", "trials", "seed")

    def __init__(self, population_size: int, population_ones: int, sample_size: int,
                 delta: Fraction, trials: int, seed: int = 0) -> None:
        self._init(population_size, population_ones, sample_size, delta, trials, seed)
        if not (type(self.delta) is int or isinstance(self.delta, Fraction)):
            raise DomainError(f"delta must be an int or a Fraction, got {self.delta!r}")
        for name in ("population_size", "population_ones", "sample_size", "trials",
                     "seed"):
            if type(getattr(self, name)) is not int:
                raise DomainError(f"{name} must be an int, got {getattr(self, name)!r}")
        if not (0 < self.sample_size <= self.population_size):
            raise DomainError("sample size outside population")
        if not (0 <= self.population_ones <= self.population_size):
            raise DomainError("population ones out of range")
        if self.trials < 10**4:
            raise DomainError("at least 10^4 trials required for a verdict")
        mu = Fraction(self.population_ones, self.population_size)
        if self.delta < 0 or self.delta > mu:
            raise DomainError("delta must lie in [0, mu]")

    @property
    def mu(self) -> Fraction:
        return Fraction(self.population_ones, self.population_size)


class HoeffdingResult(NamedTuple):
    check: HoeffdingCheck
    threshold_count: int
    empirical_freq: Fraction
    exact_prob: Fraction
    bound: float
    sigma: float
    ok_empirical: bool
    ok_exact: bool

    @property
    def passed(self) -> bool:
        return self.ok_empirical and self.ok_exact

    def line(self) -> str:
        c = self.check
        return (f"{'pass' if self.passed else 'FAIL'}  hypergeometric-tail: k={c.sample_size}"
                f" delta={c.delta} trials={c.trials} freq={float(self.empirical_freq):.3e}"
                f" exact={float(self.exact_prob):.3e} bound={self.bound:.3e}"
                f" sigma={self.sigma:.3e}")


# The tail checks ``sgdcodec verify`` runs: 10^5 trials per setting, one seed.
HOEFFDING_CHECKS = tuple(
    HoeffdingCheck(population_size=1024, population_ones=512, sample_size=k,
                   delta=delta, trials=100_000, seed=11)
    for k in (64, 256)
    for delta in (Fraction(1, 10), Fraction(1, 5))
)


def verify_hoeffding(checks: Sequence[HoeffdingCheck]) -> list[HoeffdingResult]:
    """Monte Carlo plus exact verification of the without-replacement tail.

    Returns one result per check, in input order.  The exact tail is one
    Fraction of integer sums, the hypergeometric probability of at most
    ``threshold`` ones in the sample (``_exact_tail``).  Each trial counts a
    hit when u = rng.random() falls below float(exact), one comparison per
    trial.  This is inversion of the exact hypergeometric CDF: the sampled
    count, the number of float CDF entries <= u, is at most the threshold
    exactly when the CDF entry at the threshold, which is float(exact),
    exceeds u, because the CDF is non-decreasing.  So the simulation and the
    closed-form probability describe the same distribution.  Checks that
    share a seed and a trial count share one generator: its word stream is
    read once, in bulk, and every check's cut is tested against the same
    uniforms (``_draws_below``).  Each hit count is the one a fresh
    ``random.Random(seed)`` gives with one ``random()`` call per trial.  The
    verdict allows three binomial standard deviations of Monte Carlo noise
    on top of the e^(-2k delta^2) bound.
    """
    tails = [_exact_tail(check) for check in checks]
    groups: dict[tuple[int, int], list[int]] = {}
    for i, check in enumerate(checks):
        groups.setdefault((check.seed, check.trials), []).append(i)
    hits = [0] * len(checks)
    for (seed, trials), members in groups.items():
        cuts = [float(tails[i][1]) for i in members]
        for i, count in zip(members, _draws_below(random.Random(seed), trials, cuts)):
            hits[i] = count
    results = []
    for check, (threshold, exact), count in zip(checks, tails, hits):
        freq = Fraction(count, check.trials)
        bound = stable_exp(-2 * check.sample_size * check.delta**2)
        sigma = math.sqrt(max(bound * (1.0 - bound), 0.0) / check.trials)
        results.append(HoeffdingResult(
            check=check,
            threshold_count=threshold,
            empirical_freq=freq,
            exact_prob=exact,
            bound=bound,
            sigma=sigma,
            ok_empirical=float(freq) <= bound + 3 * sigma,
            ok_exact=float(exact) <= bound + 1e-12,
        ))
    return results


def _exact_tail(check: HoeffdingCheck) -> tuple[int, Fraction]:
    """The threshold count and P(at most that many ones in the sample).

    The tail sums C(ones, c) C(n - ones, k - c) from the support's start
    c0 = max(0, k - (n - ones)) by the term ratio
    term(c + 1) = term(c) (ones - c)(k - c) / ((c + 1)(n - ones - k + c + 1)),
    whose division is exact, since both sides are the integer term(c + 1).
    """
    n, ones, k = check.population_size, check.population_ones, check.sample_size
    threshold = math.floor(k * (check.mu - check.delta))
    zeros = n - ones
    c = max(0, k - zeros)
    term = math.comb(ones, c) * math.comb(zeros, k - c)
    tail = 0
    while c <= threshold:
        tail += term
        term = term * (ones - c) * (k - c) // ((c + 1) * (zeros - k + c + 1))
        c += 1
    return threshold, Fraction(tail, math.comb(n, k))


# Trials read per randbytes call: 32 KiB of Mersenne Twister words.
_CHUNK_TRIALS = 1 << 12


def _draws_below(rng: random.Random, trials: int, cuts: Sequence[float]) -> list[int]:
    """``[sum(u < cut for u in us) for cut in cuts]`` over ``trials`` uniforms
    ``us`` from ``rng.random()``, read in bulk and once for every cut.

    CPython's ``random()`` is N / 2^53 with N = (a >> 5) * 2^26 + (b >> 6),
    where a and b are the next two 32-bit Mersenne Twister words, and
    ``randbytes(8 * t)`` returns the next 2t words in that order,
    little-endian, leaving the generator where t ``random()`` calls would.
    So u < cut exactly when N < m = ceil(cut * 2^53), a product that is exact
    for a float cut in [0, 1].  N's top 8 bits are a's top byte: a trial
    whose top byte is below m >> 45 is a hit and one above it a miss, and
    only a trial at that byte (1 in 256 per cut) is decoded in full.  With
    cut = 1, m = 2^53 and the byte is capped at 255, whose trials all decode
    as hits.
    """
    plans = []
    for cut in cuts:
        m = math.ceil(cut * 2.0**53)
        top = min(m >> 45, 255)
        plans.append((m, top, b"\x01" * top + b"\x00" * (256 - top)))
    hits = [0] * len(plans)
    for start in range(0, trials, _CHUNK_TRIALS):
        raw = rng.randbytes(8 * min(_CHUNK_TRIALS, trials - start))
        tops = raw[3::8]
        for i, (m, top, below) in enumerate(plans):
            count = tops.translate(below).count(1)
            j = tops.find(top)
            while j >= 0:
                a, b = struct.unpack_from("<II", raw, 8 * j)
                count += (a >> 5 << 26 | b >> 6) < m
                j = tops.find(top, j + 1)
            hits[i] += count
    return hits


class SuiteRow(Record):
    """One verifier line: what was swept, the worst margin, and the verdict."""

    __slots__ = _fields = ("name", "cases", "skipped", "worst", "threshold", "passed")

    def __init__(self, name: str, cases: int, skipped: int, worst: float, threshold: float,
                 passed: bool) -> None:
        self._init(name, cases, skipped, worst, threshold, passed)
        if self.cases < 1:  # a sweep of no case would pass vacuously
            raise DomainError(f"{self.name}: the sizes leave no case to evaluate")

    @classmethod
    def of(cls, name: str, margins: Sequence[float], threshold: float) -> "SuiteRow":
        """The row of a sweep whose margins must each be at most the threshold."""
        worst = float(max(margins, default=math.nan))
        return cls(name, len(margins), 0, worst, threshold, worst <= threshold)

    def line(self) -> str:
        flag = "pass" if self.passed else "FAIL"
        return (
            f"{flag}  {self.name}: cases={self.cases} skipped={self.skipped} "
            f"worst={self.worst:.3e} threshold={self.threshold:.3e}"
        )


def _exact_row(name: str, units, batches, table: tuple, den: int, slack, sign: int,
               zeros: int = 0, space: int = 0) -> SuiteRow:
    """The row of a sweep whose claim is margin >= 0 (sign 1) or <= 0 (sign -1).

    units(log, l2e, *batch, cs) lists a batch's margins times den * 2**w from
    log[k] = log2 k * 2**w and l2e = log2 e * 2**w, off by at most slack(e)
    where each log is off by at most e and l2e by at most 1.  Over the table
    (logs, err, l2e) at _WORK bits, a case passes when its margin clears 0 by
    more than slack(err), the threshold, on the claimed side; the ``zeros``
    equalities count as exact zeros, and the rest of ``space`` as skipped.
    worst is the nearest case's margin, evaluated again and rounded once.
    """
    (logs, err, l2e), pick, count, near = table, (min if sign > 0 else max), zeros, None
    for *batch, cs in batches:
        margins = units(logs, l2e, *batch, cs)
        count += len(margins)
        m = pick(margins, default=None)
        if m is not None and (near is None or sign * m < sign * near[0]):
            near = m, batch, cs[margins.index(m)]
    worst, passed, bound = 0.0, True, slack(err)
    if near is not None:
        m, batch, c = near
        worst = _ziv_units(lambda log: units(log, _log2_e(log.w), *batch, [c])[0], slack(16), den)
        passed = sign * m > bound
    threshold = bound / (den << _WORK) if count else math.nan  # no case: the row refuses
    return SuiteRow(name, count, max(space - count, 0), worst, threshold, passed)


def _excess_units(log, l2e: int, n: int, ks: Sequence[int]) -> list[int]:
    # (h(p) - p log2(e / p)) * n * 2**w at p = k/n is (n - k) log2(n / (n - k))
    # - k log2 e: within (2 e + 1) n
    return [(n - k) * (log[n] - log[n - k]) - k * l2e for k in ks]


def _pinsker_units(log, l2e: int, a: int, n: int, cs: Sequence[int]) -> list[int]:
    # (D(p || q) - 2 (p - q)**2 log2 e) * n**2 * 2**w at p, q = a/n, c/n: within 2 n**2 (e + 1)
    na, nb = n * a, n * (n - a)
    fixed = na * log[a] + nb * log[n - a]
    return [fixed - na * log[c] - nb * log[n - c] - 2 * (a - c) ** 2 * l2e for c in cs]


def _stirling_errors() -> list[float]:
    # log2 n! vs n*log2(n/e) + 0.5*log2(2*pi*n) at n = 64 ... 4096; 2*pi as
    # a 20-digit rational.
    two_pi = Fraction(2 * 314159265358979323846, 10**20)
    return [abs(stable_log2(math.factorial(n))
                - (n * (stable_log2(n) - LOG2_E) + 0.5 * stable_log2(two_pi * n)))
            for n in (64, 128, 256, 512, 1024, 2048, 4096)]


def _binomial_margins(max_m: int) -> list[float]:
    # m = 16 * 2**i, so k = num * m / 16 is exact and k / m is num / 16;
    # C(m, k) = C(m, m - k), so num and 16 - num share one width
    entropies = [stable_entropy(Fraction(num, 16)) for num in range(1, 16)]
    margins = []
    m = 16
    while m <= max_m:
        half = [ceil_log2(binomial(m, num * m // 16)) for num in range(1, 9)]
        widths = half + half[-2::-1]
        margins += [lhs - (m * h + 1) for lhs, h in zip(widths, entropies)]
        m *= 2
    return margins


def _random_mask(rng: random.Random, m: int) -> int:
    """``sum(rng.getrandbits(1) << e for e in range(m))``, read in bulk; m >= 1.

    ``getrandbits(1)`` is the top bit of the next 32-bit Mersenne Twister
    word, and ``randbytes(4 * m)`` is the next m words, little-endian: bit e
    is the top bit of byte 4e + 3, and the generator ends where m
    ``getrandbits(1)`` calls would leave it.
    """
    digits = rng.randbytes(4 * m)[3::4].translate(_TOP_BIT_DIGITS)
    return int(digits[::-1], 2)


def _codec_overheads(instances: int, seed: int) -> list[int]:
    # Conditional payload never exceeds the unconditional subset code by more
    # than its two size headers.
    rng = random.Random(seed)
    overheads = []
    for _ in range(instances):
        m = rng.randrange(4, 200)
        k = rng.randrange(1, m + 1)
        pool = (1 << m) - 1
        ones = _random_mask(rng, m)
        picked = subset_unrank(rng.randrange(binomial(m, k)), pool, k)
        _, (_, w1), (_, w0) = encode_set_conditional(picked, pool, ones)
        overheads.append(w1 + w0 - ceil_log2(binomial(m, k)))
    return overheads


def run_inequality_suite(
    entropy_points: int = 10_000,
    split_side: int = 50,
    pinsker_side: int = 200,
    codec_instances: int = 200,
) -> list[SuiteRow]:
    """All inequality sweeps the accounting depends on, with verdict rows."""
    for size in (entropy_points, split_side, pinsker_side, codec_instances):
        if type(size) is not int:  # bools too, as HoeffdingCheck
            raise DomainError(f"suite sizes must be ints, got {size!r}")
    n, s, k = entropy_points, split_side, pinsker_side
    logs, errs = _log2_table(max(n, s * s, k), _WORK)
    table = logs, max(errs), _log2_e(_WORK)
    return [
        # h(p) <= p log2(e / p) at p = j/n for j = 1..n
        _exact_row("entropy-vs-plog2ep", _excess_units, [(n, range(1, n + 1))], table, n,
                   lambda e: (2 * e + 1) * n, -1),
        # p, gamma, q range over j/s for j = 1..s; only realizable q are swept,
        # and for a, g >= 1 those start at j >= 1.  q = p is an equality.
        _exact_row("split-entropy-drop", lambda log, _, *batch: _split_units(log, *batch),
                   ((a, g, s, [c for c in _realizable_q(a, g, s) if c != a])
                    for a in range(1, s + 1) for g in range(1, s + 1)),
                   table, s * s, lambda e: 6 * s * s * e, 1, max(s, 0) ** 2, s**3),
        # p, q range over j/k for j = 1..k; q = 1 is skipped (D(p || 1) is
        # infinite for p != 1).  q = p is an equality.
        _exact_row("pinsker-bernoulli", _pinsker_units,
                   ((a, k, [c for c in range(1, k) if c != a]) for a in range(1, k + 1)),
                   table, k * k, lambda e: 2 * k * k * (e + 1), 1, max(k - 1, 0)),
        SuiteRow.of("stirling-log2-factorial", _stirling_errors(), 0.1),
        SuiteRow.of("binomial-vs-entropy", _binomial_margins(4096), 0.0),
        SuiteRow.of("conditional-codec-overhead", _codec_overheads(codec_instances, 7), 0.0),
    ]
