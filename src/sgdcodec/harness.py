"""Experiment orchestration, statistical checks, and artifact emission.

A run is fully pinned by its manifest (config plus replication count and
mode): datasets, shuffles, streams, and reports are all deterministic
functions of it, and re-running a manifest reproduces every artifact byte for
byte.  This module owns the artifact directory: its layout, and the text
artifacts ``trace.csv``, ``report.csv`` and ``summary.json``, whose every
cell goes through one renderer, ``_cell``.  Alongside the compression
pipeline it hosts the two statistical verifiers: a Monte Carlo check of the
without-replacement tail bound against the exact hypergeometric law, and grid
sweeps of the entropy and coding inequalities the bit accounting relies on.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from fractions import Fraction
from typing import Iterable, Optional, Sequence

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
    write_epoch_file,
)
from .model import Dataset, generate_dataset, manifest_int
from .numerics import (
    DomainError,
    PreconditionError,
    _entropy,
    _kl,
    _split_slack,
)
from .sgd_engine import (
    EpochTrace,
    RunConfig,
    TrainingRun,
    run_training,
    vector_to_bytes,
)
from .stable import LOG2_E, stable_entropy, stable_exp, stable_log2

MANIFEST_FORMAT = "sgdcodec-run-v1"


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible experiment: a config, how often, and in which mode."""

    config: RunConfig
    replications: int = 1
    mode: str = ACCOUNTING

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise DomainError("replications must be >= 1")
        if self.mode not in (ACCOUNTING, STRICT):
            raise DomainError(f"unknown mode {self.mode!r}")
        if self.mode == STRICT:
            check_strict_limits(self.config, DomainError)

    def to_dict(self) -> dict:
        return {
            "format": MANIFEST_FORMAT,
            "config": self.config.to_dict(),
            "replications": self.replications,
            "mode": self.mode,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        """The spec a manifest holds; a missing key or a value of the wrong
        type is a ``DomainError``."""
        if not isinstance(d, dict):
            raise DomainError("manifest is not a JSON object")
        if d.get("format") != MANIFEST_FORMAT:
            raise DomainError(f"unsupported manifest format {d.get('format')!r}")
        try:
            return cls(
                config=RunConfig.from_dict(d["config"]),
                replications=manifest_int(d, "replications"),
                mode=d["mode"],
            )
        except (KeyError, AttributeError, TypeError) as exc:
            raise DomainError(f"malformed manifest: {exc!r}") from exc


def dataset_description_bits(dataset: Dataset) -> int:
    """Flat description cost of X: label plus coord grid cells, plus header."""
    return dataset.n * (1 + dataset.dim * dataset.grid.coord_bits) + 64


@dataclass
class CompressionReport:
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
                dict(vars(c), beta_hat=None if c.beta_hat is None else _cell(c.beta_hat))
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


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trace_csv(traces: Sequence[EpochTrace], path: str) -> None:
    """One row per checkpoint: its ``EpochTrace.rates``, then whether the epoch
    stopped early."""
    header = ("epoch", "j", "lambda", "lambda_prime", "lambda_doubleprime", "phi",
              "batch_acc_before", "terminated")
    rows = ((t.epoch, i + 1, *t.rates(i), t.terminated or t.saturated)
            for t in traces for i in range(t.steps_done + 1))
    _write_csv(path, header, rows)


def write_report_csv(rows: Sequence[AccountRow], path: str) -> None:
    """One row per accounted epoch; the columns are ``AccountRow``'s fields."""
    columns = [f.name for f in fields(AccountRow)]
    _write_csv(path, columns, map(attrgetter(*columns), rows))


@dataclass
class ReplicationResult:
    index: int
    run: TrainingRun
    codes: list[EpochCode]
    report: CompressionReport


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    dataset: Dataset
    replications: list[ReplicationResult]
    outdir: Optional[str]


def _json_bytes(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def replication_config(config: RunConfig, index: int) -> RunConfig:
    """Replication ``index`` trains ``config`` with its seed shifted by index."""
    return replace(config, seed=config.seed + index)


def replication_dir(outdir: str, index: int) -> str:
    """Replication ``index`` keeps its artifacts in ``rep_NN`` under outdir."""
    return os.path.join(outdir, f"rep_{index:02d}")


def epoch_code_dir(rep_dir: str) -> str:
    """A replication keeps its epoch code files in ``epochs``."""
    return os.path.join(rep_dir, "epochs")


def epoch_code_path(rep_dir: str, epoch: int) -> str:
    """Where a replication keeps one epoch's code: ``epochs/epoch_NNN.epc``."""
    return os.path.join(epoch_code_dir(rep_dir), f"epoch_{epoch:03d}.epc")


def run_experiment(spec: ExperimentSpec, outdir: Optional[str] = None) -> ExperimentResult:
    """Runs, encodes, decodes, accounts, and (optionally) writes artifacts.

    Every epoch is round-tripped inline; a mismatch raises immediately.  The
    decoder walks the chain from the side info ``SideInfo.of`` gives it (in
    STRICT mode the epoch's last checkpoint alone), and both the order and
    the walked chain must equal the trained ones.  Completed epochs are
    contiguous (epoch e starts where epoch e-1 ends), so by induction from
    the last checkpoint the STRICT checks are exactly the backward walk from
    the final weights across all completed epochs.
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
        config = replication_config(spec.config, r)
        run = run_training(config, dataset)
        rows: list[AccountRow] = []
        epoch_codes: list[EpochCode] = []
        ceilings: list[CeilingVerdict] = []
        for trace in run.completed_traces:
            code = encode_epoch(trace, dataset, config, spec.mode)
            side = SideInfo.of(spec.mode, trace.checkpoints)
            decoded = decode_epoch(code, dataset, config, side)
            if decoded.order != trace.order:
                raise DomainError(f"epoch {trace.epoch} failed its round trip")
            if not decoded.chain_matches(trace.checkpoints):
                raise DomainError(
                    f"epoch {trace.epoch} decode walked a wrong checkpoint chain"
                )
            predicted = predict_segments(trace, config, code.selector, spec.mode)
            if predicted != code.segments:
                raise DomainError(
                    f"epoch {trace.epoch} declared widths disagree with the "
                    f"statistics-derived prediction"
                )
            epoch_codes.append(code)
            rows.append(epoch_accounting(code, trace, config))
            ceilings.append(check_eps_beta_ceiling(trace, config.eps))
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
    return ExperimentResult(spec, dataset, reps, outdir)


def _write_replication(
    outdir: str,
    index: int,
    run: TrainingRun,
    codes: Sequence[EpochCode],
    report: CompressionReport,
) -> None:
    rep_dir = replication_dir(outdir, index)
    os.makedirs(epoch_code_dir(rep_dir), exist_ok=True)
    write_trace_csv(run.traces, os.path.join(rep_dir, "trace.csv"))
    for code in codes:
        write_epoch_file(epoch_code_path(rep_dir, code.epoch), code)
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


@dataclass(frozen=True)
class HoeffdingCheck:
    """Tail check spec: k draws without replacement from a binary population."""

    population_size: int
    population_ones: int
    sample_size: int
    delta: Fraction
    trials: int
    seed: int = 0

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class HoeffdingResult:
    check: HoeffdingCheck
    threshold_count: int
    empirical_freq: Fraction
    exact_prob: Fraction
    bound: float
    sigma: float
    ok_empirical: bool
    ok_exact: bool


def hypergeometric_pmf(
    population: int, ones: int, sample: int
) -> list[Fraction]:
    """P[ones in sample = c] for c in 0..sample, exact."""
    total = binomial(population, sample)
    return [
        Fraction(binomial(ones, c) * binomial(population - ones, sample - c), total)
        for c in range(sample + 1)
    ]


def verify_hoeffding(check: HoeffdingCheck) -> HoeffdingResult:
    """Monte Carlo plus exact verification of the without-replacement tail.

    Each trial draws u = rng.random() and counts a hit when u < float(exact),
    one comparison per trial.  This is inversion of the exact hypergeometric
    CDF: the sampled count, the number of float CDF entries <= u, is at most
    the threshold exactly when the CDF entry at the threshold, which is
    float(exact), exceeds u, because the CDF is non-decreasing.  So the
    simulation and the closed-form probability describe the same
    distribution.  The verdict allows three binomial standard deviations of
    Monte Carlo noise on top of the e^(-2k delta^2) bound.
    """
    k = check.sample_size
    pmf = hypergeometric_pmf(check.population_size, check.population_ones, k)
    threshold = math.floor(k * (check.mu - check.delta))
    exact = sum(pmf[: threshold + 1], Fraction(0))
    cut = float(exact)
    rng = random.Random(check.seed)
    hits = sum(rng.random() < cut for _ in range(check.trials))
    freq = Fraction(hits, check.trials)
    bound = stable_exp(-2 * k * check.delta**2)
    sigma = math.sqrt(max(bound * (1.0 - bound), 0.0) / check.trials)
    return HoeffdingResult(
        check=check,
        threshold_count=threshold,
        empirical_freq=freq,
        exact_prob=exact,
        bound=bound,
        sigma=sigma,
        ok_empirical=float(freq) <= bound + 3 * sigma,
        ok_exact=float(exact) <= bound + 1e-12,
    )


@dataclass(frozen=True)
class SuiteRow:
    """One verifier line: what was swept, the worst margin, and the verdict."""

    name: str
    cases: int
    skipped: int
    worst: float
    threshold: float
    passed: bool

    def line(self) -> str:
        flag = "pass" if self.passed else "FAIL"
        return (
            f"{flag}  {self.name}: cases={self.cases} skipped={self.skipped} "
            f"worst={self.worst:.3e} threshold={self.threshold:.3e}"
        )


def _sweep_entropy_upper(points: int) -> SuiteRow:
    # h(p) <= p*log2(e/p); worst positive excess should be numeric noise only.
    worst = -1.0
    for k in range(1, points + 1):
        lhs = _entropy(k, points)
        rhs = k / points * (stable_log2(Fraction(points, k)) + LOG2_E)
        worst = max(worst, lhs - rhs)
    return SuiteRow("entropy-vs-plog2ep", points, 0, worst, 1e-9, worst <= 1e-9)


def _sweep_split_entropy(side: int) -> SuiteRow:
    worst = math.inf
    skipped = 0
    cases = 0
    # p, gamma, q range over k/side for k = 1..side
    ks = range(1, side + 1)
    for a in ks:
        for g in ks:
            for c in ks:
                try:
                    slack = _split_slack(a, g, c, side)
                except PreconditionError:
                    skipped += 1
                    continue
                cases += 1
                worst = min(worst, slack)
    return SuiteRow(
        "split-entropy-drop", cases, skipped, worst, -1e-12, worst >= -1e-12
    )


def _sweep_pinsker(side: int) -> SuiteRow:
    worst = math.inf
    cases = 0
    # p, q range over k/side for k = 1..side; q = 1 is skipped (D(p || 1) is
    # infinite for p != 1)
    for a in range(1, side + 1):
        for c in range(1, side):
            margin = _kl(a, c, side) - 2.0 * ((a - c) ** 2 / side**2) / math.log(2)
            worst = min(worst, margin)
            cases += 1
    return SuiteRow("pinsker-bernoulli", cases, 0, worst, -1e-12, worst >= -1e-12)


def _sweep_stirling(sizes: Sequence[int]) -> SuiteRow:
    # log2 n! vs n*log2(n/e) + 0.5*log2(2*pi*n); 2*pi as a 20-digit rational.
    two_pi = Fraction(2 * 314159265358979323846, 10**20)
    worst = 0.0
    for n in sizes:
        exact = stable_log2(math.factorial(n))
        approx = n * (stable_log2(n) - LOG2_E) + 0.5 * stable_log2(two_pi * n)
        worst = max(worst, abs(exact - approx))
    return SuiteRow("stirling-log2-factorial", len(sizes), 0, worst, 0.1, worst <= 0.1)


def _sweep_entropy_binomial(max_m: int) -> SuiteRow:
    worst = -math.inf
    cases = 0
    m = 16
    while m <= max_m:
        for num in range(1, 16):
            gamma = Fraction(num, 16)
            k = int(gamma * m)
            if k == 0 or k == m:
                continue
            lhs = ceil_log2(binomial(m, k))
            rhs = m * stable_entropy(Fraction(k, m)) + 1
            worst = max(worst, lhs - rhs)
            cases += 1
        m *= 2
    return SuiteRow("binomial-vs-entropy", cases, 0, worst, 0.0, worst <= 0.0)


def _sweep_conditional_overhead(instances: int, seed: int) -> SuiteRow:
    # Conditional payload never exceeds the unconditional subset code by more
    # than its two size headers.
    rng = random.Random(seed)
    worst = -math.inf
    for _ in range(instances):
        m = rng.randrange(4, 200)
        k = rng.randrange(1, m + 1)
        pool = (1 << m) - 1
        ones = sum(rng.getrandbits(1) << e for e in range(m))
        picked = subset_unrank(rng.randrange(binomial(m, k)), pool, k)
        info = encode_set_conditional(BitStream(), picked, pool, ones)
        overhead = info.total_bits - ceil_log2(binomial(m, k)) - 2 * info.size_header_bits
        worst = max(worst, overhead)
    return SuiteRow(
        "conditional-codec-overhead", instances, 0, float(worst), 0.0, worst <= 0.0
    )


def run_inequality_suite(
    entropy_points: int = 10_000,
    split_side: int = 50,
    pinsker_side: int = 200,
    codec_instances: int = 200,
) -> list[SuiteRow]:
    """All inequality sweeps the accounting depends on, with verdict rows."""
    return [
        _sweep_entropy_upper(entropy_points),
        _sweep_split_entropy(split_side),
        _sweep_pinsker(pinsker_side),
        _sweep_stirling((64, 128, 256, 512, 1024, 2048, 4096)),
        _sweep_entropy_binomial(4096),
        _sweep_conditional_overhead(codec_instances, seed=7),
    ]
