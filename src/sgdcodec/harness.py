"""Experiment orchestration, statistical checks, and artifact emission.

A run is fully pinned by its manifest (config plus replication count and
mode): datasets, shuffles, streams, and reports are all deterministic
functions of it, and re-running a manifest reproduces every artifact byte for
byte.  Alongside the compression pipeline this module hosts the two
statistical verifiers: a Monte Carlo check of the without-replacement tail
bound against the exact hypergeometric law, and grid sweeps of the entropy
and coding inequalities the bit accounting relies on.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

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
    STRICT_MAX_D,
    STRICT_MAX_N,
    STRICT_MAX_SCALE,
    AccountRow,
    CeilingVerdict,
    CSV_FIELDS,
    EpochCode,
    SideInfo,
    account_row_csv,
    check_eps_beta_ceiling,
    decode_epoch,
    encode_epoch,
    epoch_accounting,
    model_description_bits,
    predict_segments,
    write_epoch_file,
)
from .model import Dataset, generate_dataset
from .numerics import (
    DomainError,
    ProbGrid,
    PreconditionError,
    binary_entropy,
    kl_bernoulli,
    verify_split_entropy,
)
from .sgd_engine import (
    RunConfig,
    TrainingRun,
    run_training,
    vector_to_bytes,
    write_trace_csv,
)
from .stable import stable_entropy, stable_exp, stable_log2

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
            c = self.config
            if (
                c.n > STRICT_MAX_N
                or c.d > STRICT_MAX_D
                or c.grid.scale > STRICT_MAX_SCALE
            ):
                raise DomainError(
                    f"STRICT experiments are limited to n<={STRICT_MAX_N}, "
                    f"d<={STRICT_MAX_D}, scale<={STRICT_MAX_SCALE}"
                )

    def to_dict(self) -> dict:
        return {
            "format": MANIFEST_FORMAT,
            "config": self.config.to_dict(),
            "replications": self.replications,
            "mode": self.mode,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        if d.get("format") != MANIFEST_FORMAT:
            raise DomainError(f"unsupported manifest format {d.get('format')!r}")
        return cls(
            config=RunConfig.from_dict(d["config"]),
            replications=int(d["replications"]),
            mode=d["mode"],
        )


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
            "good_fraction": _frac_str(self.good_fraction),
            "total_measured_bits": self.total_measured_bits,
            "total_charged_bits": self.total_charged_bits,
            "total_baseline_bits": self.total_baseline_bits,
            "total_savings_bits": self.total_savings_bits,
            "dataset_bits": self.dataset_bits,
            "model_bits": self.model_bits,
            "side_charge_bits": self.side_charge_bits,
            "mean_savings_bits": None if mean is None else _frac_str(mean),
            "projected_epoch_bound": self.projected_epoch_bound,
            "conservation_ok": self.check_conservation(),
            "ceilings": [
                {
                    "applicable": c.applicable,
                    "note": c.note,
                    "beta_hat": None if c.beta_hat is None else _frac_str(c.beta_hat),
                    "ceiling": c.ceiling,
                    "ok": c.ok,
                    "margin": c.margin,
                }
                for c in self.ceilings
            ],
        }


def _frac_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def write_report_csv(rows: Sequence[AccountRow], path: str) -> None:
    lines = [",".join(CSV_FIELDS)]
    lines.extend(account_row_csv(r) for r in rows)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_plots_data(rows: Sequence[AccountRow], path: str) -> None:
    """Per-epoch series for external plotting; savings recomputed per row."""
    lines = ["epoch,case,measured_bits,baseline_bits,epoch_bound_bits,beta_hat,savings_bits"]
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(r.epoch),
                    r.case,
                    str(r.measured_bits),
                    str(r.baseline_bits),
                    repr(r.epoch_bound_bits),
                    _frac_str(r.beta_hat),
                    str(r.savings_bits),
                ]
            )
        )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


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


def run_experiment(spec: ExperimentSpec, outdir: Optional[str] = None) -> ExperimentResult:
    """Runs, encodes, decodes, accounts, and (optionally) writes artifacts.

    Every epoch is round-tripped inline; a mismatch raises immediately.  In
    STRICT mode the decoder chain is additionally driven from the final
    weights backward across all completed epochs.
    """
    dataset = generate_dataset(spec.config.generator, spec.config.grid)
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        os.makedirs(os.path.join(outdir, "plots"), exist_ok=True)
        with open(os.path.join(outdir, "manifest.json"), "w", encoding="ascii") as fh:
            fh.write(_json_bytes(spec.to_dict()))
        with open(os.path.join(outdir, "dataset.tsv"), "w", encoding="ascii") as fh:
            fh.write(dataset.to_text())
    reps: list[ReplicationResult] = []
    for r in range(spec.replications):
        config = replace(spec.config, seed=spec.config.seed + r)
        run = run_training(config, dataset)
        rows: list[AccountRow] = []
        epoch_codes: list[EpochCode] = []
        ceilings: list[CeilingVerdict] = []
        for trace in run.completed_traces:
            code = encode_epoch(trace, dataset, config, spec.mode)
            side = (
                SideInfo.strict(trace.checkpoints[-1])
                if spec.mode == STRICT
                else SideInfo.accounting(trace.checkpoints)
            )
            decoded = decode_epoch(code, dataset, config, side)
            if decoded.order != trace.order:
                raise DomainError(f"epoch {trace.epoch} failed its round trip")
            predicted = predict_segments(trace, config, code.selector, spec.mode)
            if predicted != code.segments:
                raise DomainError(
                    f"epoch {trace.epoch} declared widths disagree with the "
                    f"statistics-derived prediction"
                )
            epoch_codes.append(code)
            rows.append(epoch_accounting(code, trace, config))
            ceilings.append(check_eps_beta_ceiling(trace, config.eps))
        if spec.mode == STRICT and run.completed_traces:
            _verify_strict_chain(run, dataset, config)
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


def _verify_strict_chain(run: TrainingRun, dataset: Dataset, config: RunConfig) -> None:
    """Decodes all epochs backward from the last completed checkpoint only."""
    traces = run.completed_traces
    current = traces[-1].checkpoints[-1]
    for trace in reversed(traces):
        code = encode_epoch(trace, dataset, config, STRICT)
        decoded = decode_epoch(code, dataset, config, SideInfo.strict(current))
        if decoded.order != trace.order:
            raise DomainError(f"epoch {trace.epoch} failed the STRICT chain decode")
        assert decoded.checkpoints is not None
        if decoded.checkpoints[0].raws != trace.checkpoints[0].raws:
            raise DomainError(
                f"epoch {trace.epoch} STRICT chain recovered a wrong start point"
            )
        current = decoded.checkpoints[0]


def _write_replication(
    outdir: str,
    index: int,
    run: TrainingRun,
    codes: Sequence[EpochCode],
    report: CompressionReport,
) -> None:
    rep_dir = os.path.join(outdir, f"rep_{index:02d}")
    os.makedirs(rep_dir, exist_ok=True)
    os.makedirs(os.path.join(rep_dir, "epochs"), exist_ok=True)
    write_trace_csv(run.traces, os.path.join(rep_dir, "trace.csv"))
    for code in codes:
        write_epoch_file(
            os.path.join(rep_dir, "epochs", f"epoch_{code.epoch:03d}.epc"), code
        )
    with open(os.path.join(rep_dir, "final_model.bin"), "wb") as fh:
        fh.write(vector_to_bytes(run.final_model.weights))
    write_report_csv(report.rows, os.path.join(rep_dir, "report.csv"))
    summary = report.summary_dict()
    summary["terminated"] = run.terminated
    summary["final_accuracy"] = _frac_str(run.final_accuracy)
    with open(os.path.join(rep_dir, "summary.json"), "w", encoding="ascii") as fh:
        fh.write(_json_bytes(summary))
    emit_plots_data(report.rows, os.path.join(outdir, "plots", f"rep_{index:02d}.csv"))


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

    The sampler inverts the exact hypergeometric CDF, so the simulation and
    the closed-form probability describe the same distribution; the verdict
    allows three binomial standard deviations of Monte Carlo noise on top of
    the e^(-2k delta^2) bound.
    """
    k = check.sample_size
    pmf = hypergeometric_pmf(check.population_size, check.population_ones, k)
    cdf: list[float] = []
    acc = Fraction(0)
    for p in pmf:
        acc += p
        cdf.append(float(acc))
    threshold = math.floor(k * (check.mu - check.delta))
    exact = sum(pmf[: threshold + 1], Fraction(0))
    rng = random.Random(check.seed)
    hits = 0
    for _ in range(check.trials):
        c = bisect.bisect_right(cdf, rng.random())
        if c > k:
            c = k
        if c <= threshold:
            hits += 1
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
    for p in ProbGrid.uniform(points).points:
        lhs = binary_entropy(p)
        rhs = float(p) * (stable_log2(1 / Fraction(p)) + 1 / math.log(2))
        worst = max(worst, lhs - rhs)
    return SuiteRow("entropy-vs-plog2ep", points, 0, worst, 1e-9, worst <= 1e-9)


def _sweep_split_entropy(side: int) -> SuiteRow:
    worst = math.inf
    skipped = 0
    cases = 0
    qs = ProbGrid.uniform(side).points
    for p in qs:
        for gamma in qs:
            for q in qs:
                try:
                    slack = verify_split_entropy(p, gamma, q)
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
    pts = ProbGrid.uniform(side).points
    for p in pts:
        for q in pts:
            if q in (0, 1):
                continue
            margin = kl_bernoulli(p, q) - 2.0 * float((p - q) ** 2) / math.log(2)
            worst = min(worst, margin)
            cases += 1
    return SuiteRow("pinsker-bernoulli", cases, 0, worst, -1e-12, worst >= -1e-12)


def _sweep_stirling(sizes: Sequence[int]) -> SuiteRow:
    # log2 n! vs n*log2(n/e) + 0.5*log2(2*pi*n); 2*pi as a 20-digit rational.
    two_pi = Fraction(2 * 314159265358979323846, 10**20)
    worst = 0.0
    for n in sizes:
        exact = stable_log2(math.factorial(n))
        approx = n * (stable_log2(n) - 1 / math.log(2)) + 0.5 * stable_log2(two_pi * n)
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
        pool = tuple(range(m))
        labels = [rng.getrandbits(1) for _ in range(m)]
        picked = subset_unrank(rng.randrange(binomial(m, k)), pool, k)
        stream = BitStream()
        info = encode_set_conditional(stream, picked, pool, lambda e: labels[e])
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
