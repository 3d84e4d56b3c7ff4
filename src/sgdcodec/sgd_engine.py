"""Deterministic epoch SGD: shuffling, forward steps, statistics, reverse search.

The per-epoch random tape is the exact bit string consumed while drawing the
Fisher-Yates permutation from a splitmix64 stream, so a trace pins down every
random choice.  The reverse oracle recovers the unique predecessor of a step
by exhaustive search over the grid ball that the update rule can reach.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .codec import BitStream
from .model import (
    Dataset,
    GeneratorSpec,
    Model,
    analytic_logistic_smoothness,
    correctness_mask,
    loss_gradient,
    sigmoid_table_max_slope,
    zero_model,
    MODEL_KINDS,
)
from .numerics import (
    DomainError,
    FixedScalar,
    FixedVector,
    GridSpec,
    PreconditionError,
    SaturationError,
)

MASK64 = (1 << 64) - 1
GOLDEN64 = 0x9E3779B97F4A7C15


class ReverseError(ArithmeticError):
    """Base for reverse-search failures; carries the failing step index."""

    def __init__(self, message: str, step_index: Optional[int] = None) -> None:
        super().__init__(message)
        self.step_index = step_index


class PreimageNotFound(ReverseError):
    """No grid point in the search ball maps forward onto the target."""


class MultiplePreimage(ReverseError):
    """Two or more preimages found: a smoothness or quantization premise broke."""


class ReverseSearchInfeasible(ReverseError):
    """The search ball holds more candidates than the configured cap."""


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 draw: returns (next_state, 64-bit output)."""
    state = (state + GOLDEN64) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


class BitTape:
    """MSB-first bit source backed by splitmix64, recording every bit consumed."""

    def __init__(self, seed: int, epoch: int) -> None:
        # Distinct epochs get well-separated streams via a golden-ratio offset.
        self._state = (seed + epoch * GOLDEN64) & MASK64
        self._buf = 0
        self._buf_len = 0
        self.consumed = BitStream()

    def take(self, width: int) -> int:
        if width < 0:
            raise DomainError("width must be >= 0")
        while self._buf_len < width:
            self._state, out = splitmix64(self._state)
            self._buf = (self._buf << 64) | out
            self._buf_len += 64
        shift = self._buf_len - width
        value = self._buf >> shift
        self._buf &= (1 << shift) - 1
        self._buf_len = shift
        self.consumed.write_uint(value, width)
        return value


class ReplayTape:
    """Bit source that replays a previously recorded tape."""

    def __init__(self, tape: BitStream) -> None:
        self._stream = tape.copy()
        self.consumed = self._stream

    def take(self, width: int) -> int:
        return self._stream.read_uint(width)


@dataclass(frozen=True)
class EpochPermutation:
    """Visit order for one epoch plus the exact random bits that produced it."""

    epoch: int
    order: tuple[int, ...]
    source_bits: BitStream

    @property
    def n(self) -> int:
        return len(self.order)

    def batches(self, batch_size: int) -> tuple[tuple[int, ...], ...]:
        if self.n % batch_size:
            raise DomainError("batch size must divide n")
        return tuple(
            tuple(self.order[k : k + batch_size])
            for k in range(0, self.n, batch_size)
        )


def draw_permutation(n: int, source) -> tuple[int, ...]:
    """Fisher-Yates using rejection sampling on the given bit source.

    Each swap index j in [0, i] is drawn from i.bit_length() bits, redrawing
    values above i, so the accepted draw is exactly uniform.
    """
    arr = list(range(n))
    for i in range(n - 1, 0, -1):
        width = i.bit_length()
        while True:
            j = source.take(width)
            if j <= i:
                break
        arr[i], arr[j] = arr[j], arr[i]
    return tuple(arr)


def draw_epoch_permutation(n: int, seed: int, epoch: int) -> EpochPermutation:
    tape = BitTape(seed, epoch)
    order = draw_permutation(n, tape)
    return EpochPermutation(epoch, order, tape.consumed)


def replay_epoch_permutation(n: int, epoch: int, bits: BitStream) -> EpochPermutation:
    """Rebuild the permutation from a recorded tape; must consume it exactly."""
    tape = ReplayTape(bits)
    order = draw_permutation(n, tape)
    if tape.consumed.bits_remaining() != 0:
        raise DomainError("tape longer than the permutation draw consumes")
    return EpochPermutation(epoch, order, bits)


@dataclass(frozen=True)
class RunConfig:
    """Everything that pins down a training run."""

    generator: GeneratorSpec
    batch_size: int
    step_raw: int
    eps: Fraction
    progress_coeff: Fraction
    seed: int
    max_epochs: int
    model_kind: str = "logistic-linear"
    hidden_width: int = 0
    grid: GridSpec = field(default_factory=GridSpec)
    g_bound: Optional[Fraction] = None
    ball_cap: int = 5_000_000

    def __post_init__(self) -> None:
        if self.model_kind not in MODEL_KINDS:
            raise DomainError(f"unknown model kind {self.model_kind!r}")
        if self.batch_size < 2:
            raise DomainError("batch_size must be >= 2")
        if self.generator.n % self.batch_size:
            raise DomainError("batch_size must divide n")
        if not (0 < self.eps < 1):
            raise DomainError("eps must lie in (0, 1)")
        if self.progress_coeff <= 0:
            raise DomainError("progress_coeff must be positive")
        if not (0 < self.progress_floor <= 1):
            raise DomainError("progress floor eps*coeff must lie in (0, 1]")
        if self.step_raw < 0:
            raise DomainError("step_raw must be nonnegative")
        if self.max_epochs < 1:
            raise DomainError("max_epochs must be >= 1")
        if self.model_kind == "one-hidden-layer" and self.hidden_width < 1:
            raise DomainError("one-hidden-layer needs hidden_width >= 1")

    @property
    def n(self) -> int:
        return self.generator.n

    @property
    def dim(self) -> int:
        return self.generator.dim

    @property
    def d(self) -> int:
        if self.model_kind == "logistic-linear":
            return self.dim
        return self.hidden_width * self.dim + self.hidden_width

    @property
    def num_batches(self) -> int:
        return self.n // self.batch_size

    @property
    def step(self) -> FixedScalar:
        return FixedScalar(self.step_raw, self.grid)

    @property
    def progress_floor(self) -> Fraction:
        """Target per-epoch accuracy gain: coefficient times eps."""
        return self.progress_coeff * self.eps

    def to_dict(self) -> dict:
        return {
            "generator": self.generator.to_dict(),
            "batch_size": self.batch_size,
            "step_raw": self.step_raw,
            "eps": str(self.eps),
            "progress_coeff": str(self.progress_coeff),
            "seed": self.seed,
            "max_epochs": self.max_epochs,
            "model_kind": self.model_kind,
            "hidden_width": self.hidden_width,
            "scale": self.grid.scale,
            "clip": self.grid.clip,
            "g_bound": None if self.g_bound is None else str(self.g_bound),
            "ball_cap": self.ball_cap,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        return cls(
            generator=GeneratorSpec.from_dict(d["generator"]),
            batch_size=int(d["batch_size"]),
            step_raw=int(d["step_raw"]),
            eps=Fraction(d["eps"]),
            progress_coeff=Fraction(d["progress_coeff"]),
            seed=int(d["seed"]),
            max_epochs=int(d["max_epochs"]),
            model_kind=d.get("model_kind", "logistic-linear"),
            hidden_width=int(d.get("hidden_width", 0)),
            grid=GridSpec(int(d["scale"]), int(d["clip"])),
            g_bound=None if d.get("g_bound") is None else Fraction(d["g_bound"]),
            ball_cap=int(d.get("ball_cap", 5_000_000)),
        )


def gradient_norm_bound(config: RunConfig, dataset: Dataset) -> Fraction:
    """Gradient norm bound G, rounded up to the next grid step.

    Logistic-linear admits the analytic bound max |x| since the residual
    magnitude never exceeds one.  Other kinds must supply config.g_bound.
    """
    if config.g_bound is not None:
        g = config.g_bound
    elif config.model_kind == "logistic-linear":
        worst = 0
        for el in dataset.elements:
            worst = max(worst, sum(r * r for r in el.features.raws))
        root = math.isqrt(worst)
        if root * root < worst:
            root += 1
        return Fraction(root, config.grid.unit)
    else:
        raise PreconditionError("g_bound required for this model kind")
    unit = config.grid.unit
    return Fraction(math.ceil(g * unit), unit)


def check_step_smoothness(config: RunConfig, dataset: Dataset) -> Fraction:
    """Validates step * smoothness < 1 and returns the product.

    The logistic loss is max|x|^2 * S smooth, where S bounds the slope of the
    sigmoid that training actually uses: the table's largest knot-to-knot
    slope at the grid scale, which exceeds the exact sigmoid's 1/4 below
    scale 8.  Other model kinds are accepted as-is because no closed-form
    constant is available for them here.
    """
    if config.model_kind != "logistic-linear":
        return Fraction(0)
    quarter_l, _ = analytic_logistic_smoothness(dataset)
    l_bound = 4 * quarter_l * sigmoid_table_max_slope(config.grid.scale)
    product = config.step.value * l_bound
    if product >= 1:
        raise PreconditionError(
            f"step*smoothness = {product} >= 1; reverse uniqueness not guaranteed"
        )
    return product


@dataclass
class EpochTrace:
    """Everything recorded while running one epoch.

    Checkpoint i (0-based) is the model before step i+1; ``masks[i]`` is its
    correctness over the dataset, bit e set iff element e is classified
    correctly.  Accuracies are derived from the masks by popcount over
    prefixes of the visit order.  Accessors take the 1-based step index j
    used throughout the accounting: full(j) is defined for j in [1, steps+1],
    seen(j) for j in [2, steps+1], unseen(j) for j in [1, steps] when the
    epoch completed, batch_after(j) for j in [2, steps+1], batch_before(j)
    for j in [1, steps].
    """

    epoch: int
    batch_size: int
    order: tuple[int, ...]
    checkpoints: list[FixedVector] = field(default_factory=list)
    masks: list[int] = field(default_factory=list)
    terminated: bool = False
    terminated_at: Optional[int] = None
    saturated: bool = False

    @property
    def n(self) -> int:
        return len(self.order)

    @property
    def steps_done(self) -> int:
        return len(self.checkpoints) - 1

    @property
    def num_batches(self) -> int:
        return self.n // self.batch_size

    @property
    def completed(self) -> bool:
        return not self.saturated and self.steps_done == self.num_batches

    @property
    def batches(self) -> tuple[tuple[int, ...], ...]:
        b = self.batch_size
        return tuple(
            tuple(self.order[k : k + b]) for k in range(0, self.n, b)
        )

    @property
    def full_acc(self) -> list[Fraction]:
        """Full-dataset accuracy at every checkpoint."""
        return [Fraction(mask.bit_count(), self.n) for mask in self.masks]

    @cached_property
    def _prefix_masks(self) -> tuple[int, ...]:
        """Mask of the first k batches of the visit order, for k = 0..num_batches."""
        out = [0]
        for batch in self.batches:
            out.append(out[-1] | sum(1 << e for e in batch))
        return tuple(out)

    def _rate(self, i: int, lo: int, hi: int) -> Fraction:
        """Accuracy at checkpoint i over batches lo..hi-1 of the visit order."""
        prefix = self._prefix_masks
        hits = self.masks[i] & (prefix[hi] ^ prefix[lo])
        return Fraction(hits.bit_count(), (hi - lo) * self.batch_size)

    def rates(self, i: int) -> tuple[Optional[Fraction], ...]:
        """(full, seen, unseen, batch after, batch before) at checkpoint i.

        None marks an empty subset: nothing seen yet at i = 0, nothing left
        once the whole order is seen.
        """
        t = self.num_batches
        return (
            Fraction(self.masks[i].bit_count(), self.n),
            self._rate(i, 0, i) if i else None,
            self._rate(i, i, t) if i < t else None,
            self._rate(i, i - 1, i) if i else None,
            self._rate(i, i, i + 1) if i < t else None,
        )

    def _checked(self, j: int, lo: int, hi: int, name: str) -> int:
        if not (lo <= j <= hi):
            raise DomainError(f"{name}({j}) outside [{lo}, {hi}]")
        return j - 1

    def full(self, j: int) -> Fraction:
        i = self._checked(j, 1, self.steps_done + 1, "full")
        return Fraction(self.masks[i].bit_count(), self.n)

    def seen(self, j: int) -> Fraction:
        i = self._checked(j, 2, self.steps_done + 1, "seen")
        return self._rate(i, 0, i)

    def unseen(self, j: int) -> Fraction:
        i = self._checked(j, 1, self.steps_done + 1, "unseen")
        if i >= self.num_batches:
            raise DomainError(f"unseen({j}) undefined: nothing left unseen")
        return self._rate(i, i, self.num_batches)

    def batch_after(self, j: int) -> Fraction:
        i = self._checked(j, 2, self.steps_done + 1, "batch_after")
        return self._rate(i, i - 1, i)

    def batch_before(self, j: int) -> Fraction:
        i = self._checked(j, 1, self.steps_done, "batch_before")
        return self._rate(i, i, i + 1)

    def progress(self) -> Fraction:
        """Measured epoch progress: batch-size-weighted sum of per-step gains."""
        total = Fraction(0)
        for i in range(1, self.steps_done + 1):
            total += self.batch_after(i + 1) - self.batch_before(i)
        return Fraction(self.batch_size, self.n) * total


def _record_checkpoint(trace: EpochTrace, model: Model, dataset: Dataset) -> Fraction:
    """Appends one checkpoint and its correctness mask; returns full accuracy."""
    mask = correctness_mask(model, dataset)
    trace.checkpoints.append(model.weights)
    trace.masks.append(mask)
    return Fraction(mask.bit_count(), trace.n)


def forward_step(model: Model, batch, step: FixedScalar) -> tuple[Model, FixedVector]:
    """One GD step; returns the new model and the quantized gradient applied."""
    grad = loss_gradient(model, batch)
    new_weights = model.weights.gd_update(step, grad)
    if new_weights.saturated:
        raise SaturationError("weight update clipped")
    return model.with_weights(new_weights), grad


def run_epoch(
    model: Model, dataset: Dataset, config: RunConfig, epoch: int
) -> tuple[EpochTrace, Model]:
    """Runs one epoch; the trace stops early on termination or saturation."""
    perm = draw_epoch_permutation(dataset.n, config.seed, epoch)
    trace = EpochTrace(epoch, config.batch_size, perm.order)
    lam = _record_checkpoint(trace, model, dataset)
    batches = trace.batches
    for j in range(1, config.num_batches + 1):
        if lam >= 1 - config.eps:
            trace.terminated = True
            trace.terminated_at = j
            break
        batch = dataset.subset(batches[j - 1])
        try:
            model, _ = forward_step(model, batch, config.step)
        except SaturationError:
            trace.saturated = True
            break
        lam = _record_checkpoint(trace, model, dataset)
    return trace, model


@dataclass
class TrainingRun:
    config: RunConfig
    dataset: Dataset
    initial_model: Model
    traces: list[EpochTrace]
    final_model: Model
    terminated: bool
    step_smoothness: Fraction

    @property
    def completed_traces(self) -> list[EpochTrace]:
        return [t for t in self.traces if t.completed]

    @property
    def epochs_completed(self) -> int:
        return len(self.completed_traces)

    @property
    def final_accuracy(self) -> Fraction:
        return self.traces[-1].full_acc[-1] if self.traces else Fraction(0)


def run_training(config: RunConfig, dataset: Optional[Dataset] = None) -> TrainingRun:
    """Runs epochs until the accuracy target is hit or max_epochs expire."""
    if dataset is None:
        from .model import generate_dataset

        dataset = generate_dataset(config.generator, config.grid)
    product = check_step_smoothness(config, dataset)
    model = zero_model(config.model_kind, dataset.dim, config.grid, config.hidden_width)
    initial = model
    traces: list[EpochTrace] = []
    terminated = False
    for epoch in range(1, config.max_epochs + 1):
        trace, model = run_epoch(model, dataset, config, epoch)
        traces.append(trace)
        if trace.terminated:
            terminated = True
            break
        if trace.saturated:
            break
    return TrainingRun(config, dataset, initial, traces, model, terminated, product)


def _sqrt_upper(d: int) -> Fraction:
    """A rational upper bound on sqrt(d), tight to 1e-6."""
    scale = 10**6
    root = math.isqrt(d * scale * scale)
    return Fraction(root + 1, scale)


def reverse_radius_raw(step: FixedScalar, g_bound: Fraction, d: int) -> int:
    """Search ball radius in raw grid units around the post-step point.

    Covers step*G plus the half-step wobble that gradient quantization and
    the update rounding can each add per coordinate.
    """
    half = _sqrt_upper(d) / 2
    reach = step.value * (g_bound * step.grid.unit + half) + half
    return math.ceil(reach)


def _ball_offsets(d: int, radius: int) -> Iterator[tuple[int, ...]]:
    """Integer points with squared norm <= radius**2, ascending lexicographic."""
    r2 = radius * radius

    def rec(prefix: list[int], budget: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == d:
            yield tuple(prefix)
            return
        span = math.isqrt(budget)
        for o in range(-span, span + 1):
            prefix.append(o)
            yield from rec(prefix, budget - o * o)
            prefix.pop()

    yield from rec([], r2)


def ball_candidate_count(d: int, radius: int) -> int:
    """Upper bound on search candidates: the bounding cube."""
    return (2 * radius + 1) ** d


def reverse_step(
    target: FixedVector,
    batch,
    config: RunConfig,
    g_bound: Fraction,
    model_template: Model,
    step_index: Optional[int] = None,
) -> FixedVector:
    """Finds the unique predecessor weights mapping onto target via one step.

    Scans the grid ball around target in ascending lexicographic raw order,
    running the forward step for each candidate.  Exactly one hit is
    required; zero or several raise.
    """
    grid = target.grid
    radius = reverse_radius_raw(config.step, g_bound, len(target))
    if ball_candidate_count(len(target), radius) > config.ball_cap:
        raise ReverseSearchInfeasible(
            f"search cube holds more than {config.ball_cap} candidates",
            step_index,
        )
    hits: list[FixedVector] = []
    base = target.raws
    for off in _ball_offsets(len(target), radius):
        raws = tuple(w + o for w, o in zip(base, off))
        if any(r < grid.raw_min or r > grid.raw_max for r in raws):
            continue
        candidate = FixedVector(raws, grid)
        try:
            stepped, _ = forward_step(
                model_template.with_weights(candidate), batch, config.step
            )
        except SaturationError:
            continue
        if stepped.weights.raws == base:
            hits.append(candidate)
            if len(hits) > 1:
                raise MultiplePreimage(
                    f"two preimages found: {hits[0].raws} and {hits[1].raws}",
                    step_index,
                )
    if not hits:
        raise PreimageNotFound("no grid point maps onto the target", step_index)
    return hits[0]


def reverse_epoch(
    final_weights: FixedVector,
    batches: Sequence[Sequence[int]],
    dataset: Dataset,
    config: RunConfig,
    model_template: Model,
    g_bound: Optional[Fraction] = None,
) -> list[FixedVector]:
    """Recovers all checkpoints of an epoch from its final weights.

    Returns [W_1 .. W_{T+1}] where W_{T+1} equals final_weights and batches
    is the epoch's ordered batch list (batch j at index j-1).
    """
    g = gradient_norm_bound(config, dataset) if g_bound is None else g_bound
    current = final_weights
    out = [current]
    for j in range(len(batches), 0, -1):
        batch = dataset.subset(batches[j - 1])
        current = reverse_step(current, batch, config, g, model_template, j)
        out.append(current)
    out.reverse()
    return out


def write_trace_csv(traces: Sequence[EpochTrace], path: str) -> None:
    """CSV export; accuracies are exact rationals rendered as num/den."""

    def cell(v: Optional[Fraction]) -> str:
        if v is None:
            return ""
        return f"{v.numerator}/{v.denominator}"

    lines = ["epoch,j,lambda,lambda_prime,lambda_doubleprime,phi,batch_acc_before,terminated"]
    for tr in traces:
        flag = "true" if (tr.terminated or tr.saturated) else "false"
        for i in range(tr.steps_done + 1):
            cells = [cell(v) for v in tr.rates(i)]
            lines.append(",".join([str(tr.epoch), str(i + 1), *cells, flag]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def vector_to_bytes(vec: FixedVector) -> bytes:
    """Binary checkpoint: header (d, scale) as little-endian u32, then int64 raws."""
    head = struct.pack("<II", len(vec), vec.grid.scale)
    body = struct.pack(f"<{len(vec)}q", *vec.raws)
    return head + body


def vector_from_bytes(data: bytes, grid: GridSpec) -> FixedVector:
    if len(data) < 8:
        raise DomainError("checkpoint blob too short")
    d, scale = struct.unpack_from("<II", data)
    if scale != grid.scale:
        raise DomainError(f"scale mismatch: blob {scale}, grid {grid.scale}")
    if len(data) != 8 + 8 * d:
        raise DomainError("checkpoint blob length mismatch")
    raws = struct.unpack_from(f"<{d}q", data, 8)
    for r in raws:
        if r < grid.raw_min or r > grid.raw_max:
            raise DomainError("checkpoint mantissa outside clip range")
    return FixedVector(tuple(raws), grid)
