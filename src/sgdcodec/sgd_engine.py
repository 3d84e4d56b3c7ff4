"""Deterministic epoch SGD: shuffling, forward steps, statistics, reverse search.

Each epoch's visit order is a Fisher-Yates permutation drawn from a
splitmix64 stream keyed by (seed, epoch), so a run config pins down every
random choice.  The reverse oracle recovers the unique predecessor of a step
from the contraction that step * L < 1 gives the logistic-linear update: a
fixed-point iteration lands near every predecessor, and a scan of the grid
ball whose radius that premise bounds collects them all.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .model import (
    Dataset,
    Element,
    GeneratorSpec,
    Model,
    analytic_logistic_smoothness,
    correctness_mask,
    loss_gradient,
    manifest_fraction,
    manifest_int,
    rounded_gradient,
    sigmoid_table_max_slope,
    weight_count,
    zero_model,
    MODEL_KINDS,
)
from .numerics import (
    DomainError,
    FixedVector,
    GridSpec,
    PreconditionError,
    SaturationError,
    div_round_half_even,
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


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 draw: returns (next_state, 64-bit output)."""
    state = (state + GOLDEN64) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


class BitTape:
    """MSB-first bit source backed by splitmix64."""

    def __init__(self, seed: int, epoch: int) -> None:
        # Distinct epochs get well-separated streams via a golden-ratio offset.
        self._state = (seed + epoch * GOLDEN64) & MASK64
        self._buf = 0
        self._buf_len = 0

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
        return value


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


def draw_epoch_permutation(n: int, seed: int, epoch: int) -> tuple[int, ...]:
    """The visit order of one epoch, drawn from the (seed, epoch) stream."""
    return draw_permutation(n, BitTape(seed, epoch))


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
        if self.model_kind == "logistic-linear" and self.hidden_width:
            raise DomainError("logistic-linear has no hidden layer: hidden_width must be 0")

    @property
    def n(self) -> int:
        return self.generator.n

    @property
    def dim(self) -> int:
        return self.generator.dim

    @property
    def d(self) -> int:
        return weight_count(self.model_kind, self.dim, self.hidden_width)

    @property
    def num_batches(self) -> int:
        return self.n // self.batch_size

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
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        return cls(
            generator=GeneratorSpec.from_dict(d["generator"]),
            batch_size=manifest_int(d, "batch_size"),
            step_raw=manifest_int(d, "step_raw"),
            eps=manifest_fraction(d, "eps"),
            progress_coeff=manifest_fraction(d, "progress_coeff"),
            seed=manifest_int(d, "seed"),
            max_epochs=manifest_int(d, "max_epochs"),
            model_kind=d.get("model_kind", "logistic-linear"),
            hidden_width=manifest_int(d, "hidden_width", 0),
            grid=GridSpec(manifest_int(d, "scale"), manifest_int(d, "clip")),
        )


def _step_l(step_raw: int, grid: GridSpec, sq_norm: Fraction) -> Fraction:
    """step * L for the logistic-linear loss where max|x|^2 = sq_norm.

    The loss is max|x|^2 * S smooth, where S bounds the slope of the sigmoid
    that training actually uses: the table's largest knot-to-knot slope at
    the grid scale, which exceeds the exact sigmoid's 1/4 below scale 8.
    """
    slope = sigmoid_table_max_slope(grid.scale)
    return Fraction(step_raw, grid.unit) * sq_norm * slope


def step_smoothness(
    step_raw: int, grid: GridSpec, elements: Iterable[Element]
) -> Fraction:
    """step * L for the logistic-linear loss over these elements."""
    return _step_l(step_raw, grid, 4 * analytic_logistic_smoothness(elements))


def check_step_smoothness(config: RunConfig, dataset: Dataset) -> Fraction:
    """Validates step * smoothness < 1 over the whole dataset and returns it.

    Other model kinds are accepted as-is because no closed-form constant is
    available for them here; STRICT mode refuses them.
    """
    if config.model_kind != "logistic-linear":
        return Fraction(0)
    product = step_smoothness(config.step_raw, config.grid, dataset.elements)
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
    correctly.  Every statistic is a count, ``hits(i, lo, hi)``: the popcount
    of ``masks[i]`` over batches lo..hi-1 of the visit order.  Checkpoint i
    has seen batches 0..i-1, stepped last on batch i-1 and steps next on
    batch i.
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

    @cached_property
    def prefix_masks(self) -> tuple[int, ...]:
        """Mask of the first k batches of the visit order, for k = 0..num_batches."""
        out = [0]
        for batch in self.batches:
            out.append(out[-1] | sum(1 << e for e in batch))
        return tuple(out)

    def hits(self, i: int, lo: int, hi: int) -> int:
        """How many elements of batches lo..hi-1 of the visit order checkpoint
        i classifies correctly."""
        if not (0 <= i < len(self.masks) and 0 <= lo <= hi <= self.num_batches):
            raise DomainError(f"hits({i}, {lo}, {hi}) outside the trace")
        prefix = self.prefix_masks
        return (self.masks[i] & (prefix[hi] ^ prefix[lo])).bit_count()

    def rate(self, i: int, lo: int, hi: int) -> Optional[Fraction]:
        """Accuracy at checkpoint i over batches lo..hi-1 of the visit order;
        None for an empty span or one outside [0, num_batches]."""
        if not (0 <= lo < hi <= self.num_batches):
            return None
        return Fraction(self.hits(i, lo, hi), (hi - lo) * self.batch_size)

    def rates(self, i: int) -> tuple[Optional[Fraction], ...]:
        """(full, seen, unseen, batch after, batch before) at checkpoint i.

        None marks an empty subset: nothing seen yet at i = 0, nothing left
        once the whole order is seen.
        """
        t = self.num_batches
        spans = ((0, t), (0, i), (i, t), (i - 1, i), (i, i + 1))
        return tuple(self.rate(i, lo, hi) for lo, hi in spans)

    def progress(self) -> Fraction:
        """Measured epoch progress: the net count of batch elements each step
        turned correct, over n."""
        gained = sum(
            self.hits(i, i - 1, i) - self.hits(i - 1, i - 1, i)
            for i in range(1, self.steps_done + 1)
        )
        return Fraction(gained, self.n)


def _record_checkpoint(trace: EpochTrace, model: Model, dataset: Dataset) -> Fraction:
    """Appends one checkpoint and its correctness mask; returns full accuracy."""
    mask = correctness_mask(model, dataset)
    trace.checkpoints.append(model.weights)
    trace.masks.append(mask)
    return Fraction(mask.bit_count(), trace.n)


def forward_step(model: Model, batch, step_raw: int) -> tuple[Model, FixedVector]:
    """One GD step of size step_raw * 2**-scale.

    Returns the new model and the quantized gradient applied.
    """
    grad = loss_gradient(model, batch)
    new_weights = model.weights.gd_update(step_raw, grad)
    if new_weights.saturated:
        raise SaturationError("weight update clipped")
    return model.with_weights(new_weights), grad


def run_epoch(
    model: Model, dataset: Dataset, config: RunConfig, epoch: int
) -> tuple[EpochTrace, Model]:
    """Runs one epoch; the trace stops early on termination or saturation."""
    order = draw_epoch_permutation(dataset.n, config.seed, epoch)
    trace = EpochTrace(epoch, config.batch_size, order)
    lam = _record_checkpoint(trace, model, dataset)
    batches = trace.batches
    for j in range(1, config.num_batches + 1):
        if lam >= 1 - config.eps:
            trace.terminated = True
            trace.terminated_at = j
            break
        batch = dataset.subset(batches[j - 1])
        try:
            model, _ = forward_step(model, batch, config.step_raw)
        except SaturationError:
            trace.saturated = True
            break
        lam = _record_checkpoint(trace, model, dataset)
    return trace, model


@dataclass
class TrainingRun:
    config: RunConfig
    dataset: Dataset
    traces: list[EpochTrace]
    final_model: Model
    terminated: bool

    @property
    def completed_traces(self) -> list[EpochTrace]:
        return [t for t in self.traces if t.completed]

    @property
    def epochs_completed(self) -> int:
        return len(self.completed_traces)

    @property
    def final_accuracy(self) -> Fraction:
        last = self.traces[-1]
        return Fraction(last.masks[-1].bit_count(), last.n)


def run_training(config: RunConfig, dataset: Optional[Dataset] = None) -> TrainingRun:
    """Runs epochs until the accuracy target is hit or max_epochs expire."""
    if dataset is None:
        from .model import generate_dataset

        dataset = generate_dataset(config.generator, config.grid)
    check_step_smoothness(config, dataset)
    model = zero_model(config.model_kind, dataset.dim, config.grid, config.hidden_width)
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
    return TrainingRun(config, dataset, traces, model, terminated)


def _ball_offsets(d: int, r2: int) -> Iterator[tuple[int, ...]]:
    """Integer points with squared norm <= r2, ascending lexicographic."""

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


def reverse_step(
    target: FixedVector,
    batch: Sequence[Element],
    config: RunConfig,
    model_template: Model,
    step_index: Optional[int] = None,
) -> FixedVector:
    """Finds the unique predecessor weights mapping onto target via one step.

    Every predecessor w is a fixed point of Phi(w) = target + round(step *
    g_q(w)).  With q = step * L < 1 over the batch, Phi contracts by q up to
    a rounding wobble of delta = (step + 1) / 2 raw units per coordinate, so
    any two fixed points lie within rho = 2 delta sqrt(d) / (1 - q) of each
    other.  The search iterates Phi from the target until it meets a fixed
    point, or until q**k * step * max|x| <= 1 raw unit, which puts every
    predecessor within rho + 1 of the last iterate.  It then scans that ball
    (radius rho around a fixed point) in ascending lexicographic raw order,
    running the forward step for each candidate.  Exactly one hit is
    required; zero or several raise.  Only logistic-linear has a proven L.
    """
    if model_template.kind != "logistic-linear":
        raise PreconditionError(f"no smoothness bound for {model_template.kind}")
    grid = target.grid
    step_raw = config.step_raw
    sq_norm = 4 * analytic_logistic_smoothness(batch)
    q = _step_l(step_raw, grid, sq_norm)
    if q >= 1:
        raise PreconditionError(f"step*smoothness = {q} >= 1 on this batch")
    # squared radii in raw units: rho, and q**k * step * max|x| at k = 0
    rho2 = (Fraction(step_raw, grid.unit) + 1) ** 2 * len(target) / (1 - q) ** 2
    reach2 = step_raw**2 * sq_norm
    base = target.raws
    w = base
    while True:
        model = model_template.with_weights(FixedVector(w, grid))
        pulled = tuple(
            t + div_round_half_even(step_raw * g, grid.unit)
            for t, g in zip(base, rounded_gradient(model, batch))
        )
        if pulled == w:
            r2 = math.floor(rho2)
            break
        if reach2 <= 1:
            r2 = (math.isqrt(math.floor(rho2)) + 2) ** 2  # > (rho + 1)**2
            break
        w = pulled
        reach2 *= q * q
    hits: list[FixedVector] = []
    for off in _ball_offsets(len(target), r2):
        raws = tuple(c + o for c, o in zip(w, off))
        if not grid.holds(raws):
            continue
        candidate = FixedVector(raws, grid)
        try:
            stepped, _ = forward_step(
                model_template.with_weights(candidate), batch, step_raw
            )
        except SaturationError:
            continue
        if stepped.weights.raws == base:
            hits.append(candidate)
    if not hits:
        raise PreimageNotFound("no grid point maps onto the target", step_index)
    if len(hits) > 1:
        raise MultiplePreimage(
            f"{len(hits)} preimages found: {hits[0].raws} and {hits[1].raws}",
            step_index,
        )
    return hits[0]


def reverse_epoch(
    final_weights: FixedVector,
    batches: Sequence[Sequence[int]],
    dataset: Dataset,
    config: RunConfig,
    model_template: Model,
) -> list[FixedVector]:
    """Recovers all checkpoints of an epoch from its final weights.

    Returns [W_1 .. W_{T+1}] where W_{T+1} equals final_weights and batches
    is the epoch's ordered batch list (batch j at index j-1).  Each step back
    is one ``reverse_step``, so its errors carry the 1-based step index.
    """
    current = final_weights
    out = [current]
    for j in range(len(batches), 0, -1):
        batch = dataset.subset(batches[j - 1])
        current = reverse_step(current, batch, config, model_template, j)
        out.append(current)
    out.reverse()
    return out


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
    if not grid.holds(raws):
        raise DomainError("checkpoint mantissa outside clip range")
    return FixedVector(tuple(raws), grid)
