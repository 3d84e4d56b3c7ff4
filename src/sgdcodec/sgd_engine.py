"""Deterministic epoch SGD: shuffling, forward steps, statistics, reverse search.

Each epoch's visit order is a Fisher-Yates permutation drawn from a
splitmix64 stream keyed by (seed, epoch), so a run config pins down every
random choice.  ``forward_step`` returns the stepped model; a step whose
gradient or update clips raises ``SaturationError``, which ends its epoch
with ``EpochTrace.saturated`` set.  The reverse oracle recovers the unique
predecessor of a step from the contraction that step * L < 1 gives the
logistic-linear update: a fixed-point iteration lands near every
predecessor, and a scan of the grid ball whose radius that premise bounds
collects them all.  The scan runs the forward step only where Phi(w) = w
holds in integers, as it does at every forward hit, so the skip loses no
predecessor.

The step path counts in integers: the stop test compares correct counts,
and the reverse search's set-up holds step * L, its radius and its reach
as numerators over powers of the grid unit.  ``Fraction`` appears only in a
config's two rational fields, which ``harness.SETTINGS`` lists with the rest,
and where a value is reported: ``check_step_smoothness``'s product, a trace's
progress, a refused step's error text.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .model import (
    Dataset,
    Element,
    GeneratorSpec,
    Model,
    _linear_batch,
    _linear_sum,
    _max_sq_norm,
    _peak_sq_norm,
    _table_max_slope,
    correctness_mask,
    loss_gradient,
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


def _splitmix64_words(seed: int, epoch: int) -> Iterator[int]:
    """The 64-bit outputs of the splitmix64 stream keyed by (seed, epoch)."""
    # Distinct epochs get well-separated streams via a golden-ratio offset.
    state = (seed + epoch * GOLDEN64) & MASK64
    while True:
        state = (state + GOLDEN64) & MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def draw_permutation(n: int, words: Iterator[int]) -> tuple[int, ...]:
    """Fisher-Yates using rejection sampling on a stream of 64-bit words.

    The words are read as one MSB-first bit string.  Each swap index j in
    [0, i] is its next i.bit_length() bits, redrawing values above i, so the
    accepted draw is exactly uniform.
    """
    arr = list(range(n))
    buf = nbits = 0  # the nbits unread bits of the words taken so far
    for i in range(n - 1, 0, -1):
        width = i.bit_length()
        while True:
            while nbits < width:
                buf = buf << 64 | next(words)
                nbits += 64
            nbits -= width
            j = buf >> nbits
            buf ^= j << nbits
            if j <= i:
                break
        arr[i], arr[j] = arr[j], arr[i]
    return tuple(arr)


def draw_epoch_permutation(n: int, seed: int, epoch: int) -> tuple[int, ...]:
    """The visit order of one epoch, drawn from the (seed, epoch) stream."""
    return draw_permutation(n, _splitmix64_words(seed, epoch))


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
        if not 0 <= self.seed <= MASK64:  # the epoch draws read it mod 2**64
            raise DomainError("run seed must lie in [0, 2**64)")
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


def _step_l(step_raw: int, grid: GridSpec, sq_norm: int) -> int:
    """step * L for the logistic-linear loss, as a numerator over unit**4,
    where sq_norm is max|x|^2 in raw units squared.

    The loss is max|x|^2 * S smooth, where S bounds the slope of the sigmoid
    that training actually uses: the table's largest knot-to-knot slope at
    the grid scale, which exceeds the exact sigmoid's 1/4 below scale 8.
    """
    return step_raw * sq_norm * _table_max_slope(grid.scale)


def step_smoothness(
    step_raw: int, grid: GridSpec, elements: Iterable[Element]
) -> Fraction:
    """step * L for the logistic-linear loss over these elements."""
    sq_norm = _max_sq_norm(tuple(elements))
    return Fraction(_step_l(step_raw, grid, sq_norm), grid.unit**4)


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


class HitCounts(NamedTuple):
    """How many elements checkpoint i classifies correctly: of the whole
    visit order, of the i batches it has seen, of batch i-1, the batch it
    stepped on last (``after``; 0 at i = 0), and of batch i, the batch it
    steps on next (``before``; 0 at i = t).  The unseen count is full - seen.
    """

    full: int
    seen: int
    after: int
    before: int


@dataclass
class EpochTrace:
    """Everything recorded while running one epoch.

    Checkpoint i (0-based) is the model before step i+1; ``masks[i]`` is its
    correctness over the dataset, bit e set iff element e is classified
    correctly.  Checkpoint i has seen batches 0..i-1, stepped last on batch
    i-1 and steps next on batch i.  Every statistic is read from one count
    table, ``counts``: a ``HitCounts`` per checkpoint.
    """

    epoch: int
    batch_size: int
    order: tuple[int, ...]
    checkpoints: list[FixedVector] = field(default_factory=list)
    masks: list[int] = field(default_factory=list)
    terminated: bool = False
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

    @cached_property
    def batches(self) -> tuple[tuple[int, ...], ...]:
        b = self.batch_size
        return tuple(
            tuple(self.order[k : k + b]) for k in range(0, self.n, b)
        )

    @cached_property
    def prefix_masks(self) -> tuple[int, ...]:
        """Mask of the first k batches of the visit order, for k = 0..num_batches."""
        out, acc = [0], 0
        for batch in self.batches:
            for e in batch:
                acc |= 1 << e
            out.append(acc)
        return tuple(out)

    @cached_property
    def counts(self) -> list[HitCounts]:
        """The count table: checkpoint i's ``HitCounts`` at index i.

        Built on first read, four popcounts per checkpoint, so a trace whose
        statistics are never read never pays for it.  It is read once the
        epoch has run; a checkpoint recorded after that is not in it.
        """
        prefix, t = self.prefix_masks, self.num_batches
        every = prefix[t]
        return [
            HitCounts(
                (mask & every).bit_count(),
                (mask & prefix[i]).bit_count(),
                (mask & (prefix[i] ^ prefix[i - 1])).bit_count() if i else 0,
                (mask & (prefix[i + 1] ^ prefix[i])).bit_count() if i < t else 0,
            )
            for i, mask in enumerate(self.masks)
        ]

    def rates(self, i: int) -> tuple[Optional[tuple[int, int]], ...]:
        """(full, seen, unseen, batch after, batch before) at checkpoint i,
        each accuracy as its (hits, elements) counts.

        None marks an empty subset: nothing seen yet at i = 0, nothing left
        once the whole order is seen.  A checkpoint outside the trace raises
        DomainError.
        """
        if not 0 <= i < len(self.masks):
            raise DomainError(f"rates({i}) outside the trace")
        t, b = self.num_batches, self.batch_size
        full, seen, after, before = self.counts[i]
        return (
            (full, t * b) if t else None,
            (seen, i * b) if i else None,
            (full - seen, (t - i) * b) if i < t else None,
            (after, b) if i else None,
            (before, b) if i < t else None,
        )

    def gained(self) -> int:
        """The net count of batch elements the steps turned correct."""
        rows = self.counts[: self.steps_done + 1]
        return sum(row.after for row in rows) - sum(row.before for row in rows[:-1])

    def progress(self) -> Fraction:
        """Measured epoch progress: ``gained()`` over n."""
        return Fraction(self.gained(), self.n)


def _record_checkpoint(
    trace: EpochTrace, model: Model, dataset: Dataset, carry: Optional[list]
) -> int:
    """Appends one checkpoint and its correctness mask; returns how many
    elements it classifies correctly."""
    mask = correctness_mask(model, dataset, carry)
    trace.checkpoints.append(model.weights)
    trace.masks.append(mask)
    return mask.bit_count()


def forward_step(model: Model, batch, step_raw: int) -> Model:
    """One GD step of size step_raw * 2**-scale: the stepped model.

    Raises SaturationError if the gradient or the update clips.
    """
    grad = loss_gradient(model, batch)
    return model.with_weights(model.weights.gd_update(step_raw, grad))


def run_epoch(
    model: Model, dataset: Dataset, config: RunConfig, epoch: int,
    carry: Optional[list] = None,
) -> tuple[EpochTrace, Model]:
    """Runs one epoch; the trace stops early on termination or saturation.
    ``carry`` is ``correctness_mask``'s carry from earlier epochs on ``dataset``."""
    order = draw_epoch_permutation(dataset.n, config.seed, epoch)
    trace = EpochTrace(epoch, config.batch_size, order)
    # accuracy correct/n >= 1 - eps, as correct * den >= (den - num) * n
    den = config.eps.denominator
    stop = (den - config.eps.numerator) * dataset.n
    correct = _record_checkpoint(trace, model, dataset, carry)
    batches = trace.batches
    for j in range(1, config.num_batches + 1):
        if correct * den >= stop:
            trace.terminated = True
            break
        batch = dataset.subset(batches[j - 1])
        try:
            model = forward_step(model, batch, config.step_raw)
        except SaturationError:
            trace.saturated = True
            break
        correct = _record_checkpoint(trace, model, dataset, carry)
    return trace, model


@dataclass
class TrainingRun:
    config: RunConfig
    dataset: Dataset
    traces: list[EpochTrace]
    final_model: Model

    @property
    def terminated(self) -> bool:
        """Whether the accuracy target stopped the run, at its last epoch."""
        return self.traces[-1].terminated

    @property
    def completed_traces(self) -> list[EpochTrace]:
        return [t for t in self.traces if t.completed]

    @property
    def final_accuracy(self) -> Fraction:
        last = self.traces[-1]
        return Fraction(last.masks[-1].bit_count(), last.n)


def train_epochs(
    config: RunConfig, dataset: Dataset
) -> Iterator[tuple[EpochTrace, Model]]:
    """The training loop: yields each epoch's trace and the model it ended on
    as that epoch ends, and stops after the epoch that hits the accuracy
    target or saturates, or after max_epochs.

    A consumer may act on each epoch before the next one trains and stop
    there; ``run_training`` collects every epoch.
    """
    check_step_smoothness(config, dataset)
    model = zero_model(config.model_kind, dataset.dim, config.grid, config.hidden_width)
    carry: list = []
    for epoch in range(1, config.max_epochs + 1):
        trace, model = run_epoch(model, dataset, config, epoch, carry)
        yield trace, model
        if trace.terminated or trace.saturated:
            return


def run_training(config: RunConfig, dataset: Dataset) -> TrainingRun:
    """Runs epochs until the accuracy target is hit or max_epochs expire.

    It collects every epoch that ``train_epochs`` yields into one
    ``TrainingRun``.  The harness consumes ``train_epochs`` itself, so that
    a failing round trip stops training at its epoch; ``sgdcodec decode``
    reruns training through this.
    """
    traces: list[EpochTrace] = []
    for trace, model in train_epochs(config, dataset):
        traces.append(trace)
    return TrainingRun(config, dataset, traces, model)


@lru_cache(maxsize=32)
def _ball_offsets(d: int, r2: int) -> tuple[tuple[int, ...], ...]:
    """Integer points with squared norm <= r2, ascending lexicographic.

    Memoized: a chain of reverse steps on one batch size and grid asks for
    the same few balls again and again."""

    def rec(prefix: list[int], budget: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == d:
            yield tuple(prefix)
            return
        span = math.isqrt(budget)
        for o in range(-span, span + 1):
            prefix.append(o)
            yield from rec(prefix, budget - o * o)
            prefix.pop()

    return tuple(rec([], r2))


def _reverse_setup(
    step_raw: int, grid: GridSpec, sq_norm: int, d: int
) -> tuple[int, int, int, int, int]:
    """The reverse search's bounds for max|x|^2 = sq_norm raw units squared, in integers.

    Returns q = step * L as (q_num, q_den = unit**4), floor(rho**2) in raw
    units, and (step * max|x|)**2 in raw units as (reach_num, reach_den);
    each search iteration multiplies the reach by q**2.  Raises unless q < 1.
    """
    q_num, q_den = _step_l(step_raw, grid, sq_norm), grid.unit**4
    if q_num >= q_den:
        q = Fraction(q_num, q_den)
        raise PreconditionError(f"step*smoothness = {q} >= 1 on this batch")
    # rho**2 = ((step_raw + unit) / unit)**2 * d / ((q_den - q_num) / q_den)**2
    spread = (step_raw + grid.unit) ** 2 * d * grid.unit**6
    rho2 = spread // (q_den - q_num) ** 2
    return q_num, q_den, rho2, step_raw**2 * sq_norm, grid.unit**2


def _pull(terms: tuple, w: tuple, base: tuple, step_raw: int, grid: GridSpec) -> tuple:
    """Phi(w) = base + round(step * g(w)) in raws, g the rounded, unclipped gradient.

    The mean's rounding (``_mean_raws``) and the step's (``gd_update``) run
    in one pass over the gradient's nonzero coordinates."""
    total, exp = _linear_sum(terms, w, grid.scale)
    den, unit = len(terms[2]) << (exp - grid.scale), grid.unit
    pulled = list(base)
    for i in compress(range(len(total)), total):
        pulled[i] += div_round_half_even(step_raw * div_round_half_even(total[i], den), unit)
    return tuple(pulled)


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
    tests Phi(w) = w in integers, and runs the forward step only where that
    holds.  That is exact: a forward step onto target that does not raise
    clipped nothing, so w - round(step * g(w)) = target, i.e. Phi(w) = w.
    Exactly one hit is required; zero or several raise.  Only
    logistic-linear has a proven L.
    """
    if model_template.kind != "logistic-linear":
        raise PreconditionError(f"no smoothness bound for {model_template.kind}")
    grid, step_raw = target.grid, config.step_raw
    terms = _linear_batch(model_template.with_weights(target), batch)
    q_num, q_den, rho2, reach_num, reach_den = _reverse_setup(
        step_raw, grid, _peak_sq_norm(*terms[:2]), len(target)
    )
    base = w = target.raws
    pulls = {}  # Phi at each iterate, so the scan does not redo the last one
    while True:
        pulls[w] = pulled = _pull(terms, w, base, step_raw, grid)
        if pulled == w:
            r2 = rho2
            break
        if reach_num <= reach_den:
            r2 = (math.isqrt(rho2) + 2) ** 2  # > (rho + 1)**2
            break
        w = pulled
        reach_num *= q_num * q_num
        reach_den *= q_den * q_den
    hits: list[FixedVector] = []
    for off in _ball_offsets(len(target), r2):
        raws = tuple(map(operator.add, w, off))
        if not grid.holds(raws):
            continue
        if (pulls.get(raws) or _pull(terms, raws, base, step_raw, grid)) != raws:
            continue
        candidate = FixedVector(raws, grid)
        try:
            stepped = forward_step(model_template.with_weights(candidate), batch, step_raw)
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
