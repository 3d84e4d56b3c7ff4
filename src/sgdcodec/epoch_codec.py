"""Two-branch codec for epoch permutations, with exact bit accounting.

An epoch's visit order is compressed against the training run itself.  When
some prefix/suffix statistic diverges (seen vs unseen accuracy), the order is
split at that point and the two halves are coded through the mid-epoch
checkpoint classifier.  Otherwise the batches are coded last to first, each
conditioned on the accuracy pattern of the model that had just stepped on it.
Every set here is an int bitmask over element ids: the encoder reads pools
and batches off ``EpochTrace.prefix_masks`` and classifiers off
``EpochTrace.masks``, and the decoder peels each batch off its pool with XOR.

The decoder walks the epoch's checkpoint chain backward from one source, a
``SideInfo`` whose checkpoints end with the epoch's last one.  ACCOUNTING
hands over the whole chain and the walk looks each checkpoint up; STRICT
hands over the last checkpoint alone and the walk rebuilds every earlier one
by reverse search.

Every field has a declared width and the total is checked against an
independent width prediction derived from trace statistics alone, so the
reported bit counts cannot drift from the actual streams.  ``epoch_accounting``
measures an epoch as an ``AccountRow``, which ``harness`` writes to ``report.csv``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .codec import (
    BitStream,
    CodecError,
    binomial,
    ceil_log2,
    decode_set_conditional,
    encode_set_conditional,
    perm_rank,
    perm_unrank,
)
from .model import Dataset, Model, correctness_mask, zero_model
from .numerics import DomainError, FixedVector
from .sgd_engine import (
    EpochTrace,
    RunConfig,
    reverse_epoch,
    reverse_step,
)
from .stable import LOG2_E, stable_ln, stable_log2

ACCOUNTING = "ACCOUNTING"
STRICT = "STRICT"
SPLIT = "SPLIT"
BACKWARD = "BACKWARD"

# STRICT mode embeds checkpoints and unwinds every step by reverse search, so
# it is only permitted at desk scale.  The scale cap also keeps the search's
# premise: up to scale 10 the sigmoid table ends on exact 0 and 1 knots, so
# its largest knot slope is a true Lipschitz bound.
STRICT_MAX_N = 64
STRICT_MAX_D = 2
STRICT_MAX_SCALE = 8

EPC_MAGIC = b"EPC1"


def _exact_count(rate: Fraction, total: int) -> int:
    v = rate * total
    if v.denominator != 1:
        raise CodecError(f"rate {rate} over {total} elements is not a count")
    return v.numerator


def _template(dataset: Dataset, config: RunConfig) -> Model:
    return zero_model(config.model_kind, dataset.dim, config.grid, config.hidden_width)


def check_strict_limits(config: RunConfig, error: type[Exception] = CodecError) -> None:
    """Raises ``error`` unless the STRICT reverse search fits this config.

    The search rests on step * L < 1, and only logistic-linear has a proven L.
    """
    if config.model_kind != "logistic-linear":
        raise error(
            f"STRICT mode refused for {config.model_kind}: no proven smoothness bound"
        )
    n, d, scale = config.n, config.d, config.grid.scale
    if n > STRICT_MAX_N or d > STRICT_MAX_D or scale > STRICT_MAX_SCALE:
        raise error(
            f"STRICT mode refused at n={n}, d={d}, scale={scale}: reverse "
            f"search is only feasible up to n={STRICT_MAX_N}, d={STRICT_MAX_D}, "
            f"scale={STRICT_MAX_SCALE}"
        )


@dataclass(frozen=True)
class CaseSelector:
    """Window scan outcome: which branch encodes this epoch and why."""

    window_start: int
    window_end: int
    degenerate: bool
    case: str
    split_j: Optional[int]
    witness_gap: Optional[Fraction]


def select_case(trace: EpochTrace, beta: Fraction) -> CaseSelector:
    """Picks SPLIT at the first window position with a quarter-threshold gap.

    The window is [ceil(beta*n/8b)+1, floor((1-beta/8)*n/b)+1], additionally
    clamped to positions where both prefix and suffix accuracies exist.  An
    empty window forces BACKWARD with the degenerate flag set.
    """
    if not trace.completed:
        raise DomainError("case selection needs a completed epoch")
    n, b, t = trace.n, trace.batch_size, trace.num_batches
    j_start = math.ceil(beta * Fraction(n, 8 * b)) + 1
    j_final = math.floor((1 - beta / 8) * Fraction(n, b)) + 1
    lo = max(j_start, 2)
    hi = min(j_final, t)
    if lo > hi:
        return CaseSelector(j_start, j_final, True, BACKWARD, None, None)
    for j in range(lo, hi + 1):
        gap = abs(trace.seen(j) - trace.unseen(j))
        if gap >= beta / 4:
            return CaseSelector(j_start, j_final, False, SPLIT, j, gap)
    return CaseSelector(j_start, j_final, False, BACKWARD, None, None)


def choose_split_side(trace: EpochTrace, j: int) -> int:
    """0 to encode the seen prefix set, 1 for the unseen suffix set.

    Picks the side with the larger size-weighted squared divergence from the
    full-set accuracy, which is the side the conditional codec compresses
    harder; ties go to the prefix.
    """
    seen, unseen = _split_divergences(trace, j)
    return 0 if seen >= unseen else 1


def _split_divergences(trace: EpochTrace, j: int) -> tuple[Fraction, Fraction]:
    """gamma*d_seen^2 and (1-gamma)*d_unseen^2 at split position j, where gamma
    is the seen share and d_* a set's accuracy minus the full-set accuracy."""
    gamma = Fraction((j - 1) * trace.batch_size, trace.n)
    d_seen = trace.seen(j) - trace.full(j)
    d_unseen = trace.unseen(j) - trace.full(j)
    return gamma * d_seen**2, (1 - gamma) * d_unseen**2


@dataclass(frozen=True)
class SideInfo:
    """The checkpoint source the decoder walks: ``checkpoints`` ends with the
    epoch's last checkpoint W_{T+1}, and holds the whole chain W_1 .. W_{T+1}
    in ACCOUNTING but W_{T+1} alone in STRICT."""

    mode: str
    checkpoints: tuple[FixedVector, ...]

    @classmethod
    def of(cls, mode: str, checkpoints: Sequence[FixedVector]) -> "SideInfo":
        """The side info ``mode`` allows out of an epoch's full chain."""
        if mode == STRICT:
            return cls(STRICT, (checkpoints[-1],))
        if mode == ACCOUNTING:
            return cls(ACCOUNTING, tuple(checkpoints))
        raise DomainError(f"unknown mode {mode!r}")


@dataclass
class EpochCode:
    epoch: int
    n: int
    batch_size: int
    case: str
    split_j: Optional[int]
    side: Optional[int]
    selector: CaseSelector
    stream: BitStream
    segments: tuple[tuple[str, int], ...]

    @property
    def measured_bits(self) -> int:
        return len(self.stream)

    @property
    def stream_model_bits(self) -> int:
        return sum(w for label, w in self.segments if label == "model")


def epoch_target_bits(n: int, num_batches: int, beta: Fraction) -> float:
    """Per-epoch compression target: n*(log2(n/e) - beta^3/512) plus slack."""
    log2_n = stable_log2(n)
    main = n * (log2_n - LOG2_E) - float(_model_charge_budget(n, beta))
    return main + _slack_bits(num_batches, log2_n)


def _model_charge_budget(n: int, beta: Fraction) -> Fraction:
    """n*beta^3/512: the most a SPLIT epoch's checkpoint may be charged."""
    return Fraction(n) * beta**3 / 512


def _slack_bits(num_batches: int, log2_n: float) -> float:
    """4*(n/b + 2)*log2(n): absorbs every header, ceiling, and Stirling
    correction the exact stream carries."""
    return 4.0 * (num_batches + 2) * log2_n


def _write_model_field(stream: BitStream, weights: FixedVector) -> int:
    grid = weights.grid
    for raw in weights.raws:
        stream.write_uint(raw - grid.raw_min, grid.coord_bits)
    return len(weights) * grid.coord_bits


def _read_model_field(stream: BitStream, config: RunConfig) -> FixedVector:
    grid = config.grid
    raws = tuple(
        stream.read_uint(grid.coord_bits) + grid.raw_min for _ in range(config.d)
    )
    return FixedVector(raws, grid)


def encode_epoch(
    trace: EpochTrace,
    dataset: Dataset,
    config: RunConfig,
    mode: str = ACCOUNTING,
) -> EpochCode:
    """Encodes one completed epoch's permutation as a self-delimiting stream."""
    if mode not in (ACCOUNTING, STRICT):
        raise DomainError(f"unknown mode {mode!r}")
    if not trace.completed:
        raise CodecError("cannot encode an incomplete epoch")
    if mode == STRICT:
        check_strict_limits(config)
    selector = select_case(trace, config.progress_floor)
    stream = BitStream()
    segments: list[tuple[str, int]] = []
    if selector.case == SPLIT:
        assert selector.split_j is not None
        side = choose_split_side(trace, selector.split_j)
        _encode_split(stream, segments, trace, selector.split_j, side, mode)
    else:
        side = None
        _encode_backward(stream, segments, trace)
    declared = sum(w for _, w in segments)
    if declared != len(stream):
        raise CodecError(
            f"declared widths sum to {declared} but stream holds {len(stream)} bits"
        )
    return EpochCode(
        epoch=trace.epoch,
        n=trace.n,
        batch_size=trace.batch_size,
        case=selector.case,
        split_j=selector.split_j,
        side=side,
        selector=selector,
        stream=stream,
        segments=tuple(segments),
    )


def _encode_split(
    stream: BitStream,
    segments: list[tuple[str, int]],
    trace: EpochTrace,
    j: int,
    side: int,
    mode: str,
) -> None:
    n, b, t = trace.n, trace.batch_size, trace.num_batches
    stream.write_uint(1, 1)
    segments.append(("case", 1))
    jw = ceil_log2(t)
    stream.write_uint(j - 2, jw)
    segments.append(("split_j", jw))
    stream.write_uint(side, 1)
    segments.append(("side", 1))
    if mode == STRICT:
        segments.append(("model", _write_model_field(stream, trace.checkpoints[j - 1])))
    m = (j - 1) * b
    everything, seen = trace.prefix_masks[-1], trace.prefix_masks[j - 1]
    target = seen if side == 0 else everything ^ seen
    info = encode_set_conditional(stream, target, everything, trace.masks[j - 1])
    segments.append(("set_sizes", 2 * info.size_header_bits))
    segments.append(("set_rank_pos", info.rank_ones_bits))
    segments.append(("set_rank_neg", info.rank_zeros_bits))
    left_w = ceil_log2(math.factorial(m))
    stream.write_uint(perm_rank(trace.order[:m]), left_w)
    segments.append(("perm_left", left_w))
    right_w = ceil_log2(math.factorial(n - m))
    stream.write_uint(perm_rank(trace.order[m:]), right_w)
    segments.append(("perm_right", right_w))


def _encode_backward(
    stream: BitStream, segments: list[tuple[str, int]], trace: EpochTrace
) -> None:
    b, t = trace.batch_size, trace.num_batches
    stream.write_uint(0, 1)
    segments.append(("case", 1))
    batches, prefix = trace.batches, trace.prefix_masks
    perm_w = ceil_log2(math.factorial(b))
    for j in range(t, 0, -1):
        batch, pool = prefix[j] ^ prefix[j - 1], prefix[j]
        info = encode_set_conditional(stream, batch, pool, trace.masks[j])
        tag = f"b{j:03d}"
        segments.append((f"{tag}_sizes", 2 * info.size_header_bits))
        segments.append((f"{tag}_rank_pos", info.rank_ones_bits))
        segments.append((f"{tag}_rank_neg", info.rank_zeros_bits))
        stream.write_uint(perm_rank(batches[j - 1]), perm_w)
        segments.append((f"{tag}_perm", perm_w))


def predict_segments(
    trace: EpochTrace,
    config: RunConfig,
    selector: CaseSelector,
    mode: str = ACCOUNTING,
) -> tuple[tuple[str, int], ...]:
    """Recomputes every field width from trace statistics alone.

    Must equal the encoder's declared segments; the accounting identity test
    relies on this being an independent derivation (counts come from the
    recorded accuracies, never from the stream).
    """
    n, b, t = trace.n, trace.batch_size, trace.num_batches
    segs: list[tuple[str, int]] = [("case", 1)]
    if selector.case == SPLIT:
        j = selector.split_j
        assert j is not None
        segs.append(("split_j", ceil_log2(t)))
        segs.append(("side", 1))
        if mode == STRICT:
            segs.append(("model", config.d * config.grid.coord_bits))
        m = (j - 1) * b
        ones_total = _exact_count(trace.full(j), n)
        if choose_split_side(trace, j) == 0:
            size, k1 = m, _exact_count(trace.seen(j), m)
        else:
            size, k1 = n - m, _exact_count(trace.unseen(j), n - m)
        wh = ceil_log2(size + 1)
        segs.append(("set_sizes", 2 * wh))
        segs.append(("set_rank_pos", ceil_log2(binomial(ones_total, k1))))
        segs.append(
            ("set_rank_neg", ceil_log2(binomial(n - ones_total, size - k1)))
        )
        segs.append(("perm_left", ceil_log2(math.factorial(m))))
        segs.append(("perm_right", ceil_log2(math.factorial(n - m))))
    else:
        wh = ceil_log2(b + 1)
        pw = ceil_log2(math.factorial(b))
        for j in range(t, 0, -1):
            pool = j * b
            n1 = _exact_count(trace.seen(j + 1), pool)
            k1 = _exact_count(trace.batch_after(j + 1), b)
            tag = f"b{j:03d}"
            segs.append((f"{tag}_sizes", 2 * wh))
            segs.append((f"{tag}_rank_pos", ceil_log2(binomial(n1, k1))))
            segs.append((f"{tag}_rank_neg", ceil_log2(binomial(pool - n1, b - k1))))
            segs.append((f"{tag}_perm", pw))
    return tuple(segs)


@dataclass(frozen=True)
class DecodeResult:
    """The decoded visit order and the checkpoint chain W_1 .. W_{T+1} walked
    to decode it: the side info's own list in ACCOUNTING, the chain recovered
    by reverse search in STRICT."""

    order: tuple[int, ...]
    checkpoints: tuple[FixedVector, ...]

    def chain_matches(self, checkpoints: Sequence[FixedVector]) -> bool:
        """Whether the walked chain is exactly these checkpoints."""
        return [w.raws for w in self.checkpoints] == [w.raws for w in checkpoints]


def decode_epoch(
    code: Union[EpochCode, BitStream],
    dataset: Dataset,
    config: RunConfig,
    side: SideInfo,
) -> DecodeResult:
    """Reconstructs the epoch's exact visit order from the stream.

    Both modes walk the checkpoint chain backward from the side info's last
    checkpoint, which must hold T+1 checkpoints in ACCOUNTING and one in
    STRICT.  ACCOUNTING looks each earlier checkpoint up in the list; STRICT
    recovers it by reverse search, one step at a time or, once a SPLIT
    order is known, over the whole epoch.
    """
    stream = code.stream if isinstance(code, EpochCode) else code
    stream.reset_cursor()
    n, b = dataset.n, config.batch_size
    template = _template(dataset, config)
    chain = side.checkpoints
    if side.mode == STRICT:
        check_strict_limits(config)
        expected = 1

        def step_back(j, batch, after):
            return reverse_step(after, dataset.subset(batch), config, template, j)

        def walk(order):
            batches = [order[k : k + b] for k in range(0, n, b)]
            return tuple(reverse_epoch(chain[-1], batches, dataset, config, template))

    elif side.mode == ACCOUNTING:
        expected = n // b + 1

        def step_back(j, batch, after):
            return chain[j - 1]

        def walk(order):
            return chain

    else:
        raise DomainError(f"unknown mode {side.mode!r}")
    if len(chain) != expected:
        raise CodecError(
            f"{side.mode} decode needs {expected} checkpoint(s), got {len(chain)}"
        )
    if stream.read_uint(1):
        result = _decode_split(stream, dataset, config, template, side, walk)
    else:
        result = _decode_backward(
            stream, dataset, config, template, chain[-1], step_back
        )
    if stream.bits_remaining():
        raise CodecError(f"{stream.bits_remaining()} bit(s) left after the last field")
    return result


def _decode_split(
    stream: BitStream,
    dataset: Dataset,
    config: RunConfig,
    template: Model,
    side: SideInfo,
    walk: Callable[[tuple[int, ...]], tuple[FixedVector, ...]],
) -> DecodeResult:
    n, b = dataset.n, config.batch_size
    t = n // b
    j = stream.read_uint(ceil_log2(t)) + 2
    if j > t:
        raise CodecError(f"split position {j} outside [2, {t}]")
    side_bit = stream.read_uint(1)
    if side.mode == STRICT:
        weights_j = _read_model_field(stream, config)
    else:
        weights_j = side.checkpoints[j - 1]
    cv = correctness_mask(template.with_weights(weights_j), dataset)
    m = (j - 1) * b
    everything = (1 << n) - 1
    chosen = decode_set_conditional(
        stream, everything, cv, m if side_bit == 0 else n - m
    )
    seen = chosen if side_bit == 0 else everything ^ chosen
    left_rank = stream.read_uint(ceil_log2(math.factorial(m)))
    right_rank = stream.read_uint(ceil_log2(math.factorial(n - m)))
    order = perm_unrank(left_rank, seen) + perm_unrank(right_rank, everything ^ seen)
    chain = walk(order)
    if chain[j - 1].raws != weights_j.raws:
        raise CodecError(
            f"embedded checkpoint at split position {j} disagrees with "
            f"the reverse chain"
        )
    return DecodeResult(order, chain)


def _decode_backward(
    stream: BitStream,
    dataset: Dataset,
    config: RunConfig,
    template: Model,
    last: FixedVector,
    step_back: Callable[[int, Sequence[int], FixedVector], FixedVector],
) -> DecodeResult:
    n, b = dataset.n, config.batch_size
    pool = (1 << n) - 1
    perm_w = ceil_log2(math.factorial(b))
    batches_rev: list[tuple[int, ...]] = []
    chain_rev = [last]
    for j in range(n // b, 0, -1):
        cv = correctness_mask(template.with_weights(chain_rev[-1]), dataset)
        batch = decode_set_conditional(stream, pool, cv, b)
        batches_rev.append(perm_unrank(stream.read_uint(perm_w), batch))
        chain_rev.append(step_back(j, batches_rev[-1], chain_rev[-1]))
        pool ^= batch
    order = tuple(e for batch in reversed(batches_rev) for e in batch)
    return DecodeResult(order, tuple(reversed(chain_rev)))


def model_description_bits(config: RunConfig) -> int:
    """Flat per-checkpoint description charge: d*(scale + log2(clip)) bits."""
    return config.d * (config.grid.scale + ceil_log2(config.grid.clip))


@dataclass
class AccountRow:
    """Everything the per-epoch compression report records; the field order
    is the ``report.csv`` column order."""

    epoch: int
    case: str
    split_j: Optional[int]
    degenerate_window: bool
    measured_bits: int
    stream_model_bits: int
    baseline_bits: int
    charged_bits: int
    savings_bits: int
    beta_hat: Fraction
    progress_ok: bool
    model_charge_bits: int
    model_charge_ok: bool
    good: bool
    split_gap: Optional[Fraction]
    split_bound_bits: Optional[float]
    split_bound_ok: Optional[bool]
    backward_bound_bits: Optional[float]
    backward_bound_ok: Optional[bool]
    epoch_bound_bits: float
    epoch_bound_ok: Optional[bool]
    batch_lag_ok: bool
    divergence_sum: Fraction
    divergence_floor: Fraction
    divergence_ok: bool
    divergence_precond_ok: bool

    @property
    def payload_bits(self) -> int:
        """Stream length excluding any embedded STRICT model field."""
        return self.measured_bits - self.stream_model_bits


def epoch_accounting(code: EpochCode, trace: EpochTrace, config: RunConfig) -> AccountRow:
    """Measures one epoch's stream against every bound the argument uses.

    Bad epochs (no measured progress, or a checkpoint charge that exceeds its
    budget) are charged the raw permutation baseline instead of their stream.
    """
    beta = config.progress_floor
    n, b, t = trace.n, trace.batch_size, trace.num_batches
    measured = code.measured_bits
    payload = measured - code.stream_model_bits
    baseline = ceil_log2(math.factorial(n))
    beta_hat = trace.progress()
    progress_ok = beta_hat >= beta
    charge = model_description_bits(config) if code.case == SPLIT else 0
    charge_budget = _model_charge_budget(n, beta)
    model_charge_ok = code.case != SPLIT or Fraction(charge) <= charge_budget
    good = progress_ok and model_charge_ok
    charged = payload + charge if good else baseline
    slack = _slack_bits(t, stable_log2(n))

    split_bound = split_ok = backward_bound = backward_ok = None
    if code.case == SPLIT:
        assert code.split_j is not None
        j = code.split_j
        bonus = max(_split_divergences(trace, j))
        split_bound = stable_log2(math.factorial(n)) - float(2 * n * bonus) + slack
        split_ok = payload <= split_bound
    else:
        total = 1.0
        for j in range(1, t + 1):
            delta = trace.batch_after(j + 1) - trace.seen(j + 1)
            total += b * stable_log2(j * b) - float(2 * b * delta**2)
            total += 2 * ceil_log2(b + 1) + 2
            total += ceil_log2(math.factorial(b)) - (
                b * (stable_log2(b) - LOG2_E)
            )
        backward_bound = total
        backward_ok = payload <= backward_bound

    epoch_bound = epoch_target_bits(n, t, beta)
    epoch_bound_ok = (payload + charge <= epoch_bound) if good else None

    quarter = beta / 4
    batch_lag_ok = all(
        trace.batch_before(j) >= trace.unseen(j) - quarter for j in range(1, t + 1)
    )
    divergence_sum = sum(
        ((trace.batch_after(j) - trace.seen(j)) ** 2 for j in range(2, t + 2)),
        Fraction(0),
    )
    divergence_floor = Fraction(n) * beta_hat**2 / (25 * b)
    divergence_ok = divergence_sum >= divergence_floor
    divergence_precond_ok = (
        code.case == BACKWARD
        and not code.selector.degenerate
        and progress_ok
        and batch_lag_ok
    )
    return AccountRow(
        epoch=trace.epoch,
        case=code.case,
        split_j=code.split_j,
        degenerate_window=code.selector.degenerate,
        measured_bits=measured,
        stream_model_bits=code.stream_model_bits,
        baseline_bits=baseline,
        charged_bits=charged,
        savings_bits=baseline - charged,
        beta_hat=beta_hat,
        progress_ok=progress_ok,
        model_charge_bits=charge,
        model_charge_ok=model_charge_ok,
        good=good,
        split_gap=code.selector.witness_gap,
        split_bound_bits=split_bound,
        split_bound_ok=split_ok,
        backward_bound_bits=backward_bound,
        backward_bound_ok=backward_ok,
        epoch_bound_bits=epoch_bound,
        epoch_bound_ok=epoch_bound_ok,
        batch_lag_ok=batch_lag_ok,
        divergence_sum=divergence_sum,
        divergence_floor=divergence_floor,
        divergence_ok=divergence_ok,
        divergence_precond_ok=divergence_precond_ok,
    )


@dataclass(frozen=True)
class CeilingVerdict:
    """Outcome of the high-accuracy progress ceiling check."""

    applicable: bool
    note: str
    beta_hat: Optional[Fraction] = None
    ceiling: Optional[float] = None
    ok: Optional[bool] = None
    margin: Optional[float] = None


def check_eps_beta_ceiling(trace: EpochTrace, eps: Fraction) -> CeilingVerdict:
    """When every checkpoint sits at accuracy >= 1-eps, measured progress is
    capped by (4/3)*eps*(1 + ln(n/b)); reports the margin."""
    if not trace.completed:
        return CeilingVerdict(False, "epoch incomplete")
    floor = 1 - eps
    if any(a < floor for a in trace.full_acc):
        return CeilingVerdict(False, "some checkpoint below 1-eps")
    beta_hat = trace.progress()
    ceiling = (4.0 / 3.0) * float(eps) * (1.0 + stable_ln(Fraction(trace.n, trace.batch_size)))
    margin = ceiling - float(beta_hat)
    return CeilingVerdict(True, "", beta_hat, ceiling, float(beta_hat) <= ceiling, margin)


def write_epoch_file(path: str, code: EpochCode) -> None:
    header = EPC_MAGIC + struct.pack(">III", code.n, code.batch_size, code.epoch)
    with open(path, "wb") as fh:
        fh.write(header + code.stream.to_bytes())


def read_epoch_file(path: str) -> tuple[int, int, int, BitStream]:
    """Returns (n, batch_size, epoch, stream)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != EPC_MAGIC:
        raise CodecError("bad magic; not an epoch code file")
    if len(data) < 16:
        raise CodecError("truncated epoch code file")
    n, b, epoch = struct.unpack_from(">III", data, 4)
    return n, b, epoch, BitStream.from_bytes(data[16:])
