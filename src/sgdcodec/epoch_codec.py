"""Two-branch codec for epoch permutations, with exact bit accounting.

An epoch's visit order is compressed against the training run itself.  When
some prefix/suffix statistic diverges (seen vs unseen accuracy), the order is
split at that point and the two halves are coded through the mid-epoch
checkpoint classifier.  Otherwise the batches are coded last to first, each
conditioned on the accuracy pattern of the model that had just stepped on it;
in STRICT mode the decoder rebuilds those models itself by reverse search
starting from the final weights only.

Every field has a declared width and the total is checked against an
independent width prediction derived from trace statistics alone, so the
reported bit counts cannot drift from the actual streams.
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
    gradient_norm_bound,
    reverse_epoch,
    reverse_step,
)
from .stable import stable_ln, stable_log2

ACCOUNTING = "ACCOUNTING"
STRICT = "STRICT"
SPLIT = "SPLIT"
BACKWARD = "BACKWARD"

# STRICT mode embeds checkpoints and runs the exponential reverse search, so
# it is only permitted at desk scale.
STRICT_MAX_N = 64
STRICT_MAX_D = 2
STRICT_MAX_SCALE = 8

EPC_MAGIC = b"EPC1"


def _exact_count(rate: Fraction, total: int) -> int:
    v = rate * total
    if v.denominator != 1:
        raise CodecError(f"rate {rate} over {total} elements is not a count")
    return v.numerator


def _classifier(mask: int) -> Callable[[int], int]:
    return lambda eid: (mask >> eid) & 1


def _template(dataset: Dataset, config: RunConfig) -> Model:
    return zero_model(config.model_kind, dataset.dim, config.grid, config.hidden_width)


def _check_strict_scale(config: RunConfig, dataset: Dataset) -> None:
    n, d, s = dataset.n, config.d, config.grid.scale
    if n > STRICT_MAX_N or d > STRICT_MAX_D or s > STRICT_MAX_SCALE:
        raise CodecError(
            f"STRICT mode refused at n={n}, d={d}, scale={s}: reverse search "
            f"is only feasible up to n={STRICT_MAX_N}, d={STRICT_MAX_D}, "
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
    gamma = Fraction((j - 1) * trace.batch_size, trace.n)
    d_seen = trace.seen(j) - trace.full(j)
    d_unseen = trace.unseen(j) - trace.full(j)
    return 0 if gamma * d_seen**2 >= (1 - gamma) * d_unseen**2 else 1


@dataclass(frozen=True)
class SideInfo:
    """What the decoder is given besides the dataset and the stream."""

    mode: str
    final_weights: Optional[FixedVector] = None
    checkpoints: Optional[Sequence[FixedVector]] = None

    @classmethod
    def strict(cls, final_weights: FixedVector) -> "SideInfo":
        return cls(STRICT, final_weights=final_weights)

    @classmethod
    def accounting(cls, checkpoints: Sequence[FixedVector]) -> "SideInfo":
        return cls(ACCOUNTING, checkpoints=tuple(checkpoints))


@dataclass
class EpochCode:
    epoch: int
    n: int
    batch_size: int
    mode: str
    case: str
    split_j: Optional[int]
    side: Optional[int]
    selector: CaseSelector
    stream: BitStream
    segments: tuple[tuple[str, int], ...]
    target_bits: float

    @property
    def measured_bits(self) -> int:
        return len(self.stream)

    @property
    def stream_model_bits(self) -> int:
        return sum(w for label, w in self.segments if label == "model")


_LOG2_E = 1 / stable_ln(2)


def epoch_target_bits(n: int, num_batches: int, beta: Fraction) -> float:
    """Per-epoch compression target: n*(log2(n/e) - beta^3/512) plus slack.

    The slack term 4*(n/b + 2)*log2(n) absorbs every header, ceiling, and
    Stirling correction the exact stream carries.
    """
    log2_n = stable_log2(n)
    main = n * (log2_n - _LOG2_E) - float(Fraction(n) * beta**3 / 512)
    return main + 4.0 * (num_batches + 2) * log2_n


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
    beta: Optional[Fraction] = None,
) -> EpochCode:
    """Encodes one completed epoch's permutation as a self-delimiting stream."""
    if mode not in (ACCOUNTING, STRICT):
        raise DomainError(f"unknown mode {mode!r}")
    if not trace.completed:
        raise CodecError("cannot encode an incomplete epoch")
    if mode == STRICT:
        _check_strict_scale(config, dataset)
    if beta is None:
        beta = config.progress_floor
    selector = select_case(trace, beta)
    stream = BitStream()
    segments: list[tuple[str, int]] = []
    if selector.case == SPLIT:
        assert selector.split_j is not None
        side = choose_split_side(trace, selector.split_j)
        _encode_split(stream, segments, trace, dataset, selector.split_j, side, mode)
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
        mode=mode,
        case=selector.case,
        split_j=selector.split_j,
        side=side,
        selector=selector,
        stream=stream,
        segments=tuple(segments),
        target_bits=epoch_target_bits(trace.n, trace.num_batches, beta),
    )


def _encode_split(
    stream: BitStream,
    segments: list[tuple[str, int]],
    trace: EpochTrace,
    dataset: Dataset,
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
    seen_sorted = tuple(sorted(trace.order[:m]))
    unseen_sorted = tuple(sorted(trace.order[m:]))
    target = seen_sorted if side == 0 else unseen_sorted
    info = encode_set_conditional(
        stream, target, dataset.ids, _classifier(trace.masks[j - 1])
    )
    segments.append(("set_sizes", 2 * info.size_header_bits))
    segments.append(("set_rank_pos", info.rank_ones_bits))
    segments.append(("set_rank_neg", info.rank_zeros_bits))
    left_w = ceil_log2(math.factorial(m))
    stream.write_uint(perm_rank(trace.order[:m], seen_sorted), left_w)
    segments.append(("perm_left", left_w))
    right_w = ceil_log2(math.factorial(n - m))
    stream.write_uint(perm_rank(trace.order[m:], unseen_sorted), right_w)
    segments.append(("perm_right", right_w))


def _encode_backward(
    stream: BitStream, segments: list[tuple[str, int]], trace: EpochTrace
) -> None:
    b, t = trace.batch_size, trace.num_batches
    stream.write_uint(0, 1)
    segments.append(("case", 1))
    batches = trace.batches
    perm_w = ceil_log2(math.factorial(b))
    for j in range(t, 0, -1):
        pool = tuple(sorted(trace.order[: j * b]))
        batch_sorted = tuple(sorted(batches[j - 1]))
        info = encode_set_conditional(
            stream, batch_sorted, pool, _classifier(trace.masks[j])
        )
        tag = f"b{j:03d}"
        segments.append((f"{tag}_sizes", 2 * info.size_header_bits))
        segments.append((f"{tag}_rank_pos", info.rank_ones_bits))
        segments.append((f"{tag}_rank_neg", info.rank_zeros_bits))
        stream.write_uint(perm_rank(batches[j - 1], batch_sorted), perm_w)
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
    order: tuple[int, ...]
    checkpoints: Optional[tuple[FixedVector, ...]]


def decode_epoch(
    code: Union[EpochCode, BitStream],
    dataset: Dataset,
    config: RunConfig,
    side: SideInfo,
) -> DecodeResult:
    """Reconstructs the epoch's exact visit order from the stream.

    ACCOUNTING mode reads classifiers off the provided checkpoint list;
    STRICT mode starts from the final weights alone and reverse-searches
    every predecessor it needs, returning the full recovered checkpoint
    chain.
    """
    stream = code.stream if isinstance(code, EpochCode) else code
    stream.reset_cursor()
    if side.mode == STRICT:
        _check_strict_scale(config, dataset)
        if side.final_weights is None:
            raise CodecError("STRICT decode needs the final weights")
    elif side.mode == ACCOUNTING:
        if side.checkpoints is None:
            raise CodecError("ACCOUNTING decode needs the checkpoint list")
    else:
        raise DomainError(f"unknown mode {side.mode!r}")
    if stream.read_uint(1):
        result = _decode_split(stream, dataset, config, side)
    else:
        result = _decode_backward(stream, dataset, config, side)
    if stream.bits_remaining():
        raise CodecError(f"{stream.bits_remaining()} bit(s) left after the last field")
    return result


def _decode_split(
    stream: BitStream, dataset: Dataset, config: RunConfig, side: SideInfo
) -> DecodeResult:
    n, b = dataset.n, config.batch_size
    t = n // b
    j = stream.read_uint(ceil_log2(t)) + 2
    side_bit = stream.read_uint(1)
    template = _template(dataset, config)
    if side.mode == STRICT:
        embedded = _read_model_field(stream, config)
        weights_j = embedded
    else:
        assert side.checkpoints is not None
        if j - 1 >= len(side.checkpoints):
            raise CodecError(f"checkpoint {j} missing from side info")
        weights_j = side.checkpoints[j - 1]
    cv = correctness_mask(template.with_weights(weights_j), dataset)
    m = (j - 1) * b
    size = m if side_bit == 0 else n - m
    chosen = decode_set_conditional(stream, dataset.ids, _classifier(cv), size)
    chosen_set = set(chosen)
    other = tuple(e for e in dataset.ids if e not in chosen_set)
    seen_sorted = chosen if side_bit == 0 else other
    unseen_sorted = other if side_bit == 0 else chosen
    left_rank = stream.read_uint(ceil_log2(math.factorial(m)))
    right_rank = stream.read_uint(ceil_log2(math.factorial(n - m)))
    left = perm_unrank(left_rank, seen_sorted)
    right = perm_unrank(right_rank, unseen_sorted)
    order = left + right
    checkpoints: Optional[tuple[FixedVector, ...]] = None
    if side.mode == STRICT:
        batches = [order[k : k + b] for k in range(0, n, b)]
        assert side.final_weights is not None
        chain = reverse_epoch(
            side.final_weights, batches, dataset, config, template
        )
        if chain[j - 1].raws != weights_j.raws:
            raise CodecError(
                f"embedded checkpoint at split position {j} disagrees with "
                f"the reverse chain"
            )
        checkpoints = tuple(chain)
    return DecodeResult(order, checkpoints)


def _decode_backward(
    stream: BitStream, dataset: Dataset, config: RunConfig, side: SideInfo
) -> DecodeResult:
    n, b = dataset.n, config.batch_size
    t = n // b
    template = _template(dataset, config)
    pool = list(dataset.ids)
    perm_w = ceil_log2(math.factorial(b))
    batches_rev: list[tuple[int, ...]] = []
    strict = side.mode == STRICT
    current = side.final_weights if strict else None
    chain_rev: list[FixedVector] = [current] if strict else []
    g_bound = gradient_norm_bound(config, dataset) if strict else None
    for j in range(t, 0, -1):
        if strict:
            weights_next = current
        else:
            assert side.checkpoints is not None
            if j >= len(side.checkpoints):
                raise CodecError(f"checkpoint {j + 1} missing from side info")
            weights_next = side.checkpoints[j]
        cv = correctness_mask(template.with_weights(weights_next), dataset)
        batch_sorted = decode_set_conditional(
            stream, tuple(pool), _classifier(cv), b
        )
        seq = perm_unrank(stream.read_uint(perm_w), batch_sorted)
        batches_rev.append(seq)
        if strict:
            assert current is not None and g_bound is not None
            current = reverse_step(
                current, dataset.subset(batch_sorted), config, g_bound, template, j
            )
            chain_rev.append(current)
        batch_set = set(batch_sorted)
        pool = [e for e in pool if e not in batch_set]
    order = tuple(e for batch in reversed(batches_rev) for e in batch)
    checkpoints = tuple(reversed(chain_rev)) if strict else None
    return DecodeResult(order, checkpoints)


def model_description_bits(config: RunConfig) -> int:
    """Flat per-checkpoint description charge: d*(scale + log2(clip)) bits."""
    return config.d * (config.grid.scale + ceil_log2(config.grid.clip))


@dataclass
class AccountRow:
    """Everything the per-epoch compression report records."""

    epoch: int
    case: str
    split_j: Optional[int]
    degenerate_window: bool
    measured_bits: int
    stream_model_bits: int
    baseline_bits: int
    beta_hat: Fraction
    progress_ok: bool
    model_charge_bits: int
    model_charge_ok: bool
    good: bool
    charged_bits: int
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
    def savings_bits(self) -> int:
        return self.baseline_bits - self.charged_bits

    @property
    def payload_bits(self) -> int:
        """Stream length excluding any embedded STRICT model field."""
        return self.measured_bits - self.stream_model_bits


CSV_FIELDS = (
    "epoch",
    "case",
    "split_j",
    "degenerate_window",
    "measured_bits",
    "stream_model_bits",
    "baseline_bits",
    "charged_bits",
    "savings_bits",
    "beta_hat",
    "progress_ok",
    "model_charge_bits",
    "model_charge_ok",
    "good",
    "split_gap",
    "split_bound_bits",
    "split_bound_ok",
    "backward_bound_bits",
    "backward_bound_ok",
    "epoch_bound_bits",
    "epoch_bound_ok",
    "batch_lag_ok",
    "divergence_sum",
    "divergence_floor",
    "divergence_ok",
    "divergence_precond_ok",
)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def account_row_csv(row: AccountRow) -> str:
    values = {f: getattr(row, f) for f in CSV_FIELDS if f not in ("savings_bits",)}
    values["savings_bits"] = row.savings_bits
    return ",".join(_cell(values[f]) for f in CSV_FIELDS)


def _stable_log2_factorial(k: int) -> float:
    return stable_log2(math.factorial(k)) if k > 1 else 0.0


def epoch_accounting(
    code: EpochCode,
    trace: EpochTrace,
    config: RunConfig,
    beta: Optional[Fraction] = None,
    model_charge_bits: Optional[int] = None,
) -> AccountRow:
    """Measures one epoch's stream against every bound the argument uses.

    Bad epochs (no measured progress, or a checkpoint charge that exceeds its
    budget) are charged the raw permutation baseline instead of their stream.
    """
    if beta is None:
        beta = config.progress_floor
    if model_charge_bits is None:
        model_charge_bits = model_description_bits(config)
    n, b, t = trace.n, trace.batch_size, trace.num_batches
    measured = code.measured_bits
    payload = measured - code.stream_model_bits
    baseline = ceil_log2(math.factorial(n))
    beta_hat = trace.progress()
    progress_ok = beta_hat >= beta
    charge = model_charge_bits if code.case == SPLIT else 0
    charge_budget = Fraction(n) * beta**3 / 512
    model_charge_ok = code.case != SPLIT or Fraction(charge) <= charge_budget
    good = progress_ok and model_charge_ok
    charged = payload + charge if good else baseline
    slack = 4.0 * (t + 2) * stable_log2(n)

    split_gap = None
    split_bound = None
    split_ok = None
    backward_bound = None
    backward_ok = None
    if code.case == SPLIT:
        assert code.split_j is not None
        j = code.split_j
        split_gap = abs(trace.seen(j) - trace.unseen(j))
        gamma = Fraction((j - 1) * b, n)
        d_seen = trace.seen(j) - trace.full(j)
        d_unseen = trace.unseen(j) - trace.full(j)
        bonus = max(gamma * d_seen**2, (1 - gamma) * d_unseen**2)
        split_bound = _stable_log2_factorial(n) - float(2 * n * bonus) + slack
        split_ok = payload <= split_bound
    else:
        total = 1.0
        for j in range(1, t + 1):
            delta = trace.batch_after(j + 1) - trace.seen(j + 1)
            total += b * stable_log2(j * b) - float(2 * b * delta**2)
            total += 2 * ceil_log2(b + 1) + 2
            total += ceil_log2(math.factorial(b)) - (
                b * (stable_log2(b) - _LOG2_E)
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
        beta_hat=beta_hat,
        progress_ok=progress_ok,
        model_charge_bits=charge,
        model_charge_ok=model_charge_ok,
        good=good,
        charged_bits=charged,
        split_gap=split_gap,
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
