"""Two-branch codec for epoch permutations, with exact bit accounting.

An epoch's visit order is compressed against the training run itself.  When
some prefix/suffix statistic diverges (seen vs unseen accuracy), the order is
split at that point and the two halves are coded through the mid-epoch
checkpoint classifier.  Otherwise the batches are coded last to first, each
conditioned on the accuracy pattern of the model that had just stepped on it.
Every set here is an int bitmask over element ids: the encoder reads pools
and batches off ``EpochTrace.prefix_masks`` and classifiers off
``EpochTrace.masks``, and the decoder peels each batch off its pool with XOR.

The decoder reads its classifiers from a ``SideInfo``, which holds exactly
what its mode's decoder reads.  ACCOUNTING hands over the epoch's T+1
checkpoint masks (``EpochTrace.masks``), and the decoder reads each by index:
it walks no chain and computes no sweep.  STRICT hands over the last
checkpoint alone, and the decoder rebuilds every earlier one by reverse
search and sweeps each checkpoint it uses with ``correctness_mask``.

The encoders return an epoch's fields as (label, value, width) triples;
``encode_epoch`` alone writes them, in one loop whose ``write_uint`` refuses a
value wider than its width, and reads ``segments`` off the same triples.
``harness`` checks those widths against ``predict_segments``, an independent
prediction from trace statistics alone.  ``epoch_accounting``
measures an epoch as an ``AccountRow``, which ``harness`` writes to ``report.csv``.
Case selection, width prediction and accounting read their counts from the
trace's count table (``EpochTrace.counts``) and compare accuracies as those
counts, cross-multiplied, and take each float term as one int / int
division; ``Fraction`` appears only in the row's rational cells
(``beta_hat``, ``split_gap``, ``divergence_sum``, ``divergence_floor``),
built once per epoch.
"""

from __future__ import annotations

import itertools
import math
import struct
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .codec import (
    BitStream,
    CodecError,
    binomial,
    ceil_log2,
    decode_ordered_set,
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
    within_eps,
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


class CaseSelector(NamedTuple):
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
    bn, bd = beta.numerator, beta.denominator
    j_start = -(-bn * n // (8 * b * bd)) + 1
    j_final = (8 * bd - bn) * n // (8 * b * bd) + 1
    lo = max(j_start, 2)
    hi = min(j_final, t)
    if lo > hi:
        return CaseSelector(j_start, j_final, True, BACKWARD, None, None)
    counts = trace.counts
    for i in range(lo - 1, hi):
        # seen minus unseen accuracy is gap / size, tested against beta / 4
        full, seen, _, _ = counts[i]
        gap = abs((t - i) * seen - i * (full - seen))
        size = i * (t - i) * b
        if 4 * bd * gap >= bn * size:
            witness = Fraction(gap, size)
            return CaseSelector(j_start, j_final, False, SPLIT, i + 1, witness)
    return CaseSelector(j_start, j_final, False, BACKWARD, None, None)


def choose_split_side(trace: EpochTrace, j: int) -> int:
    """0 to encode the seen prefix set, 1 for the unseen suffix set.

    Picks the side with the larger size-weighted squared divergence from the
    full-set accuracy, which is the side the conditional codec compresses
    harder; ties go to the prefix.
    """
    seen, unseen, _ = _split_divergences(trace, j - 1)
    return 0 if seen >= unseen else 1


def _split_divergences(trace: EpochTrace, i: int) -> tuple[int, int, int]:
    """gamma*d_seen^2 and (1-gamma)*d_unseen^2 at checkpoint i, as two
    numerators over one denominator, where gamma = i/t is the seen share and
    d_* a set's accuracy minus the full-set accuracy (0 < i < t)."""
    t, b = trace.num_batches, trace.batch_size
    full, seen, _, _ = trace.counts[i]
    d_seen = t * seen - i * full  # over i*t*b
    d_unseen = t * (full - seen) - (t - i) * full  # over (t-i)*t*b
    return (t - i) * d_seen**2, i * d_unseen**2, i * (t - i) * t**3 * b**2


class SideInfo(NamedTuple):
    """What the decoder reads besides the stream: in ACCOUNTING ``masks``,
    the correctness masks of the epoch's checkpoints W_1 .. W_{T+1}; in
    STRICT ``last``, the last checkpoint W_{T+1} alone."""

    mode: str
    masks: tuple[int, ...] = ()
    last: Optional[FixedVector] = None

    @classmethod
    def of(cls, mode: str, trace: EpochTrace) -> "SideInfo":
        """The side info ``mode`` allows out of a trained epoch's trace."""
        if mode == STRICT:
            return cls(STRICT, last=trace.checkpoints[-1])
        if mode == ACCOUNTING:
            return cls(ACCOUNTING, masks=tuple(trace.masks))
        raise DomainError(f"unknown mode {mode!r}")


class EpochCode(NamedTuple):
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
    budget, den = _model_charge_budget(n, beta)
    main = n * (log2_n - LOG2_E) - budget / den
    return main + _slack_bits(num_batches, log2_n)


def _model_charge_budget(n: int, beta: Fraction) -> tuple[int, int]:
    """n*beta^3/512, the most a SPLIT epoch's checkpoint may be charged, as
    (numerator, denominator)."""
    return n * beta.numerator**3, 512 * beta.denominator**3


def _slack_bits(num_batches: int, log2_n: float) -> float:
    """4*(n/b + 2)*log2(n): absorbs every header, ceiling, and Stirling
    correction the exact stream carries."""
    return 4.0 * (num_batches + 2) * log2_n


def _model_field(weights: FixedVector) -> tuple[int, int]:
    """A checkpoint as one (value, width) field: each raw less ``raw_min`` in
    ``coord_bits`` bits, the first coordinate highest."""
    grid = weights.grid
    if not grid.holds(weights.raws):
        raise CodecError("checkpoint outside the grid's clip range")
    value = 0
    for raw in weights.raws:
        value = value << grid.coord_bits | raw - grid.raw_min
    return value, len(weights) * grid.coord_bits


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
    if selector.case == SPLIT:
        assert selector.split_j is not None
        side = choose_split_side(trace, selector.split_j)
        fields = _encode_split(trace, selector.split_j, side, mode)
    else:
        side = None
        fields = _encode_backward(trace)
    stream = BitStream()
    for _, value, width in fields:
        stream.write_uint(value, width)
    return EpochCode(
        epoch=trace.epoch,
        n=trace.n,
        batch_size=trace.batch_size,
        case=selector.case,
        split_j=selector.split_j,
        side=side,
        selector=selector,
        stream=stream,
        segments=tuple((label, width) for label, _, width in fields),
    )


def _encode_split(trace: EpochTrace, j: int, side: int, mode: str) -> list[tuple[str, int, int]]:
    n, b, t = trace.n, trace.batch_size, trace.num_batches
    fields = [("case", 1, 1), ("split_j", j - 2, ceil_log2(t)), ("side", side, 1)]
    if mode == STRICT:
        fields.append(("model", *_model_field(trace.checkpoints[j - 1])))
    m = (j - 1) * b
    everything, seen = trace.prefix_masks[-1], trace.prefix_masks[j - 1]
    target = seen if side == 0 else everything ^ seen
    fields += _set_fields("set", target, everything, trace.masks[j - 1])
    fields.append(("perm_left", perm_rank(trace.order[:m]), ceil_log2(math.factorial(m))))
    fields.append(("perm_right", perm_rank(trace.order[m:]), ceil_log2(math.factorial(n - m))))
    return fields


def _encode_backward(trace: EpochTrace) -> list[tuple[str, int, int]]:
    b, t = trace.batch_size, trace.num_batches
    batches, prefix = trace.batches, trace.prefix_masks
    perm_w = ceil_log2(math.factorial(b))
    fields = [("case", 0, 1)]
    for j in range(t, 0, -1):
        tag = f"b{j:03d}"
        fields += _set_fields(tag, prefix[j] ^ prefix[j - 1], prefix[j], trace.masks[j])
        fields.append((f"{tag}_perm", perm_rank(batches[j - 1]), perm_w))
    return fields


def _set_fields(tag: str, a: int, pool: int, ones: int) -> list[tuple[str, int, int]]:
    """``encode_set_conditional``'s three fields, labelled ``{tag}_sizes``,
    ``{tag}_rank_pos`` and ``{tag}_rank_neg``."""
    code = encode_set_conditional(a, pool, ones)
    return [
        (f"{tag}_{name}", value, width)
        for name, (value, width) in zip(("sizes", "rank_pos", "rank_neg"), code)
    ]


def predict_segments(
    trace: EpochTrace,
    config: RunConfig,
    selector: CaseSelector,
    mode: str = ACCOUNTING,
) -> tuple[tuple[str, int], ...]:
    """Recomputes every field width from trace statistics alone.

    Must equal the encoder's declared segments; the accounting identity test
    relies on this being an independent derivation (counts come from the
    recorded correctness masks, never from the stream).
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
        i = j - 1
        m = i * b
        ones_total, seen, _, _ = trace.counts[i]
        if choose_split_side(trace, j) == 0:
            size, k1 = m, seen
        else:
            size, k1 = n - m, ones_total - seen
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
        counts = trace.counts
        for j in range(t, 0, -1):
            pool = j * b
            _, n1, k1, _ = counts[j]
            tag = f"b{j:03d}"
            segs.append((f"{tag}_sizes", 2 * wh))
            segs.append((f"{tag}_rank_pos", ceil_log2(binomial(n1, k1))))
            segs.append((f"{tag}_rank_neg", ceil_log2(binomial(pool - n1, b - k1))))
            segs.append((f"{tag}_perm", pw))
    return tuple(segs)


class DecodeResult(NamedTuple):
    """The decoded visit order and, in STRICT, the checkpoint chain W_1 ..
    W_{T+1} that reverse search recovered to decode it; an ACCOUNTING decode
    walks no chain, and its ``checkpoints`` is empty."""

    order: tuple[int, ...]
    checkpoints: tuple[FixedVector, ...] = ()

    def chain_matches(self, checkpoints: Sequence[FixedVector]) -> bool:
        """Whether the walked chain is exactly these checkpoints."""
        return [w.raws for w in self.checkpoints] == [w.raws for w in checkpoints]


def decode_epoch(
    stream: BitStream,
    dataset: Dataset,
    config: RunConfig,
    side: SideInfo,
) -> DecodeResult:
    """Reconstructs the epoch's exact visit order from the stream.

    ACCOUNTING reads each classifier by its checkpoint's index in the side
    info's masks, which must number T+1.  STRICT walks the chain back from
    the side info's last checkpoint by reverse search, one step at a time
    or, once a SPLIT order is known, over the whole epoch, and sweeps each
    checkpoint whose classifier it reads.
    """
    stream.reset_cursor()
    t = dataset.n // config.batch_size
    if side.mode == STRICT:
        check_strict_limits(config)
        if side.last is None:
            raise CodecError("STRICT decode needs the epoch's last checkpoint")
    elif side.mode == ACCOUNTING:
        if len(side.masks) != t + 1:
            raise CodecError(f"ACCOUNTING decode needs {t + 1} masks, got {len(side.masks)}")
    else:
        raise DomainError(f"unknown mode {side.mode!r}")
    decode = _decode_split if stream.read_uint(1) else _decode_backward
    result = decode(stream, dataset, config, side)
    if stream.bits_remaining():
        raise CodecError(f"{stream.bits_remaining()} bit(s) left after the last field")
    return result


def _decode_split(
    stream: BitStream, dataset: Dataset, config: RunConfig, side: SideInfo
) -> DecodeResult:
    n, b = dataset.n, config.batch_size
    t = n // b
    j = stream.read_uint(ceil_log2(t)) + 2
    if j > t:
        raise CodecError(f"split position {j} outside [2, {t}]")
    side_bit = stream.read_uint(1)
    if side.mode == STRICT:
        template = _template(dataset, config)
        weights_j = _read_model_field(stream, config)
        ones = correctness_mask(template.with_weights(weights_j), dataset)
    else:
        ones = side.masks[j - 1]
    m = (j - 1) * b
    everything = (1 << n) - 1
    chosen = decode_set_conditional(
        stream, everything, ones, m if side_bit == 0 else n - m
    )
    seen = chosen if side_bit == 0 else everything ^ chosen
    left_rank = stream.read_uint(ceil_log2(math.factorial(m)))
    right_rank = stream.read_uint(ceil_log2(math.factorial(n - m)))
    order = perm_unrank(left_rank, seen) + perm_unrank(right_rank, everything ^ seen)
    if side.mode == ACCOUNTING:
        return DecodeResult(order)
    batches = [order[k : k + b] for k in range(0, n, b)]
    chain = tuple(reverse_epoch(side.last, batches, dataset, config, template))
    if chain[j - 1].raws != weights_j.raws:
        raise CodecError(
            f"embedded checkpoint at split position {j} disagrees with "
            f"the reverse chain"
        )
    return DecodeResult(order, chain)


def _decode_backward(
    stream: BitStream, dataset: Dataset, config: RunConfig, side: SideInfo
) -> DecodeResult:
    """Batch j is read against checkpoint j's classifier, W_{j+1}'s: the
    side info's mask j in ACCOUNTING; in STRICT the sweep of the chain's
    head, which then steps back over the batch by reverse search."""
    n, b = dataset.n, config.batch_size
    pool = (1 << n) - 1
    perm_w = ceil_log2(math.factorial(b))
    strict = side.mode == STRICT
    template = _template(dataset, config) if strict else None
    batches_rev: list[tuple[int, ...]] = []
    chain_rev = [side.last]
    for j in range(n // b, 0, -1):
        if strict:
            ones = correctness_mask(template.with_weights(chain_rev[-1]), dataset)
        else:
            ones = side.masks[j]
        batch = decode_ordered_set(stream, pool, ones, b, perm_w)
        batches_rev.append(batch)
        if strict:
            before = reverse_step(chain_rev[-1], dataset.subset(batch), config, template, j)
            chain_rev.append(before)
        for e in batch:
            pool ^= 1 << e
    order = tuple(itertools.chain.from_iterable(reversed(batches_rev)))
    return DecodeResult(order, tuple(reversed(chain_rev)) if strict else ())


def model_description_bits(config: RunConfig) -> int:
    """Flat per-checkpoint description charge: d*(scale + log2(clip)) bits."""
    return config.d * (config.grid.scale + ceil_log2(config.grid.clip))


class AccountRow(NamedTuple):
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
    bn, bd = beta.numerator, beta.denominator
    n, b, t = trace.n, trace.batch_size, trace.num_batches
    measured = code.measured_bits
    payload = measured - code.stream_model_bits
    baseline = ceil_log2(math.factorial(n))
    gained = trace.gained()  # beta_hat = gained / n
    progress_ok = gained * bd >= bn * n
    charge = model_description_bits(config) if code.case == SPLIT else 0
    budget, budget_den = _model_charge_budget(n, beta)
    model_charge_ok = code.case != SPLIT or charge * budget_den <= budget
    good = progress_ok and model_charge_ok
    charged = payload + charge if good else baseline
    slack = _slack_bits(t, stable_log2(n))

    # per step i = 1..t: batch-after accuracy minus seen accuracy at
    # checkpoint i, delta_i = deltas[i - 1] / (i*b)
    counts = trace.counts
    deltas = [i * counts[i].after - counts[i].seen for i in range(1, t + 1)]
    split_bound = split_ok = backward_bound = backward_ok = None
    if code.case == SPLIT:
        assert code.split_j is not None
        seen, unseen, den = _split_divergences(trace, code.split_j - 1)
        bonus = 2 * n * max(seen, unseen) / den
        split_bound = stable_log2(math.factorial(n)) - bonus + slack
        split_ok = payload <= split_bound
    else:
        # per-batch constants (size headers, and the order field's excess
        # over b*log2(b/e)), each added as its own term of the float sum
        headers = 2 * ceil_log2(b + 1) + 2
        order_excess = ceil_log2(math.factorial(b)) - (b * (stable_log2(b) - LOG2_E))
        total = 1.0
        for i, delta in enumerate(deltas, 1):
            total += b * stable_log2(i * b) - 2 * b * delta**2 / (i * b) ** 2
            total += headers
            total += order_excess
        backward_bound = total
        backward_ok = payload <= backward_bound

    epoch_bound = epoch_target_bits(n, t, beta)
    epoch_bound_ok = (payload + charge <= epoch_bound) if good else None

    # batch accuracy B/b >= unseen accuracy U/((t-i)*b) - beta/4, both sides
    # times 4*bd*(t-i)*b
    batch_lag_ok = all(
        4 * bd * (t - i) * before >= 4 * bd * (full - seen) - bn * (t - i) * b
        for i, (full, seen, _, before) in enumerate(counts[:t])
    )
    # sum of delta_i^2 over the common denominator (lcm(1..t)*b)^2, against
    # n*beta_hat^2/(25*b) = gained^2/(25*b*n)
    lcm = math.lcm(*range(1, t + 1))
    div_num = sum((delta * (lcm // i)) ** 2 for i, delta in enumerate(deltas, 1))
    div_den = (lcm * b) ** 2
    divergence_ok = div_num * 25 * b * n >= gained**2 * div_den
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
        beta_hat=Fraction(gained, n),
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
        divergence_sum=Fraction(div_num, div_den),
        divergence_floor=Fraction(gained**2, 25 * b * n),
        divergence_ok=divergence_ok,
        divergence_precond_ok=divergence_precond_ok,
    )


class CeilingVerdict(NamedTuple):
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
    if not within_eps(min(mask.bit_count() for mask in trace.masks), trace.n, eps):
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
