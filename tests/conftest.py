"""Shared builders for handcrafted datasets, models, epoch traces and
training runs on generated data; the
exact hypergeometric law the Hoeffding verifier is checked against; the
margins of three inequality sweeps, evaluated case by case, in the integer
units of the sweeps and by mpmath, whose values ``mp_float`` rounds once to
a double, and the two-block split slack by mpmath at the exact argument; the
closed-form width bound of the conditional set codec, and that codec as it
wrote its four fields straight to a stream; the dataset
generator spelled out on stdlib ``randrange`` and ``Fraction``; the dataset
text as it rendered sparse rows cell by cell and dense rows by one join per
row, the sweep's lanes packed entry by entry and max |x|^2 as one dot
product per row, as they were before they ran in column passes; the packed
correctness sweep as one full sum, before it carried; the logistic-linear gradient sum and
the reverse search's pull as they composed the table sigmoid and the two
roundings element by element; the splitmix64 bit tape and the Fisher-Yates
draw that took one call to it per try; and the
``Fraction`` bookkeeping of the reverse-step set-up (with the table slope
and the smoothness it rests on), case selection, accounting and
``trace.csv`` cells, which the integer code must match; ``hits``, one
count over a span of batches, which every entry of a trace's count table
must match, and the width prediction as it read its counts through it."""

from __future__ import annotations

import importlib.util
import math
import os
import random
import sys
from fractions import Fraction
from functools import partial

import mpmath

from sgdcodec.codec import BitStream, binomial, ceil_log2, subset_rank
from sgdcodec.model import (
    KNOT_BITS,
    Dataset,
    Element,
    GeneratorSpec,
    Model,
    _dot,
    _mean_raws,
    _sigmoid_knots,
    _sigmoid_num,
    correctness_mask,
    generate_dataset,
)
from sgdcodec.numerics import (
    DomainError,
    FixedVector,
    GridSpec,
    PreconditionError,
    _realizable_q,
    div_round_half_even,
    round_half_even,
)
from sgdcodec.sgd_engine import (
    GOLDEN64,
    MASK64,
    EpochTrace,
    RunConfig,
    TrainingRun,
    run_training,
)
from sgdcodec.stable import stable_entropy


BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def load_bench_workloads():
    """``bench/workloads.py``, loaded from its file as ``bench_workloads``."""
    path = os.path.join(BENCH_DIR, "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def hypergeometric_pmf(population: int, ones: int, sample: int) -> list[Fraction]:
    """P[ones in sample = c] for c in 0..sample, exact."""
    total = math.comb(population, sample)
    return [
        Fraction(math.comb(ones, c) * math.comb(population - ones, sample - c), total)
        for c in range(sample + 1)
    ]


def mp_float(v) -> float:
    """The mpmath value v rounded once to a double through Fraction
    (subnormals included; past the range, +-inf or +-0.0)."""
    if not v:
        return 0.0
    (man, exp), sign = v.man_exp, -1 if v < 0 else 1  # man_exp is of |v|
    top = exp + man.bit_length()  # 2**(top - 1) <= |v| < 2**top
    if not -1076 < top <= 1025:  # 0.0 or inf as a double; 2**exp may be huge
        return sign * (0.0 if top < 0 else math.inf)
    try:
        return sign * float(man * Fraction(2) ** exp)
    except OverflowError:
        return sign * math.inf


def mp_bits(*values) -> int:
    """A working precision for values over one denominator n: 400 bits past
    n**4, which bounds how much the sums below cancel."""
    return 4 * max(Fraction(v).denominator for v in values).bit_length() + 400


def mp_divergence(p, q):
    """D(p || q) in bits by mpmath at the working precision; 0 < q < 1 or p == q."""
    p, q = (mpmath.mpf(x.numerator) / x.denominator for x in map(Fraction, (p, q)))
    up = p * mpmath.log(p / q, 2) if p else 0
    return up + ((1 - p) * mpmath.log((1 - p) / (1 - q), 2) if p < 1 else 0)


def split_slack_oracle(p, gamma, q) -> float:
    """``verify_split_entropy`` spelled out: the same refusals, then the slack
    as (1 - gamma) D(r || q), r = (q - p gamma) / (1 - gamma), by mpmath at
    the exact argument, rounded once."""
    p, g, q = (Fraction(v) for v in (p, gamma, q))
    for v, name in ((p, "p"), (g, "gamma"), (q, "q")):
        if v < 0 or v > 1:
            raise DomainError(f"{name}={v} outside [0, 1]")
    if p * g > q or (1 - p) * g > 1 - q:
        raise PreconditionError("split not realizable")
    if g == 0 or p == q:
        return 0.0
    with mpmath.workprec(mp_bits(p, g, q)):
        return mp_float((1 - mpmath.mpf(g.numerator) / g.denominator)
                        * mp_divergence((q - p * g) / (1 - g), q))


def entropy_units(log, x: int, y: int) -> int:
    """y h(x / y) * 2**w from log[k] = log2 k * 2**w: y log2 y - x log2 x -
    (y - x) log2(y - x)."""
    return y * log[y] - x * log[x] - (y - x) * log[y - x]


def split_units_oracle(log, a: int, g: int, c: int, n: int) -> int:
    """The split slack at a/n, g/n, c/n times n**2 * 2**w, term by term as the
    inequality states it: n**2 h(gamma) - n**2 gamma D(p || q) - n**2 q h(p
    gamma / q) - n**2 (1 - q) h((1 - p) gamma / (1 - q))."""
    ag, bg = a * g, (n - a) * g
    divergence = ag * (log[a] - log[c]) + bg * (log[n - a] - log[n - c])
    return (n * entropy_units(log, g, n) - divergence
            - entropy_units(log, ag, c * n) - entropy_units(log, bg, (n - c) * n))


def pinsker_units_oracle(log, l2e: int, a: int, c: int, n: int) -> int:
    """(D(p || q) - 2 (p - q)**2 log2 e) * n**2 * 2**w at a/n, c/n, from the
    logs and l2e = log2 e * 2**w."""
    divergence = a * (log[a] - log[c]) + (n - a) * (log[n - a] - log[n - c])
    return n * divergence - 2 * (a - c) ** 2 * l2e


def mp_split_slack(a: int, g: int, c: int, n: int):
    """The split slack at a/n, g/n, c/n by mpmath, term by term as stated."""
    with mpmath.workprec(mp_bits(Fraction(1, n))):
        p, gm, q = (mpmath.mpf(v) / n for v in (a, g, c))

        def h(x):
            return -(x * mpmath.log(x, 2) + (1 - x) * mpmath.log(1 - x, 2)) if 0 < x < 1 else 0

        return (h(gm) - gm * mp_divergence(Fraction(a, n), Fraction(c, n))
                - (q * h(p * gm / q) if c else 0)
                - ((1 - q) * h((1 - p) * gm / (1 - q)) if c < n else 0))


def mp_pinsker(a: int, c: int, n: int):
    """D(p || q) - 2 (p - q)**2 log2 e at a/n, c/n by mpmath."""
    with mpmath.workprec(mp_bits(Fraction(1, n))):
        penalty = 2 * mpmath.mpf(a - c) ** 2 / n**2 / mpmath.log(2)
        return mp_divergence(Fraction(a, n), Fraction(c, n)) - penalty


def mp_excess(k: int, n: int):
    """h(p) - p log2(e / p) at p = k/n by mpmath."""
    with mpmath.workprec(mp_bits(Fraction(1, n))):
        p = mpmath.mpf(k) / n
        h = -(p * mpmath.log(p, 2) + ((1 - p) * mpmath.log(1 - p, 2) if k < n else 0))
        return h - p * mpmath.log(mpmath.e / p, 2)


def binomial_margins_oracle(max_m: int) -> list[float]:
    """The binomial-vs-entropy sweep's margins, one binomial per case."""
    entropies = [stable_entropy(Fraction(num, 16)) for num in range(1, 16)]
    margins = []
    m = 16
    while m <= max_m:
        for num, h in enumerate(entropies, 1):
            margins.append(ceil_log2(binomial(m, num * m // 16)) - (m * h + 1))
        m *= 2
    return margins


def theoretical_set_bound(
    m: int,
    pick_fraction: Fraction,
    pool_rate: Fraction,
    picked_rate: Fraction,
) -> float:
    """Width bound m*h(gamma) - 2*gamma*m*(pool_rate - picked_rate)^2 in bits.

    ``pick_fraction`` is |A|/|B|, ``pool_rate`` the classifier's positive rate
    on B, ``picked_rate`` its positive rate on A.  Requires the split to be
    realizable: picked_rate*gamma <= pool_rate and
    (1-picked_rate)*gamma <= 1-pool_rate.
    """
    g = Fraction(pick_fraction)
    q = Fraction(pool_rate)
    p = Fraction(picked_rate)
    if m < 0:
        raise DomainError("m must be nonnegative")
    for v, name in ((g, "pick_fraction"), (q, "pool_rate"), (p, "picked_rate")):
        if v < 0 or v > 1:
            raise DomainError(f"{name}={v} outside [0, 1]")
    if p * g > q or (1 - p) * g > 1 - q:
        raise DomainError("split not realizable for these rates")
    gap = q - p
    h = stable_entropy(g)
    return m * h - 2.0 * float(g) * m * float(gap) * float(gap)


def generate_dataset_oracle(spec: GeneratorSpec, grid: GridSpec) -> Dataset:
    """``model.generate_dataset`` spelled out on ``random.Random.randrange``,
    with one ``Fraction`` rounding per gaussian coordinate: the reference its
    ``getrandbits`` sampler must match draw for draw."""
    rng = random.Random(spec.seed)
    unit = grid.unit
    half = spec.feature_scale * unit
    if half > grid.raw_max:
        raise DomainError("feature_scale exceeds the grid clip range")

    def box_raw(half_width_raw: int) -> int:
        return rng.randrange(-half_width_raw, half_width_raw + 1)

    def gauss_raw(sigma_raw: int) -> int:
        m = 1 << 20
        centered = sum(rng.randrange(m) for _ in range(12)) - 6 * (m - 1)
        return round_half_even(Fraction(centered * sigma_raw, m))

    elements: list[Element] = []
    if spec.family == "separable-margin":
        normal = [0] * spec.dim
        while all(v == 0 for v in normal):
            normal = [rng.randrange(-unit, unit + 1) for _ in range(spec.dim)]
        norm = math.sqrt(sum(v * v for v in normal))
        for eid in range(spec.n):
            for _ in range(10000):
                raws = [box_raw(half) for _ in range(spec.dim)]
                dot = sum(w * x for w, x in zip(normal, raws))
                if abs(dot) >= float(spec.margin) * norm * unit:
                    break
            else:
                raise DomainError("margin too large for the feature box")
            elements.append(
                Element(eid, FixedVector(tuple(raws), grid), 1 if dot > 0 else 0)
            )
    elif spec.family == "two-gaussians":
        center_raw = round_half_even(Fraction(spec.center_dist, 2) * unit)
        sigma_raw = round_half_even(spec.sigma * unit)
        for eid in range(spec.n):
            label = rng.getrandbits(1)
            sign = 1 if label else -1
            raws = []
            for c in range(spec.dim):
                base = sign * center_raw if c == 0 else 0
                raws.append(grid.clamp_raw(base + gauss_raw(sigma_raw)))
            elements.append(Element(eid, FixedVector(tuple(raws), grid), label))
    elif spec.family == "random-labels":
        for eid in range(spec.n):
            raws = tuple(box_raw(half) for _ in range(spec.dim))
            elements.append(Element(eid, FixedVector(raws, grid), rng.getrandbits(1)))
    elif spec.family == "one-hot":
        for eid in range(spec.n):
            raws = [0] * spec.dim
            raws[eid] = spec.feature_scale * unit
            elements.append(Element(eid, FixedVector(tuple(raws), grid), 1))
    return Dataset(tuple(elements), grid, spec)


def run_generated(config: RunConfig) -> TrainingRun:
    """``run_training`` on the dataset that the config's generator draws."""
    return run_training(config, generate_dataset(config.generator, config.grid))


def mask_of(ids) -> int:
    """The set mask of these element ids."""
    return sum(1 << e for e in ids)


def written(fields) -> BitStream:
    """A stream holding these (value, width) fields, MSB-first, in order."""
    stream = BitStream()
    for value, width in fields:
        stream.write_uint(value, width)
    return stream


def encode_set_conditional_oracle(
    stream: BitStream, a: int, pool: int, ones: int
) -> tuple[int, int, int]:
    """The conditional set code as the encoder wrote it before it returned
    fields: |A & ones| and |A & ~ones| in wh bits each, then each half's rank
    in w1 and w0 bits, all written to ``stream``; returns (wh, w1, w0)."""
    pool1, pool0 = pool & ones, pool & ~ones
    a1, a0 = a & ones, a & ~ones
    r1, r0 = subset_rank(a1, pool1), subset_rank(a0, pool0)
    k1, k0 = a1.bit_count(), a0.bit_count()
    wh = ceil_log2(k1 + k0 + 1)
    w1 = ceil_log2(binomial(pool1.bit_count(), k1))
    w0 = ceil_log2(binomial(pool0.bit_count(), k0))
    stream.write_uint(k1, wh)
    stream.write_uint(k0, wh)
    stream.write_uint(r1, w1)
    stream.write_uint(r0, w0)
    return wh, w1, w0


def manual_dataset(grid: GridSpec, rows, family: str = "random-labels") -> Dataset:
    """Builds a dataset from (raw_feature_tuple, label) rows."""
    spec = GeneratorSpec(
        family=family, n=len(rows), dim=len(rows[0][0]), seed=0
    )
    elements = tuple(
        Element(i, FixedVector(tuple(raws), grid), label)
        for i, (raws, label) in enumerate(rows)
    )
    return Dataset(elements, grid, spec)


def to_text_oracle(ds: Dataset) -> str:
    """``Dataset.to_text`` as it rendered sparse rows before it wrote runs of
    zeros: one d-cell list per row, its nonzero pairs written in."""
    lines = [f"{ds.n}\t{ds.dim}\t{ds.grid.scale}"]
    for el in ds.elements:
        cells = ["0"] * ds.dim
        for c, x in el._pairs:
            cells[c] = str(x)
        lines.append(f"{el.eid}\t{el.label}\t{','.join(cells)}")
    return "\n".join(lines) + "\n"


def dense_text(ds: Dataset) -> str:
    """The dataset text rendered entry by entry, one join per row, as every
    row once was."""
    lines = [f"{ds.n}\t{ds.dim}\t{ds.grid.scale}"]
    for el in ds.elements:
        lines.append(f"{el.eid}\t{el.label}\t{','.join(map(str, el.features.raws))}")
    return "\n".join(lines) + "\n"


def lanes_oracle(ds: Dataset) -> tuple[int, tuple[int, ...], int, int, int]:
    """``Dataset._lanes`` as it packed every row before it packed dense
    columns in one ``struct`` pass: each entry's lane by ``int.to_bytes``,
    one join per column.  Sparse rows give the same lanes this way."""
    n, dim, rows = ds.n, ds.dim, [el.features.raws for el in ds.elements]
    peak = max(max(map(max, rows)), -min(map(min, rows))) if n and dim else 0
    size = ((dim * peak * -ds.grid.raw_min).bit_length() + 9) // 8
    zero, top = bytes(size), (1 << 8 * size - 1).to_bytes(size, "little")
    tops = int.from_bytes(top * n, "little")
    columns = []
    for col in zip(*rows):
        lanes = [x.to_bytes(size, "little", signed=True) if x else zero for x in col]
        packed = int.from_bytes(b"".join(lanes), "little")
        columns.append(packed - ((packed & tops) << 1))
    label0 = b"".join(zero if el.label else top for el in ds.elements)
    bias = tops - (tops >> 8 * size - 1)
    return size, tuple(columns), bias, tops, int.from_bytes(label0, "little")


def max_sq_norm_oracle(elements) -> int:
    """``model._max_sq_norm`` as one ``_dot`` call per row (0 for none)."""
    rows = [el.features.raws for el in elements]
    return max(map(_dot, rows, rows), default=0)


def band_dataset(grid: GridSpec, n: int, lo_raw: int, hi_raw: int, seed: int) -> Dataset:
    """One-feature elements, labels all 0, features inside a raw-value band."""
    rng = random.Random(seed)
    rows = [((rng.randint(lo_raw, hi_raw),), 0) for _ in range(n)]
    return manual_dataset(grid, rows)


def one_hot_dataset(grid: GridSpec, n: int, scale_raw: int) -> Dataset:
    """n elements, element i carries scale_raw at coordinate i, labels all 1."""
    spec = GeneratorSpec(family="one-hot", n=n, dim=n, seed=0)
    elements = []
    for i in range(n):
        raws = [0] * n
        raws[i] = scale_raw
        elements.append(Element(i, FixedVector(tuple(raws), grid), 1))
    return Dataset(tuple(elements), grid, spec)


def correctness_mask_oracle(model: Model, dataset: Dataset) -> int:
    """``correctness_mask`` of a logistic-linear model with no stored sweep:
    every nonzero weight times its packed column, summed onto the bias lanes
    in one pass, and each lane's top bit read against its label."""
    if dataset.grid != model.grid:
        raise DomainError("dataset and model live on different grids")
    if dataset.n and dataset.dim != model.dim:
        raise DomainError(f"dataset dim {dataset.dim}, model dim {model.dim}")
    if not model.grid.holds(model.weights.raws):
        raise DomainError("a weight lies outside the grid's clip range")
    size, columns, bias, tops, label0 = dataset._lanes
    acc = sum((wc * col for wc, col in zip(model.weights.raws, columns) if wc), bias)
    top_bytes = ((acc & tops) ^ label0).to_bytes(dataset.n * size, "big")[::size]
    return int(top_bytes.translate(bytes.maketrans(b"\x00\x80", b"01")) or b"0", 2)


def linear_sum_oracle(terms: tuple, w, s: int) -> tuple[list[int], int]:
    """``model._linear_sum`` as it was before it read the sigmoid table
    inline: one ``_sigmoid_num`` call per element, the nonzero residuals and
    their rows collected, and each nonzero column's dot product with them."""
    pairs, rows, labels = terms
    if pairs is not None:
        total = [0] * len(w)
        for row, label in zip(pairs, labels):
            score = 0
            for c, x in row:
                score += w[c] * x
            resid = _sigmoid_num(score, 2 * s, s) - label
            if resid:
                for c, x in row:
                    total[c] += resid * x
        return total, 4 * s
    resids, kept = [], []
    for x, label in zip(rows, labels):
        resid = _sigmoid_num(_dot(w, x), 2 * s, s) - label
        if resid:
            resids.append(resid)
            kept.append(x)
    if not kept:
        return [0] * len(w), 4 * s
    return [_dot(resids, col) if any(col) else 0 for col in zip(*kept)], 4 * s


def pull_oracle(terms: tuple, w, base, step_raw: int, grid: GridSpec) -> tuple:
    """``sgd_engine._pull`` as it was before it fused its roundings: the
    mean gradient rounded onto the grid first, then each step rounded."""
    g = _mean_raws(*linear_sum_oracle(terms, w, grid.scale), len(terms[2]), grid.scale)
    return tuple(t + div_round_half_even(step_raw * x, grid.unit) for t, x in zip(base, g))


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 draw: returns (next_state, 64-bit output)."""
    state = (state + GOLDEN64) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


class BitTape:
    """MSB-first bit source backed by splitmix64, keyed by (seed, epoch)."""

    def __init__(self, seed: int, epoch: int) -> None:
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


def draw_permutation_oracle(n: int, source) -> tuple[int, ...]:
    """Fisher-Yates with one ``source.take(i.bit_length())`` call per try,
    redrawing values above i."""
    arr = list(range(n))
    for i in range(n - 1, 0, -1):
        width = i.bit_length()
        while True:
            j = source.take(width)
            if j <= i:
                break
        arr[i], arr[j] = arr[j], arr[i]
    return tuple(arr)


def weights_on(dataset: Dataset, ids, raw: int) -> FixedVector:
    """Weight vector with the given raw value at each listed coordinate."""
    raws = [0] * dataset.dim
    for i in ids:
        raws[i] = raw
    return FixedVector(tuple(raws), dataset.grid)


def synthesize_trace(
    dataset: Dataset,
    order,
    batch_size: int,
    weight_rows,
    epoch: int = 1,
) -> EpochTrace:
    """Builds an EpochTrace from explicit checkpoint weights.

    weight_rows holds T+1 FixedVectors; the correctness masks come from real
    correctness sweeps so the trace is internally consistent even though the
    checkpoints need not satisfy the update rule.
    """
    trace = EpochTrace(epoch=epoch, batch_size=batch_size, order=tuple(order))
    for weights in weight_rows:
        model = Model("logistic-linear", weights, dataset.dim)
        trace.checkpoints.append(weights)
        trace.masks.append(correctness_mask(model, dataset))
    return trace


def staircase_trace(n: int, b: int, grid: GridSpec = GridSpec()):
    """Memorization profile: batch j is exactly the correct set at W_{j+1}."""
    ds = one_hot_dataset(grid, n, 2 * grid.unit)
    order = tuple(range(n))
    rows = [weights_on(ds, (), grid.unit)]
    for i in range(n // b):
        rows.append(weights_on(ds, order[i * b : (i + 1) * b], grid.unit))
    return ds, synthesize_trace(ds, order, b, rows)


def split_trace(n: int, b: int, grid: GridSpec = GridSpec()):
    """Half the data learned at the midpoint checkpoint, all of it at the end."""
    ds = one_hot_dataset(grid, n, 2 * grid.unit)
    order = tuple(range(n))
    rows = [
        weights_on(ds, (), grid.unit),
        weights_on(ds, order[:b], grid.unit),
        weights_on(ds, order, grid.unit),
    ]
    return ds, synthesize_trace(ds, order, b, rows)


def staircase_report_inputs():
    """Dataset plus accounting row and ceiling verdict for one good epoch."""
    from sgdcodec.epoch_codec import (
        ACCOUNTING,
        check_eps_beta_ceiling,
        encode_epoch,
        epoch_accounting,
    )
    from sgdcodec.sgd_engine import RunConfig

    ds, tr = staircase_trace(160, 4)
    cfg = RunConfig(
        generator=ds.spec, batch_size=4, step_raw=0, eps=Fraction(1, 4),
        progress_coeff=Fraction(4), seed=0, max_epochs=1, grid=ds.grid,
    )
    code = encode_epoch(tr, ds, cfg, mode=ACCOUNTING)
    row = epoch_accounting(code, tr, cfg)
    return ds, [row], [check_eps_beta_ceiling(tr, cfg.eps)]


# The bookkeeping the step path did in ``Fraction`` before it counted in
# integers, kept as the reference the integer code must match exactly.


def sigmoid_table_max_slope(scale: int) -> Fraction:
    """Largest knot-to-knot slope of the sigmoid table at this scale."""
    knots = _sigmoid_knots(scale)
    steepest = max(abs(b - a) for a, b in zip(knots, knots[1:]))
    return Fraction(steepest << KNOT_BITS, 1 << scale)


def analytic_logistic_smoothness(elements) -> Fraction:
    """max |x|^2 / 4 over every raw of the rows: the smoothness of the
    exact-sigmoid logistic-linear loss."""
    elements = tuple(elements)
    if not elements:
        return Fraction(0)
    worst = max(sum(x * x for x in el.features.raws) for el in elements)
    return Fraction(worst, elements[0].features.grid.unit ** 2) / 4


def step_smoothness_oracle(step_raw: int, grid: GridSpec, batch) -> Fraction:
    """step * L of the logistic-linear loss over the batch, in ``Fraction``:
    max |x|^2 times the table's steepest slope."""
    sq_norm = Fraction(max_sq_norm_oracle(batch), grid.unit**2)
    return Fraction(step_raw, grid.unit) * sq_norm * sigmoid_table_max_slope(grid.scale)


def reverse_setup_oracle(step_raw: int, grid: GridSpec, batch, d: int, steps: int):
    """(q, floor(rho**2), [reach**2 at k = 0..steps]) of the reverse search,
    in ``Fraction``; a q >= 1 raises ``PreconditionError`` with its text."""
    sq_norm = Fraction(
        max(sum(x * x for x in el.features.raws) for el in batch), grid.unit**2
    )
    q = Fraction(step_raw, grid.unit) * sq_norm * sigmoid_table_max_slope(grid.scale)
    if q >= 1:
        raise PreconditionError(f"step*smoothness = {q} >= 1 on this batch")
    rho2 = (Fraction(step_raw, grid.unit) + 1) ** 2 * d / (1 - q) ** 2
    reach2 = [step_raw**2 * sq_norm]
    for _ in range(steps):
        reach2.append(reach2[-1] * q * q)
    return q, math.floor(rho2), reach2


def hits(trace: EpochTrace, i: int, lo: int, hi: int) -> int:
    """How many elements of batches lo..hi-1 of the visit order checkpoint i
    classifies correctly, counted from the order itself: the oracle of every
    entry of ``EpochTrace.counts``."""
    if not (0 <= i < len(trace.masks) and 0 <= lo <= hi <= trace.num_batches):
        raise DomainError(f"hits({i}, {lo}, {hi}) outside the trace")
    b = trace.batch_size
    span = sum(1 << e for e in trace.order[lo * b : hi * b])
    return (trace.masks[i] & span).bit_count()


def rate_oracle(trace: EpochTrace, i: int, lo: int, hi: int):
    """Accuracy at checkpoint i over batches lo..hi-1; None for an empty span."""
    if not (0 <= lo < hi <= trace.num_batches):
        return None
    return Fraction(hits(trace, i, lo, hi), (hi - lo) * trace.batch_size)


def trace_cells_oracle(trace: EpochTrace, i: int) -> list[str]:
    """The five rate cells of checkpoint i's ``trace.csv`` row."""
    from sgdcodec.harness import _cell

    t = trace.num_batches
    spans = ((0, t), (0, i), (i, t), (i - 1, i), (i, i + 1))
    return [_cell(rate_oracle(trace, i, lo, hi)) for lo, hi in spans]


def progress_oracle(tr: EpochTrace) -> Fraction:
    """b/n times the sum over steps of batch accuracy after minus before."""
    b, total = tr.batch_size, Fraction(0)
    for i in range(1, tr.steps_done + 1):
        batch = sum(1 << e for e in tr.order[(i - 1) * b : i * b])
        after = Fraction((tr.masks[i] & batch).bit_count(), b)
        before = Fraction((tr.masks[i - 1] & batch).bit_count(), b)
        total += after - before
    return Fraction(b, tr.n) * total


def select_case_oracle(trace: EpochTrace, beta: Fraction):
    from sgdcodec.epoch_codec import BACKWARD, SPLIT, CaseSelector

    n, b, t = trace.n, trace.batch_size, trace.num_batches
    j_start = math.ceil(beta * Fraction(n, 8 * b)) + 1
    j_final = math.floor((1 - beta / 8) * Fraction(n, b)) + 1
    lo = max(j_start, 2)
    hi = min(j_final, t)
    if lo > hi:
        return CaseSelector(j_start, j_final, True, BACKWARD, None, None)
    for i in range(lo - 1, hi):
        gap = abs(rate_oracle(trace, i, 0, i) - rate_oracle(trace, i, i, t))
        if gap >= beta / 4:
            return CaseSelector(j_start, j_final, False, SPLIT, i + 1, gap)
    return CaseSelector(j_start, j_final, False, BACKWARD, None, None)


def split_divergences_oracle(trace: EpochTrace, i: int) -> tuple[Fraction, Fraction]:
    t = trace.num_batches
    gamma = Fraction(i, t)
    full = rate_oracle(trace, i, 0, t)
    d_seen = rate_oracle(trace, i, 0, i) - full
    d_unseen = rate_oracle(trace, i, i, t) - full
    return gamma * d_seen**2, (1 - gamma) * d_unseen**2


def choose_split_side_oracle(trace: EpochTrace, j: int) -> int:
    seen, unseen = split_divergences_oracle(trace, j - 1)
    return 0 if seen >= unseen else 1


def predict_segments_oracle(trace: EpochTrace, config, selector, mode: str = "ACCOUNTING"):
    """``predict_segments`` as it read every count through ``hits``."""
    from sgdcodec.epoch_codec import SPLIT, STRICT, choose_split_side

    n, b, t = trace.n, trace.batch_size, trace.num_batches
    segs: list[tuple[str, int]] = [("case", 1)]
    if selector.case == SPLIT:
        j = selector.split_j
        segs.append(("split_j", ceil_log2(t)))
        segs.append(("side", 1))
        if mode == STRICT:
            segs.append(("model", config.d * config.grid.coord_bits))
        i = j - 1
        m = i * b
        ones_total = hits(trace, i, 0, t)
        if choose_split_side(trace, j) == 0:
            size, k1 = m, hits(trace, i, 0, i)
        else:
            size, k1 = n - m, hits(trace, i, i, t)
        wh = ceil_log2(size + 1)
        segs.append(("set_sizes", 2 * wh))
        segs.append(("set_rank_pos", ceil_log2(binomial(ones_total, k1))))
        segs.append(("set_rank_neg", ceil_log2(binomial(n - ones_total, size - k1))))
        segs.append(("perm_left", ceil_log2(math.factorial(m))))
        segs.append(("perm_right", ceil_log2(math.factorial(n - m))))
    else:
        wh = ceil_log2(b + 1)
        pw = ceil_log2(math.factorial(b))
        for j in range(t, 0, -1):
            pool = j * b
            n1 = hits(trace, j, 0, j)
            k1 = hits(trace, j, j - 1, j)
            tag = f"b{j:03d}"
            segs.append((f"{tag}_sizes", 2 * wh))
            segs.append((f"{tag}_rank_pos", ceil_log2(binomial(n1, k1))))
            segs.append((f"{tag}_rank_neg", ceil_log2(binomial(pool - n1, b - k1))))
            segs.append((f"{tag}_perm", pw))
    return tuple(segs)


def epoch_accounting_oracle(code, trace: EpochTrace, config):
    """``epoch_accounting`` with every comparison and term in ``Fraction``."""
    from sgdcodec.epoch_codec import (
        BACKWARD,
        SPLIT,
        AccountRow,
        _slack_bits,
        model_description_bits,
    )
    from sgdcodec.stable import LOG2_E, stable_log2

    beta = config.progress_floor
    n, b, t = trace.n, trace.batch_size, trace.num_batches
    measured = code.measured_bits
    payload = measured - code.stream_model_bits
    baseline = ceil_log2(math.factorial(n))
    beta_hat = progress_oracle(trace)
    progress_ok = beta_hat >= beta
    charge = model_description_bits(config) if code.case == SPLIT else 0
    charge_budget = Fraction(n) * beta**3 / 512
    model_charge_ok = code.case != SPLIT or Fraction(charge) <= charge_budget
    good = progress_ok and model_charge_ok
    charged = payload + charge if good else baseline
    slack = _slack_bits(t, stable_log2(n))

    rate = partial(rate_oracle, trace)
    deltas = [rate(i, i - 1, i) - rate(i, 0, i) for i in range(1, t + 1)]
    split_bound = split_ok = backward_bound = backward_ok = None
    if code.case == SPLIT:
        bonus = max(split_divergences_oracle(trace, code.split_j - 1))
        split_bound = stable_log2(math.factorial(n)) - float(2 * n * bonus) + slack
        split_ok = payload <= split_bound
    else:
        headers = 2 * ceil_log2(b + 1) + 2
        order_excess = ceil_log2(math.factorial(b)) - (b * (stable_log2(b) - LOG2_E))
        total = 1.0
        for i, delta in enumerate(deltas, 1):
            total += b * stable_log2(i * b) - float(2 * b * delta**2)
            total += headers
            total += order_excess
        backward_bound = total
        backward_ok = payload <= backward_bound

    log2_n = stable_log2(n)
    epoch_bound = n * (log2_n - LOG2_E) - float(charge_budget) + _slack_bits(t, log2_n)
    epoch_bound_ok = (payload + charge <= epoch_bound) if good else None

    quarter = beta / 4
    batch_lag_ok = all(rate(i, i, i + 1) >= rate(i, i, t) - quarter for i in range(t))
    divergence_sum = sum((delta**2 for delta in deltas), Fraction(0))
    divergence_floor = Fraction(n) * beta_hat**2 / (25 * b)
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
        divergence_ok=divergence_sum >= divergence_floor,
        divergence_precond_ok=(
            code.case == BACKWARD
            and not code.selector.degenerate
            and progress_ok
            and batch_lag_ok
        ),
    )
