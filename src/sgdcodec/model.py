"""Datasets and grid-valued classifiers with exact integer gradients.

Two model kinds are supported: a logistic-linear classifier and a one hidden
layer network whose activations go through the same sigmoid table.  The
sigmoid is a precomputed fixed-point lookup table with linear interpolation.
Scores, table values, slopes and gradients are integer numerators over
power-of-two denominators fixed by the grid scale (the batch mean adds a
factor of the batch size), so a gradient is a deterministic function of
(weights, batch) with a single round-half-even division at the end of each
step.
Classification goes through one sweep, ``correctness_mask`` (for logistic-linear
models one big-int sum over lane-packed feature columns), with the prediction
rule score > 0 -> label 1; accuracies are popcounts of its masks.  The
``Dataset`` keeps the raws and packed scores of its last logistic-linear
sweep, from which the next sweep adds only the weights that moved.  Training
sweeps each checkpoint as it records it; an ACCOUNTING decode reads the
trace's masks and sweeps nothing.

Sparse rows, such as one-hot data, cost O(nonzeros): each element caches its
nonzero (coordinate, raw) pairs, which the one-hot generator stores as it builds
them; the logistic-linear gradient, lane packing, smoothness bound and dataset
text run from them.  The density rule (``_sparse_pairs``) is one decision per
kernel call, never per element; rows shorter than ``_SPARSE_DIM`` go unscanned.
Both paths agree.
Dense rows build the lane packing, the dataset text and the smoothness bound
in C-level passes over columns or rows, with no Python call per entry or per
row (``Dataset._lanes``, ``Dataset.to_text``, ``_peak_sq_norm``); the dataset
keeps its lanes and its max |x|^2 (``Dataset._sq_norm``) once built.
A ``GeneratorSpec``'s fields are run settings, listed in ``harness.SETTINGS``;
it refuses more than 2**24 feature cells.
"""

from __future__ import annotations

import math
import operator
import random
import struct
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress, islice, repeat
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .numerics import (
    DomainError,
    FixedVector,
    GridSpec,
    Record,
    SaturationError,
    _set,
    div_round_half_even,
    round_half_even,
    zero_vector,
)
from .stable import stable_sigmoid_knots

MODEL_KINDS = ("logistic-linear", "one-hidden-layer")
FAMILIES = ("separable-margin", "two-gaussians", "random-labels", "one-hot")

# Density cutoff of ``_sparse_pairs``.  The pair path of ``_lanes`` falls
# behind the bytes path near one nonzero in four (its column sums grow as
# they add), the gradient's near one in two; 1/8 keeps both ahead.
_SPARSE_DIM = 8

# Most feature cells (n * dim) a generated dataset may hold, and most weights
# a run may train: a one-hot n of 4096, about 0.1 GiB of row pointers, so a
# huge n or hidden width exits with an error at once.
_MAX_CELLS = 1 << 24


def _nonzeros(raws: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The (coordinate, raw) pairs of the nonzero entries, ascending."""
    coords = tuple(compress(range(len(raws)), raws))
    return tuple(zip(coords, map(raws.__getitem__, coords)))


class Element(Record):
    """One data point: unique id, fixed-point feature vector, binary label."""

    __slots__ = ("eid", "features", "label", "__dict__")  # _pairs caches in __dict__
    _fields = __slots__[:3]

    def __init__(self, eid: int, features: FixedVector, label: int) -> None:
        _set(self, "eid", eid)
        _set(self, "features", features)
        _set(self, "label", label)
        if label not in (0, 1):
            raise DomainError(f"label must be 0/1, got {label}")

    @cached_property
    def _pairs(self) -> tuple[tuple[int, int], ...]:
        return _nonzeros(self.features.raws)


def _sparse_pairs(
    elements: Sequence[Element], dim: int
) -> Optional[list[tuple[tuple[int, int], ...]]]:
    """Each element's nonzero pairs if the rows are sparse, else None.

    Sparse means dim >= _SPARSE_DIM and at most one entry in _SPARSE_DIM of
    all the rows is nonzero.  It is one decision for all the rows, so a
    kernel runs either its pair path or its column path, never a mix.
    """
    if dim < _SPARSE_DIM:
        return None
    pairs = [el._pairs for el in elements]
    return pairs if sum(map(len, pairs)) * _SPARSE_DIM <= len(pairs) * dim else None


class GeneratorSpec(Record):
    """Parameters of one synthetic dataset family.

    Families:
      separable-margin  random box features relabeled by a hidden hyperplane,
                        rejection-sampled to a minimum normalized margin
      two-gaussians     two clusters at +/- center along axis 0 with integer
                        approximate-normal noise of standard deviation sigma
      random-labels     box features with independent fair-coin labels
      one-hot           element i carries feature_scale * e_i and label 1; a
                        linear model can memorize each element independently,
                        which makes within-epoch seen/unseen accuracy split
                        maximally (all labels separable by the all-ones
                        hyperplane)
    """

    __slots__ = _fields = (
        "family", "n", "dim", "seed", "margin", "sigma", "center_dist", "feature_scale")

    def __init__(
        self, family: str, n: int, dim: int, seed: int, margin: Fraction = Fraction(1, 2),
        sigma: Fraction = Fraction(1, 2), center_dist: Fraction = Fraction(2),
        feature_scale: int = 2,
    ) -> None:
        self._init(family, n, dim, seed, margin, sigma, center_dist, feature_scale)
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise DomainError("n must be >= 1")
        if self.seed < 0:  # random.Random(seed) would seed with |seed|
            raise DomainError("data seed must be >= 0")
        if self.family == "one-hot":
            if self.dim != self.n:
                raise DomainError("one-hot family requires dim == n")
        elif self.dim < 1:
            raise DomainError("dim must be >= 1")
        if self.n * self.dim > _MAX_CELLS:  # before any row is allocated
            raise DomainError(f"n * dim must be <= 2**24, got {self.n * self.dim}")
        if self.margin < 0 or self.sigma < 0 or self.center_dist <= 0:
            raise DomainError("margin/sigma must be >= 0 and center_dist > 0")
        if self.feature_scale < 1:
            raise DomainError("feature_scale must be >= 1")
        # |w.x| / |w| <= |x| <= sqrt(dim) * feature_scale on the feature box
        if self.family == "separable-margin" and self.margin**2 > self.dim * self.feature_scale**2:
            raise DomainError("margin too large for the feature box")


class Dataset(Record):
    """Elements sorted by id; ids are exactly 0..n-1, features of one length on ``grid``."""

    _fields = ("elements", "grid", "spec")

    def __init__(
        self, elements: tuple[Element, ...], grid: GridSpec, spec: Optional[GeneratorSpec] = None
    ) -> None:
        self._init(elements, grid, spec)
        # correctness_mask's state: [raws, packed scores] of its last sweep
        _set(self, "_sweep", [])
        dim = self.dim
        for i, el in enumerate(self.elements):
            if el.eid != i:
                raise DomainError("element ids must be exactly 0..n-1 in order")
            if el.features.grid is not self.grid and el.features.grid != self.grid:
                raise DomainError("element features live on another grid")
            if len(el.features.raws) != dim:
                raise DomainError(f"element {i} has {len(el.features.raws)} features, not {dim}")

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return len(self.elements[0].features.raws) if self.elements else 0

    @cached_property
    def _sq_norm(self) -> int:
        """max |x|^2 over the elements, in raw units squared (0 for none)."""
        return _max_sq_norm(self.elements)

    @cached_property
    def _lanes(self) -> tuple[int, tuple[int, ...], int, int, int]:
        """The operands of ``correctness_mask``, one L-bit lane per element e.

        L = 8*size >= bitlen(dim * max|x| * clip * 2**scale) + 2.  Returns size,
        per column c the int sum_e x_ec * 2**(L*e), and ints holding 2**(L-1) - 1,
        the top bit, and the top bit iff label 0, in every lane.  Sparse rows
        add each nonzero's shifted value into its column.  Dense rows pack a
        column at a time: one ``struct`` int64 pack, whose low ``size`` bytes
        per entry are its two's-complement lane, copied out by ``size``
        strided slices; lanes wider than 8 bytes (dim * peak * |raw_min| >=
        2**62) pack each entry by ``int.to_bytes``."""
        n, dim, rows = self.n, self.dim, [el.features.raws for el in self.elements]
        pairs = _sparse_pairs(self.elements, dim)
        if pairs is None:
            cols = list(zip(*rows))
            peak = max(max(map(max, cols)), -min(map(min, cols))) if cols else 0
        else:
            peak = max((abs(x) for row in pairs for _, x in row), default=0)
        size = ((dim * peak * -self.grid.raw_min).bit_length() + 9) // 8
        zero, top = bytes(size), (1 << 8 * size - 1).to_bytes(size, "little")
        tops = int.from_bytes(top * n, "little")
        if pairs is None:
            columns = []
            for col in cols:
                if size <= 8:  # each lane is the low bytes of the raw's int64
                    words, buf = struct.pack(f"<{n}q", *col), bytearray(n * size)
                    for k in range(size):
                        buf[k::size] = words[k::8]
                else:
                    buf = b"".join(x.to_bytes(size, "little", signed=True) if x else zero
                                   for x in col)
                # read unsigned, each negative lane overshoots by 2**L: twice its top bit
                packed = int.from_bytes(buf, "little")
                columns.append(packed - ((packed & tops) << 1))
        else:
            columns = [0] * dim
            for e, row in enumerate(pairs):
                for c, x in row:
                    columns[c] += x << 8 * size * e
        label0 = b"".join(zero if el.label else top for el in self.elements)
        bias = tops - (tops >> 8 * size - 1)
        return size, tuple(columns), bias, tops, int.from_bytes(label0, "little")

    def subset(self, ids: Iterable[int]) -> tuple[Element, ...]:
        """Elements for the given ids, ascending by id; an id outside
        [0, n) is a DomainError."""
        ids = sorted(ids)
        if not ids:
            return ()
        if ids[0] < 0 or ids[-1] >= len(self.elements):
            bad = ids[0] if ids[0] < 0 else ids[-1]
            raise DomainError(f"element id {bad} outside [0, {self.n})")
        picked = operator.itemgetter(*ids)(self.elements)
        return picked if len(ids) > 1 else (picked,)

    def to_text(self) -> str:
        """Header 'n<TAB>p<TAB>scale', then one 'id<TAB>label<TAB>raw,raw,...' line each.

        Dense rows fill one ``%s`` template per line, repeated n times, from
        the (id, label, column...) cells interleaved by strided slices."""
        n, dim, elements = self.n, self.dim, self.elements
        head = f"{n}\t{dim}\t{self.grid.scale}\n"
        pairs = _sparse_pairs(elements, dim)
        if pairs is None:
            width = dim + 2
            cells: list = [0] * (n * width)
            cells[::width] = range(n)  # the ids, which Dataset's __init__ checked
            cells[1::width] = [el.label for el in elements]
            for c, col in enumerate(zip(*[el.features.raws for el in elements]), 2):
                cells[c::width] = col
            line = "%s\t%s\t" + ",".join(["%s"] * dim) + "\n"
            return head + (line * n) % tuple(cells)
        feats = []  # runs of zeros around each row's nonzeros
        for row in pairs:
            text, at = "", 0
            for c, x in row:
                text += "0," * (c - at) + f"{x},"
                at = c + 1
            feats.append((text + "0," * (dim - at))[:-1])
        return head + "".join(f"{el.eid}\t{el.label}\t{f}\n" for el, f in zip(elements, feats))

    @classmethod
    def from_text(cls, text: str, grid: GridSpec) -> "Dataset":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise DomainError("empty dataset text")
        n, dim, scale = (int(x) for x in lines[0].split("\t"))
        if scale != grid.scale:
            raise DomainError(f"scale mismatch: file {scale}, grid {grid.scale}")
        if len(lines) != n + 1:
            raise DomainError(f"expected {n} rows, got {len(lines) - 1}")
        elements = []
        for ln in lines[1:]:
            eid_s, label_s, feats_s = ln.split("\t")
            raws = tuple(int(x) for x in feats_s.split(",")) if feats_s else ()
            if len(raws) != dim:
                raise DomainError("feature dimension mismatch")
            if not grid.holds(raws):
                raise DomainError("feature mantissa outside clip range")
            elements.append(Element(int(eid_s), FixedVector(raws, grid), int(label_s)))
        return cls(tuple(elements), grid)


def _uniform_draws(getrandbits: Callable[[int], int], lo: int, hi: int) -> Iterator[int]:
    """Uniform integers from [lo, hi], hi >= lo, on a ``Random.getrandbits``,
    drawn one at a time as they are consumed.

    Each draw takes k = n.bit_length() bits, n = hi - lo + 1, and draws
    again while the value is >= n.  That is the algorithm behind CPython's
    ``randrange`` (3.10-3.13), so the draws and the generator's state after
    each are those of ``randrange(lo, hi + 1)`` calls, but they depend on
    ``getrandbits`` alone.  Consumers may interleave other draws between
    items.
    """
    n = hi - lo + 1
    k = n.bit_length()
    while True:
        r = getrandbits(k)
        if r < n:
            yield lo + r


def generate_dataset(spec: GeneratorSpec, grid: GridSpec) -> Dataset:
    """Deterministic synthetic dataset for the given spec; same seed, same bytes."""
    getrandbits = random.Random(spec.seed).getrandbits
    unit, dim = grid.unit, spec.dim
    half = spec.feature_scale * unit
    if half > grid.raw_max:
        raise DomainError("feature_scale exceeds the grid clip range")
    box = _uniform_draws(getrandbits, -half, half)
    elements: list[Element] = []

    if spec.family == "separable-margin":
        normal, units = [0] * dim, _uniform_draws(getrandbits, -unit, unit)
        while all(v == 0 for v in normal):
            normal = list(islice(units, dim))
        norm = math.sqrt(sum(v * v for v in normal))
        # Normalized margin threshold compared on raw products: |w.x| >= margin*|w|.
        for eid in range(spec.n):
            for _ in range(10000):
                raws = tuple(islice(box, dim))
                dot = sum(w * x for w, x in zip(normal, raws))
                if abs(dot) >= float(spec.margin) * norm * unit:
                    break
            else:
                raise DomainError("margin too large for the feature box")
            elements.append(Element(eid, FixedVector(raws, grid), 1 if dot > 0 else 0))

    elif spec.family == "two-gaussians":
        # Each coordinate sums 12 uniform integers from [0, M): mean 6(M-1),
        # variance M**2 - 1, so std ~ M; centered and scaled by sigma_raw / M.
        # Integer arithmetic only, so generation is bit-identical everywhere.
        m = 1 << 20
        terms = _uniform_draws(getrandbits, 0, m - 1)
        center_raw = round_half_even(Fraction(spec.center_dist, 2) * unit)
        sigma_raw = round_half_even(spec.sigma * unit)
        for eid in range(spec.n):
            label = getrandbits(1)
            sign = 1 if label else -1
            raws = []
            for c in range(dim):
                base = sign * center_raw if c == 0 else 0
                centered = sum(islice(terms, 12)) - 6 * (m - 1)
                raws.append(grid.clamp_raw(base + div_round_half_even(centered * sigma_raw, m)))
            elements.append(Element(eid, FixedVector(tuple(raws), grid), label))

    elif spec.family == "random-labels":
        for eid in range(spec.n):
            raws = tuple(islice(box, dim))
            elements.append(Element(eid, FixedVector(raws, grid), getrandbits(1)))

    elif spec.family == "one-hot":
        on = spec.feature_scale * unit
        band = (0,) * dim + (on,) + (0,) * dim  # each row is one slice of it
        for eid in range(spec.n):
            el = Element(eid, FixedVector(band[dim - eid : 2 * dim - eid], grid), 1)
            el.__dict__["_pairs"] = ((eid, on),)  # what _nonzeros would find
            elements.append(el)

    return Dataset(tuple(elements), grid, spec)


# Sigmoid lookup table: knots every 2**-KNOT_BITS over [-Z_MAX, Z_MAX], values
# quantized to the working grid scale, exact 0/1 beyond the ends.  Knot values
# are correctly rounded doubles from exact integer arithmetic
# (stable.stable_sigmoid_knots), so the table is identical on every platform.
KNOT_BITS = 6
Z_MAX = 8


@lru_cache(maxsize=None)
def _sigmoid_knots(scale: int) -> tuple[int, ...]:
    ratios = map(float.as_integer_ratio, stable_sigmoid_knots(KNOT_BITS, Z_MAX))
    return tuple(div_round_half_even(n << scale, d) for n, d in ratios)


def _sigmoid_num(num: int, exp: int, scale: int) -> int:
    """Table sigmoid of num / 2**exp, as a numerator over 2**(scale + exp)."""
    if num >= Z_MAX << exp:
        return 1 << (scale + exp)
    if num <= -(Z_MAX << exp):
        return 0
    knots = _sigmoid_knots(scale)
    shifted = num << KNOT_BITS
    k = shifted >> exp
    base = k + (Z_MAX << KNOT_BITS)
    lo = knots[base]
    return (lo << exp) + (knots[base + 1] - lo) * (shifted - (k << exp))


def _sigmoid_slope_num(num: int, exp: int, scale: int) -> int:
    """Right-segment table slope at num / 2**exp, as a numerator over 2**scale."""
    if num >= Z_MAX << exp or num < -(Z_MAX << exp):
        return 0
    knots = _sigmoid_knots(scale)
    base = ((num << KNOT_BITS) >> exp) + (Z_MAX << KNOT_BITS)
    return (knots[base + 1] - knots[base]) << KNOT_BITS


@lru_cache(maxsize=None)
def _table_max_slope(scale: int) -> int:
    """Largest knot-to-knot slope of the table, as a numerator over 2**scale.

    Rounding the knots to the grid makes the table steeper than the exact
    sigmoid's 1/4 at coarse scales: 4 at scale 4, 1 at scale 6.
    """
    knots = _sigmoid_knots(scale)
    return max(abs(b - a) for a, b in zip(knots, knots[1:])) << KNOT_BITS


def weight_count(kind: str, dim: int, width: int) -> int:
    """Weight count: dim for logistic-linear, width*dim + width with a hidden layer."""
    return dim if kind == "logistic-linear" else width * dim + width


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(operator.mul, a, b))


class Model(Record):
    """A grid-valued classifier: weights plus a kind tag.

    one-hidden-layer weight layout: ``width`` rows of ``dim`` input weights,
    then ``width`` output weights.

    At grid scale s every quantity is an integer numerator over a fixed power
    of two: hidden pre-activations over 2**(2s) and activations over 2**(3s);
    the output score over 2**(2s) (logistic-linear) or 2**(4s) (hidden).
    """

    __slots__ = _fields = ("kind", "weights", "dim", "width")

    def __init__(self, kind: str, weights: FixedVector, dim: int, width: int = 0) -> None:
        _set(self, "kind", kind)
        _set(self, "weights", weights)
        _set(self, "dim", dim)
        _set(self, "width", width)
        if kind not in MODEL_KINDS:
            raise DomainError(f"unknown model kind {kind!r}")
        if kind == "one-hidden-layer" and width < 1:
            raise DomainError("one-hidden-layer needs width >= 1")
        expect = weight_count(kind, dim, width)
        if len(weights.raws) != expect:
            raise DomainError(
                f"{kind} with dim={dim} width={width} "
                f"needs {expect} weights, got {len(weights.raws)}"
            )

    @property
    def d(self) -> int:
        return len(self.weights)

    @property
    def grid(self) -> GridSpec:
        return self.weights.grid

    def with_weights(self, weights: FixedVector) -> "Model":
        return Model(self.kind, weights, self.dim, self.width)

    def _features(self, el: Element) -> tuple[int, ...]:
        grid = el.features.grid
        if grid is not self.weights.grid and grid != self.weights.grid:
            raise DomainError("element and model live on different grids")
        if len(el.features) != self.dim:
            raise DomainError(f"element {el.eid} and the model differ in dim")
        return el.features.raws

    def _hidden(self, x: Sequence[int]) -> tuple[list[int], list[int]]:
        """Hidden pre-activation numerators (over 2**(2s)) and activations (over 2**(3s))."""
        s, w, dim = self.grid.scale, self.weights.raws, self.dim
        pre = [_dot(w[r * dim : (r + 1) * dim], x) for r in range(self.width)]
        return pre, [_sigmoid_num(p, 2 * s, s) for p in pre]


def zero_model(kind: str, dim: int, grid: GridSpec, width: int = 0) -> Model:
    return Model(kind, zero_vector(weight_count(kind, dim, width), grid), dim, width)


def _linear_batch(model: Model, batch: Sequence[Element]) -> tuple:
    """The logistic-linear gradient's batch terms: the rows' nonzero pairs if
    they are sparse (``_sparse_pairs``) else None, the rows, and the labels
    over 2**(3s).  Raises DomainError on an empty batch or an element off the
    model's grid or dim."""
    if not batch:
        raise DomainError("empty batch")
    grid, dim, shift = model.weights.grid, model.dim, 3 * model.grid.scale
    rows, labels = [], []
    for el in batch:
        features = el.features
        if features.grid is not grid or len(features.raws) != dim:
            model._features(el)  # raises, unless the grid is only equal
        rows.append(features.raws)
        labels.append(el.label << shift)
    return _sparse_pairs(batch, dim), rows, labels


def _linear_sum(terms: tuple, w: Sequence[int], s: int) -> tuple[list[int], int]:
    """``_gradient_sum`` of a logistic-linear model at raws w, scale s, on batch terms.

    Each residual is ``_sigmoid_num(score, 2s, s)`` minus the label, with
    the table read inline: the table, its ends and its offset are looked up
    once per call, not once per element.
    """
    pairs, rows, labels = terms
    if pairs is None:
        scores = [sum(map(operator.mul, w, x)) for x in rows]
    else:
        scores = []
        for row in pairs:
            z = 0
            for c, x in row:
                z += w[c] * x
            scores.append(z)
    e = 2 * s
    knots, top, one = _sigmoid_knots(s), Z_MAX << e, 1 << 3 * s
    mid, frac = Z_MAX << KNOT_BITS, (1 << e) - 1
    resids = []
    for z, label in zip(scores, labels):
        if z >= top:
            resids.append(one - label)
        elif z <= -top:
            resids.append(-label)
        else:
            z <<= KNOT_BITS
            k = (z >> e) + mid
            lo = knots[k]
            resids.append((lo << e) + (knots[k + 1] - lo) * (z & frac) - label)
    if pairs is None:
        return [_dot(resids, col) for col in zip(*rows)], 4 * s
    total = [0] * len(w)
    for row, resid in zip(pairs, resids):
        if resid:
            for c, x in row:
                total[c] += resid * x
    return total, 4 * s


def _gradient_sum(model: Model, batch: Sequence[Element]) -> tuple[list[int], int]:
    """Batch-summed gradient numerators and the exponent e of their common 2**e.

    The mean gradient is numerator / (len(batch) * 2**e): e = 4s for
    logistic-linear (residual over 2**(3s) times a feature over 2**s), 8s for
    one hidden layer.  Integer sums are exact, so batch order does not matter.
    Logistic-linear coordinate c is the dot product of the residuals with
    column c of the elements' features.  On sparse rows (see
    ``_sparse_pairs``) each element's score and its residual's share come
    from its nonzero pairs alone, and an element with a zero residual is
    skipped; on dense rows the sum runs column by column.
    """
    s = model.grid.scale
    w = model.weights.raws
    if model.kind == "logistic-linear":
        return _linear_sum(_linear_batch(model, batch), w, s)
    if not batch:
        raise DomainError("empty batch")
    total = [0] * model.d
    dim, width = model.dim, model.width
    v = w[width * dim :]
    for el in batch:
        x = model._features(el)
        pre, act = model._hidden(x)
        # residual over 2**(5s); slope over 2**s; coef over 2**(7s)
        resid = _sigmoid_num(_dot(v, act), 4 * s, s) - (el.label << 5 * s)
        for r in range(width):
            coef = resid * v[r] * _sigmoid_slope_num(pre[r], 2 * s, s)
            for c in range(dim):
                total[r * dim + c] += coef * x[c]
            total[width * dim + r] += resid * act[r]
    return total, 8 * s


def _mean_raws(total: Sequence[int], exp: int, n: int, scale: int) -> tuple[int, ...]:
    """Mean mantissas of a ``_gradient_sum`` over n elements, rounded half to even."""
    den = n << (exp - scale)
    raws = [0] * len(total)
    for i in compress(range(len(total)), total):
        raws[i] = div_round_half_even(total[i], den)
    return tuple(raws)


def loss_gradient(model: Model, batch: Sequence[Element]) -> FixedVector:
    """Mean batch gradient quantized once to the grid, round half to even.

    Raises SaturationError if any quantized coordinate clips.
    """
    grid = model.grid
    raws = _mean_raws(*_gradient_sum(model, batch), len(batch), grid.scale)
    if not grid.holds(raws):
        raise SaturationError("gradient coordinate clipped during quantization")
    return FixedVector(raws, grid)


def correctness_vector(model: Model, dataset: Dataset) -> list[int]:
    """``correctness_mask`` as a 0/1 list indexed by element id."""
    mask = correctness_mask(model, dataset)
    return [mask >> e & 1 for e in range(dataset.n)]


# the ASCII digit of a byte's top bit, as a bytes.translate table
_TOP_BIT_DIGITS = bytes(b"01"[b >> 7] for b in range(256))


def correctness_mask(model: Model, dataset: Dataset) -> int:
    """The correctness sweep as one int: bit e is set iff element e is correct.

    Correct means the sign of the score numerator agrees with the label:
    positive for label 1, zero or negative for label 0.  A logistic-linear
    sweep starts from the raws and packed scores of the dataset's last one
    (``dataset._sweep``; zero raws and the bias lanes at first) and adds
    (new - old) * column only where a raw differs.  A refused model and a
    hidden-layer model leave that state as it was.
    """
    grid, w, elements = model.weights.grid, model.weights.raws, dataset.elements
    if dataset.grid is not grid and dataset.grid != grid:
        raise DomainError("dataset and model live on different grids")
    if elements and len(elements[0].features.raws) != model.dim:
        raise DomainError(f"dataset dim {dataset.dim}, model dim {model.dim}")
    if model.kind != "logistic-linear":  # per element, output scores over 2**(4s)
        v = w[model.width * model.dim :]
        scores = (_dot(v, model._hidden(el.features.raws)[1]) for el in elements)
        return sum(1 << el.eid for z, el in zip(scores, elements) if (z > 0) == el.label)
    if not grid.holds(w):
        raise DomainError("a weight lies outside the grid's clip range")
    size, columns, bias, tops, label0 = dataset._lanes
    old, acc = dataset._sweep or ((0,) * len(w), bias)
    for c in compress(range(len(columns)), map(operator.ne, w, old)):
        acc += (w[c] - old[c]) * columns[c]
    dataset._sweep[:] = w, acc
    # lane e holds score_e + 2**(L-1) - 1, so its top bit says score_e > 0;
    # label0 flips that bit where label e is 0
    top_bytes = ((acc & tops) ^ label0).to_bytes(dataset.n * size, "big")[::size]
    return int(top_bytes.translate(_TOP_BIT_DIGITS) or b"0", 2)


def _peak_sq_norm(pairs: Optional[list], rows: Sequence[Sequence[int]]) -> int:
    """max |x|^2 over the rows, in raw units squared (0 for none); given
    the rows' nonzero pairs, it sums their squares only."""
    if pairs is None:
        return max(map(sum, map(map, repeat(operator.mul), rows, rows)), default=0)
    return max((sum(x * x for _, x in row) for row in pairs), default=0)


def _max_sq_norm(elements: Sequence[Element]) -> int:
    """max |x|^2 over the elements, in raw units squared (0 for none)."""
    rows = [el.features.raws for el in elements]
    return _peak_sq_norm(_sparse_pairs(elements, len(rows[0]) if rows else 0), rows)
