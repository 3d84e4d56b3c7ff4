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
models one big-int pass over lane-packed feature columns), with the prediction
rule score > 0 -> label 1; accuracies are popcounts of its masks.
"""

from __future__ import annotations

import math
import operator
import random
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

from .numerics import (
    DomainError,
    FixedVector,
    GridSpec,
    SaturationError,
    div_round_half_even,
    round_half_even,
    zero_vector,
)
from .stable import stable_sigmoid_knots

MODEL_KINDS = ("logistic-linear", "one-hidden-layer")
FAMILIES = ("separable-margin", "two-gaussians", "random-labels", "one-hot")


@dataclass(frozen=True)
class Element:
    """One data point: unique id, fixed-point feature vector, binary label."""

    eid: int
    features: FixedVector
    label: int

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise DomainError(f"label must be 0/1, got {self.label}")


def manifest_int(d: dict, key: str, default: Optional[int] = None) -> int:
    """The JSON integer under key, or the default when the key is absent.

    A bool, float or string there is a DomainError, not a value to coerce.
    """
    value = d[key] if default is None else d.get(key, default)
    if type(value) is not int:
        raise DomainError(f"manifest key {key!r} is not a JSON integer: {value!r}")
    return value


def manifest_fraction(d: dict, key: str, default: Optional[str] = None) -> Fraction:
    """The str(Fraction) under key, as to_dict writes it; anything else is a DomainError."""
    value = d[key] if default is None else d.get(key, default)
    if type(value) is not str or not re.fullmatch(r"-?[0-9]+(/[1-9][0-9]*)?", value):
        raise DomainError(f"manifest key {key!r} is not a rational string: {value!r}")
    return Fraction(value)


@dataclass(frozen=True)
class GeneratorSpec:
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

    family: str
    n: int
    dim: int
    seed: int
    margin: Fraction = Fraction(1, 2)
    sigma: Fraction = Fraction(1, 2)
    center_dist: Fraction = Fraction(2)
    feature_scale: int = 2

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise DomainError("n must be >= 1")
        if self.family == "one-hot":
            if self.dim != self.n:
                raise DomainError("one-hot family requires dim == n")
        elif self.dim < 1:
            raise DomainError("dim must be >= 1")
        if self.margin < 0 or self.sigma < 0 or self.center_dist <= 0:
            raise DomainError("margin/sigma must be >= 0 and center_dist > 0")
        if self.feature_scale < 1:
            raise DomainError("feature_scale must be >= 1")

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "dim": self.dim,
            "seed": self.seed,
            "margin": str(self.margin),
            "sigma": str(self.sigma),
            "center_dist": str(self.center_dist),
            "feature_scale": self.feature_scale,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorSpec":
        return cls(
            family=d["family"],
            n=manifest_int(d, "n"),
            dim=manifest_int(d, "dim"),
            seed=manifest_int(d, "seed"),
            margin=manifest_fraction(d, "margin", "1/2"),
            sigma=manifest_fraction(d, "sigma", "1/2"),
            center_dist=manifest_fraction(d, "center_dist", "2"),
            feature_scale=manifest_int(d, "feature_scale", 2),
        )


@dataclass(frozen=True)
class Dataset:
    """Elements sorted by id; ids are exactly 0..n-1, all features on ``grid``."""

    elements: tuple[Element, ...]
    grid: GridSpec
    spec: Optional[GeneratorSpec] = None

    def __post_init__(self) -> None:
        for i, el in enumerate(self.elements):
            if el.eid != i:
                raise DomainError("element ids must be exactly 0..n-1 in order")
            if el.features.grid != self.grid:
                raise DomainError("element features live on another grid")

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return len(self.elements[0].features) if self.elements else 0

    @cached_property
    def _lanes(self) -> tuple[int, tuple[int, ...], int, int, int]:
        """The operands of ``correctness_mask``, one L-bit lane per element e.

        L = 8*size >= bitlen(dim * max|x| * clip * 2**scale) + 2.  Returns size,
        per column c the int sum_e x_ec * 2**(L*e), and ints holding 2**(L-1) - 1,
        the top bit, and the top bit iff label 0, in every lane."""
        n, rows = self.n, [el.features.raws for el in self.elements]
        bound = self.dim * max((abs(x) for r in rows for x in r), default=0)
        size = ((bound * -self.grid.raw_min).bit_length() + 9) // 8
        zero, top = bytes(size), (1 << 8 * size - 1).to_bytes(size, "little")
        tops = int.from_bytes(top * n, "little")
        columns = []
        for col in zip(*rows):
            # read unsigned, each negative lane overshoots by 2**L: twice its top bit
            lanes = [x.to_bytes(size, "little", signed=True) if x else zero for x in col]
            packed = int.from_bytes(b"".join(lanes), "little")
            columns.append(packed - ((packed & tops) << 1))
        label0 = b"".join(zero if el.label else top for el in self.elements)
        bias = tops - (tops >> 8 * size - 1)
        return size, tuple(columns), bias, tops, int.from_bytes(label0, "little")

    def subset(self, ids: Iterable[int]) -> tuple[Element, ...]:
        """Elements for the given ids, ascending by id."""
        return tuple(self.elements[e] for e in sorted(ids))

    def to_text(self) -> str:
        """Header 'n<TAB>p<TAB>scale', then one 'id<TAB>label<TAB>raw,raw,...' line each."""
        lines = [f"{self.n}\t{self.dim}\t{self.grid.scale}"]
        for el in self.elements:
            feats = ",".join(str(r) for r in el.features.raws)
            lines.append(f"{el.eid}\t{el.label}\t{feats}")
        return "\n".join(lines) + "\n"

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


def _box_raw(rng: random.Random, half_width_raw: int) -> int:
    return rng.randrange(-half_width_raw, half_width_raw + 1)


def _approx_gauss_raw(rng: random.Random, sigma_raw: int) -> int:
    # Sum of 12 uniform integers: mean 6*(M-1)/... centered, std ~ M.  Integer
    # arithmetic only so generation is bit-identical on every platform.
    m = 1 << 20
    s = sum(rng.randrange(m) for _ in range(12))
    centered = s - 6 * (m - 1)
    return round_half_even(Fraction(centered * sigma_raw, m))


def generate_dataset(spec: GeneratorSpec, grid: GridSpec) -> Dataset:
    """Deterministic synthetic dataset for the given spec; same seed, same bytes."""
    rng = random.Random(spec.seed)
    unit = grid.unit
    half = spec.feature_scale * unit
    if half > grid.raw_max:
        raise DomainError("feature_scale exceeds the grid clip range")
    elements: list[Element] = []

    if spec.family == "separable-margin":
        normal = [0] * spec.dim
        while all(v == 0 for v in normal):
            normal = [rng.randrange(-unit, unit + 1) for _ in range(spec.dim)]
        norm = math.sqrt(sum(v * v for v in normal))
        # Normalized margin threshold compared on raw products: |w.x| >= margin*|w|.
        for eid in range(spec.n):
            for _ in range(10000):
                raws = [_box_raw(rng, half) for _ in range(spec.dim)]
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
                raw, _ = grid.clamp_raw(base + _approx_gauss_raw(rng, sigma_raw))
                raws.append(raw)
            elements.append(Element(eid, FixedVector(tuple(raws), grid), label))

    elif spec.family == "random-labels":
        for eid in range(spec.n):
            raws = tuple(_box_raw(rng, half) for _ in range(spec.dim))
            elements.append(Element(eid, FixedVector(raws, grid), rng.getrandbits(1)))

    elif spec.family == "one-hot":
        on = spec.feature_scale * unit
        for eid in range(spec.n):
            raws = tuple(on if c == eid else 0 for c in range(spec.dim))
            elements.append(Element(eid, FixedVector(raws, grid), 1))

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
def sigmoid_table_max_slope(scale: int) -> Fraction:
    """Largest knot-to-knot slope of the table at this scale.

    Rounding the knots to the grid makes the table steeper than the exact
    sigmoid's 1/4 at coarse scales: 4 at scale 4, 1 at scale 6.
    """
    knots = _sigmoid_knots(scale)
    step = max(abs(b - a) for a, b in zip(knots, knots[1:]))
    return Fraction(step << KNOT_BITS, 1 << scale)


def weight_count(kind: str, dim: int, width: int) -> int:
    """Weight count: dim for logistic-linear, width*dim + width with a hidden layer."""
    return dim if kind == "logistic-linear" else width * dim + width


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(operator.mul, a, b))


@dataclass(frozen=True)
class Model:
    """A grid-valued classifier: weights plus a kind tag.

    one-hidden-layer weight layout: ``width`` rows of ``dim`` input weights,
    then ``width`` output weights.

    At grid scale s every quantity is an integer numerator over a fixed power
    of two: hidden pre-activations over 2**(2s) and activations over 2**(3s);
    the output score over 2**(2s) (logistic-linear) or 2**(4s) (hidden).
    """

    kind: str
    weights: FixedVector
    dim: int
    width: int = 0

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise DomainError(f"unknown model kind {self.kind!r}")
        if self.kind == "one-hidden-layer" and self.width < 1:
            raise DomainError("one-hidden-layer needs width >= 1")
        expect = weight_count(self.kind, self.dim, self.width)
        if len(self.weights) != expect:
            raise DomainError(
                f"{self.kind} with dim={self.dim} width={self.width} "
                f"needs {expect} weights, got {len(self.weights)}"
            )

    @property
    def d(self) -> int:
        return len(self.weights)

    @property
    def grid(self) -> GridSpec:
        return self.weights.grid

    def with_weights(self, weights: FixedVector) -> "Model":
        return replace(self, weights=weights)

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


def _gradient_sum(model: Model, batch: Sequence[Element]) -> tuple[list[int], int]:
    """Batch-summed gradient numerators and the exponent e of their common 2**e.

    The mean gradient is numerator / (len(batch) * 2**e): e = 4s for
    logistic-linear (residual over 2**(3s) times a feature over 2**s), 8s for
    one hidden layer.  Integer sums are exact, so batch order does not matter.
    """
    if not batch:
        raise DomainError("empty batch")
    s = model.grid.scale
    w = model.weights.raws
    total = [0] * model.d
    if model.kind == "logistic-linear":
        for el in batch:
            x = model._features(el)
            resid = _sigmoid_num(_dot(w, x), 2 * s, s) - (el.label << 3 * s)
            if resid:
                total = [t + resid * xc for t, xc in zip(total, x)]
        return total, 4 * s
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


def rounded_gradient(model: Model, batch: Sequence[Element]) -> tuple[int, ...]:
    """Mean batch gradient mantissas, rounded half to even and not clipped."""
    total, exp = _gradient_sum(model, batch)
    den = len(batch) << (exp - model.grid.scale)
    return tuple(div_round_half_even(t, den) for t in total)


def loss_gradient(model: Model, batch: Sequence[Element]) -> FixedVector:
    """Mean batch gradient quantized once to the grid, round half to even.

    Raises SaturationError if the model carries a saturation flag or any
    quantized coordinate clips.
    """
    if model.weights.saturated:
        raise SaturationError("model weights carry a saturation flag")
    raws = rounded_gradient(model, batch)
    grid = model.grid
    if not grid.holds(raws):
        raise SaturationError("gradient coordinate clipped during quantization")
    return FixedVector(raws, grid)


def correctness_vector(model: Model, dataset: Dataset) -> list[int]:
    """``correctness_mask`` as a 0/1 list indexed by element id."""
    mask = correctness_mask(model, dataset)
    return [mask >> e & 1 for e in range(dataset.n)]


def correctness_mask(model: Model, dataset: Dataset) -> int:
    """The correctness sweep as one int: bit e is set iff element e is correct.

    Correct means the sign of the score numerator agrees with the label:
    positive for label 1, zero or negative for label 0.  Packed lane e holds
    score_e + 2**(L-1) - 1, whose top bit is set iff score_e > 0.
    """
    if dataset.grid != model.grid:
        raise DomainError("dataset and model live on different grids")
    if dataset.n and dataset.dim != model.dim:
        raise DomainError(f"dataset dim {dataset.dim}, model dim {model.dim}")
    w, grid, elements = model.weights.raws, model.grid, dataset.elements
    if model.kind != "logistic-linear":  # per element, output scores over 2**(4s)
        v = w[model.width * model.dim :]
        scores = (_dot(v, model._hidden(el.features.raws)[1]) for el in elements)
        return sum(1 << el.eid for z, el in zip(scores, elements) if (z > 0) == el.label)
    if not grid.holds(w):
        raise DomainError("a weight lies outside the grid's clip range")
    size, columns, bias, tops, label0 = dataset._lanes
    acc = sum((wc * column for wc, column in zip(w, columns) if wc), bias)
    top_bytes = ((acc & tops) ^ label0).to_bytes(len(elements) * size, "big")[::size]
    return int(top_bytes.translate(bytes.maketrans(b"\x00\x80", b"01")) or b"0", 2)


def analytic_logistic_smoothness(elements: Iterable[Element]) -> Fraction:
    """max |x|^2 / 4: the smoothness of the exact-sigmoid logistic-linear loss."""
    xs = [el.features for el in elements]
    worst = max((_dot(x.raws, x.raws) for x in xs), default=0)
    return Fraction(worst, xs[0].grid.unit ** 2 if xs else 1) / 4
