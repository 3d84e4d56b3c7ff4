"""Deterministic fixed-point scalars/vectors and entropy helpers.

All quantities that feed the codecs live on a shared dyadic grid: a value is
an integer mantissa times 2**-scale, clipped to a symmetric range.  Grid
arithmetic is integer-only: every intermediate is an integer numerator over a
denominator known in advance (a power of two, times the batch size for a
mean), and a result goes back onto the grid through one
``div_round_half_even``, so every platform produces bit-identical mantissas.
The entropy and divergence functions all use log base 2; code lengths
elsewhere in the package are therefore in bits throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Rational = Union[int, float, Fraction]


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class PreconditionError(ValueError):
    """A stated hypothesis of an inequality or codec step does not hold."""


class SaturationError(ArithmeticError):
    """A fixed-point intermediate hit the clip boundary where exactness is required."""


def div_round_half_even(num: int, den: int) -> int:
    """num / den rounded to the nearest integer, ties to the even integer; den > 0."""
    q, r = divmod(num, den)
    twice = 2 * r
    if twice < den:
        return q
    if twice > den:
        return q + 1
    return q + (q & 1)


def round_half_even(x: Rational) -> int:
    """Round to the nearest integer, ties to the even integer."""
    f = Fraction(x)
    return div_round_half_even(f.numerator, f.denominator)


@dataclass(frozen=True)
class GridSpec:
    """Dyadic grid: values raw * 2**-scale with raw in [-clip*2**scale, clip*2**scale - 1].

    The asymmetric (two's-complement style) clip range makes the number of grid
    points an exact power of two, so a coordinate serializes in exactly
    ``coord_bits`` bits with no unused codewords.
    """

    scale: int = 16
    clip: int = 64

    def __post_init__(self) -> None:
        if self.scale < 0:
            raise DomainError(f"scale must be >= 0, got {self.scale}")
        if self.clip < 1:
            raise DomainError(f"clip must be >= 1, got {self.clip}")

    @property
    def unit(self) -> int:
        return 1 << self.scale

    @property
    def raw_min(self) -> int:
        return -(self.clip << self.scale)

    @property
    def raw_max(self) -> int:
        return (self.clip << self.scale) - 1

    @property
    def step(self) -> Fraction:
        return Fraction(1, self.unit)

    @property
    def coord_bits(self) -> int:
        """Bits needed to address one grid coordinate exactly."""
        count = self.raw_max - self.raw_min + 1
        return (count - 1).bit_length()

    def clamp_raw(self, raw: int) -> tuple[int, bool]:
        if raw < self.raw_min:
            return self.raw_min, True
        if raw > self.raw_max:
            return self.raw_max, True
        return raw, False

    def quantize(self, value: Rational) -> "FixedScalar":
        """Nearest grid point, ties to even mantissa, saturating at the clip range."""
        raw = round_half_even(Fraction(value) * self.unit)
        raw, sat = self.clamp_raw(raw)
        return FixedScalar(raw, self, sat)

    def from_raw(self, raw: int) -> "FixedScalar":
        if raw < self.raw_min or raw > self.raw_max:
            raise DomainError(f"raw mantissa {raw} outside clip range")
        return FixedScalar(raw, self)


@dataclass(frozen=True)
class FixedScalar:
    """One grid value.  ``saturated`` records whether clipping ever occurred upstream."""

    raw: int
    grid: GridSpec
    saturated: bool = False

    @property
    def value(self) -> Fraction:
        return Fraction(self.raw, self.grid.unit)

    def __float__(self) -> float:
        return self.raw / self.grid.unit

    def _join(self, other: "FixedScalar") -> GridSpec:
        if self.grid != other.grid:
            raise DomainError("operands live on different grids")
        return self.grid

    def __add__(self, other: "FixedScalar") -> "FixedScalar":
        grid = self._join(other)
        raw, sat = grid.clamp_raw(self.raw + other.raw)
        return FixedScalar(raw, grid, sat or self.saturated or other.saturated)

    def __sub__(self, other: "FixedScalar") -> "FixedScalar":
        grid = self._join(other)
        raw, sat = grid.clamp_raw(self.raw - other.raw)
        return FixedScalar(raw, grid, sat or self.saturated or other.saturated)

    def __neg__(self) -> "FixedScalar":
        raw, sat = self.grid.clamp_raw(-self.raw)
        return FixedScalar(raw, self.grid, sat or self.saturated)

    def __mul__(self, other: "FixedScalar") -> "FixedScalar":
        grid = self._join(other)
        raw, sat = grid.clamp_raw(div_round_half_even(self.raw * other.raw, grid.unit))
        return FixedScalar(raw, grid, sat or self.saturated or other.saturated)

    def __lt__(self, other: "FixedScalar") -> bool:
        self._join(other)
        return self.raw < other.raw

    def __le__(self, other: "FixedScalar") -> bool:
        self._join(other)
        return self.raw <= other.raw


@dataclass(frozen=True)
class FixedVector:
    """A tuple of grid coordinates sharing one grid."""

    raws: tuple[int, ...]
    grid: GridSpec
    saturated: bool = False

    def __len__(self) -> int:
        return len(self.raws)

    @property
    def entries(self) -> tuple[FixedScalar, ...]:
        return tuple(FixedScalar(r, self.grid, self.saturated) for r in self.raws)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(r, self.grid.unit) for r in self.raws)

    def gd_update(self, step_size: FixedScalar, gradient: "FixedVector") -> "FixedVector":
        """One descent update: self - step_size * gradient, coordinatewise fixed mul.

        Each product step_raw * g_raw is a numerator over 2**(2*scale), put
        back onto the grid by one round-half-even division by 2**scale.
        """
        if step_size.grid != self.grid or gradient.grid != self.grid:
            raise DomainError("operands live on different grids")
        if len(gradient) != len(self):
            raise DomainError("dimension mismatch")
        sat = self.saturated or gradient.saturated or step_size.saturated
        grid = self.grid
        step, unit, lo, hi = step_size.raw, grid.unit, grid.raw_min, grid.raw_max
        raws = tuple(
            w - div_round_half_even(step * g, unit)
            for w, g in zip(self.raws, gradient.raws)
        )
        clipped = tuple(min(max(r, lo), hi) for r in raws)
        return FixedVector(clipped, grid, sat or clipped != raws)


def quantize_vector(values: Sequence[Rational], grid: GridSpec) -> FixedVector:
    raws = []
    sat = False
    for v in values:
        raw = round_half_even(Fraction(v) * grid.unit)
        raw, s = grid.clamp_raw(raw)
        sat = sat or s
        raws.append(raw)
    return FixedVector(tuple(raws), grid, sat)


def zero_vector(dim: int, grid: GridSpec) -> FixedVector:
    return FixedVector((0,) * dim, grid)


@dataclass(frozen=True)
class ProbGrid:
    """A finite list of rational probabilities used by the inequality sweeps."""

    points: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        for p in self.points:
            if p < 0 or p > 1:
                raise DomainError(f"probability {p} outside [0, 1]")

    @classmethod
    def uniform(cls, count: int) -> "ProbGrid":
        """k/count for k = 1..count, i.e. a uniform grid of (0, 1]."""
        if count < 1:
            raise DomainError("count must be >= 1")
        return cls(tuple(Fraction(k, count) for k in range(1, count + 1)))


def binary_entropy(p: Rational) -> float:
    """Entropy of a Bernoulli(p) in bits; h(0) = h(1) = 0 by convention."""
    pf = Fraction(p)
    if pf < 0 or pf > 1:
        raise DomainError(f"probability {p} outside [0, 1]")
    if pf == 0 or pf == 1:
        return 0.0
    x = float(pf)
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def kl_bernoulli(p: Rational, q: Rational) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q), in bits."""
    pf, qf = Fraction(p), Fraction(q)
    for v in (pf, qf):
        if v < 0 or v > 1:
            raise DomainError(f"probability {v} outside [0, 1]")
    if pf == qf:
        return 0.0
    if qf == 0 or qf == 1:
        raise DomainError("divergence is infinite for q on the boundary with p != q")
    x, y = float(pf), float(qf)
    total = 0.0
    if x > 0.0:
        total += x * math.log2(x / y)
    if x < 1.0:
        total += (1.0 - x) * math.log2((1.0 - x) / (1.0 - y))
    return total


def verify_entropy_upper(grid: ProbGrid) -> float:
    """Worst violation of h(p) <= p * log2(e/p) over the grid (<= 0 means it holds)."""
    worst = float("-inf")
    for p in grid.points:
        if p == 0:
            diff = 0.0
        else:
            x = float(p)
            diff = binary_entropy(p) - x * math.log2(math.e / x)
        worst = max(worst, diff)
    return worst


def verify_split_entropy(p: Rational, gamma: Rational, q: Rational) -> float:
    """Slack of the two-block entropy split bound.

    Returns [h(gamma) - gamma * D(p || q)] - [q * h(p*gamma/q) + (1-q) * h((1-p)*gamma/(1-q))],
    which is nonnegative whenever the arguments are valid.  Requires
    p*gamma <= q and (1-p)*gamma <= 1-q, otherwise the split is not realizable.
    """
    pf, gf, qf = Fraction(p), Fraction(gamma), Fraction(q)
    for v, name in ((pf, "p"), (gf, "gamma"), (qf, "q")):
        if v < 0 or v > 1:
            raise DomainError(f"{name}={v} outside [0, 1]")
    if pf * gf > qf or (1 - pf) * gf > 1 - qf:
        raise PreconditionError(
            f"split not realizable: p*gamma={pf * gf} vs q={qf}, "
            f"(1-p)*gamma={(1 - pf) * gf} vs 1-q={1 - qf}"
        )
    if gf == 0:
        return 0.0
    lhs = 0.0
    if qf > 0:
        lhs += float(qf) * binary_entropy(pf * gf / qf)
    if qf < 1:
        lhs += float(1 - qf) * binary_entropy((1 - pf) * gf / (1 - qf))
    div = kl_bernoulli(pf, qf) if pf != qf else 0.0
    rhs = binary_entropy(gf) - float(gf) * div
    return rhs - lhs


def log2_of_int(x: int) -> float:
    """log2 of a positive big integer, max error well below 1e-9."""
    if x <= 0:
        raise DomainError("argument must be positive")
    bits = x.bit_length()
    if bits <= 53:
        return math.log2(x)
    shift = bits - 53
    return shift + math.log2(x >> shift)


def log2_factorial(n: int) -> float:
    """log2(n!) from the exact big-integer factorial."""
    if n < 0:
        raise DomainError("factorial of a negative number")
    if n <= 1:
        return 0.0
    return log2_of_int(math.factorial(n))
