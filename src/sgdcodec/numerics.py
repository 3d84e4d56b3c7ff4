"""Fixed-point grid vectors, exact rounding, and entropy helpers.

All quantities that feed the codecs live on a shared dyadic grid: a value is
an integer mantissa times 2**-scale, clipped to a symmetric range.  Grid
arithmetic is integer-only: every intermediate is an integer numerator over a
denominator known in advance (a power of two, times the batch size for a
mean), and a result goes back onto the grid through one
``div_round_half_even``, so every platform produces bit-identical mantissas.
The entropy and divergence functions all use log base 2; code lengths
elsewhere in the package are therefore in bits throughout.  They evaluate
over integer numerators: the public ones put their arguments over one
common denominator once and call private kernels (``_entropy``, ``_kl``,
``_split_slack``) that compare integers and form each float by one
correctly rounded ``int / int``, so a value gets the same bits whatever
denominator it is written over.  The inequality sweeps call the kernels
directly.
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
    def coord_bits(self) -> int:
        """Bits needed to address one grid coordinate exactly."""
        count = self.raw_max - self.raw_min + 1
        return (count - 1).bit_length()

    def holds(self, raws: Sequence[int]) -> bool:
        """Whether every raw lies in [raw_min, raw_max]."""
        return not raws or (self.raw_min <= min(raws) and max(raws) <= self.raw_max)

    def clamp_raw(self, raw: int) -> tuple[int, bool]:
        if raw < self.raw_min:
            return self.raw_min, True
        if raw > self.raw_max:
            return self.raw_max, True
        return raw, False


@dataclass(frozen=True)
class FixedVector:
    """A tuple of grid coordinates sharing one grid."""

    raws: tuple[int, ...]
    grid: GridSpec
    saturated: bool = False

    def __len__(self) -> int:
        return len(self.raws)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(r, self.grid.unit) for r in self.raws)

    def gd_update(self, step_raw: int, gradient: "FixedVector") -> "FixedVector":
        """One descent update: self - step * gradient, step = step_raw * 2**-scale.

        Each product step_raw * g_raw is a numerator over 2**(2*scale), put
        back onto the grid by one round-half-even division by 2**scale.
        """
        if gradient.grid != self.grid:
            raise DomainError("operands live on different grids")
        if len(gradient) != len(self):
            raise DomainError("dimension mismatch")
        grid = self.grid
        unit, lo, hi = grid.unit, grid.raw_min, grid.raw_max
        raws = tuple(
            w - div_round_half_even(step_raw * g, unit)
            for w, g in zip(self.raws, gradient.raws)
        )
        clipped = tuple(min(max(r, lo), hi) for r in raws)
        sat = self.saturated or gradient.saturated or clipped != raws
        return FixedVector(clipped, grid, sat)


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


def _numerators(*values: Rational) -> tuple[list[int], int]:
    """The values as integer numerators over one common denominator."""
    fracs = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _entropy(num: int, den: int) -> float:
    """h(num/den) in bits for 0 <= num <= den."""
    if num == 0 or num == den:
        return 0.0
    x = num / den
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def _kl(a: int, c: int, n: int) -> float:
    """D(a/n || c/n) in bits; 0 < c < n unless a == c."""
    if a == c:
        return 0.0
    x, y = a / n, c / n
    total = 0.0
    if x > 0.0:
        total += x * math.log2(x / y)
    if x < 1.0:
        total += (1.0 - x) * math.log2((1.0 - x) / (1.0 - y))
    return total


def _split_slack(a: int, g: int, c: int, n: int) -> float:
    """verify_split_entropy(a/n, g/n, c/n) for numerators in [0, n]."""
    if a * g > c * n or (n - a) * g > (n - c) * n:
        nn = n * n
        raise PreconditionError(
            f"split not realizable: p*gamma={a * g}/{nn} vs q={c}/{n}, "
            f"(1-p)*gamma={(n - a) * g}/{nn} vs 1-q={n - c}/{n}"
        )
    if g == 0:
        return 0.0
    lhs = 0.0
    if c > 0:
        lhs += c / n * _entropy(a * g, c * n)
    if c < n:
        lhs += (n - c) / n * _entropy((n - a) * g, (n - c) * n)
    return _entropy(g, n) - g / n * _kl(a, c, n) - lhs


def binary_entropy(p: Rational) -> float:
    """Entropy of a Bernoulli(p) in bits; h(0) = h(1) = 0 by convention."""
    pf = Fraction(p)
    if pf < 0 or pf > 1:
        raise DomainError(f"probability {p} outside [0, 1]")
    return _entropy(pf.numerator, pf.denominator)


def kl_bernoulli(p: Rational, q: Rational) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q), in bits."""
    (a, c), n = _numerators(p, q)
    for v in (a, c):
        if v < 0 or v > n:
            raise DomainError(f"probability {Fraction(v, n)} outside [0, 1]")
    if a != c and (c == 0 or c == n):
        raise DomainError("divergence is infinite for q on the boundary with p != q")
    return _kl(a, c, n)


def verify_split_entropy(p: Rational, gamma: Rational, q: Rational) -> float:
    """Slack of the two-block entropy split bound.

    Returns [h(gamma) - gamma * D(p || q)] - [q * h(p*gamma/q) + (1-q) * h((1-p)*gamma/(1-q))],
    which is nonnegative whenever the arguments are valid.  Requires
    p*gamma <= q and (1-p)*gamma <= 1-q, otherwise the split is not realizable.
    """
    (a, g, c), n = _numerators(p, gamma, q)
    for v, name in ((a, "p"), (g, "gamma"), (c, "q")):
        if v < 0 or v > n:
            raise DomainError(f"{name}={Fraction(v, n)} outside [0, 1]")
    return _split_slack(a, g, c, n)
