"""Fixed-point grid vectors, exact rounding, and entropy helpers.

All quantities that feed the codecs live on a shared dyadic grid: a value is
an integer mantissa times 2**-scale, clipped to a symmetric range.  Grid
arithmetic is integer-only: every intermediate is an integer numerator over a
denominator known in advance (a power of two, times the batch size for a
mean), and a result goes back onto the grid through one
``div_round_half_even``, so every platform produces bit-identical mantissas.
The entropy and divergence functions all use log base 2; code lengths
elsewhere in the package are therefore in bits throughout.  They are
private kernels over integer numerators (``_entropy``, ``_kl``,
``_split_slack``) that compare integers and form each float by one
correctly rounded ``int / int``, so a value gets the same bits whatever
denominator it is written over.  The inequality sweeps call them directly.
The one public wrapper, ``verify_split_entropy``, puts its arguments over
one common denominator first; it stays because the benchmark's tracer
hooks it by name.  ``_realizable_q`` alone states when a two-block entropy
split is realizable, for ``_split_slack`` and for the sweep that visits
only those splits; both then call the unchecked ``_realized_slacks``, which
evaluates the slack for one (p, gamma) pair at each q it is given and reads
D(p || q) from the caller's row, so the sweep computes that row once per p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Mapping, Sequence, Union

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
        # every raw must fit a checkpoint blob's int64; a huge scale must
        # fail before the shift builds a huge int
        if self.scale > 63 or self.clip << self.scale > 1 << 63:
            raise DomainError(f"clip * 2**scale must be <= 2**63, got {self}")

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

    def gd_update(self, step_raw: int, gradient: "FixedVector") -> "FixedVector":
        """One descent update: self - step * gradient, step = step_raw * 2**-scale.

        Each product step_raw * g_raw is a numerator over 2**(2*scale), put
        back onto the grid by one round-half-even division by 2**scale; a zero
        gradient coordinate leaves its weight as it is, so only the nonzero
        ones are visited.  Coordinates outside the clip range are clamped to
        it and set the saturation flag.
        """
        if gradient.grid != self.grid:
            raise DomainError("operands live on different grids")
        if len(gradient) != len(self):
            raise DomainError("dimension mismatch")
        grid, unit, g = self.grid, self.grid.unit, gradient.raws
        moved = list(self.raws)
        for i in compress(range(len(g)), g):
            moved[i] -= div_round_half_even(step_raw * g[i], unit)
        raws = tuple(moved)
        if grid.holds(raws):
            return FixedVector(raws, grid, self.saturated or gradient.saturated)
        lo, hi = grid.raw_min, grid.raw_max
        return FixedVector(tuple(min(max(r, lo), hi) for r in raws), grid, True)


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


def _realizable_q(a: int, g: int, n: int) -> range:
    """The numerators c in [0, n] for which the split of gamma = g/n over
    p = a/n is realizable at q = c/n: p*gamma <= q and (1-p)*gamma <= 1-q,
    that is ceil(a*g/n) <= c <= n - ceil((n-a)*g/n)."""
    return range(-(-a * g // n), n + (-(n - a) * g // n) + 1)


def _split_slack(a: int, g: int, c: int, n: int) -> float:
    """verify_split_entropy(a/n, g/n, c/n) for numerators in [0, n]."""
    if c not in _realizable_q(a, g, n):
        nn = n * n
        raise PreconditionError(
            f"split not realizable: p*gamma={a * g}/{nn} vs q={c}/{n}, "
            f"(1-p)*gamma={(n - a) * g}/{nn} vs 1-q={n - c}/{n}"
        )
    # at g = 0 the slack is 0 whatever D(p || q) is, and that may be infinite
    return _realized_slacks(a, g, n, (c,), {c: _kl(a, c, n)} if g else {})[0]


def _realized_slacks(
    a: int, g: int, n: int, cs: Sequence[int], kls: Mapping[int, float]
) -> list[float]:
    """_split_slack(a, g, c, n) for each c in cs, unchecked: every c must be
    one that _realizable_q(a, g, n) yields, and kls[c] must be _kl(a, c, n)."""
    if g == 0:
        return [0.0] * len(cs)
    h, share, ag, bg = _entropy(g, n), g / n, a * g, (n - a) * g
    out = []
    for c in cs:
        lhs = 0.0
        if c > 0:
            lhs += c / n * _entropy(ag, c * n)
        if c < n:
            lhs += (n - c) / n * _entropy(bg, (n - c) * n)
        out.append(h - share * kls[c] - lhs)
    return out


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
