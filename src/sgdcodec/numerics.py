"""Fixed-point grid vectors, exact rounding, and entropy helpers.

All quantities that feed the codecs live on a shared dyadic grid: a value is
an integer mantissa times 2**-scale, within a clip range.  A descent update
that leaves the range raises ``SaturationError`` where it happens, so a
vector carries no flag.  ``GridSpec.clamp_raw`` clamps quietly, for the
dataset generator and ``quantize_vector`` only.  Grid arithmetic is
integer-only: every intermediate is an integer numerator over a
denominator known in advance (a power of two, times the batch size for a
mean), and a result goes back onto the grid through one
``div_round_half_even``, so every platform produces bit-identical mantissas.
The entropy and divergence functions all use log base 2; code lengths
elsewhere in the package are therefore in bits throughout.  They are
private kernels over integer numerators (``_entropy``, ``_kl``,
``_realized_slacks``) that compare integers and form each float by one
correctly rounded ``int / int``, so a value gets the same bits whatever
denominator it is written over.  The inequality sweeps call them directly.
The one public wrapper, ``verify_split_entropy``, puts its arguments over
one common denominator and checks them first; it stays because the
benchmark's tracer hooks it by name.  ``_realizable_q`` alone states when a
two-block entropy split is realizable, for ``verify_split_entropy`` and for
the sweep that visits only those splits; both then call the unchecked
``_realized_slacks``, which evaluates the slack for one (p, gamma) pair at
each q it is given and reads D(p || q) from the caller's row, so the sweep
computes that row once per p.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from typing import Mapping, Sequence, Union

Rational = Union[int, float, Fraction]

_LN2 = math.log(2)


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


_set = object.__setattr__  # how a record's __init__ sets a field


class Record:
    """Base of the records that check their fields in ``__init__``.

    A record names its constructor's fields in ``_fields``, in order, and
    its ``__init__`` sets each through ``_set`` before it checks them.
    Equality, hashing, ``repr``, ``_asdict`` and ``_replace`` read those
    fields as a NamedTuple's do, and ``_replace`` goes back through
    ``__init__``, so the checks run again.  A record refuses assignment; a
    mutable one puts back ``object``'s ``__setattr__`` and drops its hash.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def _replace(self, **changes: object) -> "Record":
        return type(self)(**{**self._asdict(), **changes})

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._asdict() == other._asdict()

    def __hash__(self) -> int:
        return hash(tuple(self._asdict().values()))

    def __repr__(self) -> str:
        cells = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({cells})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class GridSpec(Record):
    """Dyadic grid: values raw * 2**-scale with raw in [-clip*2**scale, clip*2**scale - 1].

    The asymmetric (two's-complement style) clip range makes the number of grid
    points an exact power of two, so a coordinate serializes in exactly
    ``coord_bits`` bits with no unused codewords.
    """

    __slots__ = _fields = ("scale", "clip")

    def __init__(self, scale: int = 16, clip: int = 64) -> None:
        self._init(scale, clip)
        if scale < 0:
            raise DomainError(f"scale must be >= 0, got {scale}")
        if clip < 1:
            raise DomainError(f"clip must be >= 1, got {clip}")
        # every raw must fit a checkpoint blob's int64; a huge scale must
        # fail before the shift builds a huge int
        if scale > 63 or clip << scale > 1 << 63:
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

    def clamp_raw(self, raw: int) -> int:
        if raw < self.raw_min:
            return self.raw_min
        if raw > self.raw_max:
            return self.raw_max
        return raw


class FixedVector(Record):
    """A tuple of grid coordinates sharing one grid."""

    __slots__ = _fields = ("raws", "grid")

    def __init__(self, raws: tuple[int, ...], grid: GridSpec) -> None:
        _set(self, "raws", raws)
        _set(self, "grid", grid)

    def __len__(self) -> int:
        return len(self.raws)

    def gd_update(self, step_raw: int, gradient: "FixedVector") -> "FixedVector":
        """One descent update: self - step * gradient, step = step_raw * 2**-scale.

        Each product step_raw * g_raw is a numerator over 2**(2*scale), put
        back onto the grid by one round-half-even division by 2**scale; a zero
        gradient coordinate leaves its weight as it is, so only the nonzero
        ones are visited.  Raises SaturationError if a coordinate leaves the
        clip range.
        """
        grid, g = self.grid, gradient.raws
        if gradient.grid is not grid and gradient.grid != grid:
            raise DomainError("operands live on different grids")
        if len(g) != len(self.raws):
            raise DomainError("dimension mismatch")
        unit, moved = grid.unit, list(self.raws)
        for i in compress(range(len(g)), g):
            moved[i] -= div_round_half_even(step_raw * g[i], unit)
        if not grid.holds(moved):
            raise SaturationError("weight update clipped")
        return FixedVector(tuple(moved), grid)


def quantize_vector(values: Sequence[Rational], grid: GridSpec) -> FixedVector:
    """The values rounded half to even onto the grid, each clamped to its range."""
    raws = (grid.clamp_raw(round_half_even(Fraction(v) * grid.unit)) for v in values)
    return FixedVector(tuple(raws), grid)


def zero_vector(dim: int, grid: GridSpec) -> FixedVector:
    return FixedVector((0,) * dim, grid)


def _numerators(*values: Rational) -> tuple[list[int], int]:
    """The values as integer numerators over one common denominator."""
    fracs = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _entropy(num: int, den: int) -> float:
    """h(num/den) in bits for 0 <= num <= den.

    h is symmetric, so it is taken from the smaller side x <= 1/2, with the
    complement term -(1 - x) log2(1 - x) from log1p(-x): log2 of a rounded
    1 - x keeps only an absolute error of about 2^-53, where the term itself
    is about x / ln 2.  Where x rounds to 0.0, h is 0.0.
    """
    x = num / den
    if x > 0.5:
        x = (den - num) / den
    if x == 0.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log1p(-x) / _LN2)


def _ln_ratio(p: int, q: int) -> float:
    """ln(p/q) for positive integers: from log1p where p/q is near 1, and
    past the float range as k ln 2 plus the log of a ratio in (1/2, 2)."""
    k = p.bit_length() - q.bit_length()
    if abs(k) > 1000:
        p, q = (p, q << k) if k > 0 else (p << -k, q)
        return k * _LN2 + math.log(p / q)
    r = p / q
    return math.log(r) if r < 0.5 or r > 2.0 else math.log1p((p - q) / q)


def _kl(a: int, c: int, n: int) -> float:
    """D(a/n || c/n) in bits; 0 < c < n unless a == c.

    Where the float formula fails, the log ratios are taken from the
    integers instead: where c/n rounds to 1.0 while a/n does not, the float
    ratio of the complements divides by 0.0, and where c/n is far below a/n,
    x / y overflows to inf or divides by 0.0, although D is finite.
    """
    if a == c:
        return 0.0
    x, y = a / n, c / n
    try:
        total = 0.0
        if x > 0.0:
            total += x * math.log2(x / y)
        if x < 1.0:
            total += (1.0 - x) * math.log2((1.0 - x) / (1.0 - y))
    except ZeroDivisionError:
        total = math.inf
    if math.isfinite(total):
        return total
    up = x * _ln_ratio(a, c) if x else 0.0
    down = (n - a) / n * _ln_ratio(n - a, n - c) if a < n else 0.0
    return (up + down) / _LN2


def _realizable_q(a: int, g: int, n: int) -> range:
    """The numerators c in [0, n] for which the split of gamma = g/n over
    p = a/n is realizable at q = c/n: p*gamma <= q and (1-p)*gamma <= 1-q,
    that is ceil(a*g/n) <= c <= n - ceil((n-a)*g/n)."""
    return range(-(-a * g // n), n + (-(n - a) * g // n) + 1)


def _realized_slacks(
    a: int, g: int, n: int, cs: Sequence[int], kls: Mapping[int, float]
) -> list[float]:
    """The split slack at numerators a, g, c over n for each c in cs, unchecked:
    every c must be one that _realizable_q(a, g, n) yields, and kls[c] must be
    _kl(a, c, n)."""
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
    if c not in _realizable_q(a, g, n):
        nn = n * n
        raise PreconditionError(
            f"split not realizable: p*gamma={a * g}/{nn} vs q={c}/{n}, "
            f"(1-p)*gamma={(n - a) * g}/{nn} vs 1-q={n - c}/{n}"
        )
    # at g = 0 the slack is 0 whatever D(p || q) is, and that may be infinite
    return _realized_slacks(a, g, n, (c,), {c: _kl(a, c, n)} if g else {})[0]
