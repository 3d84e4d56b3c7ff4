"""Fixed-point grid vectors, exact rounding, and the split-entropy kernel.

All quantities that feed the codecs live on a shared dyadic grid: a value is
an integer mantissa times 2**-scale, within a clip range.  A descent update
that leaves the range raises ``SaturationError`` where it happens, so a
vector carries no flag.  ``GridSpec.clamp_raw`` clamps quietly, for the
dataset generator and ``quantize_vector`` only.  Grid arithmetic is
integer-only: every intermediate is an integer numerator over a
denominator known in advance (a power of two, times the batch size for a
mean), and a result goes back onto the grid through one
``div_round_half_even``, so every platform produces bit-identical mantissas.
Code lengths are in bits throughout.  The two-block entropy split is one
integer kernel, ``_split_units``, a sum of fixed-point log2 k read from a
table: the inequality sweep reads ``stable._log2_table``, and
``verify_split_entropy`` reads ``stable._Log2s`` at each precision and
rounds the slack once.  It puts its arguments over one common denominator
and checks them first, and stays because the benchmark's tracer hooks it by
name.  ``_realizable_q`` alone states when a two-block split is realizable,
for it and for the sweep that visits only those splits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from typing import Sequence, Union

from .stable import _ziv_units

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


def _realizable_q(a: int, g: int, n: int) -> range:
    """The numerators c in [0, n] for which the split of gamma = g/n over
    p = a/n is realizable at q = c/n: p*gamma <= q and (1-p)*gamma <= 1-q,
    that is ceil(a*g/n) <= c <= n - ceil((n-a)*g/n)."""
    return range(-(-a * g // n), n + (-(n - a) * g // n) + 1)


def _split_units(log, a: int, g: int, n: int, cs: Sequence[int]) -> list[int]:
    """The split slack at p, gamma, q = a/n, g/n, c/n times n**2 * 2**w for each c
    in cs, from log[k] = log2(k) * 2**w (log[0] only times 0); unchecked: each c
    must be one that _realizable_q(a, g, n) yields.

    With A = a g, B = (n - a) g, u = c n and v = (n - c) n: n**2 h(gamma) is
    n**2 log2 n - n g log2 g - n (n - g) log2(n - g), n**2 gamma D(p || q) is
    A log2(a / c) + B log2((n - a) / (n - c)), n**2 q h(A / u) is u log2 u -
    A log2 A - (u - A) log2(u - A), and the same at B and v.  The coefficients
    sum to 4 n**2 + 2 g n in absolute value: logs off by at most e move a
    result by at most 6 n**2 e.  It is exactly 0 at p = q where each log is the
    sum of its prime factors' logs, as in _log2_table.
    """
    ag, bg, nn = a * g, (n - a) * g, n * n
    fixed = (nn * log[n] - n * g * log[g] - n * (n - g) * log[n - g]
             + ag * (log[ag] - log[a]) + bg * (log[bg] - log[n - a]))  # the D terms at p
    out = []
    for c in cs:
        u, v = c * n, nn - c * n
        out.append(fixed + ag * log[c] + bg * log[n - c] - u * log[u] + (u - ag) * log[u - ag]
                   - v * log[v] + (v - bg) * log[v - bg])
    return out


def verify_split_entropy(p: Rational, gamma: Rational, q: Rational) -> float:
    """Slack of the two-block entropy split bound, correctly rounded.

    Returns [h(gamma) - gamma * D(p || q)] - [q * h(p*gamma/q) + (1-q) * h((1-p)*gamma/(1-q))],
    which is nonnegative whenever the arguments are valid, and 0.0 at
    gamma = 0 or p = q.  Requires p*gamma <= q and (1-p)*gamma <= 1-q,
    otherwise the split is not realizable.
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
    if g == 0 or a == c:  # equalities; at g = 0 D(p || q) may be infinite
        return 0.0
    # elsewhere the slack is (1 - gamma) D(r || q) > 0, r = (q - p gamma) / (1 - gamma)
    return _ziv_units(lambda log: _split_units(log, a, g, n, (c,))[0], 96 * n * n, n * n)
