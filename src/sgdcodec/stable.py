"""Platform-stable transcendental evaluations for report output.

Report files must be byte-identical across platforms.  ``math.log2`` and
friends go through the host libm whose last-ulp behavior varies, so any float
that lands in a CSV or JSON artifact is computed here with mpmath (pure Python
arbitrary precision) and only then rounded once to a double.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

import mpmath
from mpmath import libmp

_PREC_DPS = 40
# stable_log2 is mpmath.log(x, 2) under workdps(_PREC_DPS) on raw libmp values:
# ln x and ln 2 at 20 guard bits, their quotient at _PREC, rounded to nearest.
_PREC = libmp.dps_to_prec(_PREC_DPS)
_LN2 = libmp.mpf_log(libmp.from_int(2), _PREC + 20, "n")

Number = Union[int, Fraction]


def _to_mp(x: Number) -> "mpmath.mpf":
    f = Fraction(x)
    return mpmath.mpf(f.numerator) / mpmath.mpf(f.denominator)


def stable_log2(x: Number) -> float:
    """log2 of a positive rational, correctly rounded well past double precision."""
    f = Fraction(x)
    if f <= 0:
        raise ValueError("argument must be positive")
    num, den = (libmp.from_int(v, _PREC, "n") for v in (f.numerator, f.denominator))
    ln_x = libmp.mpf_log(libmp.mpf_div(num, den, _PREC, "n"), _PREC + 20, "n")
    return libmp.to_float(libmp.mpf_div(ln_x, _LN2, _PREC, "n"), rnd="n")


def stable_entropy(p: Number) -> float:
    """Binary entropy in bits, evaluated in arbitrary precision."""
    f = Fraction(p)
    if f < 0 or f > 1:
        raise ValueError("probability outside [0, 1]")
    if f == 0 or f == 1:
        return 0.0
    with mpmath.workdps(_PREC_DPS):
        x = _to_mp(f)
        return float(-(x * mpmath.log(x, 2) + (1 - x) * mpmath.log(1 - x, 2)))


def stable_ln(x: Number) -> float:
    """Natural log of a positive rational."""
    f = Fraction(x)
    if f <= 0:
        raise ValueError("argument must be positive")
    with mpmath.workdps(_PREC_DPS):
        return float(mpmath.log(_to_mp(f)))


LOG2_E = 1 / stable_ln(2)


def stable_exp(x: Number) -> float:
    """exp of a rational, for tail-probability bounds."""
    with mpmath.workdps(_PREC_DPS):
        return float(mpmath.exp(_to_mp(x)))


def stable_sigmoid_float(z: Number) -> float:
    """1 / (1 + exp(-z)) evaluated in arbitrary precision, rounded once to double."""
    with mpmath.workdps(_PREC_DPS):
        return float(1 / (1 + mpmath.exp(-_to_mp(z))))
