"""Platform-stable transcendental evaluations for report output.

Report files must be byte-identical across platforms, so every float that lands
in an artifact is computed here on exact integers, never by the host libm.  Each
function brackets its value at the exact rational argument in fixed point, and
the working precision is raised until both ends round to one double (Ziv's
test), by CPython's correctly rounded int / int, subnormals included.  See Brent
& Zimmermann, *Modern Computer Arithmetic*, ch. 4, and Ziv, ACM TOMS 17(3), 1991.
The inequality sweeps read fixed-point log2 k off one sieve table,
``_log2_table``; ``_ziv_units`` rounds a sum of such logs once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

_T = 7  # ln table step 2**-_T: the atanh argument stays below 2**-(_T + 1)
_WORK, _WORK_CAP = 128, 1 << 12  # first and largest working precision, in bits


def _float(n: int, d: int) -> float:
    """n / d (d > 0) correctly rounded to a double, or ±inf past the range."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _ziv(enclose, negative: bool = False) -> float:
    """The double that both ends n / d of enclose(w) = ((n, d), (n, d)) round to;
    the end on the side of the value's sign gives an underflow that sign."""
    w = _WORK
    while w <= _WORK_CAP:
        (a, b), (c, d) = enclose(w)
        lo, hi = _float(a, b), _float(c, d)
        if lo == hi:
            return lo if negative else hi
        w *= 2
    raise ArithmeticError(f"no single double within {_WORK_CAP} working bits")


def _ends(n: int, err: int, t: int):
    """(n - err) * 2**t and (n + err) * 2**t as (numerator, denominator)."""
    sh, d = max(t, 0), 1 << max(-t, 0)
    return ((n - err) << sh, d), ((n + err) << sh, d)


def _atanh2(a: int, b: int, w: int) -> int:
    """2 atanh(a / b) * 2**w within 2, for 0 <= a / b <= 1/3: ln((b + a) / (b - a))."""
    g, a2, b2 = w + 16, a * a, b * b
    term, total, i = (a << g) // b, 0, 1
    while term:
        total, term, i = total + term // i, term * a2 // b2, i + 2
    return 2 * total >> 16


@lru_cache(maxsize=None)
def _ln_point(j: int, w: int) -> int:
    """ln(j / 2**_T) * 2**w within 2, for 2**_T <= j <= 2**(_T + 1)."""
    return _atanh2(j - (1 << _T), j + (1 << _T), w)


def _log(n: int, d: int, w: int, base2: bool) -> tuple[int, int]:
    """(a, err): ln(n / d), or log2 with base2, is (a ± err) / 2**w; n, d > 0.

    n / d = 2**k * u / 2**w by one floor division, u under one unit low: ln u is
    within 5 and log2 u within 12, so err is 16, or 0 where n / d = 2**k.
    """
    k = n.bit_length() - d.bit_length()
    n, d = n << max(-k, 0), d << max(k, 0)  # n / d in (1/2, 2)
    if n < d:
        k, n = k - 1, n << 1
    u = (n << w) // d
    j = u >> (w - _T)  # table point j / 2**_T <= u / 2**w
    a = _ln_point(j, w) + _atanh2(u - (j << (w - _T)), u + (j << (w - _T)), w)
    err = 0 if n == d else 16
    if base2:
        return (k << w) + (a << w) // _ln_point(2 << _T, w), err
    return a + (k * _ln_point(2 << _T, w + 64) >> 64), err + (2 if k else 0)


def _exp(n: int, d: int, w: int) -> tuple[int, int, int]:
    """(m, err, t): exp(n / d) = (m ± err) * 2**t, for |n / d| < 2**11, d > 0.

    n / d at g = w + 32 bits by one floor division, and ln 2's error, move m by
    < 2**14; the 8 squarings scale the series error by < 2**9: err covers both.
    """
    g = w + 32
    q, r = divmod((n << g) // d, _ln_point(2 << _T, g))  # q ln 2 + r, 0 <= r < ln 2
    r, m, term, i = r >> 8, 1 << g, 1 << g, 1  # exp(r) = exp(r / 2**8) ** 2**8
    while term:
        term, i = (term * r >> g) // i, i + 1
        m += term
    for _ in range(8):
        m = m * m >> g
    return m, g << 12, q - g


def stable_log2(x: int | Fraction) -> float:
    """log2 of a positive rational, correctly rounded."""
    if x <= 0:
        raise ValueError("argument must be positive")
    return _ziv(lambda w: _ends(*_log(x.numerator, x.denominator, w, True), -w), x < 1)


def _log2_table(top: int, w: int) -> tuple[list[int], list[int]]:
    """(logs, errs) with log2(k) = (logs[k] ± errs[k]) / 2**w for 1 <= k <= top.

    A prime's entry is one _log series.  The sieve marks each composite with its
    largest prime factor p, and its entry is the sum of those of p and k // p.
    """
    factor, logs, errs = [0] * (top + 1), [0] * (top + 1), [0] * (top + 1)
    for k in range(2, top + 1):
        p = factor[k]
        if p:
            logs[k], errs[k] = logs[p] + logs[k // p], errs[p] + errs[k // p]
        else:
            factor[k::k] = [k] * (top // k)
            logs[k], errs[k] = _log(k, 1, w, True)
    return logs, errs


def _log2_e(w: int) -> int:
    """log2(e) * 2**w within 1: 2**w / ln 2, from ln 2 at 16 bits more."""
    return (1 << 2 * w + 16) // _ln_point(2 << _T, w + 16)


class _Log2s(dict):
    """log2(k) * 2**w within 16 at each integer k read, from _log; 0 at k = 0."""

    def __init__(self, w: int) -> None:
        self.w = w

    def __missing__(self, k: int) -> int:
        self[k] = a = _log(k, 1, self.w, True)[0] if k else 0
        return a


def _ziv_units(units, err: int, den: int) -> float:
    """The double nearest x, where units(log) is x * den * 2**w within err from
    log = _Log2s(w)."""

    def enclose(w: int):
        m = units(_Log2s(w))
        return (m - err, den << w), (m + err, den << w)

    return _ziv(enclose)


def stable_entropy(p: int | Fraction) -> float:
    """Binary entropy in bits of p in [0, 1], correctly rounded at every p.

    p = n / d: h(p) = log2 d - (n log2 n + (d - n) log2(d - n)) / d, from the
    three integer logs, each within 16 units.
    """
    f = Fraction(p)
    if f < 0 or f > 1:
        raise ValueError("probability outside [0, 1]")
    n, d = f.numerator, f.denominator
    if n == 0 or n == d:
        return 0.0
    return _ziv_units(lambda log: d * log[d] - n * log[n] - (d - n) * log[d - n], 32 * d, d)


def stable_ln(x: int | Fraction) -> float:
    """Natural log of a positive rational, correctly rounded."""
    if x <= 0:
        raise ValueError("argument must be positive")
    return _ziv(lambda w: _ends(*_log(x.numerator, x.denominator, w, False), -w), x < 1)


LOG2_E = 1 / stable_ln(2)


def stable_exp(x: int | Fraction) -> float:
    """exp of a rational, correctly rounded, for tail-probability bounds."""
    n, d = x.numerator, x.denominator
    if abs(n) >= d << 11:  # |x| >= 2**11: inf or 0.0 as a double
        return math.inf if n > 0 else 0.0
    return _ziv(lambda w: _ends(*_exp(n, d, w)))


def stable_sigmoid_float(z: int | Fraction) -> float:
    """1 / (1 + exp(-z)) rounded once to a double."""
    n, d = z.numerator, z.denominator
    if abs(n) >= d << 11:
        return 1.0 if n > 0 else 0.0

    def enclose(w: int):
        (lo, e), (hi, _) = _ends(*_exp(-n, d, w))  # exp(-z) within [lo / e, hi / e]
        return (e, e + hi), (e, e + lo)

    return _ziv(enclose)


@lru_cache(maxsize=None)
def stable_sigmoid_knots(bits: int, z_max: int) -> tuple[float, ...]:
    """stable_sigmoid_float(k / 2**bits) for |k| <= z_max * 2**bits.

    Powers of exp(-2**-bits) at about 256 bits, by repeated multiplication; a
    knot whose bracket straddles a rounding boundary goes to stable_sigmoid_float.
    """
    b, err, t = _exp(-1, 1 << bits, 256)
    powers = [1 << -t]
    for _ in range(z_max << bits):
        powers.append(powers[-1] * b >> -t)
    out = []
    for k in range(-(z_max << bits), (z_max << bits) + 1):
        p, d = powers[abs(k)], abs(k) * (err + 1)  # the power, within d
        lo, hi = (_float(q if k < 0 else powers[0], powers[0] + q) for q in (p - d, p + d))
        out.append(hi if lo == hi else stable_sigmoid_float(Fraction(k, 1 << bits)))
    return tuple(out)
