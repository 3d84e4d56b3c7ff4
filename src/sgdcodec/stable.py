"""Platform-stable transcendental evaluations for report output.

Report files must be byte-identical across platforms, so every float that lands
in an artifact is computed here on exact integers, never by the host libm.  An
argument is first rounded to 136 bits, as mpmath's 40 digits did.  The result is
bracketed in fixed point, and the working precision raised until both ends round
to one double (Ziv's test) by libmp's to_float rule.  See Brent & Zimmermann,
*Modern Computer Arithmetic*, ch. 4, and Ziv, ACM TOMS 17(3), 1991.
The entropy sweep's batch path, ``_log2_ratios``, reads stable_log2(num / k)
for all k <= num off a sieve table of fixed-point log2(k), and sends the rare
bracket whose ends round to two doubles to stable_log2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .numerics import div_round_half_even

_PREC = 136  # bits each argument is rounded to
_T = 7  # ln table step 2**-_T: the atanh argument stays below 2**-(_T + 1)
_WORK, _WORK_CAP = 128, 1 << 12  # first and largest working precision, in bits
_NORMAL = 2.0**-1022


def _round(n: int, d: int, prec: int) -> tuple[int, int]:
    """n / d (d > 0) to prec bits, half to even: (m, e) with value m * 2**e."""
    e = abs(n).bit_length() - d.bit_length() - prec
    if d == 1:  # an integer: e + 1 surplus bits
        return (n, 0) if e < 0 else (div_round_half_even(n, 2 << e), e + 1)
    n, d = (n << -e, d) if e < 0 else (n, d << e)
    if abs(n) >= d << prec:
        e, d = e + 1, d << 1
    return div_round_half_even(n, d), e


def _arg(x: int | Fraction, positive: bool = False) -> tuple[int, int]:
    """x as mpmath.mpf(num) / mpmath.mpf(den) under workdps(40): (m, e)."""
    if positive and x.numerator <= 0:
        raise ValueError("argument must be positive")
    (n, en), (d, ed) = _round(x.numerator, 1, _PREC), _round(x.denominator, 1, _PREC)
    m, e = _round(n, d, _PREC)
    return m, e + en - ed


def _float(n: int, d: int) -> float:
    """n / d (d > 0) as libmp's to_float(rnd="n"): below the normal range too."""
    try:
        v = n / d  # int / int rounds correctly
    except OverflowError:
        return math.inf if n > 0 else -math.inf
    if abs(v) >= _NORMAL:
        return v
    m, e = _round(n, d, 53)  # libmp rounds to 53 bits, then ldexp rounds again
    return math.ldexp(m, e)


def _ziv(enclose) -> float:
    """The double that both ends n / d of enclose(w) = ((n, d), (n, d)) round to."""
    w = _WORK
    while w <= _WORK_CAP:
        (a, b), (c, d) = enclose(w)
        lo, hi = _float(a, b), _float(c, d)
        if lo == hi:
            return hi  # hi keeps the + of an underflowing positive value
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


def _log(m: int, e: int, w: int, base2: bool) -> tuple[int, int]:
    """(a, err): ln(m * 2**e), or log2 with base2, is (a ± err) / 2**w; m > 0."""
    k, sh = e + m.bit_length() - 1, w + 1 - m.bit_length()
    u = m << sh if sh >= 0 else m >> -sh  # m / 2**k, in [1, 2) at w bits
    j = u >> (w - _T)  # table point j / 2**_T <= m / 2**k
    a = _ln_point(j, w) + _atanh2(u - (j << (w - _T)), u + (j << (w - _T)), w)
    err = 0 if m & (m - 1) == 0 else 16  # ln u is within 5, ln u / ln 2 within 11
    if base2:
        return (k << w) + (a << w) // _ln_point(2 << _T, w), err
    return a + (k * _ln_point(2 << _T, w + 64) >> 64), err + (2 if k else 0)


def _exp(m: int, e: int, w: int) -> tuple[int, int, int]:
    """(n, err, t): exp(m * 2**e) = (n ± err) * 2**t, for |m * 2**e| < 2**11."""
    g = w + 32
    x = m << (e + g) if e + g >= 0 else m >> -(e + g)
    q, r = divmod(x, _ln_point(2 << _T, g))  # x = q ln 2 + r, 0 <= r < ln 2
    r, n, term, i = r >> 8, 1 << g, 1 << g, 1  # exp(r) = exp(r / 2**8) ** 2**8
    while term:
        term, i = (term * r >> g) // i, i + 1
        n += term
    for _ in range(8):
        n = n * n >> g
    return n, g << 12, q - g  # the 8 squarings scale the series error by < 2**9


def stable_log2(x: int | Fraction) -> float:
    """log2 of a positive rational, correctly rounded well past double precision."""
    m, e = _arg(x, positive=True)
    return _ziv(lambda w: _ends(*_log(m, e, w, True), -w))


def _log2_table(top: int, w: int) -> list[tuple[int, int]]:
    """(a, err) with log2(k) = (a ± err) / 2**w, at index k for 1 <= k <= top.

    A prime's entry is one _log series.  The sieve marks each composite with its
    largest prime factor p, and its entry is the sum of those of p and k // p.
    """
    factor, table = [0] * (top + 1), [(0, 0)] * (top + 1)
    for k in range(2, top + 1):
        p = factor[k]
        if p:
            (a, ea), (b, eb) = table[p], table[k // p]
            table[k] = a + b, ea + eb
        else:
            factor[k::k] = [k] * (top // k)
            table[k] = _log(k, 0, w, True)
    return table


def _log2_ratios(num: int) -> list[float]:
    """stable_log2(Fraction(num, k)) for k = 1..num, from one log2 table.

    The bracket of log2(num) - log2(k) at _WORK bits widens by one unit for the
    136-bit rounding of num / k in _arg, which moves its log2 by under 2**-135.
    Where the two ends round to different doubles (k = num among them),
    stable_log2 decides.
    """
    table, one = _log2_table(num, _WORK), 1 << _WORK
    an, en = table[num] if num > 0 else (0, 0)
    out = []
    for k, (a, e) in enumerate(table[1:], 1):
        d, r = an - a, en + e + 1
        lo, hi = _float(d - r, one), _float(d + r, one)
        out.append(hi if lo == hi else stable_log2(Fraction(num, k)))
    return out


def stable_entropy(p: int | Fraction) -> float:
    """Binary entropy in bits of p, with p and 1 - p each rounded to 136 bits."""
    f = Fraction(p)
    if f < 0 or f > 1:
        raise ValueError("probability outside [0, 1]")
    mx, ex = _arg(f)
    my, ey = _round((1 << -ex) - mx, 1, _PREC)  # ey >= 0
    if not mx or not my:  # p = 0, or p = 1 or rounded to it
        return 0.0

    def enclose(w: int):
        (ax, rx), (ay, ry) = _log(mx, ex, w, True), _log(my, ey + ex, w, True)
        return _ends(-mx * ax - (my * ay << ey), mx * rx + (my * ry << ey), ex - w)

    return _ziv(enclose)


def stable_ln(x: int | Fraction) -> float:
    """Natural log of a positive rational."""
    m, e = _arg(x, positive=True)
    return _ziv(lambda w: _ends(*_log(m, e, w, False), -w))


LOG2_E = 1 / stable_ln(2)


def stable_exp(x: int | Fraction) -> float:
    """exp of a rational, for tail-probability bounds."""
    m, e = _arg(x)
    if e + m.bit_length() > 11:  # |x| >= 2**11: inf or 0.0 as a double
        return math.inf if m > 0 else 0.0
    return _ziv(lambda w: _ends(*_exp(m, e, w)))


def stable_sigmoid_float(z: int | Fraction) -> float:
    """1 / (1 + exp(-z)) rounded once to a double."""
    m, e = _arg(z)
    if e + m.bit_length() > 11:
        return 1.0 if m > 0 else 0.0

    def enclose(w: int):
        (lo, d), (hi, _) = _ends(*_exp(-m, e, w))  # exp(-z) within [lo / d, hi / d]
        return (d, d + hi), (d, d + lo)

    return _ziv(enclose)


@lru_cache(maxsize=None)
def stable_sigmoid_knots(bits: int, z_max: int) -> tuple[float, ...]:
    """stable_sigmoid_float(k / 2**bits) for |k| <= z_max * 2**bits.

    Powers of exp(-2**-bits) at about 256 bits, by repeated multiplication; a
    knot whose bracket straddles a rounding boundary goes to stable_sigmoid_float.
    """
    b, err, t = _exp(-1, -bits, 256)
    powers = [1 << -t]
    for _ in range(z_max << bits):
        powers.append(powers[-1] * b >> -t)
    out = []
    for k in range(-(z_max << bits), (z_max << bits) + 1):
        p, d = powers[abs(k)], abs(k) * (err + 1)  # the power, within d
        lo, hi = (_float(q if k < 0 else powers[0], powers[0] + q) for q in (p - d, p + d))
        out.append(hi if lo == hi else stable_sigmoid_float(Fraction(k, 1 << bits)))
    return tuple(out)
