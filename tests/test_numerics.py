"""Fixed-point grid arithmetic and exact entropy identities."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sgdcodec.harness import run_inequality_suite
from sgdcodec.numerics import (
    DomainError,
    FixedVector,
    GridSpec,
    PreconditionError,
    SaturationError,
    _entropy,
    _kl,
    quantize_vector,
    round_half_even,
    verify_split_entropy,
    zero_vector,
)
from sgdcodec import stable
from sgdcodec.stable import (
    stable_entropy,
    stable_exp,
    stable_ln,
    stable_log2,
    stable_sigmoid_float,
)


# Frozen oracle values, computed once with mpmath at 50 digits.
H_QUARTER = 0.8112781244591328
H_THIRD = 0.9182958340544895
KL_3_6 = 0.2651484454403229
LOG2_FACT_52 = 225.58100312370276


def test_round_half_even_ties_go_even():
    assert round_half_even(Fraction(5, 2)) == 2
    assert round_half_even(Fraction(7, 2)) == 4
    assert round_half_even(Fraction(-5, 2)) == -2
    assert round_half_even(Fraction(-7, 2)) == -4
    assert round_half_even(Fraction(1, 2)) == 0
    assert round_half_even(Fraction(3, 2)) == 2


def test_round_half_even_plain_cases():
    assert round_half_even(Fraction(7)) == 7
    assert round_half_even(Fraction(-3)) == -3
    assert round_half_even(Fraction(7, 3)) == 2
    assert round_half_even(Fraction(8, 3)) == 3
    assert round_half_even(Fraction(-7, 3)) == -2


@given(st.fractions())
def test_round_half_even_within_half(x):
    r = round_half_even(x)
    assert abs(r - x) <= Fraction(1, 2)
    if abs(r - x) == Fraction(1, 2):
        assert r % 2 == 0


def test_grid_spec_defaults():
    g = GridSpec()
    assert g.scale == 16 and g.clip == 64
    assert g.unit == 1 << 16
    assert g.raw_min == -(64 << 16)
    assert g.raw_max == (64 << 16) - 1
    # 2 * 64 * 2^16 representable raws need 23 bits
    assert g.coord_bits == 23


def test_grid_spec_small():
    g = GridSpec(scale=6, clip=4)
    assert g.unit == 64
    assert g.coord_bits == 9
    assert g.raw_min == -256 and g.raw_max == 255


def test_grid_spec_rejects_bad_params():
    with pytest.raises(DomainError):
        GridSpec(scale=-1)
    with pytest.raises(DomainError):
        GridSpec(clip=0)


def test_quantize_round_half_even_on_grid():
    g = GridSpec(scale=6, clip=4)
    values = (Fraction(3, 128), Fraction(5, 128), Fraction(1, 3), Fraction(-1, 3))
    # 1.5 and 2.5 raw tie to even
    assert quantize_vector(values, g).raws == (2, 2, 21, -21)


def test_quantize_clamps_and_flags():
    g = GridSpec(scale=6, clip=4)
    assert quantize_vector((Fraction(100),), g).raws == (g.raw_max,)
    assert quantize_vector((Fraction(-100),), g).raws == (g.raw_min,)
    # the edges themselves and one raw inside them stay put
    edges = (g.raw_min, g.raw_min + 1, g.raw_max - 1, g.raw_max)
    assert quantize_vector([Fraction(r, g.unit) for r in edges], g).raws == edges


def test_vector_update_and_saturation():
    g = GridSpec(scale=6, clip=4)
    w = FixedVector((0, 100), g)
    step = 64  # 1.0
    grad = FixedVector((-64, 0), g)
    assert w.gd_update(step, grad).raws == (64, 100)
    big = FixedVector((g.raw_max, 0), g)
    with pytest.raises(SaturationError, match="weight update clipped"):
        big.gd_update(step, FixedVector((-64, 0), g))


@pytest.mark.parametrize("step", [64, 32])
def test_gd_update_reaches_each_edge_and_raises_one_raw_past_it(step):
    g = GridSpec(scale=6, clip=4)
    lo, hi = g.raw_min, g.raw_max
    # a step of 1.0 moves by the gradient, a step of 1/2 by half of it
    k = 64 // step
    w = FixedVector((hi - 1, lo + 1, 0), g)
    assert w.gd_update(step, FixedVector((-k, k, 0), g)).raws == (hi, lo, 0)
    for grad in ((-2 * k, 0, 0), (0, 2 * k, 0), (-2 * k, 2 * k, 0)):
        with pytest.raises(SaturationError, match="weight update clipped"):
            w.gd_update(step, FixedVector(grad, g))
    # a zero gradient coordinate leaves an edge weight where it is
    edge = FixedVector((hi, lo, 0), g)
    assert edge.gd_update(step, FixedVector((0, 0, 5 * k), g)).raws == (hi, lo, -5)
    assert edge.gd_update(step, zero_vector(3, g)).raws == (hi, lo, 0)


def test_zero_and_quantize_vector():
    g = GridSpec(scale=6, clip=4)
    assert zero_vector(3, g).raws == (0, 0, 0)
    v = quantize_vector((Fraction(1, 2), Fraction(-1, 3)), g)
    assert v.raws == (32, -21)


def test_binary_entropy_frozen_values():
    assert _entropy(1, 2) == pytest.approx(1.0, abs=1e-15)
    assert _entropy(1, 4) == pytest.approx(H_QUARTER, abs=1e-12)
    assert _entropy(1, 3) == pytest.approx(H_THIRD, abs=1e-12)
    assert _entropy(0, 1) == 0.0
    assert _entropy(1, 1) == 0.0


def test_binary_entropy_symmetry():
    for num, den in ((1, 5), (2, 7), (3, 11)):
        assert _entropy(num, den) == pytest.approx(_entropy(den - num, den), abs=1e-15)


def test_kl_bernoulli_frozen_value():
    assert _kl(3, 6, 10) == pytest.approx(KL_3_6, abs=1e-12)
    assert _kl(2, 2, 5) == 0.0


@given(
    st.integers(1, 60).flatmap(
        lambda d: st.tuples(st.integers(0, d), st.just(d))
    )
)
def test_entropy_in_unit_interval(pq):
    k, d = pq
    assert 0.0 <= _entropy(k, d) <= 1.0


def test_log2_of_int_and_factorial():
    assert stable_log2(1024) == 10.0
    assert stable_log2(1) == 0.0
    assert stable_log2(math.factorial(52)) == pytest.approx(LOG2_FACT_52, abs=1e-9)


# The mpmath front ends the stable functions replaced, kept as their oracles:
# each argument is mpf(num) / mpf(den) under workdps(40) (60 for the sigmoid),
# rounded once to float.
def _mpf(x):
    f = Fraction(x)
    return mpmath.mpf(f.numerator) / mpmath.mpf(f.denominator)


def _stable_log2_oracle(x):
    with mpmath.workdps(40):
        return float(mpmath.log(_mpf(x), 2))


def _stable_ln_oracle(x):
    with mpmath.workdps(40):
        return float(mpmath.log(_mpf(x)))


def _stable_exp_oracle(x):
    with mpmath.workdps(40):
        return float(mpmath.exp(_mpf(x)))


def _stable_sigmoid_oracle(z):
    # at z = odd * 2**-53 the sigmoid lies about |z|**3 / 48 off a midpoint
    # between two doubles, below what 40 digits resolve; 60 digits do
    with mpmath.workdps(60):
        return float(1 / (1 + mpmath.exp(-_mpf(z))))


def _stable_entropy_oracle(p):
    if p == 0 or p == 1:
        return 0.0
    with mpmath.workdps(40):
        x = _mpf(p)
        return float(-(x * mpmath.log(x, 2) + (1 - x) * mpmath.log(1 - x, 2)))


POSITIVE_RATIONALS = st.one_of(
    st.integers(1, 1 << 600),
    st.integers(0, 4096).map(math.factorial),
    st.fractions(min_value=Fraction(1, 1 << 200), max_value=1 << 200),
    st.builds(Fraction, st.integers(1, 1 << 300), st.integers(1, 1 << 300)),
    st.integers(1, 1 << 160).map(lambda k: 1 + Fraction(k, 1 << 160)),
    st.integers(1, 1 << 160).map(lambda k: 1 - Fraction(k, 1 << 161)),
)

# exp arguments: the double range and past it, subnormal results included
EXP_ARGUMENTS = st.one_of(
    st.fractions(min_value=-760, max_value=720, max_denominator=1 << 40),
    st.integers(-800, 800),
    st.builds(Fraction, st.integers(-(1 << 80), 1 << 80), st.integers(1, 1 << 70)),
    st.fractions(min_value=-(10**6), max_value=10**6),
)


@settings(max_examples=400, deadline=None)
@given(POSITIVE_RATIONALS)
def test_stable_log2_is_bit_equal_to_the_mpmath_front_end(x):
    assert stable_log2(x) == _stable_log2_oracle(x)


@settings(max_examples=400, deadline=None)
@given(POSITIVE_RATIONALS)
def test_stable_ln_is_bit_equal_to_the_mpmath_front_end(x):
    assert stable_ln(x) == _stable_ln_oracle(x)


@settings(max_examples=400, deadline=None)
@given(EXP_ARGUMENTS)
def test_stable_exp_is_bit_equal_to_the_mpmath_front_end(x):
    assert stable_exp(x) == _stable_exp_oracle(x)


@settings(max_examples=400, deadline=None)
@given(EXP_ARGUMENTS)
def test_stable_sigmoid_float_is_bit_equal_to_the_mpmath_front_end(z):
    assert stable_sigmoid_float(z) == _stable_sigmoid_oracle(z)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.integers(1, 1 << 20).flatmap(
            lambda m: st.builds(Fraction, st.integers(0, m), st.just(m))
        ),
        st.fractions(min_value=0, max_value=1, max_denominator=1 << 64),
        st.integers(1, 1100).map(lambda k: Fraction(1, 1 << k)),
        st.integers(1, 120).map(lambda k: 1 - Fraction(1, 1 << k)),
    )
)
def test_stable_entropy_is_bit_equal_to_the_mpmath_front_end(p):
    assert stable_entropy(p) == _stable_entropy_oracle(p)


@pytest.mark.parametrize("p", [Fraction(3, 2), Fraction(-1, 2)])
def test_stable_entropy_refuses_a_probability_outside_0_1(p):
    with pytest.raises(ValueError, match=r"^probability outside \[0, 1\]$"):
        stable_entropy(p)


def test_stable_exact_values():
    assert [stable_log2(2**k) for k in (0, 1, 52, 1000)] == [0.0, 1.0, 52.0, 1000.0]
    assert stable_log2(Fraction(1, 2**60)) == -60.0
    assert stable_exp(0) == 1.0
    assert stable_entropy(Fraction(1, 2)) == 1.0
    assert stable_ln(1) == 0.0
    assert stable.LOG2_E == 1.4426950408889634


def test_stable_exp_underflow_and_overflow():
    # libmp's to_float: subnormals rounded twice, inf and 0.0 past the range
    assert stable_exp(-745) == 5e-324
    # exp(x) lies just below 1.5 * 2**-1074: 53 bits make it the midpoint,
    # which then rounds to even, where one correct rounding gives 5e-324
    x = Fraction(-494495814604512456114621990794542187315, 2**119)
    assert stable_exp(x) == _stable_exp_oracle(x) == 1e-323
    assert stable_exp(-1000) == 0.0
    assert stable_exp(710) == math.inf
    assert stable_exp(-(10**9)) == 0.0 and stable_exp(10**9) == math.inf
    assert stable_sigmoid_float(-1000) == 0.0 and stable_sigmoid_float(1000) == 1.0


def test_stable_rounds_each_argument_to_136_bits_first():
    # as mpmath.mpf(num) / mpmath.mpf(den) did at 40 digits: a numerator
    # 2**136 + 1 rounds to 2**136, and near 1 the rounded quotient shows
    assert stable_log2(Fraction(2**136 + 1, 2**136)) == 0.0
    assert stable_ln(Fraction(2**136 + 1, 2**136)) == 0.0
    x = Fraction(3**63 + 1, 3**63)
    assert stable_log2(x) == _stable_log2_oracle(x) == 1.2604786431138176e-30


def test_stable_log2_of_huge_arguments():
    for x in (math.factorial(4096), Fraction(1, 10**400)):
        assert stable_log2(x) == _stable_log2_oracle(x)
    assert stable_log2(math.factorial(4096)) == pytest.approx(43250.04688993525, rel=1e-15)


@pytest.mark.parametrize("num", [1, 2000, 4096, 9973, 10000])
def test_log2_ratios_equal_stable_log2(num, monkeypatch):
    # the sieve table's brackets give stable_log2's doubles; a bracket whose
    # ends round apart goes to stable_log2, and at k = num it straddles 0.0
    fallbacks = []
    monkeypatch.setattr(
        stable, "stable_log2", lambda x: fallbacks.append(x) or stable_log2(x)
    )
    out = stable._log2_ratios(num)
    assert out == [stable_log2(Fraction(num, k)) for k in range(1, num + 1)]
    assert 1 in fallbacks
    assert out[-1] == 0.0 and math.copysign(1.0, out[-1]) == 1.0


def test_log2_table_lies_within_its_declared_error():
    w, top = stable._WORK, 10**4
    table = stable._log2_table(top, w)
    assert len(table) == top + 1
    with mpmath.workdps(60):
        for k in range(1, top + 1):
            a, err = table[k]
            assert abs(a - mpmath.log(k, 2) * 2**w) <= err, k


def test_ziv_precision_cap_raises_instead_of_spinning(monkeypatch):
    # Both need a second working precision: a log2 near 0, whose fixed-point
    # bracket is too coarse at first, and an entropy whose 1 - p term is tiny.
    hard = (
        (stable_log2, _stable_log2_oracle, Fraction(2**135 + 1, 2**135)),
        (stable_entropy, _stable_entropy_oracle, Fraction(1, 2**100)),
    )
    for f, oracle, x in hard:
        assert f(x) == oracle(x)
    monkeypatch.setattr(stable, "_WORK_CAP", stable._WORK)
    for f, _, x in hard:
        with pytest.raises(ArithmeticError):
            f(x)


def test_stable_log2_rejects_nonpositive():
    for x in (0, -1, Fraction(-1, 3)):
        with pytest.raises(ValueError):
            stable_log2(x)


def test_entropy_upper_check():
    # h(p) <= p * log2(e / p): worst signed violation stays at float noise
    row = run_inequality_suite(256, split_side=1, pinsker_side=2, codec_instances=1)[0]
    assert (row.name, row.cases, row.passed) == ("entropy-vs-plog2ep", 256, True)


def test_split_entropy_slack_nonnegative():
    # h(gamma) - gamma*D(p||q) dominates the two-block split entropy
    assert verify_split_entropy(
        Fraction(1, 4), Fraction(1, 2), Fraction(1, 6)
    ) >= -1e-12
    with pytest.raises(PreconditionError):
        verify_split_entropy(Fraction(1), Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(DomainError):
        verify_split_entropy(Fraction(1, 4), Fraction(2), Fraction(1, 6))


@settings(max_examples=200)
@given(
    st.integers(1, 99),
    st.integers(1, 99),
)
def test_kl_nonnegative(a, b):
    v = _kl(a, b, 100)
    assert v >= -1e-15
    if a == b:
        assert v == pytest.approx(0.0, abs=1e-15)
