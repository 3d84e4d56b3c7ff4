"""Fixed-point grid arithmetic and exact entropy identities."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sgdcodec.harness import _sweep_entropy_upper
from sgdcodec.numerics import (
    DomainError,
    FixedVector,
    GridSpec,
    PreconditionError,
    binary_entropy,
    kl_bernoulli,
    quantize_vector,
    round_half_even,
    verify_split_entropy,
    zero_vector,
)
from sgdcodec.stable import stable_log2


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
    top = quantize_vector((Fraction(100),), g)
    assert top.raws == (g.raw_max,) and top.saturated
    bottom = quantize_vector((Fraction(-100),), g)
    assert bottom.raws == (g.raw_min,) and bottom.saturated
    assert not quantize_vector((Fraction(1, 2),), g).saturated


def test_vector_update_and_saturation():
    g = GridSpec(scale=6, clip=4)
    w = FixedVector((0, 100), g)
    step = 64  # 1.0
    grad = FixedVector((-64, 0), g)
    out = w.gd_update(step, grad)
    assert out.raws == (64, 100) and not out.saturated
    big = FixedVector((g.raw_max, 0), g)
    out2 = big.gd_update(step, FixedVector((-64, 0), g))
    assert out2.saturated


def test_zero_and_quantize_vector():
    g = GridSpec(scale=6, clip=4)
    assert zero_vector(3, g).raws == (0, 0, 0)
    v = quantize_vector((Fraction(1, 2), Fraction(-1, 3)), g)
    assert v.raws == (32, -21)


def test_binary_entropy_frozen_values():
    assert binary_entropy(Fraction(1, 2)) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(Fraction(1, 4)) == pytest.approx(H_QUARTER, abs=1e-12)
    assert binary_entropy(Fraction(1, 3)) == pytest.approx(H_THIRD, abs=1e-12)
    assert binary_entropy(Fraction(0)) == 0.0
    assert binary_entropy(Fraction(1)) == 0.0


def test_binary_entropy_symmetry():
    for num, den in ((1, 5), (2, 7), (3, 11)):
        p = Fraction(num, den)
        assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-15)


def test_kl_bernoulli_frozen_value():
    assert kl_bernoulli(Fraction(3, 10), Fraction(3, 5)) == pytest.approx(
        KL_3_6, abs=1e-12
    )
    assert kl_bernoulli(Fraction(2, 5), Fraction(2, 5)) == 0.0


def test_kl_bernoulli_rejects_boundary_q():
    with pytest.raises(DomainError):
        kl_bernoulli(Fraction(1, 2), Fraction(0))
    with pytest.raises(DomainError):
        kl_bernoulli(Fraction(1, 2), Fraction(1))


@given(
    st.integers(1, 60).flatmap(
        lambda d: st.tuples(st.integers(0, d), st.just(d))
    )
)
def test_entropy_in_unit_interval(pq):
    k, d = pq
    assert 0.0 <= binary_entropy(Fraction(k, d)) <= 1.0


def test_log2_of_int_and_factorial():
    assert stable_log2(1024) == 10.0
    assert stable_log2(1) == 0.0
    assert stable_log2(math.factorial(52)) == pytest.approx(LOG2_FACT_52, abs=1e-9)


def _stable_log2_oracle(x):
    """stable_log2 as the mpmath front end computes it, for comparison."""
    f = Fraction(x)
    with mpmath.workdps(40):
        return float(mpmath.log(mpmath.mpf(f.numerator) / mpmath.mpf(f.denominator), 2))


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.integers(1, 1 << 600),
        st.integers(0, 4096).map(math.factorial),
        st.fractions(min_value=Fraction(1, 1 << 200), max_value=1 << 200),
        st.builds(Fraction, st.integers(1, 1 << 300), st.integers(1, 1 << 300)),
    )
)
def test_stable_log2_is_bit_equal_to_the_mpmath_front_end(x):
    assert stable_log2(x) == _stable_log2_oracle(x)


def test_stable_log2_rejects_nonpositive():
    for x in (0, -1, Fraction(-1, 3)):
        with pytest.raises(ValueError):
            stable_log2(x)


def test_entropy_upper_check():
    # h(p) <= p * log2(e / p): worst signed violation stays at float noise
    row = _sweep_entropy_upper(256)
    assert row.cases == 256 and row.passed


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
    p, q = Fraction(a, 100), Fraction(b, 100)
    v = kl_bernoulli(p, q)
    assert v >= -1e-15
    if a == b:
        assert v == pytest.approx(0.0, abs=1e-15)
