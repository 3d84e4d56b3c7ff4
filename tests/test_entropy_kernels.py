"""The integer-numerator entropy kernels and the Hoeffding sampler against oracles.

The oracles below are the Fraction-based binary entropy, Bernoulli
divergence and ``verify_split_entropy``, the CDF-inversion Hoeffding sampler
and the per-trial ``rng.random()`` loop that the kernels replaced.  The
``_entropy`` and ``_kl`` kernels, fed numerators over one common
denominator, must return the very same float bits as the oracles over mixed
denominators and the boundary values 0 and 1; ``verify_split_entropy`` must
also raise the same exception type on infeasible splits and out-of-range
arguments; the bulk sampler must count the same hits and leave the generator
in the same state.  Where the oracles' float formula fails (a factor rounds
to 0.0), the kernels return a value instead, checked against
``stable_entropy`` or mpmath to a few ulps.
"""

from __future__ import annotations

import bisect
import math
import random
import tracemalloc
from fractions import Fraction

import hypothesis.strategies as st
import mpmath
import pytest
from hypothesis import example, given, settings

from conftest import hypergeometric_pmf
from sgdcodec import cli
from sgdcodec.harness import HoeffdingCheck, _draws_below, verify_hoeffding
from sgdcodec.numerics import (
    DomainError,
    PreconditionError,
    _entropy,
    _kl,
    _numerators,
    _realizable_q,
    verify_split_entropy,
)
from sgdcodec.stable import stable_entropy


def oracle_binary_entropy(p):
    pf = Fraction(p)
    if pf < 0 or pf > 1:
        raise DomainError(f"probability {p} outside [0, 1]")
    if pf == 0 or pf == 1:
        return 0.0
    # from the smaller side, with the complement term from log1p
    x = float(pf)
    if x > 0.5:
        x = float(1 - pf)
    return -(x * math.log2(x) + (1.0 - x) * math.log1p(-x) / math.log(2))


def oracle_kl_bernoulli(p, q):
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


def oracle_verify_split_entropy(p, gamma, q):
    pf, gf, qf = Fraction(p), Fraction(gamma), Fraction(q)
    for v, name in ((pf, "p"), (gf, "gamma"), (qf, "q")):
        if v < 0 or v > 1:
            raise DomainError(f"{name}={v} outside [0, 1]")
    if pf * gf > qf or (1 - pf) * gf > 1 - qf:
        raise PreconditionError("split not realizable")
    if gf == 0:
        return 0.0
    lhs = 0.0
    if qf > 0:
        lhs += float(qf) * oracle_binary_entropy(pf * gf / qf)
    if qf < 1:
        lhs += float(1 - qf) * oracle_binary_entropy((1 - pf) * gf / (1 - qf))
    div = oracle_kl_bernoulli(pf, qf) if pf != qf else 0.0
    rhs = oracle_binary_entropy(gf) - float(gf) * div
    return rhs - lhs


def oracle_hoeffding_hits(check: HoeffdingCheck) -> int:
    k = check.sample_size
    pmf = hypergeometric_pmf(check.population_size, check.population_ones, k)
    cdf: list[float] = []
    acc = Fraction(0)
    for p in pmf:
        acc += p
        cdf.append(float(acc))
    threshold = math.floor(k * (check.mu - check.delta))
    rng = random.Random(check.seed)
    hits = 0
    for _ in range(check.trials):
        c = min(bisect.bisect_right(cdf, rng.random()), k)
        if c <= threshold:
            hits += 1
    return hits


def outcome(fn, *args):
    """The result's float bits, or the type of the exception it raised."""
    try:
        return fn(*args).hex()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


@st.composite
def rationals(draw):
    """Mostly [0, 1], sometimes just outside it, over small and large denominators."""
    den = draw(
        st.one_of(
            st.integers(1, 64),
            st.sampled_from([1024, 3**13, 10**9 + 7, 2**60 + 1]),
        )
    )
    num = draw(
        st.one_of(
            st.integers(0, den),
            st.sampled_from([0, den, -1, den + 1]),
            st.integers(-den, 2 * den),
        )
    )
    return Fraction(num, den)


PROBS = st.one_of(
    rationals(),
    st.sampled_from([0, 1, Fraction(1, 2)]),
    st.floats(0.0, 1.0),
)


def precise_kl_terms(a, c, n):
    """The two terms of D(a/n || c/n) in bits, p*log2(p/q) and
    (1-p)*log2((1-p)/(1-q)), with 256 bits to spare past n**2, as floats."""
    with mpmath.workprec(2 * n.bit_length() + 256):
        x, y = mpmath.mpf(a) / n, mpmath.mpf(c) / n
        up = x * mpmath.log(x / y, 2) if a else mpmath.mpf(0)
        down = (1 - x) * mpmath.log((1 - x) / (1 - y), 2) if a < n else mpmath.mpf(0)
        return float(up), float(down), float(up + down)


def close(got, want, scale, ulps=4):
    """got is want to a few ulps of scale.  A subnormal intermediate keeps
    only an absolute 2**-1074, which a log2 factor of up to about 1100
    scales, so 2**-1060 more is allowed."""
    return abs(got - want) <= ulps * math.ulp(scale) + 2.0**-1060


def kl_within_ulps(a, c, n):
    """_kl(a, c, n) is D to a few ulps of its larger term: the terms have
    opposite signs, and a float sum of them keeps only that much where p
    is near q."""
    up, down, want = precise_kl_terms(a, c, n)
    return close(_kl(a, c, n), want, max(abs(up), abs(down)))


# p rounds to 1.0 as a float: h(p) once raised "math domain error"
@example(Fraction(2**60 - 63, 2**60 + 1))
# 1 - p rounds to 1.0: h(p) once dropped its complement term
@example(Fraction(1, 2**54))
@example(Fraction(3, 2**60 + 1))
@example(2.0**-100)
@example(Fraction(64, 2**60 + 1))
@settings(max_examples=200)
@given(PROBS)
def test_binary_entropy_matches_oracle(p):
    (a,), n = _numerators(p)
    if 0 <= a <= n:
        try:
            want = oracle_binary_entropy(p)
        except ValueError:  # where the float formula fails, h to a few ulps
            want = stable_entropy(Fraction(a, n))
            assert close(_entropy(a, n), want, want)
        else:
            assert _entropy(a, n).hex() == want.hex()


# the complement term from log2 of a rounded 1 - p was off by about 2^-53
# absolute, some 10^5 ulps of h(p) here
@example(1.192092896e-07)
@example(Fraction(1, 10**9 + 7))
@example(Fraction(10**9 + 6, 10**9 + 7))
@settings(max_examples=200)
@given(PROBS)
def test_binary_entropy_is_accurate_to_a_few_ulps(p):
    (a,), n = _numerators(p)
    if 0 <= a <= n:
        with mpmath.workprec(2 * n.bit_length() + 256):
            x = mpmath.mpf(a) / n
            h = -(x * mpmath.log(x, 2) + (1 - x) * mpmath.log(1 - x, 2)) if 0 < a < n else 0
            want = float(h)
        assert close(_entropy(a, n), want, want)


# q rounds to 1.0 as a float: D(p || q) once divided by 0.0
@example(Fraction(3, 4), Fraction(1, 2**1074))  # p/q overflows: D was once inf
@example(1, 2.2250738585e-313)  # the same at p = 1, with no complement term
@example(Fraction(1, 2**60), Fraction(2**60 - 1, 2**60))
@example(Fraction(2**60 - 64, 2**60 + 1), Fraction(2**60 - 63, 2**60 + 1))
@example(Fraction(1, 3), Fraction(2**60, 2**60 + 1))
@settings(max_examples=200)
@given(PROBS, PROBS)
def test_kl_bernoulli_matches_oracle(p, q):
    (a, c), n = _numerators(p, q)
    if 0 <= a <= n and (a == c or 0 < c < n):
        try:
            want = oracle_kl_bernoulli(p, q)
        except ZeroDivisionError:  # where the float formula fails, D from the integers
            assert kl_within_ulps(a, c, n)
        else:
            if math.isfinite(want):
                assert _kl(a, c, n).hex() == want.hex()
            else:  # p/q overflowed the float range: D from the integers
                assert kl_within_ulps(a, c, n)


# stable_entropy is the correctly rounded h(p) at every p, complement term
# included, so it serves as the oracle here and below
@pytest.mark.parametrize("e", [54, 60, 100, 130])
def test_binary_entropy_keeps_the_complement_term_where_1_minus_p_rounds_to_1(e):
    # -(1 - p) log2(1 - p) is about p / ln 2 there, 1.4-2.6% of h(p)
    for num, den in ((1, 2**e), (2**e - 1, 2**e), (3, 2**(e + 2) + 1)):
        want = stable_entropy(Fraction(num, den))
        assert close(_entropy(num, den), want, want), (num, den)


@pytest.mark.parametrize(
    "num, den", [(1, 10**400), (10**400 - 1, 10**400), (3, 2**1100 + 1)],
    ids=["1/10^400", "1-1/10^400", "3/(2^1100+1)"],
)
def test_binary_entropy_is_total_past_the_float_range(num, den):
    # num/den or its complement underflows to 0.0: that side adds its limit 0
    want = stable_entropy(Fraction(num, den))
    assert close(_entropy(num, den), want, want)


@pytest.mark.parametrize(
    "a, c, n",
    [(1, 2**1100 - 1, 2**1100), (2**1099, 2**1100 - 3, 2**1100), (0, 2**70 - 1, 2**70),
     (3 * 2**1072, 1, 2**1074)],
    ids=["2^-1100", "half", "zero", "p/q-overflows"],
)
def test_kl_is_total_past_the_float_range(a, c, n):
    assert kl_within_ulps(a, c, n)


def split_within_ulps(p, gamma, q):
    """verify_split_entropy(p, gamma, q) is its slack to a few ulps of the
    largest of the four terms it sums."""
    (a, g, c), n = _numerators(p, gamma, q)
    with mpmath.workprec(2 * n.bit_length() + 256):
        x, gm, y = (mpmath.mpf(v) / n for v in (a, g, c))

        def h(v):
            return -(v * mpmath.log(v, 2) + (1 - v) * mpmath.log(1 - v, 2)) if 0 < v < 1 else 0

        up = x * mpmath.log(x / y, 2) if a and g else 0
        down = (1 - x) * mpmath.log((1 - x) / (1 - y), 2) if a < n and g else 0
        terms = [
            h(gm),
            -gm * (up + down),
            -y * h(x * gm / y) if c else 0,
            -(1 - y) * h((1 - x) * gm / (1 - y)) if c < n else 0,
        ]
        want, scale = float(sum(terms)), max(abs(float(t)) for t in terms)
    got = verify_split_entropy(p, gamma, q)
    return close(got, want, scale, ulps=16)


# the oracle's h(1 - p) rounds 1 - p to 1.0 and raised "math domain error"
@example(4.856680502992691e-177, Fraction(1, 2), Fraction(1, 2))
# its h(p * gamma / q) underflows to h(0.0), among subnormal terms
@example(2.2250738585e-313, 2.2250738585e-313, 0.125)
# the same with the oracle's D(p || q) at inf, as p/q overflows; the slack
# was once -inf, and D is finite
@example(0.75, 5e-324, 5e-324)
# p/q overflows with every other oracle term finite: the oracle reads -inf
@example(0.5, 5e-324, 1.5e-323)
# p = 1 and p/q overflows: D once raised "math domain error" from ln(0)
@example(1, 2.225073858507e-311, 2.225073858507e-311)
# h(gamma) took its complement term from log2 of a rounded 1 - gamma: off by
# about 2^-53 absolute, some 10^5 ulps of h(gamma)
@example(5e-324, 1.192092896e-07, 0.5)
@settings(max_examples=300)
@given(PROBS, PROBS, PROBS)
def test_verify_split_entropy_matches_oracle(p, gamma, q):
    want = outcome(oracle_verify_split_entropy, p, gamma, q)
    # a float factor rounded to 0.0, or the oracle's D(p || q) overflowed
    if want in (ValueError, ZeroDivisionError, "-inf"):
        assert split_within_ulps(p, gamma, q)
    else:
        assert outcome(verify_split_entropy, p, gamma, q) == want


@pytest.mark.parametrize("side", [1, 2, 7, 16])
def test_verify_split_entropy_matches_oracle_on_grids(side):
    # every (p, gamma, q) on a grid with 0, 1 and a mix of infeasible splits
    pts = [Fraction(k, side) for k in range(side + 1)]
    for p in pts:
        for gamma in pts:
            for q in pts:
                assert outcome(verify_split_entropy, p, gamma, q) == outcome(
                    oracle_verify_split_entropy, p, gamma, q
                )


def test_split_precondition_message_names_both_sides():
    with pytest.raises(PreconditionError) as info:
        verify_split_entropy(Fraction(1), Fraction(1, 2), Fraction(1, 4))
    assert str(info.value) == (
        "split not realizable: p*gamma=8/16 vs q=1/4, (1-p)*gamma=0/16 vs 1-q=3/4"
    )


@pytest.mark.parametrize("n", range(1, 13))
def test_realizable_q_is_exactly_the_two_split_inequalities(n):
    for a in range(n + 1):
        for g in range(n + 1):
            q = _realizable_q(a, g, n)
            for c in range(n + 1):
                realizable = a * g <= c * n and (n - a) * g <= (n - c) * n
                assert (c in q) == realizable, (a, g, c, n)


HOEFFDING_CASES = [
    (64, 32, 16, Fraction(1, 8), 0),
    (64, 32, 16, Fraction(0), 3),
    (100, 37, 20, Fraction(1, 10), 5),
    (1024, 512, 64, Fraction(1, 10), 11),
    (50, 50, 10, Fraction(1, 2), 2),
    (40, 0, 8, Fraction(0), 9),
    (30, 12, 30, Fraction(1, 5), 4),
]


@pytest.mark.parametrize("population, ones, k, delta, seed", HOEFFDING_CASES)
def test_hoeffding_hits_match_cdf_inversion(population, ones, k, delta, seed):
    check = HoeffdingCheck(population, ones, k, delta, trials=10**4, seed=seed)
    res = verify_hoeffding([check])[0]
    assert res.empirical_freq * check.trials == oracle_hoeffding_hits(check)


@pytest.mark.parametrize("population, ones, k, delta, seed", HOEFFDING_CASES)
def test_hoeffding_exact_tail_is_the_pmf_prefix_sum(population, ones, k, delta, seed):
    check = HoeffdingCheck(population, ones, k, delta, trials=10**4, seed=seed)
    res = verify_hoeffding([check])[0]
    pmf = hypergeometric_pmf(population, ones, k)
    assert res.exact_prob == sum(pmf[: res.threshold_count + 1], Fraction(0))


def test_hoeffding_results_follow_the_input_order_across_shared_reads():
    mixed = [
        HoeffdingCheck(*HOEFFDING_CASES[0][:4], trials=10**4, seed=0),
        HoeffdingCheck(*HOEFFDING_CASES[2][:4], trials=10**4 + 7, seed=5),
        HoeffdingCheck(*HOEFFDING_CASES[3][:4], trials=10**4, seed=5),
        HoeffdingCheck(*HOEFFDING_CASES[0][:4], trials=10**4, seed=0),
        HoeffdingCheck(*HOEFFDING_CASES[6][:4], trials=10**4 + 7, seed=5),
        HoeffdingCheck(*HOEFFDING_CASES[4][:4], trials=10**4, seed=0),
    ]
    assert verify_hoeffding(mixed) == [verify_hoeffding([c])[0] for c in mixed]
    assert verify_hoeffding([]) == []


def test_cli_verify_reads_the_generator_once_for_all_hoeffding_checks(monkeypatch, capsys):
    calls = []
    randbytes = random.Random.randbytes

    def spy(self, n):
        calls.append(n)
        return randbytes(self, n)

    monkeypatch.setattr(random.Random, "randbytes", spy)
    assert cli.main(["verify", "--suites", "hoeffding"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    # four checks of 10^5 trials at seed 11, 4096 trials per read
    assert len(calls) == -(-10**5 // 4096) == 25
    assert sum(calls) == 8 * 10**5


@st.composite
def tail_settings(draw):
    """(n, ones, k, delta) with n <= 64 and delta a rational in [0, mu]."""
    n = draw(st.integers(1, 64))
    ones = draw(st.integers(0, n))
    k = draw(st.integers(1, n))
    den = draw(st.integers(1, 64))
    return n, ones, k, Fraction(ones, n) * Fraction(draw(st.integers(0, den)), den)


@example((50, 50, 10, Fraction(1, 2)))  # threshold 5, below the support's start 10
@example((40, 0, 8, Fraction(0)))  # no ones: the whole law at c = 0
@example((30, 12, 30, Fraction(1, 5)))  # k = n: the law is one point
@example((64, 63, 64, Fraction(0)))  # k = n at the top of the support
@example((64, 1, 1, Fraction(0)))  # one draw: the tail is P(the one is not drawn)
@settings(max_examples=300, derandomize=True, deadline=None)
@given(tail_settings())
def test_hoeffding_tail_by_the_term_ratio_is_the_pmf_prefix_sum(setting):
    n, ones, k, delta = setting
    res = verify_hoeffding([HoeffdingCheck(n, ones, k, delta, trials=10**4)])[0]
    assert res.threshold_count == math.floor(k * (Fraction(ones, n) - delta))
    pmf = hypergeometric_pmf(n, ones, k)
    assert res.exact_prob == sum(pmf[: res.threshold_count + 1], Fraction(0))


def verify_tail_floats() -> list[float]:
    """float(exact) of the four ``sgdcodec verify`` Hoeffding settings."""
    out = []
    for k in (64, 256):
        pmf = hypergeometric_pmf(1024, 512, k)
        for delta in (Fraction(1, 10), Fraction(1, 5)):
            threshold = math.floor(k * (Fraction(1, 2) - delta))
            out.append(float(sum(pmf[: threshold + 1], Fraction(0))))
    return out


SAMPLER_SEED = 21
# N of the first draw, u = N / 2^53 (0.165 for this seed): cuts at N, N + 1/2
# and N + 1 (times 2^-53) put that u on the cut, half a step below it and one
# step below it, all at the byte that is decoded in full; the middle one tells
# ceil(cut * 2^53) from floor
FIRST_N = int(random.Random(SAMPLER_SEED).random() * 2**53)
SAMPLER_CUTS = [
    0.0,
    1.0,
    0.5,
    math.ldexp(3, -45),
    math.ldexp(FIRST_N >> 45, -8),
    math.ldexp(5, -53),
    math.ldexp(FIRST_N, -53),
    math.ldexp(2 * FIRST_N + 1, -54),
    math.ldexp(FIRST_N + 1, -53),
    math.ulp(0.0),
    *(
        x
        for tail in verify_tail_floats()
        for x in (math.nextafter(tail, 0.0), tail, math.nextafter(tail, 1.0))
    ),
]


@pytest.mark.parametrize("cut", SAMPLER_CUTS, ids=float.hex)
def test_bulk_sampler_matches_one_random_call_per_trial(cut):
    for trials in (1, 2**12 - 1, 2**12, 2**12 + 1, 10**4 + 3):
        bulk, loop = random.Random(SAMPLER_SEED), random.Random(SAMPLER_SEED)
        assert _draws_below(bulk, trials, [cut]) == [sum(
            loop.random() < cut for _ in range(trials)
        )], trials
        assert bulk.random() == loop.random(), trials


def test_bulk_sampler_reads_the_stream_in_bounded_chunks():
    rng = random.Random(SAMPLER_SEED)
    tracemalloc.start()
    try:
        _draws_below(rng, 10**6, [0.25])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_bulk_sampler_counts_every_cut_in_one_pass():
    for trials in (1, 2**12 - 1, 2**12, 2**12 + 1, 10**4 + 3):
        bulk, loop = random.Random(SAMPLER_SEED), random.Random(SAMPLER_SEED)
        us = [loop.random() for _ in range(trials)]
        assert _draws_below(bulk, trials, SAMPLER_CUTS) == [
            sum(u < cut for u in us) for cut in SAMPLER_CUTS
        ], trials
        assert bulk.random() == loop.random(), trials
