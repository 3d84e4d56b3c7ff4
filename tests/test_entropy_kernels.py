"""The binary entropy, the Pinsker and split-entropy kernels and the
Hoeffding sampler against oracles.

``stable_entropy`` and ``verify_split_entropy`` must equal mpmath at the exact
argument, rounded once, to the bit, and ``verify_split_entropy`` must raise
the same exception as its oracle on infeasible splits and out-of-range
arguments.  The Pinsker kernel, over logs of the integers it reads at one
precision, must lie within its stated bound of mpmath, at arguments whose
float forms once divided by 0.0 or overflowed.  The oracles of the sampler
are the CDF-inversion Hoeffding sampler and the per-trial ``rng.random()``
loop that the bulk sampler replaced: it must count the same hits and leave
the generator in the same state.
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

from conftest import hypergeometric_pmf, mp_bits, mp_float, mp_pinsker, split_slack_oracle
from sgdcodec import cli
from sgdcodec.harness import HoeffdingCheck, _draws_below, _pinsker_units, verify_hoeffding
from sgdcodec.numerics import (
    PreconditionError,
    _numerators,
    _realizable_q,
    verify_split_entropy,
)
from sgdcodec.stable import _WORK, _Log2s, _log2_e, stable_entropy


def oracle_binary_entropy(p) -> float:
    """h(p) by mpmath at the exact p in [0, 1], rounded once."""
    p = Fraction(p)
    if p == 0 or p == 1:
        return 0.0
    with mpmath.workprec(mp_bits(p)):
        x = mpmath.mpf(p.numerator) / p.denominator
        return mp_float(-(x * mpmath.log(x, 2) + (1 - x) * mpmath.log(1 - x, 2)))


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


def pinsker_within_bound(a, c, n):
    """The Pinsker kernel at a/n, c/n, over logs each within 16 of log2 k *
    2**_WORK, lies within 2 n**2 (16 + 1) of mpmath's margin times n**2 *
    2**_WORK: the divergence it reads is D(p || q)."""
    m = _pinsker_units(_Log2s(_WORK), _log2_e(_WORK), a, n, [c])[0]
    x = mp_pinsker(a, c, n)
    with mpmath.workprec(mp_bits(Fraction(1, n)) + _WORK):
        return abs(m - x * (n * n << _WORK)) <= 34 * n * n


# p rounds to 1.0 as a float: the float h(p) once raised "math domain error"
@example(Fraction(2**60 - 63, 2**60 + 1))
# 1 - p rounds to 1.0: the float h(p) once dropped its complement term
@example(Fraction(1, 2**54))
@example(Fraction(3, 2**60 + 1))
@example(2.0**-100)
@example(Fraction(64, 2**60 + 1))
# the complement term from log2 of a rounded 1 - p was off by about 2^-53
# absolute, some 10^5 ulps of h(p) here
@example(1.192092896e-07)
@example(Fraction(1, 10**9 + 7))
@example(Fraction(10**9 + 6, 10**9 + 7))
@settings(max_examples=300, deadline=None)
@given(PROBS)
def test_binary_entropy_matches_oracle(p):
    if 0 <= p <= 1:
        assert stable_entropy(p) == oracle_binary_entropy(p)
    else:
        with pytest.raises(ValueError, match=r"^probability outside \[0, 1\]$"):
            stable_entropy(p)


# q rounds to 1.0 as a float: D(p || q) once divided by 0.0
@example(Fraction(3, 4), Fraction(1, 2**1074))  # p/q overflows: D was once inf
@example(1, 2.2250738585e-313)  # the same at p = 1, with no complement term
@example(Fraction(1, 2**60), Fraction(2**60 - 1, 2**60))
@example(Fraction(2**60 - 64, 2**60 + 1), Fraction(2**60 - 63, 2**60 + 1))
@example(Fraction(1, 3), Fraction(2**60, 2**60 + 1))
@settings(max_examples=200, deadline=None)
@given(PROBS, PROBS)
def test_kl_bernoulli_matches_oracle(p, q):
    (a, c), n = _numerators(p, q)
    if 0 <= a <= n and (a == c or 0 < c < n):
        assert pinsker_within_bound(a, c, n)


@pytest.mark.parametrize("e", [54, 60, 100, 130])
def test_binary_entropy_keeps_the_complement_term_where_1_minus_p_rounds_to_1(e):
    # -(1 - p) log2(1 - p) is about p / ln 2 there, 1.4-2.6% of h(p)
    for num, den in ((1, 2**e), (2**e - 1, 2**e), (3, 2**(e + 2) + 1)):
        assert stable_entropy(Fraction(num, den)) == oracle_binary_entropy(Fraction(num, den))


@pytest.mark.parametrize(
    "num, den", [(1, 10**400), (10**400 - 1, 10**400), (3, 2**1100 + 1)],
    ids=["1/10^400", "1-1/10^400", "3/(2^1100+1)"],
)
def test_binary_entropy_is_total_past_the_float_range(num, den):
    # num/den or its complement underflows to 0.0 as a float
    assert stable_entropy(Fraction(num, den)) == oracle_binary_entropy(Fraction(num, den))


@pytest.mark.parametrize(
    "a, c, n",
    [(1, 2**1100 - 1, 2**1100), (2**1099, 2**1100 - 3, 2**1100), (0, 2**70 - 1, 2**70),
     (3 * 2**1072, 1, 2**1074)],
    ids=["2^-1100", "half", "zero", "p/q-overflows"],
)
def test_kl_is_total_past_the_float_range(a, c, n):
    assert pinsker_within_bound(a, c, n)


# the float h(1 - p) rounded 1 - p to 1.0 and raised "math domain error"
@example(4.856680502992691e-177, Fraction(1, 2), Fraction(1, 2))
# a float h(p * gamma / q) underflowed to h(0.0), among subnormal terms
@example(2.2250738585e-313, 2.2250738585e-313, 0.125)
# the same with a float D(p || q) at inf, as p/q overflows; the slack was
# once -inf, and D is finite
@example(0.75, 5e-324, 5e-324)
# p/q overflows with every other float term finite
@example(0.5, 5e-324, 1.5e-323)
# p = 1 and p/q overflows: D once raised "math domain error" from ln(0)
@example(1, 2.225073858507e-311, 2.225073858507e-311)
# h(gamma) took its complement term from log2 of a rounded 1 - gamma: off by
# about 2^-53 absolute, some 10^5 ulps of h(gamma)
@example(5e-324, 1.192092896e-07, 0.5)
@settings(max_examples=300, deadline=None)
@given(PROBS, PROBS, PROBS)
def test_verify_split_entropy_matches_oracle(p, gamma, q):
    assert outcome(verify_split_entropy, p, gamma, q) == outcome(split_slack_oracle, p, gamma, q)


@pytest.mark.parametrize("side", [1, 2, 7, 16])
def test_verify_split_entropy_matches_oracle_on_grids(side):
    # every (p, gamma, q) on a grid with 0, 1 and a mix of infeasible splits
    pts = [Fraction(k, side) for k in range(side + 1)]
    for p in pts:
        for gamma in pts:
            for q in pts:
                assert outcome(verify_split_entropy, p, gamma, q) == outcome(
                    split_slack_oracle, p, gamma, q
                )


@st.composite
def realizable_splits(draw):
    """(p, gamma, q) over one denominator, up to 2**80 + 1, with q realizable."""
    n = draw(st.one_of(st.integers(2, 64), st.sampled_from([3**13, 2**60 + 1, 2**80 + 1])))
    a, g = draw(st.integers(0, n)), draw(st.integers(1, n))
    q = _realizable_q(a, g, n)
    return Fraction(a, n), Fraction(g, n), Fraction(draw(st.integers(q.start, q.stop - 1)), n)


@settings(max_examples=300, deadline=None)
@given(realizable_splits())
def test_verify_split_entropy_matches_oracle_on_realizable_splits(split):
    assert verify_split_entropy(*split) == split_slack_oracle(*split)


def test_verify_split_entropy_is_zero_at_the_equalities():
    # gamma = 0, where D(p || q) may be infinite, and p = q return +0.0
    for p, gamma, q in ((Fraction(1, 3), 0, 0), (1, 0, Fraction(1, 2)), (0.25, 0.5, 0.25),
                        (Fraction(2**60 - 1, 2**60), Fraction(1, 3), Fraction(2**60 - 1, 2**60))):
        got = verify_split_entropy(p, gamma, q)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
    assert verify_split_entropy(5e-324, 1.192092896e-07, 0.5) == 1.0250966042682913e-14


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
