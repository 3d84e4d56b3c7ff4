"""The integer-numerator entropy kernels and the Hoeffding sampler against oracles.

The oracles below are the Fraction-based binary entropy, Bernoulli
divergence and ``verify_split_entropy``, the CDF-inversion Hoeffding sampler
and the per-trial ``rng.random()`` loop that the kernels replaced.  The
``_entropy`` and ``_kl`` kernels, fed numerators over one common
denominator, must return the very same float bits as the oracles over mixed
denominators and the boundary values 0 and 1; ``verify_split_entropy`` must
also raise the same exception type on infeasible splits and out-of-range
arguments; the bulk sampler must count the same hits and leave the generator
in the same state.
"""

from __future__ import annotations

import bisect
import math
import random
import tracemalloc
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import hypergeometric_pmf
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


def oracle_binary_entropy(p):
    pf = Fraction(p)
    if pf < 0 or pf > 1:
        raise DomainError(f"probability {p} outside [0, 1]")
    if pf == 0 or pf == 1:
        return 0.0
    x = float(pf)
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


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


@settings(max_examples=200)
@given(PROBS)
def test_binary_entropy_matches_oracle(p):
    (a,), n = _numerators(p)
    if 0 <= a <= n:
        assert _entropy(a, n).hex() == oracle_binary_entropy(p).hex()


@settings(max_examples=200)
@given(PROBS, PROBS)
def test_kl_bernoulli_matches_oracle(p, q):
    (a, c), n = _numerators(p, q)
    if 0 <= a <= n and (a == c or 0 < c < n):
        assert _kl(a, c, n).hex() == oracle_kl_bernoulli(p, q).hex()


@settings(max_examples=300)
@given(PROBS, PROBS, PROBS)
def test_verify_split_entropy_matches_oracle(p, gamma, q):
    assert outcome(verify_split_entropy, p, gamma, q) == outcome(
        oracle_verify_split_entropy, p, gamma, q
    )


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
    res = verify_hoeffding(check)
    assert res.empirical_freq * check.trials == oracle_hoeffding_hits(check)


@pytest.mark.parametrize("population, ones, k, delta, seed", HOEFFDING_CASES)
def test_hoeffding_exact_tail_is_the_pmf_prefix_sum(population, ones, k, delta, seed):
    check = HoeffdingCheck(population, ones, k, delta, trials=10**4, seed=seed)
    res = verify_hoeffding(check)
    pmf = hypergeometric_pmf(population, ones, k)
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
        assert _draws_below(bulk, trials, cut) == sum(
            loop.random() < cut for _ in range(trials)
        ), trials
        assert bulk.random() == loop.random(), trials


def test_bulk_sampler_reads_the_stream_in_bounded_chunks():
    rng = random.Random(SAMPLER_SEED)
    tracemalloc.start()
    try:
        _draws_below(rng, 10**6, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
