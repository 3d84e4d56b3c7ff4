"""Exact combinatorial codes: bit streams, subset/permutation ranks, set codec.

Sets are int bitmasks over element ids, as the codec takes them."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import mask_of
from sgdcodec.codec import (
    BitStream,
    CodecError,
    binomial,
    ceil_log2,
    decode_set_conditional,
    encode_set_conditional,
    perm_rank,
    perm_unrank,
    subset_rank,
    subset_unrank,
    theoretical_set_bound,
)
from sgdcodec.numerics import DomainError


def test_ceil_log2_edges():
    assert ceil_log2(1) == 0
    assert ceil_log2(2) == 1
    assert ceil_log2(3) == 2
    assert ceil_log2(4) == 2
    assert ceil_log2(1 << 40) == 40
    assert ceil_log2((1 << 40) + 1) == 41
    with pytest.raises(DomainError):
        ceil_log2(0)


def test_binomial_against_stdlib():
    assert binomial(64, 32) == 1832624140942590534
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(0, 300)
        k = rng.randint(0, n + 2)
        assert binomial(n, k) == (math.comb(n, k) if k <= n else 0)
    with pytest.raises(DomainError):
        binomial(4, -1)


def test_bitstream_round_trip_basic():
    s = BitStream()
    s.write_uint(0b1011, 4)
    s.write_uint(0, 3)
    s.write_uint(12345, 17)
    s.reset_cursor()
    assert s.read_uint(4) == 0b1011
    assert s.read_uint(3) == 0
    assert s.read_uint(17) == 12345
    assert s.bits_remaining() == 0


def test_bitstream_zero_width_and_overread():
    s = BitStream()
    s.write_uint(0, 0)
    assert len(s) == 0
    s.reset_cursor()
    assert s.read_uint(0) == 0
    with pytest.raises(CodecError):
        s.read_uint(1)


def test_bitstream_value_must_fit():
    s = BitStream()
    with pytest.raises(CodecError):
        s.write_uint(4, 2)
    with pytest.raises(CodecError):
        s.write_uint(-1, 2)


def test_bitstream_bytes_round_trip_all_tail_lengths():
    rng = random.Random(11)
    for nbits in range(0, 26):
        s = BitStream()
        for _ in range(nbits):
            s.write_uint(rng.randint(0, 1), 1)
        back = BitStream.from_bytes(s.to_bytes())
        assert back == s
        assert len(back) == nbits


def test_bitstream_copy_is_independent():
    s = BitStream()
    s.write_uint(9, 5)
    c = s.copy()
    c.write_uint(1, 1)
    assert len(s) == 5 and len(c) == 6
    assert s != c


def brute_colex_rank(a, pool):
    """Index of subset a among all |a|-subsets of pool in colex order."""
    key = lambda comb: tuple(sorted((pool.index(x) for x in comb), reverse=True))
    all_subsets = sorted(itertools.combinations(pool, len(a)), key=key)
    return all_subsets.index(tuple(sorted(a, key=pool.index)))


def test_subset_rank_matches_brute_force():
    pool = (2, 3, 5, 8, 13, 21, 34)
    for k in range(0, len(pool) + 1):
        for comb in itertools.combinations(pool, k):
            r = subset_rank(mask_of(comb), mask_of(pool))
            assert 0 <= r < binomial(len(pool), k)
            assert r == brute_colex_rank(comb, pool)
            assert subset_unrank(r, mask_of(pool), k) == mask_of(comb)


def test_subset_rank_random_round_trip():
    rng = random.Random(2)
    for _ in range(400):
        n = rng.randint(1, 180)
        k = rng.randint(0, n)
        pool = tuple(sorted(rng.sample(range(10 * n), n)))
        sub = mask_of(rng.sample(pool, k))
        r = subset_rank(sub, mask_of(pool))
        assert r < binomial(n, k)
        assert subset_unrank(r, mask_of(pool), k) == sub


def test_subset_rank_extremes():
    pool = (1 << 10) - 1
    assert subset_rank(0, pool) == 0
    assert subset_rank(pool, pool) == 0
    assert subset_rank(0b111, pool) == 0
    assert subset_rank(0b111 << 7, pool) == binomial(10, 3) - 1


def test_subset_rank_rejects_bad_input():
    pool = mask_of((1, 2, 3))
    with pytest.raises(CodecError):
        subset_rank(mask_of((1, 4)), pool)  # 4 not in pool
    with pytest.raises(CodecError):
        encode_set_conditional(BitStream(), mask_of((1, 4)), pool, mask_of((1,)))
    with pytest.raises(CodecError):
        subset_unrank(0, -1, 1)  # a negative int is no set


def test_perm_rank_matches_lexicographic():
    base = (10, 20, 30, 40)
    ordered = sorted(itertools.permutations(base))
    for i, p in enumerate(ordered):
        assert perm_rank(p) == i
        assert perm_unrank(i, mask_of(base)) == p


def test_perm_rank_random_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 60)
        p = rng.sample(range(500), n)
        r = perm_rank(p)
        assert 0 <= r < math.factorial(n)
        assert perm_unrank(r, mask_of(p)) == tuple(p)


def test_perm_rank_rejects_non_permutation():
    with pytest.raises(CodecError):
        perm_rank((1, 2, 1))  # repeated id
    with pytest.raises(CodecError):
        perm_unrank(math.factorial(3), mask_of((1, 2, 3)))
    with pytest.raises(CodecError):
        perm_unrank(-1, mask_of((1, 2, 3)))


@given(st.integers(0, 2**120), st.integers(121, 140))
def test_bitstream_uint_round_trip(value, width):
    s = BitStream()
    s.write_uint(value, width)
    s.reset_cursor()
    assert s.read_uint(width) == value


@settings(max_examples=120)
@given(st.sets(st.integers(0, 120), max_size=40), st.data())
def test_subset_round_trip_property(pool_set, data):
    k = data.draw(st.integers(0, len(pool_set)))
    sub = mask_of(data.draw(st.permutations(sorted(pool_set)))[:k])
    r = subset_rank(sub, mask_of(pool_set))
    assert subset_unrank(r, mask_of(pool_set), k) == sub


def test_conditional_set_round_trip():
    rng = random.Random(7)
    for _ in range(300):
        m = rng.randint(1, 60)
        pool = tuple(sorted(rng.sample(range(300), m)))
        a = mask_of(rng.sample(pool, rng.randint(0, m)))
        ones = mask_of(rng.sample(pool, rng.randint(0, m)))
        s = BitStream()
        info = encode_set_conditional(s, a, mask_of(pool), ones)
        assert len(s) == info.total_bits
        s.reset_cursor()
        assert decode_set_conditional(s, mask_of(pool), ones, a.bit_count()) == a


@settings(max_examples=300)
@given(st.randoms(use_true_random=False), st.booleans())
def test_decode_of_arbitrary_streams_is_a_subset_or_an_error(rng, headers_add_up):
    # no encoder wrote these bits: decoding must fail cleanly or return a
    # set of the asked size inside the pool whose encoding is exactly the
    # bits it read.  Half the streams open with size headers that add up,
    # each within its pool half, so that the rank fields get read too.
    pool, ones = rng.getrandbits(48), rng.getrandbits(48)
    m1, m0 = (pool & ones).bit_count(), (pool & ~ones).bit_count()
    size = rng.randint(1, m1 + m0 + 2)
    s = BitStream()
    if headers_add_up and size <= m1 + m0:
        n1 = rng.randint(max(0, size - m0), min(size, m1))
        s.write_uint(n1, ceil_log2(size + 1))
        s.write_uint(size - n1, ceil_log2(size + 1))
    width = rng.randint(0, 128)
    s.write_uint(rng.getrandbits(width), width)
    s.reset_cursor()
    try:
        a = decode_set_conditional(s, pool, ones, size)
    except CodecError:
        return
    assert a & ~pool == 0 and a.bit_count() == size
    read = len(s) - s.bits_remaining()
    again = BitStream()
    encode_set_conditional(again, a, pool, ones)
    s.reset_cursor()
    again.reset_cursor()
    assert len(again) == read and again.read_uint(read) == s.read_uint(read)


def test_conditional_set_header_width_uses_subset_size():
    s = BitStream()
    info = encode_set_conditional(
        s, (1 << 128) - 1, (1 << 256) - 1, mask_of(range(0, 256, 2))
    )
    assert info.size_header_bits == ceil_log2(129) == 8


def test_conditional_set_perfect_classifier_costs_headers_only():
    a = (1 << 16) - 1
    s = BitStream()
    info = encode_set_conditional(s, a, (1 << 64) - 1, a)
    assert info.rank_ones_bits == 0 and info.rank_zeros_bits == 0
    assert info.total_bits == 2 * ceil_log2(17)


def test_conditional_rank_bits_never_far_above_unconditional():
    # C(m1,k1)*C(m0,k0) <= C(m,k), so rank widths lose at most 2 ceiling bits
    rng = random.Random(13)
    for _ in range(200):
        m = rng.randint(1, 80)
        ids = range(m)
        a = mask_of(rng.sample(ids, rng.randint(0, m)))
        ones = mask_of(rng.sample(ids, rng.randint(0, m)))
        s = BitStream()
        info = encode_set_conditional(s, a, (1 << m) - 1, ones)
        uncond = ceil_log2(binomial(m, a.bit_count()))
        assert info.rank_ones_bits + info.rank_zeros_bits <= uncond + 2


def test_theoretical_set_bound_frozen_value():
    # m=1024, gamma=1/8, q=1/2, p=1/4: 1024*h(1/8) - 2*(1/8)*1024*(1/4)^2
    v = theoretical_set_bound(
        1024, Fraction(1, 8), Fraction(1, 2), Fraction(1, 4)
    )
    assert v == pytest.approx(540.6099898364, abs=1e-6)


def test_theoretical_set_bound_rejects_unrealizable():
    with pytest.raises(DomainError):
        theoretical_set_bound(64, Fraction(1, 2), Fraction(1, 8), Fraction(1))


def test_decode_rejects_inconsistent_headers():
    s = BitStream()
    encode_set_conditional(s, 0b11, 0xFF, 0x0F)
    s.reset_cursor()
    with pytest.raises(CodecError):
        decode_set_conditional(s, 0xFF, 0x0F, 3)
