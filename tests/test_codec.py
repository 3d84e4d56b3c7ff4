"""Exact combinatorial codes: bit streams, subset/permutation ranks, set codec.

Sets are int bitmasks over element ids, as the codec takes them."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import mask_of, theoretical_set_bound
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
)
from sgdcodec.epoch_codec import ACCOUNTING, BACKWARD, SideInfo, decode_epoch, encode_epoch
from sgdcodec.model import GeneratorSpec
from sgdcodec.numerics import DomainError, GridSpec
from sgdcodec.sgd_engine import RunConfig, run_training


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


def test_bitstream_from_bytes_rejects_nonzero_pad_bits():
    rng = random.Random(12)
    for nbits in range(1, 26):
        s = BitStream()
        for _ in range(nbits):
            s.write_uint(rng.randint(0, 1), 1)
        blob = s.to_bytes()
        for bit in range(-nbits % 8):  # the pad bits sit below the last payload bit
            bad = bytearray(blob)
            bad[-2] ^= 1 << bit
            with pytest.raises(CodecError, match="nonzero pad bits"):
                BitStream.from_bytes(bytes(bad))


def test_bitstream_copy_is_independent():
    # a copy is the stream rebuilt from its bytes
    s = BitStream()
    s.write_uint(9, 5)
    c = BitStream.from_bytes(s.to_bytes())
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


def scan_subset_rank(a, pool):
    """Oracle: the colex rank by one incremental-binomial step per pool position."""
    ids = [e for e, bit in enumerate(reversed(bin(pool))) if bit == "1"]
    k = a.bit_count()
    m = len(ids)
    if k == 0:
        return 0
    rank = 0
    r = k
    v = binomial(m - 1, r)
    for i in range(m - 1, -1, -1):
        if a >> ids[i] & 1:
            rank += v
            r -= 1
            if r == 0:
                break
            v = v * (r + 1) // (i - r) if v else binomial(i, r)
        if i > 0:
            v = v * (i - r) // i
    return rank


def scan_subset_unrank(rank, pool, size):
    """Oracle: the inverse of scan_subset_rank, by the same pool scan."""
    ids = [e for e, bit in enumerate(reversed(bin(pool))) if bit == "1"]
    m = len(ids)
    a = 0
    if size == 0:
        return a
    r = size
    v = binomial(m - 1, r)
    for i in range(m - 1, -1, -1):
        if v <= rank:
            rank -= v
            a |= 1 << ids[i]
            r -= 1
            if r == 0:
                break
            v = v * (r + 1) // (i - r) if v else binomial(i, r)
        if i > 0:
            v = v * (i - r) // i
    return a


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 5000), st.integers(0, 3), st.booleans())
def test_subset_codec_matches_the_pool_scan(rng, top, thin, dense):
    # pools with ids up to 5000, one to four random words ANDed (density
    # 1/2 .. 1/16), subsets of at most 16 members or about half the pool
    pool = rng.getrandbits(top)
    for _ in range(thin):
        pool &= rng.getrandbits(top)
    pool |= 1 << top
    ids = [e for e in range(top + 1) if pool >> e & 1]
    m = len(ids)
    k = min(m, max(0, m // 2 + rng.randint(-2, 2))) if dense else rng.randint(0, min(m, 16))
    a = mask_of(rng.sample(ids, k))
    r = subset_rank(a, pool)
    assert r == scan_subset_rank(a, pool)
    assert subset_unrank(r, pool, k) == a
    other = rng.randrange(binomial(m, k))
    assert subset_unrank(other, pool, k) == scan_subset_unrank(other, pool, k)


def test_subset_codec_edges_match_the_pool_scan():
    rng = random.Random(17)
    for pool in (mask_of((3, 17, 64, 65, 900, 4999)), rng.getrandbits(5000) | 1):
        ids = [e for e in range(pool.bit_length()) if pool >> e & 1]
        m = len(ids)
        for k in sorted({0, 1, 2, 3, m // 2, m - 1, m}):
            lowest, highest = mask_of(ids[:k]), mask_of(ids[m - k :])
            last = binomial(m, k) - 1
            # the lowest positions: every C(c_j, j) is 0
            assert subset_rank(lowest, pool) == scan_subset_rank(lowest, pool) == 0
            assert subset_rank(highest, pool) == scan_subset_rank(highest, pool) == last
            assert subset_unrank(0, pool, k) == lowest
            assert subset_unrank(last, pool, k) == highest
            if 0 < k < m:
                # members on the lowest positions, then one far up: the
                # binomial after a run of zeros
                a = mask_of(ids[: k - 1] + [ids[-1]])
                assert subset_rank(a, pool) == scan_subset_rank(a, pool) == binomial(m - 1, k)
                assert subset_unrank(binomial(m - 1, k), pool, k) == a
    one = 1 << 4321
    assert subset_rank(0, one) == subset_rank(one, one) == 0
    assert subset_unrank(0, one, 0) == 0 and subset_unrank(0, one, 1) == one
    with pytest.raises(CodecError):
        subset_unrank(1, one, 1)
    assert subset_rank(0, 0) == 0 and subset_unrank(0, 0, 0) == 0


def test_unrankers_reject_negative_masks():
    # a negative int has no lowest or highest member to stop at
    for mask in (-1, -(1 << 70)):
        with pytest.raises(CodecError):
            perm_unrank(0, mask)
    with pytest.raises(CodecError):
        subset_unrank(0, -1, 1)


BOUNDARY_POOLS = (
    # members on both sides of every byte boundary: ids 8j-1 and 8j
    mask_of(x for j in range(1, 13) for x in (8 * j - 1, 8 * j)),
    # a run of full 0xFF bytes between sparse members
    mask_of((2, 5)) | mask_of(range(16, 72)) | mask_of((75, 101)),
    # a dense low part, then zero bytes, then a lone member in the top byte
    mask_of(range(0, 40, 3)) | 1 << 1001,
    # ids past 2**16, on and off byte boundaries
    mask_of((7, 65535, 65536, 65537, 65543, 65544, 70000, 70007, 70008, 100_001)),
)


def test_subset_unrank_at_binomial_boundaries_matches_the_pool_scan():
    # ranks C(c, r) - 1 and C(c, r) for subset sizes 1, 2 and 3 (the closed
    # forms and the smallest seeded search) and larger sizes: the last rank
    # whose top member sits at position c-1, and the first at c
    for pool in BOUNDARY_POOLS:
        m = pool.bit_count()
        for size in sorted({1, 2, 3, 8, m // 2, m - 1, m} & set(range(1, m + 1))):
            for c in range(size, m):
                for rank in (binomial(c, size) - 1, binomial(c, size)):
                    got = subset_unrank(rank, pool, size)
                    assert got == scan_subset_unrank(rank, pool, size)
                    assert subset_rank(got, pool) == rank
            last = binomial(m, size) - 1
            assert subset_unrank(last, pool, size) == scan_subset_unrank(last, pool, size)
            with pytest.raises(CodecError):
                subset_unrank(last + 1, pool, size)


def test_subset_codec_dense_round_trip_at_m4096_k2048():
    rng = random.Random(23)
    pool = mask_of(rng.sample(range(8192), 4096))
    ids = [e for e in range(8192) if pool >> e & 1]
    a = mask_of(rng.sample(ids, 2048))
    r = subset_rank(a, pool)
    assert r == scan_subset_rank(a, pool)
    assert subset_unrank(r, pool, 2048) == a


def test_perm_unrank_over_sparse_high_id_masks():
    rng = random.Random(19)
    for ids in ((10_000,), (4095, 4096, 8191), (1 << 16, (1 << 16) + 1, 70_000)):
        mask = mask_of(ids)
        assert perm_unrank(0, mask) == ids
        assert perm_unrank(math.factorial(len(ids)) - 1, mask) == ids[::-1]
    for _ in range(100):
        p = rng.sample(range(4000, 20_000), rng.randint(1, 20))
        assert perm_unrank(perm_rank(p), mask_of(p)) == tuple(p)


# sha256 of both BACKWARD epoch streams of an n=4096 random-labels run, as
# the O(|pool|) pool scan wrote them: the ranks are colex numbers whichever
# way they are computed.
N4096_STREAMS_SHA256 = "8a2c1286304982011d1c9976c5c5e90ccccf4d5b26295378761d6b8691a0dc7d"


def test_n4096_accounting_round_trip_keeps_its_streams():
    gen = GeneratorSpec(family="random-labels", n=4096, dim=2, seed=1)
    cfg = RunConfig(generator=gen, batch_size=16, step_raw=1 << 13, eps=Fraction(1, 4),
                    progress_coeff=Fraction(4), seed=1, max_epochs=2, grid=GridSpec())
    run = run_training(cfg)
    digest = hashlib.sha256()
    for tr in run.completed_traces:
        code = encode_epoch(tr, run.dataset, cfg, mode=ACCOUNTING)
        assert code.case == BACKWARD
        digest.update(code.stream.to_bytes())
        dec = decode_epoch(code, run.dataset, cfg, SideInfo.of(ACCOUNTING, tr.checkpoints))
        assert dec.order == tuple(tr.order)
    assert len(run.completed_traces) == 2
    assert digest.hexdigest() == N4096_STREAMS_SHA256


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
