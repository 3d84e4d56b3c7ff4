"""Exact combinatorial codes over big integers.

Three primitives: a MSB-first bit stream with fixed-width integer fields, a
colexicographic subset rank/unrank pair, and a Lehmer-code permutation
rank/unrank pair.  On top of those sits a conditional set codec that splits a
subset by a shared binary classifier and transmits the two halves separately;
when the classifier correlates with membership the combined width drops below
the unconditional subset code.

Every set is an int bitmask over element ids (bit e set iff e is in the
set): subsets, their pools and the classifier alike, so the set algebra is
``&``, ``|`` and ``^``, and a set has no order to check.  The subset and
permutation codes cost O(k) exact big-integer steps for k members plus one
C-level pass over the bytes of the pool, and never list the pool's ids.

All widths are exact: a rank r of a space with N codewords is written in
ceil(log2(N)) bits, and stream length always equals the sum of declared
widths.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

from .numerics import DomainError


class CodecError(ValueError):
    """Malformed input to an encode/decode primitive."""


def ceil_log2(x: int) -> int:
    """Smallest w with 2**w >= x, for x >= 1."""
    if x < 1:
        raise DomainError(f"ceil_log2 needs a positive argument, got {x}")
    return (x - 1).bit_length()


def binomial(n: int, k: int) -> int:
    if n < 0 or k < 0:
        raise DomainError(f"binomial({n}, {k}) outside domain")
    if k > n:
        return 0
    return math.comb(n, k)


class BitStream:
    """Append-only bit buffer with a read cursor; MSB-first throughout."""

    def __init__(self) -> None:
        self._acc = 0
        self._len = 0
        self._cursor = 0

    def write_uint(self, value: int, width: int) -> None:
        if width < 0:
            raise CodecError("negative width")
        if value < 0 or value >> width:
            raise CodecError(f"value {value} does not fit in {width} bits")
        self._acc = (self._acc << width) | value
        self._len += width

    def read_uint(self, width: int) -> int:
        if width < 0:
            raise CodecError("negative width")
        if self._cursor + width > self._len:
            raise CodecError("read past end of stream")
        shift = self._len - self._cursor - width
        self._cursor += width
        return (self._acc >> shift) & ((1 << width) - 1)

    def reset_cursor(self) -> None:
        self._cursor = 0

    def bits_remaining(self) -> int:
        return self._len - self._cursor

    def __len__(self) -> int:
        return self._len

    def to_bytes(self) -> bytes:
        """Payload padded to a byte boundary, then one trailer byte: length mod 8."""
        nbytes = (self._len + 7) // 8
        pad = nbytes * 8 - self._len
        payload = (self._acc << pad).to_bytes(nbytes, "big") if nbytes else b""
        return payload + bytes([self._len % 8])

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitStream":
        """Inverse of ``to_bytes``; pad bits must be zero, as ``to_bytes`` writes them."""
        if len(data) < 1:
            raise CodecError("missing trailer byte")
        rem = data[-1]
        if rem > 7:
            raise CodecError(f"invalid trailer {rem}")
        payload = data[:-1]
        bits = len(payload) * 8
        if rem:
            if not payload:
                raise CodecError("trailer declares bits but payload is empty")
            bits -= 8 - rem
        out = cls()
        if payload:
            acc, pad = int.from_bytes(payload, "big"), len(payload) * 8 - bits
            if acc & ((1 << pad) - 1):
                raise CodecError("nonzero pad bits after the last payload bit")
            out._acc = acc >> pad
        out._len = bits
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitStream):
            return NotImplemented
        return self._len == other._len and self._acc == other._acc

    def __repr__(self) -> str:
        return f"BitStream(len={self._len})"


def subset_rank(a: int, pool: int) -> int:
    """Colexicographic rank of subset mask ``a`` within ``pool``, in
    [0, C(|pool|, |a|)): the sum of C(c_j, j) over the members of ``a`` in
    ascending order, c_j the j-th member's position in the pool (j from 1).

    The empty subset and the |a| lowest ids of the pool both rank 0.  Runs in
    O(|a|) big-integer steps: each binomial is the previous one times a ratio
    of two short products, or one ``math.comb`` after a gap of j or more.
    """
    if pool < 0 or a & ~pool:
        raise CodecError("subset holds ids outside the pool")
    rank, v, j, p = 0, 0, 0, -1
    while a:
        low = a & -a
        a ^= low
        c = (pool & (low - 1)).bit_count()
        j += 1
        # C(c, j) = C(p, j-1) * c!/p! * (p-j+1)!/(c-j)! / j, and v = C(p, j-1)
        # is nonzero iff p >= j-1, which keeps both products off zero
        if v and c - p < j:
            v = v * math.prod(range(p + 1, c + 1))
            v //= j * math.prod(range(p - j + 2, c - j + 1))
        else:
            v = math.comb(c, j)
        rank += v
        p = c
    return rank


def _byte_ids() -> tuple[bytes, ...]:
    """Per byte value, the offsets of its set bits, ascending."""
    ids = (b"",)
    for e in range(8):  # a value in [2**e, 2**(e+1)) is one below 2**e plus bit e
        top = bytes((e,))
        ids += tuple([low + top for low in ids])
    return ids


_BYTE_IDS = _byte_ids()
_BYTE_COUNTS = bytes(map(len, _BYTE_IDS))


def _position(rank: int, r: int, c: int) -> tuple[int, int]:
    """The largest position g < c with C(g, r) <= rank, and C(g, r), for
    r >= 3 and 0 <= rank < C(c, r).

    The guess inverts C(g, r) ~ (g - (r-1)/2)^r / r!; it only seeds the
    search, whose accept test is the exact C(g, r) <= rank < C(g+1, r).
    """
    if not rank:
        return r - 1, 0
    # C(r, r) = 1 <= rank < C(c, r), so g lies in [r, c-1]
    g = int(math.exp((math.log(rank) + math.lgamma(r + 1)) / r) + (r - 1) / 2)
    g = r if g < r else c - 1 if g >= c else g
    v = math.comb(g, r)
    if v > rank:
        while v > rank:  # C(g-1, r) = C(g, r) * (g-r) / g
            g, v = g - 1, v * (g - r) // g
        return g, v
    up = v * (g + 1) // (g + 1 - r)  # C(g+1, r)
    while up <= rank:
        g, v = g + 1, up
        up = v * (g + 1) // (g + 1 - r)
    return g, v


def subset_unrank(rank: int, pool: int, size: int) -> int:
    """Inverse of subset_rank: the mask of the ``size``-subset of ``pool``
    with this rank.

    For r = size down to 1 the r-th member sits at the largest position c
    with C(c, r) <= rank (the combinatorial number system, Knuth TAOCP 4A
    7.2.1.3).  For r >= 3 that is up to r ratio steps down from the previous
    member's position, then a search seeded by the inverse of
    C(c, r) ~ (c - (r-1)/2)^r / r!; r = 2 and r = 1 have closed forms.  Each
    position maps to its id through cumulative byte popcounts of the pool,
    built in one C-level pass, so the cost is O(size) big-integer steps plus
    that pass, however many ids the pool holds.
    """
    if pool < 0:
        raise CodecError("a set mask cannot be negative")
    m = pool.bit_count()
    if size < 0 or size > m:
        raise CodecError(f"subset size {size} invalid for pool of {m}")
    total = math.comb(m, size)
    if rank < 0 or rank >= total:
        raise CodecError(f"rank {rank} outside [0, {total})")
    if size == 0:
        return 0
    positions = []
    c, v = m - 1, total * (m - size) // m  # v = C(c, r) throughout
    for r in range(size, 2, -1):
        stop = c - r
        while v > rank and c > stop:
            c, v = c - 1, v * (c - r) // c
        if v > rank:
            c, v = _position(rank, r, c)
        rank -= v
        positions.append(c)
        c, v = c - 1, v * r // c  # C(c-1, r-1) = C(c, r) * r / c
    if size >= 2:
        c = (1 + math.isqrt(1 + 8 * rank)) // 2
        rank -= c * (c - 1) // 2
        positions.append(c)
    positions.append(rank)
    return _select(pool, positions)


def _select(pool: int, positions: list[int]) -> int:
    """The mask of the pool's members at these positions, given descending.

    One C-level pass counts the members below each byte of the pool; each
    position then finds its byte in the byte below the last one or by a
    bisect under it, and its bit in a 256-entry table.
    """
    data = pool.to_bytes((pool.bit_length() + 7) // 8, "little")
    starts = list(itertools.accumulate(data.translate(_BYTE_COUNTS), initial=0))
    out = bytearray(len(data))
    i = len(data)
    base = starts[i]
    for c in positions:
        if c < base:
            i -= 1
            if starts[i] > c:
                i = bisect_right(starts, c, 0, i) - 1
            base, ids = starts[i], _BYTE_IDS[data[i]]
        out[i] |= 1 << ids[c - base]
    return int.from_bytes(out, "little")


def perm_rank(order: Sequence[int]) -> int:
    """Lehmer-code rank of ``order`` among the orderings of its own ids, in [0, k!)."""
    remaining = sorted(order)
    if any(x == y for x, y in zip(remaining, remaining[1:])):
        raise CodecError("order repeats an id")
    rank = 0
    for e in order:
        smaller = bisect_left(remaining, e)
        rank = rank * len(remaining) + smaller
        remaining.pop(smaller)
    return rank


def perm_unrank(rank: int, ids: int) -> tuple[int, ...]:
    """Inverse of perm_rank: the ordering of the ids in mask ``ids`` with this rank.

    Lists the k ids from the mask's nonzero bytes, one C-level pass over its
    bytes plus O(k) steps, then reads the k Lehmer digits off ``rank``.
    """
    if ids < 0:
        raise CodecError("a set mask cannot be negative")
    data = ids.to_bytes((ids.bit_length() + 7) // 8, "little")
    remaining = [
        8 * i + e for i in itertools.compress(range(len(data)), data) for e in _BYTE_IDS[data[i]]
    ]
    digits = []
    for radix in range(1, len(remaining) + 1):
        digits.append(rank % radix)
        rank //= radix
    if rank:
        raise CodecError(f"rank outside [0, {len(remaining)}!)")
    digits.reverse()
    return tuple(map(remaining.pop, digits))


@dataclass(frozen=True)
class SetCodeInfo:
    """Exact widths of one conditional set encoding, for bit accounting."""

    size_header_bits: int
    rank_ones_bits: int
    rank_zeros_bits: int

    @property
    def total_bits(self) -> int:
        return 2 * self.size_header_bits + self.rank_ones_bits + self.rank_zeros_bits


def encode_set_conditional(
    stream: BitStream, a: int, pool: int, ones: int
) -> SetCodeInfo:
    """Encode subset mask ``a`` of ``pool``, with the classifier mask ``ones``
    as shared side information.

    Layout: |A & ones| and |A & ~ones|, each in ceil(log2(|A|+1)) bits, then
    the colex rank of each half within the same half of the pool, each in its
    exact ceil(log2 C(...)) width.  The decoder must know the pool, ``ones``
    and |A|.
    """
    pool1, pool0 = pool & ones, pool & ~ones
    a1, a0 = a & ones, a & ~ones
    r1, r0 = subset_rank(a1, pool1), subset_rank(a0, pool0)
    k1, k0 = a1.bit_count(), a0.bit_count()
    wh = ceil_log2(k1 + k0 + 1)
    w1 = ceil_log2(binomial(pool1.bit_count(), k1))
    w0 = ceil_log2(binomial(pool0.bit_count(), k0))
    stream.write_uint(k1, wh)
    stream.write_uint(k0, wh)
    stream.write_uint(r1, w1)
    stream.write_uint(r0, w0)
    return SetCodeInfo(size_header_bits=wh, rank_ones_bits=w1, rank_zeros_bits=w0)


def decode_set_conditional(
    stream: BitStream, pool: int, ones: int, size: int
) -> int:
    """Inverse of encode_set_conditional; returns the subset mask."""
    pool1, pool0 = pool & ones, pool & ~ones
    wh = ceil_log2(size + 1)
    n1 = stream.read_uint(wh)
    n0 = stream.read_uint(wh)
    if n1 + n0 != size:
        raise CodecError(f"size headers {n1}+{n0} != {size}")
    m1, m0 = pool1.bit_count(), pool0.bit_count()
    if n1 > m1 or n0 > m0:
        raise CodecError("size header exceeds pool half")
    r1 = stream.read_uint(ceil_log2(binomial(m1, n1)))
    r0 = stream.read_uint(ceil_log2(binomial(m0, n0)))
    return subset_unrank(r1, pool1, n1) | subset_unrank(r0, pool0, n0)

