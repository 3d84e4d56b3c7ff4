"""Exact combinatorial codes over big integers.

Three primitives: a MSB-first bit stream with fixed-width integer fields, a
colexicographic subset rank/unrank pair, and a Lehmer-code permutation
rank/unrank pair.  On top of those sits a conditional set codec that splits a
subset by a shared binary classifier and transmits the two halves separately;
when the classifier correlates with membership the combined width drops below
the unconditional subset code.

Every set is an int bitmask over element ids (bit e set iff e is in the
set): subsets, their pools and the classifier alike, so the set algebra is
``&``, ``|`` and ``^``, and a set has no order to check.  Subset rank
costs one masked popcount per member; unrank costs O(k) exact big-integer
steps for k members plus one downward walk of the pool's bytes, which maps
positions to ids and never lists the pool's ids.  ``decode_ordered_set``
decodes a conditional subset and its order straight to ids, with no mask
built or listed.  Subset codes of at most ``_TABLE_MEMBERS`` members from
pools of at most ``_TABLE_POOL`` ids read their binomials from one
process-wide Pascal table; larger codes step from one binomial to the next
by exact ratios.  Both paths give the same integers.

The set encoder returns (value, width) fields, which ``epoch_codec.encode_epoch``
writes.  All widths are exact: a rank r of a space with N codewords gets
ceil(log2(N)) bits.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
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


# _PASCAL[r][c] = C(c, r).  It grows by appending, to the largest code read
# so far, and so never past _TABLE_MEMBERS + 1 rows of _TABLE_POOL columns.
_TABLE_MEMBERS = 32
_TABLE_POOL = 1024
_PASCAL: list[list[int]] = []


def _pascal(k: int, m: int) -> list[list[int]]:
    """The Pascal table, grown to hold C(c, r) for r <= k and c < m, for
    1 <= k <= _TABLE_MEMBERS and 1 <= m <= _TABLE_POOL."""
    table = _PASCAL
    if not table:
        table.append([1] * m)
    w = len(table[0])
    if w < m:
        # C(c, r) = C(w-1, r) + C(w-1, r-1) + ... + C(c-1, r-1) for c >= w
        table[0] += [1] * (m - w)
        for r in range(1, len(table)):
            acc = itertools.accumulate(table[r - 1][w - 1 : m - 1], initial=table[r][-1])
            table[r] += itertools.islice(acc, 1, None)
    while len(table) <= k:
        # C(c, r) = C(0, r-1) + ... + C(c-1, r-1)
        table.append(list(itertools.accumulate(table[-1][:-1], initial=0)))
    return table


def subset_rank(a: int, pool: int) -> int:
    """Colexicographic rank of subset mask ``a`` within ``pool``, in
    [0, C(|pool|, |a|)): the sum of C(c_j, j) over the members of ``a`` in
    ascending order, c_j the j-th member's position in the pool (j from 1).

    The empty subset and the |a| lowest ids of the pool both rank 0.  Small
    codes read each C(c_j, j) from the Pascal table.  Larger ones run in
    O(|a|) big-integer steps: each binomial is the previous one times a ratio
    of two short products, or one ``math.comb`` after a gap of j or more.
    """
    if pool < 0 or a & ~pool:
        raise CodecError("subset holds ids outside the pool")
    k, m = a.bit_count(), pool.bit_count()
    if 0 < k <= _TABLE_MEMBERS and m <= _TABLE_POOL:
        table = _pascal(k, m)
        rank, j = 0, 0
        while a:
            low = a & -a
            a ^= low
            j += 1
            rank += table[j][(pool & (low - 1)).bit_count()]
        return rank
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
    7.2.1.3).  Small codes find c by one bisection of the Pascal table's row
    r below the previous member's position.  In larger ones, for r >= 3, c is
    up to r ratio steps down from the previous member's position, then a
    search seeded by the inverse of C(c, r) ~ (c - (r-1)/2)^r / r!; r = 2 and
    r = 1 have closed forms.  The positions map to their ids in one downward
    walk of the pool (``_select``), so the cost is O(size) big-integer steps
    plus that walk, however many ids the pool holds.
    """
    if pool < 0:
        raise CodecError("a set mask cannot be negative")
    m = pool.bit_count()
    if size < 0 or size > m:
        raise CodecError(f"subset size {size} invalid for pool of {m}")
    total = math.comb(m, size)
    _check_rank(rank, total)
    return _unrank(rank, pool, m, size, total, as_mask=True)


def _check_rank(rank: int, total: int) -> None:
    if rank < 0 or rank >= total:
        raise CodecError(f"rank {rank} outside [0, {total})")


def _unrank(
    rank: int, pool: int, m: int, size: int, total: int, as_mask: bool = False
) -> list[int] | int:
    """``subset_unrank``'s subset as its ids, descending, or as its mask, for
    a checked rank of the ``size``-subsets of the m-member pool, of which
    there are ``total``."""
    if size == 0:
        return 0 if as_mask else []
    positions = []
    if size <= _TABLE_MEMBERS and m <= _TABLE_POOL:
        table, c = _pascal(size, m), m
        for r in range(size, 0, -1):
            # C(r-1, r) = 0 <= rank, so c lands in [r-1, c-1]
            row = table[r]
            c = bisect_right(row, rank, r, c) - 1
            rank -= row[c]
            positions.append(c)
        return _select(pool, m, positions, as_mask)
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
    return _select(pool, m, positions, as_mask)


def _select(
    pool: int, m: int, positions: list[int], as_mask: bool = False
) -> list[int] | int:
    """The ids of the pool's m members at these positions, given descending,
    or the mask of those members.

    One downward walk over the pool's bytes, each position's bit read from a
    256-entry table.  No step counts the pool below the last position.
    """
    data = pool.to_bytes((pool.bit_length() + 7) // 8, "little")
    counts = data.translate(_BYTE_COUNTS)
    i, base = len(data), m  # base: the members below byte i
    out = bytearray(len(data)) if as_mask else []
    for c in positions:
        if c < base:
            while base > c:
                i -= 1
                base -= counts[i]
            ids = _BYTE_IDS[data[i]]
        if as_mask:
            out[i] |= 1 << ids[c - base]
        else:
            out.append(8 * i + ids[c - base])
    return int.from_bytes(out, "little") if as_mask else out


def perm_rank(order: Sequence[int]) -> int:
    """Lehmer-code rank of ``order`` among the orderings of its own ids, in [0, k!)."""
    remaining = sorted(order)
    if len(set(remaining)) != len(remaining):
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
    return _order(rank, remaining)


def _order(rank: int, remaining: list[int]) -> tuple[int, ...]:
    """``perm_unrank`` of the ids ``remaining``, given ascending (it empties
    the list): its k Lehmer digits, read off ``rank``, pick the ids in turn."""
    k = len(remaining)
    digits = []
    for radix in range(1, k + 1):
        digits.append(rank % radix)
        rank //= radix
    if rank:
        raise CodecError(f"rank outside [0, {k}!)")
    return tuple(map(remaining.pop, reversed(digits)))


def encode_set_conditional(a: int, pool: int, ones: int) -> tuple[tuple[int, int], ...]:
    """Subset mask ``a`` of ``pool``, coded with the classifier mask ``ones``
    as shared side information, as three (value, width) fields: |A & ones|
    and |A & ~ones| as one field, each in ceil(log2(|A|+1)) bits, then the
    colex rank of each half within the same half of the pool, each in its
    exact ceil(log2 C(...)) width.  The decoder must know the pool, ``ones``
    and |A|."""
    pool1, pool0 = pool & ones, pool & ~ones
    a1, a0 = a & ones, a & ~ones
    k1, k0 = a1.bit_count(), a0.bit_count()
    wh = ceil_log2(k1 + k0 + 1)
    return (
        (k1 << wh | k0, 2 * wh),
        (subset_rank(a1, pool1), ceil_log2(binomial(pool1.bit_count(), k1))),
        (subset_rank(a0, pool0), ceil_log2(binomial(pool0.bit_count(), k0))),
    )


def decode_set_conditional(
    stream: BitStream, pool: int, ones: int, size: int
) -> int:
    """Inverse of encode_set_conditional; returns the subset mask."""
    (r1, pool1, m1, n1, c1), (r0, pool0, m0, n0, c0) = _read_conditional(
        stream, pool, ones, size
    )
    half1 = _unrank(r1, pool1, m1, n1, c1, as_mask=True)
    return half1 | _unrank(r0, pool0, m0, n0, c0, as_mask=True)


def decode_ordered_set(
    stream: BitStream, pool: int, ones: int, size: int, order_bits: int
) -> tuple[int, ...]:
    """``decode_set_conditional``, then the set's order from the next
    ``order_bits``-bit field as ``perm_unrank`` reads it, decoded straight to
    ids: each half's positions map to ids, and their union, sorted, to the
    order, with no mask built or listed on the way."""
    (r1, pool1, m1, n1, c1), (r0, pool0, m0, n0, c0) = _read_conditional(
        stream, pool, ones, size
    )
    ids = _unrank(r1, pool1, m1, n1, c1) + _unrank(r0, pool0, m0, n0, c0)
    ids.sort()
    return _order(stream.read_uint(order_bits), ids)


def _read_conditional(stream: BitStream, pool: int, ones: int, size: int):
    """The two halves of an encode_set_conditional code, each as (rank, pool
    half, its size, the subset's size, the count of such subsets), checked
    as ``decode_set_conditional`` always checked them: the headers add up to
    ``size`` and each fits its half, then each half is a mask and its rank
    fits its count.  The two headers are read as one field, as are the two
    ranks."""
    pool1, pool0 = pool & ones, pool & ~ones
    wh = ceil_log2(size + 1)
    heads = stream.read_uint(2 * wh)
    n1, n0 = heads >> wh, heads & ((1 << wh) - 1)
    if n1 + n0 != size:
        raise CodecError(f"size headers {n1}+{n0} != {size}")
    m1, m0 = pool1.bit_count(), pool0.bit_count()
    if n1 > m1 or n0 > m0:
        raise CodecError("size header exceeds pool half")
    c1, c0 = math.comb(m1, n1), math.comb(m0, n0)
    w0 = (c0 - 1).bit_length()  # ceil_log2(c0)
    ranks = stream.read_uint((c1 - 1).bit_length() + w0)
    r1, r0 = ranks >> w0, ranks & ((1 << w0) - 1)
    if pool < 0 or r1 >= c1 or r0 >= c0:  # each half as subset_unrank checks it
        for rank, half, total in ((r1, pool1, c1), (r0, pool0, c0)):
            if half < 0:
                raise CodecError("a set mask cannot be negative")
            _check_rank(rank, total)
    return (r1, pool1, m1, n1, c1), (r0, pool0, m0, n0, c0)
