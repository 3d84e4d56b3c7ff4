"""Exact combinatorial codes over big integers.

Three primitives: a MSB-first bit stream with fixed-width integer fields, a
colexicographic subset rank/unrank pair, and a Lehmer-code permutation
rank/unrank pair.  On top of those sits a conditional set codec that splits a
subset by a shared binary classifier and transmits the two halves separately;
when the classifier correlates with membership the combined width drops below
the unconditional subset code.

All widths are exact: a rank r of a space with N codewords is written in
ceil(log2(N)) bits, and stream length always equals the sum of declared
widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .numerics import DomainError, binary_entropy


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

    def copy(self) -> "BitStream":
        out = BitStream()
        out._acc = self._acc
        out._len = self._len
        return out

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
            out._acc = int.from_bytes(payload, "big") >> (len(payload) * 8 - bits)
        out._len = bits
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitStream):
            return NotImplemented
        return self._len == other._len and self._acc == other._acc

    def __repr__(self) -> str:
        return f"BitStream(len={self._len})"


def _check_sorted_unique(ids: Sequence[int], name: str) -> None:
    for a, b in zip(ids, ids[1:]):
        if a >= b:
            raise CodecError(f"{name} must be strictly increasing")


def subset_rank(a_ids: Sequence[int], b_ids: Sequence[int]) -> int:
    """Colexicographic rank of subset A within sorted pool B, in [0, C(|B|, |A|)).

    The empty subset and A = first |A| elements of B both rank 0.  Runs in
    O(|B|) big-integer operations via incremental binomial updates.
    """
    _check_sorted_unique(b_ids, "pool")
    _check_sorted_unique(a_ids, "subset")
    pos_of = {e: i for i, e in enumerate(b_ids)}
    try:
        positions = [pos_of[e] for e in a_ids]
    except KeyError as exc:
        raise CodecError(f"element {exc.args[0]} not in pool") from exc
    k = len(positions)
    m = len(b_ids)
    if k == 0:
        return 0
    rank = 0
    want = set(positions)
    r = k
    v = binomial(m - 1, r)
    # Scan positions from the top; rank accumulates C(position, index-within-A).
    for i in range(m - 1, -1, -1):
        if i in want:
            rank += v
            r -= 1
            if r == 0:
                break
            # C(i, r) from C(i, r+1); ratio form needs the old value nonzero.
            v = v * (r + 1) // (i - r) if v else binomial(i, r)
        if i > 0:
            # C(i-1, r) = C(i, r) * (i - r) / i
            v = v * (i - r) // i
    return rank


def subset_unrank(rank: int, b_ids: Sequence[int], size: int) -> tuple[int, ...]:
    """Inverse of subset_rank."""
    _check_sorted_unique(b_ids, "pool")
    m = len(b_ids)
    if size < 0 or size > m:
        raise CodecError(f"subset size {size} invalid for pool of {m}")
    total = binomial(m, size)
    if rank < 0 or rank >= total:
        raise CodecError(f"rank {rank} outside [0, {total})")
    if size == 0:
        return ()
    positions = []
    r = size
    v = binomial(m - 1, r)
    for i in range(m - 1, -1, -1):
        if v <= rank:
            rank -= v
            positions.append(i)
            r -= 1
            if r == 0:
                break
            v = v * (r + 1) // (i - r) if v else binomial(i, r)
        if i > 0:
            v = v * (i - r) // i
    positions.reverse()
    return tuple(b_ids[p] for p in positions)


def perm_rank(order: Sequence[int], base_ids: Sequence[int]) -> int:
    """Lehmer-code rank of ``order`` as a permutation of sorted ``base_ids``, in [0, k!)."""
    _check_sorted_unique(base_ids, "base")
    if sorted(order) != list(base_ids):
        raise CodecError("order is not a permutation of the base ids")
    k = len(order)
    index_of = {e: i for i, e in enumerate(base_ids)}
    seq = [index_of[e] for e in order]
    rank = 0
    fact = math.factorial(k - 1) if k else 1
    remaining = list(range(k))
    for pos, s in enumerate(seq):
        smaller = remaining.index(s)
        rank += smaller * fact
        remaining.pop(smaller)
        if k - pos - 1 > 0:
            fact //= k - pos - 1
    return rank


def perm_unrank(rank: int, base_ids: Sequence[int]) -> tuple[int, ...]:
    """Inverse of perm_rank."""
    _check_sorted_unique(base_ids, "base")
    k = len(base_ids)
    total = math.factorial(k)
    if rank < 0 or rank >= total:
        raise CodecError(f"rank {rank} outside [0, {total})")
    remaining = list(base_ids)
    out = []
    fact = math.factorial(k - 1) if k else 1
    for pos in range(k):
        idx, rank = divmod(rank, fact)
        out.append(remaining.pop(idx))
        if k - pos - 1 > 0:
            fact //= k - pos - 1
    return tuple(out)


def _split_by_classifier(
    b_ids: Sequence[int], g: Callable[[int], int]
) -> tuple[list[int], list[int]]:
    """Pool B partitioned by a binary classifier: (ones, zeros), each ascending."""
    _check_sorted_unique(b_ids, "pool")
    ones, zeros = [], []
    for e in b_ids:
        (ones if g(e) else zeros).append(e)
    return ones, zeros


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
    stream: BitStream,
    a_ids: Sequence[int],
    b_ids: Sequence[int],
    g: Callable[[int], int],
) -> SetCodeInfo:
    """Encode subset A of pool B using classifier g as shared side information.

    Layout: |A intersect ones| and |A intersect zeros|, each in
    ceil(log2(|A|+1)) bits, then the colex rank of each half within its pool
    half, each in its exact ceil(log2 C(...)) width.  The decoder must know B,
    g and |A|.
    """
    ones, zeros = _split_by_classifier(b_ids, g)
    ones_set = set(ones)
    a1 = tuple(e for e in a_ids if e in ones_set)
    a0 = tuple(e for e in a_ids if e not in ones_set)
    if len(a1) + len(a0) != len(a_ids):
        raise CodecError("subset ids not distinct")
    wh = ceil_log2(len(a_ids) + 1)
    r1 = subset_rank(a1, ones)
    r0 = subset_rank(a0, zeros)
    w1 = ceil_log2(binomial(len(ones), len(a1)))
    w0 = ceil_log2(binomial(len(zeros), len(a0)))
    stream.write_uint(len(a1), wh)
    stream.write_uint(len(a0), wh)
    stream.write_uint(r1, w1)
    stream.write_uint(r0, w0)
    return SetCodeInfo(size_header_bits=wh, rank_ones_bits=w1, rank_zeros_bits=w0)


def decode_set_conditional(
    stream: BitStream,
    b_ids: Sequence[int],
    g: Callable[[int], int],
    size: int,
) -> tuple[int, ...]:
    """Inverse of encode_set_conditional; returns the subset in ascending id order."""
    ones, zeros = _split_by_classifier(b_ids, g)
    wh = ceil_log2(size + 1)
    n1 = stream.read_uint(wh)
    n0 = stream.read_uint(wh)
    if n1 + n0 != size:
        raise CodecError(f"size headers {n1}+{n0} != {size}")
    if n1 > len(ones) or n0 > len(zeros):
        raise CodecError("size header exceeds pool half")
    w1 = ceil_log2(binomial(len(ones), n1))
    w0 = ceil_log2(binomial(len(zeros), n0))
    r1 = stream.read_uint(w1)
    r0 = stream.read_uint(w0)
    a1 = subset_unrank(r1, ones, n1)
    a0 = subset_unrank(r0, zeros, n0)
    return tuple(sorted(a1 + a0))


def theoretical_set_bound(
    m: int,
    pick_fraction: Fraction,
    pool_rate: Fraction,
    picked_rate: Fraction,
) -> float:
    """Width bound m*h(gamma) - 2*gamma*m*(pool_rate - picked_rate)^2 in bits.

    ``pick_fraction`` is |A|/|B|, ``pool_rate`` the classifier's positive rate
    on B, ``picked_rate`` its positive rate on A.  Requires the split to be
    realizable: picked_rate*gamma <= pool_rate and
    (1-picked_rate)*gamma <= 1-pool_rate.
    """
    g = Fraction(pick_fraction)
    q = Fraction(pool_rate)
    p = Fraction(picked_rate)
    if m < 0:
        raise DomainError("m must be nonnegative")
    for v, name in ((g, "pick_fraction"), (q, "pool_rate"), (p, "picked_rate")):
        if v < 0 or v > 1:
            raise DomainError(f"{name}={v} outside [0, 1]")
    if p * g > q or (1 - p) * g > 1 - q:
        raise DomainError("split not realizable for these rates")
    gap = q - p
    return m * binary_entropy(g) - 2.0 * float(g) * m * float(gap) * float(gap)
