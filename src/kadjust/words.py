"""Binary words and the empirical tallies derived from them.

A BitWord is an immutable sequence of 0/1 symbols held as packed words:
64 columns to a uint64, most-significant bit first, the order in which
np.packbits fills a byte, so that column i is bit 63 - i % 64 of word
i // 64 and the bits past the last column are zero.  A raw or hex payload
is in that order already, so BitWord.from_bytes makes its words with one
byte swap, at 1/8 byte a bit; a word built from a 0/1 array is packed
when it is built, and the array is not kept.  n, the weight (a popcount),
equality, hashing, prefixes and single bits read the packed words.  The 0/1
view (bits, tolist(), np.asarray(word); one byte a bit) is unpacked afresh.

packed_rows packs every row of a 0/1 matrix in that layout, one row of
words per row.  PackedRows, such a matrix with its column count, is all
the length kernels (coders) read: PackedRows.of, the one place a 0/1
matrix is checked and packed, makes it of any source, and its columns()
slices it at a multiple of 64 columns.  Everything downstream consumes a
BitWord, a PackedRows or one of the tallies defined here: aligned-pair
counts for a pair of words.  prefix_ones is the one prefix popcount: the
ones of every row's first j columns at any cuts j, which the length
kernels and stats.adjusted_prefixes read, and block_ones its form for
the 2-bit blocks of every packed row.  as_bits is the package's one
check that an array holds only 0/1 values.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


def as_bits(values) -> np.ndarray:
    """values as a uint8 array, or ValueError if an entry is not the
    integer 0 or 1.  uint8 and bool arrays are not copied; anything else is
    checked before the uint8 cast, which would truncate floats and wrap
    negative or large integers."""
    bits = values if isinstance(values, np.ndarray) else np.asarray(values)
    char = bits.dtype.char  # "?" for bool, "B" for uint8; cheaper than comparing dtypes
    if char == "?":
        return bits.view(np.uint8)
    if char == "B":
        # translate costs about 1 ns a byte, max a flat 2 us
        if bits.size > 2048:
            bad = bits.max() > 1
        else:
            bad = bits.tobytes().translate(None, b"\x00\x01")
    else:
        bad = bits.size and (bits.dtype.kind not in "iu" or bits.min() < 0 or bits.max() > 1)
    if bad:
        raise ValueError("bits must be integers 0 or 1")
    return bits if char == "B" else bits.astype(np.uint8)


def _native(packed: np.ndarray) -> np.ndarray:
    """uint8 packed bytes, a multiple of 8 of them, as native uint64 words
    whose most-significant bit is the first: one byte swap, in place."""
    words = packed.view(np.uint64)
    return words.byteswap(inplace=True) if sys.byteorder == "little" else words


# _LEADING[j]: the mask of a packed word's first j columns, j = 0 .. 64.
_LEADING = np.array([((1 << j) - 1) << (64 - j) for j in range(65)], dtype=np.uint64)


def packed_rows(bits: np.ndarray) -> np.ndarray:
    """(rows, words) uint64: every row of a 0/1 uint8 matrix packed 64 bits
    to a word, most-significant bit first, so that column i of a row is
    bit 63 - i % 64 of its word i // 64, in the fewest words that hold a
    row, the last word's unused bits zero.  A single row is packed as it
    is; many rows by np.packbits(axis=1), into a zeroed buffer of words."""
    m, n = bits.shape
    words = -(-n // 64)
    if m == 1:
        packed = np.zeros(8 * words, dtype=np.uint8)
        packed[: -(-n // 8)] = np.packbits(bits)
    else:
        packed = np.zeros((m, 8 * words), dtype=np.uint8)
        packed[:, : -(-n // 8)] = np.packbits(bits, axis=1)
    return _native(packed).reshape(m, words)


def unpacked(words: np.ndarray, n: int) -> np.ndarray:
    """The first n columns of packed words, of any shape read in order, as
    a uint8 0/1 array."""
    return np.unpackbits(words.astype(">u8").reshape(-1).view(np.uint8), count=n)


class PackedRows:
    """Rows of n columns packed as packed_rows packs them: words[rows,
    ceil(n / 64)], the bits past column n zero.  The words may be a
    read-only view, and nothing writes them."""

    __slots__ = ("words", "n")

    def __init__(self, words: np.ndarray, n: int):
        self.words = words
        self.n = n

    @classmethod
    def of(cls, source) -> "PackedRows":
        """The rows the length kernels read of source, which must hold at
        least one row and one column: a BitWord as its one row, its words
        not copied; packed rows as they are; anything else checked as a 0/1
        matrix (as_bits), and packed."""
        if isinstance(source, BitWord):
            return cls(source.packed[None], source.n)
        packed = isinstance(source, PackedRows)
        bits = source if packed else np.asarray(source)
        if len(bits.shape) != 2 or min(bits.shape) < 1:
            raise ValueError("bits must be a matrix of at least one row and one column")
        return source if packed else cls(packed_rows(as_bits(bits)), bits.shape[1])

    def __len__(self) -> int:
        return len(self.words)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.words), self.n

    def columns(self, start: int, stop: int) -> "PackedRows":
        """The columns start .. stop - 1 of every row, start a multiple of
        64: a slice of the words, the last word masked where stop falls
        inside it before the rows end."""
        if start == 0 and stop == self.n:
            return self
        width = stop - start
        words = self.words[:, start // 64 : -(-stop // 64)]
        if width % 64 and stop < self.n:  # the columns past stop may be set
            words = words.copy()
            words[:, -1] &= _LEADING[width % 64]
        return PackedRows(words, width)


class BitWord:
    """Immutable finite binary word of length >= 1, held as its packed
    words (see the module docstring)."""

    __slots__ = ("_n", "_packed")

    def __init__(self, bits: Iterable[int] | np.ndarray):
        bits = as_bits(bits)
        if bits.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if bits.size == 0:
            raise ValueError("a word must contain at least one bit")
        self._n = bits.size
        self._packed = packed_rows(bits[None])[0]
        self._packed.setflags(write=False)

    @classmethod
    def _from_packed(cls, packed: np.ndarray, n: int) -> "BitWord":
        """The word of the first n >= 1 columns of one row of packed words,
        whose bits past n are zero: made read-only, but not copied."""
        word = cls.__new__(cls)
        packed.setflags(write=False)
        word._n, word._packed = n, packed
        return word

    @classmethod
    def from01(cls, text: str) -> "BitWord":
        """Build a word from a string of '0'/'1' characters.  Any other
        ASCII character becomes a byte other than 0 or 1, which as_bits
        rejects; a non-ASCII one raises UnicodeEncodeError, a ValueError."""
        if not text:
            raise ValueError("expected a nonempty string over {0,1}")
        return cls(np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0"))

    @classmethod
    def from_uint(cls, value: int, n: int) -> "BitWord":
        """Word of length n whose bits are the big-endian binary digits of value."""
        if n < 1 or value < 0 or value >= (1 << n):
            raise ValueError("value out of range for word length")
        data = (value << -n % 64).to_bytes(-(-n // 64) * 8, "big")
        return cls._from_packed(np.frombuffer(data, dtype=">u8").astype(np.uint64), n)

    @classmethod
    def from_bytes(cls, data: bytes, n: int) -> "BitWord":
        """The word of the first n bits of data, each byte most-significant
        bit first, packed without unpacking."""
        if not 1 <= n <= 8 * len(data):
            raise ValueError(f"a word of {n} bits does not fit {len(data)} bytes")
        data = data[: -(-n // 8)]  # a short word does not copy the whole payload
        packed = np.zeros(8 * -(-len(data) // 8), dtype=np.uint8)
        packed[: len(data)] = np.frombuffer(data, dtype=np.uint8)
        words = _native(packed)
        words[-1] &= _LEADING[n % 64 or 64]
        return cls._from_packed(words, n)

    @property
    def packed(self) -> np.ndarray:
        """The packed words, read-only."""
        return self._packed

    @property
    def bits(self) -> np.ndarray:
        """The 0/1 view, one uint8 a bit, unpacked on each call, read-only."""
        bits = unpacked(self._packed, self._n)
        bits.setflags(write=False)
        return bits

    @property
    def n(self) -> int:
        return self._n

    @property
    def weight(self) -> int:
        return int(np.bitwise_count(self._packed).sum())

    def prefix(self, m: int) -> "BitWord":
        if not 1 <= m <= self._n:
            raise ValueError("prefix length out of range")
        words = PackedRows(self._packed[None], self._n).columns(0, m).words[0]
        return BitWord._from_packed(words.copy(), m)  # a short prefix does not pin the word

    def to01(self) -> str:
        return self.bits.tobytes().translate(bytes.maketrans(b"\x00\x01", b"01")).decode("ascii")

    def tolist(self) -> list[int]:
        return self.bits.tolist()

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.bits if dtype is None else self.bits.astype(dtype)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> int:
        i = range(self._n)[i]  # a Python int in range, as a list takes its index
        return int(self._packed[i // 64]) >> (63 - i % 64) & 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitWord):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._packed, other._packed)

    def __hash__(self) -> int:
        return hash((self._n, self._packed.tobytes()))

    def __repr__(self) -> str:
        s = self.prefix(min(self._n, 64)).to01()
        if self._n > 64:
            s = s[:61] + "..."
        return f"BitWord({s!r}, n={self.n})"


@dataclass(frozen=True)
class PairCounts:
    """Aligned-pair tallies for equal-length words x, y.

    c_ab counts positions i with x_i = a and y_i = b.
    """

    c00: int
    c01: int
    c10: int
    c11: int

    def __post_init__(self):
        if min(self.c00, self.c01, self.c10, self.c11) < 0:
            raise ValueError("counts must be nonnegative")
        if self.n < 1:
            raise ValueError("total count must be positive")

    @classmethod
    def from_words(cls, x: BitWord, y: BitWord) -> "PairCounts":
        if x.n != y.n:
            raise ValueError(f"length mismatch: {x.n} vs {y.n}")
        c11 = int(np.bitwise_count(x.packed & y.packed).sum())
        wx, wy = x.weight, y.weight
        return cls(x.n - wx - wy + c11, wy - c11, wx - c11, c11)

    @property
    def n(self) -> int:
        return self.c00 + self.c01 + self.c10 + self.c11


# In a packed word the columns at even positions of the row, the first
# bits of 2-bit blocks, take the mask 0xAA of every byte, those at odd
# positions 0x55.
_FIRST = np.uint64(0xAAAAAAAAAAAAAAAA)
_SECOND = np.uint64(0x5555555555555555)


def prefix_ones(words: np.ndarray, n: int, cuts) -> np.ndarray:
    """(..., len(cuts)): the ones among the first j columns of packed words,
    for each j in cuts, 0 <= j <= n, a row's words along the last axis, as
    many as hold n columns, and its bits past column n zero: the popcounts
    of the row's first j // 64 words, summed, plus those of the top j % 64
    bits of the next.  One cut takes one sum of popcounts, of every word at
    j = n; several take the sums of the words between consecutive cuts
    (np.add.reduceat), added up from the left.  int32 while a row's count
    fits, as the sums run about twice as fast as in int64; int64 past 2^31
    columns."""
    dtype = np.int32 if words.shape[-1] < 1 << 25 else np.int64
    if len(cuts) == 1:
        if cuts[0] == n:
            return np.add.reduce(np.bitwise_count(words), -1, dtype, keepdims=True)
        whole, tail = divmod(int(cuts[0]), 64)
        ones = np.add.reduce(np.bitwise_count(words[..., :whole]), -1, dtype, keepdims=True)
        if tail:
            ones += np.bitwise_count(words[..., whole : whole + 1] >> np.uint64(64 - tail))
        return ones
    whole, tail = np.divmod(np.asarray(cuts, dtype=np.int64), 64)
    bounds = sorted(set(whole.tolist()) - {0})  # the ends of the runs of whole words summed
    sums = np.zeros(words.shape[:-1] + (len(bounds) + 1,), dtype=dtype)
    if bounds:
        counts = np.bitwise_count(words[..., : bounds[-1]])
        segments = np.add.reduceat(counts, [0] + bounds[:-1], axis=-1, dtype=dtype)
        np.cumsum(segments, axis=-1, out=sums[..., 1:])
    # a shift by 64 gives 0 in numpy, so a cut at a word's start adds none
    head = words[..., np.minimum(whole, words.shape[-1] - 1)] >> (64 - tail).astype(np.uint64)
    return sums[..., np.searchsorted(bounds, whole, side="right")] + np.bitwise_count(head)


def block_ones(words: np.ndarray, n: int, cuts) -> np.ndarray:
    """(3, rows, len(cuts)), as prefix_ones: among the first j columns of
    every row of packed words (rows, words) whose bits past column n are
    zero, for each even j <= n in cuts, the ones at even positions (first
    bits of 2-bit blocks), the ones at odd positions and the blocks 11,
    each a prefix popcount of the packed rows under a mask."""
    masked = np.empty((3,) + words.shape, dtype=np.uint64)
    np.bitwise_and(words, _FIRST, out=masked[0])
    np.bitwise_and(words, _SECOND, out=masked[1])
    np.right_shift(words, 1, out=masked[2])  # each block's first bit onto its second
    masked[2] &= masked[1]
    return prefix_ones(masked, n, cuts)
