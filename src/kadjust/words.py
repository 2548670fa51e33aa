"""Binary words and the empirical tallies derived from them.

A BitWord is an immutable sequence of 0/1 symbols.  Everything downstream
(entropy baselines, coders, tests) consumes either a BitWord or one of the
tallies defined here: aligned-pair counts for a pair of words, and the
disjoint 2-bit block counts of every row of a bit matrix (block_tallies).
as_bits (and bit_bytes, its form for bitstreams) is the package's one check
that an array holds only 0/1 values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


def as_bits(values, error: type[Exception] = ValueError) -> np.ndarray:
    """values as a uint8 array, or error raised if an entry is not the
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
        raise error("bits must be integers 0 or 1")
    return bits if char == "B" else bits.astype(np.uint8)


def bit_bytes(values, error: type[Exception] = ValueError) -> bytes:
    """The bits of a one-dimensional values, one byte each, checked as
    as_bits checks them."""
    bits = as_bits(values, error)
    if bits.ndim != 1:
        raise error("a bitstream must be one-dimensional")
    return bits.tobytes()


def _word_bits(arr: np.ndarray) -> np.ndarray:
    """arr, a uint8 array of 0/1 values, checked to hold a word and made
    read-only."""
    if arr.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    if arr.size == 0:
        raise ValueError("a word must contain at least one bit")
    arr.setflags(write=False)
    return arr


class BitWord:
    """Immutable finite binary word of length >= 1."""

    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[int] | np.ndarray):
        self._bits = _word_bits(np.array(as_bits(bits)))  # a copy the caller cannot write to

    @classmethod
    def _owning(cls, bits: np.ndarray) -> "BitWord":
        """The word of a 0/1 array the package has just built and holds no
        other reference to: checked and made read-only, but not copied."""
        word = cls.__new__(cls)
        word._bits = _word_bits(as_bits(bits))
        return word

    @classmethod
    def from01(cls, text: str) -> "BitWord":
        """Build a word from a string of '0'/'1' characters."""
        if not text or any(c not in "01" for c in text):
            raise ValueError("expected a nonempty string over {0,1}")
        return cls(np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0"))

    @classmethod
    def from_uint(cls, value: int, n: int) -> "BitWord":
        """Word of length n whose bits are the big-endian binary digits of value."""
        if n < 1 or value < 0 or value >= (1 << n):
            raise ValueError("value out of range for word length")
        return cls(np.array([(value >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.uint8))

    @property
    def bits(self) -> np.ndarray:
        return self._bits

    @property
    def n(self) -> int:
        return self._bits.size

    @property
    def weight(self) -> int:
        return int(np.count_nonzero(self._bits))

    def prefix(self, m: int) -> "BitWord":
        if not 1 <= m <= self.n:
            raise ValueError("prefix length out of range")
        return BitWord(self._bits[:m])

    def to01(self) -> str:
        return self._bits.tobytes().translate(bytes.maketrans(b"\x00\x01", b"01")).decode("ascii")

    def tolist(self) -> list[int]:
        return self._bits.tolist()

    def __len__(self) -> int:
        return self._bits.size

    def __getitem__(self, i: int) -> int:
        return int(self._bits[i])

    def __iter__(self) -> Iterator[int]:
        return iter(self._bits.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitWord):
            return NotImplemented
        return self._bits.size == other._bits.size and bool(np.all(self._bits == other._bits))

    def __hash__(self) -> int:
        return hash((self._bits.size, self._bits.tobytes()))

    def __repr__(self) -> str:
        s = self.to01()
        if len(s) > 64:
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
        cells = np.bincount(2 * x.bits.astype(np.intp) + y.bits, minlength=4)
        return cls(*(int(c) for c in cells))

    @property
    def n(self) -> int:
        return self.c00 + self.c01 + self.c10 + self.c11


def packed_rows(bits: np.ndarray) -> np.ndarray:
    """(rows, words) uint64: every row of a 0/1 uint8 matrix packed 64 bits
    to a word, least-significant bit first, so that column i of a row is
    bit i % 64 of its word i // 64, in the fewest words that hold a row,
    the last word's unused bits zero.  One row is packed as it is; many
    rows, which np.packbits(axis=1) takes one at a time, are padded to
    whole words first and packed in one call."""
    m, n = bits.shape
    words = -(-n // 64)
    if m == 1:
        packed = np.zeros(8 * words, dtype=np.uint8)
        packed[: -(-n // 8)] = np.packbits(bits, bitorder="little")
        return packed.view("<u8")[None]
    padded = np.zeros((m, 64 * words), dtype=np.uint8)
    padded[:, :n] = bits
    return np.packbits(padded, bitorder="little").view("<u8").reshape(m, words)


# In a packed word the bits at even positions of the row take the mask
# 0x55 of every byte, those at odd positions 0xAA.
_EVEN = np.uint64(0x5555555555555555)
_ODD = np.uint64(0xAAAAAAAAAAAAAAAA)


def block_tallies(bits: np.ndarray) -> np.ndarray:
    """(rows, 4) counts of the disjoint 2-bit blocks 00, 01, 10, 11 of every
    row of a 0/1 uint8 matrix, left-aligned; an odd trailing bit is left out.

    They follow from three counts per row: the ones at even positions
    (first bits of blocks), the ones at odd positions and their AND
    (blocks 11), each a popcount of the packed row under a mask.
    """
    nb = bits.shape[1] // 2
    w = packed_rows(bits[:, : 2 * nb])
    masked = np.empty((3,) + w.shape, dtype=np.uint64)
    np.bitwise_and(w, _EVEN, out=masked[0])
    np.bitwise_and(w, _ODD, out=masked[1])
    np.left_shift(w, 1, out=masked[2])  # each block's first bit onto its second
    masked[2] &= masked[1]
    first, second, both = np.bitwise_count(masked).sum(axis=2, dtype=np.int64)
    return np.stack([nb - first - second + both, second - both, first - both, both], axis=1)
