"""Bit-granular writer/reader and the Elias gamma integer code.

Elias gamma is the single self-delimiting integer code used by every
concrete coder in the package, so its lengths are reproducible everywhere:
a positive integer v costs 2*floor(log2(v)) + 1 bits, namely v itself
written in that many bits, so behind floor(log2(v)) leading zeros.

Both ends work on whole arrays.  The writer keeps a list of uint8 chunks
and joins them once; an integer becomes its bits through int.to_bytes and
np.unpackbits.  The reader keeps the stream as bytes, one per bit, and reads
an integer by translating its bits to ASCII digits for int(_, 2); a gamma
code's zero run ends at the next 1, which bytes.find locates.  Every cost is
linear in the bits written or read.  The batched forms write_uints,
read_uints, write_elias_gammas and read_elias_gammas take one call for a
whole array of integers.  The reader leaves the 0/1 check of an array
stream to words.bit_bytes.
"""

from __future__ import annotations

import operator

import numpy as np

from .words import bit_bytes


class DecodeError(ValueError):
    """Raised when a bitstream cannot be decoded as a valid codeword."""


def elias_gamma_len(v: int) -> int:
    """Length in bits of the Elias gamma code of v >= 1."""
    if v < 1:
        raise ValueError("Elias gamma is defined for positive integers")
    return 2 * (v.bit_length() - 1) + 1


# Widest integer of the batched forms, which carry values as int64.
_MAX_BATCH_WIDTH = 63
# Values per array in the batched writes, which bounds their temporaries
# to a few hundred bytes per value.
_BATCH = 1 << 12

_ZERO = np.zeros(1, dtype=np.uint8)
_ONE = np.ones(1, dtype=np.uint8)
_ZERO.setflags(write=False)
_ONE.setflags(write=False)
_ASCII01 = bytes.maketrans(b"\x00\x01", b"01")


def _uint64_bits(values: np.ndarray) -> np.ndarray:
    """(len(values), 64) matrix of the big-endian bits of each value."""
    return np.unpackbits(values.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1)


class BitWriter:
    """Accumulates bits most-significant-bit first."""

    def __init__(self):
        self._chunks: list[np.ndarray] = []
        self._len = 0

    def _append(self, bits: np.ndarray) -> None:
        self._chunks.append(bits)
        self._len += bits.size

    def write_bit(self, bit: int) -> None:
        self._append(_ONE if bit else _ZERO)

    def write_bits(self, bits) -> None:
        """Append a sequence of bits as one chunk; any nonzero entry is a 1."""
        self._append(np.not_equal(np.asarray(bits), 0).view(np.uint8).reshape(-1))

    def write_uint(self, value: int, width: int) -> None:
        """Fixed-width big-endian unsigned integer; width may be 0 when value is 0."""
        value = operator.index(value)
        if width < 0:
            raise ValueError(f"negative width {width}")
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        if width:
            nbytes = (width + 7) >> 3
            data = np.frombuffer(value.to_bytes(nbytes, "big"), dtype=np.uint8)
            self._append(np.unpackbits(data)[8 * nbytes - width :])

    def write_uints(self, values, width: int) -> None:
        """Each value as write_uint(value, width) would write it, for 1 <= width <= 63."""
        values = np.asarray(values, dtype=np.int64).reshape(-1)
        if not 1 <= width <= _MAX_BATCH_WIDTH:
            raise ValueError(f"batched width {width} not in [1, {_MAX_BATCH_WIDTH}]")
        if values.size and (values.min() < 0 or values.max() >> width):
            raise ValueError(f"a value does not fit in {width} bits")
        for i in range(0, values.size, _BATCH):
            self._append(_uint64_bits(values[i : i + _BATCH])[:, 64 - width :].ravel())

    def write_elias_gamma(self, v: int) -> None:
        self.write_uint(v, elias_gamma_len(v))

    def write_elias_gammas(self, values) -> None:
        """The Elias gamma code of each value, in order."""
        values = np.asarray(values, dtype=np.int64).reshape(-1)
        if values.size and values.min() < 1:
            raise ValueError("Elias gamma is defined for positive integers")
        for i in range(0, values.size, _BATCH):
            bits = _uint64_bits(values[i : i + _BATCH])
            lengths = 2 * (64 - bits.argmax(axis=1)) - 1  # the first 1 of a row
            width = int(lengths.max())
            if width > 64:
                bits = np.concatenate([np.zeros((len(bits), width - 64), np.uint8), bits], 1)
            else:
                bits = bits[:, 64 - width :]
            # each row's code is its last `length` bits: the value behind its zeros
            self._append(bits[np.arange(width) >= (width - lengths)[:, None]])

    def __len__(self) -> int:
        return self._len

    def getvalue(self) -> np.ndarray:
        if not self._chunks:
            return np.zeros(0, dtype=np.uint8)
        return np.concatenate(self._chunks)


class BitReader:
    """Reads bits MSB-first from an array produced by BitWriter (or bytes).

    An array must hold only 0/1 values; words.bit_bytes checks them and
    raises DecodeError at construction for anything else, so no malformed
    stream is coerced into bits.
    """

    def __init__(self, bits):
        if isinstance(bits, (bytes, bytearray)):
            raw = np.unpackbits(np.frombuffer(bits, dtype=np.uint8)).tobytes()
        else:
            raw = bit_bytes(bits, DecodeError)  # one byte per bit, for bytes.find and int(_, 2)
        self._bits = np.frombuffer(raw, dtype=np.uint8)  # the checked copy, not the input
        self._raw = raw
        self._size = len(raw)
        self._pos = 0

    @property
    def pos(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return self._size - self._pos

    def read_bit(self) -> int:
        pos = self._pos
        if pos >= self._size:
            raise DecodeError("bitstream exhausted")
        self._pos = pos + 1
        return self._raw[pos]

    def read_bits(self, count: int) -> np.ndarray:
        """The next count bits as a uint8 array."""
        if count < 0 or self._pos + count > self._size:
            raise DecodeError("bitstream exhausted")
        bits = self._bits[self._pos : self._pos + count].copy()
        self._pos += count
        return bits

    def read_uint(self, width: int) -> int:
        pos = self._pos
        if width < 0 or pos + width > self._size:
            raise DecodeError("bitstream exhausted")
        if not width:
            return 0
        self._pos = pos + width
        return int(self._raw[pos : pos + width].translate(_ASCII01), 2)

    def read_uints(self, count: int, width: int) -> np.ndarray:
        """count integers of width bits each (1 <= width <= 63) as an int64
        array; the stream must hold all of them before any is read."""
        if not 1 <= width <= _MAX_BATCH_WIDTH:
            raise ValueError(f"batched width {width} not in [1, {_MAX_BATCH_WIDTH}]")
        if count < 0 or count * width > self.remaining:
            raise DecodeError("bitstream exhausted")
        pos = self._pos
        rows = self._bits[pos : pos + count * width].reshape(count, width)
        self._pos = pos + count * width
        # packbits pads each row at its end: the value, shifted left by the pad
        nbytes = (width + 7) >> 3
        packed = np.zeros((count, 8), dtype=np.uint8)
        packed[:, 8 - nbytes :] = np.packbits(rows, axis=1)
        return (packed.view(">u8").reshape(-1) >> (8 * nbytes - width)).astype(np.int64)

    def read_elias_gamma(self) -> int:
        return self.read_elias_gammas(1)[0]  # every value is at least 1

    def read_elias_gammas(self, total: int) -> list[int]:
        """Elias gamma codes, read until their values sum to total or more."""
        raw, pos, size = self._raw, self._pos, self._size
        find = raw.find
        values: list[int] = []
        put = values.append
        while total > 0:
            one = find(1, pos)  # the 1 that ends the zero run
            if one == pos:  # the code of 1
                pos += 1
                put(1)
                total -= 1
                continue
            end = 2 * one - pos + 1
            if one < 0 or end > size:
                self._pos = pos
                raise DecodeError("bitstream exhausted")
            v = int(raw[one:end].translate(_ASCII01), 2)
            pos = end
            put(v)
            total -= v
        self._pos = pos
        return values
