"""Bit-granular writer/reader and the Elias gamma integer code.

Elias gamma is the single self-delimiting integer code used by every
concrete coder in the package, so its lengths are reproducible everywhere:
a positive integer v costs 2*floor(log2(v)) + 1 bits, namely v itself
written in that many bits, so behind floor(log2(v)) leading zeros.

Both ends work on whole arrays.  The writer keeps a list of uint8 chunks
and joins them once; an integer becomes its bits through int.to_bytes and
np.unpackbits.  The reader keeps the stream as bytes, one per bit, and reads
an integer by translating its bits to ASCII digits for int(_, 2); a gamma
code's zero run ends at the next 1, which bytes.find locates.  The batched
forms write_uints, read_uints, write_elias_gammas and read_elias_gammas
take one call for a whole array of integers.  read_uints dots each field's
bits with the powers of two, a block of fields at a time.
read_elias_gammas reads its first codes one at a time, as read_elias_gamma
does, which covers headers and short words, and the rest in array passes
over windows of at most _WINDOW stream bits: a code's end follows from its
start by the next 1, the codes of a window are the list that successor
links from its first column, found by pointer jumping, and their values
are two shifts of the window's packed words.  Every cost is linear in the
bits written or read, but for the pointer jumping's log factor within a
window.  The reader leaves the 0/1 check of an array stream to
words.bit_bytes.
"""

from __future__ import annotations

import operator

import numpy as np

from .words import bit_bytes, packed_rows


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

# A batched gamma read parses at most this many stream bits at a time, so
# that its temporaries stay a few dozen bytes a window bit.
_WINDOW = 1 << 16
# The widest zero run a window parses: at most _WINDOW values below
# 2^47 sum below 2^63, so the running sum stays int64.
_WINDOW_ZEROS = 46
_MAX_SUM = (1 << 63) - 1
# A batched read takes its codes one at a time up to this sum of values,
# and on while they leave fewer than this many codes to read: below it
# the loop costs less than a window's fixed cost (read_elias_gammas).
_LOOP_CODES = 256
_NO_VALUES = np.zeros(0, dtype=np.int64)
_NO_VALUES.setflags(write=False)


def _values_array(values: list[int]) -> np.ndarray:
    """values as an int64 array, or as an array of Python ints if one does
    not fit int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


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
        # each row's bits dotted with the powers of two, a block of rows at
        # a time: the dot takes them as int64, 8 bytes a bit
        powers = np.int64(1) << np.arange(width - 1, -1, -1, dtype=np.int64)
        values = np.empty(count, dtype=np.int64)
        for i in range(0, count, _BATCH):
            np.dot(rows[i : i + _BATCH], powers, out=values[i : i + _BATCH])
        return values

    def read_elias_gamma(self) -> int:
        values, _ = self._gammas_by_code(1)  # every value is at least 1
        return values[0]

    def read_elias_gammas(self, total: int) -> np.ndarray:
        """Elias gamma codes, read until their values sum to total or more,
        as an int64 array (of Python ints if a value does not fit int64).

        The codes are read one at a time up to a sum of _LOOP_CODES, and
        then on while their mean value so far leaves fewer than _LOOP_CODES
        of them in what is left of total; else a window at a time."""
        parts, left, codes, start = [], total, 0, self._pos
        while left > 0:
            if not codes:
                step = min(left, _LOOP_CODES)
            elif left * codes <= _LOOP_CODES * (total - left):
                step = left
            else:
                # a quarter more bits than the values read so far take for what is left
                width = 5 * left * (self._pos - start) // (4 * (total - left)) + 2 * _WINDOW_ZEROS + 1
                batch = self._gamma_window(left, width)
                # a code that does not end in a window, or is too wide for one, is read alone
                step = 0 if batch.size else 1
            if step:
                values, rest = self._gammas_by_code(step)
                left -= step - rest
                batch = _values_array(values)
            else:
                left -= int(batch.sum())
            parts.append(batch)
            codes += batch.size
        if len(parts) < 2:
            return parts[0] if parts else _NO_VALUES
        return np.concatenate(parts)

    def _gammas_by_code(self, total: int) -> tuple[list[int], int]:
        """Codes read one at a time until their values sum to total > 0 or
        more, and what is left of total (zero or less)."""
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
        return values, total

    def _gamma_window(self, total: int, width: int) -> np.ndarray:
        """The values of the codes from pos on that end inside the next
        window of the stream, read up to the one at which they sum to total
        or more; none if the first code does not end there or has more than
        _WINDOW_ZEROS leading zeros.

        A code that starts at column s has its first 1 at the next one o(s)
        and ends at 2 o(s) - s + 1, where the next code starts.  That
        successor of every column is one table; the codes read from column 0
        are the list it links, found by pointer jumping (Wyllie): after k
        rounds the table is the successor taken 2^k times, and the list's
        first 2^k starts become its first 2^(k + 1).  A column whose code
        does not end in the window is its own successor, so the list ends
        there.  A code's value is the z + 1 bits from its first 1, z its
        zeros: two shifts of the window's packed words."""
        pos = self._pos
        width = min(_WINDOW, self._size - pos, width)
        bits = self._bits[pos : pos + width]
        ones = np.flatnonzero(bits.view(np.bool_))  # faster on bool; the bits are 0/1
        if not ones.size:
            return _NO_VALUES
        head = bits[: ones[-1] + 1]  # the columns past the last one end no code
        first_one = np.cumsum(head, dtype=np.intp)
        first_one -= head
        first_one = np.take(ones, first_one)  # the next one of every column
        columns = np.arange(width + 1)
        successor = columns.copy()
        ends = successor[: head.size]
        np.subtract(first_one, columns[: head.size], out=ends)
        cut = ends > _WINDOW_ZEROS
        ends += first_one
        ends += 1
        cut |= ends > width
        ends[cut] = columns[: head.size][cut]
        starts = columns[:1]
        jump = successor
        while successor[starts[-1]] != starts[-1]:
            starts = np.concatenate([starts, np.take(jump, starts)])
            jump = np.take(jump, jump)
        read = int(np.searchsorted(starts, starts[-1]))  # the codes before the list's end
        if not read:
            return _NO_VALUES
        end = starts[read]
        starts = starts[:read]
        ones = first_one[starts]
        packed = np.zeros(-(-width // 64) + 1, dtype=np.uint64)
        packed[:-1] = packed_rows(bits[None])[0]
        word, shift = ones >> 6, (ones & 63).astype(np.uint64)
        values = packed[word] << shift
        values |= packed[word + 1] >> (np.uint64(64) - shift)  # numpy shifts by 64 to 0
        values >>= (63 - (ones - starts)).astype(np.uint64)
        values = values.view(np.int64)
        sums = np.cumsum(values)
        last = int(np.searchsorted(sums, min(total, _MAX_SUM)))
        if last < read:  # the sum reaches total at code last
            values = values[: last + 1]
            end = starts[last + 1] if last + 1 < read else end
        self._pos = pos + int(end)
        return values
