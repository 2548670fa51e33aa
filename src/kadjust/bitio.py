"""Bit-granular writer/reader and the Elias gamma integer code.

Elias gamma is the single self-delimiting integer code used by every
concrete coder in the package, so its lengths are reproducible everywhere:
a positive integer v costs 2*floor(log2(v)) + 1 bits, namely v itself
written in that many bits, so behind floor(log2(v)) leading zeros.

The writer keeps fields, each a Python int and its width, and joins them
pairwise into one int, made a BitWord with no unpack.  The reader takes a
BitWord or bytes, holds the stream as its packed bytes, most-significant
bit first, and every read is a shift and a mask of them: one field through
int.from_bytes, many at once by two shifts of the stream's big-endian
uint64 words, as a batched write places its values.  The batched forms
write_uints, read_uints, write_elias_gammas and read_elias_gammas take one
call for a whole array of integers.  A gamma code is parsed one of two
ways, with no schedule between them: read_elias_gamma reads one code,
whose zero run ends at the next 1, in its own byte or the next nonzero
one; read_elias_gamma_batch reads the codes that end in one window of at
most _WINDOW stream bits, the list that each code's successor links from
the window's first column, found by pointer jumping.  Every cost is linear
in the bits written or read, but for the log factors of the pointer
jumping within a window and of the writer's join.
"""

from __future__ import annotations

import operator
import re

import numpy as np

from .words import BitWord


class DecodeError(ValueError):
    """Raised when a bitstream cannot be decoded as a valid codeword."""


def elias_gamma_len(v: int) -> int:
    """Length in bits of the Elias gamma code of v >= 1."""
    if v < 1:
        raise ValueError("Elias gamma is defined for positive integers")
    return 2 * (v.bit_length() - 1) + 1


def _bit_length(v):
    """bit_length of nonnegative int64 integers, elementwise, exact: with each
    bit just below a set bit cleared, v is under 4/3 of its top bit, which
    float64 cannot round up to the next power of two."""
    return np.frexp(v & ~(v >> 1))[1]


def _gamma_len(v):
    """Elias gamma lengths 2 * bit_length(v) - 1 of positive int64 integers."""
    return 2 * _bit_length(v) - 1


# Widest integer of the batched forms, which carry values as int64.
_MAX_BATCH_WIDTH = 63
# Values per block of the batched writes and reads, which bounds their
# temporaries to a few dozen bytes per value.
_BATCH = 1 << 12

# The first nonzero byte of a buffer from a given index on, or None.
_NONZERO = re.compile(rb"[^\x00]").search

# A batched gamma read parses at most this many stream bits at a time, so
# that its temporaries stay a few dozen bytes a window bit.
_WINDOW = 1 << 16
# The widest zero run a window parses: at most _WINDOW values below
# 2^47 sum below 2^63, so the running sum stays int64.
_WINDOW_ZEROS = 46
_MAX_SUM = (1 << 63) - 1
_NO_VALUES = np.zeros(0, dtype=np.int64)
_NO_VALUES.setflags(write=False)


def _integers(values) -> np.ndarray:
    """values as a flat int64 array, or of Python ints if one does not fit
    int64; TypeError if one is not an integer, as operator.index raises."""
    array = np.asarray(values).reshape(-1)
    if array.size and array.dtype.kind not in "bi":  # as given: np.asarray makes floats of ints past int64
        ints = [operator.index(v) for v in np.asarray(values, dtype=object).flat]
        try:
            return np.array(ints, dtype=np.int64)
        except OverflowError:
            return np.array(ints, dtype=object)
    return array.astype(np.int64, copy=False)


class BitWriter:
    """Accumulates bits most-significant-bit first, as fields (value, width)."""

    def __init__(self):
        self._fields: list[tuple[int, int]] = []
        self._len = 0

    def _put(self, value: int, width: int) -> None:
        self._fields.append((value, width))
        self._len += width

    def write_bit(self, bit: int) -> None:
        self._put(1 if bit else 0, 1)

    def write_uint(self, value: int, width: int) -> None:
        """Fixed-width big-endian unsigned integer; width may be 0 when value is 0."""
        value = operator.index(value)
        if width < 0:
            raise ValueError(f"negative width {width}")
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._put(value, width)

    def write_uints(self, values, width: int) -> None:
        """Each value as write_uint(value, width) would write it, for 1 <= width <= 63."""
        values = _integers(values)
        if not 1 <= width <= _MAX_BATCH_WIDTH:
            raise ValueError(f"batched width {width} not in [1, {_MAX_BATCH_WIDTH}]")
        if values.size and (values.min() < 0 or values.max() >> width):
            raise ValueError(f"a value does not fit in {width} bits")
        for i in range(0, values.size, _BATCH):
            block = values[i : i + _BATCH]
            self._block(block, np.arange(width, width * (block.size + 1), width))

    def write_elias_gamma(self, v: int) -> None:
        self.write_uint(v, elias_gamma_len(v))

    def write_elias_gammas(self, values) -> None:
        """The Elias gamma code of each value, in order: v in _gamma_len(v) bits."""
        values = _integers(values)
        if values.dtype == object or values.size and values.min() < 1:
            raise ValueError("batched Elias gamma codes take integers from 1 to 2^63 - 1")
        for i in range(0, values.size, _BATCH):  # a block at a time bounds the temporaries
            block = values[i : i + _BATCH]
            self._block(block, np.add.accumulate(_gamma_len(block), dtype=np.int64))

    def _block(self, values: np.ndarray, ends: np.ndarray) -> None:
        """Nonnegative int64 values as one field, each ending at its entry of
        ends, by two shifts in its uint64 words as BitReader._fields reads it."""
        size = int(ends[-1])
        after = size - ends  # the columns after each value, to the block's end
        word, shift = after >> 6, (after & 63).view(np.uint64)
        words = np.zeros(size // 64 + 2, dtype=np.uint64)  # from the block's last word back
        values = values.view(np.uint64)
        # the values' bits are disjoint, so adding them ORs them
        np.add.at(words, word, values << shift)
        np.add.at(words[1:], word, values >> (64 - shift))  # numpy shifts by 64 to 0
        self._put(int.from_bytes(words.astype("<u8", copy=False).tobytes(), "little"), size)

    def __len__(self) -> int:
        return self._len

    def getvalue(self) -> BitWord:
        """The bits written, as a word; ValueError if none were."""
        fields = self._fields or [(0, 0)]
        while len(fields) > 1:  # joined pairwise
            pairs = zip(fields[::2], fields[1::2])
            fields = [(a << w | b, v + w) for (a, v), (b, w) in pairs] + fields[len(fields) & ~1 :]
        return BitWord.from_uint(fields[0][0], self._len)


class BitReader:
    """Reads bits MSB-first from a BitWord, such as BitWriter.getvalue()
    returns, or from bytes, 8 bits a byte.  Anything else raises TypeError,
    so that no array's raw bytes are read as a stream."""

    def __init__(self, stream):
        if isinstance(stream, BitWord):
            size, data = stream.n, stream.packed.astype(">u8").tobytes()
        elif isinstance(stream, (bytes, bytearray)):
            size, data = 8 * len(stream), bytes(stream)
        else:
            raise TypeError(f"a bitstream is a BitWord or bytes, not {type(stream).__name__}")
        # zero bytes up to a whole uint64 word, and one zero word past it for _fields
        self._data = data + bytes(-len(data) % 8 + 8)
        self._size = size
        self._pos = 0

    @property
    def pos(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return self._size - self._pos

    def read_bit(self) -> int:
        return self.read_uint(1)

    def read_uint(self, width: int) -> int:
        pos = self._pos
        if width < 0 or pos + width > self._size:
            raise DecodeError("bitstream exhausted")
        self._pos = end = pos + width
        return self._uint(pos, end)

    def _uint(self, start: int, end: int) -> int:
        """The stream's bits start .. end - 1: a shift and a mask of the
        bytes that hold them."""
        value = int.from_bytes(self._data[start >> 3 : (end + 7) >> 3], "big") >> (-end & 7)
        return value & ((1 << (end - start)) - 1)

    def _fields(self, starts: np.ndarray, widths) -> np.ndarray:
        """The fields of 1 to 64 bits (widths, an int or an array) at the
        stream positions starts, as uint64: two shifts of the words that hold each."""
        words = np.frombuffer(self._data, dtype=">u8")
        word, shift = starts >> 6, (starts & 63).astype(np.uint64)
        values = words[word] << shift
        values |= words[word + 1] >> (np.uint64(64) - shift)  # numpy shifts by 64 to 0
        values >>= np.asarray(64 - widths, dtype=np.uint64)
        return values

    def read_uints(self, count: int, width: int) -> np.ndarray:
        """count integers of width bits each (1 <= width <= 63) as an int64
        array; the stream must hold all of them before any is read."""
        if not 1 <= width <= _MAX_BATCH_WIDTH:
            raise ValueError(f"batched width {width} not in [1, {_MAX_BATCH_WIDTH}]")
        if count < 0 or count * width > self.remaining:
            raise DecodeError("bitstream exhausted")
        pos = self._pos
        self._pos = pos + count * width
        values = np.empty(count, dtype=np.int64)
        for i in range(0, count, _BATCH):  # a block of fields at a time bounds the temporaries
            starts = np.arange(pos + i * width, pos + min(count, i + _BATCH) * width, width)
            values[i : i + _BATCH] = self._fields(starts, width).view(np.int64)
        return values

    def read_elias_gamma(self) -> int:
        """One Elias gamma code: its zero run ends at the first 1 of pos's
        byte's bits from pos on, or else of the next nonzero byte's, or with
        none (the pad bytes are zero) past the end."""
        data, pos = self._data, self._pos
        head = 8 - (pos & 7)
        byte = data[pos >> 3] & ((1 << head) - 1)
        if byte:
            zeros = head - byte.bit_length()
        else:
            found = _NONZERO(data, (pos >> 3) + 1)
            one = 8 * found.start() + 8 - data[found.start()].bit_length() if found else self._size
            zeros = one - pos
        end = pos + 2 * zeros + 1
        if end > self._size:
            raise DecodeError("bitstream exhausted")
        self._pos = end
        if 2 * zeros < head:  # the code ends in pos's byte
            return byte >> (head - 2 * zeros - 1)
        return self._uint(pos, end)  # its value is its bits from pos on, zeros and all

    def read_elias_gammas(self, total: int) -> np.ndarray:
        """Elias gamma codes, read until their values sum to total or more,
        as an int64 array (of Python ints if a value does not fit int64)."""
        parts = []
        while total > 0:
            parts.append(self.read_elias_gamma_batch(total))
            total -= int(parts[-1].sum())
        if len(parts) < 2:
            return parts[0] if parts else _NO_VALUES
        return np.concatenate(parts)

    def read_elias_gamma_batch(self, total: int) -> np.ndarray:
        """The codes from pos on that end within the next _WINDOW stream bits,
        read until their values sum to total > 0 or more, as an int64 array;
        or the first code alone, as read_elias_gamma reads it, when it does
        not end there or has more than _WINDOW_ZEROS zeros."""
        values = self._gamma_window(total)
        return values if values.size else _integers([self.read_elias_gamma()])

    def _gamma_window(self, total: int) -> np.ndarray:
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
        zeros: one field gather.  The window unpacks only its own bytes."""
        pos = self._pos
        width = min(_WINDOW, self._size - pos)
        skip = pos & 7
        window = np.frombuffer(self._data, np.uint8, (skip + width + 7) >> 3, pos >> 3)
        bits = np.unpackbits(window, count=skip + width)[skip:]
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
        values = self._fields(ones + pos, ones - starts + 1).view(np.int64)
        sums = np.cumsum(values)
        last = int(np.searchsorted(sums, min(total, _MAX_SUM)))
        if last < read:  # the sum reaches total at code last
            values = values[: last + 1]
            end = starts[last + 1] if last + 1 < read else end
        self._pos = pos + int(end)
        return values
