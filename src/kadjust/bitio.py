"""Bit-granular writer/reader and the Elias gamma integer code.

Elias gamma is the single self-delimiting integer code used by every
concrete coder in the package, so its lengths are reproducible everywhere:
a positive integer v costs 2*floor(log2(v)) + 1 bits.
"""

from __future__ import annotations

import numpy as np


class DecodeError(ValueError):
    """Raised when a bitstream cannot be decoded as a valid codeword."""


def elias_gamma_len(v: int) -> int:
    """Length in bits of the Elias gamma code of v >= 1."""
    if v < 1:
        raise ValueError("Elias gamma is defined for positive integers")
    return 2 * (v.bit_length() - 1) + 1


class BitWriter:
    """Accumulates bits most-significant-bit first."""

    def __init__(self):
        self._bits: list[int] = []

    def write_bit(self, bit: int) -> None:
        self._bits.append(1 if bit else 0)

    def write_bits(self, bits) -> None:
        self._bits.extend(1 if b else 0 for b in bits)

    def write_uint(self, value: int, width: int) -> None:
        """Fixed-width big-endian unsigned integer; width may be 0 when value is 0."""
        if value < 0 or value >= (1 << width if width else 1):
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._bits.extend((value >> (width - 1 - i)) & 1 for i in range(width))

    def write_elias_gamma(self, v: int) -> None:
        if v < 1:
            raise ValueError("Elias gamma is defined for positive integers")
        nbits = v.bit_length()
        self._bits.extend([0] * (nbits - 1))
        self.write_uint(v, nbits)

    def __len__(self) -> int:
        return len(self._bits)

    def getvalue(self) -> np.ndarray:
        return np.array(self._bits, dtype=np.uint8)

    def to_bytes(self) -> bytes:
        """Pack MSB-first, zero-padded to a byte boundary."""
        return np.packbits(self.getvalue()).tobytes()


class BitReader:
    """Reads bits MSB-first from an array produced by BitWriter (or bytes)."""

    def __init__(self, bits):
        if isinstance(bits, (bytes, bytearray)):
            bits = np.unpackbits(np.frombuffer(bytes(bits), dtype=np.uint8))
        self._bits = np.asarray(bits, dtype=np.uint8)
        self._pos = 0

    @property
    def pos(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return self._bits.size - self._pos

    def read_bit(self) -> int:
        if self._pos >= self._bits.size:
            raise DecodeError("bitstream exhausted")
        b = int(self._bits[self._pos])
        self._pos += 1
        return b

    def read_bits(self, count: int) -> np.ndarray:
        """The next count bits as a uint8 array."""
        if count < 0 or self._pos + count > self._bits.size:
            raise DecodeError("bitstream exhausted")
        bits = self._bits[self._pos : self._pos + count].copy()
        self._pos += count
        return bits

    def read_uint(self, width: int) -> int:
        if width < 0 or self._pos + width > self._bits.size:
            raise DecodeError("bitstream exhausted")
        value = 0
        for b in self._bits[self._pos : self._pos + width].tolist():
            value = (value << 1) | b
        self._pos += width
        return value

    def read_elias_gamma(self) -> int:
        zeros = 0
        while self.read_bit() == 0:
            zeros += 1
            if zeros > self._bits.size:
                raise DecodeError("malformed Elias gamma code")
        return (1 << zeros) | self.read_uint(zeros)
