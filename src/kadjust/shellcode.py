"""Enumerative coding of fixed-weight shells.

A shell is the set of all length-n words with exactly k ones.  Words are
indexed in ascending lexicographic order (0 sorts before 1) through the
combinatorial number system, giving an exact bijection between the shell
and the integer range [0, C(n,k)).

The concrete codeword for a word is a self-delimiting Elias gamma header
for k+1 followed by the rank in ceil(log2(C(n,k))) fixed-width bits; n is
side information supplied by the caller.  The idealized per-word cost used
by the statistics charges log2(C(n,k)) for the index plus log2(n+1) real
bits for the weight header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bitio import BitReader, BitWriter, DecodeError, elias_gamma_len
from .entropy import ceil_log2_comb, shell_log_size, shell_size
from .words import BitWord


@dataclass(frozen=True)
class ShellId:
    """A fixed-weight shell: all length-n words with exactly k ones."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or not 0 <= self.k <= self.n:
            raise ValueError(f"invalid shell ({self.n},{self.k})")

    @property
    def size(self) -> int:
        return shell_size(self.n, self.k)


@dataclass(frozen=True)
class ShellCodeword:
    """Concrete shell codeword: weight header then fixed-width rank index.

    concrete_len counts the actual header and index bits.
    """

    header_bits: np.ndarray
    index_bits: np.ndarray
    concrete_len: int

    @property
    def bits(self) -> np.ndarray:
        return np.concatenate([self.header_bits, self.index_bits])

    def to_bytes(self) -> bytes:
        """Header bits then index bits, MSB first, zero-padded to a byte boundary."""
        return np.packbits(self.bits).tobytes()


def rank(word: BitWord) -> int:
    """0-based lexicographic position of the word within its shell."""
    n, k = word.n, word.weight
    r = k
    c = math.comb(n - 1, k)
    idx = 0
    m = n - 1  # positions remaining after the current one; c == C(m, r)
    for bit in word.tolist():
        if bit:
            idx += c
            if m > 0:
                c = c * r // m
            r -= 1
        elif m > 0:
            c = c * (m - r) // m
        m -= 1
    return idx


def unrank(shell: ShellId, index: int) -> BitWord:
    """Inverse of rank: the index-th word of the shell in ascending lex order."""
    n, k = shell.n, shell.k
    if not 0 <= index < shell.size:
        raise ValueError(f"index {index} out of range for shell ({n},{k})")
    bits = np.empty(n, dtype=np.uint8)
    r = k
    m = n - 1
    c = math.comb(m, r)
    for i in range(n):
        if index < c:
            bits[i] = 0
            if m > 0:
                c = c * (m - r) // m
        else:
            bits[i] = 1
            index -= c
            if m > 0:
                c = c * r // m
            r -= 1
        m -= 1
    return BitWord(bits)


def ideal_len_shell(n: int, k: int) -> float:
    """Idealized shell description length from the shell alone:
    log2(C(n,k)) + log2(n+1) bits."""
    return shell_log_size(n, k) + math.log2(n + 1)


def code_len_shell_ideal(word: BitWord) -> float:
    """Idealized shell description length of a word."""
    return ideal_len_shell(word.n, word.weight)


@lru_cache(maxsize=4096)
def _index_width(n: int, k: int) -> int:
    return ceil_log2_comb(n, k)


def concrete_len_shell(n: int, k: int) -> int:
    """Concrete shell codeword length from the shell alone."""
    return elias_gamma_len(k + 1) + _index_width(n, k)


def encode_shell(word: BitWord) -> ShellCodeword:
    """Encode a word as weight header plus in-shell rank."""
    n, k = word.n, word.weight
    header = BitWriter()
    header.write_elias_gamma(k + 1)
    index = BitWriter()
    index.write_uint(rank(word), _index_width(n, k))
    return ShellCodeword(
        header_bits=header.getvalue(),
        index_bits=index.getvalue(),
        concrete_len=len(header) + len(index),
    )


def decode_shell(n: int, codeword) -> BitWord:
    """Decode a shell codeword (ShellCodeword, bit array, bytes, or BitReader)."""
    if isinstance(codeword, ShellCodeword):
        reader = BitReader(codeword.bits)
    elif isinstance(codeword, BitReader):
        reader = codeword
    else:
        reader = BitReader(codeword)
    k = reader.read_elias_gamma() - 1
    if k > n:
        raise DecodeError(f"decoded weight {k} exceeds word length {n}")
    index = reader.read_uint(_index_width(n, k))
    if index >= shell_size(n, k):
        raise DecodeError(f"rank {index} out of range for shell ({n},{k})")
    return unrank(ShellId(n, k), index)
