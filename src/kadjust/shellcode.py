"""Enumerative coding of fixed-weight shells (Cover, "Enumerative source
encoding", IEEE Trans. IT 19(1), 1973).

A shell is the set of all length-n words with exactly k ones.  Words are
indexed in ascending lexicographic order (0 sorts before 1) through the
combinatorial number system, giving an exact bijection between the shell
and the integer range [0, C(n,k)).

The concrete codeword for a word is a self-delimiting Elias gamma header
for k+1 followed by the rank in ceil(log2(C(n,k))) fixed-width bits, both
written into the caller's BitWriter; n is side information supplied by the
caller.  The idealized per-word cost used by the statistics charges
log2(C(n,k)) for the index plus log2(n+1) real bits for the weight header.

The rank is the sum of C(m, r) over the ones of the word, where m positions
follow the one and r ones remain, itself included; unrank reads the word
back bit by bit, a 1 when the index left is at least C(m, r).  Both start
from C(n-1, k) = C(n, k) (n-k) / n and update C(m, r) by one exact step
per bit: a multiply and a divide by a small integer, so a word of index
width w costs O(n w).  While C(m, r) is wide both walk the word in blocks
instead, and update the exact pair once per block (_exact_step): for a
block of b bits, one divide of C(m, r) by the block's product of m's, of
about b log2(n) bits, and two products of that size replace b divides of
w bits.  Still O(n w), at a fraction of the per-bit cost.

  rank    While C(m, r) has more than _RANK_FROM bits, blocks of
          width / 64 positions, a power of two from 128 to 1024, read from
          the packed words a chunk at a time: the ratios of 4 positions (2
          past 2^15 bits) are multiplied out in uint64, then joined into
          blocks by a pairwise product tree of Python ints.
  unrank  While C(m, r) has more than _BLOCK_FROM bits, a block of up to
          _BLOCK_MAX bits is decided from bounds on the leading
          _BLOCK_PREC bits of the index and of C(m, r).  A comparison the
          bounds cannot settle is taken as one exact step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bitio import BitReader, BitWriter, DecodeError, elias_gamma_len
from .entropy import ceil_log2_comb, shell_log_size, shell_size
from .words import BitWord, unpacked


@dataclass(frozen=True)
class ShellId:
    """A fixed-weight shell: all length-n words with exactly k ones."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or not 0 <= self.k <= self.n:
            raise ValueError(f"invalid shell ({self.n},{self.k})")

    @cached_property
    def size(self) -> int:
        """C(n, k), computed on first use and kept."""
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


def rank(word: BitWord) -> int:
    """0-based lexicographic position of the word within its shell."""
    n, k = word.n, word.weight
    r = k
    m = n - 1  # positions after the current one, r ones from it on; c == C(m, r)
    c = shell_size(n, k) * (n - k) // n
    idx = i = 0  # i: the next position, a multiple of every block so far and of 64
    narrow = 2 if 4 * m.bit_length() + 2 <= 64 else 1  # uint64 levels: 4 or 2 positions
    while (width := c.bit_length()) > _RANK_FROM:
        b = 1 << min(max(width.bit_length() - 7, 7), 10)  # width / 64, 128 .. 1024
        ahead = m - m * _RANK_FROM // width  # positions until C(m, r) narrows, at its bits a position
        stop = i + min(-(-ahead // b) * b, _RANK_CHUNK, m - m % b)
        bits = unpacked(word.packed[i >> 6 : stop >> 6], stop - i)
        ms = np.arange(m, m - (stop - i), -1, dtype=np.uint64)
        rs = r - np.cumsum(bits, dtype=np.uint64) + bits  # r at each position
        f = np.where(bits, rs, ms - rs)  # C(m, r) steps by f / m at each position
        a = ms * bits
        # (num, acc, den) of each pair of positions, of pairs of pairs, ...,
        # of each block: (f, a, m) then (f f', a m' + f a', m m')
        for level in range(b.bit_length() - 1):
            if level == narrow:
                f, a, ms = f.astype(object), a.astype(object), ms.astype(object)
            a = a[0::2] * ms[1::2] + f[0::2] * a[1::2]
            f = f[0::2] * f[1::2]
            ms = ms[0::2] * ms[1::2]
        ones = np.add.reduce(bits.reshape(-1, b), 1).tolist()
        for num, acc, den, w in zip(f.tolist(), a.tolist(), ms.tolist(), ones):
            step, c = _exact_step(c, num, acc, den)
            idx += step
            r -= w
            m -= b
            i += b
            if c.bit_length() <= _RANK_FROM:
                break
    # the last position adds C(0, 1) = 0 when it holds a 1
    for bit in unpacked(word.packed[i >> 6 :], n - i)[:-1].tolist():
        if bit:
            idx += c
            c = c * r // m
            r -= 1
        else:
            c = c * (m - r) // m
        m -= 1
    return idx


# A chunk of rank's walk is at most _RANK_CHUNK positions, and stops where
# C(m, r) would narrow to _RANK_FROM bits at its present bits a position.
# Per position, blocks of 128, 256, 512 and 1024 were the fastest of 64 to
# 1024 at widths of 2^12, 2^14, 2^15 and 2^16 bits (words of 2^15 and 2^17
# bits).  On words of 2^12 to 2^15 bits, thresholds of 128 to 384 bits were
# alike and 1024 up to 13% slower; chunks of 2048 positions up to 8% slower.
# Groups of 2 positions at every n, not 4 where they fit, were 1-12% slower
# on those words, and codec-roundtrip's encode pass 5.5% (9 of 10 runs).
_RANK_FROM = 256
_RANK_CHUNK = 4096


def _exact_step(c: int, num: int, acc: int, den: int) -> tuple[int, int]:
    """(c * acc / den, c * num / den), both exact, for a block of rank or
    unrank that starts at c = C(m, r): num / den is the ratio of the
    block's last C(m, r) to its first, and c * acc / den the sum of the
    C(m, r) at its ones.  One divide of c by den serves both, and it is
    exact: once num, den and acc are divided by their gcd, each prime power
    of den divides c, since it divides c * num and c * acc while its prime
    misses num or acc."""
    g = math.gcd(num, den, acc)
    quot = c // (den // g)
    return quot * (acc // g), quot * (num // g)


def unrank(shell: ShellId, index: int) -> BitWord:
    """Inverse of rank: the index-th word of the shell in ascending lex order."""
    n, k = shell.n, shell.k
    size = shell.size
    if not 0 <= index < size:
        raise ValueError(f"index {index} out of range for shell ({n},{k})")
    out = bytearray()
    put = out.append
    r = k
    m = n - 1
    c = size * (n - k) // n  # C(m, r): the words whose next bit is 0
    while m > 0:
        if c.bit_length() > _BLOCK_FROM:
            index, c, m, r = _unrank_block(index, c, m, r, put)
            stop = max(m - 1, 0)  # one exact step: the block may end on a tie
        else:
            stop = 0
        for m in range(m, stop, -1):
            if index < c:
                put(0)
                c = c * (m - r) // m
            else:
                put(1)
                index -= c
                c = c * r // m
                r -= 1
        m = stop
    put(index >= c)  # the last position, m = 0
    return BitWord(np.frombuffer(out, dtype=np.bool_))


# unrank decides blocks of bits while C(m, r) has more than _BLOCK_FROM
# bits, from bounds on its leading _BLOCK_PREC bits; a block ends when the
# bound on C(m, r) falls below 2^_BLOCK_FLOOR or after _BLOCK_MAX bits.
_BLOCK_FROM = 2048
_BLOCK_PREC = 128
_BLOCK_FLOOR = 1 << 48
_BLOCK_MAX = 256


def _unrank_block(index: int, c: int, m: int, r: int, put) -> tuple[int, int, int, int]:
    """Decide the bits of unrank that bounds settle, passing each to put,
    until a comparison they cannot settle; returns the exact (index, c, m, r)
    after them.

    With c = C(m, r), the bounds are lo * 2^s <= c <= (lo + steps + 1) * 2^s
    and il * 2^s <= index < iu * 2^s: each step's floor widens the bound on
    c by at most one unit.  The exact pair is updated once, from the
    block's ratio num / den of the last c to the first and from the sum of
    c over its ones, c * acc / den.
    """
    shift = c.bit_length() - _BLOCK_PREC
    lo = c >> shift
    il = index >> shift
    iu = il + 1
    num, acc = 1, 0
    top = m + 1  # lo + top - m bounds c from above
    stop = max(m - _BLOCK_MAX, 0)
    floor = _BLOCK_FLOOR
    while m > stop and lo >= floor:
        if iu <= lo:
            put(0)
            f = m - r
            acc *= m
            num *= f
            lo = lo * f // m
        else:
            hi = lo + top - m
            if il < hi:
                break
            put(1)
            acc = (acc + num) * m
            num *= r
            il -= hi
            iu -= lo
            lo = lo * r // m
            r -= 1
        m -= 1
    step, c = _exact_step(c, num, acc, math.perm(top - 1, top - 1 - m))  # the m's of the block
    return index - step, c, m, r


def ideal_len_shell(n: int, k: int) -> float:
    """Idealized shell description length from the shell alone:
    log2(C(n,k)) + log2(n+1) bits."""
    return shell_log_size(n, k) + math.log2(n + 1)


def concrete_len_shell(n: int, k: int) -> int:
    """Concrete shell codeword length from the shell alone."""
    return elias_gamma_len(k + 1) + ceil_log2_comb(n, k)


def _encode_shell(word: BitWord, out: BitWriter) -> None:
    """Write the word's weight header and in-shell rank to the writer."""
    k = word.weight
    out.write_elias_gamma(k + 1)
    out.write_uint(rank(word), ceil_log2_comb(word.n, k))


def encode_shell(word: BitWord) -> ShellCodeword:
    """Encode a word as weight header plus in-shell rank."""
    out = BitWriter()
    _encode_shell(word, out)
    bits, header = out.getvalue().bits, elias_gamma_len(word.weight + 1)
    return ShellCodeword(header_bits=bits[:header], index_bits=bits[header:], concrete_len=bits.size)


def decode_shell(n: int, reader: BitReader) -> BitWord:
    """Read the shell codeword of a length-n word from the reader;
    decode_word(CoderId("shell"), n, codeword) takes a codeword."""
    k = reader.read_elias_gamma() - 1
    if k > n:
        raise DecodeError(f"decoded weight {k} exceeds word length {n}")
    index = reader.read_uint(ceil_log2_comb(n, k))
    shell = ShellId(n, k)
    if index >= shell.size:  # computed once: unrank reuses it
        raise DecodeError(f"rank {index} out of range for shell ({n},{k})")
    return unrank(shell, index)
