"""Enumerative coding of fixed-weight shells (Cover, "Enumerative source
encoding", IEEE Trans. IT 19(1), 1973).

A shell is the set of all length-n words with exactly k ones.  Words are
indexed in ascending lexicographic order (0 sorts before 1) through the
combinatorial number system, giving an exact bijection between the shell
and the integer range [0, C(n,k)).

The concrete codeword for a word is a self-delimiting Elias gamma header
for k+1 followed by the rank in ceil(log2(C(n,k))) fixed-width bits; n is
side information supplied by the caller.  The idealized per-word cost used
by the statistics charges log2(C(n,k)) for the index plus log2(n+1) real
bits for the weight header.

The rank is the sum of C(m, r) over the ones of the word, where m positions
follow the one and r ones remain, itself included.  With w the index width
and M(w) the cost of one w-bit product:

  rank    Indices below _TREE_FROM bits: one exact update of C(m, r) per
          bit, a multiply and a divide by a small integer, O(n w).  Wider
          ones: binary splitting (Haible & Papanikolaou, ANTS 1998) of the
          same sum read backwards from the last zero, where each term is
          the previous one times a ratio of integers up to n+1.  A product
          tree over the ratios' odd parts, reduced mod 2^w, and one Newton
          inverse of the odd denominator give the rank in O(M(w) log n)
          for the top of the tree plus O(n) small products below it.
  unrank  Bit by bit, a 1 when the index left is at least C(m, r).  While
          C(m, r) has more than _BLOCK_FROM bits, a block of up to
          _BLOCK_MAX bits is decided from bounds on the leading
          _BLOCK_PREC bits of both, and the exact pair is updated once per
          block: one divide of C(m, r) by the block's product of m's, which
          replaces a divide per bit.  A comparison the bounds cannot settle
          is taken as one exact step.  Still O(n w), at a fraction of the
          per-bit cost; narrower shells take only the exact step.
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
        """C(n, k), computed on first use and kept."""
        size = self.__dict__.get("_size")
        if size is None:
            size = self.__dict__["_size"] = shell_size(self.n, self.k)
        return size


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
    if n >= _TREE_FROM:  # the index width is at most n
        width = _index_width(n, k)
        if width >= _TREE_FROM:
            return _rank_tree(word.bits, width)
    r = k
    c = math.comb(n - 1, k)
    idx = 0
    m = n - 1  # positions after the current one, r ones from it on; c == C(m, r)
    bits = word.tolist()
    bits.pop()  # the last position adds C(0, 1) = 0 when it holds a 1
    for bit in bits:
        if bit:
            idx += c
            c = c * r // m
            r -= 1
        else:
            c = c * (m - r) // m
        m -= 1
    return idx


# Words whose index has _TREE_FROM bits or more are ranked through the
# product tree; below that its set-up costs more than the per-bit loop.
_TREE_FROM = 3072


def _trailing_zeros(v: np.ndarray) -> np.ndarray:
    """Exponent of 2 in each positive int64."""
    return np.bitwise_count((v & -v) - 1).astype(np.int64)


def _inverse_mod_pow2(q: int, w: int) -> int:
    """The inverse of an odd q modulo 2^w, by Newton's iteration
    x <- x (2 - q x), which doubles the correct low bits each step."""
    x, bits = q, 3  # q * q == 1 mod 8 for odd q
    while bits < w:
        bits = min(2 * bits, w)
        mask = (1 << bits) - 1
        x = x * (2 - (q & mask) * x) & mask
    return x & ((1 << w) - 1)


def _rank_tree(bits: np.ndarray, w: int) -> int:
    """rank of a word of w-bit index width by binary splitting mod 2^w.

    Read from its last zero towards its start, the word's rank terms form
    the chain h = C(Z+R, Z-1) over the Z zeros and R ones after a position:
    h is 1 before the last zero, each 1 read multiplies it by (Z+R+1)/(R+2)
    and each 0 by (Z+R+1)/Z, and every position holding a 1 adds h.  The
    powers of two of those ratios add up to the exponent E of each term; the
    odd parts go into a product tree of (P, Q, T), T/Q being the sum of a
    range's terms over 2^E and P/Q the range's ratio, all reduced mod 2^w.
    The rank is below 2^w, so it is the root's T times the inverse of its Q.
    """
    n = bits.size
    last_zero = n - 1 - int(np.argmin(bits[::-1]))
    if last_zero <= 0 or bits[last_zero]:
        return 0  # no 1 before a 0
    # term s is the position last_zero - 1 - s; R and Z count after it
    b = bits[last_zero - 1 :: -1].astype(np.int64)
    ones = np.cumsum(b)
    ones -= b  # R - (n - 1 - last_zero)
    p = np.arange(n - last_zero + 1, n + 1, dtype=np.int64)  # Z + R + 1
    q = np.where(b == 1, ones + (n + 1 - last_zero), p - (n - last_zero) - ones)
    del ones
    p_twos, q_twos = _trailing_zeros(p), _trailing_zeros(q)
    p >>= p_twos
    q >>= q_twos
    e = np.cumsum(p_twos - q_twos)
    del p_twos, q_twos
    t = b * q
    t[1:] <<= e[:-1]
    del b, e
    mask = (1 << w) - 1
    # A chunk of leaves at a time becomes Python integers, which bounds the
    # memory they take.
    chunks = [
        _reduce_tree(*_first_level(p[i : i + _TREE_CHUNK], q[i : i + _TREE_CHUNK],
                                   t[i : i + _TREE_CHUNK], n), mask)
        for i in range(0, p.size, _TREE_CHUNK)
    ]
    _, q, t = _reduce_tree(*(np.array(column, dtype=object) for column in zip(*chunks)), mask)
    return t * _inverse_mod_pow2(q, w) & mask


_TREE_CHUNK = 4096


def _first_level(p: np.ndarray, q: np.ndarray, t: np.ndarray, n: int):
    """The leaves' (P, Q, T) as object arrays of Python integers, pairs
    combined in int64 while the products stay below 2^63."""
    if p.size & 1:
        p, q, t = np.append(p, 1), np.append(q, 1), np.append(t, 0)
    if n < 1 << 20:  # p, q <= n + 1 and t < n^2, so the new T is below 2^61
        p, q, t = p[0::2] * p[1::2], q[0::2] * q[1::2], t[0::2] * q[1::2] + p[0::2] * t[1::2]
    return p.astype(object), q.astype(object), t.astype(object)


def _reduce_tree(p: np.ndarray, q: np.ndarray, t: np.ndarray, mask: int) -> tuple[int, int, int]:
    """Combine adjacent (P, Q, T) nodes level by level into one, mod mask + 1:
    P and Q multiply, and T = T_left Q_right + P_left T_right."""
    while p.size > 1:
        if p.size & 1:
            p, q, t = np.append(p, 1), np.append(q, 1), np.append(t, 0)
        t = (t[0::2] * q[1::2] + p[0::2] * t[1::2]) & mask
        p = p[0::2] * p[1::2] & mask
        q = q[0::2] * q[1::2] & mask
    return int(p[0]), int(q[0]), int(t[0])


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
    den = math.perm(top - 1, top - 1 - m)  # the m's of the block
    g = math.gcd(num, den, acc)
    num, den, acc = num // g, den // g, acc // g
    quot, rem = divmod(c, den)
    index -= quot * acc + rem * acc // den
    c = quot * num + rem * num // den
    return index, c, m, r


def ideal_len_shell(n: int, k: int) -> float:
    """Idealized shell description length from the shell alone:
    log2(C(n,k)) + log2(n+1) bits."""
    return shell_log_size(n, k) + math.log2(n + 1)


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
        codeword = codeword.bits
    reader = codeword if isinstance(codeword, BitReader) else BitReader(codeword)
    k = reader.read_elias_gamma() - 1
    if k > n:
        raise DecodeError(f"decoded weight {k} exceeds word length {n}")
    index = reader.read_uint(_index_width(n, k))
    shell = ShellId(n, k)
    if index >= shell.size:  # computed once: unrank reuses it
        raise DecodeError(f"rank {index} out of range for shell ({n},{k})")
    return unrank(shell, index)
