"""Computable description-length coders.

Each coder gives a word an idealized real-valued length and, for the
concrete coders, an integer codeword length realized by an actual
encoder/decoder pair that is prefix-free once the word length n is known
as side information.

Every length is computed by one batched kernel per coder, which scores a
matrix of equal-length words, one word per row, in a single pass.
code_lengths() runs it over a matrix in row chunks; code_word() and the
k_* functions are its one-row case.  No coder takes a parameter: each has
a kernel lengths(bits), a one-row k_*(word) and, when concrete,
encode(word) and decode(n, reader).  The periodic bound is the constant
P_MAX = 32.

  coder        length                                  kernel
  literal      n bits, the word verbatim               the constant n
  shell        weight header plus in-shell             per-weight table of ideal_len_shell
               lexicographic rank                      and concrete_len_shell
  run_length   leading bit plus Elias gamma code       one flatnonzero over the break mask
               of every maximal run                    with a row-end sentinel; gamma
                                                       lengths summed per row by bincount
  periodic     best period P <= P_MAX: pattern plus    mismatch counts per chunk of periods,
               coded mismatch positions                from one gather bits.T[arange(n) % P]
                                                       summed over n (short rows) or the
                                                       popcount of the packed row xor each
                                                       period's packed block (long rows);
                                                       one argmin over the counts of all periods
  pair_shell   multinomial index over disjoint 2-bit   log2_multinomial per distinct integer
               block counts (ideal only)               key, (c01, c10, c11) in base nb + 1
  model_class  3-bit model tag plus the best of the    tag bits plus the row minimum
               above                                   over the members

The tables are filled by the scalar functions of shellcode and entropy, so
a word scores the same in a batch as on its own.  Words of 2^10 bits or
more are packed once, 64 bits to a uint64 word, instead of gathered.  For
each period P one gather builds P's pattern tiled over a block of at
least _WIDE_ROW bits (a multiple of lcm(P, 64), or the whole row), packed
alike; the row, cut into rows of blocks, is xored with the block and
np.bitwise_count counts the mismatches, the padding of the row's last
word masked out; the gathers' indexes depend on the periods and block
widths only, and are built once (_tiling_index).  Each chunk's
temporaries (rows x n; periods x n x rows for the gather; the xored
words and the blocks for the packed scan) stay within _CHUNK_BYTES.  The
periodic encoder and decoder tile a pattern over _WIDE_ROW bits too, then
that row over the word (_tiled).

Tie-breaks are deterministic: smallest period for periodic, listed order
for model_class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .bitio import BitReader, BitWriter, DecodeError
from .entropy import ceil_log2, log2_multinomial
from .shellcode import concrete_len_shell, decode_shell, encode_shell, ideal_len_shell
from .words import BitWord, as_bits, block_tallies, packed_rows

# The periodic coder takes the best period P <= P_MAX.
P_MAX = 32
MODEL_TAG_BITS = 3

# Byte budget of one chunk: code_lengths() scores rows x n <= _CHUNK_BYTES
# bits at a time (each kernel's temporaries take a few bytes per bit); the
# periodic gather holds one transposed n x rows copy, then rows x periods x n
# bytes plus an index of 8 x periods x n, together at most _CHUNK_BYTES; the
# packed scan sizes its chunks of periods the same way (see _periodic_scan).
_CHUNK_BYTES = 1 << 20

# (ideal[rows], concrete[rows] or None, model tag[rows] or None)
Lengths = tuple[np.ndarray, np.ndarray | None, np.ndarray | None]


@dataclass(frozen=True)
class CoderId:
    """Identifies a coder by its name in CODER_NAMES."""

    name: str

    def __post_init__(self):
        if self.name not in _CODERS:
            raise ValueError(f"unknown coder {self.name!r}")


def pick_length(coder: CoderId, kind: str, ideal, concrete):
    """The ideal or the concrete length(s), by length kind."""
    if kind == "ideal":
        return ideal
    if kind == "concrete":
        if concrete is None:
            raise ValueError(f"coder {coder.name} has no concrete code")
        return concrete
    raise ValueError(f"unknown length kind {kind!r}")


@dataclass(frozen=True)
class CodeResult:
    """Description length of one word under one coder.

    concrete_len is None for purely ideal coders (pair_shell); model_tag
    names the winning sub-model for model_class.
    """

    coder: CoderId
    ideal_len: float
    concrete_len: int | None
    model_tag: str | None = None

    def length(self, kind: str = "ideal") -> float:
        return float(pick_length(self.coder, kind, self.ideal_len, self.concrete_len))


def is_concrete(coder: CoderId) -> bool:
    return _CODERS[coder.name].encode is not None


def concrete_coder_ids() -> tuple[CoderId, ...]:
    """All built-in coders with a concrete prefix-free code."""
    return tuple(CoderId(name) for name, entry in _CODERS.items() if entry.encode is not None)


# ---------------------------------------------------------------------------
# batched length kernels: bits[rows, n] (uint8) -> (ideal, concrete, tag)


def _gamma_len(v):
    """Elias gamma lengths 2 * bit_length(v) - 1 of positive integers,
    elementwise; np.frexp gives bit_length exactly below 2^53."""
    return 2 * np.frexp(v)[1] - 1


def _tabulate(fn, keys: np.ndarray, *dtypes) -> list[np.ndarray]:
    """fn of each integer key (one per word), a tuple of one value per
    dtype, called once per distinct key; one array per dtype."""
    if len(keys) == 1:
        distinct, inverse = keys[:1].tolist(), None
    else:
        distinct, inverse = np.unique(keys, return_inverse=True)
        distinct = distinct.tolist()
    tables = [np.array(column, dtype=dtype) for column, dtype in zip(zip(*map(fn, distinct)), dtypes)]
    return tables if inverse is None else [table[inverse] for table in tables]


def _literal_lengths(bits: np.ndarray) -> Lengths:
    m, n = bits.shape
    return np.full(m, float(n)), np.full(m, n, dtype=np.int64), None


def _shell_lengths(bits: np.ndarray) -> Lengths:
    n = bits.shape[1]
    # count_nonzero is fastest on one long row, an int32 sum on many rows
    weights = np.array([np.count_nonzero(bits)]) if len(bits) == 1 else bits.sum(1, np.int32)
    ideal, concrete = _tabulate(
        lambda k: (ideal_len_shell(n, k), concrete_len_shell(n, k)), weights, np.float64, np.int64
    )
    return ideal, concrete, None


def _runs(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Lengths of the maximal constant runs of every row, row by row and
    left to right, and the row of each run (None for a single row)."""
    m, n = bits.shape
    ends = np.ones((m, n), dtype=bool)  # the last column ends each row's last run
    np.not_equal(bits[:, 1:], bits[:, :-1], out=ends[:, :-1])
    ends = np.flatnonzero(ends)
    runs = np.empty_like(ends)
    runs[0] = ends[0] + 1
    np.subtract(ends[1:], ends[:-1], out=runs[1:])
    return runs, (ends // n if m > 1 else None)


def _run_length_lengths(bits: np.ndarray) -> Lengths:
    runs, rows = _runs(bits)
    gamma = _gamma_len(runs)
    if rows is None:
        totals = np.array([gamma.sum()])
    else:
        totals = np.bincount(rows, weights=gamma, minlength=bits.shape[0]).astype(np.int64)
    totals += 1  # the leading bit
    return totals.astype(np.float64), totals, None


def _periodic_cost(n: int, p, mismatches):
    """Periodic codeword length: gamma(p), the p pattern bits, gamma(r + 1)
    and r mismatch positions of ceil_log2(n + 1) bits; elementwise."""
    return _gamma_len(p) + p + _gamma_len(mismatches + 1) + mismatches * ceil_log2(n + 1)


# A row one period wide costs numpy one inner loop per row, which dominates
# for small periods on long words: a pattern is tiled over at least
# _WIDE_ROW bits before the row is compared or repeated.
_WIDE_ROW = 1024


def _tiled(pattern: np.ndarray, n: int) -> np.ndarray:
    """A fresh array of the pattern repeated over n entries, the last copy
    cut short: the pattern tiled over _WIDE_ROW entries, then that row over
    n."""
    row = np.tile(pattern, -(-_WIDE_ROW // pattern.size))
    return np.tile(row, -(-n // row.size))[:n]


# Rows of _GATHER_BELOW bits or more are scanned packed, 64 bits to a word:
# there gathering rows x periods x n bytes costs more than building each
# period's packed block and comparing words.
_GATHER_BELOW = 1 << 10


def _block_words(periods: np.ndarray, words: int) -> np.ndarray:
    """Words in each period's packed block: a multiple of lcm(p, 64) bits
    of at least _WIDE_ROW bits (so one row of blocks makes a long inner
    loop), or the whole packed row when that is shorter."""
    span = np.lcm(periods, 64)
    return np.minimum(span * -(-_WIDE_ROW // span), 64 * words) // 64


def _period_blocks(bits: np.ndarray, periods: np.ndarray, block_words: np.ndarray) -> np.ndarray:
    """(rows, periods, max(block_words)) uint64: each row's first p bits
    tiled over block_words[i] words for the i-th period p, packed as the
    row is packed.  The tiling repeats every lcm(p, 8) bits, a whole number
    of bytes, so one gather builds those bits and the bytes are repeated."""
    columns, index = _tiling_index(tuple(periods.tolist()), tuple(block_words.tolist()))
    units = np.packbits(np.take(bits, columns, axis=1), axis=2).reshape(bits.shape[0], -1)
    return np.take(units, index, axis=1).view(np.uint64)


@lru_cache(maxsize=32)
def _tiling_index(periods: tuple[int, ...], block_words: tuple[int, ...]):
    """The two gathers of _period_blocks, which depend on the periods and
    block widths only: (periods, 8 x max unit) columns of the row, each
    period's first p bits tiled over its unit of lcm(p, 8) bits, and
    (periods, 8 x max(block_words)) bytes of the packed units, each
    period's unit repeated over its block.  Read-only, as they are shared."""
    periods = np.array(periods)[:, None]
    unit = np.lcm(periods, 8) // 8  # bytes
    width = int(unit.max())
    columns = np.arange(8 * width) % periods
    index = np.arange(8 * max(block_words)) % unit + width * np.arange(len(periods))[:, None]
    columns.flags.writeable = index.flags.writeable = False
    return columns, index


def _packed_mismatch_counts(
    bits: np.ndarray, packed: np.ndarray, last: np.uint64, periods: np.ndarray
) -> np.ndarray:
    """(rows, periods) mismatch counts from the rows packed into uint64
    words, with room for one block past the row: a period's count is the
    popcount of the packed row xor its block, tiled over the row.  last
    masks the row's bits in its last word."""
    m, n = bits.shape
    words = -(-n // 64)
    block_words = _block_words(periods, words)
    rows = -(-words // block_words)
    ext = (rows * block_words).tolist()  # words the tiled blocks cover, >= words
    blocks = _period_blocks(bits, periods, block_words)
    xor = np.empty((len(periods), m, max(ext)), dtype=np.uint64)
    for i, (e, r, b) in enumerate(zip(ext, rows.tolist(), block_words.tolist())):
        np.bitwise_xor(
            packed[:, :e].reshape(m, r, b), blocks[:, i, None, :b], out=xor[i, :, :e].reshape(m, r, b)
        )
    xor[:, :, words - 1] &= last  # the row's padding is zero, the blocks' is pattern
    return np.bitwise_count(xor[:, :, :words]).sum(axis=2, dtype=np.int32).T


def _gathered_mismatch_counts(columns: np.ndarray, periods: np.ndarray) -> np.ndarray:
    """(rows, periods) mismatch counts from the rows transposed to (n, rows)
    and one gather of their first p bits tiled over n; the rows last, the
    sum over n adds whole rows of counts."""
    tiled = np.take(columns, np.arange(len(columns)) % periods[:, None], axis=0)
    mask = np.not_equal(tiled, columns, out=tiled.view(bool))
    return mask.sum(axis=1, dtype=np.int32).T


def _periodic_scan(bits: np.ndarray, p_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(cost, period) of every row minimizing the periodic cost over
    p <= min(p_max, n); the smallest period wins ties.  The cost counts
    the positions where a row differs from its first p bits tiled over
    its length."""
    m, n = bits.shape
    top = min(p_max, n)
    periods = np.arange(1, top + 1)
    if n >= _GATHER_BELOW:
        words = -(-n // 64)
        block = int(_block_words(periods, words).max())
        packed = packed_rows(bits, words + block)
        last = packed_rows((np.arange(64) < n - 64 * (words - 1))[None])[0, 0]
        # per period: its xor words, and its tiled bits (at most 8 x top)
        # and block bytes, each with an 8-byte gather index
        step = max(1, _CHUNK_BYTES // (8 * m * (words + block) + (m + 8) * 8 * (top + block)))
        mismatch_counts = partial(_packed_mismatch_counts, bits, packed, last)
    else:
        step = max(1, _CHUNK_BYTES // ((m + 8) * n))
        mismatch_counts = partial(_gathered_mismatch_counts, np.ascontiguousarray(bits.T))
    counts = [mismatch_counts(periods[first : first + step]) for first in range(0, top, step)]
    costs = _periodic_cost(n, periods, np.concatenate(counts, axis=1))
    # argmin takes the first minimum: the smallest period
    return costs.min(axis=1), periods[costs.argmin(axis=1)]


def _periodic_lengths(bits: np.ndarray) -> Lengths:
    cost, _ = _periodic_scan(bits, P_MAX)
    return cost.astype(np.float64), cost, None


def _pair_shell_lengths(bits: np.ndarray) -> Lengths:
    nb, tail = divmod(bits.shape[1], 2)
    header = 4 * math.log2(nb + 1)
    # Key: the tallies (c01, c10, c11) in base b = nb + 1, c00 being the rest
    # of nb.  Rows share a chunk only if n <= _CHUNK_BYTES / 2 = 2^19, so int64
    # keys stay below 2^55; a lone row's key is a Python int, exact at any n.
    b = nb + 1
    place = np.array([b * b, b, 1], dtype=object if len(bits) == 1 else np.int64)

    def length(key):
        c = [key // (b * b), key // b % b, key % b]
        return (log2_multinomial([nb - sum(c), *c]) + header,)

    (ideal,) = _tabulate(length, block_tallies(bits)[:, 1:] @ place, np.float64)
    return ideal + tail, None, None


_NO_CODE = np.iinfo(np.int64).max


def _member_lengths(
    bits: np.ndarray, concrete_only: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, members) ideal and concrete lengths of every model_class
    member, or of the members with a concrete code only, and each row's
    best period under the periodic member; a member without a concrete
    code has concrete length _NO_CODE, and ideal length inf when it is
    left out."""
    ideal = np.full((bits.shape[0], len(MODEL_MEMBERS)), np.inf)
    concrete = np.full(ideal.shape, _NO_CODE, dtype=np.int64)
    for j, name in enumerate(MODEL_MEMBERS):
        if concrete_only and _CODERS[name].encode is None:
            continue
        if name == "periodic":  # the scan's period saves the encoder a second scan
            concrete[:, j], period = _periodic_scan(bits, P_MAX)
            ideal[:, j] = concrete[:, j]
            continue
        ideal[:, j], member_concrete, _ = _CODERS[name].lengths(bits)
        if member_concrete is not None:
            concrete[:, j] = member_concrete
    return ideal, concrete, period


def _model_class_lengths(bits: np.ndarray) -> Lengths:
    """The ideal length takes the minimum over member ideal lengths and the
    concrete length the minimum over members with a concrete code; the tag
    indexes MODEL_MEMBERS at the ideal winner (first on ties)."""
    ideal, concrete, _ = _member_lengths(bits)
    tag = np.argmin(ideal, axis=1)
    return MODEL_TAG_BITS + ideal.min(axis=1), MODEL_TAG_BITS + concrete.min(axis=1), tag


def code_lengths(coder: CoderId, bits) -> Lengths:
    """Lengths of every row of a 0/1 matrix, one word per row.

    Returns ideal[rows], concrete[rows] (None for ideal-only coders) and,
    for model_class, tag[rows], the index into MODEL_MEMBERS of each row's
    ideal winner (None otherwise).  Row i scores exactly like
    code_word(coder, BitWord(bits[i])).
    """
    bits = np.asarray(bits)
    if bits.ndim != 2 or 0 in bits.shape:
        raise ValueError("bits must be a matrix of at least one row and one column")
    bits = as_bits(bits)
    kernel = _CODERS[coder.name].lengths
    m, n = bits.shape
    step = max(1, _CHUNK_BYTES // n)
    parts = [kernel(bits[i : i + step]) for i in range(0, m, step)]
    if len(parts) == 1:
        return parts[0]
    return tuple(None if part[0] is None else np.concatenate(part) for part in zip(*parts))


def _one_row(coder: CoderId, word: BitWord) -> CodeResult:
    ideal, concrete, tag = _CODERS[coder.name].lengths(word.bits[None])
    return CodeResult(
        coder,
        float(ideal[0]),
        None if concrete is None else int(concrete[0]),
        model_tag=None if tag is None else MODEL_MEMBERS[tag[0]],
    )


def k_len(word: BitWord) -> CodeResult:
    """Literal code: the word costs exactly its own length."""
    return _one_row(CoderId("literal"), word)


def k_comb(word: BitWord) -> CodeResult:
    """Combinatorial shell code: weight header plus in-shell rank."""
    return _one_row(CoderId("shell"), word)


def k_run_length(word: BitWord) -> CodeResult:
    """First bit plus an Elias gamma code for every run length."""
    return _one_row(CoderId("run_length"), word)


def k_periodic(word: BitWord) -> CodeResult:
    """Best-period pattern code, period at most P_MAX, with explicitly
    indexed mismatch positions."""
    return _one_row(CoderId("periodic"), word)


def k_pair_shell(word: BitWord) -> CodeResult:
    """Multinomial index over the disjoint 2-bit block counts (ideal lengths only)."""
    return _one_row(CoderId("pair_shell"), word)


def k_model_class(word: BitWord) -> CodeResult:
    """Fixed 3-bit model tag plus the best member coder; model_tag reports
    the ideal winner (first in MODEL_MEMBERS on ties)."""
    return _one_row(CoderId("model_class"), word)


def code_word(coder: CoderId, word: BitWord) -> CodeResult:
    """Score a word under the chosen coder."""
    return _CODERS[coder.name].length(word)


# ---------------------------------------------------------------------------
# concrete encoders / decoders


def _decode_literal(n: int, reader: BitReader) -> BitWord:
    return BitWord(reader.read_bits(n).view(np.bool_))  # the reader holds 0/1 only


def _encode_run_length(word: BitWord) -> np.ndarray:
    out = BitWriter()
    out.write_bit(word[0])
    out.write_elias_gammas(_runs(word.bits[None])[0])
    return out.getvalue()


def _decode_run_length(n: int, reader: BitReader) -> BitWord:
    bit = reader.read_bit()
    runs = reader.read_elias_gammas(n)
    if sum(runs) > n:
        raise DecodeError("run overruns the declared word length")
    values = (bit + np.arange(len(runs))) & 1  # the runs alternate from bit
    return BitWord(np.repeat(values.astype(np.bool_), runs))


def _encode_periodic(word: BitWord) -> np.ndarray:
    return _periodic_codeword(word, int(_periodic_scan(word.bits[None], P_MAX)[1][0]))


def _periodic_codeword(word: BitWord, p: int) -> np.ndarray:
    """The periodic codeword of the word with period p."""
    n = word.n
    positions = np.flatnonzero(word.bits != _tiled(word.bits[:p], n))
    out = BitWriter()
    out.write_elias_gamma(p)
    out.write_bits(word.bits[:p])
    out.write_elias_gamma(positions.size + 1)
    out.write_uints(positions, ceil_log2(n + 1))
    return out.getvalue()


def _decode_periodic(n: int, reader: BitReader) -> BitWord:
    p = reader.read_elias_gamma()
    if p > n:
        raise DecodeError(f"period {p} exceeds word length {n}")
    pattern = reader.read_bits(p)
    r = reader.read_elias_gamma() - 1
    positions = reader.read_uints(r, ceil_log2(n + 1))
    if r and positions.max() >= n:
        pos = positions[np.argmax(positions >= n)]
        raise DecodeError(f"mismatch position {pos} out of range")
    bits = _tiled(pattern, n)
    np.bitwise_xor.at(bits, positions, 1)  # a position listed twice flips back
    return BitWord(bits.view(np.bool_))  # the reader holds 0/1 only


def _encode_model_class(word: BitWord) -> np.ndarray:
    _, concrete, period = _member_lengths(word.bits[None], concrete_only=True)
    best = int(np.argmin(concrete[0]))  # the first shortest concrete member
    name = MODEL_MEMBERS[best]
    out = BitWriter()
    out.write_uint(best, MODEL_TAG_BITS)
    if name == "periodic":
        out.write_bits(_periodic_codeword(word, int(period[0])))
    else:
        out.write_bits(_CODERS[name].encode(word))
    return out.getvalue()


def _decode_model_class(n: int, reader: BitReader) -> BitWord:
    tag = reader.read_uint(MODEL_TAG_BITS)
    decode = _CODERS[MODEL_MEMBERS[tag]].decode if tag < len(MODEL_MEMBERS) else None
    if decode is None:
        raise DecodeError(f"invalid model tag {tag}")
    return decode(n, reader)


def encode_word(coder: CoderId, word: BitWord) -> np.ndarray:
    """Concrete codeword bits for the word; n is side information for decoding."""
    encode = _CODERS[coder.name].encode
    if encode is None:
        raise ValueError(f"coder {coder.name} has no concrete code")
    return encode(word)


def decode_word(coder: CoderId, n: int, source) -> BitWord:
    """Decode a concrete codeword back to the original word of known length n."""
    decode = _CODERS[coder.name].decode
    if decode is None:
        raise ValueError(f"coder {coder.name} has no concrete code")
    if n < 1:
        raise ValueError("length must be >= 1")
    reader = source if isinstance(source, BitReader) else BitReader(source)
    return decode(n, reader)


# ---------------------------------------------------------------------------
# coder table


@dataclass(frozen=True)
class _Coder:
    """One coder: its batched length kernel, its one-row length function
    (the exported k_* function, so each call is named after its coder)
    and, for concrete coders, its codec."""

    lengths: Callable[[np.ndarray], Lengths]
    length: Callable[[BitWord], CodeResult]
    encode: Callable[[BitWord], np.ndarray] | None = None
    decode: Callable[[int, BitReader], BitWord] | None = None


# Order fixes both the model tag values and the model_class tie-break.
_CODERS = {
    "literal": _Coder(_literal_lengths, k_len, lambda w: w.bits.copy(), _decode_literal),
    "shell": _Coder(_shell_lengths, k_comb, lambda w: encode_shell(w).bits, decode_shell),
    "run_length": _Coder(_run_length_lengths, k_run_length, _encode_run_length, _decode_run_length),
    "periodic": _Coder(_periodic_lengths, k_periodic, _encode_periodic, _decode_periodic),
    "pair_shell": _Coder(_pair_shell_lengths, k_pair_shell),
    "model_class": _Coder(
        _model_class_lengths, k_model_class, _encode_model_class, _decode_model_class
    ),
}
CODER_NAMES = tuple(_CODERS)
MODEL_MEMBERS = tuple(name for name in CODER_NAMES if name != "model_class")
