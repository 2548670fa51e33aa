"""Computable description-length coders.

Each coder gives a word an idealized real-valued length and, for the
concrete coders, an integer codeword length realized by an actual
encoder/decoder pair that is prefix-free once the word length n is known
as side information.

Every length is computed by one batched kernel per coder, which scores a
matrix of equal-length words, one word per row.  code_lengths() feeds it
the matrix in chunks of rows and columns, through one loop (_scored) that
also serves code_word(), the k_* functions and prefix_lengths(), a short
word being a single chunk.  A kernel keeps per-row totals that add up over
the column chunks, and its last step, finish(m), turns the totals of the
first m columns into lengths with the same scalar functions for every
chunking, so a word scores the same however it is cut.  As finish leaves
the kernel able to take further chunks, prefix_lengths() scores every
prefix of a word on a schedule in one left-to-right pass, plus one finish
per prefix.
No coder takes a parameter: each has a kernel, a one-row k_*(word) and,
when concrete, encode(word) and decode(n, reader).  The periodic bound is
the constant P_MAX = 32.

  coder        length                                  per-chunk totals; last step
  literal      n bits, the word verbatim               none; the constant n
  shell        weight header plus in-shell             the weight; ideal_len_shell and
               lexicographic rank                      concrete_len_shell per distinct weight
  run_length   leading bit plus Elias gamma code       gamma lengths of the runs that end in
               of every maximal run                    the chunk, from the end mask: by
                                                       popcounts of the packed mask on a
                                                       chunk with one end per 3 cells or
                                                       more, else one flatnonzero;
                                                       the run still open at the chunk's end
                                                       carries its bit and length into the
                                                       next chunk, and finish adds its
                                                       gamma length
  periodic     best period P <= P_MAX: pattern plus    mismatch counts against the first P
               coded mismatch positions                bits tiled from the chunk's first
                                                       column, by one multiply-and-popcount
                                                       formula; _periodic_cost and one
                                                       argmin over the periods P <= m
  pair_shell   multinomial index over disjoint 2-bit   the 2-bit block tallies; a chunk's
               block counts (ideal only)               unpaired last bit pairs with the next
                                                       chunk's first; log2_multinomial per
                                                       distinct key (c01, c10, c11) in base
                                                       nb + 1
  model_class  3-bit model tag plus the best of the    every member's totals; tag bits plus
               above                                   the row minimum over the members

A chunk holds at most _CHUNK_BYTES // 8 cells: whole rows while a row
fits, else one row in chunks of a multiple of 64 columns.  That bounds
each kernel's temporaries by a few _CHUNK_BYTES for any word length.  The
periodic kernel takes up to 8 bytes a cell on short rows.  The
run-length kernel's end mask takes 1 byte a cell, and its packed copy
1/8 more on a dense chunk; a sparse chunk's run list takes about 24
bytes a run: 4 bytes a cell at p = 0.1, and at most about 8 bytes a
cell on a chunk of 2^16 cells or more.  A prefix schedule cuts a chunk at every prefix length.

The periodic coder tiles a pattern one way (_tiled_words): a row's first
P <= 64 bits are one uint64, tiled over a word by one multiply and rotated
to each packed word's phase, right at any column.  The kernel
(_mismatch_counts) popcounts the xor with a chunk's packed words; the
encoder and decoder unpack the tiled words of their one period, so the
decoder takes the periods the encoder writes only, 1 <= P <= min(P_MAX, n).

Tie-breaks are deterministic: smallest period for periodic, listed order
for model_class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .bitio import BitReader, BitWriter, DecodeError, elias_gamma_len
from .entropy import ceil_log2, log2_multinomial
from .shellcode import concrete_len_shell, decode_shell, encode_shell, ideal_len_shell
from .words import BitWord, as_bits, block_tallies, packed_rows

# The periodic coder takes the best period P <= P_MAX.
P_MAX = 32
MODEL_TAG_BITS = 3

# Byte budget of the kernels' temporaries: a chunk holds at most
# _CHUNK_BYTES // 8 cells (see _scored), as the periodic kernel's words, one
# uint64 per row, period and packed word, take 4 bytes a cell on rows of 64
# bits or more and up to 8 on shorter ones, twice over while they are
# rotated (see _mismatch_counts).  The run-length kernel's end mask takes 1
# byte a cell, its packed copy 1/8, and a sparse chunk's run list about 24
# bytes a run, under one run in 3 cells (see _dense).
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
#
# A kernel is built on one block of rows, kernel(block); add(chunk, c) adds
# the per-row totals of the block's columns c, c + 1, ... that chunk holds,
# the chunks coming left to right, and finish(m), once columns 0 .. m - 1
# are in, turns the totals into the Lengths of the block's prefixes of m
# columns, those the prefixes get when scored on their own.  finish leaves
# the kernel able to take further chunks, so one pass scores every prefix
# of a word (prefix_lengths), at one finish a prefix.  What the last chunk
# left open stays open: the run-length kernel's last run, whose gamma
# length finish adds to its result only, and the pair kernel's unpaired
# bit, which finish leaves out as the prefix's odd trailing bit and the
# next chunk pairs.  The periodic kernel scores the periods p <= m only.


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


class _Literal:
    """The constant n."""

    def __init__(self, block: np.ndarray):
        self.rows = len(block)

    def add(self, chunk: np.ndarray, c: int) -> None:
        pass

    def finish(self, m: int) -> Lengths:
        return np.full(self.rows, float(m)), np.full(self.rows, m, dtype=np.int64), None


class _Shell:
    """Each row's weight."""

    def __init__(self, block: np.ndarray):
        self.weights = 0  # a Python int while there is one row

    def add(self, chunk: np.ndarray, c: int) -> None:
        # count_nonzero is fastest on one long row, an int32 sum on many rows
        self.weights += np.count_nonzero(chunk) if len(chunk) == 1 else chunk.sum(1, np.int32)

    def finish(self, m: int) -> Lengths:
        ideal, concrete = _tabulate(
            lambda k: (ideal_len_shell(m, k), concrete_len_shell(m, k)),
            np.array(self.weights, ndmin=1), np.float64, np.int64,
        )
        return ideal, concrete, None


def _ends(bits: np.ndarray) -> np.ndarray:
    """The bool mask of the columns of every row that end a maximal
    constant run: those whose bit differs from the next, and the last."""
    m, n = bits.shape
    ends = np.ones((m, n), dtype=bool)
    np.not_equal(bits[:, 1:], bits[:, :-1], out=ends[:, :-1])
    return ends


def _runs(ends: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Lengths of the maximal constant runs of every row of an end mask,
    row by row and left to right, and the row of each run (None for a
    single row)."""
    m, n = ends.shape
    ends = np.flatnonzero(ends)
    runs = np.empty_like(ends)
    runs[0] = ends[0] + 1
    np.subtract(ends[1:], ends[:-1], out=runs[1:])
    return runs, (ends // n if m > 1 else None)


# A chunk of at least _DENSE_CELLS cells with at least one run end per
# _DENSE_SPACING cells sums its gamma lengths from popcounts of its packed
# end mask (_gamma_sums), in a few rounds while its runs are short; any
# other chunk lists its run lengths (_runs), at about 24 bytes a run: at
# most about 8 bytes a cell from _DENSE_CELLS cells up, 1.5 MiB below.  The
# popcounts win on rows at p = 0.5 or 0.3 and lose on short chunks, whose
# fixed cost they raise, and on sparse ones (p = 0.1 and below), whose long
# runs take many rounds.  The ends are counted once, over the whole chunk
# (7 us at 2^17 cells), for the path and for a row's gamma sums.
_DENSE_CELLS = 1 << 16
_DENSE_SPACING = 3


def _dense(ends: np.ndarray, count: int) -> bool:
    """Whether a chunk's end mask, with count ends, takes the popcounts: at
    least _DENSE_CELLS cells, and one end per _DENSE_SPACING cells."""
    return ends.size >= _DENSE_CELLS and _DENSE_SPACING * count >= ends.size


def _gamma_sums(ends: np.ndarray, count: int) -> np.ndarray:
    """Each row's sum of the Elias gamma lengths 2 * floor(log2 L) + 1 of
    its runs, the rows' end masks packed (rows, words) with count ends in
    all: the number of runs plus twice the number of runs of at least 2^j
    bits for every j >= 1 (Knuth, TAOCP 4A, 7.1.3).

    Round j moves the marks of the runs of at least 2^(j - 1) bits down
    2^(j - 1) columns and keeps those that land on 2^(j - 1) columns
    without an end: a run of at least 2^j bits, marked from its end e at
    column e - 2^j + 1.  The second mask holds the columns that start
    2^(j - 1) columns without an end, and doubles its reach each round as
    it is moved down by the same distance and ANDed with itself.  A column
    past a row's end has no end in the packed mask, but no window from a
    mark reaches it, as each ends at the mark's own run end."""
    pair = np.stack([ends, ~ends])  # the marks, the columns without an end
    moved = np.empty_like(pair)
    words = ends.shape[-1]
    total = np.bitwise_count(ends).sum(axis=-1, dtype=np.int64) if len(ends) > 1 else np.array([count])
    shift = 1
    while True:
        q, r = divmod(shift, 64)
        if q >= words:
            break
        # moved = pair shifted down within each row; no bit crosses a row
        if r:
            np.right_shift(pair[..., q:], r, out=moved[..., : words - q])
            moved[..., : words - q - 1] |= pair[..., q + 1 :] << (64 - r)
        else:
            moved[..., : words - q] = pair[..., q:]
        moved[..., words - q :] = 0
        np.bitwise_and(moved[0], pair[1], out=pair[0])
        longer = np.bitwise_count(pair[0]).sum(axis=-1, dtype=np.int64)
        if not longer.any():
            break
        total += 2 * longer
        pair[1] &= moved[1]
        shift *= 2
    return total


class _RunLength:
    """Each row's leading bit and the Elias gamma lengths of its closed
    runs, from the chunk's end mask: by popcounts of the packed mask on a
    dense chunk (_gamma_sums), from its run list (_runs) on any other.
    Several rows come in one chunk of whole rows (see _scored), where
    every run closes.  One row may come in many chunks: the run still open
    at a chunk's last column carries its bit and length into the next
    chunk, whose first run it extends or, on the other bit, ends, and
    finish closes it."""

    def __init__(self, block: np.ndarray):
        self.totals = 1  # the leading bit; a Python int while there is one row
        self.open_bit = self.open_len = None

    def add(self, chunk: np.ndarray, c: int) -> None:
        ends = _ends(chunk)
        m, n = ends.shape
        count = np.count_nonzero(ends)
        if _dense(ends, count):
            packed = packed_rows(ends)
            gamma = _gamma_sums(packed, count)
            if m > 1:
                self.totals = self.totals + gamma
                return
            gamma = int(gamma[0])
            first = int(ends[0].argmax()) + 1
            # the last run follows the end before the last column's, if any
            row = packed[0]
            row[-1] ^= np.uint64(1 << ((n - 1) % 64))
            nonzero = np.flatnonzero(row)
            k = int(nonzero[-1]) if nonzero.size else 0
            last = n - 64 * k - int(row[k]).bit_length()
        else:
            runs, rows = _runs(ends)
            del ends  # before the gamma lengths, which take about 24 bytes a run
            if rows is not None:
                gamma = np.bincount(rows, weights=_gamma_len(runs), minlength=m)
                self.totals = self.totals + gamma.astype(np.int64)
                return
            gamma = 2 * int(np.frexp(runs)[1].sum()) - runs.size  # the sum of _gamma_len(runs)
            first, last = int(runs[0]), int(runs[-1])
        closed = gamma - elias_gamma_len(last)  # the runs but the last, as they stand
        if self.open_len is not None:
            if chunk[0, 0] != self.open_bit:  # the chunk's first run ends it
                closed += elias_gamma_len(self.open_len)
            elif first < n:  # it extends the chunk's first run, which ends
                closed += elias_gamma_len(first + self.open_len) - elias_gamma_len(first)
            else:  # it extends the chunk's one run, still open
                last += self.open_len
        self.totals += closed
        self.open_bit, self.open_len = chunk[0, -1], last

    def finish(self, m: int) -> Lengths:
        totals = self.totals
        if self.open_len is not None:
            totals += elias_gamma_len(self.open_len)
        totals = np.array(totals, dtype=np.int64, ndmin=1)
        return totals.astype(np.float64), totals, None


def _periodic_cost(n: int, p, mismatches):
    """Periodic codeword length: gamma(p), the p pattern bits, gamma(r + 1)
    and r mismatch positions of ceil_log2(n + 1) bits; elementwise."""
    return _gamma_len(p) + p + _gamma_len(mismatches + 1) + mismatches * ceil_log2(n + 1)


# For p = 1 .. 64: p as a uint64, the mask of a pattern's p bits, the
# repunit sum of 2^(jp) over jp < 64, which tiles p bits over a word by one
# multiply, the p * (64 // p) bits of the whole copies, and the number
# p / gcd(p, 64) of words after which a row of period p repeats.
_PERIODS = np.arange(1, 65, dtype=np.uint64)
_MASKS = np.array([(1 << p) - 1 for p in range(1, 65)], dtype=np.uint64)
_REPUNITS = np.array([sum(1 << j for j in range(0, 64, p)) for p in range(1, 65)], dtype=np.uint64)
_SPANS = np.array([p * (64 // p) for p in range(1, 65)], dtype=np.uint64)
_CYCLES = [p // math.gcd(p, 64) for p in range(1, 65)]


def _tiled_words(pattern: np.ndarray, periods: range, c: int, words: int) -> np.ndarray:
    """(periods, words, rows) uint64: each row's first p bits, for every
    period p in periods (1 <= p <= 64), tiled over the packed words from
    column c on, least-significant bit first, pattern being the rows' first
    bits packed in one uint64 each.

    The p bits times the repunit of p are the tiled bits from column 0, a
    word t whose bit j is pattern bit j mod p: the copies do not overlap,
    so the product carries nothing.  Word k starts at the phase
    f = (c + 64k) mod p, so its tiled bits are t rotated by f within its
    s = p * (64 // p) bits of whole copies, (t >> f) | (t << (s - f))
    (Warren, Hacker's Delight, 2nd ed., ch. 2).  The words repeat every
    p / gcd(p, 64); for more words the formula builds that many and
    run - 1 more, run = 64 // rows (at least 1), and one gather lays them
    out run by run: the run from word k on equals the built words from
    k mod (p / gcd(p, 64)) on.  The rows come last, so that many short
    rows make long inner loops."""
    m = len(pattern)
    top = len(periods)
    at = slice(periods.start - 1, periods.stop - 1)
    run = max(1, 64 // m)
    built = min(words, max(_CYCLES[at]) + run - 1)
    tiled = np.empty((top, built, m), dtype=np.uint64)
    np.bitwise_and(pattern, _MASKS[at, None, None], out=tiled)
    tiled *= _REPUNITS[at, None, None]
    phase = np.arange(c, c + 64 * built, 64, dtype=np.uint64)[:, None] % _PERIODS[at, None, None]
    rotated = tiled >> phase
    tiled <<= _SPANS[at, None, None] - phase  # a shift by 64 gives 0 in numpy
    rotated |= tiled
    if built == words:
        return rotated
    starts = np.arange(0, words, run) % np.array(_CYCLES[at])[:, None]
    strides = rotated.strides
    runs = as_strided(rotated, (top, built - run + 1, run, m), strides[:2] + strides[1:])
    return runs[np.arange(top)[:, None], starts].reshape(top, -1, m)[:, :words]


def _mismatch_counts(pattern: np.ndarray, top: int, chunk: np.ndarray, c: int) -> np.ndarray:
    """(rows, periods) counts of the columns of chunk, which start at column
    c of its rows, that differ from each row's first p bits tiled over the
    row, for every period p = 1 .. top <= 64, pattern being the rows' first
    top bits packed in one uint64 each: the popcounts of the chunk's packed
    words xor _tiled_words, the chunk's padding masked out (Warren, ch. 5).
    The counts are a transposed (periods, rows) array, whose minimum over
    the periods is one elementwise pass."""
    w = chunk.shape[1]
    words = -(-w // 64)
    tiled = _tiled_words(pattern, range(1, top + 1), c, words)
    tiled ^= packed_rows(chunk).T
    if w % 64:  # the chunk's padding is zero, the pattern's is not
        tiled[:, words - 1] &= _MASKS[w % 64 - 1]
    return np.bitwise_count(tiled).sum(axis=1, dtype=np.int32).T


class _Periodic:
    """Each row's mismatch counts against its first p bits tiled over the
    row, for every period p <= min(p_max, n), summed over the chunks; the
    first m columns score the periods p <= min(p_max, m) only."""

    def __init__(self, block: np.ndarray, p_max: int = P_MAX):
        self.periods = np.arange(1, min(p_max, block.shape[1]) + 1)
        self.pattern = packed_rows(block[:, : len(self.periods)])[:, 0]
        self.counts = None

    def add(self, chunk: np.ndarray, c: int) -> None:
        counts = _mismatch_counts(self.pattern, len(self.periods), chunk, c)
        # a chunk's int32 counts, summed in int64 over several chunks
        self.counts = counts if self.counts is None else np.add(self.counts, counts, dtype=np.int64)

    def scan(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(cost, period) of every row's first m columns at its cheapest
        period; the smallest period wins ties."""
        top = min(len(self.periods), m)
        costs = _periodic_cost(m, self.periods[:top], self.counts[:, :top])
        # argmin takes the first minimum: the smallest period
        return costs.min(axis=1), self.periods[costs.argmin(axis=1)]

    def finish(self, m: int) -> Lengths:
        cost, _ = self.scan(m)
        return cost.astype(np.float64), cost, None


class _PairShell:
    """Each row's tallies of the disjoint 2-bit blocks 00, 01, 10, 11.  A
    chunk that ends on a block's first bit leaves it unpaired, and the next
    chunk's first bit completes the block; finish leaves it out, as the odd
    trailing bit of the prefix."""

    def __init__(self, block: np.ndarray):
        self.tallies = 0
        self.unpaired = None  # each row's bit at the last column in, on a block's first bit

    def add(self, chunk: np.ndarray, c: int) -> None:
        if self.unpaired is not None:
            pair = 2 * self.unpaired + chunk[:, 0]
            self.tallies = self.tallies + (pair[:, None] == np.arange(4))
            chunk = chunk[:, 1:]
        self.tallies = self.tallies + block_tallies(chunk)
        self.unpaired = chunk[:, -1] if chunk.shape[1] % 2 else None

    def finish(self, m: int) -> Lengths:
        nb, tail = divmod(m, 2)
        header = 4 * math.log2(nb + 1)
        # Key: the tallies (c01, c10, c11) in base b = nb + 1, c00 being the
        # rest of nb.  Every key is below b^3: int64 while b^3 < 2^63, that
        # is for n below about 2^22, and Python ints above.
        b = nb + 1
        place = np.array([b * b, b, 1], dtype=np.int64 if b**3 < 1 << 63 else object)

        def length(key):
            c = [key // (b * b), key // b % b, key % b]
            return (log2_multinomial([nb - sum(c), *c]) + header,)

        (ideal,) = _tabulate(length, self.tallies[:, 1:] @ place, np.float64)
        return ideal + tail, None, None


_NO_CODE = np.iinfo(np.int64).max


class _ModelClass:
    """Every model_class member's kernel, or those of the members with a
    concrete code only, fed the same chunks."""

    def __init__(self, block: np.ndarray, concrete_only: bool = False):
        self.rows = len(block)
        self.members = {
            j: _CODERS[name].kernel(block)
            for j, name in enumerate(MODEL_MEMBERS)
            if not concrete_only or _CODERS[name].encode is not None
        }

    def add(self, chunk: np.ndarray, c: int) -> None:
        for member in self.members.values():
            member.add(chunk, c)

    def member_lengths(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(rows, members) ideal and concrete lengths of every member on
        the first m columns; a member without a concrete code has concrete
        length _NO_CODE, and ideal length inf when it is left out."""
        ideal = np.full((self.rows, len(MODEL_MEMBERS)), np.inf)
        concrete = np.full(ideal.shape, _NO_CODE, dtype=np.int64)
        for j, member in self.members.items():
            ideal[:, j], member_concrete, _ = member.finish(m)
            if member_concrete is not None:
                concrete[:, j] = member_concrete
        return ideal, concrete

    def finish(self, m: int) -> Lengths:
        """The ideal length takes the minimum over member ideal lengths and
        the concrete length the minimum over members with a concrete code;
        the tag indexes MODEL_MEMBERS at the ideal winner (first on ties)."""
        ideal, concrete = self.member_lengths(m)
        tag = np.argmin(ideal, axis=1)
        return MODEL_TAG_BITS + ideal.min(axis=1), MODEL_TAG_BITS + concrete.min(axis=1), tag


def _scored(kernel, bits: np.ndarray, cuts: Sequence[int] | None = None):
    """(kernel(block), m) for every block of rows of bits, the kernel fed
    the block's columns once, in chunks from left to right, and yielded
    after the columns 0 .. m - 1 of every cut m in the strictly increasing
    cuts: after the block's last column, m = n, by default.  Cuts are for
    one row only.  A chunk holds at most _CHUNK_BYTES // 8 cells: whole
    rows while a row fits, else one row in chunks of a multiple of 64
    columns (64 at least).  A chunk ends at each cut, at any column."""
    m, n = bits.shape
    cells = _CHUNK_BYTES // 8
    rows = max(1, cells // n)
    width = n if n <= cells else max(64, cells - cells % 64)
    for first in range(0, m, rows):
        block = bits[first : first + rows]
        scorer = kernel(block)
        c = 0
        for cut in cuts or (n,):
            while c < cut:
                end = min(cut, c + width)
                scorer.add(block[:, c:end], c)
                c = end
            yield scorer, cut


def _joined(parts: list[Lengths]) -> Lengths:
    """Lengths of consecutive rows, joined."""
    if len(parts) == 1:
        return parts[0]
    return tuple(None if part[0] is None else np.concatenate(part) for part in zip(*parts))


def _lengths(kernel, bits: np.ndarray, cuts: Sequence[int] | None = None) -> Lengths:
    """The Lengths of every row of bits, or of one row's prefix at every cut."""
    return _joined([scorer.finish(m) for scorer, m in _scored(kernel, bits, cuts)])


def _periodic_scan(bits: np.ndarray, p_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(cost, period) of every row minimizing the periodic cost over
    p <= min(p_max, n); the smallest period wins ties.  A pattern is one
    uint64 word, so p_max is at most 64."""
    if not 1 <= p_max <= 64:
        raise ValueError(f"the periodic scan takes 1 <= p_max <= 64, not {p_max}")
    scans = [scorer.scan(n) for scorer, n in _scored(partial(_Periodic, p_max=p_max), bits)]
    return tuple(np.concatenate(part) for part in zip(*scans))


def prefix_lengths(coder: CoderId, word: BitWord, points: Sequence[int]) -> Lengths:
    """Lengths of the word's prefixes of every length m in points, one
    entry per point, each the code_lengths() of that prefix alone.  The
    points must increase strictly from 1 to at most the word's length.
    The kernel takes the word's columns once, left to right, up to the last
    point, and one finish(m) per point, against scoring every prefix from
    its first column."""
    points = list(points)
    if not points or points[0] < 1 or points[-1] > word.n:
        raise ValueError(f"prefix lengths must lie in 1..{word.n}")
    if any(b <= a for a, b in zip(points, points[1:])):
        raise ValueError("prefix lengths must be strictly increasing")
    return _lengths(_CODERS[coder.name].kernel, word.bits[None], points)


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
    return _lengths(_CODERS[coder.name].kernel, as_bits(bits))


def _one_row(coder: CoderId, word: BitWord) -> CodeResult:
    ideal, concrete, tag = _lengths(_CODERS[coder.name].kernel, word.bits[None])
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
    return BitWord._owning(reader.read_bits(n).view(np.bool_))  # the reader holds 0/1 only


def _encode_run_length(word: BitWord) -> np.ndarray:
    out = BitWriter()
    out.write_bit(word[0])
    out.write_elias_gammas(_runs(_ends(word.bits[None]))[0])
    return out.getvalue()


def _decode_run_length(n: int, reader: BitReader) -> BitWord:
    bit = reader.read_bit()
    runs = reader.read_elias_gammas(n)
    if sum(runs) > n:
        raise DecodeError("run overruns the declared word length")
    values = (bit + np.arange(len(runs))) & 1  # the runs alternate from bit
    return BitWord._owning(np.repeat(values.astype(np.bool_), runs))


def _encode_periodic(word: BitWord) -> np.ndarray:
    return _periodic_codeword(word, int(_periodic_scan(word.bits[None], P_MAX)[1][0]))


def _unpacked(words: np.ndarray, n: int) -> np.ndarray:
    """The first n bits of packed words, least-significant bit first."""
    return np.unpackbits(words.astype("<u8", copy=False).reshape(-1).view(np.uint8), count=n, bitorder="little")


def _periodic_codeword(word: BitWord, p: int) -> np.ndarray:
    """The periodic codeword of the word with period p."""
    n = word.n
    tiled = _tiled_words(packed_rows(word.bits[None, :p])[:, 0], range(p, p + 1), 0, -(-n // 64))
    positions = np.flatnonzero(word.bits != _unpacked(tiled, n))
    out = BitWriter()
    out.write_elias_gamma(p)
    out.write_bits(word.bits[:p])
    out.write_elias_gamma(positions.size + 1)
    out.write_uints(positions, ceil_log2(n + 1))
    return out.getvalue()


def _decode_periodic(n: int, reader: BitReader) -> BitWord:
    p = reader.read_elias_gamma()
    if p > min(P_MAX, n):  # the encoder writes p <= min(P_MAX, n) only
        raise DecodeError(f"period {p} exceeds min(P_MAX, n) = {min(P_MAX, n)}")
    pattern = packed_rows(reader.read_bits(p)[None])[:, 0]
    r = reader.read_elias_gamma() - 1
    positions = reader.read_uints(r, ceil_log2(n + 1))
    if r and positions.max() >= n:
        pos = positions[np.argmax(positions >= n)]
        raise DecodeError(f"mismatch position {pos} out of range")
    bits = _unpacked(_tiled_words(pattern, range(p, p + 1), 0, -(-n // 64)), n)
    np.bitwise_xor.at(bits, positions, 1)  # a position listed twice flips back
    return BitWord._owning(bits.view(np.bool_))  # the reader holds 0/1 only


def _encode_model_class(word: BitWord) -> np.ndarray:
    ((scored, n),) = _scored(partial(_ModelClass, concrete_only=True), word.bits[None])
    _, concrete = scored.member_lengths(n)
    best = int(np.argmin(concrete[0]))  # the first shortest concrete member
    name = MODEL_MEMBERS[best]
    out = BitWriter()
    out.write_uint(best, MODEL_TAG_BITS)
    if name == "periodic":  # the member's counts save the encoder a second scan
        out.write_bits(_periodic_codeword(word, int(scored.members[best].scan(n)[1][0])))
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
    """One coder: its length kernel, its one-row length function (the
    exported k_* function, so each call is named after its coder) and, for
    concrete coders, its codec."""

    kernel: type
    length: Callable[[BitWord], CodeResult]
    encode: Callable[[BitWord], np.ndarray] | None = None
    decode: Callable[[int, BitReader], BitWord] | None = None


# Order fixes both the model tag values and the model_class tie-break.
_CODERS = {
    "literal": _Coder(_Literal, k_len, lambda w: w.bits.copy(), _decode_literal),
    "shell": _Coder(_Shell, k_comb, lambda w: encode_shell(w).bits, decode_shell),
    "run_length": _Coder(_RunLength, k_run_length, _encode_run_length, _decode_run_length),
    "periodic": _Coder(_Periodic, k_periodic, _encode_periodic, _decode_periodic),
    "pair_shell": _Coder(_PairShell, k_pair_shell),
    "model_class": _Coder(_ModelClass, k_model_class, _encode_model_class, _decode_model_class),
}
CODER_NAMES = tuple(_CODERS)
MODEL_MEMBERS = tuple(name for name in CODER_NAMES if name != "model_class")
