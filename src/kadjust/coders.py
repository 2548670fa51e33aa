"""Computable description-length coders.

Each coder gives a word an idealized real-valued length and, for the
concrete coders, an integer codeword length realized by an actual
encoder/decoder pair that is prefix-free once the word length n is known
as side information.

Every length is computed by one batched kernel per coder, which scores a
matrix of equal-length words, one word per row.  Every kernel reads the
same packed chunk, a PackedRows of 64 columns to a uint64 word,
most-significant bit first (see kadjust.words).  One loop (_scored)
feeds the chunks to kind_lengths() and to code_word() through the k_*
functions.  It reads packed rows only, which PackedRows.of makes once of
a BitWord (its one row), of packed rows (as the audit and the Monte
Carlo build them) or of a 0/1 matrix (checked and packed), and slices
them a block of rows at a time, each block into chunks; a short word is
a single chunk.  A kernel is built with the prefix lengths it scores,
its cuts (n by default), and records integer statistics at every cut
inside each chunk, from prefix sums over the chunk's words; totals that
add up over the chunks carry into the next.  Its last step,
finishes(kinds), turns every cut's statistics into each length kind's
Score, lengths and winner, at once, with the same scalar functions for
every chunking, so a word scores the same however it is chunked, and
kind_lengths() given cuts scores every prefix of a word on a schedule in
one left-to-right pass and one finish.  code_word() finishes one pass for
both kinds, and a kernel whose two kinds are one integer length
(literal, run_length, periodic) takes it once.
No coder takes a parameter: each has a kernel, a one-row k_*(word) and,
when concrete, encode(word, writer) and decode(n, reader) on the caller's
BitWriter and BitReader.  The periodic bound is the constant P_MAX = 32.

  coder        length                                  statistics at a cut; finish
  literal      n bits, the word verbatim               none; the cut m
  shell        weight header plus in-shell             the weight, a prefix popcount of the
               lexicographic rank                      words; ideal_len_shell and
                                                       concrete_len_shell per distinct
                                                       (cut, weight)
  run_length   leading bit plus Elias gamma code       gamma lengths of the runs that end
               of every maximal run                    before the cut's last column, from the
                                                       packed end mask x ^ (x shifted one
                                                       column): by its popcounts on a chunk
                                                       with one end per 3 cells or more, else
                                                       from the list of its set bits; plus
                                                       the cut's last run, from the end
                                                       before that column on.  The run still
                                                       open at a chunk's end carries its bit
                                                       and length into the next chunk
  periodic     best period P <= P_MAX: pattern plus    mismatch counts against the first P
               coded mismatch positions                columns, from the block's first word,
                                                       tiled from the chunk's first column:
                                                       prefix popcounts of the xor with the
                                                       chunk's words, (periods, rows, cuts);
                                                       one minimum over the periods P <= m of
                                                       the key _periodic_cost << 6 | period
                                                       index
  pair_shell   multinomial index over disjoint 2-bit   the 2-bit block tallies, masked prefix
               block counts (ideal only)               popcounts up to the cut's last even
                                                       column; log2_multinomial per distinct
                                                       key (cut, c01, c10, c11)
  model_class  3-bit model tag plus the best of the    every member's statistics from the
               above                                   same chunk; tag bits plus the minimum
                                                       over the (members, entries) lengths

A chunk holds at most _CHUNK_BYTES // 8 cells: whole rows while a row
fits, else one row in chunks of a multiple of 64 columns.  That bounds
each kernel's temporaries by a few _CHUNK_BYTES for any word length.  The
periodic kernel takes up to 8 bytes a cell on short rows.  The
run-length kernel's end mask takes 1/8 byte a cell, twice over on a
dense chunk; a sparse chunk unpacks it, 1 byte a cell, and its run list
takes about 24 bytes a run: 4 bytes a cell at p = 0.1, and at most about
8 bytes a cell on a chunk of 2^16 cells or more.  Cuts do not end
chunks: a chunk starts at a multiple of 64 columns, so no 2-bit block
and no periodic pattern spans two chunks, and the statistics of a cut
take a few words of prefix sums.

The periodic coder tiles a pattern one way (_tiled_words): a row's first
P <= 64 columns, the top bits of its first word, are tiled over a word
by one multiply, the copies moved to the top of the word, and rotated
to each packed word's phase, right at any column.  The kernel
(_mismatch_counts) popcounts the xor with a chunk's packed words; the
encoder unpacks the xor of the word with the tiled words of its one
period to list the mismatches, and the decoder flips its mismatches in
the tiled words (_flip), so it takes the periods the encoder writes only,
1 <= P <= min(P_MAX, n).  The run-length decoder writes packed words too:
a flip at every run's start, then their prefix parity.

The length kind picks the members that run.  length_kernel(coder, kind)
decides it, and alone checks that the coder has the kind: under concrete,
model_class runs only its members with a concrete code, as pair_shell has
none and cannot change a concrete length.  kind_lengths() scores one
kind through it, and the periodic and model_class encoders write the
winner of its concrete Score; code_word() scores both kinds with every
member.

Tie-breaks are deterministic: smallest period for periodic, listed order
for model_class.  Each minimum is one elementwise pass over a (choices,
rows) array.  The periodic key carries the period index in its low 6
bits, so the least key holds the least cost at its smallest period, and
the concrete model tag the same way, length << 3 | member; the ideal tag
is the argmin over the members, the first member on ties.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .bitio import BitReader, BitWriter, DecodeError, _bit_length, _gamma_len, elias_gamma_len
from .entropy import ceil_log2, log2_multinomial
from .shellcode import concrete_len_shell, decode_shell, encode_shell, ideal_len_shell
from .words import _LEADING, BitWord, PackedRows, block_ones, prefix_ones, unpacked

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


class Score(NamedTuple):
    """One length kind's lengths, one entry per row or per cut of a single
    row, and the winner where the coder picks one, else None: tag, for
    model_class, the MODEL_MEMBERS index of the kind's first shortest
    member; period, for periodic and model_class's periodic member, the
    least-cost period, the smallest on ties."""

    lengths: np.ndarray
    tag: np.ndarray | None = None
    period: np.ndarray | None = None


@dataclass(frozen=True)
class CoderId:
    """Identifies a coder by its name in CODER_NAMES."""

    name: str

    def __post_init__(self):
        if self.name not in _CODERS:
            raise ValueError(f"unknown coder {self.name!r}")


LENGTH_KINDS = ("ideal", "concrete")


def length_kernel(coder: CoderId, kind: str):
    """The kernel that scores the coder's lengths of one kind: under
    concrete, model_class runs its members with a concrete code only, the
    only ones its concrete length reads; every other coder and kind takes
    the coder's own kernel.  Raises ValueError, before any kernel is built,
    on an unknown kind and on concrete for a coder without a concrete code."""
    if kind not in LENGTH_KINDS:
        raise ValueError(f"unknown length kind {kind!r}")
    if kind == "concrete":
        if not is_concrete(coder):
            raise ValueError(f"coder {coder.name} has no concrete code")
        if coder.name == "model_class":
            return partial(_ModelClass, kind="concrete")
    return _CODERS[coder.name].kernel


@dataclass(frozen=True)
class CodeResult:
    """Description length of one word under one coder.

    concrete_len is None for purely ideal coders (pair_shell); model_tag
    names model_class's ideal winner, the ideal Score's tag.
    """

    coder: CoderId
    ideal_len: float
    concrete_len: int | None
    model_tag: str | None = None


def is_concrete(coder: CoderId) -> bool:
    return _CODERS[coder.name].encode is not None


def concrete_coder_ids() -> tuple[CoderId, ...]:
    """All built-in coders with a concrete prefix-free code."""
    return tuple(CoderId(name) for name, entry in _CODERS.items() if entry.encode is not None)


# ---------------------------------------------------------------------------
# batched length kernels: packed rows -> Score
#
# A kernel is built on one block of rows and its cuts, kernel(block, cuts),
# block a PackedRows (of which it reads the shape only) and cuts the
# strictly increasing prefix lengths it scores, (n,) by default; cuts other
# than n come with a single row.  add(chunk, c) takes the block's columns
# c, c + 1, ... that chunk, a PackedRows too, holds, the chunks coming left
# to right and each starting at a multiple of 64 columns, and records the
# kernel's integer statistics at every cut inside the chunk, from prefix
# sums over the chunk's words: the shell weight and the pair kernel's
# block tallies (words.prefix_ones), the periodic mismatch counts, and the
# run-length kernel's gamma lengths of the runs closed before the cut plus
# the cut's open run.  One finishes(kinds) then turns every cut's
# statistics into each kind's Score, the one the prefix gets when scored on
# its own, one entry per cut of a row or per row of a block.  As every
# chunk starts at a multiple of 64 columns, no 2-bit block spans two chunks
# and the first chunk holds the periodic pattern, a row's first word; only
# a run spans chunks, which the run-length kernel carries into the next
# one.


def _tabulate(fns, keys: np.ndarray, cuts: Sequence[int]) -> list[np.ndarray]:
    """fn(m, key) of each entry's cut m and integer key, for each (fn,
    dtype) of fns, keys being (rows, cuts) of a single row or a single cut:
    once per cut of a row, or once per distinct key of the rows of one cut.
    One flat array of dtype per fn."""
    inverse = None
    if keys.shape[-1] > 1:
        ms, keys = cuts, keys[0].tolist()
    else:
        keys = keys.reshape(-1)
        if len(keys) > 1:
            keys, inverse = np.unique(keys, return_inverse=True)
        keys = keys.tolist()
        ms = [cuts[0]] * len(keys)
    tables = [np.array(list(map(fn, ms, keys)), dtype=dtype) for fn, dtype in fns]
    return tables if inverse is None else [table[inverse] for table in tables]


def _integral(lengths: np.ndarray, period: np.ndarray | None = None) -> dict[str, Score]:
    """Both Scores of a coder whose ideal length is its integer concrete
    length, as a float, whatever the kinds asked for."""
    return {"ideal": Score(lengths.astype(np.float64), None, period), "concrete": Score(lengths, None, period)}


class _Kernel:
    """A block's row count and cuts, the cuts the chunks so far held, and
    what the kernel recorded at them; add(chunk, c) hands record() the cuts
    inside the chunk, and finishes(kinds) makes the Score of each of the
    kinds from them, in one pass where the kinds share their work (a
    kernel may give more kinds than asked for)."""

    def __init__(self, block: PackedRows, cuts: Sequence[int] | None = None):
        self.rows = len(block)
        self.cuts = cuts or (block.shape[1],)
        self.taken = 0
        self.parts = []

    def _take(self, c: int, n: int) -> tuple[list[int], int]:
        """The cuts in the chunk of n columns from column c on, counted from
        c, then n if no cut falls there, as the chunk's totals carry into
        the next; and how many of them are cuts."""
        cuts, taken = self.cuts, self.taken
        if cuts[taken] >= c + n:  # at most one cut, at the chunk's end; the last cut ends the last chunk
            self.taken += cuts[taken] == c + n
            return [n], int(cuts[taken] == c + n)
        stop = self.taken = bisect_right(cuts, c + n, taken)
        local = [m - c for m in cuts[taken:stop]]
        if local[-1] != n:
            local.append(n)
        return local, stop - taken

    def add(self, chunk: PackedRows, c: int) -> None:
        self.record(chunk, c, *self._take(c, chunk.n))


class _Counted(_Kernel):
    """A kernel whose statistics are integer counts that add up over the
    columns: tally(chunk, c, js) counts each row's first j columns of the
    chunk, (..., len(js)), and a cut's counts are the chunks' before it
    plus its own chunk's."""

    before = None  # the counts of the chunks so far, at the last one's end

    def record(self, chunk: PackedRows, c: int, js: list[int], cuts: int) -> None:
        counts = self.tally(chunk, c, js)
        if self.before is not None:  # in int64 over the chunks
            counts = np.add(counts, self.before[..., -1:], dtype=np.int64)
        if cuts:
            self.parts.append(counts if cuts == len(js) else counts[..., :cuts])
        self.before = counts

    @property
    def counts(self) -> np.ndarray:
        """The counts at every cut, cuts on the last axis."""
        return self.parts[0] if len(self.parts) == 1 else np.concatenate(self.parts, axis=-1)


class _Literal(_Kernel):
    """The constant n."""

    def record(self, chunk: PackedRows, c: int, js: list[int], cuts: int) -> None:
        pass

    def finishes(self, kinds: Sequence[str]) -> dict[str, Score]:
        m = np.array(self.cuts, dtype=np.int64)
        return _integral(m.repeat(self.rows) if self.rows > 1 else m)


class _Shell(_Counted):
    """Each row's weight, a popcount of its packed words."""

    def tally(self, chunk: PackedRows, c: int, js: list[int]) -> np.ndarray:
        return prefix_ones(chunk.words, chunk.n, js)

    def finishes(self, kinds: Sequence[str]) -> dict[str, Score]:
        lengths = {"ideal": (ideal_len_shell, np.float64), "concrete": (concrete_len_shell, np.int64)}
        tables = _tabulate([lengths[kind] for kind in kinds], self.counts, self.cuts)
        return {kind: Score(table) for kind, table in zip(kinds, tables)}


def _ends(chunk: PackedRows) -> np.ndarray:
    """The packed mask of the columns of every row that end a maximal
    constant run, those whose bit differs from the next, and the last: each
    word xor itself shifted up one column, the next word's first bit
    carried in, with the last column set."""
    x = chunk.words
    ends = x << 1
    if x.shape[1] > 1:
        ends[:, :-1] |= x[:, 1:] >> 63
    ends ^= x
    ends[:, -1] |= np.uint64(1 << (63 - (chunk.n - 1) % 64))
    return ends


def _end_columns(ends: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The columns of the ends of every row of a packed end mask of n
    columns, row by row and left to right, counted in rows of n, and the
    row of each (None for a single row).  The mask is unpacked in whole
    bytes a row, whose columns past n hold no end."""
    m = len(ends)
    width = 8 * -(-n // 8)
    cells = np.unpackbits(ends.astype(">u8").view(np.uint8)[:, : width // 8])
    at = np.flatnonzero(cells.view(np.bool_))  # flatnonzero is twice as fast on bool
    rows = None
    if m > 1:
        rows = at // width
        if width != n:
            at -= rows * (width - n)  # the ends' columns in rows of n
    return at, rows


def _run_lengths(at: np.ndarray) -> np.ndarray:
    """The lengths of the runs that end at the columns at, from column 0."""
    runs = np.empty_like(at)
    runs[0] = at[0] + 1
    np.subtract(at[1:], at[:-1], out=runs[1:])
    return runs


def _runs(ends: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Lengths of the maximal constant runs of every row of a packed end
    mask of n columns, row by row and left to right, and the row of each
    run (None for a single row)."""
    at, rows = _end_columns(ends, n)
    return _run_lengths(at), rows


# A chunk of at least _DENSE_CELLS cells with at least one run end per
# _DENSE_SPACING cells sums its gamma lengths from popcounts of its packed
# end mask (_gamma_sums), in a few rounds while its runs are short; any
# other chunk lists its run ends (_end_columns), at about 24 bytes a run:
# at most about 8 bytes a cell from _DENSE_CELLS cells up, 1.5 MiB below.
# The popcounts win on rows at p = 0.5 or 0.3 and lose on short chunks,
# whose fixed cost they raise, and on sparse ones (p = 0.1 and below),
# whose long runs take many rounds.  Each row's ends are counted once, a
# popcount of its packed mask, for the path and for the gamma sums of
# whole rows, and only on a chunk of _DENSE_CELLS cells or more.
_DENSE_CELLS = 1 << 16
_DENSE_SPACING = 3


def _dense(cells: int, counts: np.ndarray | None) -> bool:
    """Whether a chunk of cells cells with counts run ends a row (None
    below _DENSE_CELLS cells) takes the popcounts: at least _DENSE_CELLS
    cells, and one end per _DENSE_SPACING cells."""
    return cells >= _DENSE_CELLS and _DENSE_SPACING * int(counts.sum()) >= cells


def _gamma_sums(ends: np.ndarray, counts: np.ndarray, before: np.ndarray | None = None) -> np.ndarray:
    """Each row's sum of the Elias gamma lengths 2 * floor(log2 L) + 1 of
    its runs, the rows' end masks packed (rows, words) with counts ends a
    row: the number of runs plus twice the number of runs of at least 2^j
    bits for every j >= 1 (Knuth, TAOCP 4A, 7.1.3).  Given before, columns
    of a single row, the sum over the runs that end before each column,
    counts being the number of their ends.

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
    total = counts
    shift = 1
    while True:
        q, r = divmod(shift, 64)
        if q >= words:
            break
        # moved = pair shifted down within each row: column i takes column
        # i + shift, which sits r bits lower, q words on; no bit crosses a row
        if r:
            np.left_shift(pair[..., q:], r, out=moved[..., : words - q])
            moved[..., : words - q - 1] |= pair[..., q + 1 :] >> (64 - r)
        else:
            moved[..., : words - q] = pair[..., q:]
        moved[..., words - q :] = 0
        np.bitwise_and(moved[0], pair[1], out=pair[0])
        if before is None:
            longer = np.bitwise_count(pair[0]).sum(axis=-1, dtype=np.int64)
        else:  # a run ends before b when its mark is before b - 2 * shift + 1
            longer = prefix_ones(pair[0], 64 * words, np.maximum(before - (2 * shift - 1), 0))[0]
        if not longer.any():
            break
        total = total + 2 * longer
        pair[1] &= moved[1]
        shift *= 2
    return total


def _outer_ends(row: np.ndarray, before: list[int]) -> tuple[int, list[int]]:
    """The first set column of a packed row, and its last set column before
    each column b in before, -1 where none: the lowest set bit of b's word,
    its columns from b on cleared, or else of the last nonzero word before
    it."""
    nonzero = np.flatnonzero(row)
    k = int(nonzero[0])
    first = 64 * k + 64 - int(row[k]).bit_length()
    last = []
    for b in before:
        word, r = divmod(b, 64)
        head = int(row[word]) >> (64 - r) << (64 - r)  # the word's columns before b
        if not head:
            i = int(np.searchsorted(nonzero, word))  # the nonzero words before b's
            if not i:
                last.append(-1)
                continue
            word = int(nonzero[i - 1])
            head = int(row[word])
        last.append(64 * word + 64 - (head & -head).bit_length())
    return first, last


class _RunLength(_Kernel):
    """Each row's leading bit and the Elias gamma lengths of its runs, from
    the chunk's packed end mask: by popcounts on a dense chunk
    (_gamma_sums), from the list of its ends (_end_columns) on any other.
    Several rows come in one chunk of whole rows (see _scored), where every
    run closes.  One row may come in many chunks, cut anywhere: a cut's
    prefix has the runs that end before its last column, and its last run,
    from the end before that column on.  The run still open at a chunk's
    last column carries its bit and length into the next chunk, whose
    first run it extends or, on the other bit, ends."""

    closed = 0  # the gamma lengths of the runs closed before the chunk
    open_bit = open_len = None  # the run open at its end

    def record(self, chunk: PackedRows, c: int, js: list[int], cuts: int) -> None:
        ends = _ends(chunk)
        m, n = chunk.shape
        counts = np.bitwise_count(ends).sum(axis=1, dtype=np.int64) if m * n >= _DENSE_CELLS else None
        dense = _dense(m * n, counts)
        if m > 1:
            if dense:
                gamma = _gamma_sums(ends, counts)
            else:
                runs, rows = _runs(ends, n)
                del ends  # before the gamma lengths, which take about 24 bytes a run
                gamma = np.bincount(rows, weights=_gamma_len(runs), minlength=m).astype(np.int64)
            self.parts = 1 + gamma
            return
        if dense:
            columns = [j - 1 for j in js]  # each prefix's last column
            first, before = _outer_ends(ends[0], columns)
            if len(js) == 1:  # the chunk's end only: every run but the last
                closed = [int(_gamma_sums(ends, counts)[0]) - elias_gamma_len(columns[0] - before[0])]
            else:
                closed = _gamma_sums(ends, prefix_ones(ends, n, columns)[0], np.array(columns)).tolist()
        else:
            at, _ = _end_columns(ends, n)
            del ends
            bits = _bit_length(_run_lengths(at))
            first = int(at[0])
            if len(js) == 1:  # the chunk's end only: every run but the last
                closed = [2 * int(np.add.reduce(bits[:-1])) - len(at) + 1]
                before = [int(at[-2]) if len(at) > 1 else -1]
            else:
                np.cumsum(bits, out=bits)  # int32: a chunk's bit lengths sum to at most its cells
                k = np.searchsorted(at, [j - 1 for j in js]).tolist()  # the ends before each last column
                sums, before = bits[[i - 1 for i in k]].tolist(), at[[i - 1 for i in k]].tolist()
                closed = [2 * s - i if i else 0 for s, i in zip(sums, k)]
                before = [b if i else -1 for b, i in zip(before, k)]
        carried, length = self.closed, self.open_len
        same = length is not None and int(chunk.words[0, 0]) >> 63 == self.open_bit
        for i, (j, x, b) in enumerate(zip(js, closed, before)):
            y = j - 1 - b  # the prefix's last run, from the end before its last column on
            if length is not None:  # the run open at column c - 1
                x += carried
                if not same:  # ends at the chunk's first column
                    x += elias_gamma_len(length)
                elif j <= first + 1:  # extends the chunk's first run, the prefix's last
                    y += length
                else:  # extends the chunk's first run, closed before the prefix's last column
                    x += elias_gamma_len(first + 1 + length) - elias_gamma_len(first + 1)
            if i < cuts:
                self.parts.append(1 + x + elias_gamma_len(y))
        self.closed, self.open_len = x, y
        self.open_bit = int(chunk.words[0, -1]) >> (63 - (n - 1) % 64) & 1

    def finishes(self, kinds: Sequence[str]) -> dict[str, Score]:
        return _integral(np.array(self.parts, dtype=np.int64))


def _pattern_cost(p):
    """The periodic codeword's gamma(p) and p pattern bits; elementwise."""
    return _gamma_len(p) + p


def _mismatch_cost(n, mismatches):
    """The periodic codeword's gamma(r + 1) and r mismatch positions of
    ceil_log2(n + 1) = bit_length(n) bits; elementwise, n an int or an
    array of them."""
    return _gamma_len(mismatches + 1) + mismatches * (n.bit_length() if isinstance(n, int) else _bit_length(n))


def _periodic_cost(n: int, p, mismatches):
    """Periodic codeword length with period p and r mismatches; elementwise."""
    return _pattern_cost(p) + _mismatch_cost(n, mismatches)


# The part of _Periodic.finishes' key cost << 6 | p - 1 that depends on the
# period p alone, for p = 1 .. 64, as an int64 column.
_PERIOD_KEYS = (_pattern_cost(np.arange(1, 65)) << 6 | np.arange(64))[:, None]
# The key of a period longer than the cut, above every cost.
_NO_CODE = np.iinfo(np.int64).max


# For p = 1 .. 64, as uint64 of shape (64, 1, 1): p; the repunit sum of
# 2^(jp) over jp < 64, which tiles p bits over a word by one multiply; the
# p * (64 // p) bits s of the whole copies; and the shifts 64 - p, 64 - s
# and p + s - 64 of _tiled_words.  Then the number p / gcd(p, 64) of words
# after which a row of period p repeats.
_PERIODS = np.arange(1, 65, dtype=np.uint64)[:, None, None]
_REPUNITS = np.array([sum(1 << j for j in range(0, 64, p)) for p in range(1, 65)], dtype=np.uint64)[:, None, None]
_SPANS = 64 // _PERIODS * _PERIODS
_HEADS, _COPIES, _RESTS = 64 - _PERIODS, 64 - _SPANS, _PERIODS + _SPANS - 64
_CYCLES = [p // math.gcd(p, 64) for p in range(1, 65)]


def _tiled_words(pattern: np.ndarray, periods: range, c: int, words: int) -> np.ndarray:
    """(periods, words, rows) uint64: each row's first p columns, for every
    period p in periods (1 <= p <= 64), tiled over the packed words from
    column c on, pattern being each row's first packed word (at least its
    first p columns; any columns after them are ignored).

    The first p columns are the p-bit number v = pattern >> (64 - p), and
    v times the repunit of p has its copies at bits 0, p, 2p, ...: the
    copies do not overlap, so the product carries nothing.  Its s = p *
    (64 // p) low bits of whole copies, moved to the top, are columns
    0 .. s - 1 of the tiling, and the first 64 - s columns of v fill the
    rest: u = (v * repunit << (64 - s)) | (v >> (p + s - 64)), the word
    at column 0.  Word k starts at the phase f = (c + 64k) mod p, so it is
    u rotated by f within its s columns of whole copies,
    (u << f) | (u >> (s - f)) (Warren, Hacker's Delight, 2nd ed., ch. 2).
    The words repeat every p / gcd(p, 64); for more words the formula
    builds that many and run - 1 more, run = 64 // rows (at least 1), and
    one gather lays them out run by run: the run from word k on equals the
    built words from k mod (p / gcd(p, 64)) on.  The rows come last, so
    that many short rows make long inner loops."""
    m = len(pattern)
    top = len(periods)
    at = slice(periods.start - 1, periods.stop - 1)
    first = pattern >> _HEADS[at]
    tiled = first * _REPUNITS[at]
    tiled <<= _COPIES[at]  # a shift by 64 gives 0 in numpy
    first >>= _RESTS[at]
    tiled |= first
    run = max(1, 64 // m)
    built = min(words, max(_CYCLES[at]) + run - 1)
    phase = np.arange(c, c + 64 * built, 64, dtype=np.uint64)[:, None] % _PERIODS[at]
    rotated = tiled << phase
    rotated |= tiled >> (_SPANS[at] - phase)
    if built == words:
        return rotated
    starts = np.arange(0, words, run) % np.array(_CYCLES[at])[:, None]
    strides = rotated.strides
    runs = as_strided(rotated, (top, built - run + 1, run, m), strides[:2] + strides[1:])
    return runs[np.arange(top)[:, None], starts].reshape(top, -1, m)[:, :words]


def _mismatch_counts(pattern: np.ndarray, top: int, chunk: PackedRows, c: int, js: list[int]) -> np.ndarray:
    """(periods, rows, len(js)) counts of the first j columns of chunk, for
    each j in js, that differ from each row's first p columns tiled over
    the row, for every period p = 1 .. top <= 64, the chunk starting at
    column c of its rows and pattern being each row's first packed word:
    the prefix popcounts of the chunk's words xor _tiled_words (Warren,
    ch. 5), which read no column past j."""
    words = chunk.words.shape[1]
    tiled = _tiled_words(pattern, range(1, top + 1), c, words)
    tiled ^= chunk.words.T
    if chunk.n % 64:  # the chunk's padding is zero, the pattern's is not
        tiled[:, words - 1] &= _LEADING[chunk.n % 64]
    return prefix_ones(tiled.transpose(0, 2, 1), chunk.n, js)


class _Periodic(_Counted):
    """Each row's mismatch counts against its first p columns tiled over
    the row, for every period p <= min(p_max, n), at every cut; a cut of m
    columns scores the periods p <= min(p_max, m) only.  The pattern is
    the rows' first packed word, which the first chunk holds whole."""

    def __init__(self, block: PackedRows, cuts: Sequence[int] | None = None, p_max: int = P_MAX):
        if not 1 <= p_max <= 64:  # a pattern is one uint64 word
            raise ValueError(f"the periodic kernel takes 1 <= p_max <= 64, not {p_max}")
        super().__init__(block, cuts)
        self.top = min(p_max, block.shape[1])
        self.pattern = None

    def tally(self, chunk: PackedRows, c: int, js: list[int]) -> np.ndarray:
        if c == 0:
            self.pattern = chunk.words[:, 0]
        return _mismatch_counts(self.pattern, self.top, chunk, c, js)

    def finishes(self, kinds: Sequence[str]) -> dict[str, Score]:
        """Every entry's cost at its cheapest period, and that period; the
        smallest period wins ties.  Both come from one minimum over the
        periods of the key cost << 6 | p - 1, one elementwise pass over the
        (periods, entries) counts."""
        cuts = self.cuts
        top = min(self.top, cuts[-1])
        counts = self.counts[:top].reshape(top, -1)
        m = np.array(cuts) if len(cuts) > 1 else cuts[0]  # a row's cuts, or every row's n
        keys = np.left_shift(_mismatch_cost(m, counts), 6, dtype=np.int64)
        keys += _PERIOD_KEYS[:top]
        if cuts[0] < top:  # a row's cuts, the short ones lacking the long periods
            keys[np.arange(1, top + 1)[:, None] > m] = _NO_CODE
        best = keys.min(axis=0)
        return _integral(best >> 6, (best & 63) + 1)


class _PairShell(_Counted):
    """Each row's ones at the first bits of its disjoint 2-bit blocks, at
    their second bits, and its blocks 11, at every cut; a cut's odd
    trailing bit is left out.  As every chunk starts at an even column, no
    block spans two chunks."""

    def tally(self, chunk: PackedRows, c: int, js: list[int]) -> np.ndarray:
        return block_ones(chunk.words, chunk.n, [j - j % 2 for j in js])

    def finishes(self, kinds: Sequence[str]) -> dict[str, Score]:
        # The ideal Score only, whatever the kinds.  Key: the tallies (c01,
        # c10, c11) in base b = nb + 1, c00 being the rest of nb: c01 b^2 +
        # c10 b + c11, which weighs the ones at first bits by b, at second
        # bits by b^2 and the blocks 11 by 1 - b - b^2.  Every key is below
        # b^3: int64 while b^3 < 2^63, that is for cuts below about 2^22,
        # and Python ints above.
        cuts = self.cuts
        big = (cuts[-1] // 2 + 1) ** 3 >= 1 << 63
        counts = self.counts.reshape(3, -1).astype(object) if big else self.counts.reshape(3, -1)
        b = [m // 2 + 1 for m in cuts]
        weights = np.array([b, [x * x for x in b], [1 - x - x * x for x in b]], dtype=object if big else np.int64)

        def length(m, key):
            nb = m // 2
            b = nb + 1
            c = [key // (b * b), key // b % b, key % b]
            return log2_multinomial([nb - sum(c), *c]) + 4 * math.log2(nb + 1)

        (ideal,) = _tabulate([(length, np.float64)], (weights * counts).sum(axis=0).reshape(-1, len(cuts)), cuts)
        return {"ideal": Score(ideal + np.array(cuts) % 2)}


class _ModelClass(_Kernel):
    """The kernels of the model_class members the kind reads, every member
    by default, fed the same chunks and cuts."""

    def __init__(self, block: PackedRows, cuts: Sequence[int] | None = None, kind: str = "ideal"):
        super().__init__(block, cuts)
        self.members = {j: _CODERS[MODEL_MEMBERS[j]].kernel(block, cuts) for j in _KIND_MEMBERS[kind]}

    def record(self, chunk: PackedRows, c: int, js: list[int], cuts: int) -> None:
        for member in self.members.values():
            member.record(chunk, c, js, cuts)

    def finishes(self, kinds: Sequence[str]) -> dict[str, Score]:
        """The tag bits plus each kind's shortest member length, over the
        kind's _KIND_MEMBERS; the tag names that member, the first on ties,
        and the period is the periodic member's.  Each member is finished
        once for all the kinds.  The ideal tag is the argmin over the
        (members, entries) lengths, every member in order; the concrete
        length and tag come from one minimum of the key
        (MODEL_TAG_BITS + length) << 3 | member."""
        finished = {j: member.finishes(kinds) for j, member in self.members.items()}
        out = {}
        for kind in kinds:
            lengths = np.array([finished[j][kind].lengths for j in _KIND_MEMBERS[kind]])
            if kind == "ideal":
                tag = lengths.argmin(axis=0)
                lengths = lengths.min(axis=0) + MODEL_TAG_BITS
            else:
                lengths <<= 3
                lengths += _CONCRETE_KEYS
                best = lengths.min(axis=0)
                tag, lengths = best & 7, best >> 3
            out[kind] = Score(lengths, tag, finished[MODEL_MEMBERS.index("periodic")][kind].period)
        return out


def _scored(kernel, rows: PackedRows, cuts: Sequence[int] | None = None):
    """kernel(block, cuts) for every block of packed rows, at most
    _CHUNK_BYTES // 8 cells a block while a row fits (one row at least):
    the rows when they fit one block, as a word does, else slices of the
    words.  Each is fed its columns once, in packed chunks from left to
    right, up to the last of the strictly increasing cuts, which are for
    one row only (n by default).  A chunk holds at most _CHUNK_BYTES // 8
    cells: whole rows while a row fits, else one row in chunks of a
    multiple of 64 columns (64 at least), slices of the row's words; the
    kernel records every cut inside a chunk, so no chunk ends at a cut but
    the last."""
    cells, m, n = _CHUNK_BYTES // 8, len(rows.words), rows.n
    width = n if n <= cells else max(64, cells - cells % 64)
    step = max(1, cells // n)
    end = cuts[-1] if cuts else n
    for first in range(0, m, step):
        block = rows if step >= m else PackedRows(rows.words[first : first + step], n)
        scorer = kernel(block, cuts)
        for c in range(0, end, width):
            scorer.add(block.columns(c, min(end, c + width)), c)
        yield scorer


def _lengths(kernel, rows: PackedRows, kind: str, cuts: Sequence[int] | None = None) -> Score:
    """The kind's Score of every row of packed rows, or of one row's prefix
    at every cut, the blocks' scores joined."""
    parts = [scorer.finishes((kind,))[kind] for scorer in _scored(kernel, rows, cuts)]
    if len(parts) == 1:
        return parts[0]
    return Score(*(None if part[0] is None else np.concatenate(part) for part in zip(*parts)))


def _prefix_points(points: Sequence[int], n: int) -> list[int]:
    """The prefix lengths points, checked to be integers (operator.index)
    that increase strictly from 1 to at most n, as Python ints."""
    try:
        points = list(map(operator.index, points))
    except TypeError:
        raise ValueError("prefix lengths must be integers") from None
    if not points or points[0] < 1 or points[-1] > n:
        raise ValueError(f"prefix lengths must lie in 1..{n}")
    if any(b <= a for a, b in zip(points, points[1:])):
        raise ValueError("prefix lengths must be strictly increasing")
    return points


def kind_lengths(coder: CoderId, bits, kind: str, cuts: Sequence[int] | None = None) -> Score:
    """The Score of one length kind, ideal or concrete, of every row of a
    0/1 matrix, of packed rows or of a BitWord as one row, each as
    code_word() scores it; or, given cuts, of the word's prefixes of every
    length m in cuts, each as scored alone.  Its lengths are float64 under
    ideal and int64 under concrete; its tag and period name the winner
    (see Score).  The cuts are integers that increase strictly from 1 to
    at most the word's length; the kernel, length_kernel()'s, takes the
    columns once up to the last cut, records its statistics at every cut
    and finishes them all at once.  bits becomes packed rows once, by
    PackedRows.of: a matrix is checked and packed there, and a BitWord's or
    packed rows' words, whose bits past column n are zero, are sliced,
    never unpacked or packed."""
    kernel = length_kernel(coder, kind)
    rows = PackedRows.of(bits)
    if cuts is not None:
        if len(rows) != 1:
            raise ValueError("prefix cuts take a single word")
        cuts = _prefix_points(cuts, rows.n)
    return _lengths(kernel, rows, kind, cuts)


def _one_row(coder: CoderId, word: BitWord) -> CodeResult:
    """Both kinds of the word from one pass of the coder's kernel."""
    (scorer,) = _scored(_CODERS[coder.name].kernel, PackedRows.of(word))
    scores = scorer.finishes(LENGTH_KINDS)  # pair_shell's ideal only
    ideal, concrete = scores["ideal"], scores.get("concrete")
    return CodeResult(
        coder,
        float(ideal.lengths[0]),
        None if concrete is None else int(concrete.lengths[0]),
        model_tag=None if ideal.tag is None else MODEL_MEMBERS[ideal.tag[0]],
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


def _encode_literal(word: BitWord, out: BitWriter) -> None:
    out.write_uint(int.from_bytes(word.packed.astype(">u8").tobytes(), "big") >> (-word.n % 64), word.n)


def _decode_literal(n: int, reader: BitReader) -> BitWord:
    return BitWord.from_uint(reader.read_uint(n), n)


def _encode_run_length(word: BitWord, out: BitWriter) -> None:
    out.write_bit(int(word.packed[0]) >> 63)
    out.write_elias_gammas(_runs(_ends(PackedRows.of(word)), word.n)[0])


# The decoders read the runs of at most _DECODE_BLOCK columns at a time and
# flip at most that many columns at a time, which bounds their temporaries
# to a few dozen bytes a column of a block.  A run-length decode builds a
# word of at most _SHORT_WORD columns in a Python loop over its runs, below
# the fixed cost of the packed build.
_DECODE_BLOCK = 1 << 16
_SHORT_WORD = 256
# _COLUMNS[c]: the bit of column c of a packed word.
_COLUMNS = np.uint64(1) << np.arange(63, -1, -1, dtype=np.uint64)


def _flip(words: np.ndarray, columns: np.ndarray) -> None:
    """Flip each listed column of the packed words, in place; a column
    listed twice flips back."""
    for first in range(0, columns.size, _DECODE_BLOCK):
        block = columns[first : first + _DECODE_BLOCK]
        np.bitwise_xor.at(words, block >> 6, _COLUMNS[block & 63])


def _decode_run_length(n: int, reader: BitReader) -> BitWord:
    """The runs alternate from the first bit.  A flip at column 0 for a
    first bit 1 and at every later run's start, in packed words, makes the
    word their prefix parity: bit i is the parity of the flips at columns
    0 .. i.  Read as one integer, column 0 its top bit, that is x ^= x >> s
    for s = 1, 2, 4, ... below the width (Warren, Hacker's Delight, 2nd ed.,
    5-2)."""
    bit = reader.read_bit()
    if n <= _SHORT_WORD:
        runs = reader.read_elias_gammas(n).tolist()
        if sum(runs) > n:
            raise DecodeError("run overruns the declared word length")
        value = 0
        for run in runs:
            value = value << run | ((1 << run) - 1) * bit
            bit ^= 1
        return BitWord.from_uint(value, n)
    flips = np.zeros(-(-n // 64), dtype=np.uint64)
    flips[0] = bit << 63
    start = 0  # the column of the next run
    while start < n:
        runs = reader.read_elias_gammas(min(n - start, _DECODE_BLOCK))
        if runs[-1] > n - start:  # so that the sum stays int64
            raise DecodeError("run overruns the declared word length")
        ends = np.cumsum(runs)
        ends += start
        start = int(ends[-1])
        if start > n:
            raise DecodeError("run overruns the declared word length")
        _flip(flips, ends[:-1] if start == n else ends)
    x = int.from_bytes(flips.astype(">u8").tobytes(), "big")
    del flips
    shift = 1
    while shift < n:
        x ^= x >> shift
        shift <<= 1
    return BitWord.from_bytes(x.to_bytes(-(-n // 64) * 8, "big"), n)


def _encode_periodic(word: BitWord, out: BitWriter, p: int | None = None) -> None:
    """The periodic codeword with period p, by default its Score's."""
    if p is None:
        p = int(kind_lengths(CoderId("periodic"), word, "concrete").period[0])
    n, packed = word.n, word.packed
    tiled = _tiled_words(packed[:1], range(p, p + 1), 0, len(packed))
    positions = np.flatnonzero(unpacked(tiled.reshape(-1) ^ packed, n).view(np.bool_))  # flatnonzero is faster on bool
    out.write_elias_gamma(p)
    out.write_uint(int(packed[0]) >> (64 - p), p)
    out.write_elias_gamma(positions.size + 1)
    out.write_uints(positions, ceil_log2(n + 1))


def _decode_periodic(n: int, reader: BitReader) -> BitWord:
    p = reader.read_elias_gamma()
    if p > min(P_MAX, n):  # the encoder writes p <= min(P_MAX, n) only
        raise DecodeError(f"period {p} exceeds min(P_MAX, n) = {min(P_MAX, n)}")
    pattern = np.array([reader.read_uint(p) << (64 - p)], dtype=np.uint64)
    r = reader.read_elias_gamma() - 1
    positions = reader.read_uints(r, ceil_log2(n + 1))
    if r and positions.max() >= n:
        pos = positions[np.argmax(positions >= n)]
        raise DecodeError(f"mismatch position {pos} out of range")
    words = _tiled_words(pattern, range(p, p + 1), 0, -(-n // 64)).reshape(-1)
    words[-1] &= _LEADING[n % 64 or 64]
    _flip(words, positions)
    return BitWord._from_packed(words, n)


def _encode_model_class(word: BitWord, out: BitWriter) -> None:
    score = kind_lengths(CoderId("model_class"), word, "concrete")
    tag = int(score.tag[0])  # the first shortest concrete member
    out.write_uint(tag, MODEL_TAG_BITS)
    if MODEL_MEMBERS[tag] == "periodic":  # the score's period saves the encoder a second scan
        _encode_periodic(word, out, int(score.period[0]))
    else:
        _CODERS[MODEL_MEMBERS[tag]].encode(word, out)


def _decode_model_class(n: int, reader: BitReader) -> BitWord:
    tag = reader.read_uint(MODEL_TAG_BITS)
    decode = _CODERS[MODEL_MEMBERS[tag]].decode if tag < len(MODEL_MEMBERS) else None
    if decode is None:
        raise DecodeError(f"invalid model tag {tag}")
    return decode(n, reader)


def encode_word(coder: CoderId, word: BitWord) -> np.ndarray:
    """Concrete codeword bits for the word; n is side information for decoding."""
    length_kernel(coder, "concrete")  # raises for a coder without a concrete code
    out = BitWriter()
    _CODERS[coder.name].encode(word, out)
    return out.getvalue()


def decode_word(coder: CoderId, n: int, source) -> BitWord:
    """Decode a concrete codeword back to the original word of known length n."""
    length_kernel(coder, "concrete")  # raises for a coder without a concrete code
    if n < 1:
        raise ValueError("length must be >= 1")
    reader = source if isinstance(source, BitReader) else BitReader(source)
    return _CODERS[coder.name].decode(n, reader)


# ---------------------------------------------------------------------------
# coder table


@dataclass(frozen=True)
class _Coder:
    """One coder: its length kernel, its one-row length function (the
    exported k_* function, so each call is named after its coder) and, for
    concrete coders, its codec."""

    kernel: type
    length: Callable[[BitWord], CodeResult]
    encode: Callable[[BitWord, BitWriter], None] | None = None
    decode: Callable[[int, BitReader], BitWord] | None = None


# Order fixes both the model tag values and the model_class tie-break.
_CODERS = {
    "literal": _Coder(_Literal, k_len, _encode_literal, _decode_literal),
    "shell": _Coder(_Shell, k_comb, lambda w, out: out.write_bits(encode_shell(w).bits), decode_shell),
    "run_length": _Coder(_RunLength, k_run_length, _encode_run_length, _decode_run_length),
    "periodic": _Coder(_Periodic, k_periodic, _encode_periodic, _decode_periodic),
    "pair_shell": _Coder(_PairShell, k_pair_shell),
    "model_class": _Coder(_ModelClass, k_model_class, _encode_model_class, _decode_model_class),
}
CODER_NAMES = tuple(_CODERS)
MODEL_MEMBERS = tuple(name for name in CODER_NAMES if name != "model_class")
# The MODEL_MEMBERS indices of the members each length kind reads: every
# one under ideal, those with a concrete code under concrete.
_KIND_MEMBERS = {
    "ideal": tuple(range(len(MODEL_MEMBERS))),
    "concrete": tuple(j for j, name in enumerate(MODEL_MEMBERS) if _CODERS[name].encode is not None),
}
# the low bits of each concrete member's model_class key, with the tag bits
_CONCRETE_KEYS = np.array(_KIND_MEMBERS["concrete"])[:, None] + (MODEL_TAG_BITS << 3)
