"""Prefix cuts in one pass: kind_lengths(coder, word, kind, cuts) equals
each prefix scored alone, for every coder and length kind: its lengths
and its winners, model_class's tag and the periodic period.

The kernels record their statistics at every cut inside a chunk, from
prefix sums over the chunk's words, and finish every cut at once; chunks
end at the chunk budget only.  The cases below reach the edges of that:
every cut of every short word, cuts at and around word boundaries, odd
cuts (pair_shell's trailing bit), a cut inside a run that crosses a chunk
edge, cuts at the chunk budget and one either side of it, constant
prefixes, and the run-length kernel's popcount path at every chunk size.
"""

import numpy as np
import pytest

from kadjust import CODER_NAMES, BitWord, CoderId, adjusted
from kadjust import coders
from kadjust.coders import Score, is_concrete, kind_lengths
from kadjust.stats import adjusted_prefixes
from kadjust.words import PackedRows, packed_rows

KINDS = ("ideal", "concrete")


def coder_kinds() -> list[tuple[str, str]]:
    return [
        (name, kind)
        for name in CODER_NAMES
        for kind in (KINDS if is_concrete(CoderId(name)) else ("ideal",))
    ]


def entries(score: Score) -> list[tuple]:
    """A Score's (length, tag, period) at each of its entries, None for a
    winner the coder does not name."""
    fields = ([None] * len(score.lengths) if field is None else field.tolist() for field in score)
    return list(zip(*fields))


def alone(coder: CoderId, bits: np.ndarray, kind: str, cuts) -> list:
    """Each prefix's entries of the kind, every row of bits cut at m and
    scored without cuts: (rows, cuts)."""
    return [list(row) for row in zip(*(entries(kind_lengths(coder, bits[:, :m], kind)) for m in cuts))]


def all_words(n: int) -> np.ndarray:
    shifts = np.arange(n - 1, -1, -1)
    return ((np.arange(1 << n)[:, None] >> shifts) & 1).astype(np.uint8)


def seeded_rows(n: int) -> np.ndarray:
    """Rows at p = 0.5, 0.1 and 0.01, and one constant for its first half."""
    rng = np.random.default_rng(n)
    rows = [(rng.random(n) < p).astype(np.uint8) for p in (0.5, 0.1, 0.01)]
    half = (rng.random(n) < 0.3).astype(np.uint8)
    half[: n // 2] = 1
    return np.stack(rows + [half])


def assert_cuts_score_alone(name: str, kind: str, bits: np.ndarray, cuts, want=None):
    coder = CoderId(name)
    want = alone(coder, bits, kind, cuts) if want is None else want
    for row, expected in zip(bits, want):
        got = entries(kind_lengths(coder, BitWord(row), kind, cuts))
        assert got == expected, (name, kind, len(row), [(m, g, w) for m, g, w in zip(cuts, got, expected) if g != w])


@pytest.mark.parametrize("name, kind", coder_kinds())
def test_every_cut_of_every_short_word(name, kind):
    coder = CoderId(name)
    for n in range(1, 13):
        words = all_words(n)
        packed = packed_rows(words)
        want = alone(coder, words, kind, range(1, n + 1))
        got = [entries(kind_lengths(coder, PackedRows(packed[i : i + 1], n), kind, range(1, n + 1)))
               for i in range(len(words))]
        assert got == want, n


@pytest.mark.parametrize("name, kind", coder_kinds())
def test_cuts_at_word_boundaries_and_odd_cuts(name, kind):
    # 1, 2 and 63, 64, 65, 127, 128: inside the first word, at and around
    # its end and the second's; the odd ones leave pair_shell a trailing bit
    for n in (200, 1000):
        rng = np.random.default_rng(n)
        odd = sorted({int(m) | 1 for m in rng.integers(129, n, 6)})
        cuts = [1, 2, 3, 63, 64, 65, 127, 128] + [m for m in odd if m < n] + [n]
        assert_cuts_score_alone(name, kind, seeded_rows(n), cuts)


@pytest.mark.parametrize("budget", [1 << 10, 1 << 13])
@pytest.mark.parametrize("name, kind", coder_kinds())
def test_cuts_around_the_chunk_budget(monkeypatch, budget, name, kind):
    cells = budget // 8
    n = 3 * cells + 37
    bits = seeded_rows(n)
    # a run over the whole second chunk and half of each neighbour, so that
    # its parts' gamma lengths differ from the whole's, cut on either side
    # of each edge and at its end; and a run that ends 5 columns past the
    # first edge, cut at its end and either side of it
    bits[2, cells // 2 - 1 : 2 * cells + cells // 2 + 1] = [0] + [1] * (2 * cells) + [0]
    bits[1, cells - 11 : cells + 6] = [0] + [1] * 15 + [0]
    cuts = [1, 64, cells - 5, cells - 1, cells, cells + 1, cells + 3, cells + 4, cells + 5, cells + 6,
            2 * cells - 1, 2 * cells, 2 * cells + 1, 2 * cells + 4, 2 * cells + cells // 2,
            2 * cells + cells // 2 + 1, 3 * cells, n]
    want = alone(CoderId(name), bits, kind, cuts)  # scored at the default budget
    monkeypatch.setattr(coders, "_CHUNK_BYTES", budget)
    assert_cuts_score_alone(name, kind, bits, cuts, want)


@pytest.mark.parametrize("cells", [64, 1 << 10, 1 << 17])
def test_run_length_popcounts_at_cuts(monkeypatch, cells):
    # every chunk takes the popcounts, in one chunk or in many, with cuts
    # inside runs that cross a chunk edge
    n = 2 * cells + 100
    bits = seeded_rows(n)
    bits[1, cells - 40 : cells + 40] = 0
    cuts = sorted({1, 2, 63, 65, cells // 2 + 1, cells - 1, cells, cells + 1, cells + 39, cells + 41, n - 1, n})
    want = {kind: alone(CoderId("run_length"), bits, kind, cuts) for kind in KINDS}
    monkeypatch.setattr(coders, "_DENSE_CELLS", 1)
    monkeypatch.setattr(coders, "_DENSE_SPACING", 1 << 40)
    monkeypatch.setattr(coders, "_CHUNK_BYTES", 8 * cells)
    for kind in KINDS:
        assert_cuts_score_alone("run_length", kind, bits, cuts, want[kind])


@pytest.mark.parametrize("name, kind", coder_kinds())
def test_constant_prefixes_give_none_rows(name, kind):
    bits = np.zeros(300, dtype=np.uint8)
    bits[200:] = np.random.default_rng(2).integers(0, 2, 100, dtype=np.uint8)
    bits[250] = 1  # a one past the constant head, whatever the seed
    word, cuts = BitWord(bits), [1, 2, 64, 65, 199, 200, 201, 300]
    assert_cuts_score_alone(name, kind, bits[None], cuts)
    rows = adjusted_prefixes(word, CoderId(name), cuts, kind)
    assert rows == [adjusted(word.prefix(m), CoderId(name), kind) for m in cuts]
    constant = [not 0 < bits[:m].sum() < m for m in cuts]
    assert [row.R is None for row in rows] == constant and constant[:6] == [True] * 6


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ["periodic", "model_class"])
def test_winners_at_cuts_inside_and_across_chunks(monkeypatch, name, kind):
    # chunks of 256 columns: cuts inside the first chunk, on either side of
    # each edge and every 37 columns across them, on rows where the
    # winning member and period change from cut to cut
    n = 1000
    rng = np.random.default_rng(37)
    bits = np.concatenate([seeded_rows(n), [np.resize(rng.integers(0, 2, 7), n) ^ (rng.random(n) < 0.02)]])
    bits[4, 600:] = np.resize([1, 1, 0], n - 600)  # period 7, then period 3
    edges = {m + d for m in (256, 512, 768) for d in (-1, 0, 1)}
    cuts = sorted(set(range(1, n + 1, 37)) | edges | {n})
    want = alone(CoderId(name), bits, kind, cuts)
    monkeypatch.setattr(coders, "_CHUNK_BYTES", 8 * 256)
    assert_cuts_score_alone(name, kind, bits, cuts, want)
    winners = {entry[1] if name == "model_class" else entry[2] for row in want for entry in row}
    assert len(winners) >= 3, winners
