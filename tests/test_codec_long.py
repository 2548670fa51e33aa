"""Long codewords: the shell rank and unrank against a sequential oracle,
and the codeword bits of every concrete coder pinned on long words."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from kadjust import BitWord, CoderId, ShellId, code_word, concrete_coder_ids, decode_word, encode_word, rank, unrank
from kadjust.shellcode import _BLOCK_FROM, _RANK_CHUNK, _RANK_FROM

# sha256 over the codewords of test_long_codeword_bits_pinned; change it only
# with an intended change of bitstream.
LONG_CODEWORD_DIGEST = "2c87c4a5e6bd6547613a1d9ba85fa7f25e3843a8e9ae803d38a8b88bbcec857b"


def rank_reference(word: BitWord) -> int:
    """Sequential rank: one exact bigint update per bit."""
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


def unrank_reference(n: int, k: int, index: int) -> BitWord:
    """Sequential unrank: one exact bigint comparison and update per bit."""
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


def _seeded(n: int, p: float) -> BitWord:
    rng = np.random.default_rng([n, round(100 * p)])
    return BitWord((rng.random(n) < p).astype(np.uint8))


def _ones_at(n: int, ones) -> BitWord:
    bits = np.zeros(n, dtype=np.uint8)
    bits[list(ones)] = 1
    return BitWord(bits)


def _long_words() -> dict[str, BitWord]:
    words = {
        f"bernoulli({p})/{n}": _seeded(n, p)
        for n in (1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15)
        for p in (0.02, 0.1, 0.5, 0.9)
    }
    n = 1 << 12
    words["k=1 first"] = _ones_at(n, [0])
    words["k=1 middle"] = _ones_at(n, [n // 2 + 3])
    words["k=1 last"] = _ones_at(n, [n - 1])
    words["k=n-1 first"] = BitWord(1 - _ones_at(n, [0]).bits)
    words["k=n-1 middle"] = BitWord(1 - _ones_at(n, [n // 3]).bits)
    # half random, then a run of ones to the end
    tail = _seeded(n, 0.5).bits.copy()
    tail[n // 2 :] = 1
    words["trailing ones"] = BitWord(tail)
    # 1 0^z 1^(k-1): its rank is exactly C(n-1, k), the count of the words
    # starting with 0, so the first comparison of unrank is a tie
    for z, k in ((3000, 1096), (2048, 2048), (4000, 96)):
        words[f"1 0^{z} 1^{k - 1}"] = BitWord([1] + [0] * z + [1] * (k - 1))
    return words


LONG_WORDS = _long_words()


@pytest.mark.parametrize("label", list(LONG_WORDS))
def test_rank_unrank_match_reference(label):
    word = LONG_WORDS[label]
    index = rank_reference(word)
    assert rank(word) == index
    assert unrank(ShellId(word.n, word.weight), index) == word
    assert unrank_reference(word.n, word.weight, index) == word


def test_tie_word_rank_is_binomial():
    for label, word in LONG_WORDS.items():
        if label.startswith("1 0^"):
            assert rank(word) == math.comb(word.n - 1, word.weight), label


def test_long_codeword_bits_pinned():
    digest = hashlib.sha256()
    for coder in concrete_coder_ids():
        for label, word in LONG_WORDS.items():
            bits = encode_word(coder, word)
            assert decode_word(coder, word.n, bits) == word, (coder.name, label)
            digest.update(f"{coder.name}:{label}:".encode())
            digest.update(np.packbits(bits).tobytes())
            digest.update(f":{bits.size};".encode())
    assert digest.hexdigest() == LONG_CODEWORD_DIGEST


# Words for the block walks of rank and unrank, kept out of LONG_WORDS,
# whose codewords the digest above pins.


def _at_width(width: int, n0: int = 64) -> tuple[int, int]:
    """The shortest balanced shell (n, n // 2), n >= n0, whose C(n-1, k)
    has the given number of bits."""
    n = n0
    while math.comb(n - 1, n // 2).bit_length() < width:
        n += 1
    assert math.comb(n - 1, n // 2).bit_length() == width
    return n, n // 2


def _block_walk_end(word: BitWord) -> tuple[int, bool]:
    """The position where rank's block walk hands over to its per-bit loop,
    and whether a chunk of the walk ends there, by the rank's rule: while
    C(m, r) has more than _RANK_FROM bits, chunks of blocks of width / 64
    positions, a power of two from 128 to 1024, each chunk at most
    _RANK_CHUNK positions and stopping where C(m, r) would narrow at its
    present bits a position."""
    n, r = word.n, word.weight
    bits = word.tolist()
    m = n - 1
    c = math.comb(m, r)
    i = stop = 0
    while (width := c.bit_length()) > _RANK_FROM:
        if i == stop:
            b = 1 << min(max(width.bit_length() - 7, 7), 10)
            ahead = m - m * _RANK_FROM // width
            stop = i + min(-(-ahead // b) * b, _RANK_CHUNK, m - m % b)
        for bit in bits[i : i + b]:
            if bit:
                c = c * r // m
                r -= 1
            else:
                c = c * (m - r) // m
            m -= 1
        i += b
    return i, i == stop


def _block_walk_words() -> dict[str, BitWord]:
    words = {}
    # just wide at rank's threshold, at 1024 bits (a walk of a few blocks of
    # 128 positions) and at unrank's threshold
    for threshold in (_RANK_FROM, 1024, _BLOCK_FROM):
        for width in (threshold, threshold + 1):
            n, k = _at_width(width)
            rng = np.random.default_rng([n, k])
            bits = np.zeros(n, dtype=np.uint8)
            bits[rng.choice(n, k, replace=False)] = 1
            words[f"C(n-1,k) of {width} bits"] = BitWord(bits)
    for last in (0, 1):  # the last bit of the block walk
        for seed in range(100):
            word = BitWord((np.random.default_rng([4096, seed]).random(4096) < 0.5).astype(np.uint8))
            if word[_block_walk_end(word)[0] - 1] == last:
                words[f"block walk ends on {last}"] = word
                break
    # the walk hands over to the per-bit loop where a chunk ends, or inside
    # one: a fair first half, then a sparser second half, on which C(m, r)
    # narrows sooner than the chunk's estimate
    for seed in range(100):
        density = np.repeat([0.5, 0.5 - seed / 200], 2048)
        word = BitWord((np.random.default_rng([4096, seed, 1]).random(4096) < density).astype(np.uint8))
        edge = _block_walk_end(word)[1]
        words.setdefault(f"hands over {'at a chunk edge' if edge else 'inside a chunk'}", word)
    for n in (3072, 1 << 14):
        for pos in (0, n // 2 + 1, n - 1):
            words[f"k=1 at {pos}/{n}"] = _ones_at(n, [pos])
            words[f"k=n-1 at {pos}/{n}"] = BitWord(1 - _ones_at(n, [pos]).bits)
    return words


BLOCK_WALK_WORDS = _block_walk_words()


def test_block_walk_words_cover_both_endings():
    assert {"block walk ends on 0", "block walk ends on 1"} <= set(BLOCK_WALK_WORDS)


def test_block_walk_words_cover_both_handovers():
    assert {"hands over at a chunk edge", "hands over inside a chunk"} <= set(BLOCK_WALK_WORDS)


@pytest.mark.parametrize("label", list(BLOCK_WALK_WORDS))
def test_block_walks_match_reference(label):
    word = BLOCK_WALK_WORDS[label]
    index = rank_reference(word)
    assert rank(word) == index
    assert unrank(ShellId(word.n, word.weight), index) == word


@pytest.mark.parametrize("n", [1 << 12, 1 << 13])
@pytest.mark.parametrize("share", [2, 10])
def test_rank_inverts_unrank_at_the_ends(n, share):
    shell = ShellId(n, n // share)
    for index in (0, 1, shell.size - 1):
        word = unrank(shell, index)
        assert word == unrank_reference(n, shell.k, index)
        assert rank(word) == index


@pytest.mark.parametrize(
    "n,p", [(n, p) for n in ((1 << 15) - 1, 1 << 15, (1 << 15) + 1, (1 << 15) + 7) for p in (0.02, 0.5, 0.98)]
    + [(1 << 17, 0.02)],
)
def test_rank_across_the_uint64_groups(n, p):
    """rank multiplies out 4 positions in a uint64 up to 2^15 bits and 2
    past it; n - 1 is a multiple of no block.  At 2^17 bits the product of
    4 positions would overflow a uint64."""
    word = _seeded(n, p)
    assert rank(word) == rank_reference(word)


@pytest.mark.parametrize("n", [1 << 12, 1 << 14])
def test_rank_where_the_zeros_run_out_inside_a_block(n):
    """60 zeros among the first 100 positions, then ones: at the last zero
    m == r, so the first block's num is 0 and C(m, r) drops to 0 inside it,
    which ends the block walk."""
    bits = np.ones(n, dtype=np.uint8)
    bits[np.random.default_rng(n).choice(100, 60, replace=False)] = 0
    word = BitWord(bits)
    assert _block_walk_end(word)[0] == 128
    assert rank(word) == rank_reference(word)


def test_rank_peaks_below_8_bytes_a_bit():
    """rank reads the packed words a chunk at a time and builds no list of
    the word (8 bytes a bit alone): at 2^17 bits it peaks at about 7.7
    bytes a bit, most of it shell_size's prime powers.  Its walk takes
    blocks of every size, 1024 positions down to 128, and unrank, checked
    against the sequential oracle above, takes its index back to the word."""
    word = _seeded(1 << 17, 0.5)
    tracemalloc.start()
    try:
        index = rank(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * word.n, peak / word.n
    assert unrank(ShellId(word.n, word.weight), index) == word


def _decode_peak(name: str, word: BitWord) -> float:
    """The tracemalloc peak of decoding the word's codeword, in bytes a bit
    of the word, the codeword made before tracing starts."""
    coder = CoderId(name)
    codeword = encode_word(coder, word)
    tracemalloc.start()
    try:
        decoded = decode_word(coder, word.n, codeword)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decoded == word
    return peak / word.n


def test_run_length_decode_peaks_below_2_bytes_a_bit():
    """The decoder reads the runs a block of columns at a time and writes
    packed words: at 2^22 bits, p = 0.5, it peaks at about 1.5 bytes a bit."""
    assert _decode_peak("run_length", _seeded(1 << 22, 0.5)) < 2


@pytest.mark.parametrize("name", ["literal", "model_class"])
def test_literal_decode_peaks_below_1_byte_a_bit(name):
    """A p = 0.5 word is its own codeword (model_class behind its tag): the
    reader's packed bytes and the word read from them as one integer, about
    0.53 bytes a bit at 2^22 bits."""
    assert _decode_peak(name, _seeded(1 << 22, 0.5)) < 1


def test_periodic_decode_peaks_below_1_byte_a_bit():
    """Period 7 with a flip every 1000 bits: the tiled packed words and the
    flips, about 0.2 bytes a bit at 2^22 bits."""
    n = 1 << 22
    bits = np.resize(np.random.default_rng(7).integers(0, 2, 7, dtype=np.uint8), n)
    bits[7::1000] ^= 1
    assert _decode_peak("periodic", BitWord(bits)) < 1


def test_random_word_periodic_decode_peaks_below_8_bytes_a_bit():
    """A random word's periodic codeword lists about n / 2 mismatches of 23
    bits each, 11.5 bits a word bit: their int64 positions (4 bytes a bit)
    and the packed codeword, about 5.9 bytes a bit at 2^22 bits."""
    assert _decode_peak("periodic", _seeded(1 << 22, 0.5)) < 8


def _period_7(n: int) -> BitWord:
    """Period 7 with a flip every 1000 bits."""
    bits = np.resize(np.random.default_rng(7).integers(0, 2, 7, dtype=np.uint8), n)
    bits[7::1000] ^= 1
    return BitWord(bits)


@pytest.mark.parametrize(
    "name,word,bound",
    [
        ("literal", lambda n: _seeded(n, 0.5), 1.5),
        ("periodic", _period_7, 1.5),
        ("model_class", lambda n: _seeded(n, 0.5), 1.5),
        ("run_length", lambda n: _seeded(n, 0.02), 2),
        ("run_length", lambda n: _seeded(n, 0.5), 9),
    ],
    ids=["literal-p0.5", "periodic-period7", "model_class-p0.5", "run_length-p0.02", "run_length-p0.5"],
)
def test_encode_peaks(name, word, bound):
    """Each encoder writes its fields into one packed writer and unpacks the
    codeword once: at 2^22 bits the codeword's 0/1 array is 1 byte a
    codeword bit, and literal, period-7 periodic and model_class (literal
    behind its tag) peak at about 1.3-1.4 bytes a word bit.  run_length at
    p = 0.5 peaks at about 8.1, set by its int64 run list; shell is left
    out, as its rank is quadratic."""
    coder, word = CoderId(name), word(1 << 22)
    length = code_word(coder, word).concrete_len  # before tracing: it fills the entropy caches encode reads
    tracemalloc.start()
    try:
        codeword = encode_word(coder, word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(codeword) == length
    assert peak <= bound * word.n, peak / word.n
