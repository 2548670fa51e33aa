import numpy as np
import pytest

from kadjust import BitWord, CoderId, PairCounts, coders
from kadjust.coders import is_concrete, kind_lengths

# 35-bit running example word: 9 ones among 35 symbols.
WORD35_STR = "01010001001000001010000100000100001"

# Joint cell counts (c_ab = #{i: x_i=a, y_i=b}) of the paired fixture.
TABLE1 = dict(c00=19, c01=7, c10=6, c11=3)


@pytest.fixture
def word35() -> BitWord:
    return BitWord.from01(WORD35_STR)


@pytest.fixture
def table1_counts() -> PairCounts:
    return PairCounts(**TABLE1)


@pytest.fixture
def table1_pair() -> tuple[BitWord, BitWord]:
    """A concrete (x, y) pair realizing the fixture counts."""
    xbits, ybits = [], []
    for (a, b), c in (((0, 0), TABLE1["c00"]), ((0, 1), TABLE1["c01"]),
                      ((1, 0), TABLE1["c10"]), ((1, 1), TABLE1["c11"])):
        xbits += [a] * c
        ybits += [b] * c
    return BitWord(xbits), BitWord(ybits)


def all_words(n: int):
    """Every word of length n, in integer order."""
    for v in range(1 << n):
        yield BitWord.from_uint(v, n)


def lengths_of(coder, bits, cuts=None) -> tuple[np.ndarray, np.ndarray | None]:
    """The ideal and the concrete lengths kind_lengths() gives the rows of
    bits, or a word's prefixes at cuts; concrete is None for a coder
    without a concrete code."""
    ideal = kind_lengths(coder, bits, "ideal", cuts).lengths
    return ideal, kind_lengths(coder, bits, "concrete", cuts).lengths if is_concrete(coder) else None


def periodic_scan(bits, p_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(cost, period) of every row of bits, a BitWord or a 0/1 matrix, at
    the period bound p_max, 1 <= p_max <= 64: kind_lengths() with P_MAX set
    to p_max for the call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coders, "P_MAX", p_max)
        score = kind_lengths(CoderId("periodic"), bits, "concrete")
    return score.lengths, score.period


def random_word(rng: np.random.Generator, n: int) -> BitWord:
    return BitWord(rng.integers(0, 2, size=n, dtype=np.uint8))


# Sequential SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the reference
# oracle for the package's vectorized splitmix_outputs / uniform_floats.
GAMMA = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def mix64(z: int) -> int:
    """SplitMix64 finalizer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential SplitMix64 stream, one output per call."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & MASK64
        return mix64(self._state)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53


def derive_seed(seed: int, index: int) -> int:
    """Output index + 1 of SplitMix64(seed): the seed of stream `index`."""
    return mix64((seed + (index + 1) * GAMMA) & MASK64)
