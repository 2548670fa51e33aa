import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kadjust import BitWord, CoderId, GeneratorSpec, PairCounts, generate
from kadjust import kind_lengths
from kadjust.bitio import BitReader, DecodeError
from kadjust.words import PackedRows, block_ones

from conftest import WORD35_STR

bit_lists = st.lists(st.integers(0, 1), min_size=1, max_size=200)


class TestBitWord:
    def test_basic_construction(self):
        w = BitWord([0, 1, 1])
        assert w.n == 3 and w.weight == 2
        assert w.to01() == "011"
        assert list(w) == [0, 1, 1]

    def test_from01_round_trip(self):
        assert BitWord.from01("0101").to01() == "0101"

    def test_rejects_empty_and_nonbinary(self):
        with pytest.raises(ValueError):
            BitWord([])
        with pytest.raises(ValueError):
            BitWord([0, 2])
        for text in ("01a", "0 1", "/", "0\u00e91", ""):  # "/" wraps to 255, "\u00e9" is not ASCII
            with pytest.raises(ValueError):
                BitWord.from01(text)

    @pytest.mark.parametrize(
        "bits",
        [[0.5, 1.7], np.array([0.9]), [1.0, 0.0], [-1], [256],
         np.array([256], dtype=np.int64), ["1"]],
    )
    def test_rejects_non_integer_and_negative(self, bits):
        # Each of these used to be coerced by the uint8 cast or to raise
        # OverflowError, which callers handling ValueError do not catch.
        with pytest.raises(ValueError):
            BitWord(bits)

    def test_accepts_bool_and_wide_integer_arrays(self):
        assert BitWord(np.array([True, False])).to01() == "10"
        assert BitWord(np.array([0, 1], dtype=np.int64)).to01() == "01"

    def test_immutable(self):
        w = BitWord([1, 0])
        with pytest.raises(ValueError):
            w.bits[0] = 0

    def test_from_uint(self):
        assert BitWord.from_uint(5, 4).to01() == "0101"
        assert BitWord.from_uint(0, 3).to01() == "000"
        with pytest.raises(ValueError):
            BitWord.from_uint(8, 3)
        rng = np.random.default_rng(3)
        for n in (1, 7, 8, 9, 63, 64, 65, 130):
            value = int.from_bytes(rng.bytes(17), "big") >> (136 - n)
            assert BitWord.from_uint(value, n).to01() == format(value, f"0{n}b")

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_index_reads_the_packed_words(self, n):
        w = BitWord(np.random.default_rng(n).integers(0, 2, n))
        bits = w.tolist()
        assert [w[i] for i in range(-n, n)] == bits + bits
        assert [w[i] for i in np.arange(-n, n)] == bits + bits
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                w[i]

    def test_keeps_only_packed_words(self):
        """A word built from an array, or generated, holds its packed words
        alone, 1/8 byte a bit, and not the 0/1 array, 1 byte a bit."""
        n = 1 << 22
        bits = np.random.default_rng(4).integers(0, 2, n, dtype=np.uint8)
        tracemalloc.start()
        try:
            words = [BitWord(bits)]
            built = tracemalloc.get_traced_memory()[0]
            words.append(generate(GeneratorSpec.bernoulli(0.3, 9, n)))
            generated = tracemalloc.get_traced_memory()[0] - built
        finally:
            tracemalloc.stop()
        assert built <= 0.2 * n and generated <= 0.2 * n, (built / n, generated / n)

    def test_prefix_and_equality(self):
        w = BitWord.from01("110010")
        assert w.prefix(3) == BitWord.from01("110")
        assert hash(w.prefix(3)) == hash(BitWord.from01("110"))
        with pytest.raises(ValueError):
            w.prefix(0)
        with pytest.raises(ValueError):
            w.prefix(7)


def _two_at_end(size: int) -> np.ndarray:
    bits = np.zeros(size, dtype=np.uint8)
    bits[-1] = 2
    return bits


class TestOneBitCheck:
    """BitWord, kind_lengths and BitReader share one 0/1 check."""

    @pytest.mark.parametrize(
        "bad",
        # uint8 arrays of 2048 and 2049 entries sit on both sides of the
        # check's switch from bytes.translate to max
        [_two_at_end(2048), _two_at_end(2049), np.array([-1], dtype=np.int64),
         np.array([256], dtype=np.int64), np.array([0.5]), ["1"]],
        ids=["uint8-2048", "uint8-2049", "int64-neg", "int64-256", "float", "str"],
    )
    def test_same_inputs_rejected(self, bad):
        with pytest.raises(ValueError) as word_error:
            BitWord(bad)
        with pytest.raises(ValueError) as kernel_error:
            kind_lengths(CoderId("shell"), np.asarray(bad)[None], "ideal")
        assert word_error.type is ValueError and kernel_error.type is ValueError
        with pytest.raises(DecodeError):
            BitReader(bad)

    @pytest.mark.parametrize("dtype", [np.bool_, np.int64])
    def test_bool_and_integer_arrays_accepted(self, dtype):
        bits = np.array([1, 0, 0, 1, 1], dtype=dtype)
        assert BitWord(bits).tolist() == [1, 0, 0, 1, 1]
        assert kind_lengths(CoderId("literal"), bits[None], "concrete").lengths.tolist() == [5]
        assert BitReader(bits).read_uint(5) == 0b10011


class TestWeight:
    def test_all_zeros(self):
        assert BitWord.from01("0000").weight == 0

    def test_all_ones(self):
        assert BitWord.from01("1111").weight == 4

    def test_running_example_word(self):
        assert BitWord.from01(WORD35_STR).weight == 9

    @given(bit_lists)
    def test_matches_sum(self, bits):
        assert BitWord(bits).weight == sum(bits)


class TestCounts:
    def test_pair_counts_from_words(self):
        x = BitWord.from01("0011")
        y = BitWord.from01("0101")
        pc = PairCounts.from_words(x, y)
        assert (pc.c00, pc.c01, pc.c10, pc.c11) == (1, 1, 1, 1)
        assert pc.n == 4

    def test_pair_counts_length_mismatch(self):
        with pytest.raises(ValueError):
            PairCounts.from_words(BitWord.from01("01"), BitWord.from01("011"))

    @given(bit_lists, st.randoms())
    def test_pair_counts_total(self, bits, rnd):
        y = [rnd.randint(0, 1) for _ in bits]
        pc = PairCounts.from_words(BitWord(bits), BitWord(y))
        assert pc.n == len(bits)


def block_counts(rows: PackedRows) -> np.ndarray:
    """(rows, 3) of block_ones over every row's disjoint 2-bit blocks: the
    ones at even positions, the ones at odd positions and the blocks 11;
    an odd trailing bit is left out."""
    return block_ones(rows.words, rows.n, [rows.n - rows.n % 2])[..., 0].T


class TestBlockCounts:
    """block_ones on one word: first bits, second bits and blocks 11."""

    @staticmethod
    def counts(text: str) -> list[int]:
        return block_counts(PackedRows(BitWord.from01(text).packed[None], len(text)))[0].tolist()

    def test_direct_reading(self):
        assert self.counts("000111") == [1, 2, 1]

    def test_single_bit(self):
        assert self.counts("0") == [0, 0, 0]
        assert self.counts("1") == [0, 0, 0]

    def test_block_order_is_first_then_second(self):
        assert self.counts("10") == [1, 0, 0]
        assert self.counts("01") == [0, 1, 0]

    @given(bit_lists)
    def test_block_identity(self, bits):
        first, second, both = block_counts(PackedRows.of(np.array([bits], dtype=np.uint8)))[0]
        nb = len(bits) // 2
        assert first + second == sum(bits[: 2 * nb])
        assert both == sum(a & b for a, b in zip(bits[: 2 * nb : 2], bits[1 : 2 * nb : 2]))


class TestBlockTallies:
    @staticmethod
    def reference(bits: np.ndarray) -> np.ndarray:
        """The first bits, second bits and blocks 11 of every row, from the
        bincount of its blocks 00, 01, 10, 11."""
        nb = bits.shape[1] // 2
        pairs = 2 * bits[:, : 2 * nb : 2].astype(np.intp) + bits[:, 1 : 2 * nb : 2]
        c = np.array([np.bincount(row, minlength=4) for row in pairs]).reshape(-1, 4)
        return np.stack([c[:, 2] + c[:, 3], c[:, 1] + c[:, 3], c[:, 3]], axis=1)

    @pytest.mark.parametrize("n", [1, 2, 3, 13, 63, 64, 65, 127, 129, 1001, 4159])
    def test_matches_bincount_on_many_rows(self, n):
        rng = np.random.default_rng(n)
        bits = (rng.random((300, n)) < rng.random((300, 1))).astype(np.uint8)
        assert np.array_equal(block_counts(PackedRows.of(bits)), self.reference(bits))

    def test_one_long_row(self):
        bits = (np.random.default_rng(2).random((1, (1 << 17) + 1)) < 0.3).astype(np.uint8)
        assert np.array_equal(block_counts(PackedRows.of(bits)), self.reference(bits))
