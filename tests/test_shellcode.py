import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kadjust import (
    BitWord,
    CoderId,
    ShellId,
    decode_shell,
    decode_word,
    encode_shell,
    rank,
    shell_log_size,
    shell_size,
    unrank,
)
from kadjust.bitio import BitReader, DecodeError, elias_gamma_len
from kadjust.shellcode import concrete_len_shell, ideal_len_shell

from conftest import WORD35_STR, all_words


def enumerate_shell(n: int, k: int) -> list[str]:
    """Oracle: all length-n weight-k words in ascending lexicographic order."""
    words = []
    for ones in combinations(range(n), k):
        bits = ["0"] * n
        for i in ones:
            bits[i] = "1"
        words.append("".join(bits))
    return sorted(words)


class TestRankUnrank:
    def test_lexicographic_minimum(self):
        assert rank(BitWord.from01("0011")) == 0

    def test_against_enumeration(self):
        shell = enumerate_shell(4, 2)
        assert shell == ["0011", "0101", "0110", "1001", "1010", "1100"]
        assert rank(BitWord.from01("1100")) == 5
        assert unrank(ShellId(4, 2), 3).to01() == "1001"
        assert unrank(ShellId(4, 2), 0).to01() == "0011"

    def test_singleton_shells(self):
        assert rank(BitWord.from01("1111")) == 0
        assert unrank(ShellId(6, 0), 0).to01() == "000000"

    def test_unrank_range_error(self):
        with pytest.raises(ValueError):
            unrank(ShellId(4, 2), 6)
        with pytest.raises(ValueError):
            unrank(ShellId(4, 2), -1)

    def test_bijection_and_order_exhaustive(self):
        # rank agrees with the sorted enumeration, hence is strictly
        # monotone in lexicographic order; unrank inverts it.
        for n in range(1, 13):
            for k in range(n + 1):
                shell = ShellId(n, k)
                for idx, text in enumerate(enumerate_shell(n, k)):
                    word = BitWord.from01(text)
                    assert rank(word) == idx
                    assert unrank(shell, idx) == word

    @given(st.integers(1, 64), st.data())
    def test_round_trip_random(self, n, data):
        k = data.draw(st.integers(0, n))
        idx = data.draw(st.integers(0, shell_size(n, k) - 1))
        word = unrank(ShellId(n, k), idx)
        assert word.n == n and word.weight == k
        assert rank(word) == idx


class TestIdealLength:
    def test_zero_weight_shell(self):
        assert ideal_len_shell(35, 0) == pytest.approx(math.log2(36), abs=1e-9)

    def test_running_example(self):
        word = BitWord.from01(WORD35_STR)
        got = ideal_len_shell(word.n, word.weight)
        assert got == pytest.approx(26.073 + 5.170, abs=0.01)

    def test_balanced_thousand(self):
        word = BitWord([0, 1] * 500)
        oracle = math.log2(math.comb(1000, 500)) + math.log2(1001)
        got = ideal_len_shell(word.n, word.weight)
        assert got == pytest.approx(oracle, abs=1e-9)
        assert got == pytest.approx(1004.6, abs=0.5)


class TestShellCodec:
    def test_known_layout(self):
        # k=2 header is gamma(3) = 011; rank 0 of C(4,2)=6 needs 3 bits.
        cw = encode_shell(BitWord.from01("0011"))
        assert cw.header_bits.tolist() == [0, 1, 1]
        assert cw.index_bits.tolist() == [0, 0, 0]
        assert cw.concrete_len == 6
        assert decode_shell(4, BitReader(cw.bits)) == BitWord.from01("0011")

    def test_round_trip_exhaustive_n12(self):
        n = 12
        for word in all_words(n):
            assert decode_shell(n, BitReader(encode_shell(word).bits)) == word

    def test_byte_layout_round_trip(self):
        word = BitWord.from01(WORD35_STR)
        # header bits then index bits, MSB first, zero-padded to a byte boundary
        data = np.packbits(encode_shell(word).bits).tobytes()
        assert decode_word(CoderId("shell"), 35, data) == word

    def test_concrete_len_formula(self):
        for n in (1, 5, 12, 35):
            for word in (BitWord([1] * n), BitWord([0] * n)):
                cw = encode_shell(word)
                k = word.weight
                size = shell_size(n, k)
                width = (size - 1).bit_length() if size > 1 else 0
                assert cw.concrete_len == elias_gamma_len(k + 1) + width
                assert cw.concrete_len == concrete_len_shell(n, k)

    def test_ideal_concrete_gap(self):
        # Header inefficiency: 0 <= concrete - ideal <= 2 log2(k+2) + 2.
        for n in range(1, 17):
            for k in range(n + 1):
                word = unrank(ShellId(n, k), 0)
                gap = encode_shell(word).concrete_len - shell_log_size(n, k)
                assert 0.0 <= gap <= 2 * math.log2(k + 2) + 2

    def test_prefix_free_per_length(self):
        for n in range(1, 13):
            codes = sorted(
                "".join(map(str, encode_shell(w).bits.tolist())) for w in all_words(n)
            )
            for a, b in zip(codes, codes[1:]):
                assert not b.startswith(a), (n, a, b)

    def test_kraft_sum_length_10(self):
        total = Fraction(0)
        for word in all_words(10):
            total += Fraction(1, 2 ** encode_shell(word).concrete_len)
        assert total <= 1

    def test_decode_errors(self):
        with pytest.raises(DecodeError):
            decode_shell(4, BitReader(np.array([0, 0, 0, 0], dtype=np.uint8)))  # truncated gamma
        # weight header exceeding n
        with pytest.raises(DecodeError):
            bad = encode_shell(BitWord.from01("111"))
            decode_shell(2, BitReader(bad.bits))
        # index out of range: k=2, n=3 -> width 2, ranks valid 0..2
        reader = BitReader(np.array([0, 1, 1, 1, 1], dtype=np.uint8))
        with pytest.raises(DecodeError):
            decode_shell(3, reader)
