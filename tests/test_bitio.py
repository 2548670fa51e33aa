import tracemalloc

import numpy as np
import pytest

from kadjust import CoderId, decode_word
from kadjust.bitio import BitReader, BitWriter, DecodeError, elias_gamma_len


def _gamma_values() -> list[int]:
    """Powers of two up to 2^40 and their neighbours, plus seeded values."""
    values = {1, 2, 3}
    for j in range(2, 41):
        values |= {(1 << j) - 1, 1 << j, (1 << j) + 1}
    rng = np.random.default_rng(40)
    values |= set(rng.integers(1, 1 << 40, 200).tolist())
    return sorted(values)


class TestBitReader:
    @pytest.mark.parametrize("size", [5, 2048, 2049])
    def test_checks_uint8_streams_on_both_sides_of_the_translate_limit(self, size):
        bits = np.tile(np.array([1, 0], dtype=np.uint8), size)[:size]
        reader = BitReader(bits)
        assert reader.read_bits(size).tolist() == bits.tolist()
        bits[-1] = 2
        with pytest.raises(DecodeError):
            BitReader(bits)
        with pytest.raises(DecodeError):
            BitReader(bits[:-1].reshape(1, -1))

    def test_read_bits(self):
        reader = BitReader(np.array([1, 0, 1, 1, 0], dtype=np.uint8))
        assert reader.read_bits(0).tolist() == []
        assert reader.read_bits(3).tolist() == [1, 0, 1]
        with pytest.raises(DecodeError):
            reader.read_bits(3)
        assert reader.pos == 3
        assert reader.read_bits(2).tolist() == [1, 0]
        with pytest.raises(DecodeError):
            reader.read_bits(1)
        with pytest.raises(DecodeError):
            reader.read_bits(-1)

    def test_bytes_input(self):
        reader = BitReader(bytes([0b10110000, 0xFF]))
        assert reader.remaining == 16
        assert reader.read_uint(4) == 0b1011
        assert reader.read_bits(4).tolist() == [0, 0, 0, 0]
        assert reader.read_uint(8) == 255
        writer = BitWriter()
        writer.write_uint(0xABC, 12)
        reader = BitReader(np.packbits(writer.getvalue()).tobytes())
        assert reader.read_uint(12) == 0xABC
        assert reader.read_uint(4) == 0  # the byte padding

    def test_input_kinds(self):
        for bits in ([1, 0, 1], (1, 0, 1), np.array([True, False, True]),
                     np.array([1, 0, 1], dtype=np.int64)):
            assert BitReader(bits).read_uint(3) == 5
        assert BitReader([]).remaining == 0

    def test_non_binary_rejected(self):
        for bits in ([0, 2], np.array([1, 3], dtype=np.uint8), [1, -1], [0.0, 1.0],
                     np.zeros((2, 2), dtype=np.uint8)):
            with pytest.raises(DecodeError):
                BitReader(bits)


class TestIntegers:
    def test_uint_round_trip(self):
        writer = BitWriter()
        for width in range(71):
            for value in (0, (1 << width) - 1):
                writer.write_uint(value, width)
        assert len(writer) == 2 * sum(range(71))
        reader = BitReader(writer.getvalue())
        for width in range(71):
            for value in (0, (1 << width) - 1):
                assert reader.read_uint(width) == value
        assert reader.remaining == 0

    def test_uint_layout(self):
        writer = BitWriter()
        writer.write_uint(6, 5)
        assert writer.getvalue().tolist() == [0, 0, 1, 1, 0]

    def test_uint_range_errors(self):
        writer = BitWriter()
        for value, width in ((1, 0), (8, 3), (-1, 4), (1 << 70, 70)):
            with pytest.raises(ValueError):
                writer.write_uint(value, width)
        with pytest.raises(ValueError):
            writer.write_uint(0, -1)
        assert len(writer) == 0
        reader = BitReader([1, 0])
        with pytest.raises(DecodeError):
            reader.read_uint(-1)
        with pytest.raises(DecodeError):
            reader.read_uint(3)

    def test_batched_uints_match_single(self):
        rng = np.random.default_rng(7)
        for width in (1, 5, 17, 32, 63):
            values = rng.integers(0, 1 << width, 300, dtype=np.int64)
            values[:2] = 0, (1 << width) - 1
            single, batched = BitWriter(), BitWriter()
            for v in values.tolist():
                single.write_uint(v, width)
            batched.write_uints(values, width)
            assert np.array_equal(batched.getvalue(), single.getvalue())
            assert len(batched) == len(single) == 300 * width
            reader = BitReader(batched.getvalue())
            assert reader.read_uints(300, width).tolist() == values.tolist()
            assert reader.remaining == 0
        empty = BitWriter()
        empty.write_uints([], 4)
        assert len(empty) == 0
        assert BitReader([1]).read_uints(0, 4).tolist() == []

    def test_huge_periodic_count_rejected_before_allocating(self):
        # gamma(1) + pattern bit + gamma(2^40 + 1): 2^40 mismatch positions
        # declared, eight bits of them present.
        stream = BitWriter()
        stream.write_elias_gamma(1)
        stream.write_bit(1)
        stream.write_elias_gamma((1 << 40) + 1)
        stream.write_uint(0, 8)
        tracemalloc.start()
        try:
            with pytest.raises(DecodeError):
                decode_word(CoderId("periodic"), 8, stream.getvalue())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_batched_uint_errors(self):
        writer = BitWriter()
        for values, width in (([8], 3), ([-1], 3), ([0], 0), ([0], 64)):
            with pytest.raises(ValueError):
                writer.write_uints(values, width)
        reader = BitReader([1] * 10)
        with pytest.raises(DecodeError):
            reader.read_uints(4, 3)  # 12 bits asked, 10 there
        with pytest.raises(DecodeError):
            reader.read_uints(1 << 40, 41)
        with pytest.raises(DecodeError):
            reader.read_uints(-1, 3)
        assert reader.pos == 0


class TestEliasGamma:
    def test_round_trip_and_lengths(self):
        values = _gamma_values()
        writer = BitWriter()
        for v in values:
            before = len(writer)
            writer.write_elias_gamma(v)
            assert len(writer) - before == elias_gamma_len(v)
        reader = BitReader(writer.getvalue())
        for v in values:
            before = reader.pos
            assert reader.read_elias_gamma() == v
            assert reader.pos - before == elias_gamma_len(v)
        assert reader.remaining == 0

    def test_layout(self):
        writer = BitWriter()
        writer.write_elias_gamma(8)
        assert writer.getvalue().tolist() == [0, 0, 0, 1, 0, 0, 0]

    def test_batched_gammas_match_single(self):
        # the values past 2^32 have codes wider than 64 bits
        for values in (_gamma_values(), [1] * 50, [5, 1 << 53, 3, (1 << 63) - 1]):
            single, batched = BitWriter(), BitWriter()
            for v in values:
                single.write_elias_gamma(v)
            batched.write_elias_gammas(values)
            assert np.array_equal(batched.getvalue(), single.getvalue())
            assert len(batched) == sum(elias_gamma_len(v) for v in values)
        with pytest.raises(ValueError):
            BitWriter().write_elias_gammas([3, 0])

    def test_truncated_codes(self):
        for bits in ([], [0, 0, 0], [0, 0, 1, 0]):
            with pytest.raises(DecodeError):
                BitReader(bits).read_elias_gamma()

    def test_batched_reads_stop_at_total(self):
        values = [3, 1, 1, 7, 2, 1 << 20, 1]
        writer = BitWriter()
        writer.write_elias_gammas(values)
        reader = BitReader(writer.getvalue())
        assert reader.read_elias_gammas(5) == [3, 1, 1]
        assert reader.read_elias_gammas(8) == [7, 2]
        assert reader.read_elias_gammas(0) == []
        assert reader.read_elias_gammas(2) == [1 << 20]
        assert reader.read_elias_gammas(1) == [1]
        assert reader.remaining == 0
        with pytest.raises(DecodeError):
            reader.read_elias_gammas(1)
        with pytest.raises(DecodeError):
            BitReader([0, 0, 1, 0]).read_elias_gammas(1)


def test_reader_keeps_the_checked_bits():
    bits = np.array([1, 0, 1, 1], dtype=np.uint8)
    reader = BitReader(bits)
    bits[:] = 7
    assert reader.read_bits(2).tolist() == [1, 0]
    assert reader.read_uint(2) == 3
