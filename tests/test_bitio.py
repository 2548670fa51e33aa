import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kadjust import CoderId, bitio, decode_word
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
        assert reader.read_uint(size) == int("".join(map(str, bits.tolist())), 2)
        bits[-1] = 2
        with pytest.raises(DecodeError):
            BitReader(bits)
        with pytest.raises(DecodeError):
            BitReader(bits[:-1].reshape(1, -1))

    def test_read_uint_bounds(self):
        reader = BitReader(np.array([1, 0, 1, 1, 0], dtype=np.uint8))
        assert reader.read_uint(0) == 0
        assert reader.read_uint(3) == 0b101
        with pytest.raises(DecodeError):
            reader.read_uint(3)
        assert reader.pos == 3
        assert reader.read_uint(2) == 0b10
        with pytest.raises(DecodeError):
            reader.read_uint(1)
        with pytest.raises(DecodeError):
            reader.read_uint(-1)

    def test_bytes_input(self):
        reader = BitReader(bytes([0b10110000, 0xFF]))
        assert reader.remaining == 16
        assert reader.read_uint(4) == 0b1011
        assert reader.read_uint(4) == 0
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
        for values, width in (([8], 3), ([-1], 3), ([0], 0), ([0], 64), ([1 << 64], 3), ([1 << 63], 63)):
            with pytest.raises(ValueError):
                writer.write_uints(values, width)
        for values in ([1.5], np.array([2.0]), [1, None]):
            with pytest.raises(TypeError):  # as write_uint raises, not truncated
                writer.write_uints(values, 3)
        assert len(writer) == 0
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
        with pytest.raises(ValueError):
            BitWriter().write_elias_gammas([3, 1 << 63])  # np.asarray makes this list float64
        with pytest.raises(TypeError):  # as write_elias_gamma raises, not gamma(2)
            BitWriter().write_elias_gammas([2.5])

    def test_truncated_codes(self):
        for bits in ([], [0, 0, 0], [0, 0, 1, 0]):
            with pytest.raises(DecodeError):
                BitReader(bits).read_elias_gamma()

    def test_batched_reads_stop_at_total(self):
        values = [3, 1, 1, 7, 2, 1 << 20, 1]
        writer = BitWriter()
        writer.write_elias_gammas(values)
        reader = BitReader(writer.getvalue())
        assert reader.read_elias_gammas(5).tolist() == [3, 1, 1]
        assert reader.read_elias_gammas(8).tolist() == [7, 2]
        assert reader.read_elias_gammas(0).tolist() == []
        assert reader.read_elias_gammas(2).tolist() == [1 << 20]
        assert reader.read_elias_gammas(1).tolist() == [1]
        assert reader.remaining == 0
        with pytest.raises(DecodeError):
            reader.read_elias_gammas(1)
        with pytest.raises(DecodeError):
            BitReader([0, 0, 1, 0]).read_elias_gammas(1)


def read_gammas_by_code(bits, pos: int, total: int) -> tuple[list[int], int]:
    """The batched gamma read as one loop over the codes: the values read
    from pos until they sum to total or more, and the position after them;
    DecodeError, with the position of the code cut short, when the stream
    ends first."""
    raw = np.asarray(bits, dtype=np.uint8).tobytes()
    values = []
    while total > 0:
        one = raw.find(1, pos)
        if one == pos:
            pos += 1
            values.append(1)
            total -= 1
            continue
        end = 2 * one - pos + 1
        if one < 0 or end > len(raw):
            raise DecodeError(pos)
        v = int(raw[one:end].translate(bytes.maketrans(b"\x00\x01", b"01")), 2)
        pos = end
        values.append(v)
        total -= v
    return values, pos


def _gamma_stream(values) -> np.ndarray:
    writer = BitWriter()
    for v in values:
        writer.write_elias_gamma(v)
    return writer.getvalue()


def _assert_reads_as_loop(bits, totals) -> None:
    """Consecutive batched reads of the totals give the loop's values and
    positions, or its DecodeError at its position."""
    reader, pos = BitReader(bits), 0
    for total in totals:
        try:
            want, pos = read_gammas_by_code(bits, pos, total)
        except DecodeError as error:
            with pytest.raises(DecodeError):
                reader.read_elias_gammas(total)
            assert reader.pos == error.args[0]
            return
        got = reader.read_elias_gammas(total)
        assert got.dtype == (np.int64 if max(want, default=0) >> 63 == 0 else object)
        assert got.tolist() == want
        assert reader.pos == pos


class TestArrayGammaReads:
    """read_elias_gammas against the loop it replaces, on streams of many
    codes, which it parses in windows."""

    @pytest.mark.parametrize("window", [64, 1000, 1 << 16])
    @pytest.mark.parametrize("p", [0.5, 0.1, 0.02])
    def test_run_streams_match_the_loop(self, monkeypatch, window, p):
        # a window of 64 bits is narrower than the widest codes here, so
        # codes straddle every window edge and some are read alone
        monkeypatch.setattr(bitio, "_WINDOW", window)
        rng = np.random.default_rng([window, round(100 * p)])
        runs = rng.geometric(p, 20_000)
        bits = _gamma_stream(runs.tolist())
        total = int(runs.sum())
        _assert_reads_as_loop(bits, [total])  # hit exactly
        _assert_reads_as_loop(bits, [total // 3, 1, total // 2, 7, total])  # overshoots, then runs out
        _assert_reads_as_loop(bits[: bits.size - 1], [total])  # cut inside the last code

    @pytest.mark.parametrize("window", [128, 1 << 16])
    def test_wide_values_match_the_loop(self, monkeypatch, window):
        # values with up to 46 leading zeros are parsed in windows, wider
        # ones one at a time; past 2^63 the values are Python ints
        monkeypatch.setattr(bitio, "_WINDOW", window)
        rng = np.random.default_rng(window)
        values = [int(v) for v in 1 + rng.integers(0, 1 << rng.integers(0, 47, 3000), dtype=np.int64)]
        for wide in ((1 << 47) - 1, 1 << 47, (1 << 63) - 1, 1 << 63, (1 << 64) + 5):
            values.insert(int(rng.integers(len(values))), wide)
        bits = _gamma_stream(values)
        _assert_reads_as_loop(bits, [sum(values[:1000]), 5, sum(values[1000:2000]) - 3, 1 << 80])
        _assert_reads_as_loop(bits, [sum(values)])

    @pytest.mark.parametrize("zeros", [63, 64, 100])
    def test_a_code_of_63_or_more_zeros_read_last(self, zeros):
        values = [1, 2, 3] * 200 + [(1 << zeros) + 12345]
        bits = _gamma_stream(values)
        _assert_reads_as_loop(bits, [sum(values[:-1]) + 1])
        _assert_reads_as_loop(bits, [sum(values)])
        _assert_reads_as_loop(bits[:-1], [sum(values)])  # cut inside it

    def test_a_zero_run_longer_than_a_window(self):
        values = [3, 1, 4, 1, 5] * 100 + [1 << 70_000, 2, 7]
        bits = _gamma_stream(values)
        assert bits.size > 140_000 > 2 * bitio._WINDOW
        _assert_reads_as_loop(bits, [sum(values[:-2]), 2, 7])
        _assert_reads_as_loop(bits, [sum(values[:-2]) + 1])
        # a stream of zeros only: exhausted at the code's start
        zeros = np.concatenate([_gamma_stream([1] * 300), np.zeros(3 * bitio._WINDOW, np.uint8)])
        _assert_reads_as_loop(zeros, [1000])

    @given(
        bits=st.lists(st.integers(0, 1), max_size=3000),
        totals=st.lists(st.integers(0, 1 << 12), min_size=1, max_size=4),
        window=st.sampled_from([64, 96, 1 << 16]),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_stream_matches_the_loop(self, bits, totals, window):
        original = bitio._WINDOW
        bitio._WINDOW = window
        try:
            _assert_reads_as_loop(np.array(bits, dtype=np.uint8), totals)
        finally:
            bitio._WINDOW = original


_GAMMA_VALUES = st.integers(1, (1 << 63) - 1)
_FIELDS = st.one_of(
    st.tuples(st.just("bit"), st.integers(0, 1)),
    st.integers(0, 200).flatmap(lambda w: st.tuples(st.just("uint"), st.integers(0, (1 << w) - 1), st.just(w))),
    st.integers(1, 63).flatmap(
        lambda w: st.tuples(st.just("uints"), st.lists(st.integers(0, (1 << w) - 1), max_size=40), st.just(w))
    ),
    st.tuples(st.just("gamma"), _GAMMA_VALUES),
    st.tuples(st.just("gammas"), st.lists(_GAMMA_VALUES, max_size=40)),
)


def _value_widths(field) -> list[tuple[int, int]]:
    """Each value of a field and its width in the stream."""
    kind, values, *width = field
    values = values if kind in ("uints", "gammas") else [values]
    if kind.startswith("gamma"):
        return [(v, elias_gamma_len(v)) for v in values]
    return [(v, width[0] if width else 1) for v in values]


@given(fields=st.lists(_FIELDS, max_size=12), batch=st.sampled_from([4, 1 << 12]))
@settings(max_examples=300, deadline=None)
def test_mixed_writes_join_at_any_offset(fields, batch):
    """Fields of every write joined in any order, so at offsets that are
    no multiple of 8 or 64: the stream is the fields' bits in order, and
    reads back field by field; a batch of 4 values splits the batched
    writes and reads into many blocks."""
    original = bitio._BATCH
    bitio._BATCH = batch
    try:
        writer = BitWriter()
        for kind, *args in fields:
            getattr(writer, {"bit": "write_bit", "uint": "write_uint", "uints": "write_uints",
                             "gamma": "write_elias_gamma", "gammas": "write_elias_gammas"}[kind])(*args)
        pairs = [pair for field in fields for pair in _value_widths(field)]
        bits = writer.getvalue()
        assert bits.dtype == np.uint8
        assert "".join(map(str, bits.tolist())) == "".join(format(v, f"0{w}b") if w else "" for v, w in pairs)
        assert len(writer) == sum(w for _, w in pairs)
        reader = BitReader(bits)
        for kind, values, *width in fields:
            if kind == "bit":
                assert reader.read_bit() == values
            elif kind == "uint":
                assert reader.read_uint(width[0]) == values
            elif kind == "uints":
                assert reader.read_uints(len(values), width[0]).tolist() == values
            elif kind == "gamma":
                assert reader.read_elias_gamma() == values
            else:
                assert reader.read_elias_gammas(sum(values)).tolist() == values
        assert reader.remaining == 0
    finally:
        bitio._BATCH = original


def test_reader_keeps_the_checked_bits():
    bits = np.array([1, 0, 1, 1], dtype=np.uint8)
    reader = BitReader(bits)
    bits[:] = 7
    assert reader.read_uint(2) == 0b10
    assert reader.read_uint(2) == 3
