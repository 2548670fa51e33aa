import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kadjust import BitWord
from kadjust.inputs import parse_word


class TestParseWord:
    def test_ascii01_with_line_breaks(self):
        assert parse_word(b"0101\n0011\r\n", "ascii01") == BitWord.from01("01010011")

    def test_ascii01_rejects_other_characters(self):
        for payload in (b"01 01", b"0a1", b"2"):
            with pytest.raises(ValueError):
                parse_word(payload, "ascii01")

    def test_raw_is_msb_first(self):
        assert parse_word(b"\x80", "raw") == BitWord.from01("10000000")
        assert parse_word(b"\x01\xff", "raw") == BitWord.from01("0000000111111111")

    def test_hex(self):
        assert parse_word(b"80", "hex") == BitWord.from01("10000000")
        assert parse_word(b"0 1\nff", "hex") == BitWord.from01("0000000111111111")

    def test_cap_applies_after_expansion(self):
        assert parse_word(b"\xf0", "raw", max_bits=4) == BitWord.from01("1111")
        assert parse_word(b"0101", "ascii01", max_bits=2) == BitWord.from01("01")

    def test_empty_inputs(self):
        for fmt in ("ascii01", "raw", "hex"):
            with pytest.raises(ValueError):
                parse_word(b"", fmt)
        with pytest.raises(ValueError):
            parse_word(b"\n", "ascii01")

    def test_source_validation(self):
        with pytest.raises(ValueError):
            parse_word(b"0101", "base64")
        for max_bits in (0, -1):
            with pytest.raises(ValueError, match="max_bits must be >= 1"):
                parse_word(b"0101", "ascii01", max_bits=max_bits)

    def test_raw_word_is_held_once(self):
        # the unpacked bits become the word without a second copy: about
        # one byte a bit, where a copy made it two
        payload = np.random.default_rng(20).integers(0, 256, 1 << 17, dtype=np.uint8).tobytes()
        parse_word(payload, "raw")
        tracemalloc.start()
        try:
            word = parse_word(payload, "raw")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert word.n == 1 << 20
        assert peak < 1.2 * word.n
        assert not word.bits.flags.writeable
        with pytest.raises(ValueError):
            word.bits[0] = 1

    def test_capped_word_does_not_pin_the_payload(self):
        payload = bytes(range(256)) * 64
        for fmt, data in (("raw", payload), ("hex", payload.hex().encode("ascii"))):
            word = parse_word(data, fmt, max_bits=12)
            assert word.bits.base is None and word.bits.nbytes == 12
            assert word == BitWord.from01("000000000000")
            assert not word.bits.flags.writeable


class TestFormatWord:
    """Each format read back from a word serialized by hand: digits for
    ascii01, MSB-first bytes for raw and hex."""

    def test_ascii01(self):
        assert parse_word(b"0101", "ascii01").to01() == "0101"

    def test_raw_pads_to_byte(self):
        assert parse_word(b"\x80", "raw") == BitWord.from01("10000000")
        assert parse_word(b"\x80", "raw", max_bits=1) == BitWord.from01("1")

    def test_hex(self):
        assert parse_word(b"80", "hex") == BitWord.from01("10000000")

    @given(st.lists(st.integers(0, 1), min_size=8, max_size=128).filter(lambda b: len(b) % 8 == 0))
    def test_ascii_raw_ascii_round_trip(self, bits):
        word = BitWord(bits)
        raw = np.packbits(word.bits).tobytes()
        back = parse_word(parse_word(raw, "raw").to01().encode("ascii"), "ascii01")
        assert back == word
        assert parse_word(raw.hex().encode("ascii"), "hex") == word
