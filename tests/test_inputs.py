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


class TestAscii01:
    def test_every_other_byte_is_rejected_by_name(self):
        # the bytes 0x00 and 0x01 are not the bits 0 and 1; the message names
        # the first byte that is not 0, 1 or a line break, wherever it stands
        for bad in set(range(256)) - set(b"01\r\n"):
            for payload in (bytes([bad]), b"01\r\n" * 700 + b"1" + bytes([bad]) + b"0 "):
                with pytest.raises(ValueError, match="admits only 0, 1 and line breaks") as err:
                    parse_word(payload, "ascii01")
                assert str(err.value).endswith(repr(bytes([bad])))

    def test_bad_byte_past_the_cap_is_rejected(self):
        with pytest.raises(ValueError, match=r"got b'x'"):
            parse_word(b"0101x", "ascii01", max_bits=2)

    def test_peak_below_one_and_a_half_bytes_per_bit(self):
        # one translate to the bits, one byte a bit, then the packed word:
        # about 1.25 bytes a bit beyond the payload, where a copy without
        # line breaks and a 0/1 array made it 2.25
        n = 1 << 22
        digits = np.frombuffer(b"01", dtype=np.uint8)[np.random.default_rng(8).integers(0, 2, n)]
        lines = np.full((n // 64, 65), ord("\n"), dtype=np.uint8)
        lines[:, :64] = digits.reshape(-1, 64)
        payload = lines.tobytes()
        del digits, lines
        tracemalloc.start()
        try:
            word = parse_word(payload, "ascii01")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert word.n == n and word.prefix(64).to01() == payload[:64].decode("ascii")
        assert peak <= 1.5 * n, peak / n
