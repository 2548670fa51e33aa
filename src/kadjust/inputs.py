"""Reading words in the supported exchange formats.

ascii01   the characters 0 and 1, line breaks allowed and ignored
raw       every byte expands to 8 bits, most-significant-bit first
hex       hexadecimal text for the same byte expansion

read_word reads a word from a path (None or "-" for standard input) and
parse_word decodes it; an optional bit cap truncates after expansion.  A
raw or hex payload becomes the word's packed words (BitWord.from_bytes),
1/8 byte a bit, and is never unpacked to one byte a bit.  An ascii01
payload becomes its bits in one bytes.translate, which maps the characters
0 and 1 to the bytes 0 and 1, every other byte to 2, which no bit is, and
deletes line breaks: one byte a bit, which the word packs and does not
keep, so parsing holds about 1.25 bytes a bit beyond the payload.
"""

from __future__ import annotations

import sys

import numpy as np

from .words import BitWord

INPUT_FORMATS = ("ascii01", "raw", "hex")

# ascii01's characters 0 and 1 to the bits 0 and 1, every other byte, 0x00
# and 0x01 among them, to a byte that is not a bit
_NOT_A_BIT = 2
_ASCII01 = bytes(b"01".index(c) if c in b"01" else _NOT_A_BIT for c in range(256))


def _read_payload(path: str | None) -> bytes:
    if path is None or path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def parse_word(payload: bytes, fmt: str, max_bits: int | None = None) -> BitWord:
    """Decode a word from raw file content in the given format."""
    if max_bits is not None and max_bits < 1:
        raise ValueError("max_bits must be >= 1")
    if fmt == "ascii01":
        bits = payload.translate(_ASCII01, b"\r\n")
        if _NOT_A_BIT in bits:
            bad = payload.translate(None, b"01\r\n")[:1]
            raise ValueError(f"ascii01 input admits only 0, 1 and line breaks, got {bad!r}")
        if not bits:
            raise ValueError("empty input")
        return BitWord(np.frombuffer(bits, dtype=np.uint8)[:max_bits])
    if fmt == "raw":
        data = payload
    elif fmt == "hex":
        data = bytes.fromhex("".join(payload.decode("ascii", errors="strict").split()))
    else:
        raise ValueError(f"unknown input format {fmt!r}")
    if not data:
        raise ValueError("empty input")
    n = 8 * len(data)
    return BitWord.from_bytes(data, n if max_bits is None else min(n, max_bits))


def read_word(path: str | None, fmt: str = "ascii01", max_bits: int | None = None) -> BitWord:
    return parse_word(_read_payload(path), fmt, max_bits)
