"""Reading words in the supported exchange formats.

ascii01   the characters 0 and 1, line breaks allowed and ignored
raw       every byte expands to 8 bits, most-significant-bit first
hex       hexadecimal text for the same byte expansion

read_word reads a word from a path (None or "-" for standard input) and
parse_word decodes it; an optional bit cap truncates after expansion.  A
raw or hex payload becomes the word's packed words (BitWord.from_bytes),
1/8 byte a bit, and is never unpacked to one byte a bit.  An ascii01
payload is read as a 0/1 array, which the word packs and does not keep.
"""

from __future__ import annotations

import sys

import numpy as np

from .words import BitWord

INPUT_FORMATS = ("ascii01", "raw", "hex")


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
        cleaned = payload.translate(None, b"\r\n")
        if cleaned.translate(None, b"01"):
            bad = cleaned.translate(None, b"01")[:1]
            raise ValueError(f"ascii01 input admits only 0, 1 and line breaks, got {bad!r}")
        if not cleaned:
            raise ValueError("empty input")
        return BitWord((np.frombuffer(cleaned, dtype=np.uint8) - ord("0"))[:max_bits])
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
