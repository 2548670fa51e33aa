"""Computable description-length coders.

Each coder maps a word to a CodeResult holding an idealized real-valued
length and, for the concrete coders, an integer codeword length realized by
an actual encoder/decoder pair that is prefix-free once the word length n
is known as side information.

Built-in coders:

  literal     n bits, the word verbatim.
  shell       weight header plus in-shell lexicographic rank.
  run_length  leading bit plus Elias gamma code of every maximal run.
  periodic    best period P <= p_max: pattern plus coded mismatch positions.
  pair_shell  multinomial index over disjoint 2-bit block counts (ideal only).
  model_class 3-bit model tag plus the best of the above.

Tie-breaks are deterministic: smallest period for periodic, listed order
for model_class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bitio import BitReader, BitWriter, DecodeError, elias_gamma_len
from .entropy import block_shell_log_size, ceil_log2
from .shellcode import (
    code_len_shell_ideal,
    concrete_len_shell,
    decode_shell,
    encode_shell,
)
from .words import BitWord, block_counts

DEFAULT_P_MAX = 32
MODEL_TAG_BITS = 3


@dataclass(frozen=True)
class CoderId:
    """Identifies a coder; p_max applies to the periodic coder only."""

    name: str
    p_max: int | None = None

    def __post_init__(self):
        if self.name not in _CODERS:
            raise ValueError(f"unknown coder {self.name!r}")
        if self.name == "periodic":
            if self.p_max is None:
                object.__setattr__(self, "p_max", DEFAULT_P_MAX)
            elif self.p_max < 1:
                raise ValueError("p_max must be >= 1")
        elif self.p_max is not None:
            raise ValueError(f"coder {self.name!r} takes no p_max parameter")

    @property
    def label(self) -> str:
        if self.name == "periodic" and self.p_max != DEFAULT_P_MAX:
            return f"periodic(p_max={self.p_max})"
        return self.name


@dataclass(frozen=True)
class CodeResult:
    """Description length of one word under one coder.

    concrete_len is None for purely ideal coders (pair_shell); model_tag
    names the winning sub-model for model_class.
    """

    coder: CoderId
    ideal_len: float
    concrete_len: int | None
    model_tag: str | None = None

    def length(self, kind: str = "ideal") -> float:
        if kind == "ideal":
            return self.ideal_len
        if kind == "concrete":
            if self.concrete_len is None:
                raise ValueError(f"coder {self.coder.label} has no concrete code")
            return float(self.concrete_len)
        raise ValueError(f"unknown length kind {kind!r}")


def is_concrete(coder: CoderId) -> bool:
    return _CODERS[coder.name].encode is not None


def concrete_coder_ids() -> tuple[CoderId, ...]:
    """All built-in coders with a concrete prefix-free code."""
    return tuple(CoderId(name) for name, entry in _CODERS.items() if entry.encode is not None)


# ---------------------------------------------------------------------------
# lengths


def k_len(word: BitWord) -> CodeResult:
    """Literal code: the word costs exactly its own length."""
    return CodeResult(CoderId("literal"), float(word.n), word.n)


def k_comb(word: BitWord) -> CodeResult:
    """Combinatorial shell code: weight header plus in-shell rank."""
    return CodeResult(
        CoderId("shell"),
        code_len_shell_ideal(word),
        concrete_len_shell(word.n, word.weight),
    )


def _runs(bits: np.ndarray) -> np.ndarray:
    """Lengths of the maximal constant runs of a bit array, left to right."""
    breaks = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    return np.diff(np.concatenate(([0], breaks, [bits.size])))


def run_lengths(word: BitWord) -> list[int]:
    """Lengths of the maximal constant runs, left to right."""
    return _runs(word.bits).tolist()


def k_run_length(word: BitWord) -> CodeResult:
    """First bit plus an Elias gamma code for every run length.

    gamma(r) takes 2 * (bit_length(r) - 1) + 1 bits; np.frexp gives
    bit_length exactly for every run length below 2^53.
    """
    runs = _runs(word.bits)
    bit_lengths = np.frexp(runs)[1]
    total = 1 + 2 * int(bit_lengths.sum()) - runs.size
    return CodeResult(CoderId("run_length"), float(total), total)


def _periodic_cost(n: int, p: int, mismatches: int) -> int:
    return (
        elias_gamma_len(p)
        + p
        + elias_gamma_len(mismatches + 1)
        + mismatches * ceil_log2(n + 1)
    )


# A row one period wide costs numpy one inner loop per row, which dominates
# for small periods on long words; there each row holds as many whole
# periods as fit in _WIDE_ROW bits.  Below _WIDE_FROM bits np.tile costs more
# than it saves.
_WIDE_ROW = 1024
_WIDE_FROM = 1 << 14


def _period_mismatch(bits: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """Boolean mask of the positions where bits differ from the pattern
    repeated over their length, the last copy cut short.

    Compares the whole periods as one block of rows against the pattern and
    the remainder against its prefix.  With bits all zero the mask is the
    tiled pattern itself.
    """
    n = bits.size
    if n >= _WIDE_FROM and pattern.size < _WIDE_ROW:
        pattern = np.tile(pattern, _WIDE_ROW // pattern.size)
    width = pattern.size
    head = n - n % width
    mask = np.empty(n, dtype=bool)
    np.not_equal(bits[:head].reshape(-1, width), pattern, out=mask[:head].reshape(-1, width))
    np.not_equal(bits[head:], pattern[: n - head], out=mask[head:])
    return mask


def _best_period(word: BitWord, p_max: int) -> tuple[int, int]:
    """(period, mismatch count) minimizing the periodic cost; smallest period wins ties.

    For each p <= min(p_max, n) the mismatch count is the number of
    positions where the word differs from its first p bits tiled over
    its length (see _period_mismatch); the first period never mismatches.
    Each period costs O(n) array work and no Python per-bit loop.
    """
    bits = word.bits
    n = bits.size
    best_p, best_cost, best_r = 1, None, 0
    for p in range(1, min(p_max, n) + 1):
        r = int(np.count_nonzero(_period_mismatch(bits, bits[:p])))
        cost = _periodic_cost(n, p, r)
        if best_cost is None or cost < best_cost:
            best_p, best_cost, best_r = p, cost, r
    return best_p, best_r


def k_periodic(word: BitWord, p_max: int = DEFAULT_P_MAX) -> CodeResult:
    """Best-period pattern code with explicitly indexed mismatch positions."""
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    p, r = _best_period(word, p_max)
    total = _periodic_cost(word.n, p, r)
    return CodeResult(CoderId("periodic", p_max), float(total), total)


def k_pair_shell(word: BitWord) -> CodeResult:
    """Multinomial index over the disjoint 2-bit block counts (ideal lengths only)."""
    bc = block_counts(word)
    ideal = (
        block_shell_log_size(bc)
        + 4 * math.log2(bc.num_blocks + 1)
        + (1.0 if bc.tail else 0.0)
    )
    return CodeResult(CoderId("pair_shell"), ideal, None)


def _member_results(word: BitWord) -> list[CodeResult]:
    return [_CODERS[m.name].length(word, m) for m in _MEMBER_IDS]


def k_model_class(word: BitWord) -> CodeResult:
    """Fixed 3-bit model tag plus the best member coder.

    The ideal length takes the minimum over member ideal lengths; the
    concrete length takes the minimum over members that have a concrete
    code.  model_tag reports the ideal winner (first in MODEL_MEMBERS on
    ties).
    """
    members = _member_results(word)
    best = min(range(len(members)), key=lambda i: (members[i].ideal_len, i))
    concrete = MODEL_TAG_BITS + min(
        m.concrete_len for m in members if m.concrete_len is not None
    )
    return CodeResult(
        CoderId("model_class"),
        MODEL_TAG_BITS + members[best].ideal_len,
        concrete,
        model_tag=MODEL_MEMBERS[best],
    )


def code_word(coder: CoderId, word: BitWord) -> CodeResult:
    """Score a word under the chosen coder."""
    return _CODERS[coder.name].length(word, coder)


# ---------------------------------------------------------------------------
# concrete encoders / decoders


def _decode_literal(n: int, reader: BitReader) -> BitWord:
    return BitWord([reader.read_bit() for _ in range(n)])


def _encode_run_length(word: BitWord, coder: CoderId) -> np.ndarray:
    out = BitWriter()
    out.write_bit(word[0])
    for r in run_lengths(word):
        out.write_elias_gamma(r)
    return out.getvalue()


def _decode_run_length(n: int, reader: BitReader) -> BitWord:
    bit = reader.read_bit()
    bits: list[int] = []
    while len(bits) < n:
        r = reader.read_elias_gamma()
        if len(bits) + r > n:
            raise DecodeError("run overruns the declared word length")
        bits.extend([bit] * r)
        bit ^= 1
    return BitWord(bits)


def _encode_periodic(word: BitWord, coder: CoderId) -> np.ndarray:
    n = word.n
    p, _ = _best_period(word, coder.p_max)
    positions = np.flatnonzero(_period_mismatch(word.bits, word.bits[:p])).tolist()
    out = BitWriter()
    out.write_elias_gamma(p)
    out.write_bits(word.bits[:p])
    out.write_elias_gamma(len(positions) + 1)
    width = ceil_log2(n + 1)
    for pos in positions:
        out.write_uint(pos, width)
    return out.getvalue()


def _decode_periodic(n: int, reader: BitReader) -> BitWord:
    p = reader.read_elias_gamma()
    if p > n:
        raise DecodeError(f"period {p} exceeds word length {n}")
    pattern = np.array([reader.read_bit() for _ in range(p)], dtype=np.uint8)
    flips = np.zeros(n, dtype=np.uint8)
    r = reader.read_elias_gamma() - 1
    width = ceil_log2(n + 1)
    for _ in range(r):
        pos = reader.read_uint(width)
        if pos >= n:
            raise DecodeError(f"mismatch position {pos} out of range")
        flips[pos] ^= 1
    return BitWord(_period_mismatch(flips, pattern))


def _encode_model_class(word: BitWord, coder: CoderId) -> np.ndarray:
    members = _member_results(word)
    best = min(
        (i for i in range(len(members)) if members[i].concrete_len is not None),
        key=lambda i: (members[i].concrete_len, i),
    )
    member = _MEMBER_IDS[best]
    out = BitWriter()
    out.write_uint(best, MODEL_TAG_BITS)
    out.write_bits(_CODERS[member.name].encode(word, member))
    return out.getvalue()


def _decode_model_class(n: int, reader: BitReader) -> BitWord:
    tag = reader.read_uint(MODEL_TAG_BITS)
    decode = _CODERS[MODEL_MEMBERS[tag]].decode if tag < len(MODEL_MEMBERS) else None
    if decode is None:
        raise DecodeError(f"invalid model tag {tag}")
    return decode(n, reader)


def encode_word(coder: CoderId, word: BitWord) -> np.ndarray:
    """Concrete codeword bits for the word; n is side information for decoding."""
    encode = _CODERS[coder.name].encode
    if encode is None:
        raise ValueError(f"coder {coder.label} has no concrete code")
    return encode(word, coder)


def decode_word(coder: CoderId, n: int, source) -> BitWord:
    """Decode a concrete codeword back to the original word of known length n."""
    decode = _CODERS[coder.name].decode
    if decode is None:
        raise ValueError(f"coder {coder.label} has no concrete code")
    reader = source if isinstance(source, BitReader) else BitReader(source)
    return decode(n, reader)


# ---------------------------------------------------------------------------
# coder table


@dataclass(frozen=True)
class _Coder:
    """One coder: its length function and, for concrete coders, its codec."""

    length: Callable[[BitWord, CoderId], CodeResult]
    encode: Callable[[BitWord, CoderId], np.ndarray] | None = None
    decode: Callable[[int, BitReader], BitWord] | None = None


# Order fixes both the model tag values and the model_class tie-break.
_CODERS = {
    "literal": _Coder(lambda w, c: k_len(w), lambda w, c: w.bits.copy(), _decode_literal),
    "shell": _Coder(lambda w, c: k_comb(w), lambda w, c: encode_shell(w).bits, decode_shell),
    "run_length": _Coder(lambda w, c: k_run_length(w), _encode_run_length, _decode_run_length),
    "periodic": _Coder(lambda w, c: k_periodic(w, c.p_max), _encode_periodic, _decode_periodic),
    "pair_shell": _Coder(lambda w, c: k_pair_shell(w)),
    "model_class": _Coder(lambda w, c: k_model_class(w), _encode_model_class, _decode_model_class),
}
CODER_NAMES = tuple(_CODERS)
MODEL_MEMBERS = tuple(name for name in CODER_NAMES if name != "model_class")
_MEMBER_IDS = tuple(CoderId(name) for name in MODEL_MEMBERS)
