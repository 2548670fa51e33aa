"""Seeded generators for the studied measure families plus trace drivers.

All randomness flows through SplitMix64 with the fixed constants below, so
output is bit-identical across runs and platforms for a given seed.  The
generator is counter-based: output i is the finalizer applied to the
counter state seed + i*GAMMA, two xorshift-multiply rounds (_mix) and a
final xorshift z ^= z >> 31 (_finish), so splitmix_outputs computes any
prefix of the stream at once, without stepping through it.  A draw is
defined on the uniform (output >> 11) * 2^-53, but the Bernoulli and block
sources compare the outputs with integer thresholds instead, which give
the same bits.  The final xorshift keeps the top 31 bits of its state and
changes only the low 33, so a threshold whose low 33 bits are zero (p *
2^31 an integer, as the calibration null p = 1/2) splits the states before
it exactly as it splits the outputs, and the Bernoulli draw skips it there
(_below).

generate and the Monte Carlo (testing.monte_carlo_fpr) draw through one
loop, _drawn_words, in blocks of at most 2^16 outputs that reuse one set of
buffers.  Each block is compared with its thresholds and packed straight
into its rows' uint64 words, the layout of a BitWord, so the full 0/1
array never exists: a word of 2^22 bits peaks at about 0.33 byte a bit
(tracemalloc), its packed words and one block's buffers.  A trial word
equals the generated word of its seed.

convergence_trace scores every prefix on its schedule in one pass over
the word (stats.adjusted_prefixes, coders.kind_lengths): the kernel takes
the columns once, up to the last point, records its statistics at every
point and finishes them all at once, where scoring each prefix from
scratch would take the sum of the points (2n for a doubling schedule).
Each row equals adjusted() of its prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .coders import CoderId
from .stats import adjusted_prefixes
from .words import _LEADING, BitWord

GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def _mix(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Counter states z = seed + i * GAMMA mixed, in place, into the states
    behind outputs i: each an output before its final xorshift (_finish).
    scratch, of z's shape, takes the shifts."""
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= np.uint64(mix)
    return z


def _finish(z: np.ndarray, scratch: np.ndarray) -> None:
    """States z made their outputs in place by the final xorshift z ^= z >> 31."""
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch


def splitmix_outputs(seed: int | np.ndarray, count: int) -> np.ndarray:
    """The first `count` outputs of SplitMix64(seed), vectorized.

    An array of seeds gives one row of `count` outputs per seed.
    """
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GAMMA)
    z = np.asarray(seed & _MASK, dtype=np.uint64)[..., None] + z
    scratch = np.empty_like(z)
    _finish(_mix(z, scratch), scratch)
    return z


def uniform_floats(seed: int | np.ndarray, count: int) -> np.ndarray:
    """Uniforms in [0, 1) from splitmix_outputs, one row per seed of an array."""
    return (splitmix_outputs(seed, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def bernoulli_threshold(p: float) -> np.uint64:
    """The integer t with uniform < p exactly when output < t, for an output
    of splitmix_outputs and its uniform (output >> 11) * 2^-53, 0 < p < 1:
    t = ceil(p * 2^53) * 2^11, which fits in 64 bits, as p <= 1 - 2^-53.
    Comparing outputs with t draws the same bits without building floats."""
    return np.uint64(math.ceil(p * 2.0**53) << 11)


GENERATOR_KINDS = ("bernoulli", "mixture", "block")


@dataclass(frozen=True)
class GeneratorSpec:
    """A seeded source: Bernoulli(p), a finite Bernoulli mixture, or the
    uniform {00,01,11} block source."""

    kind: str
    seed: int
    length: int
    p: float | None = None
    components: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.length < 1:
            raise ValueError("length must be >= 1")
        object.__setattr__(self, "seed", self.seed & _MASK)
        if self.kind == "bernoulli":
            if self.p is None or not 0.0 < self.p < 1.0:
                raise ValueError("bernoulli requires p in (0,1)")
            if self.components is not None:
                raise ValueError("bernoulli takes p, not components")
        elif self.kind == "mixture":
            if self.p is not None:
                raise ValueError("mixture takes components, not p")
            comps = self.components
            if not comps:
                raise ValueError("mixture requires at least one component")
            if any(w <= 0 for w, _ in comps):
                raise ValueError("mixture weights must be positive")
            if any(not 0.0 < p < 1.0 for _, p in comps):
                raise ValueError("mixture components require p in (0,1)")
            if abs(sum(w for w, _ in comps) - 1.0) > 1e-9:
                raise ValueError("mixture weights must sum to 1")
            object.__setattr__(self, "components", tuple((float(w), float(p)) for w, p in comps))
        elif self.p is not None or self.components is not None:
            raise ValueError("block generator takes no parameters")

    @classmethod
    def bernoulli(cls, p: float, seed: int, length: int) -> "GeneratorSpec":
        return cls(kind="bernoulli", seed=seed, length=length, p=p)

    @classmethod
    def mixture(cls, components, seed: int, length: int) -> "GeneratorSpec":
        return cls(kind="mixture", seed=seed, length=length, components=tuple(components))

    @classmethod
    def block(cls, seed: int, length: int) -> "GeneratorSpec":
        return cls(kind="block", seed=seed, length=length)


def _block_thresholds() -> tuple[np.uint64, np.uint64]:
    """(t1, t2): the block index min(floor(3u), 2) of a uniform u, taken in
    float64 as (u * 3).astype(int64), is at least j exactly when the output
    behind u is at least t_j.  3u rounds (3u = 2 - 2^-53 becomes 2), so each
    t_j is found by evaluating that expression next to j * 2^53 / 3."""
    thresholds = []
    for j in (1, 2):
        k = np.arange(j * 2**53 // 3 - 4, j * 2**53 // 3 + 5, dtype=np.uint64)
        index = (k.astype(np.float64) * 2.0**-53 * 3).astype(np.int64)
        thresholds.append(np.uint64(int(k[np.argmax(index >= j)]) << 11))
    return tuple(thresholds)


# from _BLOCK_01 on an output draws the block 01 or 11, from _BLOCK_11 on 11
_BLOCK_01, _BLOCK_11 = _block_thresholds()


# The sources and the Monte Carlo trials (testing.monte_carlo_fpr) draw
# their outputs in blocks of at most this many, whose states take 512 KiB:
# the Monte Carlo's 10^4 words of 256 bits drew 16% slower in blocks of
# 2^15 outputs and 22% slower in blocks of 2^17.
_DRAW_BLOCK = 1 << 16

# The final xorshift of an output, z ^ (z >> 31), keeps the top 31 bits of
# its state z and changes only the low 33.
_LOW33 = (1 << 33) - 1


def _below(threshold: np.uint64, z: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> None:
    """out = whether the outputs of the states z are below threshold.  A
    threshold whose low 33 bits are zero (p * 2^31 an integer, as p = 1/2)
    splits states and outputs alike, so the states are compared as they
    are; others take their final xorshift first, in place."""
    if int(threshold) & _LOW33:
        _finish(z, scratch)
    np.less(z, threshold, out=out)


def _block_pairs(z: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> None:
    """The blocks of the states z, 00, 01 or 11 (see _block_thresholds),
    interleaved into out, two columns an output."""
    _finish(z, scratch)
    np.greater_equal(z, _BLOCK_11, out=out[:, 0::2])
    np.greater_equal(z, _BLOCK_01, out=out[:, 1::2])


def _drawn_words(seeds: np.ndarray, n: int, per_output: int, draw) -> np.ndarray:
    """(len(seeds), ceil(n / 64)) packed words (see kadjust.words): row r
    holds n bits from the outputs of seeds[r], per_output bits an output,
    which draw(z, scratch, out) writes from the states z[rows, outputs] of
    a block of outputs into the bool out[rows, per_output * outputs].

    The outputs come in blocks of at most _DRAW_BLOCK: whole rows while a
    row's words fit, else one row in column blocks of _DRAW_BLOCK // 2
    outputs, as its counter states are as long as the block.  Output i of a
    seed is output i - start of seed + start * GAMMA.  Each block's bits are
    packed straight into its rows' words, so the full 0/1 array never
    exists.  The blocks reuse one set of buffers, the states, a scratch for
    the shifts, the counter and the bits: fresh temporaries of 512 KiB a
    block are faulted in afresh, which took the draw twice as long."""
    words = np.empty((len(seeds), -(-n // 64)), dtype=np.uint64)
    count = -(-n // per_output)
    cells = 64 * words.shape[1] // per_output  # a row's outputs, padded to whole words
    if cells <= _DRAW_BLOCK:
        step, width = min(len(seeds), _DRAW_BLOCK // cells), count
    else:  # one row, whose counter is as long as its states: half a block at a time
        step, width = 1, _DRAW_BLOCK // 2
    states, scratch = np.empty((2, step, width), dtype=np.uint64)
    bits = np.empty((step, -(-per_output * width // 64) * 64), dtype=bool)
    counter = np.arange(1, width + 1, dtype=np.uint64)
    counter *= np.uint64(GAMMA)  # output i's counter state, less the seed
    for first in range(0, len(seeds), step):
        rows = seeds[first : first + step]
        for start in range(0, count, width):
            size = min(width, count - start)
            z, s = states[: len(rows), :size], scratch[: len(rows), :size]
            np.add((rows + np.uint64(start * GAMMA & _MASK))[:, None], counter[:size], out=z)
            drawn = bits[: len(rows), : -(-per_output * size // 64) * 64]
            draw(_mix(z, s), s, drawn[:, : per_output * size])
            packed = np.packbits(drawn).view(">u8").reshape(len(rows), -1)
            column = per_output * start // 64
            words[first : first + len(rows), column : column + packed.shape[1]] = packed
    words[:, -1] &= _LEADING[n % 64 or 64]  # past n: stale padding, the block source's last bit
    return words


def _bernoulli_words(p: float, seeds: np.ndarray, n: int) -> np.ndarray:
    """Bernoulli(p) rows of n bits, packed, one row per seed of an array."""
    return _drawn_words(seeds, n, 1, partial(_below, bernoulli_threshold(p)))


def generate(spec: GeneratorSpec) -> BitWord:
    """Emit the word determined by the spec; identical seeds give identical bits."""
    seeds = np.array([spec.seed], dtype=np.uint64)
    if spec.kind == "bernoulli":
        words = _bernoulli_words(spec.p, seeds, spec.length)
    elif spec.kind == "mixture":
        # output 1 of the stream picks the component, output 2 seeds its bits
        u = uniform_floats(spec.seed, 1)[0]
        cum = 0.0
        chosen = spec.components[-1][1]
        for w, p in spec.components:
            cum += w
            if u < cum:
                chosen = p
                break
        words = _bernoulli_words(chosen, splitmix_outputs(spec.seed, 2)[1:], spec.length)
    else:
        # block: uniform over {00, 01, 11}, index min(floor(3u), 2) of output
        # i's uniform u; block 10 never occurs.
        words = _drawn_words(seeds, spec.length, 2, _block_pairs)
    return BitWord._from_packed(words[0], spec.length)


@dataclass(frozen=True)
class TraceRow:
    """One prefix of a convergence trace; the field names are the output columns."""

    m: int
    p_hat: float
    H: float
    K_eff: float
    R: float | None  # None marks a constant prefix
    coder: CoderId


@dataclass(frozen=True)
class ConvergenceTrace:
    rows: tuple[TraceRow, ...]

    def final(self) -> TraceRow:
        return self.rows[-1]


# geometric_schedule multiplies once per step, so a factor just above 1
# would run for about ln(length / start) / (factor - 1) steps.
_MAX_SCHEDULE_STEPS = 10**6


def geometric_schedule(length: int, start: int = 16, factor: float = 2.0) -> list[int]:
    """Strictly increasing prefix lengths from `start`, ending exactly at `length`."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if start < 1 or factor <= 1:
        raise ValueError("start must be >= 1 and factor > 1")
    m = float(min(start, length))
    if math.log(length / m) > _MAX_SCHEDULE_STEPS * math.log(factor):
        raise ValueError(
            f"factor {factor} needs more than {_MAX_SCHEDULE_STEPS} steps to reach {length}"
        )
    points: list[int] = []
    while True:
        v = min(int(math.ceil(m)), length)
        if not points or v > points[-1]:
            points.append(v)
        if v >= length:
            return points
        m *= factor


def convergence_trace(
    spec: GeneratorSpec, coder: CoderId, schedule: Sequence[int]
) -> ConvergenceTrace:
    """Adjusted statistics along prefixes of one generated word; kind_lengths()
    rejects a schedule not strictly increasing from 1 to spec.length at most."""
    reports = adjusted_prefixes(generate(spec), coder, schedule)
    return ConvergenceTrace(
        rows=tuple(
            TraceRow(m=rep.n, p_hat=rep.w / rep.n, H=rep.H, K_eff=rep.k_eff, R=rep.R, coder=coder)
            for rep in reports
        )
    )
