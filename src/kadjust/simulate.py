"""Seeded generators for the studied measure families plus trace drivers.

All randomness flows through SplitMix64 with the fixed constants below, so
output is bit-identical across runs and platforms for a given seed.  The
generator is counter-based (output i is the finalizer applied to
seed + i*GAMMA), so splitmix_outputs computes any prefix of the stream at
once, without stepping through it.  A draw is defined on the uniform
(output >> 11) * 2^-53, but the Bernoulli and block sources compare the
outputs with integer thresholds instead, which give the same bits.
generate and the Monte Carlo (testing.monte_carlo_fpr) draw through one
loop, _output_blocks, in blocks of at most 2^16 outputs, so a trial word
equals the generated word of its seed and memory stays linear in the bits.

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
from typing import Sequence

import numpy as np

from .coders import CoderId
from .stats import adjusted_prefixes
from .words import BitWord

GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def splitmix_outputs(seed: int | np.ndarray, count: int) -> np.ndarray:
    """The first `count` outputs of SplitMix64(seed), vectorized.

    An array of seeds gives one row of `count` outputs per seed.
    """
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GAMMA)
    z = np.asarray(seed & _MASK, dtype=np.uint64)[..., None] + z
    for shift, mix in ((30, _MIX1), (27, _MIX2)):  # in place: no temporaries but the shifts
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mix)
    return z ^ (z >> np.uint64(31))


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
# their outputs in blocks of this many, which keeps the temporaries of each
# block at 512 KiB: 2^19 outputs drawn at once took 3x longer, as the
# allocator maps and faults in every 4 MiB temporary afresh.
_DRAW_BLOCK = 1 << 16


def _output_blocks(seed: int | np.ndarray, count: int):
    """(start, outputs start + 1 ..) of splitmix_outputs(seed, count), a block
    of columns at a time, of at most _DRAW_BLOCK outputs over the rows of
    an array of seeds: output i of seed is output i - start of seed +
    start * GAMMA."""
    width = max(1, _DRAW_BLOCK // np.size(seed))
    for start in range(0, count, width):
        size = min(width, count - start)
        yield start, splitmix_outputs(seed + (start * GAMMA & _MASK), size)


def _bernoulli_bits(p: float, seed: int | np.ndarray, length: int) -> np.ndarray:
    """Bernoulli(p) bits from the outputs of seed, one row per seed of an array."""
    threshold = bernoulli_threshold(p)
    bits = np.empty(np.shape(seed) + (length,), dtype=bool)
    for start, z in _output_blocks(seed, length):
        np.less(z, threshold, out=bits[..., start : start + z.shape[-1]])
    return bits


def generate(spec: GeneratorSpec) -> BitWord:
    """Emit the word determined by the spec; identical seeds give identical bits."""
    if spec.kind == "bernoulli":
        return BitWord(_bernoulli_bits(spec.p, spec.seed, spec.length))
    if spec.kind == "mixture":
        # output 1 of the stream picks the component, output 2 seeds its bits
        u = uniform_floats(spec.seed, 1)[0]
        cum = 0.0
        chosen = spec.components[-1][1]
        for w, p in spec.components:
            cum += w
            if u < cum:
                chosen = p
                break
        stream_seed = int(splitmix_outputs(spec.seed, 2)[1])
        return BitWord(_bernoulli_bits(chosen, stream_seed, spec.length))
    # block: uniform over {00, 01, 11}, index min(floor(3u), 2) of output
    # i's uniform u; block 10 never occurs.
    nblocks = (spec.length + 1) // 2
    pairs = np.empty((nblocks, 2), dtype=bool)
    for start, z in _output_blocks(spec.seed, nblocks):
        np.greater_equal(z, _BLOCK_11, out=pairs[start : start + z.size, 0])
        np.greater_equal(z, _BLOCK_01, out=pairs[start : start + z.size, 1])
    return BitWord(pairs.reshape(-1)[: spec.length])


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
