"""Packed draws: the Monte Carlo against a frozen copy of its 0/1-matrix
path, the p = 1/2 comparison before the final xorshift, and the memory of
generation and of the Monte Carlo."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kadjust import (
    CODER_NAMES,
    BitWord,
    CoderId,
    GeneratorSpec,
    adjusted_deficiencies,
    binary_entropy,
    generate,
    monte_carlo_fpr,
    simulate,
    testing,
)
from kadjust import TestConfig as Config
from kadjust.coders import LENGTH_KINDS, kind_lengths, length_kernel
from kadjust.simulate import GAMMA, bernoulli_threshold, splitmix_outputs
from kadjust.testing import FPR_M_RANGE
from kadjust.words import PackedRows

# The Monte Carlo as it stood before trial words were drawn packed: each
# block of at most 2^16 outputs is drawn as a bool matrix, scored as a 0/1
# matrix, and weighed by row sums.  Frozen here as the reference for the
# packed path.
_REFERENCE_BLOCK = 1 << 16


def _reference_output_blocks(seed, count):
    width = max(1, _REFERENCE_BLOCK // np.size(seed))
    for start in range(0, count, width):
        size = min(width, count - start)
        yield start, splitmix_outputs(seed + (start * GAMMA & ((1 << 64) - 1)), size)


def _reference_bernoulli_bits(p, seed, length):
    threshold = bernoulli_threshold(p)
    bits = np.empty(np.shape(seed) + (length,), dtype=bool)
    for start, z in _reference_output_blocks(seed, length):
        np.less(z, threshold, out=bits[..., start : start + z.shape[-1]])
    return bits


def _reference_deficiencies(bits, coder, lengths):
    k_eff = np.asarray(kind_lengths(coder, bits, lengths).lengths, dtype=np.float64)
    n = bits.shape[1]
    weights, inverse = np.unique(bits.sum(axis=1), return_inverse=True)
    h = np.array([binary_entropy(w / n) for w in weights.tolist()])[inverse]
    deficiency = n * h - k_eff
    deficiency[h == 0.0] = -np.inf
    return deficiency


def reference_deficiencies(p, n, cfg, trials, seed):
    seeds = splitmix_outputs(seed, trials)
    block = max(1, _REFERENCE_BLOCK // n)
    deficiencies = np.empty(trials, dtype=np.float64)
    for start in range(0, trials, block):
        words = _reference_bernoulli_bits(p, seeds[start : start + block], n)
        deficiencies[start : start + len(words)] = _reference_deficiencies(words, cfg.coder, cfg.lengths)
    return deficiencies


def assert_monte_carlo_frozen(monkeypatch, p, n, cfg, trials, seed):
    """monte_carlo_fpr's rows, and the deficiency of every trial word it
    scores, equal the frozen path's: Bernoulli words seldom reject, so the
    rows alone would mostly compare zeros."""
    scored = []

    def recorded(words, coder, lengths):
        scored.append(adjusted_deficiencies(words, coder, lengths))
        return scored[-1]

    monkeypatch.setattr(testing, "adjusted_deficiencies", recorded)
    result = monte_carlo_fpr(p, n, cfg, trials, seed)
    want = reference_deficiencies(p, n, cfg, trials, seed)
    assert np.concatenate(scored).tolist() == want.tolist()
    assert [row.rejections for row in result.rows] == [int(np.count_nonzero(want >= m)) for m in FPR_M_RANGE]
    return len(scored)


def _kinds():
    for name in CODER_NAMES:
        for kind in LENGTH_KINDS:
            try:
                length_kernel(CoderId(name), kind)
            except ValueError:
                continue
            yield name, kind


CODER_KINDS = list(_kinds())


class TestMonteCarloAgainstFrozenPath:
    @pytest.mark.parametrize("name,kind", CODER_KINDS)
    @pytest.mark.parametrize("p", [0.5, 0.25, 0.3, 0.1])
    def test_rows_equal(self, monkeypatch, name, kind, p):
        cfg = Config(m=1, coder=CoderId(name), lengths=kind)
        for n in (1, 2, 63, 64, 65, 256, 1000):
            assert_monte_carlo_frozen(monkeypatch, p, n, cfg, 48, 1000 * n + round(100 * p))

    @pytest.mark.parametrize("name,kind", [("shell", "ideal"), ("model_class", "concrete")])
    def test_rows_equal_across_batches(self, monkeypatch, name, kind):
        # 2100 words of 4096 bits take 134400 words, more than one batch's 131072
        cfg = Config(m=1, coder=CoderId(name), lengths=kind)
        assert assert_monte_carlo_frozen(monkeypatch, 0.5, 4096, cfg, 2100, 77) == 2

    def test_rejecting_rows_equal(self, monkeypatch):
        # words of 16 bits under the periodic coder reject at every m
        cfg = Config(m=1, coder=CoderId("periodic"), lengths="concrete")
        assert_monte_carlo_frozen(monkeypatch, 0.5, 16, cfg, 6000, 21)
        assert all(row.rejections for row in monte_carlo_fpr(0.5, 16, cfg, 6000, 21).rows)


class TestFinalXorshift:
    """The final xorshift out = z ^ (z >> 31) keeps the top 31 bits of the
    state z, so a threshold whose low 33 bits are zero compares states as it
    compares outputs."""

    LOW33 = (1 << 33) - 1

    def states_around(self, threshold: int) -> np.ndarray:
        lows = [0, 1, 2, (1 << 31) - 1, 1 << 31, (1 << 32) + 5, self.LOW33 - 1, self.LOW33]
        lows += np.random.default_rng(threshold & 0xFFFF).integers(0, 1 << 33, 16).tolist()
        top = threshold >> 33
        return np.array([(t << 33) | low for t in (top - 1, top, top + 1) for low in lows], dtype=np.uint64)

    @staticmethod
    def outputs(z: np.ndarray) -> np.ndarray:
        return z ^ (z >> np.uint64(31))

    @staticmethod
    def below(threshold, z: np.ndarray) -> list[bool]:
        out = np.empty(z.shape, dtype=bool)
        simulate._below(threshold, z.copy(), np.empty_like(z), out)
        return out.tolist()

    @pytest.mark.parametrize("p", [0.5, 0.25])
    def test_states_compare_as_outputs(self, p):
        t = bernoulli_threshold(p)
        assert int(t) & self.LOW33 == 0
        z = self.states_around(int(t))
        assert (z < t).tolist() == (self.outputs(z) < t).tolist()
        assert self.below(t, z) == (self.outputs(z) < t).tolist()
        assert 0 < np.count_nonzero(z < t) < z.size

    def test_other_thresholds_compare_outputs(self):
        t = bernoulli_threshold(0.3)
        assert int(t) & self.LOW33
        z = self.states_around(int(t))
        z = np.concatenate([z, np.arange(int(t) - 40, int(t) + 40, dtype=np.uint64)])
        want = (self.outputs(z) < t).tolist()
        assert (z < t).tolist() != want  # comparing states would draw other bits
        assert self.below(t, z) == want


class TestPackedRows:
    def test_iteration_unpacks_rows(self):
        bits = (np.random.default_rng(3).random((5, 130)) < 0.4).astype(np.uint8)
        assert [row.tolist() for row in PackedRows.of(bits)] == bits.tolist()

    def test_deficiencies_of_packed_rows_equal_the_matrix(self):
        bits = (np.random.default_rng(4).random((40, 77)) < 0.5).astype(np.uint8)
        bits[0], bits[1] = 0, 1  # constant rows
        for name, kind in CODER_KINDS:
            want = adjusted_deficiencies(bits, CoderId(name), kind)
            assert want[0] == want[1] == -math.inf
            assert adjusted_deficiencies(PackedRows.of(bits), CoderId(name), kind).tolist() == want.tolist()


class TestMemory:
    def test_generate_below_half_a_byte_per_bit(self):
        """generate at 2^22 bits keeps the packed words (1/8 byte a bit) and
        one draw block's buffers, about 1.3 MiB: 0.33 byte a bit, where
        drawing a bool word peaked at 1.38.  A fresh interpreter, as the
        first call of a command."""
        code = """
import sys, tracemalloc
from kadjust import GeneratorSpec, generate
n = 1 << 22
spec = GeneratorSpec.block(7, n) if sys.argv[1] == "block" else GeneratorSpec.bernoulli(0.3, 7, n)
tracemalloc.start()
word = generate(spec)
print(tracemalloc.get_traced_memory()[1] / n)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(simulate.__file__).parent.parent))
        for kind in ("bernoulli", "block"):
            proc = subprocess.run([sys.executable, "-c", code, kind], capture_output=True, text=True,
                                  env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert float(proc.stdout) <= 0.5, (kind, proc.stdout)

    @pytest.mark.parametrize("n,trials", [(256, 100_000), (1 << 20, 64)])
    def test_monte_carlo_bounded_by_one_batch(self, n, trials):
        # 25.6 and 67 million trial bits; one batch of packed words is 1 MiB
        cfg = Config(m=1, coder=CoderId("shell"))
        monte_carlo_fpr(0.5, n, cfg, 2, seed=1)  # fills the caches
        tracemalloc.start()
        try:
            monte_carlo_fpr(0.5, n, cfg, trials, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 << 20, peak / 2**20


def test_generated_words_are_packed_trial_words():
    # a trial word of the Monte Carlo is the generated word of its seed, at
    # lengths that end inside a packed word and span draw blocks
    for n in (1, 65, 1000, (1 << 16) + 7):
        seeds = splitmix_outputs(9, 3)
        rows = simulate._bernoulli_words(0.5, seeds, n)
        for seed, row in zip(seeds.tolist(), rows):
            assert BitWord._from_packed(row, n) == generate(GeneratorSpec.bernoulli(0.5, seed, n))
