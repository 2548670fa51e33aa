import hashlib
import io
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kadjust import (
    CoderId,
    GeneratorSpec,
    code_word,
    convergence_trace,
    generate,
    geometric_schedule,
)
from kadjust import adjusted_deficiencies, monte_carlo_fpr, simulate
from kadjust.simulate import bernoulli_threshold, splitmix_outputs, uniform_floats
from kadjust.testing import TestConfig as Config
from kadjust.stats import write_records

from conftest import SplitMix64, derive_seed


class TestSplitMix64:
    def test_published_reference_outputs(self):
        # First outputs for seed 0 of the standard SplitMix64.
        r = SplitMix64(0)
        assert [r.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_vectorized_matches_sequential(self):
        for seed in (0, 1, 42, 2**64 - 1):
            r = SplitMix64(seed)
            seq = [r.next_u64() for _ in range(100)]
            assert splitmix_outputs(seed, 100).tolist() == seq

    def test_floats_in_unit_interval(self):
        u = uniform_floats(7, 10_000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_derive_seed_matches_output_stream(self):
        base = 99
        outs = splitmix_outputs(base, 5).tolist()
        assert [derive_seed(base, i) for i in range(5)] == outs


class TestGeneratorSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec.bernoulli(0.0, 1, 10)
        with pytest.raises(ValueError):
            GeneratorSpec.bernoulli(1.0, 1, 10)
        with pytest.raises(ValueError):
            GeneratorSpec.bernoulli(0.5, 1, 0)
        with pytest.raises(ValueError):
            GeneratorSpec.mixture([], 1, 10)
        with pytest.raises(ValueError):
            GeneratorSpec.mixture([(0.5, 0.2), (0.6, 0.4)], 1, 10)  # weights != 1
        with pytest.raises(ValueError):
            GeneratorSpec.mixture([(1.0, 0.0)], 1, 10)
        with pytest.raises(ValueError):
            GeneratorSpec(kind="block", seed=1, length=10, p=0.5)
        with pytest.raises(ValueError):
            GeneratorSpec(kind="weird", seed=1, length=10)
        with pytest.raises(ValueError):
            GeneratorSpec(kind="bernoulli", seed=1, length=10, p=0.5, components=((1.0, 0.5),))
        with pytest.raises(ValueError):
            GeneratorSpec(kind="mixture", seed=1, length=10, p=0.5, components=((1.0, 0.5),))

    def test_seed_is_masked_to_64_bits(self):
        a = GeneratorSpec.bernoulli(0.5, 2**64 + 5, 16)
        b = GeneratorSpec.bernoulli(0.5, 5, 16)
        assert generate(a) == generate(b)


class TestGenerate:
    def test_reproducible_bit_identical(self):
        spec = GeneratorSpec.bernoulli(0.3, 123, 4096)
        assert generate(spec) == generate(spec)

    def test_distinct_seeds_differ(self):
        a = generate(GeneratorSpec.bernoulli(0.5, 1, 256))
        b = generate(GeneratorSpec.bernoulli(0.5, 2, 256))
        assert a != b

    def test_bernoulli_frequency_concentration(self):
        within = 0
        for s in range(100):
            w = generate(GeneratorSpec.bernoulli(0.5, 500 + s, 100_000))
            if abs(w.weight / w.n - 0.5) <= 0.01:
                within += 1
        assert within >= 99

    def test_block_never_emits_10_any_parity(self):
        for seed in (0, 1, 7):
            for length in (1, 2, 31, 100, 4097):
                w = generate(GeneratorSpec.block(seed, length))
                pairs = w.bits[: 2 * (length // 2)].reshape(-1, 2)
                assert not np.any((pairs[:, 0] == 1) & (pairs[:, 1] == 0))

    def test_block_marginal_frequency(self):
        w = generate(GeneratorSpec.block(21, 100_000))
        assert abs(w.weight / w.n - 0.5) <= 0.01

    def test_single_component_mixture_matches_bernoulli_on_derived_seed(self):
        seed = 77
        spec = GeneratorSpec.mixture([(1.0, 0.25)], seed, 2048)
        rng = SplitMix64(seed)
        rng.next_float()  # component draw
        stream_seed = rng.next_u64()
        assert generate(spec) == generate(GeneratorSpec.bernoulli(0.25, stream_seed, 2048))
        # Three components: the oracle's first float picks the component by
        # cumulative weight, its second output seeds the component's stream.
        components = [(0.2, 0.1), (0.5, 0.5), (0.3, 0.8)]
        cums = list(itertools.accumulate(w for w, _ in components))
        picked = set()
        for seed in [0, 2**63, 2**64 - 1] + list(range(1000, 1097)):
            rng = SplitMix64(seed)
            u = rng.next_float()
            p = next((p for (_, p), cum in zip(components, cums) if u < cum), components[-1][1])
            picked.add(p)
            expected = generate(GeneratorSpec.bernoulli(p, rng.next_u64(), 256))
            assert generate(GeneratorSpec.mixture(components, seed, 256)) == expected
        assert picked == {0.1, 0.5, 0.8}

    def test_mixture_component_selection(self):
        # Heavily weighted component dominates the frequency.
        spec = GeneratorSpec.mixture([(0.999, 0.1), (0.001, 0.9)], 3, 50_000)
        w = generate(spec)
        assert abs(w.weight / w.n - 0.1) < 0.02


class TestSchedules:
    def test_geometric_schedule_shape(self):
        sched = geometric_schedule(1000)
        assert sched[0] == 16 and sched[-1] == 1000
        assert all(b > a for a, b in zip(sched, sched[1:]))

    def test_geometric_schedule_short(self):
        assert geometric_schedule(10) == [10]

    @pytest.mark.parametrize(
        "start, factor", [(16, 1.0), (16, 0.5), (0, 2.0), (-3, 2.0), (16, -2.0)]
    )
    def test_geometric_schedule_rejects_non_growing(self, start, factor):
        with pytest.raises(ValueError):
            geometric_schedule(100, start, factor)

    def test_geometric_schedule_rejects_a_factor_too_close_to_one(self):
        with pytest.raises(ValueError, match="steps"):
            geometric_schedule(100, 16, 1 + 1e-9)

    @pytest.mark.parametrize(
        "factor, expected",
        [
            (1.25, [16, 20, 25, 32, 40, 49, 62, 77, 96, 120, 150, 187, 233, 292, 364, 455,
                    569, 711, 889, 1111, 1388, 1735, 2169, 2711, 3389, 4236, 5000]),
            (1.5, [16, 24, 36, 54, 81, 122, 183, 274, 411, 616, 923, 1384, 2076, 3114, 4671, 5000]),
            (2, [16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 5000]),
            (3, [16, 48, 144, 432, 1296, 3888, 5000]),
        ],
    )
    def test_geometric_schedule_points_pinned(self, factor, expected):
        assert geometric_schedule(5000, 16, factor) == expected

    def test_geometric_schedule_slow_factor_pinned(self):
        sched = geometric_schedule(5000, 16, 1.001)
        assert len(sched) == 2596 and sched[:3] == [16, 17, 18] and sched[-3:] == [4993, 4998, 5000]
        digest = hashlib.sha256(repr(sched).encode()).hexdigest()
        assert digest == "8dea3774e9ac3ddd19b8f98d9ce8fa6ede71db36213c69f4b1d2b7312782421e"


class TestConvergenceTrace:
    def test_rows_internally_consistent(self):
        spec = GeneratorSpec.bernoulli(0.3, 9, 2**14)
        trace = convergence_trace(spec, CoderId("shell"), geometric_schedule(2**14))
        word = generate(spec)
        for row in trace.rows:
            assert row.p_hat == word.prefix(row.m).weight / row.m
            if row.R is not None:
                assert row.R == pytest.approx(row.K_eff / (row.m * row.H), abs=1e-9)
        assert trace.final().m == 2**14

    def test_constant_prefix_rows_marked(self):
        spec = GeneratorSpec.bernoulli(0.001, 424, 4096)
        word = generate(spec)
        assert word.prefix(16).weight == 0  # seed chosen so the head is constant
        trace = convergence_trace(spec, CoderId("shell"), [16, 4096])
        assert trace.rows[0].R is None and trace.rows[0].H == 0.0
        assert trace.rows[1].R is not None

    def test_schedule_validation(self):
        spec = GeneratorSpec.bernoulli(0.3, 9, 64)
        with pytest.raises(ValueError):
            convergence_trace(spec, CoderId("shell"), [8, 8])
        with pytest.raises(ValueError):
            convergence_trace(spec, CoderId("shell"), [8, 128])
        with pytest.raises(ValueError):
            convergence_trace(spec, CoderId("shell"), [])

    def test_csv_columns(self):
        spec = GeneratorSpec.bernoulli(0.3, 9, 64)
        trace = convergence_trace(spec, CoderId("shell"), [16, 64])
        buf = io.StringIO()
        write_records(trace.rows, "csv", buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "m,p_hat,H,K_eff,R,coder"
        assert len(lines) == 3
        assert lines[1].endswith(",shell")

    def test_median_frequency_error_decreases(self):
        p = 0.3
        lengths = [16 * 2**j for j in range(14)]
        words = [generate(GeneratorSpec.bernoulli(p, 1000 + s, 2**17)) for s in range(50)]
        cums = [np.concatenate([[0], np.cumsum(w.bits, dtype=np.int64)]) for w in words]
        meds = [
            float(np.median([abs(int(c[L]) / L - p) for c in cums])) for L in lengths
        ]
        assert all(b < a for a, b in zip(meds, meds[1:]))

    def test_memory_per_input_bit(self):
        """convergence_trace for model_class and pair_shell on a 2^22-bit
        block word, cut at 16, 32, ..., 2^22, peaks under 2 bytes a bit
        (tracemalloc, about 1.8 and 1.4; the generated word keeps only its
        packed words): the statistics recorded at the cuts add nothing a
        bit.  A fresh
        interpreter starts with cold entropy caches and numpy modules not
        yet imported, as the first call of a command does."""
        code = """
import sys, tracemalloc
from kadjust import CoderId, GeneratorSpec, convergence_trace
n = 1 << 22
schedule = [16 << j for j in range(18)] + [n]
tracemalloc.start()
convergence_trace(GeneratorSpec.block(7, n), CoderId(sys.argv[1]), schedule)
print(tracemalloc.get_traced_memory()[1] / n)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(simulate.__file__).parent.parent))
        for name in ("model_class", "pair_shell"):
            proc = subprocess.run([sys.executable, "-c", code, name], capture_output=True, text=True, env=env,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert float(proc.stdout) <= 2.0, (name, proc.stdout)


class TestEntropyRate:
    """K_eff / m on a prefix of m = 10^5 bits approaches the entropy rate."""

    @staticmethod
    def rate(spec: GeneratorSpec, coder: str) -> float:
        return code_word(CoderId(coder), generate(spec)).ideal_len / spec.length

    def test_sparse_bernoulli_rate(self):
        rate = self.rate(GeneratorSpec.bernoulli(0.1, 31, 100_000), "shell")
        assert rate == pytest.approx(0.469, abs=0.01)

    def test_balanced_bernoulli_rate(self):
        rate = self.rate(GeneratorSpec.bernoulli(0.5, 32, 100_000), "shell")
        assert rate == pytest.approx(1.0, abs=0.01)

    def test_block_rate_under_pair_shell(self):
        rate = self.rate(GeneratorSpec.block(33, 100_000), "pair_shell")
        assert rate == pytest.approx(0.5 * math.log2(3), abs=0.01)


class TestIntegerDraws:
    """The generators compare raw SplitMix64 outputs with integer thresholds;
    the words equal those of the float uniforms (z >> 11) * 2^-53."""

    PS = [0.5, 0.3, 0.1, 1e-9, 1 - 2.0**-53, 0.25]  # p * 2^53 is an integer at 0.25

    @staticmethod
    def float_uniforms(z: np.ndarray) -> np.ndarray:
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53

    @pytest.mark.parametrize("p", PS)
    def test_bernoulli_words_equal_float_draws(self, p):
        for seed in (0, 5, 2**64 - 1):
            for length in (1, 63, 4097, (1 << 17) + 5):  # the last in three draw blocks
                word = generate(GeneratorSpec.bernoulli(p, seed, length))
                assert word.bits.tolist() == (uniform_floats(seed, length) < p).tolist()

    @pytest.mark.parametrize("p", PS)
    def test_bernoulli_threshold_at_its_boundary(self, p):
        # the outputs around the threshold: the last 53-bit value below p
        # with its lowest and highest low bits, and the first one at p
        k = math.ceil(p * 2.0**53)
        z = np.array([(k - 1) << 11, ((k - 1) << 11) | 0x7FF, k << 11, (k << 11) | 0x7FF],
                     dtype=np.uint64)
        assert (z < bernoulli_threshold(p)).tolist() == (self.float_uniforms(z) < p).tolist()
        assert (z < bernoulli_threshold(p)).tolist() == [True, True, False, False]

    def test_monte_carlo_words_equal_float_draws(self):
        cfg = Config(m=1, coder=CoderId("shell"))
        trials, n, seed = 50, 64, 3
        result = monte_carlo_fpr(0.3, n, cfg, trials, seed)
        seeds = splitmix_outputs(seed, trials)
        deficiencies = adjusted_deficiencies(uniform_floats(seeds, n) < 0.3, CoderId("shell"))
        assert [row.rejections for row in result.rows] == [
            int(np.count_nonzero(deficiencies >= m)) for m in range(1, 9)
        ]

    def test_block_words_equal_float_draws(self):
        for seed in (0, 21, 2**64 - 1):
            for length in (1, 2, 31, 4097, (1 << 18) + 5):  # the last in five draw blocks
                nblocks = (length + 1) // 2
                index = np.minimum((uniform_floats(seed, nblocks) * 3).astype(np.int64), 2)
                bits = np.stack([index == 2, index >= 1], axis=1).ravel()[:length]
                assert generate(GeneratorSpec.block(seed, length)).bits.tolist() == bits.tolist()

    def test_block_thresholds_at_their_boundaries(self):
        # 3u rounds up to 2 at u = (2^54 - 1) / 3 * 2^-53, short of 2 / 3
        for j, t in ((1, simulate._BLOCK_01), (2, simulate._BLOCK_11)):
            k = int(t) >> 11
            z = np.array([(k - 1) << 11 | 0x7FF, k << 11], dtype=np.uint64)
            index = np.minimum((self.float_uniforms(z) * 3).astype(np.int64), 2)
            assert (index >= j).tolist() == (z >= t).tolist() == [False, True]
        assert int(simulate._BLOCK_11) >> 11 == (2**54 - 1) // 3
