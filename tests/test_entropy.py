import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kadjust import (
    PairCounts,
    binary_entropy,
    conditional_entropy,
    log2_multinomial,
    mutual_information_emp,
    shell_log_size,
    shell_size,
)
from kadjust import entropy
from kadjust.entropy import ceil_log2, ceil_log2_comb

from conftest import TABLE1


class TestBinaryEntropy:
    def test_maximum_entropy_point(self):
        assert binary_entropy(0.5) == 1.0

    def test_sparse_point(self):
        assert binary_entropy(0.1) == pytest.approx(0.469, abs=1e-3)

    def test_running_example_fraction(self):
        assert binary_entropy(9 / 35) == pytest.approx(0.8225, abs=2e-3)

    def test_boundary_convention(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)

    def test_symmetry_and_peak_on_grid(self):
        grid = np.linspace(0.0, 1.0, 10_001)
        values = [binary_entropy(p) for p in grid]
        flipped = [binary_entropy(1.0 - p) for p in grid]
        assert np.allclose(values, flipped, atol=1e-12)
        assert max(values) == values[5000] == 1.0
        assert all(0.0 <= v <= 1.0 for v in values)


class TestShellLogSize:
    def test_small_shell(self):
        assert shell_log_size(4, 2) == pytest.approx(math.log2(6), abs=1e-12)

    def test_singleton_shells(self):
        for n in (1, 5, 40):
            assert shell_log_size(n, 0) == 0.0
            assert shell_log_size(n, n) == 0.0

    def test_running_example_shell(self):
        # Independently frozen exact binomial for the 35-bit fixture shell.
        assert shell_size(35, 9) == 70_607_460
        assert shell_log_size(35, 9) == pytest.approx(26.073, abs=1e-3)

    def test_domain_errors(self):
        for n, k in ((4, 5), (4, -1), (0, 0), (-2, 1)):
            with pytest.raises(ValueError):
                shell_log_size(n, k)

    def test_symmetry_exact(self):
        for n in range(1, 65):
            for k in range(n + 1):
                assert shell_log_size(n, k) == shell_log_size(n, n - k)

    def test_pascal_consistency_on_integers(self):
        for n in range(2, 41):
            for k in range(1, n):
                assert shell_size(n, k) == shell_size(n - 1, k - 1) + math.comb(n - 1, k)

    def test_row_sums_to_power_of_two(self):
        for n in range(1, 41):
            assert sum(shell_size(n, k) for k in range(n + 1)) == 1 << n

    def test_entropy_approximation_bound(self):
        # |log2 C(n,k) - n H(k/n)| <= log2(n+1), audited with c = 1.
        for n in list(range(1, 65)) + [255, 1024]:
            for k in range(n + 1):
                gap = shell_log_size(n, k) - n * binary_entropy(k / n)
                assert -math.log2(n + 1) - 1e-9 <= gap <= 1e-9

    def test_big_exact_size_matches_comb(self):
        for n in (4097, 5000, 1 << 15):
            for k in (0, 1, 2, n // 3, n // 2, n - 1, n):
                assert shell_size(n, k) == math.comb(n, k), (n, k)

    def test_big_path_matches_exact_integer(self):
        for n, k in ((4097, 1000), (8192, 4096), (131072, 1000)):
            exact = math.log2(math.comb(n, k))
            assert shell_log_size(n, k) == pytest.approx(exact, abs=1e-8)

    def test_ceil_log2_helpers(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(2) == 1
        assert ceil_log2(5) == 3
        with pytest.raises(ValueError):
            ceil_log2(0)
        # Above 4096 bits a log within 1e-6 of an integer falls back to the
        # exact binomial: C(8192, 1) = 2^13 and C(4097, 0) = 1 take that path.
        for n, k in ((6, 2), (4097, 3), (8192, 4096), (8192, 1), (8192, 8191), (4097, 0),
                     (4097, 4097)):
            size = math.comb(n, k)
            assert ceil_log2_comb(n, k) == (size - 1).bit_length()


class TestConditionalEntropy:
    def test_fixture_per_class_entropies(self):
        # Class entropies behind the fixture counts.
        assert binary_entropy(6 / 25) == pytest.approx(0.795, abs=5e-3)
        assert binary_entropy(3 / 10) == pytest.approx(0.881, abs=5e-3)

    def test_fixture_weighted_total(self, table1_counts):
        oracle = (25 / 35) * binary_entropy(6 / 25) + (10 / 35) * binary_entropy(3 / 10)
        got = conditional_entropy(table1_counts)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.820, abs=5e-3)

    def test_determined_case(self):
        # x == y: both conditional classes are constant.
        assert conditional_entropy(PairCounts(5, 0, 0, 7)) == 0.0

    def test_zero_mass_class(self):
        # All y = 0: only one conditioning class contributes.
        pc = PairCounts(3, 0, 5, 0)
        assert conditional_entropy(pc) == pytest.approx(binary_entropy(5 / 8), abs=1e-12)


class TestMutualInformation:
    def test_product_counts(self):
        assert mutual_information_emp(PairCounts(9, 3, 3, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_fixture_counts(self, table1_counts):
        hx = binary_entropy(9 / 35)
        hy = binary_entropy(10 / 35)
        hxy = -sum(
            (c / 35) * math.log2(c / 35) for c in TABLE1.values()
        )
        oracle = hx + hy - hxy
        got = mutual_information_emp(table1_counts)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.0027, abs=5e-4)

    def test_identical_balanced_words(self):
        assert mutual_information_emp(PairCounts(4, 0, 0, 4)) == pytest.approx(1.0, abs=1e-12)

    def test_exhaustive_small_inequalities(self):
        # All PairCounts with n <= 20: I >= 0 and H(X|Y) <= H(X).
        for n in range(1, 21):
            for c00 in range(n + 1):
                for c01 in range(n - c00 + 1):
                    for c10 in range(n - c00 - c01 + 1):
                        pc = PairCounts(c00, c01, c10, n - c00 - c01 - c10)
                        mi = mutual_information_emp(pc)
                        assert mi >= -1e-12
                        hx = binary_entropy((pc.c10 + pc.c11) / n)
                        assert conditional_entropy(pc) <= hx + 1e-12


class TestBlockShellLogSize:
    def test_single_block_type(self):
        assert log2_multinomial((7, 0, 0, 0)) == 0.0

    def test_small_multinomial(self):
        assert log2_multinomial((1, 1, 0, 1)) == pytest.approx(
            math.log2(6), abs=1e-12
        )

    def test_three_type_rate(self):
        k = 10_000
        value = log2_multinomial((k, k, 0, k))
        assert value / (6 * k) == pytest.approx(0.5 * math.log2(3), abs=0.01)

    def test_multinomial_matches_exact(self):
        counts = (5, 3, 2, 4)
        exact = math.factorial(14) // (
            math.factorial(5) * math.factorial(3) * math.factorial(2) * math.factorial(4)
        )
        assert log2_multinomial(counts) == pytest.approx(math.log2(exact), abs=1e-12)

    def test_multinomial_big_path_matches_exact(self):
        counts = (2000, 1500, 700, 1000)
        exact = math.factorial(5200)
        for c in counts:
            exact //= math.factorial(c)
        assert log2_multinomial(counts) == pytest.approx(math.log2(exact), abs=1e-8)

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=5))
    def test_multinomial_nonnegative(self, counts):
        assert log2_multinomial(counts) >= 0.0

    def test_block_generator_never_emits_10(self):
        # Long sample from the block-constrained source: b10 stays zero.
        from kadjust import GeneratorSpec, generate

        word = generate(GeneratorSpec.block(seed=11, length=100_000))
        pairs = word.bits.reshape(-1, 2)
        assert not np.any((pairs[:, 0] == 1) & (pairs[:, 1] == 0))


# ---------------------------------------------------------------------------
# the factorized path: Legendre exponents, and log2_multinomial against a
# frozen copy of its earlier implementation


def _legendre(m: int, p: int) -> int:
    e, q = 0, p
    while q <= m:
        e += m // q
        q *= p
    return e


def _frozen_factorial_prime_exponents(m, upto=None):
    primes = entropy._primes_upto(upto if upto is not None else m)
    exps = np.zeros(primes.size, dtype=np.int64)
    if m < 2:
        return exps
    pk = primes.astype(np.int64)  # p^i overflows int32
    alive = np.arange(primes.size)
    while alive.size:
        exps[alive] += m // pk[alive]
        pk[alive] *= primes[alive]
        alive = alive[pk[alive] <= m]
    return exps


def _frozen_log2_multinomial(counts) -> float:
    counts = [int(c) for c in counts]
    total = sum(counts)
    if total <= 4096:
        value, remaining = 1, total
        for c in counts:
            value *= math.comb(remaining, c)
            remaining -= c
        return math.log2(value) if value > 1 else 0.0
    exps = _frozen_factorial_prime_exponents(total)
    for c in counts:
        exps = exps - _frozen_factorial_prime_exponents(c, upto=total)
    primes = entropy._primes_upto(total)
    nz = exps != 0
    weights, logs = exps[nz].astype(np.float64), np.log2(primes[nz].astype(np.float64))
    value = 0.0  # dots of blocks of 10,000 entries, summed in order
    for first in range(0, weights.size, 10_000):
        value += float(np.dot(weights[first : first + 10_000], logs[first : first + 10_000]))
    return value


def _plain_primes(n: int) -> list[int]:
    sieve = [True] * (n + 1)
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(range(p * p, n + 1, p))
    return [p for p in range(2, n + 1) if sieve[p]]


class TestPrimeSieve:
    SIZES = [1, 2, 3, 4, 97, 4096, 4097, 10**5]

    @pytest.mark.parametrize("order", ["decreasing", "increasing"])
    def test_matches_plain_sieve(self, monkeypatch, order):
        # from an empty cache: decreasing sizes grow it once and then take
        # prefixes; increasing sizes grow it every time
        monkeypatch.setattr(entropy, "_primes", entropy._primes[:0])
        monkeypatch.setattr(entropy, "_primes_limit", 1)
        for n in sorted(self.SIZES, reverse=order == "decreasing"):
            primes = entropy._primes_upto(n)
            assert primes.dtype == np.int32 and not primes.flags.writeable
            assert primes.tolist() == _plain_primes(n), n

    def test_cold_sieve_peaks_below_one_byte_a_bit(self, monkeypatch):
        # the sieve takes half a byte per integer and the int32 primes about
        # 0.28; an int64 index of every prime at once would add 0.56
        monkeypatch.setattr(entropy, "_primes", entropy._primes[:0])
        monkeypatch.setattr(entropy, "_primes_limit", 1)
        n = 1 << 22
        tracemalloc.start()
        try:
            primes = entropy._primes_upto(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert primes.size == 295947  # pi(2^22)
        assert peak < n, peak / n

    def test_refuses_int32_overflow_before_sieving(self):
        with pytest.raises(ValueError, match="2\\^31"):
            entropy._primes_upto(1 << 31)


class TestFactorizedPath:
    @pytest.mark.parametrize("m", [0, 1, 2, 4096, 4097] + [
        int(v) for v in np.random.default_rng(20).integers(2, 1 << 20, 6)
    ])
    def test_prime_exponents_match_legendre(self, m):
        primes = entropy._primes_upto(m).tolist()
        four = (m // 7, m // 5, m // 2, m - m // 7 - m // 5 - m // 2)
        for counts in ((m // 3, m - m // 3), four):
            want = [_legendre(m, p) - sum(_legendre(c, p) for c in counts) for p in primes]
            assert entropy._multinomial_exponents(list(counts)).tolist() == want, counts

    def test_log2_multinomial_equals_frozen_code(self):
        rng = np.random.default_rng(21)
        tuples = [(4097,), (0, 4097, 0, 0), (1 << 20, 0), (0, 0, 0, 1 << 20)]
        for _ in range(200):
            total = int(rng.integers(4097, (1 << 20) + 1))
            parts = int(rng.integers(2, 5))
            cuts = np.sort(rng.integers(0, total + 1, parts - 1))
            counts = np.diff(np.concatenate([[0], cuts, [total]]))
            if rng.random() < 0.3:  # a zero count
                counts[rng.integers(parts)] = 0
                counts[0] += total - counts.sum()
            tuples.append(tuple(int(c) for c in counts))
        assert sum(1 for t in tuples if sum(t) > 4096) >= 200
        for counts in tuples:
            assert log2_multinomial(counts) == _frozen_log2_multinomial(counts), counts

    def test_log2_multinomial_ignores_the_blas_thread_count(self):
        # from 2^18 on, more than 10,000 primes: np.dot alone would hand
        # them to a threaded ddot, whose rounding varies with the threads
        code = (
            "from kadjust.entropy import log2_multinomial\n"
            "for counts in [(1 << 17, 1 << 17), (100003, 200001, 3), (1 << 19, 1 << 19),\n"
            "               (300000, 300000, 224288, 1 << 18)]:\n"
            "    print(repr(log2_multinomial(counts)))\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(Path(entropy.__file__).parent.parent),
                       OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.split())
        assert len(outputs[0]) == 4 and outputs[0] == outputs[1]


class TestExactMultinomial:
    """Exact coefficients are math.comb products while the counts but the
    largest sum to at most _COMB_UPTO, prime power products otherwise; both
    give the same integers."""

    @pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 3000, 4096, 4097, 1 << 14])
    def test_shell_size_equals_math_comb(self, n):
        for k in sorted({0, 1, 1024, 1025, n // 3, n // 2, n - 1, n} & set(range(n + 1))):
            assert entropy.shell_size(n, k) == math.comb(n, k), (n, k)

    def test_log2_multinomial_is_log2_of_the_exact_integer(self):
        rng = np.random.default_rng(22)
        for total in (1024, 1500, 2047, 2048, 2049, 3001, 4095, 4096):
            for p in ([1 / 3, 1 / 3, 0, 1 / 3], [0.1, 0.2, 0.3, 0.4]):
                counts = rng.multinomial(total, p).tolist()
                exact, remaining = 1, total
                for c in counts:
                    exact *= math.comb(remaining, c)
                    remaining -= c
                assert log2_multinomial(counts) == math.log2(exact), counts
