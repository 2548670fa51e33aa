"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime (run with -s or -rA to see them all)."""

import hashlib
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import kadjust as kj
from kadjust import (
    BitWord,
    CoderId,
    GeneratorSpec,
    PairCounts,
    ShellId,
    binary_entropy,
    code_word,
    concrete_coder_ids,
    conditional_entropy,
    counting_lemma_audit,
    decode_word,
    encode_word,
    generate,
    monte_carlo_fpr,
    mutual_information_emp,
    prefix_scan,
    rank,
    unrank,
)
from kadjust.simulate import splitmix_outputs
from kadjust.testing import TestConfig as Config

from conftest import WORD35_STR, all_words


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(
        f"[PASS] criterion {number}: {description} "
        f"({elapsed:.2f}s, budget {budget_seconds:.0f}s)"
    )
    assert elapsed < budget_seconds


def shell_typical_word(n: int, k: int, seed: int) -> BitWord:
    """Seeded uniform-ish member of the (n, k) shell."""
    order = np.argsort(splitmix_outputs(seed, n), kind="stable")
    bits = np.zeros(n, dtype=np.uint8)
    bits[order[:k]] = 1
    return BitWord(bits)


def test_criterion_1_worked_example_pipeline():
    with criterion(1, "35-bit worked example pipeline", 1.0):
        word = BitWord.from01(WORD35_STR)
        assert word.weight == 9
        rep_len = kj.adjusted(word, CoderId("literal"))
        rep_comb = kj.adjusted(word, CoderId("shell"))
        assert rep_comb.H == pytest.approx(0.8225, abs=0.002)
        assert rep_comb.baseline == pytest.approx(28.79, abs=0.1)
        assert rep_len.R == pytest.approx(1.216, abs=0.01)
        assert rep_comb.R == pytest.approx(1.085, abs=0.02)
        verdict = kj.test_word(word, Config(m=5, coder=CoderId("shell")))
        assert verdict.threshold == pytest.approx(0.826, abs=0.01)
        assert verdict.decision == "accept"


def test_criterion_2_balanced_sparse_contrast():
    with criterion(2, "balanced/sparse KA contrast and alternating word", 5.0):
        n = 1000
        for k in (500, 100):
            for seed in (1, 2, 3):
                word = shell_typical_word(n, k, seed)
                assert word.weight == k
                ka = kj.adjusted(word, CoderId("shell")).KA
                assert abs(ka - n) / n <= 0.02, (k, seed, ka)
        alternating = BitWord([0, 1] * (n // 2))
        assert kj.adjusted(alternating, CoderId("model_class")).R <= 0.02


def test_criterion_3_counting_lemma_audit():
    with criterion(3, "counting-lemma audit, all concrete coders, n <= 14", 120.0):
        for coder in concrete_coder_ids():
            for n in range(1, 15):
                rows = counting_lemma_audit(n, coder)
                bad = [row for row in rows if not row.ok]
                assert not bad, (coder.name, n, bad[:3])


def test_criterion_4_fpr_calibration():
    with criterion(4, "false-positive rate <= 2^(2-m) under Bernoulli(p)", 120.0):
        cfg = Config(m=1, coder=CoderId("shell"))
        for p in (0.1, 0.3, 0.5):
            result = monte_carlo_fpr(p, 256, cfg, trials=10_000, seed=42)
            for row in result.rows:
                if row.m >= 2:
                    assert row.rate <= row.bound, (p, row)


def test_criterion_4_fpr_every_coder_and_length_kind():
    with criterion(4, "false-positive rate <= 2^(2-m) on every coder and length kind", 60.0):
        concrete = concrete_coder_ids()
        for coder in map(CoderId, kj.CODER_NAMES):
            for lengths in ("ideal", "concrete") if coder in concrete else ("ideal",):
                cfg = Config(m=1, coder=coder, lengths=lengths)
                for p in (0.1, 0.5):
                    result = monte_carlo_fpr(p, 256, cfg, trials=10_000, seed=42)
                    bad = [row for row in result.rows if not row.ok]
                    assert not bad, (coder.name, lengths, p, bad)


def test_criterion_5_main_convergence_analogue():
    with criterion(5, "Bernoulli traces reach R -> 1 and K_eff/m -> H(p)", 300.0):
        m = 2**17
        for p in (0.1, 0.3, 0.5):
            r_devs, rate_devs = [], []
            for seed in range(50):
                word = generate(GeneratorSpec.bernoulli(p, 9000 + seed, m))
                rep = kj.adjusted(word, CoderId("shell"))
                r_devs.append(abs(rep.R - 1.0))
                rate_devs.append(abs(rep.k_eff / m - binary_entropy(p)))
            assert float(np.median(r_devs)) <= 0.02, p
            assert float(np.median(rate_devs)) <= 0.01, p


def test_criterion_5_exchangeable_mixture_convergence():
    # The paper's R -> 1 holds under constructive exchangeable measures; a
    # finite Bernoulli mixture is one.  Each word draws one component.
    with criterion(5, "Bernoulli-mixture traces reach R -> 1", 60.0):
        m = 2**17
        components = [(0.5, 0.2), (0.3, 0.5), (0.2, 0.9)]
        chosen = set()
        for seed in range(1, 9):
            spec = GeneratorSpec.mixture(components, seed, m)
            for coder in (CoderId("shell"), CoderId("model_class")):
                last = kj.convergence_trace(spec, coder, kj.geometric_schedule(m)).rows[-1]
                assert last.m == m
                assert abs(last.R - 1.0) <= 0.02, (seed, coder.name, last.R)
            chosen.add(min((p for _, p in components), key=lambda p: abs(p - last.p_hat)))
        assert len(chosen) >= 2, chosen


def test_criterion_6_pathological_block_measure():
    with criterion(6, "block measure: H -> 1 but pair-shell R -> log2(3)/2", 300.0):
        m = 2**17
        word = generate(GeneratorSpec.block(seed=31, length=m))
        assert binary_entropy(word.weight / m) == pytest.approx(1.0, abs=0.01)
        rep = kj.adjusted(word, CoderId("pair_shell"))
        assert rep.R == pytest.approx(0.5 * math.log2(3), abs=0.01)
        scan = prefix_scan(word, Config(m=10, coder=CoderId("pair_shell")))
        assert scan.flagged
        last = scan.rows[-1]
        assert last.penalized / last.m_prefix == pytest.approx(
            1.0 - 0.5 * math.log2(3), abs=0.01
        )


def test_criterion_7_conditional_mutual_fixtures():
    with criterion(7, "conditional and mutual entropy fixtures", 1.0):
        pc = PairCounts(c00=19, c01=7, c10=6, c11=3)
        assert binary_entropy(6 / 25) == pytest.approx(0.795, abs=0.005)
        assert binary_entropy(3 / 10) == pytest.approx(0.881, abs=0.005)
        assert conditional_entropy(pc) == pytest.approx(0.820, abs=0.005)
        assert mutual_information_emp(pc) == pytest.approx(0.0027, abs=0.0005)


GENERATOR_DIGESTS = {
    # sha256 of the packed bit array; pins bit-exact cross-run output
    ("bernoulli", 0.3, 2024, 4096): "47331c3ac4205a921ce134d7d11331b1222b220309bbc959bc2218d8b5011554",
    ("bernoulli", 0.5, 77, 4096): "1c5b46ab5572f734aed20d20ec40da0128ebb539236baf6bd97e4a1de6569f61",
    ("mixture", None, 11, 4096): "cf86926f2ee9a3587a2acd075d223111dc4118f0b42a6a0cb4ae868d70c1c2d4",
    ("block", None, 5, 4097): "9b44b9fb46a1a5d4ac0c4b8d49b3afc732a116212da4ec1f40b35fc5e8617d9a",
}


def _digest_spec(key) -> str:
    kind, p, seed, length = key
    if kind == "bernoulli":
        spec = GeneratorSpec.bernoulli(p, seed, length)
    elif kind == "mixture":
        spec = GeneratorSpec.mixture([(0.5, 0.2), (0.5, 0.8)], seed, length)
    else:
        spec = GeneratorSpec.block(seed, length)
    return hashlib.sha256(generate(spec).bits.tobytes()).hexdigest()


def test_criterion_8_structural_properties():
    with criterion(8, "bijection, Kraft, round-trip, reproducibility", 120.0):
        # rank/unrank bijection, exhaustive n <= 16, in enumeration order
        for n in range(1, 17):
            counters = [0] * (n + 1)
            shells = [ShellId(n, k) for k in range(n + 1)]
            for word in all_words(n):
                k = word.weight
                idx = counters[k]
                assert rank(word) == idx
                assert unrank(shells[k], idx) == word
                counters[k] += 1

        # Kraft sums for every concrete coder at n <= 12
        for coder in concrete_coder_ids():
            for n in range(1, 13):
                total = Fraction(0)
                for word in all_words(n):
                    total += Fraction(1, 2 ** code_word(coder, word).concrete_len)
                assert total <= 1, (coder.name, n)

        # decode(encode(.)) identity on 10^4 seeded random words
        plan = [(64, 5000), (256, 3000), (1024, 2000)]
        for coder in concrete_coder_ids():
            counter = 0
            for length, words in plan:
                for i in range(words // len(concrete_coder_ids())):
                    word = generate(
                        GeneratorSpec.bernoulli(0.4, 60_000 + counter, length)
                    )
                    counter += 1
                    assert decode_word(coder, length, encode_word(coder, word)) == word

        # full 10^4 single-coder sweep for the model class
        counter = 0
        for length, words in plan:
            coder = CoderId("model_class")
            for i in range(words):
                word = generate(GeneratorSpec.bernoulli(0.25, 90_000 + counter, length))
                counter += 1
                assert decode_word(coder, length, encode_word(coder, word)) == word

        # reproducibility: identical spec -> identical bits, pinned digests
        for key, expected in GENERATOR_DIGESTS.items():
            assert _digest_spec(key) == expected
            assert _digest_spec(key) == expected  # second run, same output
