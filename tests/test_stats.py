import io
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kadjust import (
    CODER_NAMES,
    BitWord,
    CoderId,
    GeneratorSpec,
    ZeroMutualBaselineError,
    adjusted,
    adjusted_conditional,
    adjusted_deficiencies,
    adjusted_mutual,
    binary_entropy,
    generate,
    mutual_information_emp,
    shell_log_size,
)
from kadjust import stats
from kadjust.shellcode import ideal_len_shell
from kadjust.stats import conditional_code_len, joint_pair_code_len, record, sig6, write_records

from conftest import all_words


nonconstant_words = (
    st.lists(st.integers(0, 1), min_size=2, max_size=120)
    .filter(lambda bits: 0 < sum(bits) < len(bits))
    .map(BitWord)
)

scoreable_coders = st.sampled_from([CoderId(name) for name in CODER_NAMES])


class TestAdjusted:
    def test_running_example_literal(self, word35):
        rep = adjusted(word35, CoderId("literal"))
        assert rep.R == pytest.approx(1.216, abs=0.01)
        assert rep.n == 35 and rep.w == 9

    def test_running_example_shell(self, word35):
        rep = adjusted(word35, CoderId("shell"))
        assert rep.R == pytest.approx(1.085, abs=0.02)
        assert rep.k_eff == pytest.approx(ideal_len_shell(word35.n, word35.weight), abs=1e-12)

    def test_alternating_model_class(self):
        rep = adjusted(BitWord([0, 1] * 500), CoderId("model_class"))
        assert rep.R <= 0.02

    def test_constant_word_report(self):
        word = BitWord([0] * 12)
        rep = adjusted(word, CoderId("shell"))
        assert (rep.H, rep.baseline, rep.KA, rep.R, rep.deficiency) == (0.0, 0.0, None, None, None)
        assert rep.k_eff == ideal_len_shell(word.n, word.weight)
        assert adjusted(word, CoderId("shell"), lengths="concrete").k_eff == 1.0

    def test_concrete_lengths_selectable(self, word35):
        rep = adjusted(word35, CoderId("shell"), lengths="concrete")
        assert rep.k_eff == 34.0

    @given(nonconstant_words, scoreable_coders)
    @settings(max_examples=60, deadline=None)
    def test_scale_identities(self, word, coder):
        rep = adjusted(word, coder)
        assert rep.KA == pytest.approx(rep.n * rep.R, abs=1e-9 * max(1.0, rep.KA))
        assert rep.deficiency == pytest.approx(
            rep.n * rep.H * (1.0 - rep.R), abs=1e-9 * max(1.0, rep.baseline)
        )
        assert rep.baseline == pytest.approx(rep.n * rep.H, abs=1e-9)

    def test_shell_typicality_concentration_n14(self):
        # Within every shell of n = 14 the ideal shell statistic never
        # drops below the baseline, so the fraction of the shell with
        # R < 1 - t/(n*H) is zero, within the 2^(1-t) counting budget.
        n = 14
        for k in range(1, n):
            h = binary_entropy(k / n)
            r_shell = (shell_log_size(n, k) + math.log2(n + 1)) / (n * h)
            for t in range(1, 7):
                frac = 1.0 if r_shell < 1.0 - t / (n * h) else 0.0
                assert frac <= 2.0 ** (1 - t)
            assert r_shell >= 1.0

    def test_record_keys_and_rounding(self, word35):
        rec = record(adjusted(word35, CoderId("shell")))
        assert list(rec) == ["n", "w", "H", "baseline", "k_eff", "KA", "R", "deficiency", "coder"]
        assert rec["coder"] == "shell"
        assert rec["R"] == rec["k_eff"] / rec["baseline"] == pytest.approx(1.0854, abs=1e-3)

    @pytest.mark.parametrize("n", [1, 2, 7, 9])
    def test_deficiencies_match_adjusted(self, n):
        # Every word of length n, one matrix per coder and length kind.
        words = list(all_words(n))
        matrix = np.array([w.bits for w in words])
        for coder in (CoderId(name) for name in CODER_NAMES):
            for lengths in ("ideal", "concrete"):
                if lengths == "concrete" and coder.name == "pair_shell":
                    with pytest.raises(ValueError, match="no concrete code"):
                        adjusted_deficiencies(matrix, coder, lengths)
                    continue
                got = adjusted_deficiencies(matrix, coder, lengths)
                for word, d in zip(words, got.tolist()):
                    want = adjusted(word, coder, lengths).deficiency
                    assert d == (-math.inf if want is None else want)

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_no_records_write_nothing(self, fmt):
        buf = io.StringIO()
        write_records([], fmt, buf)
        assert buf.getvalue() == ""

    def test_sig6(self):
        assert sig6(None) is None
        assert sig6(1.2345678) == 1.23457
        assert sig6(28.784100001) == 28.7841


class TestConditional:
    def test_fixture_pair(self, table1_pair):
        x, y = table1_pair
        rep = adjusted_conditional(x, y, CoderId("shell"))
        oracle_len = (
            math.log2(math.comb(25, 6)) + math.log2(26)
            + math.log2(math.comb(10, 3)) + math.log2(11)
        )
        assert rep.k_eff_cond == pytest.approx(oracle_len, abs=1e-9)
        assert rep.R_cond == pytest.approx(1.10, abs=0.05)
        assert rep.baseline == pytest.approx(x.n * rep.H_cond, abs=1e-9)

    def test_identical_words_is_determined(self):
        w = BitWord.from01("0110101")
        rep = adjusted_conditional(w, w, CoderId("shell"))
        assert rep.H_cond == 0.0 and rep.baseline == 0.0
        # x splits into the constant classes 000 and 1111
        assert rep.k_eff_cond == pytest.approx(math.log2(4) + math.log2(5), abs=1e-12)
        assert rep.KA_cond is None and rep.R_cond is None and rep.deficiency_cond is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            adjusted_conditional(BitWord.from01("01"), BitWord.from01("011"), CoderId("shell"))

    def test_constant_side_information_reduces_exactly(self):
        for i in range(100):
            x = generate(GeneratorSpec.bernoulli(0.3, seed=4000 + i, length=256))
            if 0 < x.weight < 256:
                y = BitWord([1] * 256)
                rep = adjusted_conditional(x, y, CoderId("shell"))
                unc = adjusted(x, CoderId("shell"))
                assert abs(rep.R_cond - unc.R) <= 0.02
                assert rep.R_cond == pytest.approx(unc.R, abs=1e-12)

    def test_class_split_lengths_add_up(self, table1_pair):
        x, y = table1_pair
        total = conditional_code_len(x, y, CoderId("literal"))
        assert total == x.n  # literal coding splits losslessly across classes

    @pytest.mark.parametrize("name", ["shell", "model_class"])
    def test_memory_per_input_bit(self, name):
        """conditional_code_len on two random 2^22-bit words read from bytes
        peaks under 5 bytes a bit (tracemalloc, measured at about 3.95):
        the 0/1 views of x and y, a boolean mask of y and one class of x
        at a time, dropped once packed, with no 8-byte index per bit.  A fresh interpreter starts
        with cold entropy caches, as the first call of a command does."""
        code = f"""
import tracemalloc
import numpy as np
from kadjust import BitWord, CoderId
from kadjust.stats import conditional_code_len
n = 1 << 22
rng = np.random.default_rng(5)
x, y = (BitWord.from_bytes(rng.integers(0, 256, n // 8, dtype=np.uint8).tobytes(), n) for _ in "xy")
tracemalloc.start()
conditional_code_len(x, y, CoderId({name!r}))
print(tracemalloc.get_traced_memory()[1] / n)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(stats.__file__).parent.parent))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 5.0

    def test_record_keys(self, table1_pair):
        x, y = table1_pair
        rec = record(adjusted_conditional(x, y, CoderId("shell")))
        assert list(rec) == [
            "n", "H_cond", "baseline", "k_eff_cond", "KA_cond", "R_cond",
            "deficiency_cond", "coder",
        ]


class TestMutual:
    def test_identical_balanced_pair(self):
        x = BitWord.from01("01" * 32)
        rep = adjusted_mutual(x, x, CoderId("shell"))
        assert rep.I_emp == pytest.approx(1.0, abs=1e-12)
        assert 0.8 <= rep.R_mutual <= 1.2
        assert rep.KA_mutual == pytest.approx(rep.n * rep.R_mutual, abs=1e-9)

    def test_exactly_factorizing_pair_raises(self):
        # counts (4,4,4,4) per 16 positions factorize exactly: I_emp = 0.
        x = BitWord.from01("0011" * 4)
        y = BitWord.from01("0101" * 4)
        assert mutual_information_emp(
            __import__("kadjust").PairCounts.from_words(x, y)
        ) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ZeroMutualBaselineError):
            adjusted_mutual(x, y, CoderId("shell"))

    def test_fixture_baseline(self, table1_pair):
        x, y = table1_pair
        rep = adjusted_mutual(x, y, CoderId("shell"))
        assert rep.I_emp == pytest.approx(0.0027, abs=5e-4)
        assert rep.R_mutual == pytest.approx(rep.I_eff / (35 * rep.I_emp), abs=1e-9)

    def test_negative_i_eff_reported_raw_with_warning(self, caplog):
        x = generate(GeneratorSpec.bernoulli(0.5, 0, 64))
        y = generate(GeneratorSpec.bernoulli(0.5, 1, 64))
        with caplog.at_level(logging.WARNING, logger="kadjust.stats"):
            rep = adjusted_mutual(x, y, CoderId("shell"))
        assert rep.I_eff < 0
        assert any("negative" in r.message for r in caplog.records)

    def test_joint_code_is_symmetric_inputs(self, table1_pair):
        x, y = table1_pair
        from kadjust import PairCounts

        pc = PairCounts.from_words(x, y)
        assert joint_pair_code_len(pc) > 0

    def test_record_keys(self):
        x = BitWord.from01("01" * 32)
        rec = record(adjusted_mutual(x, x, CoderId("shell")))
        assert list(rec) == ["n", "I_emp", "I_eff", "KA_mutual", "R_mutual"]
