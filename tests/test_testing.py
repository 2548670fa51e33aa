import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kadjust import (
    CODER_NAMES,
    BitWord,
    CoderId,
    GeneratorSpec,
    adjusted_deficiencies,
    code_word,
    counting_lemma_audit,
    generate,
    monte_carlo_fpr,
    prefix_scan,
    shell_log_size,
    shell_size,
)
from kadjust import TestConfig as Config
from kadjust import testing
from kadjust import test_word as run_test
from kadjust.coders import is_concrete
from kadjust.simulate import geometric_schedule
from kadjust.stats import record, write_records
from kadjust.testing import SCAN_FACTOR, SCAN_START

from conftest import all_words, derive_seed

nonconstant_words = (
    st.lists(st.integers(0, 1), min_size=2, max_size=80)
    .filter(lambda bits: 0 < sum(bits) < len(bits))
    .map(BitWord)
)


class TestTestWord:
    def test_running_example_accepts(self, word35):
        v = run_test(word35, Config(m=5, coder=CoderId("shell")))
        assert v.decision == "accept"
        assert v.threshold == pytest.approx(0.826, abs=0.01)
        assert v.R == pytest.approx(1.085, abs=0.02)

    def test_alternating_rejects(self):
        v = run_test(BitWord([0, 1] * 500), Config(m=5, coder=CoderId("model_class")))
        assert v.decision == "reject"
        assert v.deficiency > 900

    def test_constant_word_channel(self):
        v = run_test(BitWord([0] * 12), Config(m=5, coder=CoderId("shell")))
        assert v.decision == "constant-word"
        assert v.R is None and v.deficiency is None and v.threshold is None
        assert not v.rejected

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Config(m=0, coder=CoderId("shell"))
        with pytest.raises(ValueError):
            Config(m=2, coder=CoderId("shell"), lengths="nope")

    @given(nonconstant_words, st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_deficiency_and_ratio_forms_agree(self, word, m):
        v = run_test(word, Config(m=m, coder=CoderId("model_class")))
        assert (v.deficiency >= m) == (v.decision == "reject")
        if abs(v.R - v.threshold) > 1e-9:  # off the knife edge
            assert (v.R <= v.threshold) == (v.decision == "reject")

    @given(nonconstant_words)
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_m(self, word):
        decisions = [
            run_test(word, Config(m=m, coder=CoderId("model_class"))).rejected
            for m in range(1, 9)
        ]
        # once acceptance starts it persists as m grows
        for earlier, later in zip(decisions, decisions[1:]):
            assert earlier or not later

    def test_verdict_record_keys(self, word35):
        rec = record(run_test(word35, Config(m=5, coder=CoderId("shell"))))
        assert list(rec) == ["decision", "R", "deficiency", "threshold", "m", "coder", "n", "w"]


class TestPrefixScan:
    def test_schedule_is_geometric_and_capped(self):
        sched = geometric_schedule(100, SCAN_START, SCAN_FACTOR)
        assert sched[0] == 4 and sched[-1] == 100
        assert all(b > a for a, b in zip(sched, sched[1:]))
        assert 5 in sched and 7 in sched  # ceil(4 * 1.25^j) early values

    def test_block_source_flagged_with_expected_slope(self):
        word = generate(GeneratorSpec.block(17, 100_000))
        cfg = Config(m=10, coder=CoderId("pair_shell"))
        res = prefix_scan(word, cfg)
        assert res.flagged
        assert res.flagged_length < 10_000
        last = res.rows[-1]
        assert last.penalized / last.m_prefix == pytest.approx(1 - 0.5 * math.log2(3), abs=0.01)

    def test_balanced_bernoulli_never_flagged(self):
        cfg = Config(m=10, coder=CoderId("shell"))
        for s in range(50):
            word = generate(GeneratorSpec.bernoulli(0.5, 2000 + s, 100_000))
            assert not prefix_scan(word, cfg).flagged

    def test_constant_head_rows_marked(self):
        tail = generate(GeneratorSpec.bernoulli(0.5, 3, 240))
        word = BitWord(np.concatenate([np.zeros(16, dtype=np.uint8), tail.bits]))
        res = prefix_scan(word, Config(m=5, coder=CoderId("shell")))
        assert res.rows[0].deficiency is None and res.rows[0].penalized is None
        assert res.rows[-1].deficiency is not None

    def test_penalty_subtracts_log_term(self, word35):
        res = prefix_scan(word35, Config(m=5, coder=CoderId("shell")))
        for row in res.rows:
            if row.deficiency is not None:
                assert row.penalized == pytest.approx(
                    row.deficiency - 2 * math.log2(row.m_prefix + 1), abs=1e-9
                )

    def test_short_word_rejected(self):
        with pytest.raises(ValueError):
            prefix_scan(BitWord.from01("011"), Config(m=1, coder=CoderId("shell")))

    @pytest.mark.parametrize(
        "name, kind",
        [
            ("literal", "ideal"), ("literal", "concrete"), ("shell", "ideal"), ("shell", "concrete"),
            ("run_length", "ideal"), ("run_length", "concrete"), ("periodic", "ideal"),
            ("periodic", "concrete"), ("pair_shell", "ideal"), ("model_class", "ideal"),
            ("model_class", "concrete"),
        ],
    )
    @pytest.mark.parametrize("p", [0.5, 0.2])
    def test_union_bound_over_prefixes(self, name, kind, p):
        """The share of Bernoulli words the scan flags at some prefix stays
        within the union bound 2^(2-m) * sum_j (m_j + 1)^-2 over the
        schedule's prefix lengths m_j, plus three binomial standard
        deviations.  A row's penalized deficiency does not depend on m, so
        one scan at m = 1 gives the verdict at m = 1, 2 and 3."""
        n, trials = 256, 80
        weights = sum((m_j + 1) ** -2 for m_j in geometric_schedule(n, SCAN_START, SCAN_FACTOR))
        cfg = Config(m=1, coder=CoderId(name), lengths=kind)
        flagged = {1: 0, 2: 0, 3: 0}
        for i in range(trials):
            res = prefix_scan(generate(GeneratorSpec.bernoulli(p, derive_seed(31, i), n)), cfg)
            worst = max((row.penalized for row in res.rows if row.penalized is not None), default=-math.inf)
            assert res.flagged == (worst >= 1)
            for m in flagged:
                flagged[m] += worst >= m
        for m, count in flagged.items():
            bound = 2.0 ** (2 - m) * weights
            slack = 3 * math.sqrt(bound * (1 - bound) / trials)
            assert count / trials <= bound + slack, (m, count, bound)

    def test_deterministic(self):
        word = generate(GeneratorSpec.block(4, 5000))
        cfg = Config(m=5, coder=CoderId("pair_shell"))
        assert prefix_scan(word, cfg) == prefix_scan(word, cfg)


class TestCountingLemmaAudit:
    def test_run_length_n10_within_bounds(self):
        rows = counting_lemma_audit(10, CoderId("run_length"))
        assert all(row.ok for row in rows)
        assert {row.t for row in rows} == set(range(1, 9))
        assert {row.k for row in rows} == set(range(11))

    def test_all_concrete_coders_n8(self):
        from kadjust import concrete_coder_ids

        for coder in concrete_coder_ids():
            rows = counting_lemma_audit(8, coder)
            assert all(row.ok for row in rows), coder.name

    def test_counts_match_brute_force(self):
        from kadjust import concrete_coder_ids

        # Every count is zero at n=8; periodic words of 12 bits give nonzero ones.
        cases = [(8, coder) for coder in concrete_coder_ids()] + [(12, CoderId("periodic"))]
        nonzero = 0
        for n, coder in cases:
            rows = {(r.k, r.t): r.count for r in counting_lemma_audit(n, coder)}
            deficits = [
                (w.weight, shell_log_size(n, w.weight) - code_word(coder, w).concrete_len)
                for w in all_words(n)
            ]
            for k in range(n + 1):
                for t in range(1, 9):
                    brute = sum(1 for wk, d in deficits if wk == k and d >= t)
                    assert rows[(k, t)] == brute, (n, coder.name, k, t)
                    nonzero += brute > 0
        assert nonzero > 0

    def test_counts_match_masks_n16(self):
        # periodic deficits at n=16 reach every floor from 1 to 7; the
        # reference counts each (k, t) with its own mask
        from kadjust import kind_lengths

        n, coder = 16, CoderId("periodic")
        words = ((np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)
        ks = words.sum(axis=1)
        deficits = np.array([shell_log_size(n, k) for k in ks.tolist()]) - kind_lengths(coder, words, "concrete").lengths
        want = [
            (k, t, int(np.count_nonzero(deficits[ks == k] >= t))) for k in range(n + 1) for t in range(1, 9)
        ]
        assert [(r.k, r.t, r.count) for r in counting_lemma_audit(n, coder)] == want
        assert {t for k, t, count in want if count} == set(range(1, 8))

    def test_bound_column_value(self):
        rows = counting_lemma_audit(6, CoderId("literal"))
        for row in rows:
            assert row.bound == pytest.approx(2.0 ** (1 - row.t) * shell_size(6, row.k))

    @pytest.mark.parametrize("n", [17, 18])
    def test_every_coder_and_kind_long(self, n):
        """The counting lemma holds on every coder and length kind at n = 17
        and 18, each scored in blocks of 2^16 words."""
        for name in CODER_NAMES:
            for kind in ("ideal", "concrete") if is_concrete(CoderId(name)) else ("ideal",):
                rows = counting_lemma_audit(n, CoderId(name), kind)
                assert len(rows) == (n + 1) * testing.AUDIT_T_MAX
                assert all(row.ok for row in rows), (name, kind)

    def test_blocks_add_up(self, monkeypatch):
        """Blocks of a few words tally what one block does."""
        want = {kind: counting_lemma_audit(11, CoderId("model_class"), kind) for kind in ("ideal", "concrete")}
        monkeypatch.setattr(testing, "_AUDIT_BLOCK", 96)
        for kind, rows in want.items():
            assert counting_lemma_audit(11, CoderId("model_class"), kind) == rows

    def test_validation(self):
        for n in (0, 21):
            with pytest.raises(ValueError, match=r"1 <= n <= 20"):
                counting_lemma_audit(n, CoderId("shell"))
        with pytest.raises(ValueError):
            counting_lemma_audit(8, CoderId("pair_shell"))


class TestMonteCarloFpr:
    def test_bound_holds_balanced(self):
        cfg = Config(m=1, coder=CoderId("shell"))
        res = monte_carlo_fpr(0.5, 256, cfg, trials=2000, seed=10)
        for row in res.rows:
            if row.m >= 2:
                assert row.rate <= row.bound

    def test_bound_holds_imbalanced(self):
        cfg = Config(m=1, coder=CoderId("shell"))
        res = monte_carlo_fpr(0.1, 256, cfg, trials=2000, seed=11)
        for row in res.rows:
            if row.m >= 2:
                assert row.rate <= row.bound

    def test_ideal_shell_never_rejects(self):
        # The log2(n+1) header keeps the ideal shell deficiency nonpositive.
        res = monte_carlo_fpr(0.3, 128, Config(m=1, coder=CoderId("shell")), 1000, seed=3)
        assert all(row.rejections == 0 for row in res.rows)

    @pytest.mark.parametrize("n", [3000, (1 << 16) + 1031])  # the second: two column blocks
    def test_trial_words_match_generate_across_draw_blocks(self, monkeypatch, n):
        p, seed = 0.3, 21
        trials = 2 * (testing._DRAW_BLOCK // n) + 3  # three draw blocks
        scored = []

        def spy(bits, coder, lengths):
            scored.extend(BitWord(row) for row in bits)
            return adjusted_deficiencies(bits, coder, lengths)

        monkeypatch.setattr(testing, "adjusted_deficiencies", spy)
        monte_carlo_fpr(p, n, Config(m=1, coder=CoderId("shell")), trials, seed)
        assert scored == [
            generate(GeneratorSpec.bernoulli(p, derive_seed(seed, i), n)) for i in range(trials)
        ]

    def test_peak_below_four_bytes_per_bit(self):
        # A trial word longer than the draw block is drawn in column blocks;
        # drawing all its 8-byte outputs at once peaks at 17 bytes a bit.
        n, cfg = 1 << 21, Config(m=1, coder=CoderId("shell"))
        monte_carlo_fpr(0.5, n, cfg, 1, seed=3)  # grows the sieve, fills the caches
        tracemalloc.start()
        try:
            monte_carlo_fpr(0.5, n, cfg, 2, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n, peak / n

    def test_rates_match_per_trial_reference(self):
        # Words of 16 bits reject at every m = 1..8 under Bernoulli(0.5) and
        # the periodic coder.
        n, p, seed = 16, 0.5, 21
        trials = testing._DRAW_BLOCK // n + 904  # two draw blocks
        coder = CoderId("periodic")
        res = monte_carlo_fpr(p, n, Config(m=1, coder=coder, lengths="concrete"), trials, seed)
        words = [generate(GeneratorSpec.bernoulli(p, derive_seed(seed, i), n)) for i in range(trials)]
        # A word accepted at m=1 is accepted at every larger m.
        cfg = Config(m=1, coder=coder, lengths="concrete")
        words = [w for w in words if run_test(w, cfg).rejected]
        for m in range(1, 9):
            cfg = Config(m=m, coder=coder, lengths="concrete")
            brute = sum(run_test(w, cfg).rejected for w in words)
            assert brute > 0  # the reference rejects, so the rates can differ
            assert res.rate(m) == brute / trials

    def test_generic_coder_path(self):
        cfg = Config(m=1, coder=CoderId("run_length"))
        res = monte_carlo_fpr(0.5, 64, cfg, trials=400, seed=5)
        for row in res.rows:
            if row.m >= 2:
                assert row.rate <= row.bound

    def test_deterministic(self):
        cfg = Config(m=1, coder=CoderId("shell"))
        a = monte_carlo_fpr(0.5, 64, cfg, 500, seed=9)
        b = monte_carlo_fpr(0.5, 64, cfg, 500, seed=9)
        assert a == b

    def test_csv_columns(self):
        cfg = Config(m=1, coder=CoderId("shell"))
        res = monte_carlo_fpr(0.5, 64, cfg, 100, seed=2)
        buf = io.StringIO()
        write_records(res.rows, "csv", buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "m,trials,rejections,rate,bound,ok"
        assert len(lines) == 9

    def test_validation(self):
        cfg = Config(m=1, coder=CoderId("shell"))
        with pytest.raises(ValueError):
            monte_carlo_fpr(0.0, 64, cfg, 10, seed=1)
        with pytest.raises(ValueError):
            monte_carlo_fpr(0.5, 64, cfg, 0, seed=1)
        for name in CODER_NAMES:
            for n in (0, -3):
                with pytest.raises(ValueError, match="length must be >= 1"):
                    monte_carlo_fpr(0.5, n, Config(m=1, coder=CoderId(name)), 10, seed=1)
