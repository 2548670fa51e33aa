"""Deficiency-threshold randomness tests, audits, and calibration.

A word is rejected at level m when its entropy deficiency
n*H - K_eff reaches m bits, equivalently when R <= c(m) = 1 - m/(n*H).
The prefix scan applies the same rule along a geometric schedule of
prefixes with a 2*log2(len+1) penalty that keeps the union over prefix
lengths conservative.  It scores all its prefixes in one pass over the
word (stats.adjusted_prefixes through coders.kind_lengths), the kernel
recording its statistics at every prefix and finishing them all at once,
where scoring each from scratch would take about 5n for the factor 1.25;
each deficiency equals adjusted() of its prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coders import _CHUNK_BYTES, CoderId, is_concrete, kind_lengths, length_kernel
from .entropy import shell_log_size, shell_size
from .simulate import GAMMA, _bernoulli_words, geometric_schedule, splitmix_outputs
from .stats import adjusted, adjusted_deficiencies, adjusted_prefixes
from .words import BitWord, PackedRows


@dataclass(frozen=True)
class TestConfig:
    """Deficiency test parameters: threshold m (bits), coder, length kind."""

    m: int
    coder: CoderId
    lengths: str = "ideal"  # or "concrete"

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("threshold m must be >= 1")
        length_kernel(self.coder, self.lengths)  # raises on a kind the coder cannot give


@dataclass(frozen=True)
class TestVerdict:
    """Outcome of the deficiency test on one word."""

    decision: str  # "accept" | "reject" | "constant-word"
    R: float | None
    deficiency: float | None
    threshold: float | None  # c(m) = 1 - m/(n*H)
    m: int
    coder: CoderId
    n: int
    w: int

    @property
    def rejected(self) -> bool:
        return self.decision == "reject"


def test_word(word: BitWord, cfg: TestConfig) -> TestVerdict:
    """Classify a word as accept / reject / constant-word at threshold cfg.m."""
    rep = adjusted(word, cfg.coder, cfg.lengths)
    if rep.deficiency is None:
        decision, threshold = "constant-word", None
    else:
        decision = "reject" if rep.deficiency >= cfg.m else "accept"
        threshold = 1.0 - cfg.m / rep.baseline
    return TestVerdict(
        decision=decision,
        R=rep.R,
        deficiency=rep.deficiency,
        threshold=threshold,
        m=cfg.m,
        coder=cfg.coder,
        n=rep.n,
        w=rep.w,
    )


@dataclass(frozen=True)
class PrefixScanRow:
    m_prefix: int
    deficiency: float | None  # None marks a constant prefix
    penalized: float | None


@dataclass(frozen=True)
class PrefixScanResult:
    rows: tuple[PrefixScanRow, ...]
    first_flag_index: int | None

    @property
    def flagged(self) -> bool:
        return self.first_flag_index is not None

    @property
    def flagged_length(self) -> int | None:
        if self.first_flag_index is None:
            return None
        return self.rows[self.first_flag_index].m_prefix


SCAN_START = 4
SCAN_FACTOR = 1.25


def prefix_scan(word: BitWord, cfg: TestConfig) -> PrefixScanResult:
    """Run the deficiency test along growing prefixes of the word.

    2*log2(m+1) is subtracted from each prefix deficiency before comparing
    against cfg.m; the first row at or above the threshold is flagged.
    """
    if word.n < SCAN_START:
        raise ValueError(f"prefix scan requires at least {SCAN_START} bits")
    rows = []
    first_flag = None
    schedule = geometric_schedule(word.n, SCAN_START, SCAN_FACTOR)
    for rep in adjusted_prefixes(word, cfg.coder, schedule, cfg.lengths):
        m_p, d = rep.n, rep.deficiency
        if d is None:
            rows.append(PrefixScanRow(m_prefix=m_p, deficiency=None, penalized=None))
            continue
        penalized = d - 2.0 * math.log2(m_p + 1)
        rows.append(PrefixScanRow(m_prefix=m_p, deficiency=d, penalized=penalized))
        if first_flag is None and penalized >= cfg.m:
            first_flag = len(rows) - 1
    return PrefixScanResult(rows=tuple(rows), first_flag_index=first_flag)


@dataclass(frozen=True)
class AuditRow:
    k: int
    t: int
    count: int
    bound: float
    ok: bool


AUDIT_T_MAX = 8
_AUDIT_BLOCK = 1 << 16  # words scored a kind_lengths() call


def counting_lemma_audit(n: int, coder: CoderId, lengths: str = "concrete") -> list[AuditRow]:
    """Exhaustively count in-shell words whose length of the kind lengths,
    concrete or ideal, undershoots the shell baseline by at least t bits,
    for t = 1..8, for 1 <= n <= 20.

    For lengths that satisfy Kraft's inequality, as a prefix-free code's
    concrete lengths and every coder's ideal lengths do, the count in shell
    (n,k) can be at most 2^(1-t) * C(n,k); each row records count against
    that bound.  Word v is the integer v's n big-endian binary digits, so
    its packed row is the one word v << (64 - n) and its weight that
    word's popcount: the words come from arange in blocks of at most
    _AUDIT_BLOCK, each scored in one kind_lengths() call as packed rows,
    and no 0/1 matrix is built.
    A deficit reaches the integer t exactly when its floor does: one
    bincount a block tallies words by weight and floor, clipped to
    0..AUDIT_T_MAX, the blocks' tallies are added up, and a cumulative sum
    from the top gives the count for each t.
    """
    if not 1 <= n <= 20:
        raise ValueError("exhaustive audit needs 1 <= n <= 20")
    if lengths == "concrete" and not is_concrete(coder):
        raise ValueError(f"coder {coder.name} has no concrete code to audit")
    shell_logs = np.array([shell_log_size(n, k) for k in range(n + 1)])
    tally = np.zeros((n + 1) * (AUDIT_T_MAX + 1), dtype=np.int64)
    for start in range(0, 1 << n, _AUDIT_BLOCK):
        words = np.arange(start, min(1 << n, start + _AUDIT_BLOCK), dtype=np.uint64) << np.uint64(64 - n)
        ks = np.bitwise_count(words).astype(np.int64)
        deficits = shell_logs[ks] - kind_lengths(coder, PackedRows(words[:, None], n), lengths).lengths
        floors = np.clip(np.floor(deficits), 0, AUDIT_T_MAX).astype(np.int64)
        tally += np.bincount(ks * (AUDIT_T_MAX + 1) + floors, minlength=tally.size)
    at_least = np.cumsum(tally.reshape(n + 1, -1)[:, ::-1], axis=1)[:, ::-1]  # [k, t]: deficit >= t
    rows = []
    for k, counts in enumerate(at_least[:, 1:].tolist()):
        size = shell_size(n, k)
        for t, count in enumerate(counts, 1):
            # count <= 2^(1-t) * C(n,k), checked exactly on integers
            ok = count * (1 << t) <= 2 * size
            rows.append(AuditRow(k=k, t=t, count=count, bound=2.0 ** (1 - t) * size, ok=ok))
    return rows


@dataclass(frozen=True)
class FprRow:
    m: int
    trials: int
    rejections: int
    rate: float
    bound: float  # 2^(2-m), the calibrated reference
    ok: bool  # rate <= bound


@dataclass(frozen=True)
class FprResult:
    p: float
    n: int
    coder: CoderId
    seed: int
    rows: tuple[FprRow, ...]

    def rate(self, m: int) -> float:
        for row in self.rows:
            if row.m == m:
                return row.rate
        raise KeyError(m)


FPR_M_RANGE = range(1, 9)


def monte_carlo_fpr(
    p: float, n: int, cfg: TestConfig, trials: int, seed: int
) -> FprResult:
    """Empirical rejection rate under Bernoulli(p) for thresholds m = 1..8.

    Trial i draws its word from the seed s_i = splitmix_outputs(seed, trials)[i],
    through the draw generate() makes, so it equals
    generate(GeneratorSpec.bernoulli(p, s_i, n)).  The trials come in
    batches of at most _CHUNK_BYTES of packed words (one word when n is
    larger), the budget of a kernel's chunk: 10^4 words of 256 bits are one
    batch.  Each batch's seeds are outputs start + 1 .. of seed, its words
    are drawn straight into packed rows, a draw block at a time, and it is
    scored in one adjusted_deficiencies() call under cfg's coder and length
    kind, which gives every word the deficiency adjusted() gives it.  Its
    rejections are tallied before the next batch is drawn, so memory is one
    batch and one draw block's temporaries, however many trials there are.
    Constant words count as non-rejections.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0,1)")
    if n < 1:
        raise ValueError("length must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    batch = max(1, _CHUNK_BYTES // 8 // -(-n // 64))
    ms = np.array(FPR_M_RANGE)
    counts = np.zeros(len(ms), dtype=np.int64)
    for start in range(0, trials, batch):
        size = min(batch, trials - start)  # the seeds: outputs start + 1 .. of seed
        words = PackedRows(_bernoulli_words(p, splitmix_outputs(int(seed) + start * GAMMA, size), n), n)
        deficiencies = adjusted_deficiencies(words, cfg.coder, cfg.lengths)
        counts += np.count_nonzero(deficiencies[:, None] >= ms, axis=0)
        del words, deficiencies  # not held while the next batch is drawn
    rows = []
    for m, rejections in zip(FPR_M_RANGE, counts.tolist()):
        rate, bound = rejections / trials, 2.0 ** (2 - m)
        rows.append(
            FprRow(
                m=m,
                trials=trials,
                rejections=rejections,
                rate=rate,
                bound=bound,
                ok=rate <= bound,
            )
        )
    return FprResult(p=p, n=n, coder=cfg.coder, seed=seed, rows=tuple(rows))
