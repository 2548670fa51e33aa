"""Deficiency-threshold randomness tests, audits, and calibration.

A word is rejected at level m when its entropy deficiency
n*H - K_eff reaches m bits, equivalently when R <= c(m) = 1 - m/(n*H).
The prefix scan applies the same rule along a geometric schedule of
prefixes with a 2*log2(len+1) penalty that keeps the union over prefix
lengths conservative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coders import CoderId, code_word, concrete_len_shell, is_concrete
from .entropy import shell_log_size, shell_size
from .simulate import GeneratorSpec, derive_seed, generate, geometric_schedule, uniform_floats
from .stats import adjusted
from .words import BitWord


@dataclass(frozen=True)
class TestConfig:
    """Deficiency test parameters: threshold m (bits), coder, penalty flag."""

    m: int
    coder: CoderId
    penalty: bool = True
    lengths: str = "ideal"  # or "concrete"

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("threshold m must be >= 1")
        if self.lengths not in ("ideal", "concrete"):
            raise ValueError("lengths must be 'ideal' or 'concrete'")


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

    With cfg.penalty on, 2*log2(m+1) is subtracted from each prefix
    deficiency before comparing against cfg.m; the first row at or above
    the threshold is flagged.
    """
    if word.n < SCAN_START:
        raise ValueError(f"prefix scan requires at least {SCAN_START} bits")
    rows = []
    first_flag = None
    for m_p in geometric_schedule(word.n, SCAN_START, SCAN_FACTOR):
        d = adjusted(word.prefix(m_p), cfg.coder, cfg.lengths).deficiency
        if d is None:
            rows.append(PrefixScanRow(m_prefix=m_p, deficiency=None, penalized=None))
            continue
        penalized = d - 2.0 * math.log2(m_p + 1) if cfg.penalty else d
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


def counting_lemma_audit(n: int, coder: CoderId) -> list[AuditRow]:
    """Exhaustively count in-shell words whose concrete code undershoots
    the shell baseline by at least t bits, for t = 1..8.

    For a prefix-free coder the count in shell (n,k) can be at most
    2^(1-t) * C(n,k); each row records count against that bound.
    """
    if n < 1 or n > 16:
        raise ValueError("exhaustive audit is limited to n <= 16")
    if not is_concrete(coder):
        raise ValueError(f"coder {coder.label} has no concrete code to audit")
    shell_logs = [shell_log_size(n, k) for k in range(n + 1)]
    counts = [[0] * (AUDIT_T_MAX + 1) for _ in range(n + 1)]
    if coder.name == "shell":
        # Concrete shell lengths depend on the shell only.
        per_shell = [
            (k, shell_logs[k] - concrete_len_shell(n, k), shell_size(n, k))
            for k in range(n + 1)
        ]
        for k, d, size in per_shell:
            for t in range(1, AUDIT_T_MAX + 1):
                if d >= t:
                    counts[k][t] += size
    else:
        for v in range(1 << n):
            word = BitWord.from_uint(v, n)
            k = word.weight
            d = shell_logs[k] - code_word(coder, word).concrete_len
            t_hit = min(AUDIT_T_MAX, math.floor(d))
            for t in range(1, t_hit + 1):
                counts[k][t] += 1
    rows = []
    for k in range(n + 1):
        size = shell_size(n, k)
        for t in range(1, AUDIT_T_MAX + 1):
            count = counts[k][t]
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

    Trial i uses the derived seed derive_seed(seed, i), so parallel and
    sequential evaluation give identical results.  Constant words count as
    non-rejections.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0,1)")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if cfg.coder.name == "shell" and cfg.lengths == "ideal":
        deficiencies = _shell_deficiencies_vectorized(p, n, trials, seed)
    else:
        deficiencies = np.empty(trials, dtype=np.float64)
        for i in range(trials):
            word = generate(GeneratorSpec.bernoulli(p, derive_seed(seed, i), n))
            d = adjusted(word, cfg.coder, cfg.lengths).deficiency
            deficiencies[i] = -math.inf if d is None else d
    rows = []
    for m in FPR_M_RANGE:
        rejections = int(np.count_nonzero(deficiencies >= m))
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


def _shell_deficiencies_vectorized(p: float, n: int, trials: int, seed: int) -> np.ndarray:
    log2c = np.array([shell_log_size(n, k) for k in range(n + 1)])
    header = math.log2(n + 1)
    ks = np.empty(trials, dtype=np.int64)
    for i in range(trials):
        u = uniform_floats(derive_seed(seed, i), n)
        ks[i] = int(np.count_nonzero(u < p))
    frac = ks / n
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(
            (ks == 0) | (ks == n),
            0.0,
            -frac * np.log2(np.where(frac > 0, frac, 1.0))
            - (1 - frac) * np.log2(np.where(frac < 1, 1 - frac, 1.0)),
        )
    deficiencies = n * h - (log2c[ks] + header)
    # Constant words never reject.
    deficiencies[(ks == 0) | (ks == n)] = -np.inf
    return deficiencies
