"""Entropy-adjusted complexity reports.

The central statistic is the ratio R = K_eff / (n * H) of a computable
description length to the empirical-entropy baseline, together with its
scale KA = K_eff / H and the deficiency n*H - K_eff.  Conditional and
mutual variants swap in the empirical conditional entropy and empirical
mutual information baselines.

Every result is a dataclass; record and write_records turn results into
the json, csv or table output of the CLI and the experiment scripts.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .coders import CoderId, kind_lengths
from .entropy import (
    binary_entropy,
    conditional_entropy,
    log2_multinomial,
    mutual_information_emp,
)
from .words import BitWord, PackedRows, PairCounts, prefix_ones

logger = logging.getLogger(__name__)


class ZeroMutualBaselineError(ValueError):
    """The empirical mutual information baseline is (numerically) zero."""


def sig6(value):
    """Round a float to 6 significant digits for table output."""
    if value is None:
        return None
    return float(f"{value:.6g}")


def record(result) -> dict:
    """The fields of a result dataclass in declaration order; a CoderId
    becomes its name."""
    rec = {}
    for f in fields(result):
        value = getattr(result, f.name)
        rec[f.name] = value.name if isinstance(value, CoderId) else value
    return rec


RECORD_FORMATS = ("json", "csv", "table")


def write_records(results, fmt: str, out) -> None:
    """Write result dataclasses as records: one JSON object per line, CSV
    with a header row, or a key/value block per record.

    json and csv keep full float precision; table rounds floats through
    sig6.  Every line ends in a bare newline.
    """
    records = [record(r) for r in results]
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(rec) + "\n")
    elif fmt == "csv":
        if records:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(records[0].keys())
            writer.writerows(rec.values() for rec in records)
    elif fmt == "table":
        for rec in records:
            width = max(len(k) for k in rec)
            for k, v in rec.items():
                shown = "-" if v is None else sig6(v) if isinstance(v, float) else v
                out.write(f"{k:<{width}}  {shown}\n")
            out.write("\n")
    else:
        raise ValueError(f"unknown record format {fmt!r}")


@dataclass(frozen=True)
class AdjustedReport:
    """Statistic bundle for one word under one coder.

    KA, R and deficiency are None for a constant word, whose entropy
    baseline is zero.
    """

    n: int
    w: int
    H: float
    baseline: float
    k_eff: float
    KA: float | None
    R: float | None
    deficiency: float | None
    coder: CoderId


@dataclass(frozen=True)
class ConditionalReport:
    """Adjusted statistics of x against the conditional baseline given y.

    KA_cond, R_cond and deficiency_cond are None when y determines x,
    which makes the conditional baseline zero.
    """

    n: int
    H_cond: float
    baseline: float
    k_eff_cond: float
    KA_cond: float | None
    R_cond: float | None
    deficiency_cond: float | None
    coder: CoderId


@dataclass(frozen=True)
class MutualReport:
    """Effective mutual information of a pair against the empirical baseline.

    I_eff can be negative for surrogate coders; it is reported as-is.
    """

    n: int
    I_emp: float
    I_eff: float
    KA_mutual: float
    R_mutual: float


def _ratios(k_eff: float, h: float, baseline: float):
    """(KA, R, deficiency) = (K/H, K/(nH), nH - K) of a length K against
    the entropy H and baseline nH; all three None when H is zero."""
    if h == 0.0:
        return None, None, None
    return k_eff / h, k_eff / baseline, baseline - k_eff


def adjusted(word: BitWord, coder: CoderId, lengths: str = "ideal") -> AdjustedReport:
    """Full adjusted-complexity report for a word under the chosen coder.

    A constant word gets H = 0, baseline = 0 and its k_eff under the
    requested length kind, with KA, R and deficiency None.
    """
    return _report(word.n, word.weight, _k_eff(word, coder, lengths), coder)


def _k_eff(word: BitWord, coder: CoderId, lengths: str) -> float:
    """The word's length of the kind lengths under the coder."""
    return float(kind_lengths(coder, word, lengths).lengths[0])


def _report(n: int, w: int, k_eff: float, coder: CoderId) -> AdjustedReport:
    """The report of a word of n bits and weight w that codes in k_eff bits."""
    h = binary_entropy(w / n)
    baseline = n * h
    return AdjustedReport(n, w, h, baseline, k_eff, *_ratios(k_eff, h, baseline), coder)


def adjusted_prefixes(
    word: BitWord, coder: CoderId, points, lengths: str = "ideal"
) -> list[AdjustedReport]:
    """adjusted(word.prefix(m), coder, lengths) for every m in points,
    which increase strictly from 1 to at most word.n, from one pass over
    the word: kind_lengths() scores every prefix, and the weights are the
    prefix popcounts of the packed words at the points (prefix_ones)."""
    points = list(points)
    k_effs = kind_lengths(coder, word, lengths, points).lengths.tolist()
    weights = prefix_ones(word.packed[None], word.n, points)[0].tolist()
    return [_report(m, w, float(k_eff), coder) for m, w, k_eff in zip(points, weights, k_effs)]


def adjusted_deficiencies(bits, coder: CoderId, lengths: str = "ideal") -> np.ndarray:
    """Deficiency n*H - K_eff of every row of packed rows (a PackedRows) or
    of a 0/1 matrix, one word per row, equal to adjusted(BitWord(row),
    coder, lengths).deficiency; -inf for a constant row.

    PackedRows.of checks and packs a 0/1 matrix once.  The rows are scored
    in one kind_lengths() call, which slices them into chunks of at most
    _CHUNK_BYTES // 8 cells; the weights are the rows' popcounts, and H
    comes from one binary_entropy() call per distinct weight.
    """
    rows = PackedRows.of(bits)
    k_eff = kind_lengths(coder, rows, lengths).lengths
    n = rows.n
    # with return_inverse np.unique sorts; without, numpy 2 takes a hashing
    # path that imports numpy.ma on first use, about 1 MiB of RSS
    weights, inverse = np.unique(prefix_ones(rows.words, n, [n])[:, 0], return_inverse=True)
    baselines = np.array([n * binary_entropy(w / n) for w in weights.tolist()])
    baselines[baselines == 0.0] = -np.inf  # a constant row's deficiency
    deficiency = baselines[inverse]
    deficiency -= k_eff
    return deficiency


def conditional_code_len(
    x: BitWord, y: BitWord, coder: CoderId, lengths: str = "ideal"
) -> float:
    """Description length of x coded separately within each y-value class.

    The coordinates of x are split by the value of y and each class
    subword is scored by the coder on its own; empty classes cost nothing.
    With the shell coder this is the two-class conditional shell code.
    """
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")
    total = 0.0
    xbits, ybits, ones = x.bits, y.bits, y.weight
    for b, size in ((0, x.n - ones), (1, ones)):
        if size:  # a boolean mask, not an index per bit; the class's bits go once packed
            total += _k_eff(BitWord(xbits[ybits == b]), coder, lengths)
    return total


def adjusted_conditional(
    x: BitWord, y: BitWord, coder: CoderId, lengths: str = "ideal"
) -> ConditionalReport:
    """Adjusted statistics of x against the baseline n * H_emp(X|Y).

    When y determines x the baseline is zero and the report carries
    KA_cond, R_cond and deficiency_cond as None, like adjusted() on a
    constant word.
    """
    pc = PairCounts.from_words(x, y)
    h_cond = conditional_entropy(pc)
    k_eff = conditional_code_len(x, y, coder, lengths)
    baseline = x.n * h_cond
    return ConditionalReport(x.n, h_cond, baseline, k_eff, *_ratios(k_eff, h_cond, baseline), coder)


def joint_pair_code_len(pc: PairCounts) -> float:
    """Ideal length of the four-cell code for an aligned pair of words.

    Multinomial index over the cell counts plus three log2(n+1) headers
    (the fourth count is implied by n).
    """
    n = pc.n
    return log2_multinomial((pc.c00, pc.c01, pc.c10, pc.c11)) + 3 * math.log2(n + 1)


ZERO_MUTUAL_EPS = 1e-6


def adjusted_mutual(
    x: BitWord, y: BitWord, coder: CoderId, lengths: str = "ideal"
) -> MutualReport:
    """Effective mutual information report for an equal-length pair.

    I_eff = K_eff(x) + K_eff(y) - K_eff(x,y), with the joint coded by the
    four-cell pair code.  Raises ZeroMutualBaselineError when the empirical
    mutual information is below ZERO_MUTUAL_EPS.
    """
    pc = PairCounts.from_words(x, y)
    i_emp = mutual_information_emp(pc)
    if i_emp < ZERO_MUTUAL_EPS:
        raise ZeroMutualBaselineError(
            f"empirical mutual information {i_emp:.3g} is below {ZERO_MUTUAL_EPS}"
        )
    i_eff = _k_eff(x, coder, lengths) + _k_eff(y, coder, lengths) - joint_pair_code_len(pc)
    if i_eff < 0:
        logger.warning(
            "effective mutual information is negative (%.4g bits); "
            "surrogate coders do not guarantee nonnegativity",
            i_eff,
        )
    n = x.n
    return MutualReport(
        n=n,
        I_emp=i_emp,
        I_eff=i_eff,
        KA_mutual=i_eff / i_emp,
        R_mutual=i_eff / (n * i_emp),
    )
