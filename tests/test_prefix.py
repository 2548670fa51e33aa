"""Prefix scoring: every row of convergence_trace and prefix_scan equals
adjusted() of its prefix scored from scratch, and a trace feeds the
kernels each column of the word once.

The oracles below are the per-prefix loops the drivers used to run; the
digests pin the rows those loops gave.
"""

import hashlib
import math

import numpy as np
import pytest

from kadjust import (
    CODER_NAMES,
    BitWord,
    CoderId,
    GeneratorSpec,
    adjusted,
    convergence_trace,
    generate,
    geometric_schedule,
    prefix_scan,
)
from kadjust import coders
from kadjust.coders import P_MAX, is_concrete, kind_lengths
from kadjust.simulate import TraceRow
from kadjust.stats import adjusted_prefixes
from kadjust.testing import SCAN_FACTOR, SCAN_START, PrefixScanRow
from kadjust.testing import TestConfig as Config

from conftest import lengths_of

KINDS = ("ideal", "concrete")
# longer than one chunk of _scored: 2^17 cells
LONG = (1 << 17) + 1027


def oracle_trace(spec: GeneratorSpec, coder: CoderId, schedule) -> tuple[TraceRow, ...]:
    word = generate(spec)
    rows = []
    for m in schedule:
        rep = adjusted(word.prefix(m), coder)
        rows.append(TraceRow(m=m, p_hat=rep.w / m, H=rep.H, K_eff=rep.k_eff, R=rep.R, coder=coder))
    return tuple(rows)


def oracle_scan(word: BitWord, cfg: Config) -> tuple[tuple[PrefixScanRow, ...], int | None]:
    rows = []
    first_flag = None
    for m_p in geometric_schedule(word.n, SCAN_START, SCAN_FACTOR):
        d = adjusted(word.prefix(m_p), cfg.coder, cfg.lengths).deficiency
        if d is None:
            rows.append(PrefixScanRow(m_prefix=m_p, deficiency=None, penalized=None))
            continue
        penalized = d - 2.0 * math.log2(m_p + 1)
        rows.append(PrefixScanRow(m_prefix=m_p, deficiency=d, penalized=penalized))
        if first_flag is None and penalized >= cfg.m:
            first_flag = len(rows) - 1
    return tuple(rows), first_flag


def coder_kinds():
    return [
        (name, kind)
        for name in CODER_NAMES
        for kind in KINDS
        if kind == "ideal" or is_concrete(CoderId(name))
    ]


# Sources: a Bernoulli(0.02) word starts with a constant prefix, so the
# early rows carry None; the block source has no 10 blocks.
def specs(length: int) -> list[GeneratorSpec]:
    return [
        GeneratorSpec.bernoulli(0.3, 5, length),
        GeneratorSpec.bernoulli(0.02, 6, length),
        GeneratorSpec.block(7, length),
        GeneratorSpec.mixture([(0.5, 0.1), (0.5, 0.9)], 8, length),
    ]


def periodic_word(length: int) -> BitWord:
    """A period-24 pattern with a few flips after its first period, which
    the periodic coder compresses, so the scan flags it."""
    rng = np.random.default_rng(9)
    bits = np.resize(rng.integers(0, 2, 24, dtype=np.uint8), length)
    bits[24 + rng.choice(length - 24, length // 200, replace=False)] ^= 1
    return BitWord(bits)


def schedules(length: int) -> list[list[int]]:
    """A doubling schedule; a factor-1.5 one from 1 (odd points, points
    below P_MAX); points off the multiples of 64, ending short of the word."""
    odd = [p for p in (1, 3, 63, 65, 100, 1000, 1025, 2049, 4133, length - 1) if p < length]
    return [geometric_schedule(length, 16, 2.0), geometric_schedule(length, 1, 1.5), odd]


def scan_words(length: int) -> list[BitWord]:
    return [generate(spec) for spec in specs(length)] + [periodic_word(length)]


def trace_digest(length: int, names=CODER_NAMES) -> str:
    digest = hashlib.sha256()
    for name in names:
        for spec in specs(length):
            for schedule in schedules(length):
                rows = convergence_trace(spec, CoderId(name), schedule).rows
                digest.update(repr(rows).encode())
    return digest.hexdigest()


def scan_digest(length: int) -> str:
    digest = hashlib.sha256()
    for name, kind in coder_kinds():
        for word in scan_words(length):
            scan = prefix_scan(word, Config(m=10, coder=CoderId(name), lengths=kind))
            digest.update(repr((scan.rows, scan.first_flag_index)).encode())
    return digest.hexdigest()


# The rows of the per-prefix loops, before the drivers scored all prefixes
# in one pass.
TRACE_DIGESTS = {
    3001: "2cc06c3161995098bc88bf831f7a1ba5ede91650b7833c6e3441c56e828c400a",
    LONG: "3cbffbd83f3fc5f123904f7bdaf6308b2f7e8540bee0d6d530a2d0df88d74c70",
}
SCAN_DIGESTS = {
    3001: "3ac1d07cfcf4c7960a9ecd471868776aeca4f06439bd25b5084640d67cdbc5fd",
    LONG: "583976e67f18758114ceee2090523dc8ec44a1a34ba1a009e56b624535f753be",
}


@pytest.mark.parametrize("length", [3001, LONG])
@pytest.mark.parametrize("name", CODER_NAMES)
def test_trace_rows_equal_per_prefix_loop(name, length):
    for spec in specs(length):
        for schedule in schedules(length):
            rows = convergence_trace(spec, CoderId(name), schedule).rows
            assert rows == oracle_trace(spec, CoderId(name), schedule), (spec, schedule)


@pytest.mark.parametrize("length", [3001, LONG])
@pytest.mark.parametrize("name, kind", coder_kinds())
def test_scan_rows_equal_per_prefix_loop(name, kind, length):
    cfg = Config(m=10, coder=CoderId(name), lengths=kind)
    for word in scan_words(length):
        scan = prefix_scan(word, cfg)
        assert (scan.rows, scan.first_flag_index) == oracle_scan(word, cfg)


def test_inputs_cover_constant_prefixes_and_flags():
    length = 3001
    trace = convergence_trace(specs(length)[1], CoderId("shell"), schedules(length)[1])
    assert trace.rows[0].R is None and trace.rows[-1].R is not None
    scan = prefix_scan(periodic_word(length), Config(m=10, coder=CoderId("periodic")))
    assert scan.flagged
    assert any(m < P_MAX for m in schedules(length)[1])
    assert any(m % 2 for m in schedules(length)[1])


@pytest.mark.parametrize("length", [3001, LONG])
def test_rows_match_pinned_digests(length):
    assert trace_digest(length) == TRACE_DIGESTS[length]
    assert scan_digest(length) == SCAN_DIGESTS[length]


@pytest.mark.parametrize("length", [3001, LONG])
@pytest.mark.parametrize("name", CODER_NAMES)
def test_prefix_lengths_equal_code_lengths_of_each_prefix(name, length):
    coder, word = CoderId(name), generate(specs(length)[2])
    points = schedules(length)[1]
    ideal, concrete = lengths_of(coder, word, points)
    for i, m in enumerate(points):
        one_ideal, one_concrete = lengths_of(coder, word.bits[None, :m])
        assert ideal[i] == one_ideal[0], m
        assert (concrete is None) == (one_concrete is None)
        if concrete is not None:
            assert concrete[i] == one_concrete[0], m


@pytest.mark.parametrize("points", [[], [0], [5, 5], [9, 4], [4, 3002]])
def test_prefix_lengths_refuses_bad_points(points):
    for kind in KINDS:
        with pytest.raises(ValueError):
            kind_lengths(CoderId("shell"), generate(specs(3001)[0]), kind, points)


@pytest.mark.parametrize("name", CODER_NAMES)
def test_prefix_lengths_refuse_non_integers(name):
    # a prefix of 1.5 bits is no prefix, under any coder and entry point
    coder, spec = CoderId(name), GeneratorSpec.bernoulli(0.5, 1, 64)
    word = generate(spec)
    kinds = KINDS if is_concrete(coder) else ("ideal",)
    for points in ([1.5, 64], [1, np.float64(64)], np.array([2.0, 64.0])):
        calls = [lambda: convergence_trace(spec, coder, points), lambda: adjusted_prefixes(word, coder, points)]
        calls += [lambda kind=kind: kind_lengths(coder, word, kind, points) for kind in kinds]
        for call in calls:
            with pytest.raises(ValueError, match="must be integers"):
                call()


@pytest.mark.parametrize("name", CODER_NAMES)
def test_prefix_lengths_take_numpy_integers(name):
    coder, spec = CoderId(name), GeneratorSpec.bernoulli(0.5, 1, 64)
    points = [1, 7, 64]
    want = convergence_trace(spec, coder, points)
    for numpy_points in (np.array(points), [np.int64(1), np.uint8(7), np.int32(64)]):
        assert convergence_trace(spec, coder, numpy_points) == want


def _feed_log(monkeypatch, name: str) -> list[tuple[int, int]]:
    """The (first column, width) of every chunk fed to the coder's kernel."""
    kernel = coders._CODERS[name].kernel
    add = kernel.add
    fed = []

    def logged(self, chunk, c):
        fed.append((c, chunk.shape[1]))
        return add(self, chunk, c)

    monkeypatch.setattr(kernel, "add", logged)
    return fed


def assert_fed_once(fed: list[tuple[int, int]], end: int):
    """The chunks cover columns 0 .. end - 1 once, left to right."""
    assert [c for c, _ in fed] == [0] + list(np.cumsum([w for _, w in fed[:-1]]))
    assert sum(w for _, w in fed) == end


@pytest.mark.parametrize("name", CODER_NAMES)
def test_trace_feeds_each_column_once(monkeypatch, name):
    fed = _feed_log(monkeypatch, name)
    for length in (3001, LONG):
        for schedule in schedules(length):
            fed.clear()
            convergence_trace(specs(length)[0], CoderId(name), schedule)
            assert_fed_once(fed, schedule[-1])
            # not the sum of the points, which rescoring every prefix costs
            assert sum(w for _, w in fed) < sum(schedule) or len(schedule) == 1


def test_scan_feeds_each_column_once(monkeypatch):
    fed = _feed_log(monkeypatch, "model_class")
    word = generate(specs(LONG)[2])
    prefix_scan(word, Config(m=10, coder=CoderId("model_class")))
    assert_fed_once(fed, LONG)
