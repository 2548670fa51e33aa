"""The batched length kernel against an independent per-word reference,
and the Kraft inequality of every coder's lengths."""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from kadjust import CODER_NAMES, BitWord, CoderId, adjusted, code_word
from kadjust import coders
from kadjust.bitio import elias_gamma_len
from kadjust.coders import LENGTH_KINDS, MODEL_MEMBERS, MODEL_TAG_BITS, encode_word, is_concrete, kind_lengths
from kadjust.words import PackedRows

from conftest import lengths_of, periodic_scan

CODERS = [CoderId(name) for name in CODER_NAMES]
# every (coder, kind) pair that has lengths
SCORED = [(coder, kind) for coder in CODERS for kind in LENGTH_KINDS if kind == "ideal" or is_concrete(coder)]


def all_words_matrix(n: int) -> np.ndarray:
    """Every word of length n as one row, in integer order."""
    shifts = np.arange(n - 1, -1, -1)
    return ((np.arange(1 << n)[:, None] >> shifts) & 1).astype(np.uint8)


# ---------------------------------------------------------------------------
# pure-Python reference: one word (a list of 0/1) at a time


def gamma_len(v: int) -> int:
    return 2 * v.bit_length() - 1


def ref_literal(bits):
    return float(len(bits)), len(bits)


def ref_shell(bits):
    n, k = len(bits), sum(bits)
    size = math.comb(n, k)
    ideal = (math.log2(size) if 0 < k < n else 0.0) + math.log2(n + 1)
    return ideal, gamma_len(k + 1) + (size - 1).bit_length()


def ref_run_length(bits):
    runs = [len(list(group)) for _, group in itertools.groupby(bits)]
    total = 1 + sum(gamma_len(r) for r in runs)
    return float(total), total


def ref_periodic_costs(bits, p_max):
    """The periodic cost at every period p = 1 .. min(p_max, n)."""
    n = len(bits)
    costs = []
    for p in range(1, min(p_max, n) + 1):
        r = sum(bits[i] != bits[i % p] for i in range(n))
        costs.append(gamma_len(p) + p + gamma_len(r + 1) + r * n.bit_length())
    return costs


def ref_periodic(bits, p_max):
    best = min(ref_periodic_costs(bits, p_max))
    return float(best), best


def ref_pair_shell(bits):
    nb, tail = divmod(len(bits), 2)
    counts = Counter(zip(bits[0 : 2 * nb : 2], bits[1 : 2 * nb : 2]))
    size = math.factorial(nb)
    for c in counts.values():
        size //= math.factorial(c)
    index = math.log2(size) if size > 1 else 0.0
    return index + 4 * math.log2(nb + 1) + (1.0 if tail else 0.0), None


def ref_members(bits):
    return [
        ref_literal(bits),
        ref_shell(bits),
        ref_run_length(bits),
        ref_periodic(bits, coders.P_MAX),
        ref_pair_shell(bits),
    ]


def reference(coder: CoderId, bits):
    """(ideal, concrete, ideal model tag, concrete model tag) of one word."""
    if coder.name == "model_class":
        members = ref_members(bits)
        ideals = [ideal for ideal, _ in members]
        concretes = [math.inf if c is None else c for _, c in members]
        tag, concrete_tag = ideals.index(min(ideals)), concretes.index(min(concretes))
        return (MODEL_TAG_BITS + ideals[tag], MODEL_TAG_BITS + concretes[concrete_tag],
                MODEL_MEMBERS[tag], MODEL_MEMBERS[concrete_tag])
    if coder.name == "periodic":
        return (*ref_periodic(bits, coders.P_MAX), None, None)
    scalar = {
        "literal": ref_literal,
        "shell": ref_shell,
        "run_length": ref_run_length,
        "pair_shell": ref_pair_shell,
    }[coder.name]
    return (*scalar(bits), None, None)


def assert_matches_reference(coder: CoderId, matrix: np.ndarray):
    ideal = kind_lengths(coder, matrix, "ideal")
    concrete = kind_lengths(coder, matrix, "concrete") if is_concrete(coder) else None
    assert ideal.lengths.shape == (len(matrix),)
    assert (concrete is None) == (coder.name == "pair_shell")
    assert (ideal.tag is None) == (coder.name != "model_class")
    for i, row in enumerate(matrix.tolist()):
        want = reference(coder, row)
        got = (
            float(ideal.lengths[i]),
            None if concrete is None else int(concrete.lengths[i]),
            None if ideal.tag is None else MODEL_MEMBERS[ideal.tag[i]],
            None if ideal.tag is None else MODEL_MEMBERS[concrete.tag[i]],
        )
        assert got == want, (coder.name, row)


def assert_scan_matches_reference(matrix: np.ndarray, p_max: int):
    """The periodic kernel at any bound, not only P_MAX, against the reference."""
    cost, _ = periodic_scan(matrix.astype(np.uint8), p_max)
    assert cost.tolist() == [ref_periodic(row, p_max)[1] for row in matrix.tolist()], p_max


def random_matrix(n: int, seed: int) -> np.ndarray:
    """Rows from several sources, so every member of model_class wins some."""
    rng = np.random.default_rng(seed)
    rows = [np.zeros(n, dtype=np.uint8), np.ones(n, dtype=np.uint8)]
    for p in (0.5, 0.3, 0.02):
        rows += [(rng.random(n) < p).astype(np.uint8) for _ in range(3)]
    for period in (2, 7, 24):
        row = np.resize(rng.integers(0, 2, period, dtype=np.uint8), n)
        row[period:] ^= (rng.random(n - period) < 0.01).astype(np.uint8)
        rows.append(row)
    # two-bit blocks from {00, 01, 11} only, as in the block-constrained source
    blocks = rng.choice(np.array([[0, 0], [0, 1], [1, 1]], dtype=np.uint8), n // 2)
    rows.append(np.resize(blocks.ravel(), n))
    rows.append(np.repeat([0, 1, 0], [n // 3, 5, n - n // 3 - 5]))
    return np.array(rows)


class TestKernelMatchesReference:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_exhaustive(self, n):
        matrix = all_words_matrix(n)
        for coder in CODERS:
            assert_matches_reference(coder, matrix)
        for p_max in (1, 5):
            assert_scan_matches_reference(matrix, p_max)

    # The small budgets split the matrices into several row chunks, and the
    # periodic scan into chunks of one to a few periods.  Rows of 1100 bits
    # take the one-period-at-a-time scan instead of the gather.
    @pytest.mark.parametrize("budget", [1 << 13, 1 << 16])
    @pytest.mark.parametrize("n", [256, 1000, 1100])
    def test_random_matrices_across_chunks(self, monkeypatch, n, budget):
        monkeypatch.setattr(coders, "_CHUNK_BYTES", budget)
        matrix = random_matrix(n, seed=n + budget)
        for coder in CODERS:
            assert_matches_reference(coder, matrix)
        for p_max in (1, 5):
            assert_scan_matches_reference(matrix, p_max)
        tag = kind_lengths(CoderId("model_class"), matrix, "ideal").tag
        assert {MODEL_MEMBERS[t] for t in tag} == set(MODEL_MEMBERS)

    def test_bool_rows_and_one_row(self):
        matrix = random_matrix(64, seed=3)
        for coder in CODERS:
            assert_batch_equals_rows(coder, matrix, batch=matrix.astype(bool))

    @pytest.mark.parametrize(
        "bad", [np.zeros(5), np.zeros((0, 5)), np.zeros((2, 0)), np.full((2, 3), 2), [[0.5, 1]]]
    )
    def test_rejects_malformed_matrices(self, bad):
        with pytest.raises(ValueError):
            kind_lengths(CoderId("shell"), bad, "ideal")


class TestTies:
    """Every word of 12 bits: 490 tie at their cheapest period, and 130 on
    the ideal lengths of two model_class members."""

    def test_periodic_scan_takes_the_smallest_tied_period(self):
        matrix = all_words_matrix(12)
        cost, _, period = kind_lengths(CoderId("periodic"), matrix, "concrete")
        ties = 0
        for i, row in enumerate(matrix.tolist()):
            costs = ref_periodic_costs(row, coders.P_MAX)
            best = min(costs)
            ties += costs.count(best) > 1
            assert (cost[i], period[i]) == (best, costs.index(best) + 1), row
        assert ties == 490

    def test_model_class_tags_of_tied_members_equal_one_row_tags(self):
        matrix = all_words_matrix(12)
        members = np.stack([kind_lengths(CoderId(name), matrix, "ideal").lengths for name in MODEL_MEMBERS])
        tied = np.flatnonzero((members == members.min(axis=0)).sum(axis=0) > 1)
        assert len(tied) == 130
        tag = kind_lengths(CoderId("model_class"), matrix, "ideal").tag
        for i in tied.tolist():
            assert MODEL_MEMBERS[tag[i]] == code_word(CoderId("model_class"), BitWord(matrix[i])).model_tag
            assert tag[i] == np.argmax(members[:, i] == members[:, i].min())  # the first tied member


class TestKraft:
    # Lengths of a code that is prefix-free given n satisfy
    # sum over all words of length n of 2^-length <= 1.
    @pytest.mark.parametrize("n", range(1, 17))
    def test_kraft_sums(self, n):
        matrix = all_words_matrix(n)
        for coder in CODERS:
            ideal, concrete = lengths_of(coder, matrix)
            assert math.fsum(np.exp2(-ideal).tolist()) <= 1 + 1e-9, coder.name
            if concrete is not None:
                lengths, counts = np.unique(concrete, return_counts=True)
                top = int(lengths.max())
                total = sum(int(c) << (top - int(L)) for L, c in zip(lengths, counts))
                assert total <= 1 << top, coder.name


class TestPackedPeriodicScan:
    """Rows of 1024 bits or more, wider than the 31 tiled words the periodic
    scan builds; these lengths cover a row ending inside, and exactly at, a
    64-bit word."""

    @pytest.mark.parametrize("n", [1024, 1087, 4159])
    @pytest.mark.parametrize("p_max", [1, 5, 32, 64])
    def test_periodic_matches_reference(self, n, p_max):
        matrix = random_matrix(n, seed=n + p_max)[::4]
        assert_scan_matches_reference(matrix, p_max)

    @pytest.mark.parametrize("n", [1024, 1087, 4159])
    def test_model_class_matches_reference(self, n):
        # Above 4096 bits the package takes log2 C(n, k) from its prime
        # factorization and the reference from the exact integer; the two
        # may differ in the last place, so ideal lengths match to 1e-12.
        matrix = random_matrix(n, seed=n)[::3]
        ideal = kind_lengths(CoderId("model_class"), matrix, "ideal")
        concrete = kind_lengths(CoderId("model_class"), matrix, "concrete")
        for i, row in enumerate(matrix.tolist()):
            want_ideal, *want = reference(CoderId("model_class"), row)
            assert ideal.lengths[i] == pytest.approx(want_ideal, rel=1e-12)
            got = int(concrete.lengths[i]), MODEL_MEMBERS[ideal.tag[i]], MODEL_MEMBERS[concrete.tag[i]]
            assert list(got) == want

    def test_multi_row_matrix_across_period_chunks(self, monkeypatch):
        # a budget this small scans a few periods per chunk
        monkeypatch.setattr(coders, "_CHUNK_BYTES", 1 << 17)
        assert_scan_matches_reference(random_matrix(1500, seed=9), 40)


def assert_batch_equals_rows(coder: CoderId, matrix: np.ndarray, batch: np.ndarray | None = None):
    """kind_lengths on the matrix (or on batch, the same rows) scores every
    row as on that row alone, under each kind: lengths, tag and period."""
    for kind in LENGTH_KINDS if is_concrete(coder) else ("ideal",):
        scores = kind_lengths(coder, matrix if batch is None else batch, kind)
        for i, row in enumerate(matrix):
            for got, want in zip(scores, kind_lengths(coder, row[None], kind), strict=True):
                assert (got is None) == (want is None)
                if got is not None:
                    assert got[i] == want[0], (coder.name, kind, i)


class TestPairShellKey:
    """pair_shell keys each row by its (c01, c10, c11) tallies in base nb + 1."""

    @pytest.mark.parametrize("n", [11, 12])
    @pytest.mark.parametrize("name", ["pair_shell", "periodic", "model_class"])
    def test_batch_equals_one_row_exhaustive(self, n, name):
        assert_batch_equals_rows(CoderId(name), all_words_matrix(n))

    @pytest.mark.parametrize("n", [400, 401])
    def test_permuted_tallies(self, n):
        # every order of four tallies, among them tallies of 0 and nb that a
        # key in base nb would confuse
        nb = n // 2
        blocks = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        rows = []
        for tallies in ((1, 2, 3, nb - 6), (0, 1, 2, nb - 3), (0, 0, 1, nb - 1), (0, 0, 0, nb)):
            for order in set(itertools.permutations(tallies)):
                row = np.repeat(blocks, order, axis=0).ravel()
                rows.append(np.append(row, [1] * (n % 2)))
        matrix = np.array(rows, dtype=np.uint8)
        for name in ("pair_shell", "periodic", "model_class"):
            assert_batch_equals_rows(CoderId(name), matrix)
        ideal = kind_lengths(CoderId("pair_shell"), matrix, "ideal").lengths
        assert ideal.tolist() == [ref_pair_shell(row)[0] for row in matrix.tolist()]

    def test_widest_multi_row_key(self):
        # two rows of 2^16 bits, the longest that share a chunk of
        # _CHUNK_BYTES // 8 cells; all 01 blocks give the largest key,
        # nb * (nb + 1)^2 with nb = 2^15
        n = coders._CHUNK_BYTES // 16
        assert n == 1 << 16
        rng = np.random.default_rng(19)
        matrix = np.stack([np.tile(np.array([0, 1], dtype=np.uint8), n // 2), rng.random(n) < 0.3])
        for name in ("pair_shell", "periodic", "model_class"):
            assert_batch_equals_rows(CoderId(name), matrix.astype(np.uint8))


class TestGatheredPeriodicScan:
    """Rows shorter than 1024 bits, one row or many, in one chunk or in
    chunks of 64 columns."""

    @pytest.mark.parametrize("budget", [None, 1, 1 << 14])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 1023])
    def test_costs_match_reference(self, monkeypatch, n, budget):
        if budget is not None:  # one or a few periods per chunk
            monkeypatch.setattr(coders, "_CHUNK_BYTES", budget)
        matrix = (random_matrix(n, seed=n) if n > 2 else all_words_matrix(n)).astype(np.uint8)
        for rows in (matrix[:1], matrix):
            cost, _ = periodic_scan(rows, 40)
            assert cost.tolist() == [ref_periodic(row, 40)[1] for row in rows.tolist()]


class TestPeriodicFormula:
    """The periodic kernel fed chunks that start at any multiple of 64 and
    end mid-word, and rows of every length up to 200 bits, against the
    reference at bounds up to a whole 64-bit pattern: period 64 takes the
    full-width mask and, at phase 0, a shift by 64."""

    @staticmethod
    def planted(rng, n: int, p: int) -> np.ndarray:
        """A random row of period p, with a few bits flipped past the first p."""
        row = np.resize(rng.integers(0, 2, p, dtype=np.uint8), n)
        row[p:] ^= (rng.random(n - p) < 0.01).astype(np.uint8)
        return row

    @pytest.mark.parametrize("p_max", [1, 5, 32, 64])
    def test_one_row_in_chunks(self, p_max):
        # a chunk of 6528 columns holds more words than the formula builds
        # for one row, so the gather lays them out, at column 0 and 6528
        rng = np.random.default_rng(p_max)
        for n, widths in ((2100, (64, 128, 1024)), (13000, (1024, 6528))):
            for row in (rng.integers(0, 2, n, dtype=np.uint8), self.planted(rng, n, p_max)):
                want = [ref_periodic(row.tolist(), p_max)[1]]
                block = PackedRows.of(row[None])
                for width in widths:
                    kernel = coders._Periodic(block, p_max=p_max)
                    for c in range(0, n, width):
                        kernel.add(block.columns(c, min(n, c + width)), c)
                    assert kernel.finishes(("concrete",))["concrete"].lengths.tolist() == want, (n, width)

    @pytest.mark.parametrize("p_max", [1, 5, 32, 64])
    def test_rows_of_every_length(self, p_max):
        rng = np.random.default_rng(200 + p_max)
        for n in range(1, 201):
            matrix = np.stack([
                rng.integers(0, 2, n, dtype=np.uint8), self.planted(rng, n, min(n, p_max))
            ])
            assert_scan_matches_reference(matrix, p_max)

    @pytest.mark.parametrize("p_max", [0, 65])
    def test_bound_is_one_word(self, p_max):
        with pytest.raises(ValueError, match="p_max"):
            periodic_scan(np.zeros((1, 100), dtype=np.uint8), p_max)


def assert_same_scores(got, want):
    for a, b in zip(got, want, strict=True):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.tolist() == b.tolist()


class TestColumnChunks:
    """A row longer than a chunk of _CHUNK_BYTES // 8 cells is scored in
    column chunks of a multiple of 64 columns, with the run-length kernel
    carrying its open run and the periodic kernel comparing each chunk with
    the row's first bits rotated by the chunk's offset.  Each width below
    is 64 times an odd number, so the chunk edges fall mid-run and at
    offsets that no odd period divides, and odd n ends the last chunk
    mid-2-bit-block; 192 columns take the gathered periodic scan, the
    wider ones the packed scan, in segments of up to _CHUNK_BYTES columns:
    rows of 3 * 2^12 + 5 bits take two or more segments, the later ones
    compared with rotated blocks."""

    WIDTHS = [192, 1088, 1856]

    @staticmethod
    def matrix(n: int) -> np.ndarray:
        # random_matrix has constant rows, one run across every chunk
        alternating = np.arange(n, dtype=np.uint8) % 2
        return np.vstack([random_matrix(n, seed=n), alternating]).astype(np.uint8)

    @pytest.mark.parametrize("n", [(1 << 12) - 1, (1 << 12) + 1, 3 * (1 << 10) + 5, 3 * (1 << 12) + 5])
    def test_chunked_rows_score_as_one_chunk(self, monkeypatch, n):
        assert n <= coders._CHUNK_BYTES // 8  # one chunk per row by default
        matrix = self.matrix(n)
        whole = {(coder, kind): kind_lengths(coder, matrix, kind) for coder, kind in SCORED}
        words = [BitWord(matrix[i]) for i in (0, 2, len(matrix) - 1)]
        singles = {coder: [code_word(coder, word) for word in words] for coder in CODERS}
        for width in self.WIDTHS:
            monkeypatch.setattr(coders, "_CHUNK_BYTES", 8 * width)
            for coder, kind in SCORED:
                assert_same_scores(kind_lengths(coder, matrix, kind), whole[coder, kind])
            for coder in CODERS:
                assert [code_word(coder, word) for word in words] == singles[coder]
        tag = whole[CoderId("model_class"), "ideal"].tag
        assert {MODEL_MEMBERS[t] for t in tag} == set(MODEL_MEMBERS)

    @pytest.mark.parametrize("n", [(1 << 12) - 1, 3 * (1 << 10) + 5])
    def test_chunked_rows_match_reference(self, monkeypatch, n):
        monkeypatch.setattr(coders, "_CHUNK_BYTES", 8 * 1088)
        matrix = self.matrix(n)[::2]
        for coder in CODERS:
            assert_matches_reference(coder, matrix)

    @pytest.mark.parametrize("cells", [1, 128])
    def test_matrices_in_row_blocks_and_column_chunks(self, monkeypatch, cells):
        # rows of 40 bits share a chunk three at a time, or take one each;
        # rows of 101 and 200 bits take two to four column chunks of 64
        monkeypatch.setattr(coders, "_CHUNK_BYTES", 8 * cells)
        for n in (40, 101, 200):
            matrix = random_matrix(n, seed=n + cells)
            for coder in CODERS:
                assert_matches_reference(coder, matrix)


RUN_LENGTH = CoderId("run_length")


def run_length_totals(matrix: np.ndarray) -> list[int]:
    """Each row's leading bit plus elias_gamma_len of every run the
    run-length encoder writes."""
    totals = []
    for row in matrix:
        lengths, counts = np.unique(coders._runs(coders._ends(PackedRows.of(row[None])), len(row))[0], return_counts=True)
        totals.append(1 + sum(c * elias_gamma_len(v) for v, c in zip(lengths.tolist(), counts.tolist())))
    return totals


def dense_inputs() -> dict[str, np.ndarray]:
    """Rows longer than a chunk and batches of whole rows, whose chunks take
    the popcounts, the run lengths or both; rows of 2^17 bits fill a chunk,
    and the last two are sparse, or dense, past their first 8192 cells."""
    rng = np.random.default_rng(19)
    n = (1 << 19) + 77
    long_run = (rng.random(n) < 0.5).astype(np.uint8)
    start = (1 << 17) - 3  # 2^17 + 5 ones, across the chunk edges at 2^17 and 2^18
    long_run[start - 1], long_run[start + (1 << 17) + 5] = 0, 0
    long_run[start : start + (1 << 17) + 5] = 1
    rows = {f"p={p}": (rng.random((1, (1 << 18) + 77)) < p).astype(np.uint8) for p in (0.5, 0.1, 0.001)}
    return {
        "long run": long_run[None],
        "constant": np.zeros((1, (1 << 18) + 1), dtype=np.uint8),
        "alternating": (np.arange((1 << 18) + 3) % 2).astype(np.uint8)[None],
        **rows,
        "1000x256": (rng.random((1000, 256)) < 0.5).astype(np.uint8),
        "4096x12": (rng.random((4096, 12)) < 0.5).astype(np.uint8),
        "random then constant": np.concatenate([rng.random(1 << 16) < 0.5, np.zeros(1 << 16, bool)])[None],
        "constant then random": np.concatenate([np.zeros(8192, bool), rng.random((1 << 17) - 8192) < 0.5])[None],
    }


class TestDenseRunLengths:
    """A chunk of at least _DENSE_CELLS cells with many run ends sums its
    gamma lengths by popcounts on its packed end mask; every other chunk
    lists its runs.  Both give the lengths of the runs the encoder writes,
    and a row's open run carries across chunks of either kind."""

    # which of the two each input's chunks take: the popcounts (True) or the run list
    PATHS = {
        "long run": {True, False}, "constant": {False}, "alternating": {True, False},
        "p=0.5": {True, False}, "p=0.1": {False}, "p=0.001": {False},
        "1000x256": {True}, "4096x12": {False},
        "random then constant": {False}, "constant then random": {True},
    }

    @pytest.fixture(scope="class")
    def inputs(self):
        return dense_inputs()

    @staticmethod
    def paths_taken(monkeypatch) -> list[bool]:
        taken = []
        dense = coders._dense

        def logged(*args):
            taken.append(dense(*args))
            return taken[-1]

        monkeypatch.setattr(coders, "_dense", logged)
        return taken

    @pytest.mark.parametrize("name", list(PATHS))
    def test_totals_are_the_encoded_runs(self, monkeypatch, inputs, name):
        matrix = inputs[name]
        taken = self.paths_taken(monkeypatch)
        ideal, concrete = lengths_of(RUN_LENGTH, matrix)
        assert set(taken) == self.PATHS[name]
        want = run_length_totals(matrix)
        assert concrete.tolist() == want and ideal.tolist() == want
        if len(matrix) == 1:
            assert len(encode_word(RUN_LENGTH, BitWord(matrix[0]))) == want[0]

    def test_chunk_dense_past_its_start_stays_in_budget(self):
        # a chunk that alternates past its first 8192 cells: its run list
        # would take about 24 bytes a run, here about 20 a cell
        row = np.zeros((1, 1 << 17), dtype=np.uint8)
        row[0, 8193::2] = 1
        kind_lengths(RUN_LENGTH, row, "concrete")
        tracemalloc.start()
        try:
            kind_lengths(RUN_LENGTH, row, "concrete")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * row.size, peak / row.size

    def test_prefix_schedule_with_odd_cuts(self, inputs):
        row = inputs["long run"][0]
        start = (1 << 17) - 3
        points = [1, 63, 65537, start + 1, (1 << 17) + 1, (1 << 18) + 1, start + (1 << 17) + 5,
                  3 * (1 << 17) + 4097, row.size]
        concrete = kind_lengths(RUN_LENGTH, BitWord(row), "concrete", points).lengths
        assert concrete.tolist() == [run_length_totals(row[None, :m])[0] for m in points]

    @pytest.mark.parametrize("cells", [1, 64, 1088])
    def test_every_chunk_through_the_popcounts(self, monkeypatch, cells):
        # any chunk, down to a column of one row, with one run or many
        monkeypatch.setattr(coders, "_DENSE_CELLS", 1)
        monkeypatch.setattr(coders, "_DENSE_SPACING", 1 << 40)
        monkeypatch.setattr(coders, "_CHUNK_BYTES", 8 * cells)
        taken = self.paths_taken(monkeypatch)
        for n in (1, 40, 101, 200, 1000, 3 * (1 << 10) + 5):
            matrix = TestColumnChunks.matrix(n) if n > 1 else all_words_matrix(1)
            for coder in (RUN_LENGTH, CoderId("model_class")):
                assert_matches_reference(coder, matrix)
        assert set(taken) == {True}


class TestMemory:
    """Scoring a word adds temporaries of about _CHUNK_BYTES, not a few
    bytes per input bit: a 2^21-bit word keeps every peak below 1 byte a
    bit (the run-length kernel alone once took 8.5)."""

    def test_peak_below_one_byte_per_bit(self):
        n = 1 << 21
        bits = (np.random.default_rng(21).random(n) < 0.3).astype(np.uint8)
        word = BitWord(bits)
        adjusted(word, CoderId("model_class"))  # grows the sieve, fills the caches
        calls = {coder.name: (lambda c=coder: lengths_of(c, bits[None])) for coder in CODERS}
        calls["adjusted"] = lambda: adjusted(word, CoderId("model_class"))
        for name, call in calls.items():
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < n, (name, peak / n)
