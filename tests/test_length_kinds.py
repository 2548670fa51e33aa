"""One length kind at a time: kind_lengths() and the kernel length_kernel()
picks for it.

kind_lengths() must give the lengths code_word() gives, which runs the
coder's full kernel, every member under model_class, and finishes both
kinds at once, and under ideal model_class's tag, of every row or of
each prefix scored alone, for every coder and kind.
Under concrete, model_class must build no pair_shell kernel on any
one-kind path, as pair_shell has no concrete code; under ideal it still
needs one.  The counting-lemma audit takes either kind.
"""

import numpy as np
import pytest

from kadjust import coders
from kadjust.cli import main
from kadjust.coders import (
    CODER_NAMES,
    MODEL_MEMBERS,
    CoderId,
    Score,
    code_word,
    kind_lengths,
    length_kernel,
)
from kadjust.shellcode import shell_log_size
from kadjust.simulate import GeneratorSpec, generate, geometric_schedule
from kadjust.stats import (
    adjusted,
    adjusted_deficiencies,
    adjusted_mutual,
    adjusted_prefixes,
    conditional_code_len,
)
from kadjust.testing import TestConfig as Config
from kadjust.testing import counting_lemma_audit, monte_carlo_fpr
from kadjust.testing import test_word as verdict
from kadjust.words import BitWord, PackedRows

CODERS = [CoderId(name) for name in CODER_NAMES]
KINDS = ("ideal", "concrete")
MODEL_CLASS = CoderId("model_class")
CELLS = coders._CHUNK_BYTES // 8  # the cells of one chunk
# every (coder, kind) pair that has lengths
SCORED = [
    pytest.param(coder, kind, id=f"{coder.name}-{kind}")
    for coder in CODERS
    for kind in KINDS
    if kind == "ideal" or coders.is_concrete(coder)
]


def matrix(n: int) -> np.ndarray:
    """Every word of n bits, one per row, in integer order."""
    return ((np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)


def seeded_rows(rows: int, n: int, seed: int) -> np.ndarray:
    """Rows mixing Bernoulli(0.5), Bernoulli(0.1) and period-5 words."""
    rng = np.random.default_rng(seed)
    bits = (rng.random((rows, n)) < np.array([0.5, 0.1, 0.5])[np.arange(rows) % 3, None]).astype(np.uint8)
    bits[2::3] = np.resize([1, 1, 0, 1, 0], n)
    return bits


def by_code_word(coder: CoderId, bits, kind: str) -> Score:
    """The kind's length code_word() gives each row of bits and, under
    ideal, model_class's tag, CodeResult.model_tag."""
    results = [code_word(coder, BitWord(row)) for row in bits]
    if kind == "concrete":
        return Score(np.array([r.concrete_len for r in results], dtype=np.int64))
    tag = np.array([MODEL_MEMBERS.index(r.model_tag) for r in results]) if coder == MODEL_CLASS else None
    return Score(np.array([r.ideal_len for r in results]), tag)


def assert_matches_code_word(got: Score, want: Score):
    """got's lengths equal want's, dtype included, and so does its tag
    where want has one."""
    assert got.lengths.dtype == want.lengths.dtype
    np.testing.assert_array_equal(got.lengths, want.lengths)
    if want.tag is not None:
        np.testing.assert_array_equal(got.tag, want.tag)


@pytest.mark.parametrize("coder", CODERS, ids=CODER_NAMES)
@pytest.mark.parametrize("kind", KINDS)
def test_kind_lengths_equal_code_lengths_exhaustive(coder, kind):
    for n in range(1, 13):
        bits = matrix(n)
        if kind == "concrete" and not coders.is_concrete(coder):
            with pytest.raises(ValueError, match="^coder pair_shell has no concrete code$"):
                kind_lengths(coder, bits, kind)
            continue
        assert_matches_code_word(kind_lengths(coder, bits, kind), by_code_word(coder, bits, kind))


def test_model_class_concrete_where_pair_shell_wins():
    # pair_shell wins no word of 12 bits or fewer; it wins the block
    # source's words from about 128 bits on, where leaving it out could show
    pair = MODEL_MEMBERS.index("pair_shell")
    for n in (128, 1000, CELLS + 1):
        bits = np.array([generate(GeneratorSpec.block(seed, n)).bits for seed in range(8)], dtype=np.uint8)
        tag = by_code_word(MODEL_CLASS, bits, "ideal").tag
        concrete = by_code_word(MODEL_CLASS, bits, "concrete")
        assert np.count_nonzero(tag == pair) >= 2, n
        assert_matches_code_word(kind_lengths(MODEL_CLASS, bits, "concrete"), concrete)
        i = np.argmax(tag == pair)
        assert_matches_code_word(kind_lengths(MODEL_CLASS, BitWord(bits[i]), "concrete"), Score(concrete.lengths[i : i + 1]))


@pytest.mark.parametrize("coder, kind", SCORED)
def test_kind_lengths_straddle_the_chunk_width(coder, kind):
    # one row cut into chunks, and a matrix of several row blocks
    shapes = [(1, CELLS - 1), (1, CELLS), (1, CELLS + 1), (1, 2 * CELLS + 65), (300, 1000)]
    for seed, (rows, n) in enumerate(shapes):
        bits = seeded_rows(rows, n, seed)
        want = by_code_word(coder, bits, kind)
        assert_matches_code_word(kind_lengths(coder, bits, kind), want)
        if rows == 1:
            assert_matches_code_word(kind_lengths(coder, BitWord(bits[0]), kind), want)


@pytest.mark.parametrize("coder, kind", SCORED)
def test_kind_lengths_at_prefix_cuts(coder, kind):
    for seed, n in enumerate((35, 4097, CELLS + 100)):
        word = BitWord(seeded_rows(3, n, seed)[seed % 3])
        points = sorted(set(geometric_schedule(n, 4, 1.25)) | {min(n, 64), min(n, CELLS)})
        # each prefix scored alone
        alone = zip(*(by_code_word(coder, word.bits[None, :m], kind) for m in points))
        want = Score(*(None if field[0] is None else np.concatenate(field) for field in alone))
        assert_matches_code_word(kind_lengths(coder, word, kind, points), want)


@pytest.mark.parametrize("coder, kind", SCORED)
def test_kind_lengths_of_packed_rows(monkeypatch, coder, kind):
    """Packed rows score as the 0/1 matrix they pack.  A chunk of 64 cells
    splits the rows of up to 12 bits into several blocks, and the longer
    rows into one block each, cut in column chunks of 64."""
    monkeypatch.setattr(coders, "_CHUNK_BYTES", 8 * 64)
    for seed, n in enumerate((1, 12, 63, 64, 65, 1000)):
        bits = seeded_rows(150 if n < 1000 else 12, n, seed)
        assert_matches_code_word(kind_lengths(coder, PackedRows.of(bits), kind), by_code_word(coder, bits, kind))


def test_kind_lengths_refuses_bad_input():
    word = BitWord.from01("0110")
    with pytest.raises(ValueError, match="strictly increasing"):
        kind_lengths(CoderId("shell"), word, "ideal", [2, 2])
    with pytest.raises(ValueError, match=r"must lie in 1\.\.4"):
        kind_lengths(CoderId("shell"), word, "ideal", [5])
    with pytest.raises(ValueError, match="single word"):
        kind_lengths(CoderId("shell"), matrix(3), "ideal", [1, 3])
    with pytest.raises(ValueError, match="matrix"):
        kind_lengths(CoderId("shell"), np.zeros(4, dtype=np.uint8), "ideal")
    with pytest.raises(ValueError, match="^unknown length kind 'both'$"):
        kind_lengths(CoderId("shell"), word, "both")


def test_length_kernel_picks_the_concrete_members():
    assert length_kernel(MODEL_CLASS, "ideal") is coders._ModelClass
    scorer = length_kernel(MODEL_CLASS, "concrete")(matrix(4))
    assert [MODEL_MEMBERS[j] for j in scorer.members] == [
        name for name in MODEL_MEMBERS if coders.is_concrete(CoderId(name))
    ]
    for name in MODEL_MEMBERS:
        for kind in KINDS if coders.is_concrete(CoderId(name)) else ("ideal",):
            assert length_kernel(CoderId(name), kind) is coders._CODERS[name].kernel


@pytest.fixture
def pair_shells(monkeypatch) -> list[int]:
    """A list that gains one entry for every pair_shell kernel built."""
    built = []
    init = coders._PairShell.__init__

    def spy(self, block, cuts=None):
        built.append(len(block))
        init(self, block, cuts)

    monkeypatch.setattr(coders._PairShell, "__init__", spy)
    return built


def one_kind_calls(kind: str):
    """Every one-kind entry point of stats and testing under model_class."""
    x = generate(GeneratorSpec.bernoulli(0.3, 11, 512))
    y = BitWord(np.where(np.arange(512) % 7 == 0, 1 - x.bits, x.bits))  # x with every 7th bit flipped
    cfg = Config(m=5, coder=MODEL_CLASS, lengths=kind)
    return {
        "adjusted": lambda: adjusted(x, MODEL_CLASS, kind),
        "test_word": lambda: verdict(x, cfg),
        "adjusted_prefixes": lambda: adjusted_prefixes(x, MODEL_CLASS, [16, 100, 512], kind),
        "adjusted_deficiencies": lambda: adjusted_deficiencies(matrix(6), MODEL_CLASS, kind),
        "monte_carlo_fpr": lambda: monte_carlo_fpr(0.5, 64, cfg, 20, 3),
        "counting_lemma_audit": lambda: counting_lemma_audit(8, MODEL_CLASS, kind),
        "conditional_code_len": lambda: conditional_code_len(x, y, MODEL_CLASS, kind),
        "adjusted_mutual": lambda: adjusted_mutual(x, y, MODEL_CLASS, kind),
    }


@pytest.mark.parametrize("name", sorted(one_kind_calls("ideal")))
def test_concrete_model_class_builds_no_pair_shell(pair_shells, name):
    one_kind_calls("concrete")[name]()
    assert pair_shells == []
    one_kind_calls("ideal")[name]()
    assert pair_shells


def test_model_class_encoder_builds_no_pair_shell(pair_shells):
    coders.encode_word(MODEL_CLASS, generate(GeneratorSpec.block(2, 300)))
    assert pair_shells == []


def test_pair_shell_concrete_raises_before_any_kernel(pair_shells):
    pair_shell = CoderId("pair_shell")
    word = BitWord.from01("0110100111")
    calls = [
        lambda: length_kernel(pair_shell, "concrete"),
        lambda: kind_lengths(pair_shell, word, "concrete"),
        lambda: kind_lengths(pair_shell, word, "concrete", [2, 10]),
        lambda: adjusted(word, pair_shell, "concrete"),
        lambda: adjusted_prefixes(word, pair_shell, [2, 10], "concrete"),
        lambda: adjusted_deficiencies(matrix(5), pair_shell, "concrete"),
        lambda: coders.encode_word(pair_shell, word),
        lambda: coders.decode_word(pair_shell, word.n, np.zeros(4, dtype=np.uint8)),
        lambda: Config(m=1, coder=pair_shell, lengths="concrete"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^coder pair_shell has no concrete code$"):
            call()
    assert pair_shells == []


@pytest.mark.parametrize("coder", CODERS, ids=CODER_NAMES)
def test_audit_ideal_lengths_within_bounds(coder):
    for n in range(1, 13):
        rows = counting_lemma_audit(n, coder, "ideal")
        assert all(row.ok for row in rows), (coder.name, n)
        assert len(rows) == (n + 1) * 8


@pytest.mark.parametrize("name", ["periodic", "pair_shell", "model_class"])
def test_audit_ideal_counts_match_masks(name):
    coder, n = CoderId(name), 12
    words = matrix(n)
    ks = words.sum(axis=1)
    deficits = np.array([shell_log_size(n, k) for k in ks.tolist()]) - kind_lengths(coder, words, "ideal").lengths
    want = [(k, t, int(np.count_nonzero(deficits[ks == k] >= t))) for k in range(n + 1) for t in range(1, 9)]
    assert [(r.k, r.t, r.count) for r in counting_lemma_audit(n, coder, "ideal")] == want


def test_audit_concrete_is_the_default():
    for coder in (CoderId("run_length"), MODEL_CLASS):
        assert counting_lemma_audit(10, coder) == counting_lemma_audit(10, coder, "concrete")
    with pytest.raises(ValueError, match="^coder pair_shell has no concrete code to audit$"):
        counting_lemma_audit(8, CoderId("pair_shell"), "concrete")
    with pytest.raises(ValueError, match="^unknown length kind 'both'$"):
        counting_lemma_audit(8, CoderId("shell"), "both")


class TestAuditLengthsOption:
    def run(self, capsys, *argv):
        code = main(["audit", "--length", "8", *argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_pair_shell_audits_ideal_lengths(self, capsys):
        code, out, err = self.run(capsys, "--coder", "pair_shell", "--lengths", "ideal")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 9 * 8
        assert err.strip().splitlines()[-1] == "# violations: 0"

    @pytest.mark.parametrize("argv", [[], ["--lengths", "concrete"]])
    def test_pair_shell_has_no_concrete_audit(self, capsys, argv):
        code, out, err = self.run(capsys, "--coder", "pair_shell", *argv)
        assert code == 2
        assert out == ""
        assert err == "kadjust: error: coder pair_shell has no concrete code to audit\n"

    def test_concrete_is_the_default(self, capsys):
        for coder in ("run_length", "model_class"):
            default = self.run(capsys, "--coder", coder)
            assert default == self.run(capsys, "--coder", coder, "--lengths", "concrete")
            assert default[0] == 0
