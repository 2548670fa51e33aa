"""The winner a concrete Score names is the one the codeword writes.

A model_class codeword starts with the 3-bit tag of its first shortest
concrete member, and a periodic codeword with the Elias gamma code of its
period: kind_lengths(coder, word, "concrete") must name both, and its
length must be the codeword's.  The concrete winner is not the ideal one
that CodeResult.model_tag reports on every word; the pinned count of words
where they differ catches a change of either tie-break.
"""

import numpy as np
import pytest

from kadjust import BitWord, CoderId, code_word, encode_word, generate, kind_lengths
from kadjust.bitio import BitReader
from kadjust.coders import MODEL_MEMBERS, MODEL_TAG_BITS
from kadjust.simulate import GeneratorSpec

MODEL_CLASS, PERIODIC = CoderId("model_class"), CoderId("periodic")
PERIODIC_TAG = MODEL_MEMBERS.index("periodic")


def all_words(n: int) -> np.ndarray:
    """Every word of n bits, one per row, in integer order."""
    return ((np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)


def seeded_words() -> list[BitWord]:
    """Words of 100 bits to 2^18 on which every concrete member wins:
    Bernoulli(0.5) (literal), Bernoulli(0.01) (shell), runs of about 50
    bits (run_length), period 24 with 1% noise (periodic) and the block
    source."""
    words = []
    for n in (100, 4097, 1 << 15, 1 << 18):
        rng = np.random.default_rng(n)
        runs = np.repeat(np.arange(n) % 2, rng.geometric(1 / 50, n))[:n]
        periodic = np.resize(rng.integers(0, 2, 24), n) ^ (rng.random(n) < 0.01)
        words += [
            generate(GeneratorSpec.bernoulli(0.5, n, n)),
            generate(GeneratorSpec.bernoulli(0.01, n + 1, n)),
            BitWord(runs),
            BitWord(periodic),
            generate(GeneratorSpec.block(n + 2, n)),
        ]
    return words


def model_class_header(codeword: np.ndarray) -> tuple[int, int | None]:
    """A model_class codeword's tag, and the period a periodic one writes."""
    reader = BitReader(codeword)
    tag = reader.read_uint(MODEL_TAG_BITS)
    return tag, reader.read_elias_gamma() if tag == PERIODIC_TAG else None


def assert_codewords_match_scores(words: list[BitWord], model_class, periodic):
    """Each word's model_class and periodic codewords against its entry i
    of the concrete Scores."""
    for i, word in enumerate(words):
        codeword = encode_word(MODEL_CLASS, word)
        tag, period = model_class_header(codeword)
        assert tag == model_class.tag[i], word
        assert len(codeword) == model_class.lengths[i], word
        assert period == (model_class.period[i] if tag == PERIODIC_TAG else None), word
        codeword = encode_word(PERIODIC, word)
        assert BitReader(codeword).read_elias_gamma() == periodic.period[i], word
        assert len(codeword) == periodic.lengths[i], word


@pytest.mark.parametrize("n", range(1, 13))
def test_codewords_of_every_short_word(n):
    bits = all_words(n)
    assert_codewords_match_scores(
        [BitWord(row) for row in bits], kind_lengths(MODEL_CLASS, bits, "concrete"),
        kind_lengths(PERIODIC, bits, "concrete"),
    )


def test_codewords_of_seeded_words_up_to_2_18_bits():
    words = seeded_words()
    model_class = [kind_lengths(MODEL_CLASS, word, "concrete") for word in words]
    periodic = [kind_lengths(PERIODIC, word, "concrete") for word in words]
    for word, mc, p in zip(words, model_class, periodic):
        assert_codewords_match_scores([word], mc, p)
        assert code_word(MODEL_CLASS, word).concrete_len == mc.lengths[0]
    winners = {MODEL_MEMBERS[int(score.tag[0])] for score in model_class}
    assert winners == {"literal", "shell", "run_length", "periodic"}


def test_concrete_and_ideal_tags_differ_on_pinned_words():
    # The concrete tag leaves out pair_shell and counts whole bits, so it
    # differs from the ideal tag, CodeResult.model_tag, on 4428 of the
    # 32766 words of 1 to 14 bits
    differ = 0
    for n in range(1, 15):
        bits = all_words(n)
        ideal, concrete = (kind_lengths(MODEL_CLASS, bits, kind) for kind in ("ideal", "concrete"))
        differ += int(np.count_nonzero(ideal.tag != concrete.tag))
        for i in (0, (1 << n) // 3, (1 << n) - 1):
            assert code_word(MODEL_CLASS, BitWord(bits[i])).model_tag == MODEL_MEMBERS[ideal.tag[i]]
    assert differ == 4428
