"""The output corpus: every coder's lengths and winners under both length
kinds, and every concrete codeword, on a fixed set of seeded words, folded
into one pinned digest, so that a change of any number, tag, period or
bitstream on these words shows as a change of one value."""

import hashlib

import numpy as np

from kadjust import CODER_NAMES, BitWord, CoderId, decode_word, encode_word
from kadjust.coders import LENGTH_KINDS, is_concrete, kind_lengths

# sha256 over the corpus of test_output_corpus_pinned; change it only with an
# intended change of a length, a winner or a bitstream.
CORPUS_DIGEST = "0023726641b26c26770a7567b14ae334d7b6d180b7981f2c8a4de4c4b88ba4f2"

_SIZES = (*range(1, 65), 1 << 8, 1 << 12, 1 << 16)


def _corpus() -> dict[str, BitWord]:
    words = {}
    for p in (0.02, 0.3, 0.5):
        for n in _SIZES:
            rng = np.random.default_rng([n, round(100 * p)])
            words[f"bernoulli({p})/{n}"] = BitWord((rng.random(n) < p).astype(np.uint8))
    # period 7, one bit in 97 flipped
    rng = np.random.default_rng(7)
    noisy = np.resize(rng.integers(0, 2, 7, dtype=np.uint8), 1 << 12)
    noisy[5::97] ^= 1
    words["noisy period 7/4096"] = BitWord(noisy)
    return words


def _entries(score) -> str:
    """A Score's lengths as float.hex, then its tags and periods, if any."""
    fields = [",".join(float(v).hex() for v in score.lengths)]
    for winners in (score.tag, score.period):
        fields.append("-" if winners is None else ",".join(map(str, winners.tolist())))
    return "|".join(fields)


def test_output_corpus_pinned():
    digest = hashlib.sha256()
    for label, word in _corpus().items():
        for name in CODER_NAMES:
            coder = CoderId(name)
            for kind in LENGTH_KINDS:
                if kind == "concrete" and not is_concrete(coder):
                    continue
                digest.update(f"{name}:{kind}:{label}:{_entries(kind_lengths(coder, word, kind))};".encode())
            if is_concrete(coder):
                bits = encode_word(coder, word)
                assert decode_word(coder, word.n, bits) == word, (name, label)
                packed = hashlib.sha256(np.packbits(bits)).hexdigest()
                digest.update(f"{name}:codeword:{label}:{packed}:{len(bits)};".encode())
    assert digest.hexdigest() == CORPUS_DIGEST
