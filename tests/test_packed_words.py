"""Words read from raw and hex payloads are held as packed words and never
unpacked to score them: every record, prefix length and comparison equals
that of the same word built from a uint8 array."""

import io

import numpy as np
import pytest

from kadjust import CODER_NAMES, BitWord, CoderId, adjusted, cli, words
from kadjust.coders import LENGTH_KINDS, is_concrete, kind_lengths
from kadjust.inputs import parse_word
from kadjust.stats import write_records

KINDS = [
    (CoderId(name), kind)
    for name in CODER_NAMES
    for kind in LENGTH_KINDS
    if kind == "ideal" or is_concrete(CoderId(name))
]

# (payload bytes, max_bits): n = 1, 63, 64, 65, 2^17 - 1, 2^17 + 1 and
# 2^18 + 65; payloads of 9 and 13 bytes, not a multiple of 8; max_bits 12,
# 61 and 65 on a longer payload
CASES = [
    (1, 1), (8, 63), (8, None), (9, 65),
    (1 << 14, (1 << 17) - 1), ((1 << 14) + 1, (1 << 17) + 1), ((1 << 15) + 9, (1 << 18) + 65),
    (9, None), (13, None), (13, 12), (13, 61), (13, 65),
]
IDS = [f"{size}B-max{max_bits}" for size, max_bits in CASES]


def payload(size: int) -> bytes:
    """size bytes of random bits, then sparse bits, then period 24 with a
    few flips, so that every model_class member and both run-length paths
    take part."""
    rng = np.random.default_rng(size)
    n = 8 * size
    third = n // 3
    bits = np.concatenate([
        rng.integers(0, 2, third, dtype=np.uint8),
        (rng.random(third) < 0.05).astype(np.uint8),
        np.resize(rng.integers(0, 2, 24, dtype=np.uint8), n - 2 * third),
    ])
    bits[2 * third :] ^= (rng.random(n - 2 * third) < 0.01).astype(np.uint8)
    return np.packbits(bits).tobytes()


def hex_text(data: bytes) -> bytes:
    """data in hex, 64 digits a line."""
    text = data.hex()
    return "\n".join(text[i : i + 64] for i in range(0, len(text), 64)).encode("ascii")


@pytest.fixture(scope="module", params=CASES, ids=IDS)
def origins(request) -> dict[str, BitWord]:
    """The same word built three ways: from a uint8 array, a raw payload and
    a hex payload."""
    size, max_bits = request.param
    data = payload(size)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))[:max_bits]
    return {
        "uint8": BitWord(bits),
        "raw": parse_word(data, "raw", max_bits),
        "hex": parse_word(hex_text(data), "hex", max_bits),
    }


def json_record(word: BitWord, coder: CoderId, kind: str) -> str:
    out = io.StringIO()
    write_records([adjusted(word, coder, kind)], "json", out)
    return out.getvalue()


def test_records_are_byte_identical(origins):
    for coder, kind in KINDS:
        want = json_record(origins["uint8"], coder, kind)
        for name in ("raw", "hex"):
            assert json_record(origins[name], coder, kind) == want, (name, coder.name, kind)


def test_prefix_lengths_at_mid_word_cuts(origins):
    n = origins["uint8"].n
    cuts = [m for m in (16, 33, 100, (1 << 17) + 5) if m < n] + [n]
    for coder, kind in KINDS:
        want = kind_lengths(coder, origins["uint8"], kind, cuts).lengths.tolist()
        for name in ("raw", "hex"):
            assert kind_lengths(coder, origins[name], kind, cuts).lengths.tolist() == want, (name, coder.name, kind)


def test_word_api_agrees_across_origins(origins):
    u, raw, hexed = origins["uint8"], origins["raw"], origins["hex"]
    n = u.n
    assert u == raw == hexed and raw == u
    assert hash(u) == hash(raw) == hash(hexed)
    assert (u.n, u.weight) == (raw.n, raw.weight) == (hexed.n, hexed.weight)
    for m in sorted({1, 12, 63, 64, 65, n - 1, n}):
        if 1 <= m <= n:
            assert u.prefix(m) == raw.prefix(m) == hexed.prefix(m)
            assert hash(u.prefix(m)) == hash(raw.prefix(m))
    assert raw.tolist() == hexed.tolist() == u.tolist()
    assert np.array_equal(raw.packed, u.packed)
    if n > 1:
        assert u != BitWord(1 - u.bits) and raw != raw.prefix(n - 1)


@pytest.fixture
def unpacks(monkeypatch) -> list[int]:
    """A list that gains the length of every word view words.unpacked builds."""
    calls = []
    unpacked = words.unpacked

    def spy(packed, n):
        calls.append(n)
        return unpacked(packed, n)

    monkeypatch.setattr(words, "unpacked", spy)
    return calls


@pytest.mark.parametrize("command", [
    ["analyze", "--coder", "shell"],
    ["test", "--coder", "model_class", "--lengths", "concrete"],
    ["analyze", "--coder", "model_class", "--max-bits", "20001"],
])
def test_cli_never_unpacks_a_raw_word(unpacks, tmp_path, capsys, command):
    path = tmp_path / "word.raw"
    path.write_bytes(payload(1 << 12))
    status = cli.main([*command, "--input-format", "raw", "--format", "json", str(path)])
    capsys.readouterr()
    assert status in (0, 1)
    assert unpacks == []


def test_packed_reads_never_unpack(unpacks):
    data = payload(13)
    word = parse_word(data, "raw", 65)
    other = parse_word(data, "raw")
    assert (word.n, word.weight) == (65, int(np.unpackbits(np.frombuffer(data, np.uint8))[:65].sum()))
    assert word == other.prefix(65) and hash(word) == hash(other.prefix(65)) and word != other
    assert unpacks == []
    assert word.tolist() == word.tolist()  # the view is unpacked on each call, never kept
    assert unpacks == [65, 65]


def test_from_bytes_checks_its_length():
    assert BitWord.from_bytes(b"\xa0", 3) == BitWord.from01("101")
    for n in (0, 9):
        with pytest.raises(ValueError):
            BitWord.from_bytes(b"\xa0", n)
