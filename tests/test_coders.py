import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kadjust import (
    CODER_NAMES,
    BitWord,
    CoderId,
    GeneratorSpec,
    binary_entropy,
    code_word,
    concrete_coder_ids,
    decode_word,
    encode_word,
    generate,
    k_comb,
    k_len,
    k_model_class,
    k_pair_shell,
    k_periodic,
    k_run_length,
)
from kadjust.bitio import BitWriter, DecodeError, elias_gamma_len
from kadjust.coders import (
    MODEL_MEMBERS,
    MODEL_TAG_BITS,
    P_MAX,
    _CODERS,
    _encode_periodic,
    _periodic_cost,
    _tiled_words,
    is_concrete,
    kind_lengths,
)
from kadjust.words import packed_rows, unpacked

from conftest import WORD35_STR, all_words, periodic_scan

# sha256 over the codewords of test_codeword_bits_pinned; change it only with
# an intended change of bitstream.
CODEWORD_DIGEST = "8b544eae4fd6725d5a80d50f1bb9e3fc8f508303efdfbb89aa87c806149f701e"


def periodic_codeword(word: BitWord, p: int) -> np.ndarray:
    """The periodic codeword of the word with period p."""
    out = BitWriter()
    _encode_periodic(word, out, p)
    return out.getvalue()


class TestLiteral:
    def test_lengths(self, word35):
        res = k_len(word35)
        assert res.ideal_len == res.concrete_len == 35
        assert k_len(BitWord.from01("0")).concrete_len == 1
        assert k_len(BitWord([1] * 1000)).concrete_len == 1000


class TestShellCoder:
    def test_running_example(self, word35):
        assert k_comb(word35).ideal_len == pytest.approx(31.243, abs=0.01)

    def test_all_ones_8(self):
        assert k_comb(BitWord([1] * 8)).ideal_len == pytest.approx(math.log2(9), abs=1e-9)

    def test_balanced_1000(self):
        res = k_comb(BitWord([0, 1] * 500))
        assert res.ideal_len == pytest.approx(1004.6, abs=0.5)


class TestRunLength:
    def test_elias_gamma_oracle(self):
        # gamma(8) = 0001000, seven bits.
        assert elias_gamma_len(8) == len("0001000") == 7
        assert elias_gamma_len(1) == 1

    def test_constant_byte(self):
        assert k_run_length(BitWord.from01("00000000")).concrete_len == 1 + 7

    def test_alternating_byte(self):
        assert k_run_length(BitWord.from01("01010101")).concrete_len == 1 + 8

    def test_alternating_1000(self):
        assert k_run_length(BitWord([0, 1] * 500)).concrete_len == 1001


class TestPeriodic:
    def test_alternating_1000(self):
        res = k_periodic(BitWord([0, 1] * 500))
        assert res.concrete_len <= 12

    def test_constant_64(self):
        assert k_periodic(BitWord([0] * 64)).concrete_len <= 5

    def test_exact_period_cost(self):
        # period-3 word with zero mismatches: gamma(3) + 3 pattern bits + gamma(1)
        word = BitWord.from01("011011011011")
        assert k_periodic(word).concrete_len == elias_gamma_len(3) + 3 + 1

    def test_random_words_cost_at_least_n(self):
        for i in range(100):
            word = generate(GeneratorSpec.bernoulli(0.5, seed=9000 + i, length=64))
            assert k_periodic(word).concrete_len >= 64

    def test_p_max_boundary(self):
        # Words of exact period 32 and 33 over n = 64..66, and words shorter
        # than 32: one row and a batch both score the best period
        # p <= min(32, n), and the codeword decodes.  The bound is written
        # out, so a change of P_MAX fails here.
        def brute(row, bound):
            n = len(row)
            return min(
                _periodic_cost(n, p, sum(row[i] != row[i % p] for i in range(n)))
                for p in range(1, min(bound, n) + 1)
            )

        rng = np.random.default_rng(32)
        coder = CoderId("periodic")
        cases = {n: list(rng.integers(0, 2, (4, n), dtype=np.uint8)) for n in (1, 2, 17, 31)}
        for period in (32, 33):
            pattern = rng.integers(0, 2, period, dtype=np.uint8).tolist()
            for n in (64, 65, 66):
                row = np.resize(pattern, n).astype(np.uint8)
                cases.setdefault(n, []).append(row)
                if period == 32:
                    assert brute(row, 32) == _periodic_cost(n, 32, 0)
                    assert brute(row, 31) > brute(row, 32)
                else:  # a larger bound would find the period
                    assert brute(row, 33) < brute(row, 32)
        for n, rows in cases.items():
            batch = kind_lengths(coder, np.array(rows), "concrete").lengths
            for row, length in zip(rows, batch.tolist()):
                word = BitWord(row)
                assert code_word(coder, word).concrete_len == length == brute(row, 32)
                assert decode_word(coder, n, encode_word(coder, word)) == word


class TestLengthKernelsBruteForce:
    @given(
        bits=st.integers(1, 200).flatmap(
            lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n)
        ),
        p_max=st.integers(1, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, bits, p_max):
        # Covers n < p_max, n not a multiple of the period, and p_max = 1;
        # k_periodic searches p <= P_MAX.
        word = BitWord(bits)
        n = len(bits)
        costs = [
            _periodic_cost(n, p, sum(bits[i] != bits[i % p] for i in range(p, n)))
            for p in range(1, min(max(p_max, P_MAX), n) + 1)
        ]
        assert periodic_scan(word.bits[None], p_max)[0][0] == min(costs[:p_max])
        assert k_periodic(word).concrete_len == min(costs[:P_MAX])
        runs = [len(list(run)) for _, run in itertools.groupby(bits)]
        assert sum(runs) == n
        assert k_run_length(word).concrete_len == 1 + sum(elias_gamma_len(r) for r in runs)

    @pytest.mark.parametrize("n", [1 << 14, (1 << 16) + 1031])
    def test_long_words_match_index_reference(self, n):
        # The codec unpacks the kernel's tiled words; check the tiling
        # against bits[i % p] for every period the codec writes, on a word
        # that ends inside a 64-bit word and on one that does not.
        rng = np.random.default_rng(n)
        bits = np.tile(rng.integers(0, 2, 24, dtype=np.uint8), n // 24 + 1)[:n]
        bits[24:] ^= (rng.random(n - 24) < 0.01).astype(np.uint8)
        index = np.arange(n)
        tiled = _tiled_words(packed_rows(bits[None, :P_MAX])[:, 0], range(1, P_MAX + 1), 0, -(-n // 64))
        for p in range(1, P_MAX + 1):
            assert np.array_equal(unpacked(tiled[p - 1], n), bits[index % p]), p
        word = BitWord(bits)
        coder = CoderId("periodic")
        for p_max in (1, P_MAX):
            best = min(
                _periodic_cost(n, p, int(np.count_nonzero(bits != bits[index % p])))
                for p in range(1, p_max + 1)
            )
            cost, period = periodic_scan(bits[None], p_max)
            assert cost[0] == best
            codeword = periodic_codeword(word, int(period[0]))
            assert len(codeword) == best
            assert decode_word(coder, n, codeword) == word
        assert k_periodic(word).concrete_len == best
        assert np.array_equal(encode_word(coder, word), codeword)

    @pytest.mark.parametrize("n", [1, 35, 1023])
    def test_tiled_short_words(self, n):
        # from column 0, a 35- or 1023-bit word ending inside its last
        # 64-bit word, and for the one word at column 64
        bits = np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8)
        for p in (1, min(n, P_MAX)):
            pattern = packed_rows(bits[None, :p])[:, 0]
            tiled = unpacked(_tiled_words(pattern, range(p, p + 1), 0, -(-n // 64)), n)
            assert np.array_equal(tiled, bits[np.arange(n) % p]), p
            later = unpacked(_tiled_words(pattern, range(p, p + 1), 64, 1), 64)
            assert np.array_equal(later, bits[:p][np.arange(64, 128) % p]), p

    @pytest.mark.parametrize("p_max", [1, 3, 32])
    def test_scan_argmin_across_one_period_chunks(self, monkeypatch, p_max):
        # One period per chunk: the scan must still return the overall
        # minimum and, on ties, the smallest period.
        from kadjust import coders

        monkeypatch.setattr(coders, "_CHUNK_BYTES", 1)
        for n in range(1, 11):
            rows = [word.tolist() for word in all_words(n)]
            cost, period = periodic_scan(np.array(rows, dtype=np.uint8), p_max)
            for row, c, q in zip(rows, cost.tolist(), period.tolist()):
                costs = [
                    _periodic_cost(n, p, sum(row[i] != row[i % p] for i in range(n)))
                    for p in range(1, min(p_max, n) + 1)
                ]
                assert (c, q) == (min(costs), costs.index(min(costs)) + 1), (row, p_max)


class TestPairShell:
    def test_constant_word_header_only(self):
        res = k_pair_shell(BitWord([0] * 10))
        assert res.ideal_len == pytest.approx(4 * math.log2(6), abs=1e-9)
        assert res.concrete_len is None

    def test_small_multinomial(self):
        res = k_pair_shell(BitWord.from01("000111"))
        assert res.ideal_len == pytest.approx(math.log2(6) + 4 * math.log2(4), abs=1e-9)

    def test_tail_bit_charged(self):
        even = k_pair_shell(BitWord.from01("0001"))
        odd = k_pair_shell(BitWord.from01("00011"))
        assert odd.ideal_len == pytest.approx(even.ideal_len + 1.0, abs=1e-9)

    def test_block_source_rate(self):
        m = 100_000
        word = generate(GeneratorSpec.block(seed=5, length=m))
        assert k_pair_shell(word).ideal_len / m == pytest.approx(
            0.5 * math.log2(3), abs=0.01
        )


class TestModelClass:
    def test_alternating_1000(self):
        res = k_model_class(BitWord([0, 1] * 500))
        assert res.model_tag == "periodic"
        assert res.ideal_len <= 15
        assert res.concrete_len <= 15

    def test_running_example(self, word35):
        res = k_model_class(word35)
        assert res.model_tag == "shell"
        assert res.ideal_len == pytest.approx(3 + 31.243, abs=0.05)

    def test_all_zeros_1000(self):
        res = k_model_class(BitWord([0] * 1000))
        assert res.ideal_len <= 15
        assert res.concrete_len <= 15

    def test_domination_and_ratio_overhead_exhaustive(self):
        # Across every word of length <= 14: the class never loses more
        # than the 3-bit tag to any member, on both length kinds, and the
        # normalized ratio overhead is exactly 3/(n*H).
        members = [k_len, k_comb, k_run_length, k_periodic, k_pair_shell]
        for n in range(1, 15):
            for word in all_words(n):
                res = k_model_class(word)
                results = [f(word) for f in members]
                best_ideal = min(r.ideal_len for r in results)
                best_concrete = min(
                    r.concrete_len for r in results if r.concrete_len is not None
                )
                assert res.ideal_len <= MODEL_TAG_BITS + best_ideal + 1e-9
                assert res.concrete_len <= MODEL_TAG_BITS + best_concrete
                h = binary_entropy(word.weight / n)
                if h > 0:
                    base = n * h
                    for r in results:
                        assert res.ideal_len / base <= r.ideal_len / base + MODEL_TAG_BITS / base + 1e-9

    def test_domination_sampled_large(self):
        members = [k_len, k_comb, k_run_length, k_periodic, k_pair_shell]
        for i, n in enumerate([64, 256, 1000]):
            for j in range(30):
                word = generate(GeneratorSpec.bernoulli(0.3, seed=71 + 97 * i + j, length=n))
                res = k_model_class(word)
                best = min(f(word).ideal_len for f in members)
                assert res.ideal_len <= MODEL_TAG_BITS + best + 1e-9


class TestConcreteCodecs:
    def test_round_trip_exhaustive(self):
        for coder in concrete_coder_ids():
            for n in range(1, 13):
                for word in all_words(n):
                    bits = encode_word(coder, word)
                    assert decode_word(coder, n, bits) == word

    def test_round_trip_sampled_large(self):
        for coder in concrete_coder_ids():
            for i, n in enumerate([64, 256, 1024]):
                for j in range(25):
                    word = generate(
                        GeneratorSpec.bernoulli(0.4, seed=1234 + 31 * i + j, length=n)
                    )
                    assert decode_word(coder, n, encode_word(coder, word)) == word

    def test_encoded_length_matches_concrete_len(self):
        for coder in concrete_coder_ids():
            for n in (1, 7, 12):
                for word in all_words(n):
                    assert len(encode_word(coder, word)) == code_word(coder, word).concrete_len

    def test_encoded_length_matches_concrete_len_large(self):
        n = 1 << 16
        rng = np.random.default_rng(2016)
        pattern = rng.integers(0, 2, 24, dtype=np.uint8)
        periodic = np.tile(pattern, n // 24 + 1)[:n]
        # flip 1% of the bits after the first period, which stays clean
        flips = rng.random(n) < 0.01
        flips[:24] = False
        periodic ^= flips.astype(np.uint8)
        words = {
            "bernoulli:0.3": (rng.random(n) < 0.3).astype(np.uint8),
            "periodic24": periodic,
        }
        for name in ("literal", "run_length", "periodic", "model_class"):
            coder = CoderId(name)
            for label, bits in words.items():
                word = BitWord(bits)
                assert len(encode_word(coder, word)) == code_word(coder, word).concrete_len, (
                    name, label,
                )

    def test_kraft_sums(self):
        for coder in concrete_coder_ids():
            for n in range(1, 11):
                total = Fraction(0)
                for word in all_words(n):
                    total += Fraction(1, 2 ** code_word(coder, word).concrete_len)
                assert total <= 1, (coder.name, n, total)

    def test_pair_shell_has_no_concrete_code(self):
        with pytest.raises(ValueError):
            encode_word(CoderId("pair_shell"), BitWord.from01("01"))
        with pytest.raises(ValueError):
            decode_word(CoderId("pair_shell"), 2, np.zeros(2, dtype=np.uint8))

    def test_concrete_at_least_ideal_minus_one(self):
        # Exact for the coders whose ideal length is the concrete length.
        for name in ("literal", "run_length", "periodic"):
            coder = CoderId(name)
            for word in all_words(8):
                res = code_word(coder, word)
                assert res.concrete_len >= res.ideal_len - 1

    def test_codeword_bits_pinned(self):
        # Round trips cannot catch a change of bitstream; this digest does.
        words = [w for n in range(1, 9) for w in all_words(n)] + [BitWord.from01(WORD35_STR)]
        digest = hashlib.sha256()
        for coder in concrete_coder_ids():
            for word in words:
                bits = "".join(map(str, encode_word(coder, word).tolist()))
                digest.update(f"{coder.name}:{word.n}:{bits};".encode())
        # Periodic codewords of the best period <= 5 too, under the label the
        # digest was first taken with; the decoder reads any period up to P_MAX.
        for word in words:
            period = int(periodic_scan(word.bits[None], 5)[1][0])
            bits = "".join(map(str, periodic_codeword(word, period).tolist()))
            digest.update(f"periodic(p_max=5):{word.n}:{bits};".encode())
        assert digest.hexdigest() == CODEWORD_DIGEST

    def test_model_class_encode_scans_periods_once(self, monkeypatch):
        from kadjust import coders

        rng = np.random.default_rng(24)
        bits = np.resize(rng.integers(0, 2, 24, dtype=np.uint8), 1 << 12)
        bits[rng.choice(np.arange(24, 1 << 12), 20, replace=False)] ^= 1
        word = BitWord(bits)
        coder = CoderId("model_class")
        scans = []
        scan = coders._mismatch_counts  # one call per chunk: the word is one chunk
        monkeypatch.setattr(coders, "_mismatch_counts", lambda *a: scans.append(1) or scan(*a))
        codeword = encode_word(coder, word)
        assert len(scans) == 1
        assert codeword.prefix(3).tolist() == [0, 1, 1]  # tag 3: periodic won
        assert len(codeword) == code_word(coder, word).concrete_len
        assert decode_word(coder, word.n, codeword) == word

    def test_decode_error_on_garbage(self):
        with pytest.raises(DecodeError):
            decode_word(CoderId("run_length"), 8, BitWord(np.zeros(4, dtype=np.uint8)))
        with pytest.raises(DecodeError):
            # model tag 7 is undefined
            decode_word(CoderId("model_class"), 4, BitWord(np.array([1, 1, 1, 0, 0], dtype=np.uint8)))

    @pytest.mark.parametrize("n", [1, 5, P_MAX - 1, P_MAX, P_MAX + 1, 100])
    def test_periodic_decoder_period_bound(self, n):
        # The decoder takes the periods the encoder writes only, 1 <= p <=
        # min(P_MAX, n).  Hand-built codewords with no mismatch, alone and
        # behind model tag 3 (periodic).
        pattern = np.random.default_rng(n).integers(0, 2, P_MAX + 1, dtype=np.uint8)

        def codeword(p, tag):
            out = BitWriter()
            if tag:
                out.write_uint(MODEL_MEMBERS.index("periodic"), MODEL_TAG_BITS)
            out.write_elias_gamma(p)
            out.write_uint(int("".join(map(str, pattern[:p].tolist())), 2), p)
            out.write_elias_gamma(1)  # no mismatch
            return out.getvalue()

        top = min(P_MAX, n)
        for coder, tag in ((CoderId("periodic"), False), (CoderId("model_class"), True)):
            word = decode_word(coder, n, codeword(top, tag))
            assert word.bits.tolist() == pattern[np.arange(n) % top].tolist()
            for p in {P_MAX + 1, n + 1} if n < P_MAX else {P_MAX + 1}:
                with pytest.raises(DecodeError, match="period"):
                    decode_word(coder, n, codeword(p, tag))

    def test_non_binary_stream_rejected(self):
        # A 2 or a 3 is no bit: no coder may read it as one, as a coder
        # reads no list or array at all.
        stream = [0, 2, 3, 1, 1, 0, 1, 1, 0, 1, 1, 1]
        for coder in concrete_coder_ids():
            for bad in (stream, np.array(stream, dtype=np.uint8), [0, 1, -1, 1], [0.0, 1.0]):
                with pytest.raises(TypeError):
                    decode_word(coder, 4, bad)

    def test_length_below_one_rejected_before_reading(self):
        for coder in concrete_coder_ids():
            for n in (0, -3):
                for stream in ([], [1, 0, 1, 1], [2]):
                    with pytest.raises(ValueError, match="length must be >= 1"):
                        decode_word(coder, n, stream)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, (1 << 12) + 1, (1 << 16) + 3])
    @pytest.mark.parametrize("p", [0.5, 0.02])
    def test_run_length_and_periodic_round_trip_packed(self, n, p):
        # the decoders write packed words: words of one packed word and of
        # a partial last word, and run lists that span read blocks
        rng = np.random.default_rng([n, round(100 * p)])
        words = [BitWord((rng.random(n) < p).astype(np.uint8))]
        if n >= 64:  # a noisy period-7 word, for a long periodic codeword
            bits = np.resize(rng.integers(0, 2, 7, dtype=np.uint8), n)
            bits[7:][rng.random(n - 7) < p / 10] ^= 1
            words.append(BitWord(bits))
        for word in words:
            for name in ("run_length", "periodic", "model_class"):
                coder = CoderId(name)
                codeword = encode_word(coder, word)
                assert len(codeword) == code_word(coder, word).concrete_len
                decoded = decode_word(coder, n, codeword)
                assert decoded == word, name
                assert not decoded.packed.flags.writeable

    @pytest.mark.parametrize("times", [2, 3])
    def test_periodic_position_listed_more_than_once(self, times):
        # a position listed an even number of times flips nothing, an odd
        # number once, as xor.at on the 0/1 bits decodes it
        n, p = 200, 5
        pattern = [1, 0, 0, 1, 1]
        positions = [3, 64, 64, 130, 199] + [77] * times
        out = BitWriter()
        out.write_elias_gamma(p)
        out.write_uint(0b10011, p)  # the pattern
        out.write_elias_gamma(len(positions) + 1)
        out.write_uints(positions, math.ceil(math.log2(n + 1)))
        want = np.resize(np.array(pattern, dtype=np.uint8), n)
        np.bitwise_xor.at(want, positions, 1)
        assert decode_word(CoderId("periodic"), n, out.getvalue()).bits.tolist() == want.tolist()

    @given(
        coder=st.sampled_from(concrete_coder_ids()),
        n=st.integers(1, 64),
        bits=st.lists(st.integers(0, 1), max_size=300),
    )
    @settings(max_examples=300, deadline=None)
    def test_decode_is_total(self, coder, n, bits):
        # Any bitstream decodes to a word of the declared length or raises
        # DecodeError; nothing else escapes.
        try:
            word = decode_word(coder, n, BitWord(bits) if bits else b"")
        except DecodeError:
            return
        assert word.n == n

    @given(
        coder=st.sampled_from(concrete_coder_ids()),
        n=st.integers(1, 64),
        data=st.binary(max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_decode_is_total_on_bytes(self, coder, n, data):
        # The same for a packed stream: any bytes decode to a word of the
        # declared length or raise DecodeError.
        try:
            word = decode_word(coder, n, data)
        except DecodeError:
            return
        assert word.n == n

    @pytest.mark.parametrize("n", [1, 63, 64, 65, (1 << 12) + 1])
    @pytest.mark.parametrize("coder", concrete_coder_ids(), ids=lambda c: c.name)
    def test_round_trip_through_packed_bytes(self, coder, n):
        # a codeword packed to bytes decodes as its bits do, whatever the
        # bits that pad its last byte
        for p in (0.5, 0.02):
            word = BitWord((np.random.default_rng([n, round(100 * p)]).random(n) < p).astype(np.uint8))
            codeword = encode_word(coder, word)
            packed = np.packbits(codeword)
            assert decode_word(coder, n, packed.tobytes()) == word
            packed[-1] |= (1 << (-len(codeword) % 8)) - 1
            assert decode_word(coder, n, packed.tobytes()) == word


class TestRegistry:
    def test_names_and_params(self):
        assert [CoderId(name).name for name in CODER_NAMES] == list(CODER_NAMES)
        with pytest.raises(ValueError):
            CoderId("nope")
        with pytest.raises(TypeError):  # no coder takes a parameter
            CoderId("periodic", 8)

    def test_concrete_flags(self):
        assert is_concrete(CoderId("model_class"))
        assert not is_concrete(CoderId("pair_shell"))

    def test_table_length_is_the_k_function(self, word35):
        # A one-row code_word runs in the exported k_* frame of its coder,
        # and model_class still names its winner.
        exported = {
            "literal": k_len,
            "shell": k_comb,
            "run_length": k_run_length,
            "periodic": k_periodic,
            "pair_shell": k_pair_shell,
            "model_class": k_model_class,
        }
        assert tuple(exported) == CODER_NAMES
        for name, k in exported.items():
            assert _CODERS[name].length is k
            assert code_word(CoderId(name), word35) == k(word35)
        assert code_word(CoderId("model_class"), word35).model_tag == "shell"

