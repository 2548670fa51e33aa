"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that a corrupted output is counted as a failure, that inputs follow
the seed, and that the benchmark refuses to run without kadjust's source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
        if not trace:
            assert emitted["value"] > 0, metric["name"]


def test_flipped_bit_in_a_decoded_word_is_a_failure(monkeypatch, tmp_path):
    import kadjust

    decode = kadjust.decode_word

    def corrupted(coder, n, source):
        bits = np.array(decode(coder, n, source).bits)
        bits[n // 2] ^= 1
        return kadjust.BitWord(bits)

    monkeypatch.setattr(kadjust, "decode_word", corrupted)
    record = workloads.run("codec-roundtrip", 1, 1, 0.0, False, "tiny", tmp_path)
    decodes = len(workloads.SIZES["tiny"].codec_bits) * 3 * len(workloads.CODEC_CODERS)
    assert record["failed"] == decodes
    assert all("decoded word differs" in f for f in record["failures"])


def test_wrong_k_eff_in_cli_output_is_a_failure(monkeypatch, tmp_path):
    import contextlib
    import io

    import kadjust.cli

    main = kadjust.cli.main

    def inflated(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(argv)
        for line in out.getvalue().splitlines():
            record = json.loads(line)
            if "k_eff" in record:
                record["k_eff"] *= 1.01
            print(json.dumps(record))
        return status

    monkeypatch.setattr(kadjust.cli, "main", inflated)
    record = workloads.run("long-words", 1, 1, 0.0, False, "tiny", tmp_path)
    # analyze records carry k_eff, test records do not
    assert record["failed"] == 6 and record["attempted"] == 9


def test_inputs_follow_the_seed():
    def draw(seed):
        return workloads.noisy_periodic_bits(workloads.input_rng(seed, "x"), 4096)

    assert np.array_equal(draw(5), draw(5))
    assert not np.array_equal(draw(5), draw(6))


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
