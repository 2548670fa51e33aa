import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import kadjust
from kadjust.cli import main, parse_measure, parse_schedule
from kadjust.coders import CoderId
from kadjust.simulate import GeneratorSpec, generate
from kadjust.testing import AuditRow, FprResult, FprRow

from conftest import WORD35_STR

# json and csv carry floats at full precision.
GOLDEN_ANALYZE = {
    "n": 35,
    "w": 9,
    "H": 0.8224042259549891,
    "baseline": 28.784147908424618,
    "k_eff": 31.24324228451052,
    "KA": 37.99012857482628,
    "R": 1.0854322449950364,
    "deficiency": -2.4590943760859005,
    "coder": "shell",
}

GOLDEN_TEST = {
    "decision": "accept",
    "R": 1.0854322449950364,
    "deficiency": -2.4590943760859005,
    "threshold": 0.826293277261246,
    "m": 5,
    "coder": "shell",
    "n": 35,
    "w": 9,
}


@pytest.fixture
def word_file(tmp_path):
    path = tmp_path / "word35.txt"
    path.write_text(WORD35_STR + "\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseHelpers:
    def test_measures(self):
        spec = parse_measure("bernoulli:0.3", seed=7, length=100)
        assert spec == GeneratorSpec.bernoulli(0.3, 7, 100)
        spec = parse_measure("mixture:0.25:0.1,0.75:0.9", seed=1, length=10)
        assert spec.components == ((0.25, 0.1), (0.75, 0.9))
        assert parse_measure("block", seed=1, length=10).kind == "block"
        for bad in ("block:x", "gauss:1", "mixture:0.5", "bernoulli:"):
            with pytest.raises(ValueError):
                parse_measure(bad, seed=1, length=10)

    def test_schedule(self):
        assert parse_schedule("16,64,256", 1000) == [16, 64, 256]
        assert parse_schedule(None, 64)[-1] == 64
        with pytest.raises(ValueError):
            parse_schedule(",", 64)


class TestAnalyze:
    def test_golden_json(self, capsys, word_file):
        code, out, _ = run_cli(capsys, "analyze", word_file, "--coder", "shell", "--format", "json")
        assert code == 0
        assert json.loads(out.strip()) == GOLDEN_ANALYZE

    def test_constant_word_reports_nulls(self, capsys, tmp_path):
        path = tmp_path / "const.txt"
        path.write_text("0000000000")
        code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "json")
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["H"] == 0.0 and rec["R"] is None and rec["KA"] is None
        assert list(rec) == list(GOLDEN_ANALYZE)

    def test_constant_word_concrete_length(self, capsys, tmp_path):
        path = tmp_path / "const.txt"
        path.write_text("0000000000")
        code, out, _ = run_cli(
            capsys, "analyze", str(path), "--coder", "shell", "--lengths", "concrete",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out.strip())["k_eff"] == 1.0

    def test_ideal_only_coder_rejects_concrete_on_constant_word(self, capsys, tmp_path):
        path = tmp_path / "const.txt"
        path.write_text("0000000000")
        for command in ("analyze", "test"):
            code, _, err = run_cli(
                capsys, command, str(path), "--coder", "pair_shell", "--lengths", "concrete"
            )
            assert code == 2
            assert "no concrete code" in err

    def test_multiple_inputs_in_order(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("0101")
        b = tmp_path / "b.txt"
        b.write_text("0011")
        code, out, _ = run_cli(capsys, "analyze", str(a), str(b), "--format", "json")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert [rec["w"] for rec in lines] == [2, 2]

    def test_table_format(self, capsys, word_file):
        code, out, _ = run_cli(capsys, "analyze", word_file)
        assert code == 0
        assert "R" in out and "1.08543" in out

    def test_hex_input(self, capsys, tmp_path):
        path = tmp_path / "w.hex"
        path.write_text("ff00")
        code, out, _ = run_cli(capsys, "analyze", str(path), "--input-format", "hex", "--format", "json")
        assert code == 0
        assert json.loads(out.strip())["n"] == 16

    def test_bad_characters_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("01021")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "error" in err


class TestTestCommand:
    def test_accept_exit_zero_golden(self, capsys, word_file):
        code, out, _ = run_cli(
            capsys, "test", word_file, "--coder", "shell", "--m", "5", "--format", "json"
        )
        assert code == 0
        assert json.loads(out.strip()) == GOLDEN_TEST

    def test_reject_exit_one(self, capsys, tmp_path):
        path = tmp_path / "alt.txt"
        path.write_text("01" * 500)
        code, out, _ = run_cli(
            capsys, "test", str(path), "--coder", "model_class", "--m", "5", "--format", "json"
        )
        assert code == 1
        assert json.loads(out.strip())["decision"] == "reject"

    def test_constant_word_not_a_rejection(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("1111")
        code, out, _ = run_cli(capsys, "test", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out.strip())["decision"] == "constant-word"


class TestOneInputAtATime:
    """analyze and test read and score their inputs one at a time; the
    records come out as when the words were read all at once."""

    @pytest.fixture
    def inputs(self, tmp_path, word_file):
        paths = [word_file]
        for name, text in (("const", "1111111111"), ("sparse", "0100000000001000000000001")):
            path = tmp_path / f"{name}.txt"
            path.write_text(text)
            paths.append(str(path))
        return paths

    @pytest.mark.parametrize("command", ["analyze", "test"])
    def test_each_word_is_dropped_before_the_next_is_read(
        self, capsys, monkeypatch, inputs, command
    ):
        singles = [run_cli(capsys, command, path, "--format", "json") for path in inputs]
        read = kadjust.cli.read_word
        words = []

        def tracked(*args):
            assert all(ref() is None for ref in words)  # every earlier word is gone
            word = read(*args)
            words.append(weakref.ref(word.packed))
            return word

        monkeypatch.setattr(kadjust.cli, "read_word", tracked)
        code, out, _ = run_cli(capsys, command, *inputs, "--format", "json")
        assert len(words) == len(inputs)
        assert out == "".join(single_out for _, single_out, _ in singles)
        assert code == max(single_code for single_code, _, _ in singles)

    @pytest.mark.parametrize("command", ["analyze", "test"])
    def test_missing_later_input_prints_nothing(self, capsys, inputs, tmp_path, command):
        missing = str(tmp_path / "missing.txt")
        code, out, err = run_cli(capsys, command, *inputs[:2], missing)
        assert (code, out) == (2, "")
        assert "missing.txt" in err


class TestPairCommands:
    def test_cond(self, capsys, tmp_path):
        x = tmp_path / "x.txt"
        x.write_text("0" * 19 + "0" * 7 + "1" * 6 + "1" * 3)
        y = tmp_path / "y.txt"
        y.write_text("0" * 19 + "1" * 7 + "0" * 6 + "1" * 3)
        code, out, _ = run_cli(capsys, "cond", str(x), str(y), "--format", "json")
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["H_cond"] == pytest.approx(0.819685, abs=1e-4)
        assert rec["R_cond"] == pytest.approx(1.13288, abs=1e-3)

    def test_cond_determined_pair_reports_nulls(self, capsys, word_file):
        code, out, err = run_cli(capsys, "cond", word_file, word_file, "--format", "json")
        assert code == 0
        assert err == ""
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 1
        rec = records[0]
        assert rec["H_cond"] == 0.0 and rec["baseline"] == 0.0
        assert rec["k_eff_cond"] > 0
        assert rec["KA_cond"] is None and rec["R_cond"] is None
        assert rec["deficiency_cond"] is None

    def test_mutual(self, capsys, tmp_path):
        x = tmp_path / "x.txt"
        x.write_text("01" * 32)
        code, out, _ = run_cli(capsys, "mutual", str(x), str(x), "--format", "json")
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["I_emp"] == 1.0
        assert 0.8 <= rec["R_mutual"] <= 1.2

    def test_pair_requires_two_inputs(self, capsys, tmp_path):
        x = tmp_path / "x.txt"
        x.write_text("0101")
        code, _, err = run_cli(capsys, "cond", str(x))
        assert code == 2

    def test_mutual_zero_baseline_usage_error(self, capsys, tmp_path):
        x = tmp_path / "x.txt"
        x.write_text("0011" * 4)
        y = tmp_path / "y.txt"
        y.write_text("0101" * 4)
        code, _, err = run_cli(capsys, "mutual", str(x), str(y))
        assert code == 2
        assert "mutual" in err


class TestSimulateCommand:
    def test_csv_trace(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--measure", "bernoulli:0.3",
            "--length", "4096",
            "--seed", "9",
            "--coder", "shell",
            "--schedule", "16,256,4096",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,p_hat,H,K_eff,R,coder"
        assert len(lines) == 4
        final = lines[-1].split(",")
        assert final[0] == "4096" and final[-1] == "shell"
        assert float(final[4]) == pytest.approx(1.0, abs=0.05)

    def test_block_measure(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--measure", "block",
            "--length", "8192",
            "--seed", "7",
            "--coder", "pair_shell",
            "--schedule", "8192",
        )
        assert code == 0
        final = out.strip().splitlines()[-1].split(",")
        assert float(final[4]) == pytest.approx(0.7925, abs=0.02)

    def test_block_measure_long_run(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--measure", "block",
            "--coder", "pair_shell",
            "--length", "131072",
            "--seed", "7",
        )
        assert code == 0
        final = out.strip().splitlines()[-1].split(",")
        assert final[0] == "131072"
        assert float(final[4]) == pytest.approx(0.7925, abs=0.01)

    def test_bad_measure_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--measure", "gauss:1", "--length", "64")
        assert code == 2


class TestCalibrateCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "calibrate",
            "--measure", "bernoulli:0.5",
            "--length", "64",
            "--trials", "200",
            "--seed", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,trials,rejections,rate,bound,ok"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "200" and first[-1] == "True"

    def test_rate_above_bound_exits_one(self, capsys, monkeypatch):
        row = FprRow(m=3, trials=100, rejections=60, rate=0.6, bound=0.5, ok=False)
        result = FprResult(p=0.5, n=64, coder=CoderId("shell"), seed=1, rows=(row,))
        monkeypatch.setattr("kadjust.cli.monte_carlo_fpr", lambda *args: result)
        code, out, _ = run_cli(capsys, "calibrate", "--measure", "bernoulli:0.5", "--length", "64")
        assert code == 1
        assert out.strip().splitlines()[-1] == "3,100,60,0.6,0.5,False"

    def test_rejects_length_below_one(self, capsys):
        for coder in ("shell", "run_length"):
            for length in ("0", "-3"):
                code, out, err = run_cli(
                    capsys, "calibrate", "--measure", "bernoulli:0.5", "--length", length,
                    "--coder", coder,
                )
                assert code == 2 and out == ""
                assert err == "kadjust: error: length must be >= 1\n"

    def test_requires_bernoulli(self, capsys):
        code, _, _ = run_cli(capsys, "calibrate", "--measure", "block", "--length", "64")
        assert code == 2


class TestAuditCommand:
    def test_audit_runs_clean(self, capsys):
        code, out, err = run_cli(capsys, "audit", "--length", "8", "--coder", "run_length")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,t,count,bound,ok"
        assert len(lines) == 1 + 9 * 8
        assert err.strip().splitlines()[-1] == "# violations: 0"

    def test_audit_violation_exits_one(self, capsys, monkeypatch):
        row = AuditRow(k=4, t=1, count=71, bound=35.0, ok=False)
        monkeypatch.setattr("kadjust.cli.counting_lemma_audit", lambda n, coder, lengths="concrete": [row])
        code, _, err = run_cli(capsys, "audit", "--length", "8")
        assert code == 1
        assert err.strip().splitlines()[-1] == "# violations: 1"

    def test_audit_rejects_ideal_coder(self, capsys):
        code, _, err = run_cli(capsys, "audit", "--length", "8", "--coder", "pair_shell")
        assert code == 2


class TestRecordFormats:
    COMMANDS = {
        "analyze": ["analyze", "{word}"],
        "test": ["test", "{word}", "--m", "5"],
        "cond": ["cond", "{word}", "{other}"],
        "mutual": ["mutual", "{word}", "{word}"],
        "simulate": ["simulate", "--measure", "bernoulli:0.3", "--length", "256", "--seed", "2"],
        "calibrate": ["calibrate", "--measure", "bernoulli:0.5", "--length", "64", "--trials", "50"],
        "audit": ["audit", "--length", "6", "--coder", "run_length"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_command_honours_format(self, capsys, word_file, tmp_path, command):
        other = tmp_path / "other.txt"
        other.write_text(WORD35_STR[::-1])
        argv = [a.format(word=word_file, other=other) for a in self.COMMANDS[command]]
        outputs = {}
        for fmt in ("json", "csv", "table"):
            code, out, _ = run_cli(capsys, *argv, "--format", fmt)
            assert code in (0, 1)
            assert "\r" not in out
            outputs[fmt] = out
        records = [json.loads(line) for line in outputs["json"].splitlines()]
        header = outputs["csv"].splitlines()[0]
        assert header == ",".join(records[0])
        assert len(outputs["csv"].splitlines()) == 1 + len(records)
        assert outputs["table"].count("\n\n") == len(records)


class TestLogging:
    def test_negative_i_eff_warning_goes_through_a_handler(self, tmp_path):
        # Pair with negative I_eff under the shell coder (see test_stats).
        x = generate(GeneratorSpec.bernoulli(0.5, 0, 64))
        y = generate(GeneratorSpec.bernoulli(0.5, 1, 64))
        paths = []
        for name, word in (("x.txt", x), ("y.txt", y)):
            (tmp_path / name).write_text(word.to01())
            paths.append(str(tmp_path / name))
        env = dict(os.environ, PYTHONPATH=str(Path(kadjust.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "kadjust.cli", "mutual", *paths, "--format", "json"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["I_eff"] < 0
        assert proc.stderr.startswith("kadjust.stats: WARNING: effective mutual information")


class TestUsageErrors:
    def test_unknown_coder_exits_two(self, capsys, word_file):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", word_file, "--coder", "zip"])
        assert exc.value.code == 2

    def test_analyze_rejects_seed(self, capsys, word_file):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", word_file, "--seed", "3"])
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "/nonexistent/path.txt")
        assert code == 2


class TestStdin:
    def test_reads_stdin_by_default(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(WORD35_STR.encode()), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, _ = run_cli(capsys, "analyze", "--format", "json")
        assert code == 0
        assert json.loads(out.strip())["w"] == 9
