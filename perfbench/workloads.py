"""The benchmark's workloads: seeded inputs, timed operations and the
oracle that checks every operation's output.

Run as a script, this file is the child process that run.py starts for
one workload.  It measures for the given number of seconds and prints
one JSON line of raw results.

  long-words       three 2^19-bit words driven through kadjust.cli.main:
                   part 1 analyze --coder shell, part 2 analyze --coder
                   model_class, part 3 test --coder model_class --lengths
                   concrete.
  codec-roundtrip  words of 2^12, 2^14 and 2^15 bits under every concrete
                   coder: part 1 encode_word, part 2 decode_word, part 3
                   code_word (the concrete length the codeword must have).
  checks           the paper's self-checks: part 1 monte_carlo_fpr,
                   part 2 counting_lemma_audit, part 3 convergence_trace.

The inputs of long-words and codec-roundtrip come from the benchmark's
own generator (numpy PCG64), never from kadjust.generate, so work done on
kadjust's generators cannot change them.  calibrate and simulate generate
their words with kadjust's seeded sources, because that generation is
part of the work they measure; their seeds come from --program-seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_out"

PARTS = 3
LOG2_3_HALF = 0.5 * math.log2(3)
# Acceptance-suite tolerances on the final R of a convergence trace.
R_TOL_BERNOULLI = 0.02
R_TOL_BLOCK = 0.01
# sig6 rounding of reported floats is at most 5e-6 relative.
REL_TOL = 1e-5


@dataclass(frozen=True)
class Sizes:
    long_bits: int
    codec_bits: tuple[int, ...]
    fpr_n: int
    fpr_trials_vectorized: int
    fpr_trials_generic: int
    audit_n: int
    trace_bits: int


SIZES = {
    "paper": Sizes(
        long_bits=1 << 19,
        codec_bits=(1 << 12, 1 << 14, 1 << 15),
        fpr_n=256,
        fpr_trials_vectorized=10_000,
        fpr_trials_generic=1_000,
        audit_n=12,
        trace_bits=1 << 17,
    ),
    # For the smoke test: every path runs, in well under a second each.
    "tiny": Sizes(
        long_bits=1 << 15,
        codec_bits=(64, 1 << 10),
        fpr_n=256,
        fpr_trials_vectorized=200,
        fpr_trials_generic=20,
        audit_n=6,
        trace_bits=1 << 15,
    ),
}


# ---------------------------------------------------------------------------
# seeded inputs


def input_rng(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per input stream, fixed by the seed."""
    return np.random.default_rng([seed, zlib.crc32(stream.encode())])


def bernoulli_bits(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    return (rng.random(n) < p).astype(np.uint8)


def block_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform 2-bit blocks from {00, 01, 11}; the block 10 never occurs."""
    idx = rng.integers(0, 3, size=(n + 1) // 2)
    bits = np.empty(2 * idx.size, dtype=np.uint8)
    bits[0::2] = idx == 2
    bits[1::2] = idx >= 1
    return bits[:n]


def noisy_periodic_bits(
    rng: np.random.Generator, n: int, period: int = 24, flip: float = 0.01
) -> np.ndarray:
    """A balanced period-24 pattern repeated to n bits, with 1% of the bits
    after the first period flipped.

    The periodic coder takes its pattern from the word's first period, so
    the flips stay out of it; a flip there would turn the word into a
    different input (one the periodic coder cannot compress), and the
    verdict would depend on the seed.
    """
    pattern = rng.permutation(np.repeat(np.array([0, 1], dtype=np.uint8), period // 2))
    bits = np.resize(pattern, n)
    flips = rng.choice(n - period, size=round(flip * n), replace=False) + period
    bits[flips] ^= 1
    return bits


def log2_comb(n: int, k: int) -> float:
    """log2 C(n, k) from lgamma, independent of kadjust's exact arithmetic."""
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(2)


def entropy_baseline(n: int, w: int) -> float:
    p = w / n
    if p in (0.0, 1.0):
        return 0.0
    return n * (-p * math.log2(p) - (1 - p) * math.log2(1 - p))


def close(value: float, expected: float, scale: float) -> bool:
    return abs(value - expected) <= REL_TOL * abs(scale) + 1e-9


# ---------------------------------------------------------------------------
# timing and checking


_REF_BITS = (np.random.default_rng(0).random(1 << 20) < 0.3).astype(np.uint8)
_REF_BIG = 3 ** 20000


def reference_work() -> int:
    """A fixed mix of the kinds of work kadjust does: an interpreted integer
    loop, big-integer arithmetic, and memory-bound numpy passes over a
    2^20-bit word."""
    x = 0
    for i in range(4000):
        x = (x * 31 + i) & 0xFFFFFFFFFFFF
    y = _REF_BIG * _REF_BIG % (_REF_BIG - 1)
    tiled = np.resize(_REF_BITS[:24], _REF_BITS.size)
    r = int(np.count_nonzero(_REF_BITS != tiled))
    return x + r + (y & 1)


# Normalized times are in seconds of a machine that runs reference_work in
# this time.  It is a fixed constant, close to the median measured on an
# Intel Xeon VM with 2 vCPUs (Python 3.11, numpy 2.4), where that median
# moved between 0.008 s and 0.012 s with the load of the machine.
REF_NOMINAL_S = 0.0118
# A reference sample is taken after the operation that ends this much
# operation time since the last sample.
REF_EVERY_S = 0.2


def reference_sample() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class Meter:
    """Times operations, applies their oracles and keeps output digests.

    A pass runs every operation of a workload once.  Operation i of every
    pass must give the output operation i gave in the first pass.

    The machine may be shared, so its speed drifts while a run goes on.
    Operation times are therefore normalized: after every REF_EVERY_S of
    operation time the meter times a fixed reference workload, and the
    operations in between are scaled by REF_NOMINAL_S over the mean of the
    two reference samples around them.  raw_s keeps the unscaled times.
    """

    def __init__(self):
        self.tracer = None
        self.attempted = 0
        self.failures: list[str] = []
        self.first_pass: list[str] | None = None
        self._ref = reference_sample()
        self.ref_samples = [self._ref]
        self.start_pass()

    def start_pass(self) -> None:
        self.part_s = [0.0] * PARTS
        self.raw_s = 0.0
        self.bits = 0
        self.words = 0
        self.digests: list[str] = []
        self._pending: list[tuple[int, float]] = []

    def end_pass(self) -> None:
        self._normalize()
        if self.first_pass is None:
            self.first_pass = self.digests

    def _normalize(self) -> None:
        """Scale the operations timed since the last reference sample."""
        if not self._pending:
            return
        ref = reference_sample()
        scale = REF_NOMINAL_S / ((self._ref + ref) / 2)
        for part, elapsed in self._pending:
            self.part_s[part] += elapsed * scale
        self._pending = []
        self._ref = ref
        self.ref_samples.append(ref)

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(self.first_pass or []).encode()).hexdigest()

    def op(self, part, bits, words, label, fn, *args, check, digest, repeat=1):
        """Time fn(*args) as one operation of the given part, then check it.

        check(result) returns None when the output is right and a message
        otherwise; digest(result) returns the bytes that identify it.  With
        repeat > 1 the call runs that many times and its median time counts.
        """
        self.attempted += 1
        self.bits += bits
        self.words += words
        tracer = self.tracer
        if tracer is not None:
            repeat = 1  # spans must cover exactly the work the pass counts
        result = None
        try:
            if tracer is not None:
                tracer.start()
            times = []
            try:
                for _ in range(repeat):
                    start = time.perf_counter()
                    result = fn(*args)
                    times.append(time.perf_counter() - start)
            finally:
                if tracer is not None:
                    tracer.stop()
            elapsed = statistics.median(times)
            self.raw_s += elapsed
            self._pending.append((part, elapsed))
            if sum(e for _, e in self._pending) >= REF_EVERY_S:
                self._normalize()
            problem = check(result)
            out = hashlib.sha256(digest(result)).hexdigest()
        except Exception as exc:  # a failed operation is counted, not fatal
            problem, out = f"raised {exc!r}", "raised"
        index = len(self.digests)
        self.digests.append(out)
        if problem is None and self.first_pass is not None and self.first_pass[index] != out:
            problem = "output differs from the first pass"
        if problem is not None:
            self.failures.append(f"{label}: {problem}")
        return result


# ---------------------------------------------------------------------------
# workloads

# analyze --coder shell takes a few milliseconds per word; the median of
# repeats is steadier than one timing.
SHELL_REPEATS = 15
LONG_COMMANDS = (
    ("analyze", "--coder", "shell"),
    ("analyze", "--coder", "model_class"),
    ("test", "--coder", "model_class", "--lengths", "concrete"),
)


def run_cli(argv: list[str]) -> tuple[int, str]:
    from kadjust.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return status, out.getvalue()


def cli_digest(result) -> bytes:
    status, out = result
    return f"{status}\n{out}".encode()


class LongWords:
    def __init__(self, sizes: Sizes, seed: int, program_seed: int, workdir: Path):
        n = sizes.long_bits
        self.words = {
            "bernoulli:0.3": bernoulli_bits(input_rng(seed, "long/bernoulli"), n, 0.3),
            "block": block_bits(input_rng(seed, "long/block"), n),
            "periodic24": noisy_periodic_bits(input_rng(seed, "long/periodic"), n),
        }
        workdir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for name, bits in self.words.items():
            path = workdir / f"long-{name.replace(':', '-')}.raw"
            path.write_bytes(np.packbits(bits).tobytes())
            self.paths[name] = path

    def close(self) -> None:
        for path in self.paths.values():
            path.unlink(missing_ok=True)

    def run_pass(self, meter: Meter) -> None:
        for part, command in enumerate(LONG_COMMANDS):
            for name, path in self.paths.items():
                argv = [*command, "--input-format", "raw", "--format", "json", str(path)]
                meter.op(
                    part, self.words[name].size, 1, f"{' '.join(command)} {name}",
                    run_cli, argv,
                    check=lambda result: self.check(part, name, result),
                    digest=cli_digest,
                    repeat=SHELL_REPEATS if part == 0 else 1,
                )

    def check(self, part: int, name: str, result) -> str | None:
        status, out = result
        records = [json.loads(line) for line in out.splitlines() if line.strip()]
        if len(records) != 1:
            return f"expected one record, got {len(records)}"
        rec = records[0]
        bits = self.words[name]
        n, w = bits.size, int(np.count_nonzero(bits))
        if rec["n"] != n or rec["w"] != w:
            return f"n, w = {rec['n']}, {rec['w']}; expected {n}, {w}"
        baseline = entropy_baseline(n, w)
        # test records carry R and deficiency but no k_eff
        k_eff = rec["k_eff"] if "k_eff" in rec else baseline - rec["deficiency"]
        if not close(rec["R"] * baseline, k_eff, baseline):
            return f"R = {rec['R']} disagrees with the baseline {baseline}"
        shell_ideal = log2_comb(n, w) + math.log2(n + 1)
        if part == 2:
            expected = {"bernoulli:0.3": 0, "periodic24": 1}.get(name, status)
            if status != expected or rec["decision"] != ("reject" if status else "accept"):
                return f"verdict {rec['decision']} (exit {status}), expected exit {expected}"
            return None
        if status != 0:
            return f"exit status {status}"
        if part == 0:
            if not close(rec["k_eff"], shell_ideal, shell_ideal):
                return f"shell k_eff {rec['k_eff']}, expected {shell_ideal}"
            expected = baseline - shell_ideal
            if abs(rec["deficiency"] - expected) > REL_TOL * abs(expected) + 1e-6:
                return f"shell deficiency {rec['deficiency']}, expected {expected}"
            return None
        if rec["k_eff"] > (3 + shell_ideal) * (1 + REL_TOL):
            return f"model_class k_eff {rec['k_eff']} exceeds tag + shell {3 + shell_ideal}"
        limits = {
            "bernoulli:0.3": (1.0, R_TOL_BERNOULLI),
            "block": (LOG2_3_HALF, R_TOL_BLOCK),
            "periodic24": (0.25, 0.25),
        }
        target, tol = limits[name]
        if abs(rec["R"] - target) > tol:
            return f"model_class R = {rec['R']}, expected {target} +- {tol}"
        return None


CODEC_CODERS = ("literal", "shell", "run_length", "periodic", "model_class")


class CodecRoundtrip:
    def __init__(self, sizes: Sizes, seed: int, program_seed: int, workdir: Path):
        import kadjust as kj

        self.words = []
        for n in sizes.codec_bits:
            sources = {
                "bernoulli:0.5": bernoulli_bits(input_rng(seed, f"codec/b05/{n}"), n, 0.5),
                "bernoulli:0.1": bernoulli_bits(input_rng(seed, f"codec/b01/{n}"), n, 0.1),
                "periodic24": noisy_periodic_bits(input_rng(seed, f"codec/periodic/{n}"), n),
            }
            for name, bits in sources.items():
                self.words.append((f"{name}/{n}", bits, kj.BitWord(bits)))
        self.coders = [kj.CoderId(name) for name in CODEC_CODERS]

    def close(self) -> None:
        pass

    def run_pass(self, meter: Meter) -> None:
        import kadjust as kj

        for label, bits, word in self.words:
            n = bits.size
            for coder in self.coders:
                tag = f"{coder.name} {label}"
                scored = meter.op(
                    2, n, 1, f"code_word {tag}", kj.code_word, coder, word,
                    check=lambda r: None if r.concrete_len and r.concrete_len > 0
                    else f"concrete length {r.concrete_len}",
                    digest=lambda r: str(r.concrete_len).encode(),
                )
                codeword = meter.op(
                    0, n, 1, f"encode_word {tag}", kj.encode_word, coder, word,
                    check=lambda cw: None if len(cw) == scored.concrete_len
                    else f"codeword has {len(cw)} bits, code_word says {scored.concrete_len}",
                    digest=lambda cw: np.packbits(np.asarray(cw, dtype=np.uint8)).tobytes(),
                )
                meter.op(
                    1, n, 1, f"decode_word {tag}", kj.decode_word, coder, n, codeword,
                    check=lambda d: None if np.array_equal(np.asarray(d.bits), bits)
                    else "decoded word differs from the input",
                    digest=lambda d: np.packbits(np.asarray(d.bits)).tobytes(),
                )


def doubling_schedule(length: int, start: int = 16) -> list[int]:
    points = []
    m = start
    while m < length:
        points.append(m)
        m *= 2
    return points + [length]


class Checks:
    def __init__(self, sizes: Sizes, seed: int, program_seed: int, workdir: Path):
        self.sizes = sizes
        seeds = np.random.default_rng([program_seed, 0xC4EC]).integers(0, 2**63, size=5)
        self.fpr_seeds = [int(s) for s in seeds[:2]]
        self.trace_seeds = [int(s) for s in seeds[2:]]

    def close(self) -> None:
        pass

    def run_pass(self, meter: Meter) -> None:
        import kadjust as kj

        s = self.sizes
        fpr_runs = (
            ("shell", "ideal", s.fpr_trials_vectorized),
            ("model_class", "concrete", s.fpr_trials_generic),
        )
        for (coder, lengths, trials), fpr_seed in zip(fpr_runs, self.fpr_seeds):
            cfg = kj.TestConfig(m=1, coder=kj.CoderId(coder), lengths=lengths)
            meter.op(
                0, trials * s.fpr_n, trials, f"monte_carlo_fpr {coder} {lengths}",
                kj.monte_carlo_fpr, 0.5, s.fpr_n, cfg, trials, fpr_seed,
                check=lambda r: self.check_fpr(r, trials),
                digest=lambda r: repr(r.rows).encode(),
            )
        n = s.audit_n
        meter.op(
            1, n << n, 1 << n, f"counting_lemma_audit n={n}",
            kj.counting_lemma_audit, n, kj.CoderId("model_class"),
            check=lambda rows: self.check_audit(rows, n),
            digest=lambda rows: repr(rows).encode(),
        )
        schedule = doubling_schedule(s.trace_bits)
        traces = (
            ("bernoulli:0.3", kj.GeneratorSpec.bernoulli(0.3, self.trace_seeds[0], s.trace_bits),
             "shell", 1.0, R_TOL_BERNOULLI),
            ("block", kj.GeneratorSpec.block(self.trace_seeds[1], s.trace_bits),
             "pair_shell", LOG2_3_HALF, R_TOL_BLOCK),
            ("block", kj.GeneratorSpec.block(self.trace_seeds[2], s.trace_bits),
             "model_class", LOG2_3_HALF, R_TOL_BLOCK),
        )
        for measure, spec, coder, target, tol in traces:
            meter.op(
                2, sum(schedule), len(schedule), f"convergence_trace {measure} {coder}",
                kj.convergence_trace, spec, kj.CoderId(coder), schedule,
                check=lambda t: self.check_trace(t, schedule, target, tol),
                digest=lambda t: repr(t.rows).encode(),
            )

    @staticmethod
    def check_fpr(result, trials: int) -> str | None:
        if sorted(row.m for row in result.rows) != list(range(1, 9)):
            return "rows do not cover m = 1..8"
        for row in result.rows:
            if row.trials != trials or row.rate != row.rejections / trials:
                return f"m={row.m}: rate {row.rate} from {row.rejections}/{row.trials}"
            if row.rate > 2.0 ** (2 - row.m):
                return f"m={row.m}: rate {row.rate} exceeds 2^(2-m)"
        return None

    @staticmethod
    def check_audit(rows, n: int) -> str | None:
        if len(rows) != (n + 1) * 8:
            return f"{len(rows)} rows, expected {(n + 1) * 8}"
        for row in rows:
            if not row.ok or row.count * (1 << row.t) > 2 * math.comb(n, row.k):
                return f"k={row.k} t={row.t}: {row.count} words undershoot"
        return None

    @staticmethod
    def check_trace(trace, schedule: list[int], target: float, tol: float) -> str | None:
        if [row.m for row in trace.rows] != schedule:
            return "trace rows do not follow the schedule"
        final = trace.rows[-1].R
        if final is None or abs(final - target) > tol:
            return f"final R = {final}, expected {target} +- {tol}"
        return None


WORKLOADS = {
    "long-words": LongWords,
    "codec-roundtrip": CodecRoundtrip,
    "checks": Checks,
}


# ---------------------------------------------------------------------------
# measurement


def measure(workload, meter: Meter, seconds: float) -> dict[str, float]:
    """Run passes for `seconds`; end-to-end numbers are medians over passes."""
    parts, walls, raws = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        meter.start_pass()
        workload.run_pass(meter)
        meter.end_pass()
        parts.append(meter.part_s)
        walls.append(sum(meter.part_s))
        raws.append(meter.raw_s)
        if time.perf_counter() >= deadline:
            break
    wall = statistics.median(walls)
    metrics = {
        "bits_per_s": meter.bits / wall,
        "words_per_s": meter.words / wall,
    }
    for i in range(PARTS):
        metrics[f"part{i + 1}_s"] = statistics.median(p[i] for p in parts)
    metrics["passes"] = len(walls)
    metrics["raw_pass_s"] = statistics.median(raws)
    return metrics


def measure_traced(workload, meter: Meter, seconds: float, spans_path: Path) -> dict[str, float]:
    """Alternate untraced and traced passes for `seconds`; per-layer numbers
    are medians over the traced passes.

    A traced pass can take several times as long as an untraced one, so a
    new pair of passes starts only if it should end before the deadline.
    """
    from spans import Tracer, median_metrics

    tracer = Tracer()
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        pair_start = time.perf_counter()
        for tracing in (False, True):
            meter.tracer = tracer if tracing else None
            tracer.reset()
            meter.start_pass()
            workload.run_pass(meter)
            meter.end_pass()
            wall = sum(meter.part_s)
            if tracing:
                traced.append(wall)
                layers.append(tracer.layer_metrics(meter.raw_s))
            else:
                plain.append(wall)
        now = time.perf_counter()
        if now + (now - pair_start) >= deadline:
            break
    meter.tracer = None
    tracer.write(spans_path)
    metrics = median_metrics(layers)
    metrics["trace_overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    metrics["passes"] = len(traced)
    return metrics


def run(workload_name: str, seed: int, program_seed: int, seconds: float, trace: bool,
        scale: str = "paper", workdir: Path = WORKDIR) -> dict:
    """Build the workload, measure it and return the raw result record."""
    workload = WORKLOADS[workload_name](SIZES[scale], seed, program_seed, workdir)
    meter = Meter()
    try:
        if trace:
            metrics = measure_traced(workload, meter, seconds, workdir / f"spans-{workload_name}.npz")
        else:
            metrics = measure(workload, meter, seconds)
    finally:
        workload.close()
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "metrics": metrics,
        "attempted": meter.attempted,
        "failed": len(meter.failures),
        "failures": meter.failures[:20],
        "digest": meter.digest,
        "reference_s": statistics.median(meter.ref_samples),
        "numpy": np.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload (child process).")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--program-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SIZES), default="paper")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import kadjust

    if not Path(kadjust.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"kadjust imported from {kadjust.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.program_seed, args.seconds, bool(args.trace),
                 args.scale)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
