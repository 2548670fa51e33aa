"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; kadjust is imported from its src/
directory.  The workloads are long-words, codec-roundtrip and checks (see
workloads.py and README.md).  Load is closed-loop with a single client:
each workload runs in one fresh child interpreter, started after the
set-up probes have finished, with BLAS/OpenMP thread counts set to 1.

With --trace 0 the last line of output carries the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced run.  The line before
it records the run environment and a digest of every output.  Exit
status 2 means the checkout has no kadjust source to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("bits_per_s", "bit/s"),
    ("words_per_s", "1/s"),
    ("part1_s", "s"),
    ("part2_s", "s"),
    ("part3_s", "s"),
)
SETUP_PROBES = 7
# The child gets its measuring time plus this much for set-up and its last pass.
CHILD_GRACE_S = 120
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_child(argv: list[str], timeout: float) -> dict:
    """Run one child interpreter to completion and parse its last output line."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, timeout=timeout, check=False, text=True,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[0]} did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{argv[0]} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def measure_setup(probes: int) -> float:
    """Median normalized set-up time over fresh interpreters; a first probe
    warms the file cache and the bytecode cache and is discarded."""
    from workloads import REF_NOMINAL_S

    times = []
    for i in range(probes + 1):
        probe = run_child([str(HERE / "probe.py")], timeout=60)
        if not Path(probe["module"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"kadjust imported from {probe['module']}, not from {SRC}")
        if i:
            times.append(probe["setup_s"] * REF_NOMINAL_S / probe["reference_s"])
    return statistics.median(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in sorted(SRC.rglob("*.py"))
    )


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "src_lines": src_lines(),
    }


def per_layer_names() -> tuple[tuple[str, str], ...]:
    from spans import per_layer_metrics

    return tuple((name, unit) for name, unit, _ in per_layer_metrics())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("long-words", "codec-roundtrip", "checks"))
    parser.add_argument("--seed", type=int, required=True, help="seed of the generated inputs")
    parser.add_argument("--program-seed", type=int, default=None,
                        help="seed handed to kadjust's own generators in the checks "
                        "workload (default: --seed); vary it alone to re-check a claim "
                        "on held-out calibrate and simulate draws")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "tiny"), default="paper",
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    program_seed = args.seed if args.program_seed is None else args.program_seed

    if not (SRC / "kadjust" / "__init__.py").is_file():
        print(f"perfbench: no kadjust source under {SRC}", file=sys.stderr)
        return 2
    try:
        metrics = {}
        if not args.trace:
            metrics["setup_s"] = measure_setup(SETUP_PROBES)
        child = run_child(
            [str(HERE / "workloads.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--program-seed", str(program_seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scale", args.scale],
            timeout=args.seconds + CHILD_GRACE_S,
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics.update(child["metrics"])
    names = per_layer_names() if args.trace else END_TO_END
    env = environment()
    env["numpy"] = child["numpy"]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "program_seed": program_seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "passes": metrics["passes"], "reference_s": child["reference_s"],
        "raw_pass_s": metrics.get("raw_pass_s"),
        "digest": child["digest"],
        "failures": child["failures"], "environment": env,
    }))
    print(json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
