#!/usr/bin/env python3
"""Pairs of benchmark runs, a parent tree against this checkout.

    python scripts/bench_compare.py PARENT [--workloads ...] [--pairs N]
        [--seconds S] --out FILE

PARENT is a directory holding a checkout, or a commit, which is checked
out in a detached git worktree in a temporary directory and removed
afterwards.  Each pair runs `perfbench/run.py --trace 0` once in each
tree, in fresh processes, the parent first in even pairs and this checkout
first in odd ones, both with the pair's seed.  For each workload and
end-to-end metric of BENCHMARK.json, FILE gets both sides' medians and
quartiles, the pairs this checkout won, the metric's bound and whether the
move of the medians stays within it, with both trees' commits and source
line counts.  Exits 1 when a run fails, reports `correct: false` or a
failed operation; timings gate nothing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile of values,
    interpolated between the order statistics."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric over the pairs, parent[i] and change[i] from pair i: each
    side's quartiles, the change's wins (strictly better runs), and its
    move, the relative change of the median, signed so that a positive
    move is worse; it passes when the move is at most the bound."""
    sign = 1 if better == "lower" else -1
    sides = {}
    for side, values in (("parent", parent), ("change", change)):
        q1, median, q3 = quartiles(values)
        sides[side] = {"median": median, "q1": q1, "q3": q3, "values": values}
    base = sides["parent"]["median"]
    move = sign * (sides["change"]["median"] - base) / base if base else 0.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    return {**sides, "better": better, "bound": bound, "worse_by": move, "wins": wins,
            "pairs": len(parent), "passes": move <= bound}


def run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark process in tree: its environment line and its metrics line."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        raise RuntimeError(f"{tree}: perfbench/run.py exited with status {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def commit_of(tree: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 and (tree / ".git").exists() else None


def compare(trees: dict[str, Path], workloads: list[str], pairs: int, seconds: float) -> tuple[dict, bool]:
    """The report over every workload, and whether every run was correct."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"pairs": pairs, "seconds": seconds, "workloads": {}}
    sides = {side: {"commit": commit_of(tree)} for side, tree in trees.items()}
    correct = True
    for workload in workloads:
        results = {side: [] for side in trees}
        for i in range(pairs):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                env, metrics = run(trees[side], workload, i + 1, seconds)
                sides[side]["src_lines"] = env["environment"]["src_lines"]
                report["environment"] = {k: v for k, v in env["environment"].items() if k not in ("commit", "src_lines")}
                results[side].append(metrics)
                if not metrics["correct"] or metrics["failed"]:
                    print(f"{side} {workload} seed {i + 1}: {metrics['failed']} failed", file=sys.stderr)
                    correct = False
        summary = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent, change = ([m["metrics"][name]["value"] for m in results[side]] for side in ("parent", "change"))
            summary[name] = {"unit": metric["unit"], **summarize(parent, change, metric["better"], metric["bound"])}
        report["workloads"][workload] = {
            "seeds": list(range(1, pairs + 1)),
            "correct": {side: all(m["correct"] and not m["failed"] for m in runs) for side, runs in results.items()},
            "metrics": summary,
        }
    report.update(sides)
    return report, correct


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="a checkout's directory, or a commit")
    ap.add_argument("--workloads", nargs="+", default=None, help="default: every workload of BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time of each run")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    workloads = args.workloads or [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    with tempfile.TemporaryDirectory() as scratch:
        parent = Path(args.parent)
        worktree = not parent.is_dir()
        if worktree:
            parent = Path(scratch) / "parent"
            subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", str(parent), args.parent],
                           check=True, capture_output=True)
        try:
            report, correct = compare({"parent": parent.resolve(), "change": ROOT}, workloads, args.pairs, args.seconds)
        except RuntimeError as exc:
            print(f"bench_compare: {exc}", file=sys.stderr)
            return 1
        finally:
            if worktree:
                subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(parent)], check=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
