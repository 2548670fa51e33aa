#!/usr/bin/env python3
"""Convergence traces of R along prefixes for the studied sources.

Writes one CSV per (measure, coder) pair and prints the final rows.
Bernoulli sources under the shell coder approach R = 1; the block source
keeps single-symbol entropy near 1 while the pair-shell ratio settles at
log2(3)/2 ~ 0.7925.
"""

import argparse
import pathlib

from kadjust import CoderId, GeneratorSpec, convergence_trace, geometric_schedule
from kadjust.stats import write_records


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--length", type=int, default=2**17)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    schedule = geometric_schedule(args.length)

    runs = [
        ("bernoulli_p10", GeneratorSpec.bernoulli(0.1, args.seed, args.length), CoderId("shell")),
        ("bernoulli_p30", GeneratorSpec.bernoulli(0.3, args.seed, args.length), CoderId("shell")),
        ("bernoulli_p50", GeneratorSpec.bernoulli(0.5, args.seed, args.length), CoderId("shell")),
        ("block_pair_shell", GeneratorSpec.block(args.seed, args.length), CoderId("pair_shell")),
        ("block_shell", GeneratorSpec.block(args.seed, args.length), CoderId("shell")),
    ]
    print(f"{'run':<18} {'m':>8} {'p_hat':>8} {'H':>8} {'R':>8}")
    for name, spec, coder in runs:
        trace = convergence_trace(spec, coder, schedule)
        path = outdir / f"trace_{name}.csv"
        with open(path, "w", newline="") as fh:
            write_records(trace.rows, "csv", fh)
        last = trace.final()
        r = "nan" if last.R is None else f"{last.R:8.4f}"
        print(f"{name:<18} {last.m:>8} {last.p_hat:>8.4f} {last.H:>8.4f} {r}")
    print(f"\ntraces written to {outdir}/")


if __name__ == "__main__":
    main()
