#!/usr/bin/env python3
"""Monte Carlo false-positive calibration of the deficiency test.

For each symbol probability p the empirical rejection rate at threshold m
is tabulated against the reference bound 2^(2-m); CSVs land in --outdir.
Exits 1 if any rate exceeds its bound.
"""

import argparse
import pathlib
import sys

from kadjust import CoderId, TestConfig, monte_carlo_fpr
from kadjust.stats import write_records


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--length", type=int, default=256)
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--coder", default="shell")
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = TestConfig(m=1, coder=CoderId(args.coder))

    print(f"{'p':>5} {'m':>3} {'rate':>10} {'bound':>10}")
    violations = 0
    for p in (0.1, 0.3, 0.5):
        result = monte_carlo_fpr(p, args.length, cfg, args.trials, args.seed)
        path = outdir / f"fpr_p{int(100 * p):02d}.csv"
        with open(path, "w", newline="") as fh:
            write_records(result.rows, "csv", fh)
        for row in result.rows:
            mark = "" if row.ok else "  VIOLATION"
            violations += not row.ok
            print(f"{p:>5.2f} {row.m:>3} {row.rate:>10.5f} {row.bound:>10.5f}{mark}")
    print(f"\ntables written to {outdir}/")
    if violations:
        sys.exit(f"{violations} rates exceed their bound")


if __name__ == "__main__":
    main()
