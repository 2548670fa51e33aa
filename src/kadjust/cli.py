"""Command-line front end.

Commands: analyze, test, cond, mutual, simulate, calibrate, audit.
Every command writes records through --format json|csv|table.
Exit status: 0 on success, 1 when the test command rejects, a calibrate
rate exceeds its bound or the audit finds a violation, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys

from .coders import CODER_NAMES, LENGTH_KINDS, CoderId
from .inputs import INPUT_FORMATS, read_word
from .simulate import GeneratorSpec, convergence_trace, geometric_schedule
from .stats import (
    RECORD_FORMATS,
    ZeroMutualBaselineError,
    adjusted,
    adjusted_conditional,
    adjusted_mutual,
    write_records,
)
from .testing import TestConfig, counting_lemma_audit, monte_carlo_fpr, test_word
from .words import BitWord

USAGE_ERROR = 2


def parse_measure(text: str, seed: int, length: int) -> GeneratorSpec:
    """Parse bernoulli:p | mixture:w1:p1,... | block into a GeneratorSpec."""
    kind, _, rest = text.partition(":")
    if kind == "bernoulli":
        return GeneratorSpec.bernoulli(float(rest), seed, length)
    if kind == "mixture":
        components = []
        for part in rest.split(","):
            w, _, p = part.partition(":")
            if not p:
                raise ValueError(f"bad mixture component {part!r}, expected w:p")
            components.append((float(w), float(p)))
        return GeneratorSpec.mixture(components, seed, length)
    if kind == "block":
        if rest:
            raise ValueError("block measure takes no parameters")
        return GeneratorSpec.block(seed, length)
    raise ValueError(f"unknown measure {kind!r}")


def parse_schedule(text: str | None, length: int) -> list[int]:
    if text is None:
        return geometric_schedule(length)
    points = [int(v) for v in text.split(",") if v.strip()]
    if not points:
        raise ValueError("empty schedule")
    return points


def _input_paths(args: argparse.Namespace, expected: int | None = None) -> list[str | None]:
    paths = args.inputs or [None]
    if expected is not None and len(paths) != expected:
        raise ValueError(f"this command requires exactly {expected} input words")
    return paths


def _read_input(args: argparse.Namespace, path: str | None) -> BitWord:
    return read_word(path, args.input_format, args.max_bits)


# analyze and test read and score their inputs one at a time: a word is
# dropped once its record is made, so several large inputs cost the largest
# word, not their sum.  The records are written once all are made.


def cmd_analyze(args: argparse.Namespace, out) -> int:
    reports = [adjusted(_read_input(args, p), args.coder, args.lengths) for p in _input_paths(args)]
    write_records(reports, args.fmt, out)
    return 0


def cmd_test(args: argparse.Namespace, out) -> int:
    tc = TestConfig(m=args.m, coder=args.coder, lengths=args.lengths)
    verdicts = [test_word(_read_input(args, p), tc) for p in _input_paths(args)]
    write_records(verdicts, args.fmt, out)
    return 1 if any(v.rejected for v in verdicts) else 0


def cmd_cond(args: argparse.Namespace, out) -> int:
    x, y = (_read_input(args, p) for p in _input_paths(args, expected=2))
    write_records([adjusted_conditional(x, y, args.coder, args.lengths)], args.fmt, out)
    return 0


def cmd_mutual(args: argparse.Namespace, out) -> int:
    x, y = (_read_input(args, p) for p in _input_paths(args, expected=2))
    write_records([adjusted_mutual(x, y, args.coder, args.lengths)], args.fmt, out)
    return 0


def cmd_simulate(args: argparse.Namespace, out) -> int:
    spec = parse_measure(args.measure, args.seed, args.length)
    schedule = parse_schedule(args.schedule, args.length)
    write_records(convergence_trace(spec, args.coder, schedule).rows, args.fmt, out)
    return 0


def cmd_calibrate(args: argparse.Namespace, out) -> int:
    spec = parse_measure(args.measure, args.seed, args.length)
    if spec.kind != "bernoulli":
        raise ValueError("calibration requires a bernoulli:p measure")
    tc = TestConfig(m=1, coder=args.coder)
    rows = monte_carlo_fpr(spec.p, args.length, tc, args.trials, args.seed).rows
    write_records(rows, args.fmt, out)
    return 0 if all(row.ok for row in rows) else 1


def cmd_audit(args: argparse.Namespace, out) -> int:
    rows = counting_lemma_audit(args.length, args.coder, args.lengths)
    write_records(rows, args.fmt, out)
    violations = sum(not row.ok for row in rows)
    print(f"# violations: {violations}", file=sys.stderr)
    return 1 if violations else 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "test": cmd_test,
    "cond": cmd_cond,
    "mutual": cmd_mutual,
    "simulate": cmd_simulate,
    "calibrate": cmd_calibrate,
    "audit": cmd_audit,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and reused after."""
    parser = argparse.ArgumentParser(
        prog="kadjust",
        description="Entropy-adjusted description-length statistics and randomness tests "
        "for binary words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_inputs=True, coder_default="shell"):
        p.add_argument("--coder", default=coder_default, choices=CODER_NAMES)
        p.add_argument("--format", dest="fmt", default="table" if with_inputs else "csv",
                       choices=RECORD_FORMATS)
        if with_inputs:
            p.add_argument("inputs", nargs="*", help="input files (default: stdin)")
            p.add_argument("--input-format", default="ascii01", choices=INPUT_FORMATS)
            p.add_argument("--max-bits", type=int, default=None)
            p.add_argument("--lengths", default="ideal", choices=LENGTH_KINDS)

    p = sub.add_parser("analyze", help="adjusted-complexity report for words")
    add_common(p)

    p = sub.add_parser("test", help="deficiency randomness test (exit 1 on rejection)")
    add_common(p)
    p.add_argument("--m", type=int, default=5, help="deficiency threshold in bits")

    p = sub.add_parser("cond", help="conditional report for a pair of words")
    add_common(p)

    p = sub.add_parser("mutual", help="mutual-information report for a pair of words")
    add_common(p)

    p = sub.add_parser("simulate", help="convergence trace for a seeded measure")
    add_common(p, with_inputs=False)
    p.add_argument("--measure", required=True, help="bernoulli:p | mixture:w1:p1,... | block")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--schedule", default=None, help="comma-separated prefix lengths")

    p = sub.add_parser("calibrate", help="Monte Carlo false-positive calibration")
    add_common(p, with_inputs=False)
    p.add_argument("--measure", required=True, help="bernoulli:p")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--length", type=int, required=True, help="word length per trial")
    p.add_argument("--trials", type=int, default=10000)

    p = sub.add_parser("audit", help="exhaustive counting-lemma audit")
    add_common(p, with_inputs=False, coder_default="model_class")
    p.add_argument("--length", type=int, required=True, help="word length n <= 20")
    p.add_argument("--lengths", default="concrete", choices=LENGTH_KINDS)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(format="%(name)s: %(levelname)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        args.coder = CoderId(args.coder)
        return _COMMANDS[args.command](args, sys.stdout)
    except (ValueError, ZeroMutualBaselineError, OSError) as exc:
        print(f"kadjust: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
