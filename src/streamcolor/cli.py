"""Command-line entry point, with four subcommands:

    gen     write a stream file for a generator family
    run     color a stream with a preset, streaming output as it goes
    verify  check an output file against its stream
    kout    Monte Carlo estimate of k-out perfect-matching failure

Experiment grids run through `harness.run_experiment_suite` (as
tests/test_acceptance.py does); timings come from bench/run.py.

Exit codes: 0 success; 1 verification found a bad output; 2 infeasible
generator spec, `run --s` below 1, or `kout` parameters (--c not a positive
number; --n, --k or --trials below 1; k above ceil(c * n)); 3 input/stream
errors (mode mismatch, degree violations, vertex ids out of range,
malformed lines, a stream that is not UTF-8 text, an output that cannot be
opened or written, `verify` or `kout` output that stdout cannot take, a
non-integer STREAMCOLOR_SEED); 4 internal randomized-bound violation, or
any other internal error of a run (for example a shift period too small);
5 parse errors while verifying, a file that is not UTF-8 text included.
The environment variable STREAMCOLOR_SEED overrides any --seed flag.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from . import harness
from .errors import BoundError, InfeasibleSpec, InputError, StreamColorError
from .presets import PRESETS, build_pipeline, run_stream
from .stream import MODES, AssignmentWriter, parse_stream


def cmd_gen(args) -> int:
    spec = harness.GenSpec(
        family=args.family,
        n=args.n,
        delta=args.delta,
        mode=args.mode,
        seed=args.seed,
        batch_size=args.batch_size,
    )
    try:
        text = harness.generate(spec)
    except InfeasibleSpec as exc:
        print(f"infeasible spec: {exc}", file=sys.stderr)
        return 2
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"input error: cannot write output: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_run(args) -> int:
    if args.s is not None and args.s < 1:  # refused before any file is opened, as kout's are
        print("infeasible spec: --s must be at least 1", file=sys.stderr)
        return 2
    try:
        infile = open(args.input)
    except OSError as exc:
        print(f"cannot open input: {exc}", file=sys.stderr)
        return 3
    out_path = args.output
    try:
        # block-buffered; closed (so flushed) on every exit path below
        sink = open(out_path, "w") if out_path else sys.stdout
    except OSError as exc:
        infile.close()
        print(f"input error: cannot open output: {exc}", file=sys.stderr)
        return 3
    try:
        header, events = parse_stream(infile)
        s = 1 if args.s is None else args.s
        pipeline = build_pipeline(
            header, args.alg, s=s, force_stream=args.force_stream, seed=args.seed
        )
        if args.s not in (None, pipeline.s):  # pipeline.s is 0 for a preset without the knob
            why = (f"runs at s={pipeline.s} = ceil(sqrt(delta))" if pipeline.s
                   else "has no space knob")
            print(f"warning: --s {args.s} ignored: {args.alg} {why}", file=sys.stderr)
        print(f"declared color budget: {pipeline.budget}", file=sys.stderr)
        writer = AssignmentWriter(sink)
        stats = run_stream(pipeline, events, emit=writer.emit)
        writer.trailer(stats.colors_used, stats.peak_words)
        print(
            f"colors used: {stats.colors_used}  peak words: {stats.peak_words}  "
            f"spilled: {stats.spilled_vertices} arrivals / {stats.spilled_edges} edges",
            file=sys.stderr,
        )
        return 0
    except BoundError as exc:
        print(f"randomized bound violated: {exc}", file=sys.stderr)
        return 4
    except (InputError, UnicodeDecodeError) as exc:  # or a stream that is not UTF-8 text
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except StreamColorError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    finally:
        infile.close()
        if out_path:  # the trailer flushed a finished run; a write error is reported above
            with contextlib.suppress(OSError):
                sink.close()


def print_report(lines: list[str]) -> bool:
    """Write `lines` to stdout and flush; False, after one `input error:` line, if that fails.
    Stdout is then pointed at the null device, or its flush at exit would fail again."""
    try:
        sys.stdout.write("".join(f"{line}\n" for line in lines))
        sys.stdout.flush()
    except OSError as exc:
        print(f"input error: cannot write output: {exc}", file=sys.stderr)
        with contextlib.suppress(OSError, ValueError), open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return False
    return True


def cmd_verify(args) -> int:
    try:
        with open(args.input) as sfh, open(args.output) as ofh:
            report = harness.verify(sfh, ofh, budget=args.budget)
    except OSError as exc:
        print(f"cannot open file: {exc}", file=sys.stderr)
        return 5
    except (StreamColorError, UnicodeDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 5
    lines = [
        f"proper: {'true' if report.proper else 'false'}",
        f"complete: {'true' if report.complete else 'false'}",
        f"colors_used: {report.colors_used}",
        f"max_color: {report.max_color}",
        f"edges_colored: {report.edges_colored}",
    ]
    if report.missing:
        lines.append(f"missing: {report.missing}")
    if report.duplicates:
        lines.append(f"duplicates: {report.duplicates}")
    if report.unknown:
        lines.append(f"unknown_edges: {report.unknown}")
    for first, second, color in report.conflicts:
        lines.append(f"conflict: edges {first} and {second} both use color {color}")
    if args.budget is not None:
        lines.append(f"budget_ok: {'true' if report.budget_ok else 'false'}")
    return (0 if report.ok else 1) if print_report(lines) else 3


def cmd_kout(args) -> int:
    try:
        result = harness.run_kout_experiment(args.n, args.c, args.k, args.trials, args.seed or 0)
    except InfeasibleSpec as exc:
        print(f"infeasible spec: {exc}", file=sys.stderr)
        return 2
    low, high = result.wilson()
    row = (
        f"{result.n},{result.u_size},{result.k},{result.trials},{result.seed},"
        f"{result.failures},{result.rate:.6g},{low:.6g},{high:.6g}"
    )
    return 0 if print_report(["n,u_size,k,trials,seed,failures,rate,ci_low,ci_high", row]) else 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it is most of a
    run's set-up time, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="streamcolor")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a stream file")
    g.add_argument("--family", required=True, choices=harness.FAMILIES)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--delta", type=int, required=True)
    g.add_argument("--mode", required=True, choices=MODES)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--batch-size", type=int, default=0)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", help="color a stream")
    r.add_argument("input")
    r.add_argument("--alg", required=True, choices=PRESETS)
    r.add_argument("--s", type=int, default=None)
    r.add_argument("--force-stream", action="store_true")
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("-o", "--output", default=None)
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify", help="verify an output against its stream")
    v.add_argument("input")
    v.add_argument("output")
    v.add_argument("--budget", type=int, default=None)
    v.set_defaults(func=cmd_verify)

    k = sub.add_parser("kout", help="k-out matching Monte Carlo")
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--c", default="2.72")
    k.add_argument("--k", type=int, default=3)
    k.add_argument("--trials", type=int, default=10000)
    k.add_argument("--seed", type=int, default=0)
    k.set_defaults(func=cmd_kout)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    env = os.environ.get("STREAMCOLOR_SEED")
    if env is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env)
        except ValueError:
            print(f"input error: STREAMCOLOR_SEED={env!r} is not an integer", file=sys.stderr)
            return 3
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
