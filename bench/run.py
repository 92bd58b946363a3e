"""Benchmark of `streamcolor run`, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or `all` to run each in turn.

Run from the root of a checkout; the package is imported from `src/`.
The seed makes the stream with `harness.generate` (the algorithm then
draws from the seed in the stream header), outside the timed region.
Each repetition calls `cli.main(["run", stream, "--alg", ...])` in this
process, exactly as the `streamcolor` script does, and is timed from that
call until it returns with the trailer written. Repetitions continue
until `--seconds` is used up; timings are medians over them. Everything
runs in one process and one thread.

Every repetition is checked afterwards: its exit code, the SHA-256 of its
output (equal for every repetition of a seed), and its deterministic
counts. The output is checked by `harness.verify` with the declared color
budget, and the `T` trailer against the run's `RunStats`. Each workload
also guards the code path it was chosen for, so that a threshold change
that swaps paths shows as a failure rather than as a speed-up.

`--trace 0` prints the end-to-end metrics:

    us_per_edge   median wall time of a repetition per stream edge
    setup_s       median time from entering `cli.main` to the pipeline's
                  first pull of an event (arguments, open, header,
                  declared budget, pipeline wiring); also sampled by
                  invocations stopped at that point
    peak_words    the meter's high-water mark, as in the `T` trailer
    colors_used   distinct colors in the output
    palette_used  the color allocator's high-water mark

`--trace 1` also runs traced repetitions (see `spans.py`), whose output
must be byte-identical to the untraced one, and prints the per-layer
metrics. Times are medians over the traced repetitions, counts repeat:

    <layer>.self_s       span time minus child spans, per run
    matching.*           time in the matcher; calls, slots offered,
                         us_per_slot, perfect_frac (calls matching all slots)
    core.arrivals        one-sided colorer arrivals and batches;
                         streamed_edges is the edges they colored
    dispatch.feed_calls  edges fed to a dispatcher; flushes as it counts them
    reductions.calls     bipartization routings and split arrivals;
                         levels is the bipartization levels built
    offline.<flavor>_*   time and edges in the exact bipartite or the
                         general offline colorer
    offline.<route>_edges  edges colored offline, by the caller's span:
                         spill (core), flush (dispatcher feed), leftover
                         (dispatcher finalize), base (bipartization),
                         stored (pipeline); base_share is base / edges
    stream.*             parse time and events; emit time and lines
    presets.event_us_*   median and 99th percentile of the pipeline's
                         per-event `feed` span
    meter.*, palette.blocks  calls to the meter and allocator; used_frac
                         is colors_used / palette_used
    trace.overhead_frac  traced over untraced median wall time, minus 1
    streamed_frac        share of edges emitted before the events ran out
    spilled_edges        k-out matching failures parked for the spill block

A traced run also checks the route census: streamed edges plus the
offline routes add up to the stream's edge count.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it are a readable report. A
fuller record, with hashes, sample counts and the slowest traced events,
goes to `.bench_work/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import itertools
import json
import operator
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import Tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    family: str
    mode: str
    n: int
    delta: int
    alg: str
    s: int = 1
    force_stream: bool = False
    # (metric, comparison, value): the path this workload was chosen for;
    # a value of "edges" means the stream's edge count
    guards: tuple = ()

    def argv(self, stream: Path, out: Path) -> list[str]:
        argv = ["run", str(stream), "--alg", self.alg, "--s", str(self.s), "-o", str(out)]
        if self.force_stream:
            argv.append("--force-stream")
        return argv


# Each workload stresses different layers (shares from a traced run of the
# initial code): vertex-bipartite the matcher and one-sided core with
# 32-slot arrivals; edge-bipartite per-edge parsing, the grouped dispatcher
# and 8-slot batch arrivals; general-vertex the bipartization and the
# general offline colorer on its base store; edge-fallback the default
# small-degree path, exact offline coloring of every edge.
WORKLOADS = {
    "vertex-bipartite": Workload(
        "regular-bipartite", "vertex-one-sided", 4096, 32, "one-sided",
        guards=(("streamed_frac", ">", 0.9), ("dispatch.feed_calls", "==", 0)),
    ),
    "edge-bipartite": Workload(
        "regular-bipartite", "edge", 4096, 64, "edge-general", s=2, force_stream=True,
        guards=(("streamed_frac", ">", 0.9), ("dispatch.feed_calls", "==", "edges")),
    ),
    "general-vertex": Workload(
        "regular-general", "vertex-two-sided", 2048, 128, "vertex-general",
        guards=(
            ("streamed_frac", ">", 0.0),
            ("reductions.levels", "==", 1),
            ("offline.general_edges", ">", 0),
        ),
    ),
    "edge-fallback": Workload(
        "regular-bipartite", "edge", 4096, 64, "edge-sqrt",
        guards=(
            ("streamed_frac", "==", 0.0),
            ("matching.calls", "==", 0),
            ("offline.bipartite_edges", "==", "edges"),
        ),
    ),
}

END_TO_END = {
    "us_per_edge": "us/edge",
    "setup_s": "s",
    "peak_words": "words",
    "colors_used": "colors",
    "palette_used": "colors",
}

PER_LAYER = {
    "matching.match_s": "s",
    "matching.calls": "count",
    "matching.slots": "count",
    "matching.us_per_slot": "us/slot",
    "matching.perfect_frac": "ratio",
    "core.self_s": "s",
    "core.arrivals": "count",
    "core.streamed_edges": "edges",
    "dispatch.self_s": "s",
    "dispatch.feed_calls": "count",
    "dispatch.flushes": "count",
    "reductions.self_s": "s",
    "reductions.calls": "count",
    "reductions.levels": "count",
    "offline.general_s": "s",
    "offline.general_edges": "edges",
    "offline.bipartite_s": "s",
    "offline.bipartite_edges": "edges",
    "offline.spill_edges": "edges",
    "offline.flush_edges": "edges",
    "offline.leftover_edges": "edges",
    "offline.base_edges": "edges",
    "offline.stored_edges": "edges",
    "offline.base_share": "ratio",
    "stream.parse_s": "s",
    "stream.events": "count",
    "stream.emit_s": "s",
    "stream.emit_lines": "count",
    "presets.self_s": "s",
    "presets.event_us_p50": "us",
    "presets.event_us_p99": "us",
    "meter.add_calls": "count",
    "meter.release_calls": "count",
    "palette.blocks": "count",
    "palette.used_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "streamed_frac": "ratio",
    "spilled_edges": "edges",
}

# per-layer times vary run to run and are reported as medians; every
# other per-layer value is a count that must repeat exactly
LAYER_TIMES = {name for name, unit in PER_LAYER.items() if unit in ("s", "us", "us/slot")}

SETUP_ONLY_RUNS = 20
SLOWEST_EVENTS = 5

COMPARE = {">": operator.gt, "==": operator.eq}


class SetupDone(Exception):
    """Raised at the first event pull of a set-up-only invocation."""


@dataclass
class Rep:
    """One invocation of `streamcolor run`."""

    traced: bool
    code: int | None = None
    error: str = ""
    wall_s: float = 0.0
    setup_s: float = 0.0
    streamed: int = 0  # lines emitted before the event iterator ran dry
    stats: object = None
    sha256: str = ""
    layers: dict = field(default_factory=dict)
    slowest: list = field(default_factory=list)

    def fingerprint(self) -> tuple:
        st = self.stats
        return (
            self.sha256,
            self.streamed,
            st.colors_used,
            st.peak_words,
            st.palette_used,
            st.spilled_vertices,
            st.spilled_edges,
            st.edges_emitted,
            st.declared_budget,
        )


class _Probe:
    """Per-invocation observations taken at the `cli` module's bindings."""

    def __init__(self, stop_at_setup: bool):
        self.stop_at_setup = stop_at_setup
        self.first_pull = 0.0
        self.writer = None
        self.stats = None
        self.streamed = 0

    def exhausted(self):
        self.streamed = self.writer.count if self.writer is not None else 0
        return
        yield


class _FirstPull:
    """The run's event iterable; notes when the pipeline asks for the first event.

    The for-loop over the events calls `iter()` once, so nothing is added
    per event beyond one C-level `itertools.chain` step.
    """

    def __init__(self, probe: _Probe, events):
        self.probe = probe
        self.events = events

    def __iter__(self):
        self.probe.first_pull = time.perf_counter()
        if self.probe.stop_at_setup:
            raise SetupDone
        return itertools.chain(self.events, self.probe.exhausted())


@contextlib.contextmanager
def _observed(sc, probe: _Probe, tracer: Tracer | None):
    cli = sc.cli
    real_parse, real_run, real_writer = cli.parse_stream, cli.run_stream, cli.AssignmentWriter

    def parse_stream(lines):
        header, events = real_parse(lines)
        if tracer is not None:
            events = tracer.traced_events(events)
        return header, _FirstPull(probe, events)

    def run_stream(*args, **kwargs):
        probe.stats = real_run(*args, **kwargs)
        return probe.stats

    def assignment_writer(sink):
        probe.writer = real_writer(sink)
        return probe.writer

    cli.parse_stream, cli.run_stream, cli.AssignmentWriter = (
        parse_stream,
        run_stream,
        assignment_writer,
    )
    try:
        if tracer is None:
            yield
        else:
            with tracer.patched(sc):
                yield
    finally:
        cli.parse_stream, cli.run_stream, cli.AssignmentWriter = (
            real_parse,
            real_run,
            real_writer,
        )


def load_streamcolor():
    """Import `streamcolor` from this checkout's `src/`, and nothing else."""
    src = ROOT / "src"
    if not (src / "streamcolor" / "cli.py").is_file():
        raise SystemExit(f"bench: no streamcolor sources under {src}")
    sys.path.insert(0, str(src))
    import streamcolor
    import streamcolor.cli

    if Path(streamcolor.__file__).resolve().parent != (src / "streamcolor").resolve():
        raise SystemExit(f"bench: imported streamcolor from {streamcolor.__file__}, not {src}")
    return streamcolor


def count_edges(text: str) -> int:
    edges = 0
    for line in text.splitlines()[1:]:
        edges += 1 if line.startswith("e ") else len(line.split()) - 2
    return edges


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Bench:
    def __init__(self, sc, name: str, seed: int):
        self.sc = sc
        self.wl = wl = WORKLOADS[name]
        tag = f"{name}-{seed}"
        self.stream = WORK / f"stream-{tag}.txt"
        self.out = WORK / f"out-{tag}.txt"
        spec = sc.harness.GenSpec(wl.family, wl.n, wl.delta, wl.mode, seed)
        text = sc.harness.generate(spec)
        self.stream.write_text(text)
        self.edges = count_edges(text)
        self.header, _ = sc.stream.parse_stream(text.splitlines()[:1])
        self.budget = sc.presets.declared_budget(self.header, wl.alg, wl.s, wl.force_stream)
        self.argv = wl.argv(self.stream, self.out)
        self.problems: dict[str, list[str]] = {}  # output sha256 -> verification problems

    def invoke(self, tracer: Tracer | None = None, stop_at_setup: bool = False) -> Rep:
        probe = _Probe(stop_at_setup)
        rep = Rep(traced=tracer is not None)
        self.out.unlink(missing_ok=True)  # each invocation writes a new file, as a first run does
        gc.collect()
        with _observed(self.sc, probe, tracer), contextlib.redirect_stderr(io.StringIO()) as err:
            start = time.perf_counter()
            try:
                rep.code = self.sc.cli.main(self.argv)
            except SetupDone:
                pass
            except Exception as exc:  # a crash is a failed repetition, not a benchmark error
                rep.error = f"{type(exc).__name__}: {exc}"
            rep.wall_s = time.perf_counter() - start
        rep.setup_s = probe.first_pull - start if probe.first_pull else 0.0
        if stop_at_setup:
            return rep
        if rep.code != 0 and not rep.error:
            rep.error = f"exit {rep.code}: {err.getvalue().strip()[-300:]}"
        rep.stats = probe.stats
        rep.streamed = probe.streamed
        if self.out.exists():
            rep.sha256 = sha256_of(self.out)
        if not rep.error and rep.sha256 not in self.problems:
            self.problems[rep.sha256] = self.verify(rep)
        if tracer is not None and not rep.error:
            rep.layers = tracer.reduce(self.edges)
            rep.slowest = tracer.slowest_events(SLOWEST_EVENTS)
        return rep

    def repeat(self, seconds: float, traced: bool) -> list[Rep]:
        """Repetitions until another would take the timed total past `seconds`."""
        reps: list[Rep] = []
        while True:
            rep = self.invoke(Tracer() if traced else None)
            reps.append(rep)
            if rep.error or sum(r.wall_s for r in reps) + rep.wall_s > seconds:
                return reps

    def verify(self, rep: Rep) -> list[str]:
        """Problems with the output just written; empty when it is correct."""
        sc = self.sc
        out_lines = self.out.read_text().splitlines()
        with open(self.stream) as stream:
            report = sc.harness.verify(stream, out_lines, budget=self.budget)
        _, trailer = sc.stream.parse_output(out_lines)
        st = rep.stats
        problems = []
        if not report.proper:
            problems.append(f"improper: {report.conflicts[:3]}")
        if not report.complete:
            problems.append(
                f"incomplete: missing {report.missing[:3]} duplicates {report.duplicates[:3]} "
                f"unknown {report.unknown[:3]}"
            )
        if not report.budget_ok:
            problems.append(f"max color {report.max_color} breaks the budget {self.budget}")
        if st.palette_used > self.budget:
            problems.append(f"palette_used {st.palette_used} exceeds the budget {self.budget}")
        if st.declared_budget != self.budget:
            problems.append(f"RunStats budget {st.declared_budget} != declared {self.budget}")
        if trailer != (st.colors_used, st.peak_words):
            problems.append(f"trailer {trailer} != RunStats {(st.colors_used, st.peak_words)}")
        if report.colors_used != st.colors_used:
            problems.append(f"output uses {report.colors_used} colors, RunStats {st.colors_used}")
        if report.edges_colored != self.edges or st.edges_emitted != self.edges:
            problems.append(
                f"{report.edges_colored} lines / {st.edges_emitted} emitted for {self.edges} edges"
            )
        return problems


def check_reps(bench: Bench, reps: list[Rep]) -> tuple[list[str], list[bool], Rep | None]:
    """Failures, which repetitions failed, and the reference repetition.

    The reference is the first repetition that ran to the end; every later
    one must match its output hash and counts.
    """
    failures: list[str] = []
    failed = [False] * len(reps)
    ref = None
    for sha, problems in bench.problems.items():
        failures.extend(f"output {sha[:12]}: {p}" for p in problems)
    for i, rep in enumerate(reps):
        tag = f"rep {i}{' (traced)' if rep.traced else ''}"
        if rep.error:
            failures.append(f"{tag}: {rep.error}")
        elif ref is not None and rep.fingerprint() != ref.fingerprint():
            failures.append(f"{tag}: output or counts differ from the first: {rep.fingerprint()}")
        else:
            if ref is None:
                ref = rep
            failed[i] = bool(bench.problems[rep.sha256])
            continue
        failed[i] = True
    traced = [r for r in reps if r.traced and r.layers]
    for rep in traced[1:]:
        counts = {k: v for k, v in rep.layers.items() if k not in LAYER_TIMES}
        first = {k: v for k, v in traced[0].layers.items() if k not in LAYER_TIMES}
        if counts != first:
            failures.append("traced repetitions disagree on their counts")
    return failures, failed, ref


def layer_metrics(bench: Bench, ref: Rep, untraced: list[Rep], traced: list[Rep]) -> dict:
    layers = dict(traced[0].layers)
    for name in LAYER_TIMES:
        layers[name] = statistics.median(r.layers[name] for r in traced)
    st = ref.stats
    layers["trace.overhead_frac"] = (
        statistics.median(r.wall_s for r in traced) / statistics.median(r.wall_s for r in untraced)
        - 1
    )
    layers["streamed_frac"] = ref.streamed / bench.edges
    layers["spilled_edges"] = st.spilled_edges
    layers["palette.used_frac"] = st.colors_used / st.palette_used
    return layers


def census_problems(bench: Bench, ref: Rep, layers: dict) -> list[str]:
    """Every edge is accounted for by exactly one route."""
    routed = layers["core.streamed_edges"] + sum(
        layers[f"offline.{r}_edges"] for r in ("spill", "flush", "leftover", "base", "stored")
    )
    problems = []
    if routed != bench.edges or layers["offline.other_edges"]:
        problems.append(
            f"route census: {routed} routed (+{layers['offline.other_edges']} unattributed) "
            f"for {bench.edges} edges"
        )
    before_end = layers["core.streamed_edges"] + layers["offline.flush_edges"]
    if before_end != ref.streamed:
        problems.append(f"{ref.streamed} lines streamed, routes say {before_end}")
    if layers["stream.emit_lines"] != bench.edges:
        problems.append(f"{layers['stream.emit_lines']} lines emitted for {bench.edges} edges")
    return problems


def guard_problems(wl: Workload, facts: dict, edges: int) -> list[str]:
    problems = []
    for metric, op, want in wl.guards:
        if metric not in facts:
            continue
        value = edges if want == "edges" else want
        if not COMPARE[op](facts[metric], value):
            problems.append(f"path guard: {metric} = {facts[metric]}, expected {op} {value}")
    return problems


def run(sc, name: str, args) -> None:
    """Measure one workload; print its report, ending with the JSON result line."""
    bench = Bench(sc, name, args.seed)
    wl = bench.wl

    setup_reps = [bench.invoke(stop_at_setup=True) for _ in range(SETUP_ONLY_RUNS)]
    if args.trace:
        untraced = bench.repeat(args.seconds / 2, traced=False)
        traced = bench.repeat(args.seconds / 2, traced=True)
    else:
        untraced = bench.repeat(args.seconds, traced=False)
        traced = []
    reps = untraced + traced
    failures, failed, ref = check_reps(bench, reps)
    failed_reps = sum(failed)

    facts: dict = {}
    metrics: dict = {}
    if ref is not None:
        st = ref.stats
        facts = {
            "us_per_edge": statistics.median(r.wall_s for r in untraced) / bench.edges * 1e6,
            "setup_s": statistics.median(
                r.setup_s for r in setup_reps + untraced if r.setup_s > 0
            ),
            "peak_words": st.peak_words,
            "colors_used": st.colors_used,
            "palette_used": st.palette_used,
            "streamed_frac": ref.streamed / bench.edges,
            "spilled_edges": st.spilled_edges,
        }
        if traced and all(r.layers for r in traced):
            layers = layer_metrics(bench, ref, untraced, traced)
            facts.update(layers)
            failures.extend(census_problems(bench, ref, layers))
        failures.extend(guard_problems(wl, facts, bench.edges))
        units = PER_LAYER if args.trace else END_TO_END
        if all(name in facts for name in units):
            metrics = {name: {"value": facts[name], "unit": unit} for name, unit in units.items()}
        else:
            failures.append("metrics missing: the traced run did not complete")

    correct = not failures and bool(metrics)
    record = {
        "workload": name,
        "spec": dataclasses.asdict(wl),
        "seed": args.seed,
        "edges": bench.edges,
        "declared_budget": bench.budget,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "output_sha256": ref.sha256 if ref else None,
        "samples": {
            "untraced": len(untraced),
            "traced": len(traced),
            "setup": len(setup_reps) + len(untraced),
        },
        "wall_s": {
            "untraced": [r.wall_s for r in untraced],
            "traced": [r.wall_s for r in traced],
        },
        "setup_s": [r.setup_s for r in setup_reps + untraced],
        "facts": facts,
        "failures": failures,
        "failed_frac": failed_reps / len(reps),
        "slowest_events": traced[0].slowest if traced else [],
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    bench.out.unlink(missing_ok=True)
    bench.stream.unlink(missing_ok=True)

    print(
        f"# {name}: {wl.alg} on {wl.family} {wl.mode}, n={wl.n}, delta={wl.delta}, "
        f"s={wl.s}{', force-stream' if wl.force_stream else ''}; seed {args.seed}, "
        f"{bench.edges} edges, budget {bench.budget}"
    )
    print(
        f"# python {record['python']}, nproc {record['nproc']}, "
        f"{len(untraced)} untraced + {len(traced)} traced repetitions, "
        f"{record['samples']['setup']} set-up samples, sha256 {record['output_sha256']}"
    )
    units = {**END_TO_END, **PER_LAYER}
    shown = [*END_TO_END, *(PER_LAYER if args.trace else ("streamed_frac", "spilled_edges"))]
    for name in shown:
        if name in facts:
            print(f"{name:24} {facts[name]:>16.6g} {units[name]}")
    print(f"{'failed_frac':24} {record['failed_frac']:>16.6g} ratio")
    for failure in failures:
        print(f"FAIL {failure}")
    print(
        json.dumps(
            {"correct": correct, "attempted": len(reps), "failed": failed_reps, "metrics": metrics}
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sc = load_streamcolor()
    os.environ.pop("STREAMCOLOR_SEED", None)  # the stream header's seed drives the run
    WORK.mkdir(exist_ok=True)
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        run(sc, name, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
