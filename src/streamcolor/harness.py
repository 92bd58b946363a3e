"""Stream generators, the output verifier, and experiment runners.

Generators are deterministic functions of their seed: the same spec
always produces a byte-identical stream file. Families:

    regular-bipartite     union of delta disjoint shifted matchings
                          between two sides of size n (degree exactly delta)
    random-bipartite      random neighbor sets with both sides capped
    regular-general       relabeled circulant, degree exactly delta
    adversarial-frontload regular bipartite graph ordered so each offline
                          vertex's edges appear consecutively and as early
                          as possible (the order that defeats unshifted
                          batch decompositions)

The verifier is the independent oracle for whole runs: it replays the
stream, collects the output, and checks that every edge was colored
exactly once and that no two edges sharing an endpoint share a color.
It may use unbounded memory; it is harness code, never metered.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .dispatch import ceil_sqrt
from .errors import BoundViolation, FlushBudgetExceeded, InfeasibleSpec, MalformedLine
from .matching import kout_trial
from .presets import build_pipeline, run_stream
from .rng import child_rng
from .stream import (
    MODE_BATCH,
    MODE_EDGE,
    MODE_VERTEX_ONE_SIDED,
    MODE_VERTEX_TWO_SIDED,
    MODES,
    StreamHeader,
    event_edges,
    parse_output,
    parse_stream,
)

FAMILIES = (
    "regular-bipartite",
    "random-bipartite",
    "regular-general",
    "adversarial-frontload",
)

@dataclass(frozen=True)
class GenSpec:
    family: str
    n: int
    delta: int
    mode: str
    seed: int
    batch_size: int = 0  # batch mode only; 0 means ceil(sqrt(delta))


# --- graph construction (edge lists with exact degree control) ---


def _bipartite_regular_edges(n: int, delta: int, rng) -> list[tuple[int, int]]:
    # union of delta disjoint matchings: left x joins right perm[(x + shift) % n],
    # with distinct shifts, then both sides relabeled at random
    shifts = list(range(n))
    rng.shuffle(shifts)
    shifts = shifts[:delta]
    left = list(range(n))
    right = list(range(n))
    rng.shuffle(left)
    rng.shuffle(right)
    edges = []
    for sh in shifts:
        for x in range(n):
            edges.append((left[x], n + right[(x + sh) % n]))
    return edges


def _bipartite_random_edges(n: int, delta: int, rng) -> list[tuple[int, int]]:
    offline_load = [0] * n
    edges = []
    for u in range(n):
        want = rng.randint(1, delta)
        picks = rng.sample(range(n), min(want + delta, n))
        taken = 0
        for j in picks:
            if taken >= want:
                break
            if offline_load[j] < delta:
                offline_load[j] += 1
                edges.append((u, n + j))
                taken += 1
    return edges


def _general_regular_edges(n: int, delta: int, rng) -> list[tuple[int, int]]:
    # circulant construction, then a random relabeling
    label = list(range(n))
    rng.shuffle(label)
    edges = []
    for j in range(1, delta // 2 + 1):
        for x in range(n):
            y = (x + j) % n
            if j == n - j and x > y:  # antipodal offset pairs each edge twice
                continue
            edges.append((label[x], label[y]))
    if delta % 2 == 1:
        half = n // 2
        for x in range(half):
            edges.append((label[x], label[x + half]))
    return edges


def _check_graph(spec: GenSpec) -> None:
    """Raise InfeasibleSpec unless the family can build this graph."""
    n, delta = spec.n, spec.delta
    if delta < 1:
        raise InfeasibleSpec("delta must be at least 1")
    if n < 1:
        raise InfeasibleSpec("n must be at least 1")
    if spec.family in ("regular-bipartite", "adversarial-frontload"):
        if delta > n:
            raise InfeasibleSpec(f"regular bipartite needs delta <= n, got {delta} > {n}")
    elif spec.family == "regular-general":
        if delta >= n:
            raise InfeasibleSpec(f"regular general graph needs delta < n, got {delta} >= {n}")
        if delta % 2 == 1 and n % 2 == 1:
            raise InfeasibleSpec("odd delta needs an even vertex count")
    elif spec.family != "random-bipartite":
        raise InfeasibleSpec(f"unknown family {spec.family!r}")


def check_spec(spec: GenSpec) -> None:
    """Raise InfeasibleSpec unless `generate` can render the spec; builds nothing."""
    if spec.mode not in MODES:
        raise InfeasibleSpec(f"unknown mode {spec.mode!r}")
    if spec.batch_size < 0:
        raise InfeasibleSpec(f"batch_size must not be negative, got {spec.batch_size}")
    if spec.family == "regular-general" and spec.mode in (MODE_VERTEX_ONE_SIDED, MODE_BATCH):
        raise InfeasibleSpec(f"{spec.family} cannot be presented {spec.mode}")
    _check_graph(spec)
    if spec.mode == MODE_BATCH:
        k = spec.batch_size if spec.batch_size else ceil_sqrt(spec.delta)
        if spec.family not in ("regular-bipartite", "adversarial-frontload"):
            raise InfeasibleSpec("batch streams need a regular bipartite family")
        if spec.delta % k != 0:
            raise InfeasibleSpec(
                f"batch mode needs batch_size | delta, got {k} and {spec.delta}"
            )


def build_edges(spec: GenSpec) -> list[tuple[int, int]]:
    """The underlying edge set of a family, before arrival ordering."""
    _check_graph(spec)
    rng = child_rng(spec.seed, 0xED6E)
    if spec.family in ("regular-bipartite", "adversarial-frontload"):
        return _bipartite_regular_edges(spec.n, spec.delta, rng)
    if spec.family == "random-bipartite":
        return _bipartite_random_edges(spec.n, spec.delta, rng)
    return _general_regular_edges(spec.n, spec.delta, rng)


def generate(spec: GenSpec) -> str:
    """Render a stream file for the spec; deterministic in the seed."""
    check_spec(spec)
    bipartite = spec.family != "regular-general"
    edges = build_edges(spec)
    rng = child_rng(spec.seed, 0x08DE8)
    frontload = spec.family == "adversarial-frontload"
    n_online = spec.n
    n_offline = spec.n if bipartite else 0
    mode = spec.mode
    batch_size = 0

    def arrange(items: list, key=None) -> None:
        # the frontloaded order sorts, every other order shuffles
        if frontload:
            items.sort(key=key)
        else:
            rng.shuffle(items)

    if mode in (MODE_VERTEX_ONE_SIDED, MODE_BATCH):
        byu: dict[int, list[int]] = {u: [] for u in range(n_online)}
        for a, b in edges:
            byu[a].append(b)
    lines: list[str] = []
    if mode == MODE_EDGE:
        arrange(edges, key=lambda e: (e[1], e[0]))  # frontloaded: offline-major order
        lines.extend(f"e {a} {b}" for a, b in edges)
    elif mode == MODE_VERTEX_ONE_SIDED:
        order = list(range(n_online))
        arrange(order)
        for u in order:
            arrange(byu[u])
        lines.extend(
            f"V {u} " + " ".join(map(str, byu[u])) if byu[u] else f"V {u}" for u in order
        )
    elif mode == MODE_VERTEX_TWO_SIDED:
        total = n_online + n_offline
        order = list(range(total))
        rng.shuffle(order)
        pos = {v: i for i, v in enumerate(order)}
        late: dict[int, list[int]] = {v: [] for v in range(total)}
        for a, b in edges:
            # the later endpoint announces the edge
            if pos[a] > pos[b]:
                late[a].append(b)
            else:
                late[b].append(a)
        for v in order:
            nbrs = late[v]
            arrange(nbrs)
            lines.append(f"V {v} " + " ".join(map(str, nbrs)) if nbrs else f"V {v}")
    else:  # batch mode
        k = batch_size = spec.batch_size if spec.batch_size else ceil_sqrt(spec.delta)
        units = []
        for u in range(n_online):
            nbrs = byu[u]
            arrange(nbrs)
            for i in range(0, len(nbrs), k):
                units.append((i // k, u, nbrs[i : i + k]))
        arrange(units, key=lambda t: (t[0], t[1]))  # frontloaded: all first batches first
        lines.extend(f"B {u} " + " ".join(map(str, chunk)) for _, u, chunk in units)

    header = StreamHeader(n_online, n_offline, spec.delta, mode, batch_size, spec.seed)
    return header.to_line() + "\n" + "\n".join(lines) + ("\n" if lines else "")


# --- verification ---


REPORT_LIMIT = 10


@dataclass
class VerifyReport:
    proper: bool
    complete: bool
    colors_used: int
    max_color: int
    edges_colored: int
    missing: list[tuple[int, int]] = field(default_factory=list)
    duplicates: list[tuple[int, int]] = field(default_factory=list)
    unknown: list[tuple[int, int]] = field(default_factory=list)
    conflicts: list[tuple[tuple[int, int], tuple[int, int], int]] = field(default_factory=list)
    budget_ok: bool = True

    @property
    def ok(self) -> bool:
        return self.proper and self.complete and self.budget_ok


def collect_edges(events) -> dict[tuple[int, int], int]:
    """Canonical edge set of a stream, rejecting repeats."""
    expected: dict[tuple[int, int], int] = {}
    for ev in events:
        for a, b in event_edges(ev):
            e = (a, b) if a < b else (b, a)
            if e in expected:
                raise MalformedLine(f"stream repeats edge {e}")
            expected[e] = 0
    return expected


def verify(
    stream_lines: Iterable[str],
    output_lines: Iterable[str],
    budget: int | None = None,
) -> VerifyReport:
    """Check an output file against its stream file; the whole-run oracle."""
    _header, events = parse_stream(stream_lines)
    expected = collect_edges(events)
    assignments, _trailer = parse_output(output_lines)
    return check_assignments(expected, assignments, budget=budget)


def check_assignments(
    expected: dict[tuple[int, int], int],
    assignments,
    budget: int | None = None,
) -> VerifyReport:
    """The checking core shared by the file oracle and in-memory runs.

    `expected` is mutated (coverage counts); pass a fresh dict per check.
    Each list of problems keeps its first REPORT_LIMIT entries.
    """
    at_vertex: dict[int, dict[int, tuple[int, int]]] = {}
    colors: set[int] = set()
    max_color = -1
    duplicates, unknown, conflicts = [], [], []
    for u, v, c in assignments:
        e = (u, v) if u < v else (v, u)
        seen = expected.get(e)
        if seen is None:
            unknown.append(e)
        elif seen:
            duplicates.append(e)
        else:
            expected[e] = 1
        colors.add(c)
        if c > max_color:
            max_color = c
        for x in e:
            holder = at_vertex.setdefault(x, {})
            other = holder.get(c)
            if other is not None and len(conflicts) < REPORT_LIMIT:
                conflicts.append((other, e, c))
            holder[c] = e

    missing = [e for e, seen in expected.items() if not seen]
    budget_ok = budget is None or max_color + 1 <= budget
    return VerifyReport(
        proper=not conflicts,
        complete=not missing and not duplicates and not unknown,
        colors_used=len(colors),
        max_color=max_color,
        edges_colored=len(assignments),
        missing=missing[:REPORT_LIMIT],
        duplicates=duplicates[:REPORT_LIMIT],
        unknown=unknown[:REPORT_LIMIT],
        conflicts=conflicts,
        budget_ok=budget_ok,
    )


# --- the k-out Monte Carlo experiment ---


@dataclass(frozen=True)
class KoutResult:
    n: int
    u_size: int
    k: int
    trials: int
    seed: int
    failures: int

    @property
    def rate(self) -> float:
        return self.failures / self.trials if self.trials else 0.0

    def wilson(self, z: float = 1.96) -> tuple[float, float]:
        return wilson_interval(self.failures, self.trials, z)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval; well behaved for rare events."""
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def run_kout_experiment(
    n: int,
    c: Fraction | float | str,
    k: int,
    trials: int,
    seed: int,
) -> KoutResult:
    """Empirical failure rate of perfect matching in the random k-out model;
    parameters that cannot be sampled raise `InfeasibleSpec`."""
    try:
        frac = Fraction(str(c))
    except (ValueError, ZeroDivisionError):
        frac = Fraction(0)  # not a number: rejected below as not positive
    u_size = -(-frac.numerator * n // frac.denominator)  # ceil(c * n)
    checks = (
        (frac <= 0, f"--c {str(c)!r} is not a positive number"),
        (n < 1, "--n must be at least 1"),
        (k < 1, "--k must be at least 1"),
        (trials < 1, "--trials must be at least 1"),
        (k > u_size, f"--k {k} is above ceil(c * n) = {u_size}"),
    )
    problem = next((message for bad, message in checks if bad), None)
    if problem:
        raise InfeasibleSpec(problem)
    failures = 0
    for t in range(trials):
        rng = child_rng(seed, t)
        if not kout_trial(n, u_size, k, rng):
            failures += 1
    return KoutResult(n, u_size, k, trials, seed, failures)


# --- experiment suite ---


@dataclass(frozen=True)
class RunRequest:
    preset: str
    spec: GenSpec
    s: int = 1
    force_stream: bool = False


def execute_run(req: RunRequest) -> dict:
    """Generate, run, and verify one cell; returns its row as a dict.

    Internal bound violations (the designed-for rare events) are recorded
    in the row instead of crashing a whole suite; anything else raises.
    """
    text = generate(req.spec)
    header, events = parse_stream(io.StringIO(text))
    started = time.perf_counter()
    assignments: list[tuple[int, int, int]] = []

    def emit(u: int, v: int, c: int) -> None:
        assignments.append((u, v, c))

    expected: dict[tuple[int, int], int] = {}

    def tee(evs):
        # collect the canonical edge set at parse level while streaming,
        # so verification never trusts the algorithm's own bookkeeping
        for ev in evs:
            for a, b in event_edges(ev):
                expected[(a, b) if a < b else (b, a)] = 0
            yield ev

    breach = None
    stats = None
    try:
        pipeline = build_pipeline(header, req.preset, s=req.s, force_stream=req.force_stream)
        stats = run_stream(pipeline, tee(events), emit=emit)
    except (BoundViolation, FlushBudgetExceeded) as exc:
        breach = str(exc)
    millis = int((time.perf_counter() - started) * 1000)
    report = None
    if breach is None:
        report = check_assignments(expected, assignments, budget=stats.declared_budget)
    return {
        "preset": req.preset,
        "family": req.spec.family,
        "n": req.spec.n,
        "delta": req.spec.delta,
        "s": stats.s if stats else req.s,
        "seed": req.spec.seed,
        "proper": bool(report and report.ok),
        "colors_used": stats.colors_used if stats else 0,
        "budget": stats.declared_budget if stats else 0,
        "peak_words": stats.peak_words if stats else 0,
        "spilled_vertices": stats.spilled_vertices if stats else 0,
        "spilled_edges": stats.spilled_edges if stats else 0,
        "millis": millis,
        "breach": breach,
        "_stats": stats,
        "_report": report,
    }


def run_experiment_suite(requests: list[RunRequest], jobs: int = 1) -> list[dict]:
    """Run every request, optionally on a process pool; order preserved."""
    if jobs > 1 and len(requests) > 1:
        import multiprocessing as mp

        with mp.Pool(jobs) as pool:
            return pool.map(execute_run, requests, chunksize=1)
    return [execute_run(r) for r in requests]
