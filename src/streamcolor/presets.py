"""Algorithm presets: complete pipelines from a parsed stream to colors.

Available presets and the stream modes they accept:

    one-sided      vertex-one-sided or batch; the plain one-sided colorer
    vertex-general vertex-two-sided; one one-sided colorer per side of each
                   level of the bipartization router
    edge-general   edge; space knob s <= ceil(sqrt(D)), behind the router:
                   grouped batch colorers plus flushes, or at the top,
                   s = ceil(sqrt(D)), buffered exact batches over s colorers
    edge-sqrt      edge-general at s = ceil(sqrt(D))
    offline-exact  any mode, declared-bipartite header; store everything,
                   exact bipartite coloring against the header's sides
    offline-greedy any mode; store everything, greedy coloring

`build_pipeline` wires a preset to one stream and `run_stream` drives it.
Edge lines arrive in blocks of up to 4,096, read ahead uncharged like the
file buffer; each error still names its exact line. The edge pipeline
hands each block to the router in one call (`EdgeBipartization.on_block`),
which still feeds the dispatchers one edge at a time, in stream order.
Every two-sided stream, vertex or edge, goes through one router
(`reductions.Bipartization`): a general graph gets random levels plus a
base store, a declared-bipartite header one level whose sides are the
header's, so each arrival kind has one pipeline.
Every preset draws all randomness from one seed, and its components
share one `core.Run`: a single meter, a single allocator of disjoint
color blocks, and the list of its one-sided colorers, whose spill counts
`run_stream` sums. Its declared color budget, which
upper-bounds every id it can ever emit, is the allocator's: the static
blocks the built components reserved plus the widths they promised for
their dynamic ones (spill, flush, leftover, base store, stored graph).
The allocator refuses any block past it. The edge pipeline falls back
to store-and-color when the degree bound is too small for the
concentration arguments behind its dispatcher (below c * log^2 n): exact
against the header's sides, or with delta + 1 colors on a general
header; `force_stream` bypasses the fallback so the streaming path can
be exercised at small scale too.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable

from .core import OneSidedColorer, Run, block_width, color_block
from .dispatch import BatchIndexDispatcher, GroupedBatchDispatcher, ceil_sqrt
from .errors import ModeMismatch
from .reductions import EdgeBipartization, VertexBipartization
from .rng import child_rng, split_seed
from .stream import (
    MODE_BATCH,
    MODE_EDGE,
    MODE_VERTEX_ONE_SIDED,
    MODE_VERTEX_TWO_SIDED,
    MODES,
    Assignment,
    StreamEvent,
    StreamHeader,
    event_edges,
)

PRESETS = (
    "one-sided",
    "vertex-general",
    "edge-sqrt",
    "edge-general",
    "offline-exact",
    "offline-greedy",
)

SQRT_FALLBACK_FACTOR = 300
GENERAL_FALLBACK_FACTOR = 900


@dataclass
class RunStats:
    preset: str
    s: int
    declared_budget: int
    palette_used: int
    colors_used: int
    peak_words: int
    spilled_vertices: int
    spilled_edges: int
    edges_emitted: int


def _log2n(header: StreamHeader) -> float:
    return math.log2(max(header.n_total, 2))


def uses_fallback(header: StreamHeader, s: int, force_stream: bool) -> bool:
    if force_stream:
        return False
    factor = SQRT_FALLBACK_FACTOR if s == ceil_sqrt(header.delta) else GENERAL_FALLBACK_FACTOR
    return header.delta <= factor * _log2n(header) ** 2


def clamp_s(header: StreamHeader, s: int) -> int:
    return max(1, min(s, ceil_sqrt(header.delta)))


def declared_budget(header: StreamHeader, alg: str, s: int = 1, force_stream: bool = False) -> int:
    """An upper bound on every color id the preset can emit on this stream."""
    return build_pipeline(header, alg, s=s, force_stream=force_stream).budget


# --- pipelines ---


class _Pipeline:
    """A preset wired to one stream: `feed` per event, then `finalize` once.

    `feed(event, out)` appends the event's assignments to `out`, which
    holds those of a block's earlier edges if it raises partway.

    Each holds `run`, the context its components share. Most drive one
    component, `inner`. `build_pipeline` adds the declared `budget`, the
    `preset` name and the reported `s`.
    """

    def feed(self, event: StreamEvent, out: list[Assignment]) -> None:
        raise NotImplementedError

    def finalize(self) -> list[Assignment]:
        return self.inner.finalize()


class _Trivial(_Pipeline):
    """Degree bound 1: the graph is a matching, one color covers it."""

    def __init__(self, run: Run):
        self.run = run
        self.color = run.alloc.reserve(1, "trivial")

    def feed(self, event, out):
        out += [(u, v, self.color) for u, v in event_edges(event)]

    def finalize(self):
        return []


class _OneSided(_Pipeline):
    """One colorer; in batch mode a vertex's b-th batch goes to band b - 1,
    counted here at one word per vertex."""

    def __init__(self, header: StreamHeader, seed: int, run: Run):
        self.run = run
        self.n_online = header.n_online
        self.n_total = header.n_total
        batched = header.mode == MODE_BATCH
        self.inner = OneSidedColorer(
            header.delta,
            random.Random(split_seed(seed, 1)),
            run,
            bands=-(-header.delta // header.batch_size) if batched else 1,
        )
        self.batch_counts: dict[int, int] | None = {} if batched else None

    def feed(self, event, out):
        u, neighbors = event
        n_online = self.n_online
        if not 0 <= u < n_online:
            raise ModeMismatch(f"arriving vertex {u} is not an online id")
        if neighbors and not n_online <= min(neighbors) <= max(neighbors) < self.n_total:
            v = next(v for v in neighbors if not n_online <= v < self.n_total)
            raise ModeMismatch(f"neighbor {v} is not an offline id")
        band = 0
        counts = self.batch_counts
        if counts is not None:
            band = counts.get(u, 0)
            if not band:
                self.run.meter.add("one-sided:batches", 1)
            counts[u] = band + 1
        out += self.inner.on_online_vertex(u, list(neighbors), band)


class _Vertex(_Pipeline):
    """Two-sided vertex arrivals through the bipartization router."""

    def __init__(self, header: StreamHeader, seed: int, run: Run):
        def factory(level: int, bound: int) -> list[OneSidedColorer]:
            level_seed = split_seed(seed, 100 + level)  # one colorer per side
            return [
                OneSidedColorer(bound, child_rng(level_seed, side), run,
                                name=f"L{level}:side{side}")
                for side in (0, 1)
            ]

        self.run = run
        sides = header.n_online if header.bipartite else None  # None: random levels
        self.inner = VertexBipartization(
            header.n_total, header.delta, split_seed(seed, 1), run, factory, n_online=sides
        )

    def feed(self, event, out):
        out += self.inner.on_vertex(*event)


class _Edge(_Pipeline):
    """Edge arrivals through the bipartization router over dispatchers; the
    clamped knob `s` alone picks them: sqrt at s = ceil(sqrt(D)), else grouped."""

    def __init__(self, header, seed, run, s):
        self.run = run
        n = header.n_total

        if s == ceil_sqrt(header.delta):
            def factory(level: int, bound: int) -> list[BatchIndexDispatcher]:
                level_seed = split_seed(seed, 100 + level)
                return [BatchIndexDispatcher(bound, level_seed, run, name=f"L{level}")]
        else:
            def factory(level: int, bound: int) -> list[GroupedBatchDispatcher]:
                # an n*s edge buffer, allowed one flush per n*s of the at most
                # n*bound/2 edges it can be fed, plus one; side lookup goes
                # through self.inner lazily: the tree only exists once all
                # level dispatchers are built
                return [GroupedBatchDispatcher(
                    bound,
                    s,
                    n * s,
                    lambda v, lvl=level: self.inner.side_of(v, lvl),
                    split_seed(seed, 100 + level),
                    run,
                    flush_bound=(n * bound // 2) // max(n * s, 1) + 1,
                    name=f"L{level}",
                )]

        sides = header.n_online if header.bipartite else None  # None: random levels
        self.inner = EdgeBipartization(
            n, header.delta, split_seed(seed, 1), run, factory, n_online=sides
        )

    def feed(self, block, out):
        self.inner.on_block(block.us, block.vs, out)


class _StoreAll(_Pipeline):
    """Baselines and the small-degree fallback: buffer, then color offline."""

    def __init__(self, header: StreamHeader, flavor: str, run: Run):
        # exact colors against the header's sides: an edge inside one is an input error
        if flavor == "exact" and not header.bipartite:
            raise ModeMismatch("offline-exact needs declared sides; this header has n_offline 0")
        self.side_of = header.n_online.__gt__ if flavor == "exact" else None
        self.flavor = flavor  # exact | general | greedy
        self.run = run
        run.alloc.promised += block_width(flavor, header.delta)  # the stored graph
        self.edges: list[tuple[int, int]] = []

    def feed(self, event, out):
        pairs = list(event_edges(event))
        self.edges += pairs
        self.run.meter.add("stored-graph", 2 * len(pairs))

    def finalize(self):
        edges, self.edges = self.edges, []
        self.run.meter.release("stored-graph", 2 * len(edges))
        return color_block(edges, self.side_of, "stored-graph", self.run, self.flavor)


_MODE_FOR_ALG = {
    "one-sided": (MODE_VERTEX_ONE_SIDED, MODE_BATCH),
    "vertex-general": (MODE_VERTEX_TWO_SIDED,),
    "edge-sqrt": (MODE_EDGE,),
    "edge-general": (MODE_EDGE,),
    "offline-exact": MODES,
    "offline-greedy": MODES,
}


def check_mode(mode: str, alg: str) -> None:
    if alg not in PRESETS:
        raise ValueError(f"unknown preset {alg!r}")
    if mode not in _MODE_FOR_ALG[alg]:
        raise ModeMismatch(f"preset {alg} cannot run on a {mode} stream")


def build_pipeline(
    header: StreamHeader,
    alg: str,
    *,
    s: int = 1,
    force_stream: bool = False,
    seed: int | None = None,
) -> _Pipeline:
    """Wire a preset to this stream, on a fresh `Run`.

    The pipeline's `budget` is what its components reserved plus what they
    promised, and the allocator refuses any block that would pass it.
    """
    check_mode(header.mode, alg)
    if alg == "edge-sqrt":  # edge-general at the top of its range; from here on only s counts
        s = header.delta
    s = clamp_s(header, s) if alg in ("edge-sqrt", "edge-general") else 0
    run = Run()
    seed = header.seed if seed is None else seed

    if alg == "offline-exact":
        pipeline = _StoreAll(header, "exact", run)
    elif alg == "offline-greedy":
        pipeline = _StoreAll(header, "greedy", run)
    elif header.delta == 1:
        pipeline = _Trivial(run)
    elif alg == "one-sided":
        pipeline = _OneSided(header, seed, run)
    elif alg == "vertex-general":
        pipeline = _Vertex(header, seed, run)
    elif uses_fallback(header, s, force_stream):
        pipeline = _StoreAll(header, "exact" if header.bipartite else "general", run)
    else:
        pipeline = _Edge(header, seed, run, s)
    pipeline.preset = alg
    pipeline.s = s
    pipeline.budget = run.alloc.budget = run.alloc.total + run.alloc.promised
    return pipeline


def run_stream(
    pipeline: _Pipeline,
    events: Iterable[StreamEvent],
    *,
    emit: Callable[[int, int, int], None],
) -> RunStats:
    """Drive a full stream through a built pipeline, emitting assignments as found."""
    colors: set[int] = set()
    emitted = 0
    out: list[Assignment] = []
    for event in events:
        try:
            pipeline.feed(event, out)
        finally:  # a block that fails partway still emits what it colored
            for u, v, c in out:
                colors.add(c)
                emit(u, v, c)
            emitted += len(out)
            out.clear()
    out = pipeline.finalize()
    for u, v, c in out:
        colors.add(c)
        emit(u, v, c)
    emitted += len(out)
    run = pipeline.run
    return RunStats(
        preset=pipeline.preset,
        s=pipeline.s,
        declared_budget=pipeline.budget,
        palette_used=run.alloc.total,
        colors_used=len(colors),
        peak_words=run.meter.peak_words,
        spilled_vertices=sum(c.spilled_vertices for c in run.colorers),
        spilled_edges=sum(c.spilled_edges_total for c in run.colorers),
        edges_emitted=emitted,
    )
