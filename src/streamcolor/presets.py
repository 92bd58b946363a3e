"""Algorithm presets: complete pipelines from a parsed stream to colors.

Available presets and the stream modes they accept:

    one-sided      vertex-one-sided or batch; the plain one-sided colorer
    vertex-general vertex-two-sided; side split for declared-bipartite
                   streams, bipartization for general graphs
    edge-sqrt      edge; buffered exact batches over ceil(sqrt(D)) colorers
    edge-general   edge; space knob s, grouped batch colorers plus flushes
    offline-exact  any mode; store everything, exact bipartite coloring
    offline-greedy any mode; store everything, greedy coloring

Every preset draws all randomness from one seed, reserves disjoint color
blocks from a single allocator, and reports a declared color budget that
upper-bounds every id it can ever emit. The edge presets fall back to
store-and-color when the degree bound is too small for the concentration
arguments behind their routing (below c * log^2 n); `force_stream`
bypasses the fallback so the streaming path can be exercised at small
scale too.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable

from .core import OneSidedColorer, SpillReport
from .dispatch import BatchIndexDispatcher, GroupedBatchDispatcher, ceil_sqrt
from .errors import ModeMismatch, NotBipartite
from .meter import SpaceMeter
from .offline import OfflineGraph, color_bipartite_exact, color_general, color_greedy
from .palette import ColorAllocator, period_for
from .reductions import (
    EdgeBipartization,
    TwoSidedSplit,
    VertexBipartization,
    plan_levels,
)
from .rng import split_seed
from .stream import (
    MODE_BATCH,
    MODE_EDGE,
    MODE_VERTEX_ONE_SIDED,
    MODE_VERTEX_TWO_SIDED,
    BatchArrival,
    ColorAssignment,
    EdgeArrival,
    StreamEvent,
    StreamHeader,
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


def uses_fallback(header: StreamHeader, alg: str, force_stream: bool) -> bool:
    if force_stream or alg not in ("edge-sqrt", "edge-general"):
        return False
    factor = SQRT_FALLBACK_FACTOR if alg == "edge-sqrt" else GENERAL_FALLBACK_FACTOR
    return header.delta <= factor * _log2n(header) ** 2


def clamp_s(header: StreamHeader, s: int) -> int:
    return max(1, min(s, ceil_sqrt(header.delta)))


def declared_budget(header: StreamHeader, alg: str, s: int = 1, force_stream: bool = False) -> int:
    """An upper bound on every color id the preset can emit on this stream."""
    delta = header.delta
    if delta == 1 and alg not in ("offline-exact", "offline-greedy"):
        return 1
    if alg == "one-sided":
        p = period_for(delta)
        if header.mode == MODE_BATCH:
            batches = -(-delta // header.batch_size)
            return batches * 3 * p + delta
        return 3 * p + delta
    if alg == "vertex-general":
        if header.bipartite:
            return 2 * (3 * period_for(delta) + delta)
        total = delta + 1  # base store
        for bound in plan_levels(header.n_total, delta):
            total += 2 * (3 * period_for(bound) + bound)
        return total
    if alg in ("edge-sqrt", "edge-general"):
        if uses_fallback(header, alg, force_stream):
            return delta if header.bipartite else delta + 1
        if alg == "edge-sqrt":
            if header.bipartite:
                return _sqrt_core_budget(delta)
            total = delta + 1
            for bound in plan_levels(header.n_total, delta):
                total += _sqrt_core_budget(bound)
            return total
        s = clamp_s(header, s)
        if header.bipartite:
            return _general_core_budget(header.n_total, delta, s)
        total = delta + 1
        for bound in plan_levels(header.n_total, delta):
            total += _general_core_budget(header.n_total, bound, s)
        return total
    if alg == "offline-exact":
        return delta
    if alg == "offline-greedy":
        return max(2 * delta - 1, 1)
    raise ValueError(f"unknown preset {alg!r}")


def _sqrt_core_budget(delta: int) -> int:
    if delta == 1:
        return 1
    k = ceil_sqrt(delta)
    return k * (3 * period_for(2 * k) + 2 * k) + delta


def _general_core_budget(n_total: int, delta: int, s: int) -> int:
    if delta == 1:
        return 1
    k = ceil_sqrt(delta)
    s = max(1, min(s, k))
    gw = -(-k // s)
    sub_delta = max(-(-2 * delta // s), min(gw * k, delta))
    flush_bound = (n_total * delta // 2) // max(n_total * s, 1) + 1
    streaming = 2 * s * gw * 3 * period_for(sub_delta)
    spills = 2 * s * sub_delta
    return streaming + spills + flush_bound * k + delta


# --- pipelines ---


class _Pipeline:
    def feed(self, event: StreamEvent) -> list[ColorAssignment]:
        raise NotImplementedError

    def finalize(self) -> list[ColorAssignment]:
        raise NotImplementedError

    def spill_report(self) -> SpillReport:
        return SpillReport(0, 0)


class _Trivial(_Pipeline):
    """Degree bound 1: the graph is a matching, one color covers it."""

    def __init__(self, allocator: ColorAllocator):
        self.color = allocator.reserve(1, "trivial")

    def feed(self, event):
        if type(event) is EdgeArrival:
            return [ColorAssignment(event.u, event.v, self.color)]
        return [ColorAssignment(event.u, v, self.color) for v in event.neighbors]

    def finalize(self):
        return []


class _OneSided(_Pipeline):
    def __init__(self, header: StreamHeader, seed: int, meter: SpaceMeter, alloc: ColorAllocator):
        self.n_online = header.n_online
        self.n_total = header.n_total
        self.colorer = OneSidedColorer(
            header.delta,
            random.Random(split_seed(seed, 1)),
            meter,
            alloc,
            batch_size=header.batch_size if header.mode == MODE_BATCH else None,
        )

    def feed(self, event):
        u, neighbors = event
        n_online = self.n_online
        if not 0 <= u < n_online:
            raise ModeMismatch(f"arriving vertex {u} is not an online id")
        if neighbors and not n_online <= min(neighbors) <= max(neighbors) < self.n_total:
            v = next(v for v in neighbors if not n_online <= v < self.n_total)
            raise ModeMismatch(f"neighbor {v} is not an offline id")
        if type(event) is BatchArrival:
            return self.colorer.on_batch(u, list(neighbors))
        return self.colorer.on_online_vertex(u, list(neighbors))

    def finalize(self):
        return self.colorer.finalize()

    def spill_report(self):
        return self.colorer.spill_report()


class _TwoSidedVertex(_Pipeline):
    """Declared-bipartite two-sided vertex arrivals through the side split."""

    def __init__(self, header: StreamHeader, seed: int, meter: SpaceMeter, alloc: ColorAllocator):
        self.header = header
        self.split = TwoSidedSplit(header.delta, split_seed(seed, 1), meter, alloc)
        self.arrived: set[int] = set()

    def feed(self, event):
        h = self.header
        u = event.u
        side = 0 if u < h.n_online else 1
        for v in event.neighbors:
            vside = 0 if v < h.n_online else 1
            if vside == side:
                raise ModeMismatch(f"edge ({u}, {v}) does not cross the declared sides")
            if v not in self.arrived:
                raise ModeMismatch(f"neighbor {v} of {u} has not arrived yet")
        self.arrived.add(u)
        return self.split.on_arrival(u, list(event.neighbors), side)

    def finalize(self):
        return self.split.finalize()

    def spill_report(self):
        return self.split.spill_report()


class _GeneralVertex(_Pipeline):
    """General-graph vertex arrivals through bipartization."""

    def __init__(self, header: StreamHeader, seed: int, meter: SpaceMeter, alloc: ColorAllocator):
        self.header = header

        def factory(level: int, bound: int) -> TwoSidedSplit:
            return TwoSidedSplit(
                bound,
                split_seed(seed, 100 + level),
                meter,
                alloc,
                name=f"L{level}",
                offline_cap=bound,
            )

        self.tree = VertexBipartization(
            header.n_total, header.delta, split_seed(seed, 1), meter, alloc, factory
        )
        self.arrived: set[int] = set()

    def feed(self, event):
        u, neighbors = event
        if not self.arrived.issuperset(neighbors):
            v = next(v for v in neighbors if v not in self.arrived)
            raise ModeMismatch(f"neighbor {v} of {u} has not arrived yet")
        self.arrived.add(u)
        return self.tree.on_vertex(u, neighbors)

    def finalize(self):
        return self.tree.finalize()

    def spill_report(self):
        return self.tree.spill_report()


class _EdgeBipartite(_Pipeline):
    """Edge arrivals on a declared-bipartite graph (no bipartization)."""

    def __init__(self, header, seed, meter, alloc, alg, s):
        self.n_online = header.n_online
        n = header.n_total
        if alg == "edge-sqrt":
            self.dispatcher = BatchIndexDispatcher(
                header.delta, split_seed(seed, 1), meter, alloc
            )
            self._grouped = False
        else:
            s = clamp_s(header, s)
            self.dispatcher = GroupedBatchDispatcher(
                header.delta,
                s,
                n * s,
                lambda v: 0 if v < header.n_online else 1,
                split_seed(seed, 1),
                meter,
                alloc,
                flush_bound=(n * header.delta // 2) // max(n * s, 1) + 1,
            )
            self._grouped = True

    def feed(self, event):
        a, b = event
        a_online = a < self.n_online
        if a_online == (b < self.n_online):
            raise ModeMismatch(f"edge ({a}, {b}) does not cross the declared sides")
        if self._grouped or a_online:
            return self.dispatcher.feed_edge(a, b)
        return self.dispatcher.feed_edge(b, a)  # online endpoint owns the buffer slot

    def finalize(self):
        return self.dispatcher.finalize()

    def spill_report(self):
        return self.dispatcher.spill_report()


class _EdgeGeneral(_Pipeline):
    """Edge arrivals on a general graph: bipartization over dispatchers."""

    def __init__(self, header, seed, meter, alloc, alg, s):
        n = header.n_total
        self.tree: EdgeBipartization | None = None

        if alg == "edge-sqrt":
            def factory(level: int, bound: int) -> BatchIndexDispatcher:
                return BatchIndexDispatcher(
                    bound, split_seed(seed, 100 + level), meter, alloc, name=f"L{level}"
                )
        else:
            s = clamp_s(header, s)

            def factory(level: int, bound: int) -> GroupedBatchDispatcher:
                # side lookup goes through self.tree lazily: the tree only
                # exists once all level dispatchers are built
                return GroupedBatchDispatcher(
                    bound,
                    s,
                    n * s,
                    lambda v, lvl=level: self.tree.side_of(v, lvl),
                    split_seed(seed, 100 + level),
                    meter,
                    alloc,
                    flush_bound=(n * bound // 2) // max(n * s, 1) + 1,
                    name=f"L{level}",
                )

        def feeder(lvl, u, v, level):
            return lvl.feed_edge(u, v)

        self.tree = EdgeBipartization(
            n, header.delta, split_seed(seed, 1), meter, alloc, factory, feeder=feeder
        )

    def feed(self, event):
        return self.tree.on_edge(event.u, event.v)

    def finalize(self):
        return self.tree.finalize()

    def spill_report(self):
        return self.tree.spill_report()


class _StoreAll(_Pipeline):
    """Baselines and the small-degree fallback: buffer, then color offline."""

    def __init__(self, header, meter, alloc, flavor: str):
        self.header = header
        self.meter = meter
        self.alloc = alloc
        self.flavor = flavor  # exact | greedy | auto
        self.edges: list[tuple[int, int]] = []

    def feed(self, event):
        if type(event) is EdgeArrival:
            self.edges.append((event.u, event.v))
            self.meter.add("stored-graph", 2)
        else:
            u = event.u
            pairs = [(u, v) for v in event.neighbors]
            self.edges.extend(pairs)
            self.meter.add("stored-graph", 2 * len(pairs))
        return []

    def finalize(self):
        edges = self.edges
        if not edges:
            return []
        h = self.header
        sides = None
        if h.bipartite:
            sides = {}
            for a, b in edges:
                sides[a] = 0 if a < h.n_online else 1
                sides[b] = 0 if b < h.n_online else 1
        graph = OfflineGraph(edges, sides)
        flavor = self.flavor
        if flavor == "auto":
            try:
                graph.bipartition()
                flavor = "exact"
            except NotBipartite:
                flavor = "general"
        if flavor == "exact":
            colors = color_bipartite_exact(graph, self.meter)
            width = graph.max_degree
        elif flavor == "general":
            colors = color_general(graph, self.meter)
            width = graph.max_degree + 1
        else:
            colors = color_greedy(graph, self.meter)
            width = max(2 * graph.max_degree - 1, 1)
        base = self.alloc.reserve(width, "stored-graph")
        out = [ColorAssignment(a, b, base + c) for (a, b), c in zip(edges, colors)]
        self.meter.release("stored-graph", 2 * len(edges))
        self.edges = []
        return out


_MODE_FOR_ALG = {
    "one-sided": (MODE_VERTEX_ONE_SIDED, MODE_BATCH),
    "vertex-general": (MODE_VERTEX_TWO_SIDED,),
    "edge-sqrt": (MODE_EDGE,),
    "edge-general": (MODE_EDGE,),
    "offline-exact": (MODE_EDGE, MODE_VERTEX_ONE_SIDED, MODE_VERTEX_TWO_SIDED, MODE_BATCH),
    "offline-greedy": (MODE_EDGE, MODE_VERTEX_ONE_SIDED, MODE_VERTEX_TWO_SIDED, MODE_BATCH),
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
    meter: SpaceMeter | None = None,
    allocator: ColorAllocator | None = None,
) -> tuple[_Pipeline, SpaceMeter, ColorAllocator]:
    check_mode(header.mode, alg)
    meter = meter if meter is not None else SpaceMeter()
    alloc = allocator if allocator is not None else ColorAllocator()
    seed = header.seed if seed is None else seed

    if alg == "offline-exact":
        return _StoreAll(header, meter, alloc, "exact"), meter, alloc
    if alg == "offline-greedy":
        return _StoreAll(header, meter, alloc, "greedy"), meter, alloc
    if header.delta == 1:
        return _Trivial(alloc), meter, alloc
    if alg == "one-sided":
        return _OneSided(header, seed, meter, alloc), meter, alloc
    if alg == "vertex-general":
        if header.bipartite:
            return _TwoSidedVertex(header, seed, meter, alloc), meter, alloc
        return _GeneralVertex(header, seed, meter, alloc), meter, alloc
    # edge presets
    if uses_fallback(header, alg, force_stream):
        return _StoreAll(header, meter, alloc, "auto"), meter, alloc
    if header.bipartite:
        return _EdgeBipartite(header, seed, meter, alloc, alg, s), meter, alloc
    return _EdgeGeneral(header, seed, meter, alloc, alg, s), meter, alloc


def run_stream(
    header: StreamHeader,
    events: Iterable[StreamEvent],
    alg: str,
    *,
    s: int = 1,
    force_stream: bool = False,
    seed: int | None = None,
    emit: Callable[[int, int, int], None],
) -> RunStats:
    """Drive a full stream through a preset, emitting assignments as found."""
    pipeline, meter, alloc = build_pipeline(
        header, alg, s=s, force_stream=force_stream, seed=seed
    )
    colors: set[int] = set()
    emitted = 0
    for event in events:
        out = pipeline.feed(event)
        for u, v, c in out:
            colors.add(c)
            emit(u, v, c)
        emitted += len(out)
    out = pipeline.finalize()
    for u, v, c in out:
        colors.add(c)
        emit(u, v, c)
    emitted += len(out)
    report = pipeline.spill_report()
    if alg == "edge-general":
        s_out = clamp_s(header, s)
    elif alg == "edge-sqrt":
        s_out = ceil_sqrt(header.delta)
    else:
        s_out = 0
    return RunStats(
        preset=alg,
        s=s_out,
        declared_budget=declared_budget(header, alg, s, force_stream),
        palette_used=alloc.total,
        colors_used=len(colors),
        peak_words=meter.peak_words,
        spilled_vertices=report.spilled_vertices,
        spilled_edges=report.spilled_edges,
        edges_emitted=emitted,
    )
