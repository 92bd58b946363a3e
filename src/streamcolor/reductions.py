"""Reductions that lift the bipartite one-sided colorers to richer inputs.

`TwoSidedSplit` handles bipartite streams where either side may arrive:
edges are owned by whichever endpoint arrives with them, so the stream
splits into two one-sided substreams, one per side, colored by two
independent colorers with disjoint blocks.

`Bipartization` is the one router of every two-sided stream. On a general
graph every vertex draws one random bit per level; an edge belongs to the
first level where its endpoints' bits differ, which makes each level a
bipartite graph (sides = bit value). Declared level degree bounds shrink
geometrically with a 1.5x safety slack; the recursion stops once the
declared bound drops below max(10 * log2 n, 16), and everything deeper
lands in a base store that is colored offline at the end (exactly if it
happens to be bipartite, with one extra color otherwise). A
declared-bipartite header is the case of one level whose sides are known:
its bound is delta, a vertex's bit is its header side (online ids have
bit 1), no bit is drawn or stored, there is no base store, and an edge
inside one side is an input error.

Level degrees are counted only at levels whose bound is below delta: the
stream parser already holds every vertex to delta, so a counter at any
other level could never trip. Passing a counted bound is a hard error:
the run stops rather than risking a conflict. A vertex arrival is routed
in one pass over its neighbors (`VertexBipartization.on_vertex`); an edge
arrival goes through `route` (`EdgeBipartization.on_edge`).
"""

from __future__ import annotations

import math
from typing import Callable

from .core import OneSidedColorer, SpillReport, color_block
from .errors import BoundViolation, ModeMismatch
from .meter import SpaceMeter
from .palette import ColorAllocator
from .rng import child_rng
from .stream import Assignment


class TwoSidedSplit:
    """Two one-sided colorers, one per side of a bipartite graph."""

    def __init__(
        self,
        delta: int,
        seed: int,
        meter: SpaceMeter,
        allocator: ColorAllocator,
        name: str = "split",
        offline_cap: int | None = None,
    ):
        self.colorers = [
            OneSidedColorer(
                delta,
                child_rng(seed, side),
                meter,
                allocator,
                name=f"{name}:side{side}",
                offline_cap=offline_cap,
            )
            for side in (0, 1)
        ]
        self.budget = sum(c.budget for c in self.colorers)

    def on_arrival(self, u: int, neighbors: list[int], side: int) -> list[Assignment]:
        return self.colorers[side].on_online_vertex(u, neighbors)

    def finalize(self) -> list[Assignment]:
        return self.colorers[0].finalize() + self.colorers[1].finalize()

    def spill_report(self) -> SpillReport:
        return SpillReport.total(self.colorers)


def stop_threshold(n: int) -> float:
    return max(10.0 * math.log2(max(n, 2)), 16.0)


def level_degree_bound(delta: int, level: int) -> int:
    """Declared bound for one level: ceil(1.5 * ceil(delta / 2^level))."""
    x = -(-delta // (1 << level))
    return ( 3 * x + 1) // 2


def plan_levels(n: int, delta: int) -> list[int]:
    """Declared degree bounds of the levels the recursion will create."""
    threshold = stop_threshold(n)
    bounds = []
    level = 0
    while True:
        d = level_degree_bound(delta, level)
        if d < threshold or d < 1:
            break
        bounds.append(d)
        level += 1
    return bounds


class Bipartization:
    """Random recursive 2-partition routing edges to bipartite levels.

    The per-level algorithm is supplied by `level_factory(level, bound)`,
    which must return an object exposing the part of the level interface
    the caller drives (vertex arrivals or edge feeds) plus `finalize()`,
    `spill_report()` and its color `budget`. `n_online`, given for a
    declared-bipartite header, replaces the random levels with the one
    level of the header's sides.
    """

    def __init__(
        self,
        n: int,
        delta: int,
        seed: int,
        meter: SpaceMeter,
        allocator: ColorAllocator,
        level_factory: Callable[[int, int], object],
        name: str = "bipart",
        n_online: int | None = None,
    ):
        self.delta = delta
        self.meter = meter
        self.allocator = allocator
        self.name = name
        self.header_sides = n_online is not None
        self.bounds = [delta] if self.header_sides else plan_levels(n, delta)
        self.levels = [level_factory(i, d) for i, d in enumerate(self.bounds)]
        self.num_levels = len(self.levels)
        self.budget = sum(lvl.budget for lvl in self.levels)
        if self.header_sides:
            self.bit_vector = n_online.__gt__  # online ids have bit 1; nothing stored
        else:
            self.budget += delta + 1  # the base store
        self.rng = child_rng(seed, 0xB1)
        self.bits: dict[int, int] = {}
        # None marks a level with no counters: its bound is at least delta
        self.level_degrees: list[dict[int, int] | None] = [
            {} if d < delta else None for d in self.bounds
        ]
        self.base_edges: list[tuple[int, int]] = []
        self._bitkey = f"{name}:bits"
        self._dkey = f"{name}:level-degrees"
        self._basekey = f"{name}:base-store"

    def bit_vector(self, v: int) -> int:
        bv = self.bits.get(v)
        if bv is None:
            bv = self.rng.getrandbits(self.num_levels) if self.num_levels else 0
            self.bits[v] = bv
            self.meter.add(self._bitkey, 1)
        return bv

    def route(self, u: int, v: int) -> int:
        """Level of the first differing bit, or -1 for the base store."""
        diff = self.bit_vector(u) ^ self.bit_vector(v)
        if diff == 0:
            return -1
        return (diff & -diff).bit_length() - 1

    def side_of(self, v: int, level: int) -> int:
        return (self.bit_vector(v) >> level) & 1

    def _bump_level_degree(self, v: int, level: int, amount: int) -> None:
        degs = self.level_degrees[level]
        if degs is None:
            return
        d = degs.get(v)
        if d is None:
            d = 0
            self.meter.add(self._dkey, 1)
        d += amount
        if d > self.bounds[level]:
            self._level_breach(v, d, level, 0)
        degs[v] = d

    def _level_breach(self, v: int, d: int, level: int, fresh: int) -> None:
        """Charge the `fresh` degree entries counted so far, then stop the run."""
        self.meter.add(self._dkey, fresh)
        raise BoundViolation(
            f"{self.name}: vertex {v} reached degree {d} at level {level}, "
            f"declared bound {self.bounds[level]}"
        )

    def _store_base(self, u: int, v: int) -> None:
        """Keep an edge no level takes; under header sides it is an input error."""
        if self.header_sides:
            raise ModeMismatch(f"edge ({u}, {v}) does not cross the declared sides")
        self.base_edges.append((u, v))
        self.meter.add(self._basekey, 2)

    def finalize(self) -> list[Assignment]:
        out: list[Assignment] = []
        for lvl in self.levels:
            out.extend(lvl.finalize())
        edges = self.base_edges
        if edges:
            label = f"{self.name}:base"
            out += color_block(edges, None, label, self.meter, self.allocator, "auto")
            self.meter.release(self._basekey, 2 * len(edges))
            self.base_edges = []
        return out

    def spill_report(self) -> SpillReport:
        return SpillReport.total(self.levels)


class VertexBipartization(Bipartization):
    """Vertex-arrival flavor: one arrival fans out into per-level arrivals.

    The arriving vertex is online in every level that receives a piece of
    its edge group; within a level it goes to the colorer of its own side.
    Levels are `TwoSidedSplit` instances.
    """

    def on_vertex(self, u: int, neighbors) -> list[Assignment]:
        """Route a whole arrival in one pass, as `route` per edge would.

        Bit vectors are drawn on first sight in `route`'s order (u just
        before its first neighbor), the level is the lowest set bit of the
        xor, and the meter takes one charge per key and arrival where
        `route` took one per edge: the neighbors' new bit vectors, the
        base edges, and each level's new degree entries. All of these are
        additions with nothing released between them, so the ledger and
        the peak are the per-edge ones.
        """
        if not neighbors:
            return []
        if self.header_sides:  # one level; every edge must cross the sides
            side = self.bit_vector(u)
            for v in neighbors:
                if self.bit_vector(v) == side:
                    self._store_base(u, v)  # raises
            return self.levels[0].on_arrival(u, neighbors, int(side))
        bits = self.bits
        meter = self.meter
        k = self.num_levels
        getrandbits = self.rng.getrandbits
        bu = self.bit_vector(u)
        drawn = 0
        base = self.base_edges
        stored = len(base)
        groups: dict[int, list[int]] = {}  # lowest differing bit -> neighbors
        for v in neighbors:
            try:
                diff = bu ^ bits[v]
            except KeyError:
                bv = bits[v] = getrandbits(k) if k else 0
                drawn += 1
                diff = bu ^ bv
            if diff:
                low = diff & -diff
                group = groups.get(low)
                if group is None:
                    groups[low] = [v]
                else:
                    group.append(v)
            else:
                base.append((u, v))
        if drawn:
            meter.add(self._bitkey, drawn)
        if len(base) > stored:
            meter.add(self._basekey, 2 * (len(base) - stored))

        out: list[Assignment] = []
        for low, group in groups.items():
            level = low.bit_length() - 1
            degs = self.level_degrees[level]
            if degs is not None:
                bound = self.bounds[level]
                fresh = 0
                try:
                    d = degs[u] + len(group)
                except KeyError:
                    d = len(group)
                    fresh = 1
                if d > bound:
                    self._level_breach(u, d, level, fresh)
                degs[u] = d
                for v in group:
                    try:
                        d = degs[v] + 1
                    except KeyError:
                        d = 1
                        fresh += 1
                    if d > bound:
                        self._level_breach(v, d, level, fresh)
                    degs[v] = d
                if fresh:
                    meter.add(self._dkey, fresh)
            out.extend(self.levels[level].on_arrival(u, group, (bu >> level) & 1))
        return out


class EdgeBipartization(Bipartization):
    """Edge-arrival flavor: each edge feeds the dispatcher of its level,
    `feed_edge(online_endpoint, other)`."""

    def on_edge(self, a: int, b: int) -> list[Assignment]:
        """Route one edge as `route` would, reading each bit vector once."""
        bit_vector = self.bit_vector
        ba = bit_vector(a)
        diff = ba ^ bit_vector(b)
        if not diff:
            self._store_base(a, b)
            return []
        low = diff & -diff
        level = low.bit_length() - 1
        if self.level_degrees[level] is not None:
            self._bump_level_degree(a, level, 1)
            self._bump_level_degree(b, level, 1)
        # the bit-1 endpoint is the designated online side within a level
        if ba & low:
            return self.levels[level].feed_edge(a, b)
        return self.levels[level].feed_edge(b, a)
