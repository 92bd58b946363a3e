"""Reductions that lift the bipartite one-sided colorers to richer inputs.

`Bipartization` is the one router of every two-sided stream. On a
general graph every vertex draws one random bit per level; an edge
belongs to the first level where its endpoints' bits differ, which makes
each level a bipartite graph (sides = bit value). Declared level degree
bounds shrink geometrically with a 1.5x safety slack; the recursion
stops once the declared bound drops below max(10 * log2 n, 16), and
everything deeper lands in a base store that is colored offline at the
end as a general graph, with one color more than its max degree. A
declared-bipartite header is the case of one level whose sides are
known: its bound is delta, a vertex's bit is its header side (online ids
have bit 1), no bit is drawn or stored, there is no base store, and an
edge inside one side is an input error.

A level is the list of its parts. Under vertex arrivals those are two
one-sided colorers with disjoint blocks, one per side: an arriving vertex
is online within the level and goes to the colorer of its own side, with
the edges of its group. Under edge arrivals a level is one dispatcher.

Level degrees are counted only at levels whose bound is below delta: the
stream parser already holds every vertex to delta, so a counter at any
other level could never trip. Both arrival kinds count through one
routine, `_count_level`. Passing a counted bound is a hard error: the run
stops rather than risking a conflict. A vertex arrival is routed in one
pass over its neighbors (`VertexBipartization.on_vertex`), a block of
edge arrivals in one loop over its edges (`EdgeBipartization.on_block`),
by each edge's bit vectors.
"""

from __future__ import annotations

import math
from typing import Callable

from .core import Run, block_width, color_block
from .errors import BoundViolation, ModeMismatch
from .rng import child_rng
from .stream import Assignment


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
    which returns the list of the level's parts: the two side colorers
    (vertex arrivals) or one dispatcher (edge arrivals), all built on the
    one `run`. Each part has `finalize()`; the router finalizes them in
    level order, parts in list order.
    `n_online`, given for a declared-bipartite header, replaces the random
    levels with the one level of the header's sides.
    """

    name = "bipart"  # in its meter keys, block labels and errors
    simple = False  # whether the base store is known to hold no repeated edge
    _bitkey = "bipart:bits"
    _dkey = "bipart:level-degrees"
    _basekey = "bipart:base-store"

    def __init__(
        self,
        n: int,
        delta: int,
        seed: int,
        run: Run,
        level_factory: Callable[[int, int], list],
        n_online: int | None = None,
    ):
        self.run = run
        self.header_sides = n_online is not None
        self.bounds = [delta] if self.header_sides else plan_levels(n, delta)
        self.levels = [level_factory(i, d) for i, d in enumerate(self.bounds)]
        self.num_levels = len(self.levels)
        self.parts = [part for level in self.levels for part in level]
        if self.header_sides:
            self.bit_vector = n_online.__gt__  # online ids have bit 1; nothing stored
        else:
            run.alloc.promised += block_width("general", delta)  # the base store
        self.rng = child_rng(seed, 0xB1)
        self.bits: dict[int, int] = {}
        # None marks a level with no counters: its bound is at least delta
        self.level_degrees: list[dict[int, int] | None] = [
            {} if d < delta else None for d in self.bounds
        ]
        self.base_edges: list[tuple[int, int]] = []

    def bit_vector(self, v: int) -> int:
        bv = self.bits.get(v)
        if bv is None:
            bv = self.rng.getrandbits(self.num_levels) if self.num_levels else 0
            self.bits[v] = bv
            self.run.meter.add(self._bitkey, 1)
        return bv

    def route(self, u: int, v: int) -> int:
        """Level of the first differing bit, or -1 for the base store."""
        diff = self.bit_vector(u) ^ self.bit_vector(v)
        if diff == 0:
            return -1
        return (diff & -diff).bit_length() - 1

    def side_of(self, v: int, level: int) -> int:
        return (self.bit_vector(v) >> level) & 1

    def _count_level(self, level: int, u: int, group) -> None:
        """Count u's edges to `group` at a counted level: len(group) on u and
        1 on each vertex of the group. New entries are charged in one meter
        call, the breaching one included; past the bound the run stops."""
        degs = self.level_degrees[level]
        bound = self.bounds[level]
        fresh = 0
        step = len(group)
        for v in (u, *group):
            try:
                d = degs[v] + step
            except KeyError:
                d = step
                fresh += 1
            if d > bound:
                self.run.meter.add(self._dkey, fresh)
                raise BoundViolation(
                    f"{self.name}: vertex {v} reached degree {d} at level {level}, "
                    f"declared bound {bound}"
                )
            degs[v] = d
            step = 1
        self.run.meter.add(self._dkey, fresh)

    def _store_base(self, u: int, v: int) -> None:
        """Keep an edge no level takes; under header sides it is an input error."""
        if self.header_sides:
            raise ModeMismatch(f"edge ({u}, {v}) does not cross the declared sides")
        self.base_edges.append((u, v))
        self.run.meter.add(self._basekey, 2)

    def finalize(self) -> list[Assignment]:
        out: list[Assignment] = []
        for part in self.parts:
            out.extend(part.finalize())
        edges, self.base_edges = self.base_edges, []
        self.run.meter.release(self._basekey, 2 * len(edges))
        out += color_block(edges, None, f"{self.name}:base", self.run, "general", self.simple)
        return out


class VertexBipartization(Bipartization):
    """Vertex-arrival flavor: one arrival fans out into per-level arrivals.

    The arriving vertex is online in every level that receives a piece of
    its edge group; within a level it goes to the colorer of its own side.
    Each level is its pair of side colorers, `[side 0, side 1]`.
    """

    # a vertex arrives once and names each neighbor that has arrived once
    # (the stream parser checks both, and `on_vertex` relies on them), so no
    # edge can repeat: the base store is colored without the general
    # colorer's first-copy dict, its largest uncharged structure
    simple = True

    def on_vertex(self, u: int, neighbors) -> list[Assignment]:
        """Route a whole arrival in one pass, as `route` per edge would.

        Bit vectors are drawn on first sight in `route`'s order (u just
        before its first neighbor), the level is the lowest set bit of the
        xor, and the meter takes one charge per key and arrival where
        `route` took one per edge: the neighbors' new bit vectors, the
        base edges, and each level's new degree entries. All of these are
        additions with nothing released between them, so the ledger and
        the peak are the per-edge ones.

        `u` arrives once, and `neighbors` are distinct vertices that arrived
        before it, as the stream parser checks: the base store's coloring
        relies on it (`simple`).
        """
        if not neighbors:
            return []
        if self.header_sides:  # one level; every edge must cross the sides
            side = self.bit_vector(u)
            for v in neighbors:
                if self.bit_vector(v) == side:
                    self._store_base(u, v)  # raises
            return self.levels[0][side].on_online_vertex(u, neighbors)
        bits = self.bits
        meter = self.run.meter
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
            if self.level_degrees[level] is not None:
                self._count_level(level, u, group)
            out.extend(self.levels[level][(bu >> level) & 1].on_online_vertex(u, group))
        return out


class EdgeBipartization(Bipartization):
    """Edge-arrival flavor: each edge feeds the dispatcher of its level,
    `[dispatcher]`, as `feed_edge(online_endpoint, other)`."""

    def on_block(self, us, vs, out: list[Assignment]) -> None:
        """Route edges (us[i], vs[i]) in order, as `route` would, appending
        their assignments to `out`; if an edge raises, `out` keeps those of
        the edges before it.

        Each bit vector is read once; under header sides it is the id
        comparison with `n_online`, so every edge lands on level 0.
        """
        feeds = [level[0].feed_edge for level in self.levels]
        bit_vector = self.bit_vector
        level_degrees = self.level_degrees
        for a, b in zip(us, vs):
            ba = bit_vector(a)
            diff = ba ^ bit_vector(b)
            if not diff:
                self._store_base(a, b)
                continue
            low = diff & -diff
            level = low.bit_length() - 1
            if level_degrees[level] is not None:
                self._count_level(level, a, (b,))
            # the bit-1 endpoint is the designated online side within a level
            got = feeds[level](a, b) if ba & low else feeds[level](b, a)
            if got:
                out += got
