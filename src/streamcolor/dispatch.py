"""Edge-arrival adapters: buffering into exact-size batches plus the
random shift decompositions that keep sub-colorer degrees balanced.

`BatchIndexDispatcher` serves the sqrt regime. Edges are buffered under
their designated online endpoint; whenever a vertex holds k = ceil(sqrt(D))
edges they leave as one batch, routed by the vertex's random batch shift
b_u to one of k whole-vertex colorers, each sized for degree 2k. The shift
makes each edge's batch index uniform, so no sub-colorer's offline side
concentrates, even when an adversary frontloads all edges of one vertex.

`GroupedBatchDispatcher` serves the general space budget n*s. The buffer
is capped at n*s edges and both endpoints count. At each cap checkpoint,
vertices holding at least k edges are drained batch by batch; batches are
grouped (ceil(k/s) batches per group) and the group shift g_u routes each
group to one of s colorers per side, distinct for each group of a vertex,
each batch to the band of its index in its group. If the checkpoint finds
no such vertex, the whole buffer (max degree below k) is colored offline
with one fresh block and dropped.

The grouped buffer is one insertion-ordered dict per vertex, edge id to
other endpoint, with each buffered edge under both of its endpoints. A
drain takes a vertex's first k entries and deletes each edge at both ends,
so everything the buffer holds is bounded by the edges buffered, at most
n*s, plus one entry per vertex seen since the last flush; nothing grows
with the length of the stream.

Leftover buffered edges at end of stream are colored offline with a final
fresh block, against the buffer keys (sqrt) or the router's `side_of`
(grouped) as sides. Every input edge is emitted exactly once: through a
sub-colorer, a flush block, a spill block, or the leftover block.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import islice
from typing import Callable

from .core import OneSidedColorer, Run, color_block
from .errors import BoundViolation, FlushBudgetExceeded
from .rng import child_rng
from .stream import Assignment


def ceil_sqrt(n: int) -> int:
    k = math.isqrt(n)
    return k if k * k == n else k + 1


def batch_route(batch_number: int, shift: int, k: int) -> int:
    """Sub-colorer index for a vertex's next batch (1-based batch count)."""
    return (batch_number + shift) % k


class BatchIndexDispatcher:
    """Buffers edges per online vertex; full batches fan out over k colorers."""

    def __init__(
        self,
        delta: int,
        seed: int,
        run: Run,
        name: str = "sqrt",
    ):
        self.k = ceil_sqrt(delta)
        self.max_batches = -(-delta // self.k)  # <= k, so batch indices stay injective
        self.run = run
        self.name = name
        self.rng = child_rng(seed, 0)
        self.subs = [
            OneSidedColorer(2 * self.k, child_rng(seed, 1 + i), run, name=f"{name}:H{i}")
            for i in range(self.k)
        ]
        run.alloc.promised += delta  # the leftover block
        self.buffers: dict[int, deque[int]] = {}
        self.batch_count: dict[int, int] = {}
        self.batch_shift: dict[int, int] = {}
        self._bkey = f"{name}:buffer"
        self._ckey = f"{name}:counters"

    def feed_edge(self, u: int, v: int) -> list[Assignment]:
        """Insert one edge, oriented (designated online endpoint, other)."""
        buf = self.buffers.get(u)
        if buf is None:
            buf = self.buffers[u] = deque()
        buf.append(v)
        meter = self.run.meter
        meter.add(self._bkey, 2)
        if len(buf) < self.k:
            return []

        batch = [buf.popleft() for _ in range(self.k)]
        meter.release(self._bkey, 2 * self.k)
        count = self.batch_count.get(u)
        if count is None:
            count = 0
            self.batch_shift[u] = self.rng.randrange(self.k)
            meter.add(self._ckey, 2)
        count += 1
        if count > self.max_batches:
            raise BoundViolation(f"{self.name}: vertex {u} exceeded {self.max_batches} batches")
        self.batch_count[u] = count
        x = batch_route(count, self.batch_shift[u], self.k)
        return self.subs[x].on_online_vertex(u, batch)

    def finalize(self) -> list[Assignment]:
        leftover = [(u, v) for u, buf in self.buffers.items() for v in buf]
        # the buffers are keyed by the level's bit-1 ends only: their keys,
        # kept without the buffers, are one side
        online = dict.fromkeys(self.buffers)
        self.buffers = {}
        self.run.meter.release(self._bkey, 2 * len(leftover))
        out = color_block(leftover, online.__contains__, f"{self.name}:leftover", self.run)
        for sub in self.subs:
            out.extend(sub.finalize())
        return out


class GroupedBatchDispatcher:
    """Capped buffer with batch draining, group-shift routing, and flushes."""

    def __init__(
        self,
        delta: int,
        s: int,
        cap: int,
        side_of: Callable[[int], int],
        seed: int,
        run: Run,
        flush_bound: int,
        name: str = "general",
    ):
        self.k = ceil_sqrt(delta)
        self.s = max(1, min(s, self.k))  # s beyond ceil(sqrt(delta)) buys nothing
        self.group_width = -(-self.k // self.s)
        # palette sizing: offline side concentrates to ~2*delta/s under the
        # shifts; the online side is capped outright by a group's edges
        sub_delta = max(-(-2 * delta // self.s), min(self.group_width * self.k, delta))
        self.cap = cap
        self.side_of = side_of
        self.run = run
        self.name = name
        self.flush_bound = flush_bound
        self.flushes = 0
        self.rng = child_rng(seed, 0)
        self.arrays = [
            [
                OneSidedColorer(
                    sub_delta,
                    child_rng(seed, 1 + side * self.s + i),
                    run,
                    bands=self.group_width,
                    name=f"{name}:side{side}:G{i}",
                )
                for i in range(self.s)
            ]
            for side in (0, 1)
        ]
        # flush blocks of under k colors each, and the leftover block
        run.alloc.promised += flush_bound * self.k + delta

        # adj[x] maps each buffered edge id at x to its other endpoint, in
        # arrival order; len(adj[x]) is x's buffered count. A vertex keeps its
        # (possibly empty) dict until the buffer is emptied, so the flush
        # walks vertices in first-arrival order.
        self.adj: dict[int, dict[int, int]] = {}
        self.ready: deque[int] = deque()
        self.size = 0
        self.next_eid = 0
        self.batch_count: dict[int, int] = {}
        self.group_shift: dict[int, int] = {}
        self._bkey = f"{name}:buffer"
        self._ckey = f"{name}:counters"

    def feed_edge(self, a: int, b: int) -> list[Assignment]:
        eid = self.next_eid
        self.next_eid = eid + 1
        adj = self.adj
        k = self.k
        at = adj.get(a)
        if at is None:
            at = adj[a] = {}
        at[eid] = b
        if len(at) == k:
            self.ready.append(a)
        at = adj.get(b)
        if at is None:
            at = adj[b] = {}
        at[eid] = a
        if len(at) == k:
            self.ready.append(b)
        size = self.size + 1
        self.size = size
        # SpaceMeter.add(self._bkey, 4), inline: this runs once per edge
        meter = self.run.meter
        ledger = meter.ledger
        ledger[self._bkey] = ledger.get(self._bkey, 0) + 4
        words = meter.current_words + 4
        meter.current_words = words
        if words > meter.peak_words:
            meter.peak_words = words
        if size < self.cap:
            return []
        return self._checkpoint()

    def _checkpoint(self) -> list[Assignment]:
        # drain every vertex holding a full batch, then flush if still full
        out: list[Assignment] = []
        while True:
            u = self._pop_ready()
            if u is not None:
                out.extend(self._extract(u))
                continue
            if self.size >= self.cap:
                out.extend(self._flush())
            return out

    def _pop_ready(self) -> int | None:
        while self.ready:
            u = self.ready.popleft()
            if len(self.adj[u]) >= self.k:
                return u
        return None

    def _extract(self, u: int) -> list[Assignment]:
        k = self.k
        adj = self.adj
        at = adj[u]
        taken = list(islice(at.items(), k))
        batch: list[int] = []
        for eid, v in taken:
            del at[eid]
            del adj[v][eid]
            batch.append(v)
        if len(at) >= k:
            self.ready.append(u)
        self.size -= k
        self.run.meter.release(self._bkey, 4 * k)

        count = self.batch_count.get(u)
        if count is None:
            count = 0
            self.group_shift[u] = self.rng.randrange(self.s)
            self.run.meter.add(self._ckey, 2)
        count += 1
        self.batch_count[u] = count
        group = -(-count // self.group_width)
        if group > self.s:
            raise BoundViolation(f"{self.name}: vertex {u} exceeded {self.s} groups")
        idx = (group + self.group_shift[u]) % self.s
        side = self.side_of(u)
        return self.arrays[side][idx].on_online_vertex(u, batch, (count - 1) % self.group_width)

    def _collect_live(self) -> list[tuple[int, int]]:
        # each edge is taken at the first of its endpoints in adj order and
        # deleted at the other one
        edges: list[tuple[int, int]] = []
        adj = self.adj
        for x, at in adj.items():
            for eid, y in at.items():
                edges.append((x, y))
                del adj[y][eid]
        adj.clear()
        self.ready.clear()
        released = self.size
        self.size = 0
        self.run.meter.release(self._bkey, 4 * released)
        return edges

    def _flush(self) -> list[Assignment]:
        # every vertex holds under k buffered edges here, so one block of
        # fewer than k fresh colors covers the whole buffer
        self.flushes += 1
        if self.flushes > self.flush_bound:
            raise FlushBudgetExceeded(
                f"{self.name}: {self.flushes} flushes exceed the bound {self.flush_bound}"
            )
        edges = self._collect_live()
        out = color_block(edges, self.side_of, f"{self.name}:flush{self.flushes}", self.run)
        if out and self.run.alloc.blocks[-1][2] >= self.k:
            raise AssertionError("flush with a full batch still buffered")
        return out

    def finalize(self) -> list[Assignment]:
        edges = self._collect_live()
        out = color_block(edges, self.side_of, f"{self.name}:leftover", self.run)
        for side in (0, 1):
            for sub in self.arrays[side]:
                out.extend(sub.finalize())
        return out
