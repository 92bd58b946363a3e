import random
from collections import deque

import pytest

from streamcolor.core import Run
from streamcolor.dispatch import (
    BatchIndexDispatcher,
    GroupedBatchDispatcher,
    batch_route,
    ceil_sqrt,
)
from streamcolor.errors import BoundViolation, FlushBudgetExceeded, NotBipartite
from streamcolor.palette import OfflineState
from streamcolor.presets import build_pipeline, run_stream
from streamcolor.stream import parse_stream


def test_ceil_sqrt():
    assert [ceil_sqrt(x) for x in (1, 2, 4, 8, 16, 17, 128, 256)] == [1, 2, 2, 3, 4, 5, 12, 16]


def test_batch_route_formula():
    assert batch_route(3, 2, 4) == 1
    assert batch_route(4, 0, 4) == 0  # wraps at k
    assert batch_route(1, 0, 4) == 1


def checker(assignments):
    seen = set()
    for u, v, c in assignments:
        for end in (u, v):
            key = (end, c)
            assert key not in seen, f"conflict at {key}"
            seen.add(key)


def regular_bipartite_edges(n, delta, seed):
    rng = random.Random(seed)
    shifts = rng.sample(range(n), delta)
    edges = [(u, n + (u + sh) % n) for sh in shifts for u in range(n)]
    rng.shuffle(edges)
    return edges


def test_no_emission_until_a_full_batch():
    run = Run()
    meter = run.meter
    d = BatchIndexDispatcher(16, seed=3, run=run)
    assert d.k == 4
    for j in range(3):
        assert d.feed_edge(0, 100 + j) == []
    assert meter.ledger[d._bkey] // 2 == 3
    out = d.feed_edge(0, 103)
    assert len(out) == 4
    assert meter.ledger[d._bkey] // 2 == 0


def test_batch_dispatch_conserves_edges_and_stays_proper():
    n, delta = 32, 9
    edges = regular_bipartite_edges(n, delta, seed=5)
    run = Run()
    meter = run.meter
    d = BatchIndexDispatcher(delta, seed=11, run=run)
    out = []
    for u, v in edges:
        out += d.feed_edge(u, v)
        assert sum(map(len, d.buffers.values())) <= n * (d.k - 1)
        assert meter.consistent()
    out += d.finalize()
    assert len(out) == len(edges)
    assert {(u, v) for u, v, _ in out} == set(edges)
    checker(out)


def test_sqrt_leftover_is_colored_against_the_buffer_keys():
    # a buffered edge sits under its bit-1 end, so the buffer keys are one
    # side of the leftover: a path takes its max degree, 2 colors, and a key
    # buffered as another key's neighbor is an edge inside one side
    run = Run()
    d = BatchIndexDispatcher(16, seed=3, run=run)
    for u, v in [(0, 100), (1, 100), (1, 101)]:
        d.feed_edge(u, v)
    out = d.finalize()
    assert run.alloc.blocks[-1][0::2] == ("sqrt:leftover", 2) and len(out) == 3
    checker(out)
    d = BatchIndexDispatcher(16, seed=3, run=Run())
    for u, v in [(0, 100), (1, 0)]:
        d.feed_edge(u, v)
    with pytest.raises(NotBipartite, match=r"witness puts edge \(1, 0\) inside one side"):
        d.finalize()


def test_batch_dispatch_is_deterministic():
    edges = regular_bipartite_edges(16, 4, seed=2)

    def run():
        d = BatchIndexDispatcher(4, seed=7, run=Run())
        out = []
        for u, v in edges:
            out += d.feed_edge(u, v)
        return out + d.finalize()

    assert run() == run()


def test_the_run_spill_totals_sum_over_its_colorers():
    # equal shift triples at the four offline neighbors, in every
    # sub-colorer: each online vertex's one batch of k = 4 edges has three
    # residues for four slots and spills, and the two batches take two colorers
    lines = ["H 4 8 16 edge 0 0"] + [f"e {u} {v}" for u in (0, 1) for v in (4, 5, 6, 7)]
    header, events = parse_stream(lines)
    pipeline = build_pipeline(header, "edge-sqrt", force_stream=True)
    run = pipeline.run
    (d,) = pipeline.inner.parts
    for sub in d.subs:
        for v in (4, 5, 6, 7):
            sub.states[v] = OfflineState(1, 2, 3)
            run.meter.add(f"{sub.name}:state", OfflineState.WORDS)
    out = []
    stats = run_stream(pipeline, events, emit=lambda u, v, c: out.append((u, v, c)))
    spilled = [sub for sub in d.subs if sub.spilled_vertices]
    assert len(spilled) == 2
    assert (stats.spilled_vertices, stats.spilled_edges) == (
        sum(sub.spilled_vertices for sub in spilled),
        sum(sub.spilled_edges_total for sub in spilled),
    ) == (2, 8)
    spill_blocks = [(base, width) for label, base, width in run.alloc.blocks
                    if label.endswith(":spill")]
    assert len(spill_blocks) == 2
    in_spill = [c for _, _, c in out if any(0 <= c - b < w for b, w in spill_blocks)]
    assert len(in_spill) == stats.spilled_edges == len(out)
    checker(out)
    # each colorer once, in the order of the stream blocks they reserved
    assert run.colorers == d.subs
    assert [f"{c.name}:stream" for c in run.colorers] == [
        label for label, _, _ in run.alloc.blocks if label.endswith(":stream")
    ]


def grouped(delta, s, cap, seed=0, flush_bound=10_000):
    run = Run()
    d = GroupedBatchDispatcher(
        delta,
        s,
        cap,
        side_of=lambda v: 0 if v < 1000 else 1,
        seed=seed,
        run=run,
        flush_bound=flush_bound,
    )
    return d, run.meter, run.alloc


def test_grouped_buffer_respects_its_cap():
    n, delta = 24, 8
    edges = [(u, 1000 + (u + sh) % n) for sh in (0, 3, 5, 7, 11, 13, 17, 19) for u in range(n)]
    random.Random(1).shuffle(edges)
    d, meter, alloc = grouped(delta, s=2, cap=40)
    out = []
    for u, v in edges:
        out += d.feed_edge(u, v)
        assert d.size <= 40
        assert meter.consistent()
    out += d.finalize()
    assert len(out) == len(edges)
    # offline-side batches own their edges, so compare unoriented
    assert {frozenset((u, v)) for u, v, _ in out} == {frozenset(e) for e in edges}
    checker(out)


def test_grouped_flushes_when_no_vertex_fills_a_batch():
    # star-free trickle: every vertex sees two edges, far below k
    d, meter, alloc = grouped(delta=64, s=1, cap=8)
    assert d.k == 8
    edges = [(i, 1000 + i) for i in range(8)] + [(i, 1000 + 8 + i) for i in range(8)]
    out = []
    for u, v in edges:
        out += d.feed_edge(u, v)
    assert d.flushes >= 1
    out += d.finalize()
    assert len(out) == len(edges)
    checker(out)


def test_grouped_drains_every_full_vertex_at_the_checkpoint():
    d, meter, alloc = grouped(delta=16, s=2, cap=10)
    assert d.k == 4
    out = []
    for j in range(4):  # two vertices four deep, then filler to hit the cap
        out += d.feed_edge(1, 1000 + j)
    for j in range(4):
        out += d.feed_edge(2, 1000 + 4 + j)
    for j in range(2):
        out += d.feed_edge(3 + j, 1000 + 8 + j)
    # checkpoint fired at size 10: both full vertices must have been drained
    assert len(d.adj.get(1, ())) < d.k and len(d.adj.get(2, ())) < d.k
    assert len(out) == 8
    out += d.finalize()
    assert len(out) == 10
    checker(out)


def test_flush_budget_is_enforced():
    d, meter, alloc = grouped(delta=64, s=1, cap=4, flush_bound=1)
    edges = [(i, 1000 + i) for i in range(4)] + [(10 + i, 1010 + i) for i in range(4)]
    with pytest.raises(FlushBudgetExceeded):
        for u, v in edges:
            d.feed_edge(u, v)


def test_grouped_leftover_is_colored_at_finalize():
    d, meter, alloc = grouped(delta=16, s=2, cap=100)
    out = []
    for j in range(3):
        out += d.feed_edge(5, 1000 + j)
    assert out == []
    out = d.finalize()
    assert len(out) == 3
    checker(out)
    assert d.size == 0


def test_s_is_clamped_to_the_batch_width():
    d, _, _ = grouped(delta=16, s=99, cap=100)
    assert d.s == d.k == 4


class DequeBufferDispatcher(GroupedBatchDispatcher):
    """Reference buffer: per-vertex deques of (other, edge id) with lazy
    deletion through a list of live flags, one per edge ever fed, and a
    separate per-vertex count, charged the dispatcher's 2 words per
    buffered edge. The dispatcher must drain, flush, route and charge
    exactly as this does."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.adj = {}
        self.alive: list[bool] = []
        self.counts: dict[int, int] = {}

    def feed_edge(self, a, b):
        eid = len(self.alive)
        self.alive.append(True)
        for x, y in ((a, b), (b, a)):
            lst = self.adj.get(x)
            if lst is None:
                lst = self.adj[x] = deque()
            lst.append((y, eid))
            cnt = self.counts.get(x, 0) + 1
            self.counts[x] = cnt
            if cnt == self.k:
                self.ready.append(x)
        self.size += 1
        self.run.meter.add(self._bkey, 2)
        if self.size < self.cap:
            return []
        return self._checkpoint()

    def _pop_ready(self):
        while self.ready:
            u = self.ready.popleft()
            if self.counts.get(u, 0) >= self.k:
                return u
        return None

    def _extract(self, u):
        k = self.k
        lst = self.adj[u]
        batch = []
        while len(batch) < k:
            v, eid = lst.popleft()
            if not self.alive[eid]:
                continue
            self.alive[eid] = False
            batch.append(v)
            self.counts[v] -= 1
        self.counts[u] -= k
        if self.counts[u] >= k:
            self.ready.append(u)
        self.size -= k
        self.run.meter.release(self._bkey, 2 * k)

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
        band = (count - 1) % self.group_width
        return self.arrays[self.side_of(u)][idx].on_online_vertex(u, batch, band)

    def _collect_live(self):
        edges = []
        for x, lst in self.adj.items():
            while lst:
                y, eid = lst.popleft()
                if self.alive[eid]:
                    self.alive[eid] = False
                    edges.append((x, y))
        self.counts.clear()
        self.ready.clear()
        released = self.size
        self.size = 0
        self.run.meter.release(self._bkey, 2 * released)
        self.adj.clear()
        return edges


def random_multigraph_stream(rng, n_side, delta, m):
    """Up to m random cross-side edges, parallel edges allowed, degrees <= delta."""
    degree = [0] * (2 * n_side)
    edges = []
    for _ in range(m):
        u = rng.randrange(n_side)
        v = n_side + rng.randrange(n_side)
        if degree[u] < delta and degree[v] < delta:
            degree[u] += 1
            degree[v] += 1
            edges.append((u, v) if rng.random() < 0.5 else (v, u))
    return edges


def run_grouped(cls, edges, n_side, delta, s, cap, seed):
    run = Run()
    meter = run.meter
    d = cls(
        delta,
        s,
        cap,
        side_of=lambda v: 0 if v < n_side else 1,
        seed=seed,
        run=run,
        flush_bound=10_000,
    )
    trace = []
    for u, v in edges:
        trace.append((d.feed_edge(u, v), meter.current_words, meter.peak_words))
    trace.append((d.finalize(), meter.current_words, meter.peak_words))
    return trace, dict(meter.ledger), d.flushes


def reference_cases():
    """300 random multigraph streams, each with its delta, s, cap and seed."""
    rng = random.Random(2024)
    for case in range(300):
        delta, s = [(4, 1), (9, 2), (16, 1), (16, 3), (25, 2)][case % 5]
        n_side = rng.randint(3, 12)
        edges = random_multigraph_stream(rng, n_side, delta, rng.randint(1, n_side * delta))
        cap = rng.randint(2, max(2, n_side * s))
        seed = rng.randrange(1 << 30)
        yield case, edges, n_side, delta, s, cap, seed


def matches_the_reference(cases):
    """Run both buffers on each case; return how many cases flushed."""
    flushed = 0
    for case, edges, *params in cases:
        got = run_grouped(GroupedBatchDispatcher, edges, *params)
        want = run_grouped(DequeBufferDispatcher, edges, *params)
        assert got == want, f"case {case}"
        flushed += got[2] > 0
    return flushed


def test_grouped_buffer_matches_the_deque_reference():
    assert matches_the_reference(reference_cases()) > 100


@pytest.mark.parametrize("key", [lambda e: e, lambda e: (e[1], e[0])],
                         ids=["by-first-endpoint", "by-second-endpoint"])
def test_grouped_buffer_matches_the_deque_reference_in_sorted_order(key):
    # the same streams, each vertex's edges arriving together: the far ends'
    # lists grow long, with parallel copies side by side, and a drain's
    # `remove` there must find the copy the drain took
    cases = ((case, sorted(edges, key=key), *params)
             for case, edges, *params in reference_cases())
    assert matches_the_reference(cases) > 100


def test_grouped_buffer_footprint_is_bounded_by_the_buffered_edges():
    n, delta, s = 256, 32, 1
    edges = regular_bipartite_edges(n, delta, seed=9)
    run = Run()
    meter = run.meter
    d = GroupedBatchDispatcher(
        delta,
        s,
        2 * n * s,
        side_of=lambda v: 0 if v < n else 1,
        seed=1,
        run=run,
        flush_bound=10_000,
    )
    bound = 2 * d.cap  # 1,024 against 8,192 edges fed
    for u, v in edges:
        d.feed_edge(u, v)
        assert sum(map(len, d.adj.values())) == 2 * d.size
        assert meter.ledger.get(d._bkey, 0) == 2 * d.size
        for name, value in vars(d).items():
            if hasattr(value, "__len__"):
                assert len(value) <= bound, name
    assert d.flushes > 0
    assert len(edges) > 4 * bound
