import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor.core import OneSidedColorer, Run
from streamcolor.dispatch import BatchIndexDispatcher
from streamcolor.errors import BoundViolation, ModeMismatch
from streamcolor.harness import GenSpec, check_assignments, generate
from streamcolor.palette import OfflineState
from streamcolor.presets import build_pipeline, run_stream
from streamcolor.rng import child_rng
from streamcolor.stream import StreamHeader, parse_stream
from streamcolor.reductions import (
    EdgeBipartization,
    VertexBipartization,
    level_degree_bound,
    plan_levels,
    stop_threshold,
)


def checker(assignments):
    seen = set()
    for u, v, c in assignments:
        for end in (u, v):
            key = (end, c)
            assert key not in seen, f"conflict at {key}"
            seen.add(key)


def test_level_bounds_shrink_with_slack():
    assert level_degree_bound(128, 0) == 192
    assert level_degree_bound(128, 1) == 96
    assert level_degree_bound(128, 2) == 48
    assert level_degree_bound(5, 0) == 8


def test_plan_levels_respects_the_stop_rule():
    assert stop_threshold(1024) == 100.0
    assert plan_levels(1024, 128) == [192]
    assert plan_levels(256, 128) == [192, 96]
    assert plan_levels(1024, 2) == []  # everything lands in the base store
    assert stop_threshold(2) == 16.0


def side_factory(run):
    """Levels of vertex arrivals: one colorer per side."""
    def factory(level, bound):
        return [OneSidedColorer(bound, child_rng(level + 50, side), run,
                                name=f"L{level}:side{side}")
                for side in (0, 1)]

    return factory


def dispatcher_factory(run):
    """Levels of edge arrivals: one dispatcher."""
    def factory(level, bound):
        return [BatchIndexDispatcher(bound, level + 50, run, name=f"L{level}")]

    return factory


def make_tree(n, delta, seed=0, cls=VertexBipartization, n_online=None):
    run = Run()
    make = dispatcher_factory if issubclass(cls, EdgeBipartization) else side_factory
    tree = cls(n, delta, seed, run, make(run), n_online=n_online)
    return tree, run.meter, run.alloc


class PerEdgeCounts:
    """Reference level-degree counting: one vertex and one meter charge at a
    time."""

    def _bump_level_degree(self, v, level, amount):
        degs = self.level_degrees[level]
        if degs is None:
            return
        d = degs.get(v)
        if d is None:
            d = 0
            self.run.meter.add(self._dkey, 1)
        d += amount
        if d > self.bounds[level]:
            raise BoundViolation(
                f"{self.name}: vertex {v} reached degree {d} at level {level}, "
                f"declared bound {self.bounds[level]}"
            )
        degs[v] = d


class PerEdgeRouter(PerEdgeCounts, VertexBipartization):
    """Reference router: `route` and one meter charge per edge, then one
    `_bump_level_degree` per vertex and level."""

    def on_vertex(self, u, neighbors):
        out = []
        groups = {}
        for v in neighbors:
            level = self.route(u, v)
            if level < 0:
                self._store_base(u, v)
            else:
                groups.setdefault(level, []).append(v)
        for level, group in groups.items():
            self._bump_level_degree(u, level, len(group))
            for v in group:
                self._bump_level_degree(v, level, 1)
            side = self.side_of(u, level)
            out.extend(self.levels[level][side].on_online_vertex(u, group))
        return out


class PerEdgeSplitter(PerEdgeCounts, EdgeBipartization):
    """Reference edge router: per edge, `route`, then one
    `_bump_level_degree` per endpoint."""

    def on_block(self, us, vs, out):
        for a, b in zip(us, vs):
            level = self.route(a, b)
            if level < 0:
                self._store_base(a, b)
                continue
            self._bump_level_degree(a, level, 1)
            self._bump_level_degree(b, level, 1)
            if self.side_of(a, level):
                out += self.levels[level][0].feed_edge(a, b)
            else:
                out += self.levels[level][0].feed_edge(b, a)


def router_state(tree, meter):
    return (tree.bits, tree.level_degrees, tree.base_edges, meter.ledger,
            meter.current_words, meter.peak_words)


def test_route_picks_first_differing_bit():
    tree, _, _ = make_tree(256, 128)  # two levels at this scale
    assert tree.num_levels == 2
    tree.bits[0] = 0b01
    tree.bits[1] = 0b00
    tree.bits[2] = 0b11
    tree.bits[3] = 0b01
    assert tree.route(0, 1) == 0
    assert tree.route(1, 2) == 0
    assert tree.route(0, 2) == 1
    assert tree.route(0, 3) == -1  # identical bits: base store


def test_level_zero_cut_is_about_half():
    tree, _, _ = make_tree(1024, 128)
    rng = random.Random(6)
    n_trials = 100_000
    hits = 0
    for i in range(n_trials):
        a, b = 2 * i, 2 * i + 1  # fresh vertex pair each trial
        if tree.route(a, b) == 0:
            hits += 1
    sigma = (0.25 / n_trials) ** 0.5
    assert abs(hits / n_trials - 0.5) <= 3 * sigma


def test_base_store_triangle_uses_three_colors():
    tree, meter, alloc = make_tree(64, 2)  # no levels at this scale
    assert tree.num_levels == 0
    out = []
    out += tree.on_vertex(0, [])
    out += tree.on_vertex(1, [0])
    out += tree.on_vertex(2, [0, 1])
    assert out == []  # everything waits in the base store
    final = tree.finalize()
    assert len(final) == 3
    assert len({c for _, _, c in final}) == 3
    checker(final)


@pytest.mark.parametrize(
    "arrivals, width",
    [
        ([(0, []), (1, [0])], 2),  # one edge
        ([(0, []), (1, []), (2, [0, 1]), (3, [0, 1]), (4, [0, 1])], 4),  # K(2,3)
    ],
)
def test_base_store_is_colored_as_a_general_graph(arrivals, width, monkeypatch):
    # no search for sides: a bipartite residue also takes max degree + 1
    # colors, the width the router's budget counts for it
    import streamcolor.core as core_mod

    monkeypatch.setattr(core_mod, "color_bipartite_exact", None)  # never called
    tree, _, alloc = make_tree(64, width - 1)
    assert tree.num_levels == 0
    for u, neighbors in arrivals:
        assert tree.on_vertex(u, neighbors) == []
    final = tree.finalize()
    assert len(final) == sum(len(nbrs) for _, nbrs in arrivals)
    assert alloc.blocks == [("bipart:base", 0, width)] and alloc.promised == width
    checker(final)


def test_general_vertex_arrivals_end_to_end():
    n, delta = 64, 6
    rng = random.Random(33)
    # random graph with degree cap, presented in vertex-arrival order
    adj = {v: [] for v in range(n)}
    edges = set()
    for _ in range(400):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b or (min(a, b), max(a, b)) in edges:
            continue
        if len(adj[a]) >= delta or len(adj[b]) >= delta:
            continue
        edges.add((min(a, b), max(a, b)))
        adj[a].append(b)
        adj[b].append(a)
    tree, meter, alloc = make_tree(n, delta, seed=4)
    out = []
    arrived = set()
    for v in range(n):
        nbrs = [w for w in adj[v] if w in arrived]
        out += tree.on_vertex(v, nbrs)
        arrived.add(v)
        assert meter.consistent()
    out += tree.finalize()
    assert len(out) == len(edges)
    assert {(min(u, v), max(u, v)) for u, v, _ in out} == edges
    checker(out)


def test_level_degree_breach_is_fatal():
    tree, meter, _ = make_tree(256, 128)
    bound = tree.bounds[1]  # 96: level 1 is the first bound below delta, so counted
    tree._count_level(1, 7, list(range(100, 100 + bound)))  # 7 at the bound
    assert meter.ledger["bipart:level-degrees"] == bound + 1
    with pytest.raises(BoundViolation) as err:
        tree._count_level(1, 7, [99])
    assert str(err.value) == "bipart: vertex 7 reached degree 97 at level 1, declared bound 96"
    assert tree.level_degrees[1][7] == bound and 99 not in tree.level_degrees[1]


def level_pair(n, delta, seed):
    """The pipeline of a declared-bipartite vertex stream with `n` ids per
    side, and its one level: the side-0 and side-1 colorers."""
    pipeline = build_pipeline(StreamHeader(n, n, delta, "vertex-two-sided", 0, seed),
                              "vertex-general")
    pair = pipeline.inner.levels[0]
    assert [c.name for c in pair] == ["L0:side0", "L0:side1"]
    return pipeline, pair


def test_level_colorer_pair_routes_both_sides():
    n = 8
    pipeline, pair = level_pair(n, 3, seed=9)
    out = []
    out += pair[0].on_online_vertex(0, [])
    out += pair[1].on_online_vertex(n + 0, [0])
    out += pair[0].on_online_vertex(1, [n + 0])
    out += pair[1].on_online_vertex(n + 1, [0, 1])
    assert len(out) == 4
    checker(out)
    out += pipeline.finalize()
    assert sum(c.spilled_edges_total for c in pipeline.run.colorers) == 0


def test_level_colorer_pair_blocks_are_disjoint():
    _, pair = level_pair(100, 4, seed=1)
    a = pair[0].on_online_vertex(0, [])
    b = pair[1].on_online_vertex(100, [0])
    c = pair[0].on_online_vertex(1, [100])
    colors_side1 = {color for _, _, color in b}
    colors_side0 = {color for _, _, color in c}
    assert colors_side0.isdisjoint(colors_side1)


@pytest.mark.parametrize("seed", range(4))
def test_one_pass_router_matches_the_per_edge_reference(seed):
    assert plan_levels(16, 128) == [192, 96, 48]
    fast, fast_meter, fast_alloc = make_tree(16, 128, seed=seed)
    slow, slow_meter, slow_alloc = make_tree(16, 128, seed=seed, cls=PerEdgeRouter)
    rng = random.Random(seed)
    order = list(range(300))
    rng.shuffle(order)
    arrived = []
    degree = dict.fromkeys(order, 0)
    empty = 0
    colors = set()
    for u in order:
        # about one arrival in five has no neighbors; the rest pick up to
        # 30 arrived vertices, keeping every degree at most 60
        room = [v for v in arrived if degree[v] < 60]
        want = 0 if rng.random() < 0.2 else rng.randrange(0, min(30, len(room)) + 1)
        neighbors = rng.sample(room, want)
        empty += not neighbors
        for v in neighbors:
            degree[v] += 1
        degree[u] = want
        got = fast.on_vertex(u, tuple(neighbors))
        assert got == slow.on_vertex(u, list(neighbors))
        colors.update(c for _, _, c in got)
        assert router_state(fast, fast_meter) == router_state(slow, slow_meter)
        arrived.append(u)
    assert empty > 20
    # every level used: each one emitted a color from one of its stream blocks
    for level in fast.levels:
        assert any(
            c.block <= color < c.block + c.block_width for c in level for color in colors
        )
    assert fast.finalize() == slow.finalize()
    assert router_state(fast, fast_meter) == router_state(slow, slow_meter)
    assert fast_alloc.total == slow_alloc.total


def test_one_pass_router_breach_matches_the_per_edge_reference():
    states = []
    for cls in (VertexBipartization, PerEdgeRouter):
        tree, meter, _ = make_tree(16, 128, cls=cls)
        # bit vectors 0b100 against 0b000 put an edge on level 2, bound 48
        tree.bits.update({v: 0b000 for v in range(48)})
        tree.bits.update({99: 0b100, 200: 0b000, 300: 0b100, 301: 0b100, 302: 0b100})
        assert len(tree.on_vertex(99, list(range(48)))) == 48  # 99 at the bound
        # 200, 300 and 301 get new degree entries before 99 goes past it
        with pytest.raises(BoundViolation) as err:
            tree.on_vertex(200, [300, 301, 99, 302])
        states.append((str(err.value), *router_state(tree, meter)))
    assert states[0] == states[1]
    assert states[0][0] == "bipart: vertex 99 reached degree 49 at level 2, declared bound 48"


def test_edge_router_breach_matches_the_per_edge_reference():
    states = []
    for cls in (EdgeBipartization, PerEdgeSplitter):
        tree, meter, _ = make_tree(16, 128, cls=cls)
        # bit vectors 0b100 against 0b000 put an edge on level 2, bound 48
        tree.bits.update({v: 0b100 for v in range(48)})
        tree.bits.update({99: 0b000, 200: 0b100})
        out = []
        tree.on_block(range(48), [99] * 48, out)  # 99 at the bound
        # 200 gets a new degree entry before 99 goes past it
        with pytest.raises(BoundViolation) as err:
            tree.on_block([200], [99], out)
        states.append((str(err.value), out, *router_state(tree, meter)))
    assert states[0] == states[1]
    message, _, _, level_degrees, _, ledger, *_ = states[0]
    assert message == "bipart: vertex 99 reached degree 49 at level 2, declared bound 48"
    # 200 keeps its new entry, charged with the breach; 99 stays at the bound
    assert level_degrees[2] == {**dict.fromkeys(range(48), 1), 99: 48, 200: 1}
    assert ledger["bipart:level-degrees"] == 50


def random_edge_blocks(rng, ids, pairable, cap):
    """Random edges (a, b) with pairable(a, b), no id past `cap` edges, in
    random orientation, cut into blocks of 1 to 64 edges."""
    degree = dict.fromkeys(ids, 0)
    edges = []
    for _ in range(20 * len(ids)):
        a, b = rng.choice(ids), rng.choice(ids)
        if a != b and pairable(a, b) and degree[a] < cap and degree[b] < cap:
            degree[a] += 1
            degree[b] += 1
            edges.append((a, b))
    blocks = []
    while edges:
        size = rng.randint(1, 64)
        block, edges = edges[:size], edges[size:]
        blocks.append(([a for a, _ in block], [b for _, b in block]))
    return blocks


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n_online", [None, 150])
def test_block_router_matches_the_per_edge_reference(seed, n_online):
    rng = random.Random(seed)
    ids = list(range(300))
    if n_online is None:  # random levels [192, 96, 48] and the base store
        assert plan_levels(16, 128) == [192, 96, 48]
        pairable = int.__ne__
    else:  # header sides: one level, every edge crosses them
        def pairable(a, b):
            return (a < n_online) != (b < n_online)
    fast, fast_meter, fast_alloc = make_tree(16, 128, seed, n_online=n_online,
                                             cls=EdgeBipartization)
    slow, slow_meter, slow_alloc = make_tree(16, 128, seed, n_online=n_online,
                                             cls=PerEdgeSplitter)
    emitted = 0
    for us, vs in random_edge_blocks(rng, ids, pairable, 60):
        fast_out, slow_out = [], []
        fast.on_block(us, vs, fast_out)
        slow.on_block(us, vs, slow_out)
        assert fast_out == slow_out
        assert router_state(fast, fast_meter) == router_state(slow, slow_meter)
        emitted += len(fast_out)
    assert emitted > 1000
    if n_online is None:
        assert fast.base_edges and all(fast.level_degrees[1:])
    else:
        assert fast.bits == {} and fast.level_degrees == [None]
    assert fast.finalize() == slow.finalize()
    assert router_state(fast, fast_meter) == router_state(slow, slow_meter)
    assert fast_alloc.total == slow_alloc.total


def test_block_router_stops_at_a_breach_inside_a_block():
    states = []
    for cls in (EdgeBipartization, PerEdgeSplitter):
        tree, meter, _ = make_tree(16, 128, cls=cls)
        # bit vectors 0b100 against 0b000 put an edge on level 2, bound 48,
        # batches of k = 7
        tree.bits.update({v: 0b100 for v in range(48)})
        tree.bits.update({v: 0b000 for v in range(99, 120)})
        tree.bits.update({200: 0b100, 300: 0b100})
        out = []
        tree.on_block(range(48), [99] * 48, out)  # 99 at the bound
        # 300's seven edges leave as one batch, then the 9th edge breaches
        us = [300] * 7 + [108, 99, 300]
        vs = list(range(100, 107)) + [200, 200, 109]
        with pytest.raises(BoundViolation) as err:
            tree.on_block(us, vs, out)
        states.append((str(err.value), out, *router_state(tree, meter)))
    assert states[0] == states[1]
    message, out, *_ = states[0]
    assert message == "bipart: vertex 99 reached degree 49 at level 2, declared bound 48"
    assert sorted((u, v) for u, v, _ in out) == [(300, v) for v in range(100, 107)]


def test_block_router_stops_at_a_same_side_edge_inside_a_block():
    states = []
    for cls in (EdgeBipartization, PerEdgeSplitter):
        tree, meter, _ = make_tree(16, 128, cls=cls, n_online=150)
        # online 0 fills a batch of k = 12 (both orientations), then the
        # 14th edge joins two online ids
        us = [0] * 6 + list(range(156, 162)) + [160, 1, 2]
        vs = list(range(150, 156)) + [0] * 6 + [3, 2, 151]
        out = []
        with pytest.raises(ModeMismatch) as err:
            tree.on_block(us, vs, out)
        states.append((str(err.value), out, *router_state(tree, meter)))
    assert states[0] == states[1]
    message, out, *_ = states[0]
    assert message == "edge (1, 2) does not cross the declared sides"
    assert sorted((u, v) for u, v, _ in out) == [(0, v) for v in range(150, 162)]


def run_preset(family, mode, n, delta, alg, **kwargs):
    header, events = parse_stream(generate(GenSpec(family, n, delta, mode, 5)).splitlines())
    pipeline = build_pipeline(header, alg, **kwargs)
    stats = run_stream(pipeline, events, emit=lambda u, v, c: None)
    assert stats.edges_emitted == n * delta // (1 if header.bipartite else 2)
    return pipeline


@pytest.mark.parametrize(
    "mode, alg, kwargs",
    [("vertex-two-sided", "vertex-general", {}),
     ("edge", "edge-general", {"s": 2, "force_stream": True})],
)
def test_header_sides_draw_no_bits_and_count_no_level_degrees(mode, alg, kwargs):
    pipeline = run_preset("regular-bipartite", mode, 64, 16, alg, **kwargs)
    assert pipeline.inner.header_sides and pipeline.inner.bounds == [16]
    assert pipeline.inner.bits == {} and pipeline.inner.level_degrees == [None]
    keys = [k for k in pipeline.run.meter.ledger if k.endswith((":bits", ":level-degrees"))]
    assert keys == []


def test_general_router_counts_no_level_degrees_at_level_zero():
    pipeline = run_preset("regular-general", "vertex-two-sided", 256, 128, "vertex-general")
    tree = pipeline.inner
    assert tree.bounds == [192, 96]  # only level 1 is below delta
    assert tree.level_degrees[0] is None and tree.level_degrees[1]
    assert pipeline.run.meter.ledger["bipart:level-degrees"] == len(tree.level_degrees[1])


def general_stream(mode, edges, seed):
    """A simple general graph on 256 ids under header delta 128, as a
    two-sided vertex stream (ids arrive in order) or an edge stream."""
    lines = [f"H 256 0 128 {mode} 0 {seed}"]
    if mode == "edge":
        lines += [f"e {a} {b}" for a, b in edges]
    else:
        earlier = {u: [] for u in range(256)}
        for a, b in edges:
            earlier[b].append(a)
        lines += [" ".join(map(str, ["V", u, *earlier[u]])) for u in range(256)]
    return lines


@settings(max_examples=25, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 255), st.integers(0, 255)).filter(lambda e: e[0] < e[1]),
            min_size=50, max_size=600),
    st.integers(0, 1000),
)
def test_counted_level_through_both_arrival_kinds(edges, seed):
    edges = sorted(edges)
    random.Random(seed).shuffle(edges)
    for mode, alg, kwargs in [
        ("vertex-two-sided", "vertex-general", {}),
        ("edge", "edge-sqrt", {"force_stream": True}),
        ("edge", "edge-general", {"s": 2, "force_stream": True}),
    ]:
        header, events = parse_stream(general_stream(mode, edges, seed))
        pipeline = build_pipeline(header, alg, **kwargs)
        tree = pipeline.inner
        assert tree.bounds == [192, 96]  # level 1 is counted
        out = []
        stats = run_stream(pipeline, events, emit=lambda u, v, c: out.append((u, v, c)))
        report = check_assignments(dict.fromkeys(edges, 0), out, budget=stats.declared_budget)
        assert report.ok, (alg, report)
        assert pipeline.run.meter.consistent()
        ledger = pipeline.run.meter.ledger
        assert ledger.get("bipart:level-degrees", 0) == len(tree.level_degrees[1])


# (0, 1) three times, the last turned around; 0 and 1 reach Δ = 4 with the copies
REPEATS = "H 6 0 4 edge 0 3\ne 0 1\ne 1 2\ne 0 1\ne 2 0\ne 1 0\ne 3 4\n"


@pytest.mark.parametrize(
    "alg, force, simple",
    [
        ("edge-sqrt", False, False),  # stored graph: the store-and-color fallback
        ("edge-general", True, False),  # no level at n = 6: the edge router's base store
        ("vertex-general", False, True),  # a vertex stream cannot repeat an edge
    ],
    ids=["stored-graph", "edge-base-store", "vertex-base-store"],
)
def test_a_repeated_edge_takes_its_first_copy_s_color(alg, force, simple, monkeypatch):
    import streamcolor.core as core_mod

    flags = []
    real = core_mod.color_general
    monkeypatch.setattr(core_mod, "color_general", lambda *args: flags.append(args[5]) or real(*args))
    text = REPEATS
    if alg == "vertex-general":
        text = "H 6 0 4 vertex-two-sided 0 3\nV 0\nV 1 0\nV 2 1 0\nV 3\nV 4 3\n"
    header, events = parse_stream(text.splitlines())
    out = []
    stats = run_stream(build_pipeline(header, alg, force_stream=force), events,
                       emit=lambda u, v, c: out.append((u, v, c)))
    assert flags == [simple]
    assert len(out) == stats.edges_emitted
    checker(list({(min(u, v), max(u, v)): (u, v, c) for u, v, c in out}.values()))
    if not simple:
        assert [(u, v) for u, v, _ in out] == [(0, 1), (1, 2), (0, 1), (2, 0), (1, 0), (3, 4)]
        assert out[0][2] == out[2][2] == out[4][2]
        assert len({c for _, _, c in out}) == 3


# Δ = 16: edge-general at s = 4 = ceil(sqrt(16)) runs the sqrt dispatcher, as edge-sqrt does
@pytest.mark.parametrize("alg, s", [("edge-sqrt", 1), ("edge-general", 2), ("edge-general", 3),
                                    ("edge-general", 4)])
def test_dispatcher_fed_colorers_hold_only_offline_state(alg, s):
    # the dispatcher counts each vertex's batches and names the band, so a
    # sub-colorer charges OfflineState.WORDS per offline vertex and nothing more
    pipeline = run_preset("adversarial-frontload", "edge", 64, 16, alg, s=s, force_stream=True)
    (dispatcher,) = pipeline.inner.parts
    if isinstance(dispatcher, BatchIndexDispatcher):
        subs = dispatcher.subs
    else:
        subs = dispatcher.arrays[0] + dispatcher.arrays[1]
    ledger = pipeline.run.meter.ledger
    held = 0
    for sub in subs:
        assert ledger.get(f"{sub.name}:state", 0) == OfflineState.WORDS * len(sub.states)
        assert [k for k, v in vars(sub).items() if isinstance(v, dict)] == ["states"]
        held += len(sub.states)
    assert held
