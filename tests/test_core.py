import random
from collections import Counter
from itertools import chain

import pytest

import streamcolor.core as core_mod
from streamcolor.core import OneSidedColorer, Run, block_width, color_block
from streamcolor.dispatch import BatchIndexDispatcher, GroupedBatchDispatcher
from streamcolor.errors import (
    BoundViolation,
    NotBipartite,
    TooManyBatches,
    TooManySlots,
)
from streamcolor.matching import maximum_matching
from streamcolor.harness import GenSpec, generate
from streamcolor.palette import OfflineState, draw_offline_state, period_for
from streamcolor.presets import build_pipeline
from streamcolor.stream import parse_stream


def make(delta, seed=0, **kw):
    run = Run()
    inst = OneSidedColorer(delta, random.Random(seed), run, **kw)
    return inst, run.meter, run.alloc


def plant(inst, v, shifts, deg=0):
    state = OfflineState(*shifts, deg=deg)
    inst.states[v] = state
    inst.run.meter.add(f"{inst.name}:state", OfflineState.WORDS)
    return state


def properly_colored(assignments):
    seen = set()
    for u, v, c in assignments:
        for end in (u, v):
            assert (end, c) not in seen
            seen.add((end, c))


def test_three_identical_triples_color_distinctly():
    inst, meter, alloc = make(10)
    p = inst.period
    for v in (100, 101, 102):
        plant(inst, v, (3, 7, 9))
    out = inst.on_online_vertex(0, [100, 101, 102])
    assert len(out) == 3
    bases = sorted(c % p for _, _, c in out)
    assert bases == [3, 7, 9]
    assert all(c < 3 * p for _, _, c in out)
    properly_colored(out)


def test_empty_arrival_is_a_no_op():
    inst, meter, alloc = make(10)
    assert inst.on_online_vertex(0, []) == []
    assert inst.spilled_vertices == 0 and not inst.spill


def test_overloaded_proposals_spill_and_still_count_degree():
    inst, _, _ = make(10)
    states = [plant(inst, 100 + i, (3, 7, 9)) for i in range(4)]
    out = inst.on_online_vertex(0, [100, 101, 102, 103])
    assert out == []
    assert inst.spilled_vertices == 1
    assert len(inst.spill) == 4
    assert all(st.deg == 1 for st in states)


def test_spilled_vertex_does_not_poison_later_arrivals():
    inst, _, _ = make(10)
    for i in range(4):
        plant(inst, 100 + i, (3, 7, 9))
    inst.on_online_vertex(0, [100, 101, 102, 103])  # spills
    out = inst.on_online_vertex(1, [100, 101, 102])  # degree moved to 1
    assert len(out) == 3
    properly_colored(out)
    final = inst.finalize()
    assert len(final) == 4
    properly_colored(out + final)


def test_a_second_finalize_after_a_spill_emits_and_reserves_nothing():
    inst, meter, alloc = make(10)
    for i in range(4):
        plant(inst, 100 + i, (3, 7, 9))
    inst.on_online_vertex(0, [100, 101, 102, 103])  # spills
    assert len(inst.finalize()) == 4
    blocks = list(alloc.blocks)
    assert inst.finalize() == []
    assert alloc.blocks == blocks
    assert meter.ledger[f"{inst.name}:spill"] == 0 and meter.consistent()


def test_batch_colors_carry_the_batch_index():
    inst, _, _ = make(16, bands=4)
    p = inst.period
    assert p == 44
    # distinct base bands so the matching picks each slot's first proposal
    plant(inst, 100, (7, 20, 33))
    plant(inst, 101, (9, 22, 35))
    plant(inst, 102, (11, 24, 37))
    plant(inst, 103, (13, 26, 39))
    first = inst.on_online_vertex(0, [100, 101, 102, 103], 0)
    assert [c for _, _, c in first] == [7, 9, 11, 13]
    # the same vertex's second batch: degrees moved to 1, block offset 3P
    second = inst.on_online_vertex(0, [100, 101, 102, 103], 1)
    assert [c for _, _, c in second] == [3 * p + 8, 3 * p + 10, 3 * p + 12, 3 * p + 14]
    assert second[0][2] == 140


def test_first_batch_low_base_stays_in_block_zero():
    inst, _, _ = make(16, bands=4)
    for i, v in enumerate((100, 101, 102, 103)):
        plant(inst, v, (10 * i, 10 * i + 1, 10 * i + 2))
    out = inst.on_online_vertex(5, [100, 101, 102, 103], 0)
    assert all(c < 3 * 44 for _, _, c in out)
    assert out[0][2] == 0


def test_batch_count_is_capped():
    inst, _, _ = make(16, bands=1)
    for v in (100, 101, 102, 103):
        plant(inst, v, (v % 44, (v + 5) % 44, (v + 11) % 44))
    inst.on_online_vertex(0, [100, 101, 102, 103], 0)
    # a band past the block, or before it, never reaches a color
    for band in (1, -1):
        with pytest.raises(TooManyBatches):
            inst.on_online_vertex(0, [100, 101, 102, 103], band)
    assert all(st.deg == 1 for st in inst.states.values())


def test_arrival_beyond_the_degree_bound_raises_too_many_slots():
    inst, _, _ = make(2)
    with pytest.raises(TooManySlots):
        inst.on_online_vertex(0, [10, 11, 12])


def test_offline_cap_is_a_hard_error():
    inst, _, _ = make(10)
    plant(inst, 100, (3, 7, 9), deg=inst.period - 1)  # the cap is P
    inst.on_online_vertex(0, [100])
    with pytest.raises(BoundViolation):
        inst.on_online_vertex(1, [100])


def test_a_spill_wider_than_delta_passes_the_budget_and_emits_nothing():
    # the budget counts the spill block as at most delta colors, but an
    # offline vertex may collect up to P spilled edges; the allocator stops
    # the run before a color past the budget is emitted
    inst, _, alloc = make(4)
    alloc.budget = alloc.total + alloc.promised
    assert (inst.period, alloc.budget) == (11, 37)
    for v in (100, 101, 102, 103):
        plant(inst, v, (1, 2, 3))  # four equal triples: three colors for four edges
    for u in range(5):
        assert inst.on_online_vertex(u, [100, 101, 102, 103]) == []
    assert inst.spilled_edges_total == 20
    with pytest.raises(BoundViolation, match="spill of 5 colors at 33 passes the budget 37"):
        inst.finalize()
    assert [label for label, _, _ in alloc.blocks] == ["one-sided:stream"]


def test_finalize_with_empty_spill_emits_nothing():
    inst, _, _ = make(10)
    plant(inst, 100, (1, 2, 3))
    inst.on_online_vertex(0, [100])
    assert inst.finalize() == []


def test_single_spilled_edge_takes_first_fresh_color():
    inst, _, alloc = make(10)
    p = inst.period
    plant(inst, 100, (1, 2, 3), deg=1)  # a spilled neighbor holds state
    inst.spill.append((0, 100))
    inst.spilled_edges_total += 1
    inst.run.meter.add(f"{inst.name}:spill", 2)
    out = inst.finalize()
    assert len(out) == 1
    assert out[0][2] == 3 * p  # fresh block begins right after the bands
    assert inst.spill == []


def test_spilled_path_needs_at_most_two_fresh_colors():
    inst, _, _ = make(10)
    p = inst.period
    plant(inst, 100, (1, 2, 3), deg=2)
    plant(inst, 101, (4, 5, 6), deg=1)
    for e in [(0, 100), (1, 100), (1, 101)]:  # path with middle degree 2
        inst.spill.append(e)
    inst.spilled_edges_total += 3
    inst.run.meter.add(f"{inst.name}:spill", 6)
    out = inst.finalize()
    assert len(out) == 3
    assert all(3 * p <= c < 3 * p + 2 for _, _, c in out)
    properly_colored(out)


@pytest.mark.parametrize("edge", [(0, 1), (100, 101)])  # two arrivals, two neighbors
def test_spill_is_colored_against_the_offline_states(edge):
    # the spill block's witness is "holds offline state here": an injected
    # edge inside one side is caught, where a search would find it bipartite
    inst, meter, alloc = make(10)
    plant(inst, 100, (1, 2, 3), deg=1)
    plant(inst, 101, (4, 5, 6), deg=1)
    inst.spill += [(0, 100), edge, (1, 101)]
    meter.add(f"{inst.name}:spill", 6)
    with pytest.raises(NotBipartite, match=rf"witness puts edge \({edge[0]}, {edge[1]}\)"):
        inst.finalize()


def run_regular_stream(delta, n, seed):
    inst, meter, alloc = make(delta, seed)
    rng = random.Random(seed + 1)
    out = []
    offsets = list(range(n))
    rng.shuffle(offsets)
    for u in range(n):
        nbrs = [n + ((u + offsets[j]) % n) for j in range(delta)]
        out += inst.on_online_vertex(u, nbrs)
        assert meter.consistent()
    out += inst.finalize()
    return inst, meter, alloc, out


def test_full_run_proper_within_budget_and_space():
    for seed in range(5):
        delta, n = 8, 64
        inst, meter, alloc, out = run_regular_stream(delta, n, seed)
        assert len(out) == delta * n
        properly_colored(out)
        p = period_for(delta)
        assert len({c for _, _, c in out}) <= 3 * p + delta
        assert alloc.total <= 3 * p + delta
        assert inst.spilled_edges_total <= delta * inst.spilled_vertices
        assert meter.peak_words <= 5 * n + 2 * inst.spilled_edges_total + 8 * delta


def test_no_offline_vertex_repeats_a_color_across_the_run():
    inst, meter, alloc, out = run_regular_stream(6, 48, 7)
    per_offline = {}
    for _, v, c in out:
        per_offline.setdefault(v, set())
        assert c not in per_offline[v]
        per_offline[v].add(c)


SAME_SIDE = [(0, 2), (1, 0)]  # 0 and 1 both on side 0 of `below_two`
EVEN_CYCLE = [(0, 1), (1, 2), (2, 3), (3, 0)]


def below_two(v):
    return 0 if v < 2 else 1


@pytest.mark.parametrize(
    "flavor, edges, side_of, width",
    [
        ("exact", SAME_SIDE, below_two, None),  # the witness is contradicted
        ("greedy", SAME_SIDE, below_two, 3),  # never checks sides: 2D - 1 colors
        ("exact", EVEN_CYCLE, lambda v: v % 2, 2),  # with its sides: D colors
        ("general", EVEN_CYCLE, None, 3),  # no search for sides: D + 1 colors
        ("general", [(0, 1), (1, 2), (0, 2)], None, 3),  # triangle: D + 1 colors
    ],
)
def test_color_block_by_flavor(flavor, edges, side_of, width):
    run = Run()
    meter, alloc = run.meter, run.alloc
    # a block colored before, as a dispatcher's meter has after its first
    # flush: the scratch key is in the ledger, at zero words
    color_block([(5, 6)], (6).__eq__, "first", run)
    meter.add("stored", 2 * len(edges))
    before = meter.current_words, dict(meter.ledger)
    handed = list(edges)  # the call consumes the list it is handed
    if width is None:
        with pytest.raises(NotBipartite) as raised:
            color_block(handed, side_of, "block", run, flavor)
        assert str(raised.value) == "witness puts edge (1, 0) inside one side"
    else:
        out = color_block(handed, side_of, "block", run, flavor)
        assert handed == []
        assert alloc.blocks[-1] == ("block", 1, width) == ("block", 1, block_width(flavor, 2))
        assert [(u, v) for u, v, _ in out] == edges
        assert all(1 <= c < 1 + width for _, _, c in out)
        properly_colored(out)
    assert (meter.current_words, meter.ledger) == before


# --- a stored block colored in place ---


def scratch_words(flavor, m, n, d):
    """What a block's colorer charges for m edges on n vertices of max
    degree d: the 2m handed edge ends, which move into its table, and per
    vertex one id word and a used-color bitmask (the greedy colorer charges
    only the edge ends, which move into its used-color sets); an exact block
    with every vertex at degree d has a flat table, whose n * d cells are
    charged up front."""
    if flavor == "greedy":
        return 2 * m
    palette = d if flavor == "exact" else d + 1
    flat = n * d if flavor == "exact" and n * d == 2 * m else 0
    return 2 * m + n * (1 + -(-palette // 64)) + flat


def spy_colorers(monkeypatch, meter):
    """Wrap the three offline colorers where `color_block` calls them; each
    call records (flavor, words live as it starts, words it added at its
    peak, `scratch_words` of its block, whether it emptied its list)."""
    calls = []
    for name, flavor in (("color_bipartite_exact", "exact"), ("color_general", "general"),
                         ("color_greedy", "greedy")):

        def spy(edges, *args, real=getattr(core_mod, name), flavor=flavor):
            degrees = Counter(chain.from_iterable(edges))
            expected = scratch_words(flavor, len(edges), len(degrees), max(degrees.values()))
            live, held = meter.current_words, meter.peak_words
            meter.peak_words = live  # the peak of this call alone
            out = real(edges, *args)
            calls.append((flavor, live, meter.peak_words - live, expected, edges == []))
            meter.peak_words = max(held, meter.peak_words)
            return out

        monkeypatch.setattr(core_mod, name, spy)
    return calls


def mixed_orientation(edges):
    """Every other edge turned around: given high to low and low to high."""
    return [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(edges)]


# a 4-regular bipartite graph on 8 + 8 vertices (ids 0-7 and 8-15)
REGULAR = mixed_orientation([(u, 8 + (u + j) % 8) for j in range(4) for u in range(8)])
GENERAL = mixed_orientation([(a, b) for a in range(5) for b in range(a + 1, 5)] + [(4, 5), (5, 6)])


@pytest.mark.parametrize(
    "flavor, edges, side_of, width",
    [
        ("exact", REGULAR, (8).__le__, 4),  # every vertex at degree D: a flat table
        ("exact", REGULAR[:-1], (8).__le__, 4),  # one edge short: `_Cells` dicts
        ("general", GENERAL, None, 6),
        ("greedy", GENERAL, None, 9),
    ],
    ids=["exact-flat", "exact-dict", "general", "greedy"],
)
def test_a_block_is_colored_in_place(flavor, edges, side_of, width, monkeypatch):
    run = Run()
    meter = run.meter
    calls = spy_colorers(monkeypatch, meter)
    meter.add("caller", 100)  # what the caller holds besides the list it hands over
    handed = list(edges)
    assert {u < v for u, v in handed} == {True, False}
    out = color_block(handed, side_of, "block", run, flavor)
    assert handed == []  # consumed
    assert [(u, v) for u, v, _ in out] == edges  # each edge as it was given
    assert run.alloc.blocks == [("block", 0, width)]
    assert all(0 <= c < width for _, _, c in out)
    properly_colored(out)
    [(called, live, added, expected, emptied)] = calls
    assert (called, live, emptied) == (flavor, 100, True)
    assert added == expected
    assert meter.peak_words == 100 + expected and meter.current_words == 100
    if edges is REGULAR:
        assert expected == 4 * len(edges) + 16 * 2  # the flat table: 4m
    else:
        assert expected < 3 * len(edges) + 16 * 2


def spill_case():
    inst, meter, _ = make(10)
    for i in range(4):
        plant(inst, 100 + i, (3, 7, 9))
    assert inst.on_online_vertex(0, [100, 101, 102, 103]) == []  # spilled
    return meter, inst.finalize, f"{inst.name}:spill"


def flush_case():
    # 3 edges at each of 6 + 6 vertices, under k = 4: the 18th edge fills the
    # buffer's cap, no vertex holds a batch, and the whole buffer is flushed
    run = Run()
    d = GroupedBatchDispatcher(16, 1, 18, side_of=(6).__le__, seed=1, run=run, flush_bound=4)
    edges = mixed_orientation([(u, 6 + (u + j) % 6) for j in range(3) for u in range(6)])
    for u, v in edges[:-1]:
        assert d.feed_edge(u, v) == []

    def flush():  # the last edge's 2 words join the buffer, then all of it leaves
        out = d.feed_edge(*edges[-1])
        assert d.flushes == 1 and len(out) == len(edges)
        return out

    return run.meter, flush, d._bkey


def sqrt_leftover_case():
    run = Run()
    d = BatchIndexDispatcher(16, seed=3, run=run)  # k = 4: three edges never make a batch
    for u in range(5):
        for j in range(3):
            assert d.feed_edge(u, 100 + (u + j) % 5) == []
    return run.meter, d.finalize, d._bkey


def pipeline_case(family, mode, delta, alg, key):
    text = generate(GenSpec(family, 64, delta, mode, 5))
    header, events = parse_stream(text.splitlines())
    pipeline = build_pipeline(header, alg)
    out = []
    for event in events:
        pipeline.feed(event, out)
    assert pipeline.run.meter.ledger[key] > 0
    return pipeline.run.meter, pipeline.finalize, key


CALLERS = {
    "one-sided spill": spill_case,
    "grouped flush": flush_case,
    "sqrt leftover": sqrt_leftover_case,
    # Δ = 12 at n = 64 is below the first level's threshold: every edge
    # goes to the base store
    "base store": lambda: pipeline_case("regular-general", "vertex-two-sided", 12,
                                        "vertex-general", "bipart:base-store"),
    "stored graph": lambda: pipeline_case("regular-bipartite", "edge", 8, "offline-exact",
                                          "stored-graph"),
}


@pytest.mark.parametrize("caller", CALLERS)
def test_every_caller_releases_its_list_just_before_coloring_it(caller, monkeypatch):
    # The list's words leave the caller's key as the call starts and come
    # back as the colorer's scratch: the peak of the call is the caller's
    # other live words plus the colorer's own charge, and nothing holds the
    # list twice or leaves it uncharged.
    meter, trigger, key = CALLERS[caller]()
    before, held = meter.current_words, meter.ledger[key]
    calls = spy_colorers(monkeypatch, meter)
    trigger()
    [(_, live, added, expected, emptied)] = calls
    assert live == before - held
    assert added == expected
    assert emptied
    assert meter.ledger[key] == 0 and meter.consistent()


class MatcherColorer(OneSidedColorer):
    """Reference arrival body: every slot built first, one `maximum_matching`
    call over all of them, then each color's proposal by `slot.index`."""

    def on_online_vertex(self, u, neighbors, band=0):
        if not 0 <= band < self.bands:
            raise TooManyBatches(f"vertex {u}: band {band} is outside {self.bands} bands")
        d = len(neighbors)
        if d == 0:
            return []
        if d > self.delta:
            raise TooManySlots(f"arrival of {d} edges exceeds the degree bound {self.delta}")
        meter = self.run.meter
        p = self.period
        states = []
        slots = []
        for v in neighbors:
            st = self.states.get(v)
            if st is None:
                st = draw_offline_state(self.rng, p)
                self.states[v] = st
                meter.add(self._mkey, OfflineState.WORDS)
            dg = st.deg
            if dg >= p:
                raise BoundViolation(
                    f"{self.name}: offline vertex {v} would pass its degree cap {p}"
                )
            states.append(st)
            slots.append(((st.r1 + dg) % p, (st.r2 + dg) % p, (st.r3 + dg) % p))
        for st in states:
            st.deg += 1
        meter.add(self._tkey, 6 * d)
        matched = maximum_matching(slots)
        meter.release(self._tkey, 6 * d)
        if -1 not in matched:
            base = self.block + band * 3 * p
            return [
                (u, v, base + slot.index(y) * p + y)
                for v, slot, y in zip(neighbors, slots, matched)
            ]
        self.spill.extend((u, v) for v in neighbors)
        meter.add(self._skey, 2 * d)
        self.spilled_vertices += 1
        self.spilled_edges_total += d
        return []


def colorer_state(inst, meter):
    states = {v: (st.r1, st.r2, st.r3, st.deg) for v, st in inst.states.items()}
    return (states, inst.spill, inst.spilled_vertices, inst.spilled_edges_total,
            meter.ledger, meter.current_words, meter.peak_words)


def outcome(inst, u, neighbors, band):
    try:
        return inst.on_online_vertex(u, neighbors, band)
    except BoundViolation as exc:
        return str(exc)


def test_greedy_pick_matches_the_matcher_reference(monkeypatch):
    # the colorer calls the full matcher only when its greedy pick leaves a
    # slot unmatched; the reference calls it on every arrival
    rescued = []

    def counted(slots):
        matched = maximum_matching(slots)
        rescued.append(-1 not in matched)
        return matched

    monkeypatch.setattr(core_mod, "maximum_matching", counted)
    spilled = arrivals = raised = 0
    for seed in range(240):
        rng = random.Random(seed)
        delta = rng.randint(4, 10)
        bands = rng.randint(1, 3)
        fast, fast_meter, fast_alloc = make(delta, seed, bands=bands)
        slow = MatcherColorer(delta, random.Random(seed), Run(), bands=bands)
        # a small offline pool, drawn with replacement: repeated neighbors
        # in one arrival are common, and four copies of one always spill
        pool = range(100, 100 + rng.randint(delta, 3 * delta))
        for u in range(rng.randint(5, 40)):
            neighbors = [rng.choice(pool) for _ in range(rng.randint(1, delta))]
            band = rng.randrange(bands)
            before = fast.spilled_vertices
            got = outcome(fast, u, neighbors, band)
            assert got == outcome(slow, u, neighbors, band)
            assert colorer_state(fast, fast_meter) == colorer_state(slow, slow.run.meter)
            arrivals += 1
            spilled += fast.spilled_vertices - before
            if isinstance(got, str):  # an offline vertex reached its cap
                raised += 1
                break
        assert fast.finalize() == slow.finalize()
        assert colorer_state(fast, fast_meter) == colorer_state(slow, slow.run.meter)
        assert fast_alloc.blocks == slow.run.alloc.blocks
    # the greedy pick failed and the full matcher still matched every slot
    assert rescued.count(True) > 0
    assert spilled > 0 and rescued.count(False) == spilled
    assert arrivals > 2000 and raised > 0
