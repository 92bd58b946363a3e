import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor.core import OneSidedColorer, Run
from streamcolor.errors import InstanceTooLarge
from streamcolor.matching import brute_force_match, kout_trial, maximum_matching, sample_distinct
from streamcolor.palette import OfflineState, period_for


def valid(slots, result):
    """A perfect matching: one distinct color per slot, each in its slot."""
    assert len(result) == len(slots)
    assert -1 not in result
    assert len(set(result)) == len(result)
    for c, slot in zip(result, slots):
        assert c in slot


def test_identical_triples_up_to_three_slots_match():
    slots = [(3, 7, 9)] * 3
    m = maximum_matching(slots)
    valid(slots, m)
    assert sorted(m) == [3, 7, 9]


def test_four_slots_over_three_colors_fail():
    slots = [(3, 7, 9)] * 4
    assert -1 in maximum_matching(slots)
    assert brute_force_match(slots) is None


def test_empty_graph_matches_trivially():
    assert maximum_matching([]) == []
    assert brute_force_match([]) == []


def test_single_slot_takes_lowest_color():
    assert maximum_matching([(0, 1, 2)]) == [0]
    assert brute_force_match([(2, 1, 0)]) == [(0, 2)]


def arrival_colors(delta, states):
    """Block-relative colors an arrival takes from offline vertices holding
    `states`, split as (band, base) with base < P."""
    inst = OneSidedColorer(delta, random.Random(0), Run())
    p = inst.period
    neighbors = list(range(1, len(states) + 1))
    inst.states.update(zip(neighbors, states))
    return [divmod(c - inst.block, p) for _, _, c in inst.on_online_vertex(0, neighbors)]


def test_build_color_graph_drops_band_offsets():
    # three neighbors with slot (8, 14, 23): bases are (shift + deg) mod P,
    # with no band offset; the band is added only to the output color
    states = [OfflineState(5, 11, 20, deg=3) for _ in range(3)]
    assert sorted(arrival_colors(10, states)) == [(0, 8), (1, 14), (2, 23)]


def test_build_color_graph_identity_at_degree_zero():
    states = [OfflineState(3, 7, 9) for _ in range(3)]
    assert sorted(arrival_colors(10, states)) == [(0, 3), (1, 7), (2, 9)]


def test_brute_force_rejects_large_instances():
    with pytest.raises(InstanceTooLarge):
        brute_force_match([(0, 1, 2)] * 13)


def random_slots(rng, max_slots=10, palette=12):
    n = rng.randrange(0, max_slots + 1)
    return [tuple(sample_distinct(rng, palette, 3)) for _ in range(n)]


def test_matcher_agrees_with_exhaustive_oracle():
    rng = random.Random(2024)
    for _ in range(2000):
        slots = random_slots(rng)
        fast = maximum_matching(slots)
        slow = brute_force_match(slots)
        assert (-1 in fast) == (slow is None)
        if slow is not None:
            valid(slots, fast)


def test_matching_is_deterministic():
    rng = random.Random(5)
    slots = random_slots(rng, max_slots=8)
    first = maximum_matching(slots)
    for _ in range(5):
        assert maximum_matching(slots) == first


def test_three_or_fewer_slots_always_match():
    # every slot has three distinct colors, so sets of size <= 3 can never
    # violate the neighborhood-size condition
    rng = random.Random(11)
    for _ in range(2000):
        n = rng.randrange(0, 4)
        slots = [tuple(sample_distinct(rng, 9, 3)) for _ in range(n)]
        assert -1 not in maximum_matching(slots)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_adding_a_neighbor_never_breaks_a_matching(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    slots = [tuple(sample_distinct(rng, 10, 3)) for _ in range(rng.randrange(1, 9))]
    if -1 in maximum_matching(slots):
        return
    i = rng.randrange(len(slots))
    extra = rng.randrange(10, 14)
    bigger = list(slots)
    bigger[i] = slots[i] + (extra,)
    assert -1 not in maximum_matching(bigger)


def test_sample_distinct_is_uniform_enough():
    rng = random.Random(3)
    counts = [0] * 6
    n = 60_000
    for _ in range(n):
        for x in sample_distinct(rng, 6, 3):
            counts[x] += 1
    # each element appears in a 3-subset of [6] with probability 1/2
    sigma = (0.5 * 0.5 / n) ** 0.5
    for c in counts:
        assert abs(c / n - 0.5) < 4 * sigma


def test_sample_distinct_produces_distinct_values():
    rng = random.Random(9)
    for _ in range(500):
        out = sample_distinct(rng, 20, 7)
        assert len(set(out)) == 7
        assert all(0 <= x < 20 for x in out)


def test_kout_trivial_cases_always_match():
    rng = random.Random(1)
    assert all(kout_trial(1, 3, 3, rng) for _ in range(100))
    assert all(kout_trial(2, 6, 3, rng) for _ in range(500))


def test_kout_requires_sane_parameters():
    with pytest.raises(ValueError):
        kout_trial(2, 2, 3, random.Random(0))


def test_maximum_matching_on_hall_violator_is_partial():
    got = maximum_matching([(0, 1), (0, 1), (0, 1)])
    assert sorted(c for c in got if c != -1) == [0, 1]
    assert got.count(-1) == 1


def recursive_hopcroft_karp(slots):
    """Reference matcher: Hopcroft-Karp with every phase run by BFS and a
    recursive DFS, including the first one (one recursion level per
    augmenting-path layer)."""
    n = len(slots)
    adj = [sorted(s) for s in slots]
    match_slot = [-1] * n
    match_color = {}
    dist = [0] * n

    while True:
        queue = deque()
        for i in range(n):
            if match_slot[i] == -1:
                dist[i] = 0
                queue.append(i)
            else:
                dist[i] = -1
        reachable_free = False
        while queue:
            i = queue.popleft()
            for c in adj[i]:
                j = match_color.get(c, -1)
                if j == -1:
                    reachable_free = True
                elif dist[j] == -1:
                    dist[j] = dist[i] + 1
                    queue.append(j)
        if not reachable_free:
            break

        def advance(i):
            for c in adj[i]:
                j = match_color.get(c, -1)
                if j == -1 or (dist[j] == dist[i] + 1 and advance(j)):
                    match_slot[i] = c
                    match_color[c] = i
                    return True
            dist[i] = -1
            return False

        for i in range(n):
            if match_slot[i] == -1:
                advance(i)

    return match_slot


def test_matcher_equals_the_recursive_reference():
    rng = random.Random(4242)
    instances = []
    # arrivals as the one-sided colorer builds them: delta slots, each
    # three distinct proposals out of P = ceil(2.72 delta)
    for delta, count in ((8, 1500), (32, 1000), (128, 300)):
        p = period_for(delta)
        for _ in range(count):
            d = rng.randrange(1, delta + 1)
            instances.append([tuple(sample_distinct(rng, p, 3)) for _ in range(d)])
    # Hall violators: more slots than the palette holds colors
    for _ in range(1200):
        palette = rng.randrange(2, 8)
        n = rng.randrange(palette + 1, 3 * palette + 2)
        k = min(3, palette)
        instances.append([tuple(sample_distinct(rng, palette, k)) for _ in range(n)])
    # ragged slots of one to four colors
    for _ in range(1200):
        palette = rng.randrange(4, 24)
        n = rng.randrange(0, 20)
        instances.append(
            [tuple(sample_distinct(rng, palette, rng.randrange(1, 5))) for _ in range(n)]
        )
    assert len(instances) >= 5000
    partial = 0
    for slots in instances:
        got = maximum_matching(slots)
        assert got == recursive_hopcroft_karp(slots)
        partial += -1 in got
    assert partial > 1000  # the phases after the greedy pass ran and ended short


def test_deep_augmenting_path_needs_no_recursion():
    # greedy gives slot i color i, so the last slot's only color is taken and
    # its augmenting path runs through all 3,000 chained slots
    slots = [(i, i + 1) for i in range(3000)] + [(0,)]
    got = maximum_matching(slots)
    assert got == [i + 1 for i in range(3000)] + [0]
