import random

import pytest

from streamcolor.core import OneSidedColorer, Run
from streamcolor.errors import BoundViolation, PeriodTooSmall
from streamcolor.palette import (
    ColorAllocator,
    OfflineState,
    draw_offline_state,
    period_for,
)
from streamcolor.presets import build_pipeline
from streamcolor.stream import StreamHeader


def test_period_is_exact_integer_ceiling():
    assert period_for(10) == 28
    assert period_for(16) == 44
    assert period_for(1) == 3
    assert period_for(25) == 68  # 2.72 * 25 = 68 exactly
    assert period_for(100) == 272


def one_edge_color(delta, state):
    """The color, within its colorer's block, that a one-edge arrival takes
    from an offline vertex holding `state`: the lowest of the three bases
    (shift + degree) mod P, in its own band."""
    inst = OneSidedColorer(delta, random.Random(0), Run())
    inst.states[1] = state
    [(_, _, color)] = inst.on_online_vertex(0, [1])
    return color - inst.block


def test_proposals_match_hand_evaluation():
    p = period_for(10)  # 28
    assert one_edge_color(10, OfflineState(5, 11, 20, deg=3)) == 8  # bases 8, 14, 23
    assert one_edge_color(10, OfflineState(26, 0, 1, deg=5)) == 3  # bases 3, 5, 6
    assert one_edge_color(10, OfflineState(20, 0, 9, deg=7)) == p + 7  # bases 27, 7, 16
    assert one_edge_color(10, OfflineState(5, 11, 20, deg=10)) == 2 * p + 2  # bases 15, 21, 2


def test_proposals_at_degree_zero_are_the_shifts():
    p = period_for(7)
    for shifts in [(0, 1, 2), (5, 9, 13), (p - 1, 0, 1)]:
        band = shifts.index(min(shifts))
        assert one_edge_color(7, OfflineState(*shifts)) == band * p + min(shifts)


def test_bands_tile_disjoint_ranges():
    rng = random.Random(0)
    for delta in (2, 5, 17, 64):
        p = period_for(delta)
        for _ in range(50):
            state = draw_offline_state(rng, p)
            deg = state.deg = rng.randrange(delta)
            band, base = divmod(one_edge_color(delta, state), p)
            assert band in (0, 1, 2)
            assert base == ((state.r1, state.r2, state.r3)[band] + deg) % p


def test_same_band_proposals_distinct_across_all_degree_pairs():
    # exhaustive over every degree pair for every delta up to 64
    for delta in range(1, 65):
        p = period_for(delta)
        assert p > delta
        for shift in (0, 1, p - 1):
            seen = [(shift + d) % p for d in range(delta)]
            assert len(set(seen)) == delta, f"delta={delta} shift={shift}"


def test_draw_gives_three_distinct_shifts():
    rng = random.Random(42)
    assert period_for(2) == 6
    for _ in range(500):
        state = draw_offline_state(rng, 6)
        assert len({state.r1, state.r2, state.r3}) == 3
        assert all(0 <= r < 6 for r in (state.r1, state.r2, state.r3))
        assert state.deg == 0


def test_draw_requires_period_of_three():
    with pytest.raises(PeriodTooSmall):
        draw_offline_state(random.Random(0), 2)


def test_first_shift_marginal_is_uniform():
    # sampling without replacement keeps each marginal uniform: over 1e5
    # draws with period 6, every residue appears as r1 with freq 1/6 +- 3 sigma
    rng = random.Random(7)
    n = 100_000
    counts = [0] * 6
    for _ in range(n):
        counts[draw_offline_state(rng, 6).r1] += 1
    sigma = (1 / 6 * 5 / 6 / n) ** 0.5
    for c in counts:
        assert abs(c / n - 1 / 6) <= 3 * sigma


def test_allocator_blocks_are_disjoint_and_tile():
    alloc = ColorAllocator()
    a = alloc.reserve(10, "a")
    b = alloc.reserve(5, "b")
    c = alloc.reserve(0, "empty")
    d = alloc.reserve(7, "d")
    assert (a, b, c, d) == (0, 10, 15, 15)
    assert alloc.total == 22


def test_allocator_refuses_a_block_past_the_pipeline_budget():
    header = StreamHeader(16, 16, 4, "vertex-one-sided", 0, 0)
    pipeline = build_pipeline(header, "one-sided")
    alloc = pipeline.run.alloc
    assert alloc.budget == pipeline.budget == 3 * period_for(4) + 4
    alloc.reserve(pipeline.budget - alloc.total, "up to the budget")
    with pytest.raises(BoundViolation):
        alloc.reserve(1, "past the budget")
    assert alloc.total == pipeline.budget
