"""Shifted color proposals and the blocks of the final color space.

Each offline vertex stores three distinct random shifts in [0, P) plus a
running degree counter, where the period P = ceil(2.72 * delta). Its i-th
edge is offered three colors, one per band: (shift + degree) mod P, offset
by 0, P, or 2P. Two properties make this sound. The bands tile disjoint
ranges, so colors from different bands never collide. And within a band,
two edges of the same offline vertex see different degree values whose gap
is at most delta < P, so their proposals differ mod P.

The stretch factor 2.72 is kept as the exact rational 272/100 and P is
computed with integer arithmetic only, so runs are bit-for-bit reproducible
across platforms.

Layered algorithms give each internal colorer its own contiguous block of
the final color space: `ColorAllocator` hands out disjoint blocks, keeps
the run's declared budget, and refuses any block that would pass it.
"""

from __future__ import annotations

import random

from .errors import BoundViolation, PeriodTooSmall

C_NUM = 272
C_DEN = 100


def period_for(delta: int) -> int:
    """P = ceil(2.72 * delta), in exact integer arithmetic."""
    return (C_NUM * delta + C_DEN - 1) // C_DEN


class OfflineState:
    """Per-offline-vertex state: three distinct shifts and a degree counter."""

    __slots__ = ("r1", "r2", "r3", "deg")

    WORDS = 4  # three shifts plus one counter

    def __init__(self, r1: int, r2: int, r3: int, deg: int = 0):
        self.r1 = r1
        self.r2 = r2
        self.r3 = r3
        self.deg = deg


def draw_offline_state(rng: random.Random, period: int) -> OfflineState:
    """Draw three distinct uniform shifts from [0, period), ordered as drawn."""
    if period < 3:
        raise PeriodTooSmall(f"period {period} cannot host three distinct shifts")
    r1 = rng.randrange(period)
    r2 = rng.randrange(period)
    while r2 == r1:
        r2 = rng.randrange(period)
    r3 = rng.randrange(period)
    while r3 == r1 or r3 == r2:
        r3 = rng.randrange(period)
    return OfflineState(r1, r2, r3)


class ColorAllocator:
    """Hands out disjoint contiguous blocks of the final color space.

    Static blocks are reserved when a run is wired up; dynamic blocks
    (buffer flushes, spill sets, leftovers, stored graphs) are grabbed as
    needed, and each component adds the total width of its own to
    `promised` when it is built. The run's declared budget is then `total + promised`,
    read once the whole pipeline is built. The high-water mark is the
    run's true palette footprint. Once `budget` is set, a block that would
    end past it raises BoundViolation instead.
    """

    __slots__ = ("next_free", "blocks", "budget", "promised")

    def __init__(self) -> None:
        self.next_free = 0
        self.blocks: list[tuple[str, int, int]] = []
        self.budget: int | None = None
        self.promised = 0

    def reserve(self, width: int, label: str = "") -> int:
        if width < 0:
            raise ValueError("block width must be non-negative")
        base = self.next_free
        if self.budget is not None and base + width > self.budget:
            raise BoundViolation(
                f"block {label} of {width} colors at {base} passes the budget {self.budget}"
            )
        self.next_free += width
        self.blocks.append((label, base, width))
        return base

    @property
    def total(self) -> int:
        return self.next_free
