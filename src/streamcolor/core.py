"""One-pass edge coloring for one-sided arrivals, whole or batched.

`OneSidedColorer` handles a bipartite stream where offline vertices hold
shifted-proposal state and online vertices arrive with their edges, all
at once or in batches. Each arrival is colored in one band of the
colorer's block, named by the caller that counts the vertex's batches.
Per arrival it matches each edge to one of its three proposed base
colors, all distinct, and streams the colors out. The matching starts as
Hopcroft-Karp's greedy phase, run in the pass that reads the proposals:
each edge takes its lowest base color not yet taken. Only when that
leaves an edge unmatched does the arrival go to the full matcher.
Arrivals whose color graph has no perfect matching (rare by the k-out
analysis) are parked in a spill set and colored at the end with a fresh
block via the exact bipartite colorer.

`color_block` is the one way any layer colors a stored block offline:
the spill set here, the dispatchers' flushes and leftovers, the
bipartization's base store and the store-and-color presets. It colors
the block in place: each owner releases its list's words just before
the call, and the colorer consumes the list, charging its words as
scratch.

`Run` is what every component of one run shares: the word ledger, the
color space, and the one-sided colorers in build order, whose spill
counts are the run's.

Color layout within this colorer's block of the global space:

    band b < bands   [b*3P, (b+1)*3P)     whole vertices use band 0
    spill            a fresh block, reserved only if an arrival spills

Degrees keep counting even for spilled edges, so proposals made after a
spill stay distinct from everything the offline vertex ever proposed.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain
from typing import Callable

from .errors import BoundViolation, TooManyBatches, TooManySlots
from .matching import maximum_matching
from .meter import SpaceMeter
from .offline import color_bipartite_exact, color_general, color_greedy
from .palette import ColorAllocator, OfflineState, draw_offline_state, period_for
from .stream import Assignment


class Run:
    """One run's shared context: the word ledger `meter`, the color space
    `alloc`, and `colorers`, every one-sided colorer in the order built."""

    __slots__ = ("meter", "alloc", "colorers")

    def __init__(self) -> None:
        self.meter = SpaceMeter()
        self.alloc = ColorAllocator()
        self.colorers: list[OneSidedColorer] = []


def block_width(flavor: str, d: int) -> int:
    """The colors of a block of max degree d: exact d, general d + 1, greedy 2d - 1."""
    return {"exact": d, "general": d + 1, "greedy": max(2 * d - 1, 1)}[flavor]


def color_block(
    edges: list[tuple[int, int]],
    side_of: Callable[[int], int] | None,
    label: str,
    run: Run,
    flavor: str = "exact",
    simple: bool = False,
) -> list[Assignment]:
    """Color a stored edge list in place, in one fresh block of the color space.

    The block is `block_width(flavor, D)` colors wide for max degree D.
    One pass finds the vertices and their degrees. "exact" reads each
    vertex's side off `side_of` (vertex -> side), the sides the caller
    already knows, and the exact colorer raises NotBipartite at an edge
    inside one side; nothing searches for sides, and the other flavors
    take `side_of=None`. `simple` tells the general colorer that the block
    cannot repeat an edge. Returns one (u, v, color) per edge, in input
    order.

    The call consumes `edges`: the colorer drops each edge as it colors it
    and leaves the list empty, and charges the edge words as its own
    scratch. So the caller releases its list's words just before the call
    and does not read the list afterwards.
    """
    if not edges:
        return []
    degrees = Counter(chain.from_iterable(edges))  # keys in first-appearance order
    dmax = max(degrees.values())
    base = run.alloc.reserve(block_width(flavor, dmax), label)
    meter = run.meter
    if flavor == "exact":
        sides = list(map(side_of, degrees))
        return color_bipartite_exact(edges, degrees, sides, dmax, meter, base)
    if flavor == "general":
        return color_general(edges, degrees, dmax, meter, base, simple)
    return color_greedy(edges, meter, base)


class OneSidedColorer:
    """Streaming colorer for one online arrival (or batch) at a time.

    Args:
        delta: degree bound this instance is sized for (sets P).
        rng: source for shift draws; owned by the caller.
        run: the shared context; its meter is charged for shifts, spill and
            scratch, and its allocator gives a streaming block now, the spill
            block, promised as delta colors, only if a spill happens. The
            colorer adds itself to `run.colorers`.
        bands: bands of 3P colors in the streaming block, one per batch
            index a caller may name; 1 for whole-vertex arrivals.

    An offline vertex may reach degree P here at most: past that its
    proposals could repeat, so crossing it raises BoundViolation rather
    than ever risking a conflict.
    """

    def __init__(
        self,
        delta: int,
        rng: random.Random,
        run: Run,
        *,
        bands: int = 1,
        name: str = "one-sided",
    ):
        self.period = p = period_for(delta)
        self.delta = delta
        self.rng = rng
        self.run = run
        self.name = name
        self.bands = bands
        self.block_width = 3 * p * bands
        self.block = run.alloc.reserve(self.block_width, f"{name}:stream")
        run.alloc.promised += delta  # a spill block of at most delta colors
        run.colorers.append(self)
        self.states: dict[int, OfflineState] = {}
        self.spill: list[tuple[int, int]] = []
        self.spilled_vertices = 0
        self.spilled_edges_total = 0
        self._mkey = f"{name}:state"
        self._skey = f"{name}:spill"
        self._tkey = f"{name}:scratch"

    # -- arrival handling --

    def on_online_vertex(self, u: int, neighbors: list[int], band: int = 0) -> list[Assignment]:
        """Color the edges of one arrival in band `band` (or spill them)."""
        if not 0 <= band < self.bands:
            raise TooManyBatches(f"vertex {u}: band {band} is outside {self.bands} bands")
        d = len(neighbors)
        if d == 0:
            return []
        if d > self.delta:
            raise TooManySlots(f"arrival of {d} edges exceeds the degree bound {self.delta}")
        meter = self.run.meter
        p = self.period
        p2 = 2 * p
        base = self.block + band * 3 * p

        # The matcher's greedy phase, run as each slot is read: the slot
        # takes its lowest residue y not yet taken, and the proposal j
        # (0, 1 or 2) it came from gives the color base + j*P + y.
        # `greedy` turns False at the first slot left with none; the loop
        # still draws and checks every neighbor's state.
        known = self.states
        states = []
        taken = set()
        out = []
        greedy = True
        for v in neighbors:
            st = known.get(v)
            if st is None:
                st = draw_offline_state(self.rng, p)
                known[v] = st
                meter.add(self._mkey, OfflineState.WORDS)
            dg = st.deg
            if dg >= p:
                raise BoundViolation(
                    f"{self.name}: offline vertex {v} would pass its degree cap {p}"
                )
            states.append(st)
            if greedy:
                y = p
                r = (st.r1 + dg) % p
                if r not in taken:
                    y = c = r
                r = (st.r2 + dg) % p
                if r < y and r not in taken:
                    y = r
                    c = r + p
                r = (st.r3 + dg) % p
                if r < y and r not in taken:
                    y = r
                    c = r + p2
                if y == p:
                    greedy = False
                else:
                    taken.add(y)
                    out.append((u, v, base + c))
        if not greedy:  # the full matcher, on the slots as they were read
            slots = [((st.r1 + st.deg) % p, (st.r2 + st.deg) % p, (st.r3 + st.deg) % p)
                     for st in states]
        # only once every slot is read, so each slot reads its neighbor's
        # degree from before this arrival; spilled edges count too
        for st in states:
            st.deg += 1

        scratch = 6 * d  # proposals plus matcher state, released below
        meter.add(self._tkey, scratch)
        if greedy:
            meter.release(self._tkey, scratch)
            return out
        matched = maximum_matching(slots)
        meter.release(self._tkey, scratch)

        if -1 not in matched:
            return [
                (u, v, base + slot.index(y) * p + y)
                for v, slot, y in zip(neighbors, slots, matched)
            ]
        self.spill.extend((u, v) for v in neighbors)
        meter.add(self._skey, 2 * d)
        self.spilled_vertices += 1
        self.spilled_edges_total += d
        return []

    # -- end of stream --

    def finalize(self) -> list[Assignment]:
        """Color the spill set with a fresh block and empty it."""
        if not self.spill:
            return []
        edges, self.spill = self.spill, []
        self.run.meter.release(self._skey, 2 * len(edges))
        # every spilled neighbor holds state here, and no arriving vertex does
        return color_block(edges, self.states.__contains__, self._skey, self.run)
