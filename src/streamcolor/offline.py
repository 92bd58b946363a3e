"""Exact offline edge colorers for stored subgraphs, colored in place.

Each takes a block's edges, and the first two what they need of
`core.color_block`'s one pass over them: the vertices in first-appearance
order, the max degree D and, for the exact colorer, one side per vertex.
No colorer searches for sides: the exact one checks the caller's. Three
colorers, all proper:

* `color_bipartite_exact` colors a bipartite graph with exactly its max
  degree D, inserting edges one at a time: each takes the lowest color
  free at both ends, read off per-vertex used-color bitmasks, and when
  none is shared one alternating two-colored path is flipped in a single
  walk (`_flip`). O(m * D) worst case. It checks the sides in the loop
  that numbers each edge's ends, raising NotBipartite at the first edge
  inside one side.
* `color_general` colors any simple graph with at most D + 1 colors: each
  edge takes the lowest color free at both ends, and only when there is
  none does it run the fan-rotation step of Misra & Gries 1992
  (`_fan_insert`), whose path inversion is the same `_flip`.
* `color_greedy` gives each edge the lowest color unused at either
  endpoint, never exceeding 2D - 1.

Each consumes the edge list it is handed: an edge's tuple is dropped as
the edge is colored (absorbed into the table, or emitted by the greedy
colorer), the list is empty on return, and the result is one
`(u, v, base + color)` triple per edge, in input order, with each edge's
ends in the order it was given.

The first two share one color-major table (`_table`): vertex x is
numbered i_x by its position, and color c's cells hold, at i_x, the cell
of the edge carrying c at x: `(idx << 1 | (i_u > i_v)) << S | (i_u ^ i_v)`
for edge idx = (u, v), with S = n_v.bit_length(). One xor steps along an
edge, a flip moves cells between two colors without writing a color, and
`_read_out` reads the triples off the cells at the end, the low bit above
S giving each edge's orientation. A color's cells are a flat list of n_v
when the exact colorer's block has every vertex at degree D, else a
`_Cells` dict that holds exactly the block's colored edge ends.

Edges are processed in input order and color searches are lowest-first,
so results are deterministic. Scratch is charged to the passed meter
once, as `offline-scratch`, and released on every exit: the 2m words of
the handed edge ends, which move into table cells as the edges are
absorbed (into per-vertex used-color sets for the greedy colorer, which
charges nothing more), plus per vertex one word of the number -> id list
and a used-color bitmask of ceil(D / 64) words (exact) or
ceil((D + 1) / 64) (`color_general`). A flat table is allocated before
any edge is absorbed, so it adds its n_v * D cells: 4m words for a
regular block. The caller releases the words of its edge list just
before handing it over.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Collection

from .errors import NotBipartite
from .meter import SpaceMeter
from .stream import Assignment

Edge = tuple[int, int]


class _Cells(dict):
    """One color's cells, keyed by vertex number; a missing cell reads as None."""

    __slots__ = ()

    def __missing__(self, x: int) -> None:
        return None


def _table(vertices: Collection[int], colors: int, flat: bool):
    """Number `vertices` by position: the numbering, the cell shift S and an
    empty table of `colors` colors, flat lists of n_v cells or `_Cells`."""
    index = dict(zip(vertices, count()))
    n = len(index)
    table = [[None] * n if flat else _Cells() for _ in range(colors)]
    return index, n.bit_length(), table


def _flip(A, B, x: int, used: list[int], swap: int, mask: int) -> None:
    """Swap colors a and b on the alternating path that leaves x by its a-cell.

    `A` and `B` are the cells of a and b, x misses b, and `swap` has the
    bits of both. One walk: at each inner vertex the two cells trade
    places, and both colors stay present, so only the masks of the path's
    two ends change. The far end's emptied cell is deleted (set to None in
    a flat list); x's a-cell is left for the caller to overwrite.
    """
    cell = B[x] = A[x]
    used[x] ^= swap
    while True:  # two steps a turn: cell arrives as a, then nxt as b
        x ^= cell & mask
        nxt = B[x]
        B[x] = cell
        if nxt is None:  # the far end: cell was its only path edge
            break
        A[x] = nxt
        x ^= nxt & mask
        cell = A[x]
        A[x] = nxt
        if cell is None:
            A = B  # the far end's emptied cell is its b-cell
            break
        B[x] = cell
    if type(A) is list:
        A[x] = None
    else:
        del A[x]
    used[x] ^= swap


def _read_out(table: list, shift: int, ids: list[int], base: int, m: int) -> list[Assignment]:
    """Each of `m` edges as (u, v, base + color), in input order, read off
    the table's cells; each color's cells are dropped once read."""
    out: list = [None] * m
    mask = (1 << shift) - 1
    for c in range(len(table)):
        cells = table[c]
        table[c] = None
        color = base + c
        # a flat list skips its empty cells in C; a cell is never 0 (its ends differ)
        pairs = compress(enumerate(cells), cells) if type(cells) is list else cells.items()
        for x, cell in pairs:
            y = x ^ (cell & mask)
            if x < y:  # each edge once, at its lower-numbered end
                key = cell >> shift
                out[key >> 1] = (ids[y], ids[x], color) if key & 1 else (ids[x], ids[y], color)
    return out


def color_bipartite_exact(
    edges: list[Edge],
    vertices: Collection[int],
    sides: list[int],
    dmax: int,
    meter: SpaceMeter | None = None,
    base: int = 0,
) -> list[Assignment]:
    """Proper coloring of a bipartite graph with colors in [base, base + dmax).

    `vertices` lists every end of `edges` once, in order of first
    appearance, `sides[i]` is the side of the i-th, and `dmax` is the max
    degree. Consumes `edges`. Raises NotBipartite at the first edge inside
    one side.
    """
    m = len(edges)
    if not m:
        return []
    n = len(vertices)
    # The degrees sum to 2m <= n_v * D, with equality exactly when every
    # vertex has degree D: only then do D flat lists of n_v cells hold no
    # more cells than the block's edges.
    flat = n * dmax <= 2 * m
    # the edge ends, one id word and a ceil(D / 64)-word used-color bitmask
    # per vertex, and a flat table's cells up front
    words = 2 * m + n * (1 + -(-dmax // 64)) + (n * dmax if flat else 0)
    if meter:
        meter.add("offline-scratch", words)
    try:
        index, shift, table = _table(vertices, dmax, flat)
        mask = (1 << shift) - 1
        used = [0] * n  # bit c of used[i] is set exactly when color c has a cell at i
        full = (1 << dmax) - 1
        for idx, (u, v) in enumerate(edges):
            iu = index[u]
            iv = index[v]
            if sides[iu] == sides[iv]:
                raise NotBipartite(f"witness puts edge ({u}, {v}) inside one side")
            edges[idx] = None
            mu = used[iu]
            mv = used[iv]
            free = full & ~(mu | mv)
            if free:
                bit = free & -free
            else:
                # Flip the alpha/beta path from v: v misses beta, so it is a
                # path end, and in a bipartite graph the path can never reach
                # u (it would need the color u misses on the wrong side).
                # Afterwards alpha is free at v, and v's alpha cell is
                # overwritten below.
                bit = ~mu & (mu + 1)  # alpha, the lowest color free at u
                beta = ~mv & (mv + 1)
                swap = bit | beta
                A, B = table[bit.bit_length() - 1], table[beta.bit_length() - 1]
                _flip(A, B, iv, used, swap, mask)
                mv ^= swap
            used[iu] = mu | bit
            used[iv] = mv | bit
            cells = table[bit.bit_length() - 1]
            cells[iu] = cells[iv] = (idx << 1 | (iu > iv)) << shift | (iu ^ iv)
        edges.clear()
        del index, used  # the read-out needs neither: free them first
        return _read_out(table, shift, list(vertices), base, m)
    finally:
        if meter:
            meter.release("offline-scratch", words)


def _fan_insert(table: list[_Cells], used: list[int], u: int, cell: int, mask: int) -> None:
    """Color the edge of `cell` at u when no color is free at both its ends.

    Misra & Gries 1992: grow a maximal fan at u from the edge's other end,
    free the tip's lowest free color d at u by flipping one c/d path, then
    rotate the shortest fan prefix whose tip misses d: each fan edge's cell
    moves to its successor's color.
    """
    mu = used[u]
    tip = u ^ (cell & mask)
    fan = [tip]  # fan[i] for i > 0 is reached from u through color hues[i]
    cells = [cell]
    hues = [-1]
    # Each fan vertex after the first is reached through exactly one color
    # at u, so leaving out the colors taken so far leaves out the fan's
    # vertices: the next vertex is the one behind the lowest color used at
    # u, free at the tip and not yet taken, and a fan costs one step per
    # vertex.
    rest = mu  # colors at u not taken into the fan
    while True:
        avail = rest & ~used[tip]
        if not avail:
            break
        bit = avail & -avail
        rest ^= bit
        c = bit.bit_length() - 1
        cell = table[c][u]
        tip = u ^ (cell & mask)
        fan.append(tip)
        cells.append(cell)
        hues.append(c)

    c = (~mu & (mu + 1)).bit_length() - 1  # lowest free at u
    mt = used[tip]
    dbit = ~mt & (mt + 1)  # lowest free at the tip
    d = dbit.bit_length() - 1
    if mu & dbit:
        _flip(table[d], table[c], u, used, 1 << c | dbit, mask)  # afterwards d is free at u
        if used[u] & dbit:
            raise AssertionError("path inversion failed to free the fan color")
        if d in hues:  # the one fan edge the flip recolored: u's d edge
            hues[hues.index(d)] = c

    # the first fan vertex missing d, provided the fan chain (the color of
    # (u, fan[i+1]) is free at fan[i]) still holds up to it
    target = 0
    while used[fan[target]] & dbit:
        if target + 1 == len(fan):
            raise AssertionError("no rotatable fan prefix")
        if used[fan[target]] >> hues[target + 1] & 1:
            raise AssertionError("fan chain broken before a vertex missing d")
        target += 1

    # rotate the prefix: each fan edge takes the color of its successor,
    # the tip takes d; u keeps its colors and gains d (its stale d cell,
    # if the flip left one, is overwritten)
    for i in range(target):
        w, nxt, c = fan[i], fan[i + 1], hues[i + 1]
        at = table[c]
        del at[nxt]
        used[nxt] ^= 1 << c
        at[w] = at[u] = cells[i]
        used[w] |= 1 << c
    w = fan[target]
    table[d][w] = table[d][u] = cells[target]
    used[w] |= dbit
    used[u] |= dbit


def color_general(
    edges: list[Edge],
    vertices: Collection[int],
    dmax: int,
    meter: SpaceMeter | None = None,
    base: int = 0,
    simple: bool = False,
) -> list[Assignment]:
    """Proper coloring of any simple graph with colors in [base, base + dmax + 1).

    `vertices` lists every end of `edges` once, in order of first
    appearance, and `dmax` is the max degree. Consumes `edges`. A repeated
    edge takes the color of its first copy; `simple` says the block holds
    none, and skips looking for them.
    """
    m = len(edges)
    if not m:
        return []
    n = len(vertices)
    palette = dmax + 1
    # as the exact colorer's dict layout, with masks of ceil((D + 1) / 64) words
    words = 2 * m + n * (1 + -(-palette // 64))
    if meter:
        meter.add("offline-scratch", words)

    index, shift, table = _table(vertices, palette, False)
    mask = (1 << shift) - 1
    used = [0] * n  # bit c of used[i] is set exactly when color c has a cell at i
    full = (1 << palette) - 1
    first: dict[int, int] = {}  # low << S | high end number -> the edge's first index
    repeats: list[tuple[int, int, int, int]] = []  # (index, first index, u, v) of a repeat

    for idx, (u, v) in enumerate(edges):
        edges[idx] = None
        iu = index[u]
        iv = index[v]
        if not simple:
            orig = first.setdefault(iu << shift | iv if iu < iv else iv << shift | iu, idx)
            if orig != idx:
                repeats.append((idx, orig, u, v))
                continue
        mu = used[iu]
        mv = used[iv]
        cell = (idx << 1 | (iu > iv)) << shift | (iu ^ iv)
        free = full & ~(mu | mv)
        if free:
            bit = free & -free
            used[iu] = mu | bit
            used[iv] = mv | bit
            cells = table[bit.bit_length() - 1]
            cells[iu] = cells[iv] = cell
        else:
            _fan_insert(table, used, iu, cell, mask)

    edges.clear()
    del index, used, first  # the read-out needs none of them: free them first
    out = _read_out(table, shift, list(vertices), base, m)
    for idx, orig, u, v in repeats:
        out[idx] = (u, v, out[orig][2])
    if meter:
        meter.release("offline-scratch", words)
    return out


def color_greedy(
    edges: list[Edge], meter: SpaceMeter | None = None, base: int = 0
) -> list[Assignment]:
    """Lowest color unused at both endpoints, in [base, base + 2 * max degree - 1).

    Consumes `edges`, appending each edge's triple as it is colored.
    """
    m = len(edges)
    if not m:
        return []
    words = 2 * m  # the edge ends, which move into the used-color sets
    if meter:
        meter.add("offline-scratch", words)
    used: dict[int, set[int]] = {}
    out = []
    for idx, (a, b) in enumerate(edges):
        edges[idx] = None
        ua = used.setdefault(a, set())
        ub = used.setdefault(b, set())
        c = 0
        while c in ua or c in ub:
            c += 1
        ua.add(c)
        ub.add(c)
        out.append((a, b, base + c))
    edges.clear()
    if meter:
        meter.release("offline-scratch", words)
    return out
