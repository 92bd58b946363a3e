"""Exact offline edge colorers for stored subgraphs.

Each takes a block's edges and what it needs of `core.color_block`'s one
pass over them: the vertices in first-appearance order, their count n_v,
the max degree D, one side per vertex. No colorer searches for sides:
the exact one checks the caller's. Three colorers, all proper:

* `color_bipartite_exact` colors a bipartite graph with exactly its max
  degree D, inserting edges one at a time: each takes the lowest color
  free at both ends, read off per-vertex used-color bitmasks, and when
  none is shared one alternating two-colored path is flipped in a single
  walk. O(m * D) worst case. Its color-major table has two layouts with
  the same steps and colors (`_exact_rows`, `_exact_dicts`), and it
  checks the sides in the loop that numbers each edge's ends, raising
  NotBipartite at the first edge inside one side.
* `color_general` colors any simple graph with at most D + 1 colors: each
  edge takes the lowest color free at both ends, and only when there is
  none does it run the fan-rotation step of Misra & Gries 1992
  (`_fan_insert`).
* `color_greedy` gives each edge the lowest color unused at either
  endpoint, never exceeding 2D - 1.

Edges are processed in input order and color searches are lowest-first,
so results are deterministic. Scratch tables are charged to the passed
meter (2 table entries plus 1 result word per edge, plus ceil(D / 64)
mask words per vertex for the exact bipartite colorer and
ceil((D + 1) / 64) for `color_general`) and released on every exit.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import count
from typing import Collection, Iterable

from .errors import NotBipartite
from .meter import SpaceMeter

Edge = tuple[int, int]


def color_bipartite_exact(
    edges: list[Edge],
    vertices: Collection[int],
    sides: list[int],
    dmax: int,
    meter: SpaceMeter | None = None,
) -> list[int]:
    """Proper coloring of a bipartite graph with colors in [0, dmax).

    `vertices` lists every end of `edges` once, in order of first
    appearance, `sides[i]` is the side of the i-th, and `dmax` is the max
    degree. Raises NotBipartite at the first edge inside one side.
    """
    if not edges:
        return []
    # two color-table entries and one result word per edge, plus one
    # used-color bitmask of ceil(D / 64) words per vertex
    words = 3 * len(edges) + len(vertices) * -(-dmax // 64)
    if meter:
        meter.add("offline-scratch", words)
    # The degrees sum to 2m <= n_v * D, with equality exactly when every
    # vertex has degree D: only then do D lists of n_v cells fit in the
    # 2 table words per edge that the charge covers.
    layout = _exact_rows if len(vertices) * dmax <= 2 * len(edges) else _exact_dicts
    try:
        return layout(edges, vertices, sides, dmax)
    finally:
        if meter:
            meter.release("offline-scratch", words)


def _exact_dicts(
    edges: list[Edge], vertices: Iterable[int], sides: list[int], dmax: int
) -> list[int]:
    """The exact colorer over one vertex -> cell dict per color.

    Vertex x of `vertices` gets its position i_x as its number, and each
    edge is checked against `sides` as it is numbered. The dict of color
    c holds, at i_x, the cell of the edge carrying c at x:
    `idx << S | (i_u ^ i_v)` for edge idx = (u, v), with S =
    n_v.bit_length(), so one xor steps along an edge, and no color is
    written during a flip: they are read off the cells at the end.
    """
    index = dict(zip(vertices, count()))
    shift = len(index).bit_length()
    mask = (1 << shift) - 1
    table: list[dict[int, int]] = [{} for _ in range(dmax)]
    used = [0] * len(index)  # bit c of used[i] is set exactly when table[c] has i
    full = (1 << dmax) - 1

    for idx, (u, v) in enumerate(edges):
        iu = index[u]
        iv = index[v]
        if sides[iu] == sides[iv]:
            raise NotBipartite(f"witness puts edge ({u}, {v}) inside one side")
        mu = used[iu]
        mv = used[iv]
        free = full & ~(mu | mv)
        if free:
            bit = free & -free
            c = bit.bit_length() - 1
        else:
            # Flip the alpha/beta alternating path starting at v: v misses
            # beta, so it is a path endpoint, and in a bipartite graph the
            # path can never reach u (it would need the color u misses on
            # the wrong side). Flipping it frees alpha at v; both colors
            # stay present at every inner vertex, so the two cells there
            # trade places and only the masks of the two ends change. The
            # cell of alpha at v is overwritten with idx below.
            bit = ~mu & (mu + 1)  # alpha, the lowest color free at u
            beta_bit = ~mv & (mv + 1)
            c = bit.bit_length() - 1
            A = table[c]
            B = table[beta_bit.bit_length() - 1]
            swap = bit | beta_bit
            mv ^= swap
            cell = B[iv] = A[iv]
            x = iv
            while True:  # two steps a turn: cell arrives as alpha, then nxt as beta
                x ^= cell & mask
                nxt = B.get(x)
                if nxt is None:  # the far end: cell was its only path edge
                    del A[x]
                    B[x] = cell
                    used[x] ^= swap
                    break
                B[x] = cell
                A[x] = nxt
                x ^= nxt & mask
                cell = A.get(x)
                if cell is None:
                    del B[x]
                    A[x] = nxt
                    used[x] ^= swap
                    break
                A[x] = nxt
                B[x] = cell
        used[iu] = mu | bit
        used[iv] = mv | bit
        table[c][iu] = table[c][iv] = idx << shift | (iu ^ iv)

    colors = [0] * len(edges)
    for c, cells in enumerate(table):
        for cell in cells.values():
            colors[cell >> shift] = c
    return colors


def _exact_rows(
    edges: list[Edge], vertices: Iterable[int], sides: list[int], dmax: int
) -> list[int]:
    """The exact colorer over one flat list of n_v cells per color.

    Same steps, cells and colors as `_exact_dicts`, with cell i_x of
    color c's list in place of the dict entry (None when no edge at x
    carries c). Correct on any bipartite input; cells stay empty only at
    vertices of degree below D, which `color_bipartite_exact` never sends
    here.
    """
    index = dict(zip(vertices, count()))
    shift = len(index).bit_length()
    mask = (1 << shift) - 1
    table: list[list[int | None]] = [[None] * len(index) for _ in range(dmax)]
    used = [0] * len(index)
    full = (1 << dmax) - 1

    for idx, (u, v) in enumerate(edges):
        iu = index[u]
        iv = index[v]
        if sides[iu] == sides[iv]:
            raise NotBipartite(f"witness puts edge ({u}, {v}) inside one side")
        mu = used[iu]
        mv = used[iv]
        free = full & ~(mu | mv)
        if free:
            bit = free & -free
            c = bit.bit_length() - 1
        else:
            # the alpha/beta path from v, flipped as in `_exact_dicts`
            bit = ~mu & (mu + 1)
            beta_bit = ~mv & (mv + 1)
            c = bit.bit_length() - 1
            A = table[c]
            B = table[beta_bit.bit_length() - 1]
            swap = bit | beta_bit
            mv ^= swap
            cell = B[iv] = A[iv]
            x = iv
            while True:
                x ^= cell & mask
                nxt = B[x]
                if nxt is None:
                    A[x] = None
                    B[x] = cell
                    used[x] ^= swap
                    break
                B[x] = cell
                A[x] = nxt
                x ^= nxt & mask
                cell = A[x]
                if cell is None:
                    B[x] = None
                    A[x] = nxt
                    used[x] ^= swap
                    break
                A[x] = nxt
                B[x] = cell
        used[iu] = mu | bit
        used[iv] = mv | bit
        table[c][iu] = table[c][iv] = idx << shift | (iu ^ iv)

    colors = [0] * len(edges)
    for c, cells in enumerate(table):
        for cell in filter(None, cells):  # a cell is never 0: its ends differ
            colors[cell >> shift] = c
    return colors


def _invert_path(
    table: dict[int, dict[int, int]],
    used: dict[int, int],
    colors: dict[Edge, int],
    x: int,
    c: int,
    d: int,
) -> None:
    """Swap c and d on the maximal path from x (which misses c) that alternates d, c.

    One walk: at each vertex passed the two table entries trade places.
    Both colors stay present at every inner vertex, so only the masks of
    the path's two ends change.
    """
    swap = (1 << c) | (1 << d)
    used[x] ^= swap
    want, other = d, c
    while True:
        tx = table[x]
        y = tx.pop(want, None)  # the next vertex along the path
        back = tx.pop(other, None)  # the previous one
        if back is not None:
            tx[want] = back
        if y is None:
            used[x] ^= swap
            return
        tx[other] = y
        colors[(x, y) if x < y else (y, x)] = other
        x = y
        want, other = other, want


def _fan_insert(
    table: dict[int, dict[int, int]], used: dict[int, int], colors: dict[Edge, int], u: int, v: int
) -> None:
    """Color (u, v) when no color of the palette is free at both ends.

    Misra & Gries 1992: grow a maximal fan at u from v, free the tip's
    lowest free color d at u by inverting one c/d path, then rotate the
    shortest fan prefix whose tip misses d.
    """
    tu = table[u]
    mu = used[u]
    fan = [v]
    # Each fan vertex after v is reached through exactly one color at u,
    # so leaving out the colors taken so far leaves out the fan's vertices:
    # the next vertex is the one behind the lowest color used at u, free
    # at the tip and not yet taken, and a fan costs one step per vertex.
    rest = mu  # colors at u not taken into the fan
    tip = v
    while True:
        avail = rest & ~used[tip]
        if not avail:
            break
        bit = avail & -avail
        rest ^= bit
        tip = tu[bit.bit_length() - 1]
        fan.append(tip)

    c = (~mu & (mu + 1)).bit_length() - 1  # lowest free at u
    mt = used[tip]
    dbit = ~mt & (mt + 1)  # lowest free at the tip
    d = dbit.bit_length() - 1
    if mu & dbit:
        _invert_path(table, used, colors, u, c, d)  # afterwards d is free at u
        if d in tu:
            raise AssertionError("path inversion failed to free the fan color")

    # the first fan vertex missing d, provided the fan chain (the color of
    # (u, fan[i+1]) is free at fan[i]) still holds up to it
    target = 0
    while used[fan[target]] & dbit:
        if target + 1 == len(fan):
            raise AssertionError("no rotatable fan prefix")
        nxt = fan[target + 1]
        if used[fan[target]] >> colors[(u, nxt) if u < nxt else (nxt, u)] & 1:
            raise AssertionError("fan chain broken before a vertex missing d")
        target += 1

    # rotate the prefix: each fan edge takes the color of its successor,
    # the tip takes d; u keeps its colors and gains d
    for i in range(target):
        w, nxt = fan[i], fan[i + 1]
        c = colors[(u, nxt) if u < nxt else (nxt, u)]
        del table[nxt][c]
        used[nxt] ^= 1 << c
        table[w][c] = u
        used[w] |= 1 << c
        tu[c] = w
        colors[(u, w) if u < w else (w, u)] = c
    w = fan[target]
    table[w][d] = u
    used[w] |= dbit
    tu[d] = w
    used[u] |= dbit
    colors[(u, w) if u < w else (w, u)] = d


def color_general(
    edges: list[Edge], vertex_count: int, dmax: int, meter: SpaceMeter | None = None
) -> list[int]:
    """Proper coloring of any simple graph with colors in [0, dmax + 1).

    `vertex_count` is the number of vertices that `edges` touch and
    `dmax` their max degree.
    """
    if not edges:
        return []
    palette = dmax + 1
    # as the exact colorer's, with masks of ceil((D + 1) / 64) words
    words = 3 * len(edges) + vertex_count * -(-palette // 64)
    if meter:
        meter.add("offline-scratch", words)

    table: defaultdict[int, dict[int, int]] = defaultdict(dict)  # vertex -> color -> neighbor
    # bit c of used[x] is set exactly when c is a key of table[x]
    used: defaultdict[int, int] = defaultdict(int)
    colors: dict[Edge, int] = {}  # (low end, high end) -> color
    full = (1 << palette) - 1

    for u, v in edges:
        e = (u, v) if u < v else (v, u)
        if e in colors:
            continue
        mu = used[u]
        mv = used[v]
        free = full & ~(mu | mv)
        if free:
            bit = free & -free
            c = bit.bit_length() - 1
            colors[e] = c
            used[u] = mu | bit
            used[v] = mv | bit
            table[u][c] = v
            table[v][c] = u
        else:
            _fan_insert(table, used, colors, u, v)

    out = [colors[(a, b) if a < b else (b, a)] for a, b in edges]
    if meter:
        meter.release("offline-scratch", words)
    return out


def color_greedy(edges: list[Edge], meter: SpaceMeter | None = None) -> list[int]:
    """Lowest color unused at both endpoints; at most 2 * max degree - 1."""
    if not edges:
        return []
    words = 3 * len(edges)
    if meter:
        meter.add("offline-scratch", words)
    used: dict[int, set[int]] = {}
    colors = []
    for a, b in edges:
        ua = used.setdefault(a, set())
        ub = used.setdefault(b, set())
        c = 0
        while c in ua or c in ub:
            c += 1
        ua.add(c)
        ub.add(c)
        colors.append(c)
    if meter:
        meter.release("offline-scratch", words)
    return colors
