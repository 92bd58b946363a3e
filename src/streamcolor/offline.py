"""Exact offline edge colorers for stored subgraphs.

Three colorers, all proper by construction:

* `color_bipartite_exact` colors a bipartite graph with exactly its max
  degree D, inserting edges one at a time. Each edge takes the lowest
  color free at both endpoints, read off per-vertex used-color bitmasks;
  when none is shared, the alternating two-colored path that starts at
  one endpoint is flipped in a single walk. At each inner vertex of the
  path both colors stay present, so the two edge indices trade places
  in the color table and only the masks of the path's two ends change.
  O(m * D) worst case, ample for the buffer flushes and spill sets it
  serves. The color table has two layouts with the same steps and
  colors under one charge: flat rows of D cells per vertex when every
  vertex has degree D, so that the n_v * D cells are 2m, and one
  color -> edge dict per vertex (2m entries) otherwise.
* `color_general` colors any simple graph with at most D + 1 colors.
  Each edge takes the lowest color in [0, D + 1) free at both
  endpoints, read off per-vertex used-color bitmasks; only when there is
  none does it run the fan-rotation step (Misra & Gries 1992): build a
  maximal fan, invert one two-colored path in a single walk, rotate a
  fan prefix. The fan grows by one mask step per vertex: its next vertex
  sits behind the lowest color used at the center, free at the tip and
  not yet taken into the fan. The path inversion changes the masks of
  the path's two ends only, the rotation those of the fan vertices whose
  edge to the center changes color.
* `color_greedy` gives each edge the lowest color unused at either
  endpoint, never exceeding 2D - 1.

Edges are processed in input order and color searches are lowest-first,
so results are deterministic. Scratch tables are charged to the passed
meter (2 table entries plus 1 result word per edge, plus ceil(D / 64)
mask words per vertex for the exact bipartite colorer and
ceil((D + 1) / 64) for `color_general`) and released on exit.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .errors import NotBipartite
from .meter import SpaceMeter

Edge = tuple[int, int]


@dataclass
class OfflineGraph:
    """A finite simple graph held in memory, with an optional side witness.

    The max degree and the bipartition are computed once per graph, on
    first use, so callers that size a color block and the colorer share
    one pass; the edge list must not change after either is read.
    """

    edges: list[Edge]
    sides: dict[int, int] | None = None  # vertex -> 0/1, every edge crossing

    @property
    def max_degree(self) -> int:
        return self._degrees[0]

    @property
    def vertex_count(self) -> int:
        """Vertices that some edge touches."""
        return self._degrees[1]

    @cached_property
    def _degrees(self) -> tuple[int, int]:
        deg = Counter(chain.from_iterable(self.edges))
        return max(deg.values(), default=0), len(deg)

    def bipartition(self) -> dict[int, int]:
        """The stored witness, or a 2-coloring found by search.

        Raises NotBipartite when an odd cycle makes a witness impossible.
        """
        return self._witness

    @cached_property
    def _witness(self) -> dict[int, int]:
        if self.sides is not None:
            for a, b in self.edges:
                if self.sides.get(a) == self.sides.get(b):
                    raise NotBipartite(f"witness puts edge ({a}, {b}) inside one side")
            return self.sides
        adj: dict[int, list[int]] = {}
        for a, b in self.edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        side: dict[int, int] = {}
        for start in adj:
            if start in side:
                continue
            side[start] = 0
            stack = [start]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in side:
                        side[y] = side[x] ^ 1
                        stack.append(y)
                    elif side[y] == side[x]:
                        raise NotBipartite("odd cycle found")
        return side


def _scratch_words(m: int) -> int:
    return 3 * m  # two color-table entries plus one result word per edge


def color_bipartite_exact(graph: OfflineGraph, meter: SpaceMeter | None = None) -> list[int]:
    """Proper coloring of a bipartite graph with colors in [0, max degree)."""
    graph.bipartition()  # validates the witness / raises NotBipartite
    edges = graph.edges
    if not edges:
        return []
    dmax = graph.max_degree
    # plus one used-color bitmask of ceil(D / 64) words per vertex
    words = _scratch_words(len(edges)) + graph.vertex_count * -(-dmax // 64)
    if meter:
        meter.add("offline-scratch", words)
    # The degrees sum to 2m <= n_v * D, with equality exactly when every
    # vertex has degree D: only then do n_v rows of D cells fit in the
    # 2 table words per edge that the charge covers.
    if graph.vertex_count * dmax <= 2 * len(edges):
        colors = _exact_rows(edges, dmax)
    else:
        colors = _exact_dicts(edges, dmax)
    if meter:
        meter.release("offline-scratch", words)
    return colors


def _exact_dicts(edges: list[Edge], dmax: int) -> list[int]:
    """The exact colorer over one color -> edge dict per vertex."""
    # table[v][color] = index of the edge carrying that color at v;
    # bit c of used[v] is set exactly when c is a key of table[v]
    table: defaultdict[int, dict[int, int]] = defaultdict(dict)
    used: dict[int, int] = {}
    full = (1 << dmax) - 1
    colors = [-1] * len(edges)

    for idx, (u, v) in enumerate(edges):
        mu = used.get(u, 0)
        mv = used.get(v, 0)
        free = full & ~(mu | mv)
        if free:
            bit = free & -free
            c = bit.bit_length() - 1
        else:
            # Flip the alpha/beta alternating path starting at v: v misses
            # beta, so it is a path endpoint, and in a bipartite graph the
            # path can never reach u (it would need the color u misses on
            # the wrong side). Flipping it frees alpha at v; both colors
            # stay present at every inner vertex, so only the masks of the
            # two ends change.
            bit = ~mu & (mu + 1)  # alpha, the lowest color free at u
            beta_bit = ~mv & (mv + 1)
            alpha = bit.bit_length() - 1
            beta = beta_bit.bit_length() - 1
            swap = bit | beta_bit
            mv ^= swap
            tx = table[v]
            e = tx.pop(alpha)
            tx[beta] = e
            colors[e] = beta
            x = v
            old, new = alpha, beta  # e, arriving at the next vertex, was old
            while True:
                a, b = edges[e]
                x = b if a == x else a
                tx = table[x]
                nxt = tx.get(new)  # the path edge leaving x
                if nxt is None:  # the far end: e was its only path edge
                    del tx[old]
                    tx[new] = e
                    used[x] ^= swap
                    break
                tx[new] = e  # the two indices trade colors in place
                tx[old] = nxt
                colors[nxt] = old
                e = nxt
                old, new = new, old
            c = alpha
        colors[idx] = c
        used[u] = mu | bit
        used[v] = mv | bit
        table[u][c] = idx
        table[v][c] = idx
    return colors


def _exact_rows(edges: list[Edge], dmax: int) -> list[int]:
    """The exact colorer over one flat table of D cells per vertex.

    Same steps and colors as `_exact_dicts`. Vertices get rows in order of
    first appearance; cell `row + c` holds the edge carrying color c there.
    `ends[e]` is the xor of the rows of e's two ends, so one xor steps
    along a path, and no color is written during a flip: at the end the
    colors are read off the rows into `ends`, which is returned. Correct
    on any bipartite input; cells stay empty only at vertices of degree
    below D, which `color_bipartite_exact` never sends here.
    """
    order = dict.fromkeys(chain.from_iterable(edges))
    row = dict(zip(order, range(0, len(order) * dmax, dmax)))
    used = dict.fromkeys(row.values(), 0)  # row -> used-color bitmask
    ends = [row[a] ^ row[b] for a, b in edges]
    tab: list[int | None] = [None] * (len(order) * dmax)
    full = (1 << dmax) - 1

    for idx, (u, v) in enumerate(edges):
        ru = row[u]
        rv = row[v]
        mu = used[ru]
        mv = used[rv]
        free = full & ~(mu | mv)
        if free:
            bit = free & -free
            c = bit.bit_length() - 1
        else:
            # the alpha/beta path from v, flipped as in `_exact_dicts`; the
            # cell of alpha at v is overwritten with idx below
            bit = ~mu & (mu + 1)
            beta_bit = ~mv & (mv + 1)
            alpha = bit.bit_length() - 1
            beta = beta_bit.bit_length() - 1
            swap = bit | beta_bit
            mv ^= swap
            e = tab[rv + alpha]
            tab[rv + beta] = e
            x = rv
            while True:  # two steps a turn: e arrives as alpha, then nxt as beta
                x ^= ends[e]
                nxt = tab[x + beta]
                if nxt is None:
                    tab[x + alpha] = None
                    tab[x + beta] = e
                    used[x] ^= swap
                    break
                tab[x + beta] = e
                tab[x + alpha] = nxt
                x ^= ends[nxt]
                e = tab[x + alpha]
                if e is None:
                    tab[x + beta] = None
                    tab[x + alpha] = nxt
                    used[x] ^= swap
                    break
                tab[x + alpha] = nxt
                tab[x + beta] = e
            c = alpha
        used[ru] = mu | bit
        used[rv] = mv | bit
        tab[ru + c] = idx
        tab[rv + c] = idx

    for c in range(dmax):
        for e in tab[c::dmax]:
            if e is not None:
                ends[e] = c
    return ends


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


def color_general(graph: OfflineGraph, meter: SpaceMeter | None = None) -> list[int]:
    """Proper coloring of any simple graph with colors in [0, max degree + 1)."""
    edges = graph.edges
    if not edges:
        return []
    palette = graph.max_degree + 1
    # plus one used-color bitmask of ceil((D + 1) / 64) words per vertex
    words = _scratch_words(len(edges)) + graph.vertex_count * -(-palette // 64)
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


def color_greedy(graph: OfflineGraph, meter: SpaceMeter | None = None) -> list[int]:
    """Lowest color unused at both endpoints; at most 2 * max degree - 1."""
    edges = graph.edges
    if not edges:
        return []
    words = _scratch_words(len(edges))
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
