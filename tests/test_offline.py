import itertools
import random
from collections import Counter
from itertools import chain
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import offline
from streamcolor.errors import NotBipartite
from streamcolor.harness import GenSpec, build_edges
from streamcolor.meter import SpaceMeter
from streamcolor.offline import color_bipartite_exact, color_general, color_greedy


def is_proper(edges, colors):
    seen = set()
    for (a, b), c in zip(edges, colors):
        if (a, c) in seen or (b, c) in seen:
            return False
        seen.add((a, c))
        seen.add((b, c))
    return True


def brute_force_min_colors(edges, upper):
    """Smallest q admitting a proper coloring, by backtracking search."""
    m = len(edges)
    for q in range(1, upper + 1):
        used = {}

        def fits(i):
            if i == m:
                return True
            a, b = edges[i]
            ua = used.setdefault(a, set())
            ub = used.setdefault(b, set())
            for c in range(q):
                if c not in ua and c not in ub:
                    ua.add(c)
                    ub.add(c)
                    if fits(i + 1):
                        return True
                    ua.remove(c)
                    ub.remove(c)
            return False

        if fits(0):
            return q
    return upper + 1


def block(edges, sides):
    """The values `core.color_block` passes the exact colorer: the
    vertices in order of first appearance, one side per vertex read off
    the `sides` dict, and the max degree."""
    degrees = Counter(chain.from_iterable(edges))
    return degrees, [sides[x] for x in degrees], max(degrees.values(), default=0)


def colors_of(assignments):
    return [c for _, _, c in assignments]


def exact(edges, sides, meter=None):
    """The exact colorer's colors for `edges`, one per edge, on a copy of the list."""
    return colors_of(color_bipartite_exact(list(edges), *block(edges, sides), meter))


def general(edges, meter=None):
    degrees = Counter(chain.from_iterable(edges))
    return colors_of(color_general(list(edges), degrees, max(degrees.values(), default=0), meter))


def greedy(edges, meter=None):
    return colors_of(color_greedy(list(edges), meter))


def layouts(edges, sides):
    """The colors the exact colorer gives `edges` over flat lists of cells
    and over `_Cells` dicts, in that order, whichever its block would pick."""
    real = offline._table
    out = []
    for flat in (True, False):

        def forced(vertices, colors, _, flat=flat):
            return real(vertices, colors, flat)

        with mock.patch.object(offline, "_table", forced):
            out.append(exact(edges, sides))
    return tuple(out)


def max_degree(edges):
    return max(Counter(chain.from_iterable(edges)).values(), default=0)


def sides_for(nl, nr):
    """Ids [0, nl) on side 0 and [nl, nl + nr) on side 1, as the generators
    and `regular_multigraph` below number a bipartite graph's two sides."""
    return {**{i: 0 for i in range(nl)}, **{nl + j: 1 for j in range(nr)}}


def random_bipartite(rng, max_left=6, max_right=6, max_edges=12):
    nl = rng.randrange(1, max_left + 1)
    nr = rng.randrange(1, max_right + 1)
    want = rng.randrange(1, max_edges + 1)
    pool = list(itertools.product(range(nl), range(nr)))
    rng.shuffle(pool)
    edges = [(a, nl + b) for a, b in pool[:want]]
    return edges, sides_for(nl, nr)


def two_phase_bipartite_exact(edges):
    """Reference exact colorer for a bipartite graph: collects each
    alternating path, then deletes all its table entries before re-adding
    them flipped."""
    if not edges:
        return []
    dmax = max_degree(edges)
    table = {}
    colors = [-1] * len(edges)

    def lowest_free(v):
        used = table.get(v, ())
        return next(c for c in range(dmax) if c not in used)

    for idx, (u, v) in enumerate(edges):
        tu = table.setdefault(u, {})
        tv = table.setdefault(v, {})
        shared = next((c for c in range(dmax) if c not in tu and c not in tv), -1)
        if shared >= 0:
            colors[idx] = shared
            tu[shared] = idx
            tv[shared] = idx
            continue
        alpha = lowest_free(u)
        beta = lowest_free(v)
        path = []
        x, want = v, alpha
        while True:
            e = table[x].get(want)
            if e is None:
                break
            path.append(e)
            a, b = edges[e]
            x = b if a == x else a
            want = beta if want == alpha else alpha
        for e in path:
            a, b = edges[e]
            del table[a][colors[e]]
            del table[b][colors[e]]
        for e in path:
            new = beta if colors[e] == alpha else alpha
            colors[e] = new
            a, b = edges[e]
            table[a][new] = e
            table[b][new] = e
        colors[idx] = alpha
        tu[alpha] = idx
        tv[alpha] = idx
    return colors


def rescanning_fan_general(edges):
    """Reference fan-rotation colorer: scans each vertex's color dict from 0
    for free colors, and rebuilds the fan by rescanning u's colored edges
    from the lowest color after every extension."""
    if not edges:
        return []
    palette = max_degree(edges) + 1
    table = {}  # vertex -> color -> neighbor
    colors = {}  # (low end, high end) -> color

    def key(a, b):
        return (a, b) if a < b else (b, a)

    def lowest_free(used):
        return next(c for c in range(palette) if c not in used)

    def invert_path(x, c, d):
        want, other = d, c
        while True:
            tx = table[x]
            y = tx.pop(want, None)
            back = tx.pop(other, None)
            if back is not None:
                tx[want] = back
            if y is None:
                return
            tx[other] = y
            colors[key(x, y)] = other
            x = y
            want, other = other, want

    def fan_insert(u, v):
        tu = table[u]
        fan = [v]
        candidates = sorted(tu.items())
        while True:
            tip = table[fan[-1]]
            nxt = next((w for c, w in candidates if c not in tip and w not in fan), None)
            if nxt is None:
                break
            fan.append(nxt)
        c = lowest_free(tu)
        d = lowest_free(table[fan[-1]])
        if d in tu:
            invert_path(u, c, d)
        target = next(i for i, w in enumerate(fan) if d not in table[w])
        for i in range(target):
            w, nxt = fan[i], fan[i + 1]
            c = colors[key(u, nxt)]
            del table[nxt][c]
            table[w][c] = u
            tu[c] = w
            colors[key(u, w)] = c
        w = fan[target]
        table[w][d] = u
        tu[d] = w
        colors[key(u, w)] = d

    for u, v in edges:
        if key(u, v) in colors:
            continue
        tu = table.setdefault(u, {})
        tv = table.setdefault(v, {})
        shared = next((c for c in range(palette) if c not in tu and c not in tv), -1)
        if shared < 0:
            fan_insert(u, v)
        else:
            colors[key(u, v)] = shared
            tu[shared] = v
            tv[shared] = u
    return [colors[key(a, b)] for a, b in edges]


# --- exact bipartite colorer ---


def test_path_of_three_edges_uses_two_colors():
    edges = [(0, 2), (0, 3), (1, 3)]  # a1-b1, a1-b2, a2-b2
    colors = exact(edges, sides_for(2, 2))
    assert colors == [0, 1, 0]


def test_single_edge_gets_color_zero():
    assert exact([(0, 1)], {0: 0, 1: 1}) == [0]


def test_perfect_matching_shares_one_color():
    edges = [(i, 5 + i) for i in range(5)]
    colors = exact(edges, sides_for(5, 5))
    assert colors == [0] * 5


def test_exact_colorer_meets_the_brute_force_minimum():
    rng = random.Random(99)
    for _ in range(1500):
        edges, sides = random_bipartite(rng)
        dmax = max_degree(edges)
        colors = exact(edges, sides)
        assert is_proper(edges, colors)
        assert max(colors) < dmax
        assert len(set(colors)) == dmax == brute_force_min_colors(edges, dmax)


def test_one_walk_flip_matches_the_two_phase_reference_on_small_graphs():
    rng = random.Random(13)  # C9-style instances: up to 6 + 6 vertices, 12 edges
    flipped = 0
    for _ in range(4000):
        edges, sides = random_bipartite(rng, max_edges=12)
        colors = exact(edges, sides)
        assert colors == two_phase_bipartite_exact(edges)
        assert layouts(edges, sides) == (colors, colors)  # either table layout
        flipped += colors != greedy(edges)
    assert flipped > 0  # lowest shared color alone was not enough somewhere


@pytest.mark.parametrize("delta", [8, 16])
def test_one_walk_flip_matches_the_two_phase_reference_on_regular_graphs(delta):
    edges = build_edges(GenSpec("regular-bipartite", 64, delta, "edge", seed=delta))
    # built order is one perfect matching after another and never flips;
    # a shuffled order flips hundreds of paths
    random.Random(delta).shuffle(edges)
    colors = exact(edges, sides_for(64, 64))
    assert colors == two_phase_bipartite_exact(edges)
    assert colors != greedy(edges)
    assert is_proper(edges, colors) and max(colors) == delta - 1


def test_exact_colorer_on_a_star_with_a_pendant_matching():
    # center 0 of degree 70 (two mask words), leaves 1..70 of degree 2,
    # pendants 101..170 of degree 1. With the matching first every leaf
    # holds color 0, so the center's last edge finds only 0 free at the
    # center and must flip a path; shuffled orders are irregular too.
    star = [(0, leaf) for leaf in range(1, 71)]
    pendant = [(leaf, 100 + leaf) for leaf in range(1, 71)]
    edges = pendant + star
    sides = {0: 0, **{leaf: 1 for leaf in range(1, 71)}, **{100 + j: 0 for j in range(1, 71)}}
    colors = exact(edges, sides)
    assert max(greedy(edges)) == 70  # greedy needs one more
    assert colors == two_phase_bipartite_exact(edges)
    assert layouts(edges, sides) == (colors, colors)
    assert is_proper(edges, colors) and sorted(colors[70:]) == list(range(70))
    for seed in range(5):
        random.Random(seed).shuffle(edges)
        colors = exact(edges, sides)
        assert colors == two_phase_bipartite_exact(edges)
        assert is_proper(edges, colors) and max(colors) == 69


@pytest.mark.parametrize("delta", [1, 3, 64, 65, 100, 130])
def test_exact_colorer_matches_the_reference_and_charges_its_masks(delta):
    # one mask word per vertex up to delta 64, then two, then three
    edges = build_edges(GenSpec("regular-bipartite", 160, delta, "edge", seed=1))
    random.Random(delta).shuffle(edges)
    vertices, sides, dmax = block(edges, sides_for(160, 160))
    assert len(vertices) == 320 and dmax == delta
    meter = SpaceMeter()
    colors = colors_of(color_bipartite_exact(list(edges), vertices, sides, dmax, meter))
    assert colors == two_phase_bipartite_exact(edges)
    assert layouts(edges, sides_for(160, 160)) == (colors, colors)
    assert is_proper(edges, colors) and max(colors) == delta - 1
    # regular: the flat table's 320 * delta = 2m cells on top of the 2m edge
    # ends, and per vertex one id word and the masks
    assert meter.peak_words == 4 * len(edges) + 320 * (1 + -(-delta // 64))
    assert meter.current_words == 0 and meter.consistent()


def test_exact_colorer_requires_bipartite_input():
    # witness contradicted by an inside-edge, found as the colorer reaches
    # it: first, and after an edge is colored; the scratch is released
    for edges, sides in (([(0, 1)], {0: 0, 1: 0}), ([(0, 1), (1, 2)], {0: 0, 1: 1, 2: 1})):
        meter = SpaceMeter()
        with pytest.raises(NotBipartite, match=r"witness puts edge \(\d, \d\) inside one side"):
            exact(edges, sides, meter)
        assert meter.current_words == 0 and meter.consistent()


# --- the two table layouts of the exact bipartite colorer ---


def regular_multigraph(n, delta, seed):
    """delta random perfect matchings between 0..n-1 and n..2n-1, the first
    one twice: delta-regular, with parallel edges, in shuffled order."""
    rng = random.Random(seed)
    matchings = []
    for _ in range(delta - 1):
        right = list(range(n, 2 * n))
        rng.shuffle(right)
        matchings.append(list(zip(range(n), right)))
    edges = [e for matching in [matchings[0], *matchings] for e in matching]
    rng.shuffle(edges)
    return edges


def test_both_layouts_match_the_reference_on_a_regular_multigraph():
    edges = regular_multigraph(64, 9, seed=5)
    assert len(set(edges)) < len(edges)  # parallel edges
    vertices, _, dmax = block(edges, sides_for(64, 64))
    assert len(vertices) * dmax == 2 * len(edges)
    expected = two_phase_bipartite_exact(edges)
    assert layouts(edges, sides_for(64, 64)) == (expected, expected)
    assert is_proper(edges, expected) and max(expected) == 8
    assert expected != greedy(edges)  # some path was flipped


def test_exact_colorer_charges_a_flat_table_up_front(monkeypatch):
    taken = []  # the table layout picked: flat lists (True) or dicts (False)
    real = offline._table

    def recorded(vertices, colors, flat):
        taken.append(flat)
        return real(vertices, colors, flat)

    monkeypatch.setattr(offline, "_table", recorded)
    edges = build_edges(GenSpec("regular-bipartite", 80, 70, "edge", seed=3))
    random.Random(3).shuffle(edges)
    # 70-regular, then one edge short of it: two mask words and one id word
    # per vertex both times, and the flat table's 160 * 70 cells only in the
    # first, allocated before any edge moves into it
    for part, layout in ((edges, True), (edges[:-1], False)):
        vertices, sides, dmax = block(part, sides_for(80, 80))
        assert len(vertices) == 160 and dmax == 70
        meter = SpaceMeter()
        colors = colors_of(color_bipartite_exact(list(part), vertices, sides, dmax, meter))
        assert taken.pop() == layout
        assert meter.peak_words == 2 * len(part) + 160 * 3 + (160 * 70 if layout else 0)
        assert meter.current_words == 0 and meter.consistent()
        assert colors == two_phase_bipartite_exact(part)


def matching_union(n, delta, keep, rng):
    """delta random perfect matchings between 0..n-1 and n..2n-1 in shuffled
    order, parallel edges kept; each edge then survives with probability
    keep, so keep < 1 gives irregular graphs."""
    edges = []
    for _ in range(delta):
        right = list(range(n, 2 * n))
        rng.shuffle(right)
        edges += zip(range(n), right)
    rng.shuffle(edges)
    return [e for e in edges if rng.random() < keep]


@settings(max_examples=60, deadline=None)
@given(
    delta=st.sampled_from([1, 2, 3, 63, 64, 65, 129]),  # across the mask words
    n=st.integers(1, 9),
    keep=st.sampled_from([1.0, 0.9, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_both_layouts_match_the_reference_on_matching_unions(delta, n, keep, seed):
    edges = matching_union(n, delta, keep, random.Random(seed))
    vertices, sides, dmax = block(edges, sides_for(n, n))
    expected = two_phase_bipartite_exact(edges)
    assert layouts(edges, sides_for(n, n)) == (expected, expected)
    meter = SpaceMeter()
    assert colors_of(color_bipartite_exact(list(edges), vertices, sides, dmax, meter)) == expected
    flat = len(vertices) * dmax == 2 * len(edges)
    assert meter.peak_words == (
        2 * len(edges) + len(vertices) * (1 + -(-dmax // 64)) + flat * len(vertices) * dmax
    )
    assert is_proper(edges, expected) and all(0 <= c < dmax for c in expected)
    if keep == 1.0:
        assert dmax == delta and len(vertices) == 2 * n


@pytest.mark.parametrize("delta", [1, 2, 3, 63, 64, 65, 129])
def test_both_layouts_on_two_vertices_joined_by_parallel_edges(delta):
    # n_v = 2, so a cell is idx << 2 | 1; the edges take colors in order
    edges = [(0, 1) if i % 3 else (1, 0) for i in range(delta)]
    assert layouts(edges, sides_for(1, 1)) == (list(range(delta)), list(range(delta)))
    assert exact(edges, sides_for(1, 1)) == list(range(delta))


# --- fan-rotation colorer ---


def test_triangle_needs_three_colors():
    tri = [(0, 1), (1, 2), (0, 2)]
    colors = general(tri)
    assert is_proper(tri, colors)
    assert sorted(colors) == [0, 1, 2]


def test_star_uses_exactly_its_degree():
    star = [(0, i) for i in range(1, 5)]
    colors = general(star)
    assert len(set(colors)) == 4
    assert max(colors) <= 4


def test_empty_graph_gives_empty_map():
    assert general([]) == []
    assert exact([], {}) == []
    assert greedy([]) == []


def test_fan_rotation_proper_and_within_bound_on_random_graphs():
    rng = random.Random(12345)
    for _ in range(2500):
        n = rng.randrange(2, 24)
        want = rng.randrange(1, 40)
        pool = list(itertools.combinations(range(n), 2))
        rng.shuffle(pool)
        edges = pool[:want]
        colors = general(edges)
        assert is_proper(edges, colors)
        assert max(colors) <= max_degree(edges)  # palette is [0, dmax + 1)
        assert colors == rescanning_fan_general(edges)


def dense_simple_graph(delta, seed):
    """A random simple graph on 2 * delta + 10 vertices with max degree
    delta: all vertex pairs in shuffled order, each kept while both ends
    are below delta."""
    rng = random.Random(seed)
    n = 2 * delta + 10
    pool = list(itertools.combinations(range(n), 2))
    rng.shuffle(pool)
    deg = [0] * n
    edges = []
    for a, b in pool:
        if deg[a] < delta and deg[b] < delta:
            edges.append((a, b))
            deg[a] += 1
            deg[b] += 1
    return edges


@pytest.mark.parametrize("delta", [63, 64, 70, 130])
def test_fan_rotation_matches_the_reference_across_mask_words(delta, monkeypatch):
    # palettes of 64, 65, 71 and 131 colors: one, two and three mask words
    calls = {"_fan_insert": 0, "_flip": 0}
    for name in calls:
        real = getattr(offline, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(offline, name, counted)
    edges = dense_simple_graph(delta, seed=delta)
    vertices = Counter(chain.from_iterable(edges))
    assert max(vertices.values()) == delta
    meter = SpaceMeter()
    colors = colors_of(color_general(list(edges), vertices, delta, meter))
    assert colors == rescanning_fan_general(edges)
    assert is_proper(edges, colors) and max(colors) <= delta
    assert calls["_fan_insert"] > 0 and calls["_flip"] > 0
    assert meter.peak_words == 2 * len(edges) + len(vertices) * (1 + -(-(delta + 1) // 64))
    assert meter.current_words == 0 and meter.consistent()


def test_the_tables_hold_exactly_two_cells_per_colored_edge(monkeypatch):
    # A flip empties one cell at the path's far end. The `_Cells` dicts must
    # lose it, not keep it as None, so that they hold exactly the 2 edge ends
    # per colored edge that the meter charges; likewise the cell a flip
    # leaves at its start, which the inserted edge overwrites. The tables
    # are copied as the read-out gets them, before it empties them.
    tables, flips = [], []
    real_read, real_flip = offline._read_out, offline._flip

    def kept(table, shift, *args):
        tables.append((shift, [dict(cells) for cells in table]))
        assert all(type(cells) is offline._Cells for cells in table)
        return real_read(table, shift, *args)

    monkeypatch.setattr(offline, "_read_out", kept)
    monkeypatch.setattr(offline, "_flip", lambda *args: flips.append(1) or real_flip(*args))
    # 16-regular in shuffled order, less its first 32 edges: irregular
    bipartite = build_edges(GenSpec("regular-bipartite", 64, 16, "edge", seed=16))
    random.Random(16).shuffle(bipartite)
    bipartite = bipartite[32:]
    simple = dense_simple_graph(40, seed=40)
    # a repeat takes its first copy's color, and no cell; these keep D = 40
    degrees = Counter(chain.from_iterable(simple))
    spare = [(a, b) for a, b in simple if degrees[a] < 39 and degrees[b] < 39]
    repeated = simple + spare
    assert spare and max_degree(repeated) == 40
    for edges, colored, colorer in (
        (bipartite, range(len(bipartite)), lambda e: exact(e, sides_for(64, 64))),
        (repeated, range(len(simple)), general),
    ):
        flips.clear()
        colors = colorer(edges)
        assert len(flips) > 30
        assert is_proper([edges[i] for i in colored], [colors[i] for i in colored])
        shift, table = tables.pop()
        cells = Counter(chain.from_iterable(cells.values() for cells in table))
        assert set(cells.values()) == {2}
        assert sorted(cell >> shift + 1 for cell in cells) == list(colored)
        for c, at in enumerate(table):  # and each cell sits at its color
            assert all(colors[cell >> shift + 1] == c for cell in at.values())
    assert colors[len(simple) :] == [colors[simple.index(e)] for e in spare]


def test_fan_step_runs_when_no_common_color_is_free():
    # D = 3, reached by 2 and 5 in the prefix and by 0 and 1 with the last
    # edge, so the palette is [0, 4) with or without it. Before the last edge,
    # lowest-common-free coloring leaves 0 holding colors {0, 1} and 1
    # holding {2, 3}, so (0, 1) must go through the fan step.
    prefix = [
        (2, 3), (2, 4), (1, 2),  # 2 takes 0, 1, so (1, 2) takes 2
        (5, 6), (5, 7), (1, 5),  # 5 takes 0, 1, 1 has 2: (1, 5) takes 3
        (0, 8), (0, 9),  # 0 takes 0, 1
    ]
    edges = prefix + [(0, 1)]
    dmax = max_degree(edges)
    assert dmax == max_degree(prefix) == 3  # same palette
    before = general(prefix)
    at = {}
    for (a, b), c in zip(prefix, before):
        at.setdefault(a, set()).add(c)
        at.setdefault(b, set()).add(c)
    assert at[0] | at[1] == set(range(dmax + 1))  # no common free color

    colors = general(edges)
    assert is_proper(edges, colors)
    assert max(colors) <= dmax
    assert colors[:-1] != before  # the fan step recolored a stored edge


def test_fan_rotation_handles_odd_cycles():
    for n in (3, 5, 7, 9):
        cyc = [(i, (i + 1) % n) for i in range(n)]
        colors = general(cyc)
        assert is_proper(cyc, colors)
        assert len(set(colors)) == 3


# --- greedy colorer ---


def test_greedy_hand_cases():
    assert greedy([(0, 1)]) == [0]
    assert greedy([(0, 1), (1, 2), (0, 2)]) == [0, 1, 2]
    star = [(0, i) for i in range(1, 8)]
    assert greedy(star) == list(range(7))


def test_greedy_stays_below_twice_degree():
    rng = random.Random(4)
    for _ in range(500):
        n = rng.randrange(2, 20)
        pool = list(itertools.combinations(range(n), 2))
        rng.shuffle(pool)
        edges = pool[: rng.randrange(1, 30)]
        colors = greedy(edges)
        assert is_proper(edges, colors)
        assert max(colors) <= 2 * max_degree(edges) - 2


def test_meter_scratch_is_released():
    meter = SpaceMeter()
    edges = [(0, 1), (1, 2), (2, 3)]
    general(edges, meter)
    assert meter.current_words == 0
    assert meter.peak_words == 2 * len(edges) + 4 * 2  # an id and a mask word per vertex
    greedy(edges, meter)
    exact(edges, {0: 0, 1: 1, 2: 0, 3: 1}, meter)
    assert meter.current_words == 0
