"""Perfect matchings between edge slots and base colors.

When an online vertex arrives, each of its edges becomes a slot adjacent
to the three base colors currently proposed by its offline endpoint. A
perfect matching of slots to base colors yields a conflict-free color
choice for the whole arrival: matched base colors are pairwise distinct,
and re-adding each slot's band offset keeps them distinct.

`maximum_matching` runs Hopcroft-Karp with the right side stored sparsely
(only colors actually proposed), so one call costs O(slots) space and can
be discarded before the next arrival. Its first phase, where every slot
is free, is exactly a greedy pass (each slot in index order takes its
lowest free color) and runs as a plain loop; on proposal slots it usually
matches every slot, and the call ends there. Otherwise the BFS/DFS phases
continue from the greedy state, with each DFS walking its augmenting path
on an explicit stack, so no path length can exhaust the interpreter's
recursion limit. All tie-breaks are fixed (lowest color id first, then
lowest slot id), making runs reproducible. The one-sided colorer runs the
greedy pass itself as it reads an arrival's proposals, and calls
`maximum_matching` only when that pass leaves a slot unmatched.

`brute_force_match` is the independent oracle used by the tests, and
`kout_trial` samples the random k-out model that the spill analysis rests
on: each left vertex picks k uniform distinct right vertices, and we ask
whether a perfect matching exists.
"""

from __future__ import annotations

import random
from collections import deque

from .errors import InstanceTooLarge


def maximum_matching(slots: list[tuple[int, ...]]) -> list[int]:
    """Hopcroft-Karp over slot -> color adjacency, greedy first phase.

    Returns the matched color per slot (-1 if unmatched). Neighbors are
    scanned in ascending color order and free slots in index order, so the
    result is a pure function of the input.

    Hopcroft-Karp's first phase starts with every slot free at distance 0,
    so it is exactly a greedy pass: each slot, in index order, takes its
    lowest color not yet taken. That pass runs as a plain loop, and when it
    matches every slot (the common case for proposal slots) the result is
    returned at once. Otherwise the BFS/DFS phases continue from the greedy
    state, each DFS walking its augmenting path with an explicit stack, in
    the order the recursive formulation visits slots and colors.

    `core.OneSidedColorer.on_online_vertex` runs this greedy pass itself,
    in the same order and with the same tie-break, and calls this function
    only when its pass leaves a slot unmatched; a change to either pass
    must be made in both.
    """
    n = len(slots)
    adj = [sorted(s) for s in slots]
    match_slot = [-1] * n
    match_color: dict[int, int] = {}

    for i, cs in enumerate(adj):
        for c in cs:
            if c not in match_color:
                match_slot[i] = c
                match_color[c] = i
                break
    if -1 not in match_slot:
        return match_slot

    dist = [0] * n
    while True:
        queue: deque[int] = deque()
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
        for i in range(n):
            if match_slot[i] == -1:
                _augment(i, adj, dist, match_slot, match_color)

    return match_slot


def _augment(root, adj, dist, match_slot, match_color) -> None:
    """One layered DFS from the free slot `root`; flips the path it finds.

    `path[k]` is the slot at depth k and `nxt[k]` the index of the next
    color it tries, so `adj[path[k]][nxt[k] - 1]` is the color it tried
    last. A slot whose colors are exhausted leaves the layering (distance
    -1), as in the recursive DFS.
    """
    path = [root]
    nxt = [0]
    while path:
        i = path[-1]
        cs = adj[i]
        k = nxt[-1]
        while k < len(cs):
            c = cs[k]
            k += 1
            j = match_color.get(c, -1)
            if j == -1:
                nxt[-1] = k
                for slot, tried in zip(path, nxt):
                    c = adj[slot][tried - 1]
                    match_slot[slot] = c
                    match_color[c] = slot
                return
            if dist[j] == dist[i] + 1:
                nxt[-1] = k
                path.append(j)
                nxt.append(0)
                break
        else:
            dist[i] = -1
            path.pop()
            nxt.pop()


def brute_force_match(slots: list[tuple[int, ...]]) -> list[tuple[int, int]] | None:
    """Exhaustive per-slot choice search; the test oracle for `maximum_matching`.

    Returns one (color, position in the slot) pair per slot, or None when
    no choice saturates every slot. Tries colors in ascending order per
    slot, so the first assignment found is lexicographically least.
    Rejects instances with more than 12 slots.
    """
    n = len(slots)
    if n > 12:
        raise InstanceTooLarge(f"{n} slots exceed the exhaustive limit of 12")
    choice = [(-1, -1)] * n
    used: set[int] = set()

    def assign(i: int) -> bool:
        if i == n:
            return True
        for c in sorted(slots[i]):
            if c not in used:
                used.add(c)
                choice[i] = (c, slots[i].index(c))
                if assign(i + 1):
                    return True
                used.remove(c)
        return False

    return list(choice) if assign(0) else None


def sample_distinct(rng: random.Random, n: int, k: int) -> list[int]:
    """A uniform k-subset of [0, n) by partial Fisher-Yates with sparse swaps."""
    swaps: dict[int, int] = {}
    out = []
    for i in range(k):
        j = rng.randrange(i, n)
        vi = swaps.get(i, i)
        vj = swaps.get(j, j)
        swaps[i], swaps[j] = vj, vi
        out.append(vj)
    return out


def kout_trial(n: int, u_size: int, k: int, rng: random.Random) -> bool:
    """Sample one k-out instance and report whether it has a perfect matching."""
    if not 1 <= k <= u_size:
        raise ValueError("need u_size >= k >= 1")
    slots = [tuple(sample_distinct(rng, u_size, k)) for _ in range(n)]
    return all(c != -1 for c in maximum_matching(slots))
