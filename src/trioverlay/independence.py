"""Independent set solvers.

Exact: branch and bound for a maximum clique of the complement graph, with a
greedy coloring bound and Python-int bitset adjacency (after San Segundo et
al., "An exact bit-parallel algorithm for the maximum clique problem").  A
colour class of the complement is a clique of the graph, so the colouring
runs on the graph's own adjacency rows, and no complement row is built.
Classes 1..kmin, kmin = best - |R|, are coloured but never branched on: the
incumbent only grows, so the bound would prune each of them.  The node budget
makes runs deterministic and interruptible; on exhaustion the incumbent
(always a valid independent set) is returned with optimal=False.

Heuristic: best of the max-degree neighborhood (independent whenever the
graph is triangle-free, which gives alpha >= max degree there) and repeated
min-degree greedy passes with random tie-breaking, then a (1,2)-swap local
improvement.  A greedy pass runs over the CSR arrays with a degree array and
a key array (no heap): each step is one argmin over the live vertices and
one gather of the removed neighbourhood's neighbour lists, and once the
minimum degree is 0 one step takes every degree-0 vertex, in key order.
The swaps keep each vertex's chosen-neighbour count in an array and find
each owner's exclusive outsiders from the chosen rows' CSR slices; owners
are visited in the iteration order of the chosen Python set, which is not
ascending in general and fixes which swaps happen.  Certificates are
validated before returning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construction import STREAM_GREEDY, child_rng
from .graphview import SimpleGraphView

__all__ = ["IndependenceResult", "independence_exact", "independence_greedy",
           "is_independent_set"]

DEFAULT_BUDGET = 10_000_000


@dataclass
class IndependenceResult:
    certificate: list[int]
    optimal: bool
    nodes: int  # search nodes (exact) or passes (greedy) consumed

    @property
    def value(self) -> int:
        return len(self.certificate)


def _bitmask_rows(g: SimpleGraphView) -> list[int]:
    """Row u as a Python int with bit v set iff uv is an edge."""
    return [int.from_bytes(row.tobytes(), "little")
            for row in g.packed_rows().astype("<u8", copy=False)]


def is_independent_set(g: SimpleGraphView, vertices) -> bool:
    """True iff vertices are distinct and pairwise non-adjacent in g."""
    vs = np.fromiter((int(v) for v in vertices), dtype=np.int64)
    if vs.size and (vs.min() < 0 or vs.max() >= g.n):
        raise ValueError("vertex out of range")
    mark = np.zeros(g.n, dtype=bool)
    mark[vs] = True
    if np.count_nonzero(mark) != vs.size:
        return False
    # an edge inside the set is a CSR entry with both ends marked
    heads = np.repeat(mark, np.diff(g.indptr))
    return not (heads & mark[g.indices]).any()


class _Budget(Exception):
    pass


def independence_exact(g: SimpleGraphView, budget: int = DEFAULT_BUDGET) -> IndependenceResult:
    """Maximum independent set via max clique of the complement."""
    n = g.n
    if n == 0:
        return IndependenceResult([], True, 0)
    adj = _bitmask_rows(g)

    # greedy seed so the incumbent is meaningful even on budget exhaustion
    seed_res = independence_greedy(g, restarts=1, seed=0)
    best = [seed_res.value, list(seed_res.certificate)]
    nodes = [0]

    def color_sort(cand: int, kmin: int):
        """Vertices of cand with greedy clique-cover colors, ascending, but
        only those of colors above kmin: the loop in expand would prune the
        rest.  Each class is a clique of g, taken greedily from its lowest
        uncolored vertex."""
        order, colors = [], []
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            q = uncolored
            while q:
                bit = q & -q
                v = bit.bit_length() - 1
                q &= adj[v]
                uncolored ^= bit
                if color > kmin:
                    order.append(v)
                    colors.append(color)
        return order, colors

    def expand(r_size: int, r_mask: int, cand: int):
        nodes[0] += 1
        if nodes[0] > budget:
            raise _Budget
        if cand == 0:
            if r_size > best[0]:
                best[0] = r_size
                best[1] = [v for v in range(n) if (r_mask >> v) & 1]
            return
        order, colors = color_sort(cand, best[0] - r_size)
        for i in range(len(order) - 1, -1, -1):
            if r_size + colors[i] <= best[0]:
                return
            v = order[i]
            bit = 1 << v
            expand(r_size + 1, r_mask | bit, (cand & ~adj[v]) ^ bit)
            cand ^= bit

    optimal = True
    try:
        expand(0, 0, (1 << n) - 1)
    except _Budget:
        optimal = False
    cert = sorted(best[1])
    if not is_independent_set(g, cert):
        raise AssertionError("exact solver produced an invalid certificate")
    return IndependenceResult(cert, optimal, nodes[0])


_DEAD = np.iinfo(np.int64).max  # degree of a removed vertex


def _rows(g: SimpleGraphView, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR rows of vs concatenated, and their lengths."""
    indptr = g.indptr
    lens = indptr[vs + 1] - indptr[vs]
    at = np.arange(lens.sum()) + np.repeat(indptr[vs] - (np.cumsum(lens) - lens),
                                           lens)
    return g.indices[at], lens


def _greedy_min_degree(g: SimpleGraphView, rng) -> list[int]:
    """Min-degree greedy with random tie-breaks, over the CSR arrays.

    Each step takes the live vertex with the smallest (degree, key, index),
    where key is its latest tie-break draw, and removes it with its live
    neighbours w_0, w_1, ... (CSR order).  Removing w_i decrements every
    vertex still live then, i.e. live and not some w_j with j <= i, and gives
    it a fresh key.  Draws: rng.random(n) for the initial keys, then one per
    decrement in that loop order; a vertex decremented twice keeps its last.
    This is the output and the draw stream of a lazy-deletion heap with one
    push per decrement, whose only valid entry per vertex is its latest.
    A degree-0 pick removes nothing else and draws nothing, so once the
    minimum is 0 every degree-0 vertex is picked next, in (key, index)
    order: one step takes them all.
    """
    n = g.n
    deg = g.degree_sequence().astype(np.int64)
    key = rng.random(n)
    rank = np.full(n, n, dtype=np.int64)  # position among the step's w_i
    last = np.full(n, -1, dtype=np.int64)  # within a step: last t with x_t = x
    chosen = []
    while True:
        d = deg.min(initial=_DEAD)
        if d == _DEAD:
            break
        ties = np.flatnonzero(deg == d)
        if d == 0:
            ties = ties[np.argsort(key[ties], kind="stable")]
            chosen.extend(ties.tolist())
            deg[ties] = _DEAD
            continue
        v = int(ties[np.argmin(key[ties])])
        chosen.append(v)
        deg[v] = _DEAD
        nb = g.neighbors(v)
        ws = nb[deg[nb] != _DEAD]
        if not ws.size:
            continue
        rank[ws] = np.arange(ws.size)
        # neighbour lists of w_0, w_1, ... concatenated; owner[t] = i of x_t
        xs, lens = _rows(g, ws)
        owner = np.repeat(np.arange(ws.size), lens)
        xs = xs[(deg[xs] != _DEAD) & (rank[xs] > owner)]
        draws = rng.random(xs.size)
        deg -= np.bincount(xs, minlength=n)
        # each decremented vertex keeps the draw of its last decrement
        t = np.arange(xs.size)
        np.maximum.at(last, xs, t)
        t = t[last[xs] == t]
        key[xs[t]] = draws[t]
        last[xs] = -1
        deg[ws] = _DEAD
    return chosen


def _swap_improve(g: SimpleGraphView, chosen: list[int], rounds: int = 5) -> list[int]:
    """(1,2)-swaps: drop one chosen vertex, add two of its exclusive outsiders.

    A round first adds, in ascending order, every outsider with no chosen
    neighbour (only those free when the round starts can be).  It then
    groups the exclusive outsiders (one chosen neighbour, the owner) by
    owner, ascending within each, and visits the owners in the iteration
    order of the set `current`, which is not ascending in general: at the
    first pair a < b of an owner's outsiders that are still exclusive and
    not adjacent, the owner leaves and a, b join.  cnt, each vertex's
    chosen-neighbour count, is kept exact through every change, so each
    recheck is one lookup.
    """
    n, indices, indptr = g.n, g.indices, g.indptr
    current = set(chosen)
    mask = np.zeros(n, dtype=bool)
    mask[np.fromiter(current, dtype=np.int64, count=len(current))] = True
    cnt = np.bincount(_rows(g, np.flatnonzero(mask))[0], minlength=n)

    def join(w):
        current.add(w)
        mask[w] = True
        cnt[indices[indptr[w]:indptr[w + 1]]] += 1

    def leave(w):
        current.remove(w)
        mask[w] = False
        cnt[indices[indptr[w]:indptr[w + 1]]] -= 1

    for _ in range(rounds):
        improved = False
        # maximality first: outsiders with no chosen neighbour join directly
        for w in np.flatnonzero((cnt == 0) & ~mask).tolist():
            if cnt[w] == 0:
                join(w)
                improved = True
        # exclusive outsiders by owner, from the chosen rows in ascending order
        owned = np.flatnonzero(mask)
        nbrs, lens = _rows(g, owned)
        heads = np.repeat(owned, lens)
        excl = (cnt[nbrs] == 1) & ~mask[nbrs]
        heads, outs = heads[excl], nbrs[excl]
        owner, start, size = np.unique(heads, return_index=True,
                                       return_counts=True)
        first = np.zeros(n, dtype=np.int64)
        count = np.zeros(n, dtype=np.int64)
        first[owner], count[owner] = start, size
        order = np.fromiter(current, dtype=np.int64, count=len(current))
        for v in order[count[order] > 1].tolist():
            if not mask[v]:
                continue
            # still exclusive: v, still chosen, is the one chosen neighbour
            cand = outs[first[v]:first[v] + count[v]]
            cand = cand[(cnt[cand] == 1) & ~mask[cand]]
            for i in range(cand.size - 1):
                a = cand[i]
                later = cand[i + 1:]
                nb = indices[indptr[a]:indptr[a + 1]]
                # nb holds v, so it is not empty
                at = np.minimum(np.searchsorted(nb, later), nb.size - 1)
                free = np.flatnonzero(nb[at] != later)
                if free.size:
                    leave(v)
                    join(int(a))
                    join(int(later[free[0]]))
                    improved = True
                    break
        if not improved:
            break
    return sorted(current)


def independence_greedy(g: SimpleGraphView, restarts: int = 3,
                        seed: int = 0) -> IndependenceResult:
    """Heuristic independent set; value >= max degree on triangle-free graphs."""
    n = g.n
    if n == 0:
        return IndependenceResult([], True, 0)
    rng = child_rng(seed, STREAM_GREEDY)
    best: list[int] = []

    if g.m:
        v_star = int(np.argmax(g.degree_sequence()))
        nb = g.neighbors(v_star).tolist()
        if is_independent_set(g, nb):  # always true when triangle-free
            best = sorted(nb)
    passes = max(1, restarts)
    for _ in range(passes):
        cand = _greedy_min_degree(g, rng)
        if len(cand) > len(best):
            best = sorted(cand)
    best = _swap_improve(g, best)
    if not is_independent_set(g, best):
        raise AssertionError("greedy produced an invalid certificate")
    return IndependenceResult(best, len(best) == n, passes)
