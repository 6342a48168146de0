"""Independent set solvers.

Exact: branch and bound for a maximum clique of the complement graph, with a
greedy coloring bound and Python-int bitset adjacency.  The node budget makes
runs deterministic and interruptible; on exhaustion the incumbent (always a
valid independent set) is returned with optimal=False.

Heuristic: best of the max-degree neighborhood (independent whenever the
graph is triangle-free, which gives alpha >= max degree there) and repeated
min-degree greedy passes with random tie-breaking, then a (1,2)-swap local
improvement.  A greedy pass runs over the CSR arrays with a degree array and
a key array (no heap): each step is one argmin over the live vertices and
one gather of the removed neighbourhood's neighbour lists.  Certificates are
validated before returning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construction import child_rng
from .graphview import SimpleGraphView

__all__ = ["IndependenceResult", "independence_exact", "independence_greedy",
           "is_independent_set"]

DEFAULT_BUDGET = 10_000_000


@dataclass
class IndependenceResult:
    method: str
    value: int
    certificate: list[int]
    optimal: bool
    nodes: int  # search nodes (exact) or passes (greedy) consumed


def _bitmask_rows(g: SimpleGraphView) -> list[int]:
    rows = [0] * g.n
    heads = np.repeat(np.arange(g.n), np.diff(g.indptr))
    for u, v in zip(heads.tolist(), g.indices.tolist()):
        rows[u] |= 1 << v
    return rows


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
        return IndependenceResult("exact", 0, [], True, 0)
    adj = _bitmask_rows(g)
    full = (1 << n) - 1
    comp = [full ^ adj[v] ^ (1 << v) for v in range(n)]

    # greedy seed so the incumbent is meaningful even on budget exhaustion
    seed_res = independence_greedy(g, restarts=1, seed=0)
    best = [seed_res.value, list(seed_res.certificate)]
    nodes = [0]

    def color_sort(cand: int):
        """Vertices of cand with greedy clique-cover colors, ascending."""
        order, colors = [], []
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            q = uncolored
            while q:
                v = (q & -q).bit_length() - 1
                bit = 1 << v
                q &= ~comp[v]
                q &= ~bit
                uncolored &= ~bit
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
        order, colors = color_sort(cand)
        for i in range(len(order) - 1, -1, -1):
            if r_size + colors[i] <= best[0]:
                return
            v = order[i]
            bit = 1 << v
            expand(r_size + 1, r_mask | bit, cand & comp[v])
            cand &= ~bit

    optimal = True
    try:
        expand(0, 0, full)
    except _Budget:
        optimal = False
    value, cert = best[0], sorted(best[1])
    if not is_independent_set(g, cert):
        raise AssertionError("exact solver produced an invalid certificate")
    return IndependenceResult("exact", value, cert, optimal, nodes[0])


_DEAD = np.iinfo(np.int64).max  # degree of a removed vertex


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
    """
    n = g.n
    indptr, indices = g.indptr, g.indices
    deg = g.degree_sequence().astype(np.int64)
    key = rng.random(n)
    rank = np.full(n, n, dtype=np.int64)  # position among the step's w_i
    chosen = []
    while True:
        d = deg.min(initial=_DEAD)
        if d == _DEAD:
            break
        ties = np.flatnonzero(deg == d)
        v = int(ties[np.argmin(key[ties])])
        chosen.append(v)
        deg[v] = _DEAD
        nb = indices[indptr[v]:indptr[v + 1]]
        ws = nb[deg[nb] != _DEAD]
        if not ws.size:
            continue
        rank[ws] = np.arange(ws.size)
        # neighbour lists of w_0, w_1, ... concatenated; owner[t] = i of x_t
        lens = indptr[ws + 1] - indptr[ws]
        owner = np.repeat(np.arange(ws.size), lens)
        xs = indices[np.arange(owner.size)
                     + np.repeat(indptr[ws] - (np.cumsum(lens) - lens), lens)]
        xs = xs[(deg[xs] != _DEAD) & (rank[xs] > owner)]
        draws = rng.random(xs.size)
        # first occurrence in reverse = last decrement of each vertex
        hit, last, count = np.unique(xs[::-1], return_index=True,
                                     return_counts=True)
        deg[hit] -= count
        key[hit] = draws[xs.size - 1 - last]
        deg[ws] = _DEAD
    return chosen


def _swap_improve(g: SimpleGraphView, chosen: list[int], rounds: int = 5) -> list[int]:
    """(1,2)-swaps: drop one chosen vertex, add two of its exclusive outsiders."""
    current = set(chosen)

    def no_chosen_neighbor(w, skip=None):
        return all(x == skip or x not in current for x in g.neighbors(w).tolist())

    for _ in range(rounds):
        improved = False
        # maximality first: outsiders with no chosen neighbor join directly
        for w in range(g.n):
            if w not in current and no_chosen_neighbor(w):
                current.add(w)
                improved = True
        cnt: dict[int, int] = {}
        owner: dict[int, int] = {}
        for v in current:
            for w in g.neighbors(v).tolist():
                cnt[w] = cnt.get(w, 0) + 1
                owner[w] = v
        candidates: dict[int, list[int]] = {}
        for w, c in cnt.items():
            if c == 1 and w not in current:
                candidates.setdefault(owner[w], []).append(w)
        for v, outs in candidates.items():
            if v not in current:
                continue
            done = False
            for ii in range(len(outs)):
                a = outs[ii]
                # counters can be stale after earlier swaps; recheck on use
                if a in current or not no_chosen_neighbor(a, v):
                    continue
                for jj in range(ii + 1, len(outs)):
                    b = outs[jj]
                    if b in current or g.has_edge(a, b):
                        continue
                    if no_chosen_neighbor(b, v):
                        current.remove(v)
                        current.add(a)
                        current.add(b)
                        improved = done = True
                        break
                if done:
                    break
        if not improved:
            break
    return sorted(current)


def independence_greedy(g: SimpleGraphView, restarts: int = 3,
                        seed: int = 0) -> IndependenceResult:
    """Heuristic independent set; value >= max degree on triangle-free graphs."""
    n = g.n
    if n == 0:
        return IndependenceResult("greedy", 0, [], True, 0)
    rng = child_rng(seed, 63)
    best: list[int] = []

    if g.m:
        v_star = int(np.argmax(g.degree_sequence()))
        nb = g.neighbors(v_star).tolist()
        if is_independent_set(g, nb):  # always true when triangle-free
            best = sorted(nb)
    passes = 0
    for _ in range(max(1, restarts)):
        passes += 1
        cand = _greedy_min_degree(g, rng)
        if len(cand) > len(best):
            best = sorted(cand)
    best = _swap_improve(g, best)
    if not is_independent_set(g, best):
        raise AssertionError("greedy produced an invalid certificate")
    return IndependenceResult("greedy", len(best), best, len(best) == n, passes)
