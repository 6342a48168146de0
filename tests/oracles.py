"""Independent straight-from-definition reference implementations.

Everything here is deliberately naive: pair-set unions materialized as
Python sets, exponential DP for independence, exhaustive subset scans.
The package must agree with these on small instances.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache
from itertools import combinations

import numpy as np


# ---------------------------------------------------------------- triangles


def triangles_bruteforce(n: int, edges) -> int:
    es = {(min(u, v), max(u, v)) for u, v in edges}
    count = 0
    for a, b, c in combinations(range(n), 3):
        if (a, b) in es and (a, c) in es and (b, c) in es:
            count += 1
    return count


def triangles_dense(n: int, edges) -> int:
    """trace(A^3) / 6 from a dense float32 adjacency, over all triples at once.

    Exact while path counts stay below 2^24, i.e. for any n this is sane for.
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    adj = np.zeros((n, n), dtype=np.float32)
    adj[e[:, 0], e[:, 1]] = adj[e[:, 1], e[:, 0]] = 1.0
    total = float(((adj @ adj) * adj).sum(dtype=np.float64))
    return int(round(total)) // 6


# ------------------------------------------------- product + deletion rule


def product_flags_bruteforce(gr_edges, gb_edges, N: int):
    """Red/blue flag sets of the product, straight from the definition.

    Cells are (i, j) tuples; a pair carries red iff the first coordinates
    are adjacent in the red base, blue iff the seconds are adjacent in blue.
    """
    er = {(min(u, v), max(u, v)) for u, v in gr_edges}
    eb = {(min(u, v), max(u, v)) for u, v in gb_edges}
    cells = [(i, j) for i in range(N) for j in range(N)]
    red, blue = set(), set()
    for u, v in combinations(cells, 2):
        if u[0] != v[0] and (min(u[0], v[0]), max(u[0], v[0])) in er:
            red.add((u, v))
        if u[1] != v[1] and (min(u[1], v[1]), max(u[1], v[1])) in eb:
            blue.add((u, v))
    return red, blue


def base_adjacency_oneshot(rng, N: int, p: float) -> np.ndarray:
    """One base adjacency: all upper-triangle draws at once, row-major."""
    iu = np.triu_indices(N, 1)
    adj = np.zeros((N, N), dtype=bool)
    adj[iu] = rng.random(iu[0].size) < p
    adj |= adj.T
    return adj


def _neighbors(edges, N):
    nbr = [set() for _ in range(N)]
    for u, v in edges:
        nbr[u].add(v)
        nbr[v].add(u)
    return nbr


def _pairs_within(box) -> set:
    return set(combinations(sorted(box), 2))


def deletion_bruteforce(gr_edges, gb_edges, N: int):
    """Flag sets after deletion, via explicit box pair-set unions.

    Boxes: X+_{r_i} = N+(r_i) x V_B and X_{b_i} = V_R x N(b_i) kill red;
    X_{r_i} = N(r_i) x V_B and X+_{b_i} = V_R x N+(b_i) kill blue.
    """
    red, blue = product_flags_bruteforce(gr_edges, gb_edges, N)
    nr = _neighbors(gr_edges, N)
    nb = _neighbors(gb_edges, N)
    every = range(N)

    red_kill, blue_kill = set(), set()
    for i in range(N):
        # boxes indexed by the red-side vertex r_i: rows constrained
        upper_r = {a for a in nr[i] if a > i}
        red_kill |= _pairs_within([(a, b) for a in upper_r for b in every])
        blue_kill |= _pairs_within([(a, b) for a in nr[i] for b in every])
        # boxes indexed by the blue-side vertex b_i: columns constrained
        upper_b = {b for b in nb[i] if b > i}
        blue_kill |= _pairs_within([(a, b) for a in every for b in upper_b])
        red_kill |= _pairs_within([(a, b) for a in every for b in nb[i]])
    return red - red_kill, blue - blue_kill


def flags_of_product(g, N: int):
    """Flag sets of a ColoredProductGraph in oracle form (cell-tuple pairs)."""
    red, blue = set(), set()
    cells = [(i, j) for i in range(N) for j in range(N)]
    for u, v in combinations(cells, 2):
        r, b = g.edge_flags(u, v)
        if r:
            red.add((u, v))
        if b:
            blue.add((u, v))
    return red, blue


# --------------------------------------------- integer count products


def common_matrices_int32(adj):
    """(common, common-upper) neighbour matrices from int32 matmuls."""
    N = adj.shape[0]
    a = adj.astype(np.int32)
    below = (adj & (np.arange(N)[:, None] < np.arange(N)[None, :])).astype(np.int32)
    return (a @ a) > 0, (below.T @ below) > 0


def concentration_int64(gr_adj, gb_adj, rows, cols, params, eps2=None, C=None):
    """The seven concentration checks as BoundCheck.to_dict() dicts.

    Every count is an int64 matrix product, with diag(fiber sizes) as an
    explicit middle factor and each off-diagonal taken by triu_indices.
    """
    eps2 = params.eps2 if eps2 is None else eps2
    C = params.C if C is None else C
    n, N = params.n, params.N
    log_n = math.log(n)
    pn, pN = params.p * n, params.p * N
    ar = gr_adj.astype(np.int64)
    ab = gb_adj.astype(np.int64)
    occ = np.zeros((N, N), dtype=np.int64)
    occ[rows, cols] = 1
    fib_r = np.bincount(rows, minlength=N).astype(np.int64)
    fib_c = np.bincount(cols, minlength=N).astype(np.int64)
    iu = np.triu_indices(N, 1)

    def window(index, name, values, center, tol):
        dev = np.abs(np.asarray(values, dtype=float) - center)
        return (index, name, tol, float(dev.max()), int(dev.size),
                int((dev > tol).sum()))

    def cap(index, name, values, bound):
        vals = np.asarray(values, dtype=float)
        return (index, name, bound, float(vals.max()), int(vals.size),
                int((vals > bound).sum()))

    colhit = ((ar @ occ) > 0).astype(np.int64)
    rowhit = ((occ @ ab) > 0).astype(np.int64)
    checks = [
        window(1, "fiber_size", np.concatenate([fib_r, fib_c]),
               log_n ** 2, eps2 * log_n ** 2),
        window(2, "base_degree", np.concatenate([ar.sum(1), ab.sum(1)]),
               pN, eps2 * pN),
        cap(3, "base_codegree", np.concatenate([(ar @ ar)[iu], (ab @ ab)[iu]]),
            C * log_n),
        window(4, "union_size", np.concatenate([ar @ fib_r, ab @ fib_c]),
               pn, eps2 * pn),
        cap(5, "union_codegree", np.concatenate([
            (ar @ np.diag(fib_r) @ ar)[iu], (ab @ np.diag(fib_c) @ ab)[iu],
            (ar @ occ @ ab).ravel()]), C * log_n ** 3),
        cap(6, "column_projection_codegree", (colhit @ colhit.T)[iu],
            C * log_n ** 3),
        cap(7, "row_projection_codegree", (rowhit.T @ rowhit)[iu],
            C * log_n ** 3),
    ]
    keys = ("index", "name", "bound", "worst", "n_checked", "n_violations")
    return [{**dict(zip(keys, c)), "passed": c[5] == 0} for c in checks]


# ---------------------------------------------------------- closed pairs


def closed_pairs_bruteforce(I_rows, I_cols, gr_edges, gb_edges, N: int,
                            plus: bool):
    """Pairs of I covered by some box C(X_v(I), 2), as index pairs into I.

    X_{r_i}(I) = members of I whose row lies in N(r_i) (N+ when plus);
    X_{b_i}(I) = members whose column lies in N(b_i) (N+ when plus).
    """
    nr = _neighbors(gr_edges, N)
    nb = _neighbors(gb_edges, N)
    k = len(I_rows)
    covered = set()
    for i in range(N):
        rows_in = {a for a in nr[i] if a > i} if plus else nr[i]
        cols_in = {b for b in nb[i] if b > i} if plus else nb[i]
        box_r = [t for t in range(k) if I_rows[t] in rows_in]
        box_b = [t for t in range(k) if I_cols[t] in cols_in]
        covered |= _pairs_within(box_r)
        covered |= _pairs_within(box_b)
    return covered


# ---------------------------------------------------------- independence


def greedy_min_degree_heap(g, rng) -> list[int]:
    """Min-degree greedy on a lazy-deletion heap, one push per decrement."""
    n = g.n
    deg = g.degree_sequence().astype(np.int64).copy()
    alive = np.ones(n, dtype=bool)
    heap = [(int(deg[v]), rng.random(), v) for v in range(n)]
    heapq.heapify(heap)
    chosen = []
    while heap:
        d, _, v = heapq.heappop(heap)
        if not alive[v] or d != deg[v]:
            continue
        chosen.append(v)
        alive[v] = False
        for w in g.neighbors(v).tolist():
            if alive[w]:
                alive[w] = False
                for x in g.neighbors(w).tolist():
                    if alive[x]:
                        deg[x] -= 1
                        heapq.heappush(heap, (int(deg[x]), rng.random(), x))
    return chosen


def alpha_bruteforce(n: int, edges) -> int:
    """Exact independence number by subset DP (n <= ~20)."""
    masks = [0] * n
    for u, v in edges:
        u, v = int(u), int(v)
        masks[u] |= 1 << v
        masks[v] |= 1 << u

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if mask == 0:
            return 0
        v = (mask & -mask).bit_length() - 1
        without = best(mask & ~(1 << v))
        with_v = 1 + best(mask & ~(1 << v) & ~masks[v])
        return max(without, with_v)

    out = best((1 << n) - 1)
    best.cache_clear()
    return out


# ------------------------------------------------------------ star scan


def star_free_bruteforce(h) -> bool:
    """Exhaustive 4-subset scan for the forbidden 3-uniform star."""
    n = h.order
    present = h.flags
    for quad in combinations(range(n), 4):
        for center in quad:
            rest = [x for x in quad if x != center]
            star = [tuple(sorted((center, rest[0], rest[1]))),
                    tuple(sorted((center, rest[0], rest[2]))),
                    tuple(sorted((center, rest[1], rest[2])))]
            if all(t in present for t in star):
                return False
    return True


def count_stars_bruteforce(h) -> int:
    n = h.order
    present = h.flags
    found = 0
    for quad in combinations(range(n), 4):
        for center in quad:
            rest = [x for x in quad if x != center]
            star = [tuple(sorted((center, rest[0], rest[1]))),
                    tuple(sorted((center, rest[0], rest[2]))),
                    tuple(sorted((center, rest[1], rest[2])))]
            if all(t in present for t in star):
                found += 1
    return found


# ------------------------------------------------------------ fractions f


def f_reference(l_r: int, l_b: int, k: int, pn: float) -> float:
    """f via exact rational arithmetic (independent of the float path)."""
    from fractions import Fraction

    def c2(x: Fraction) -> Fraction:
        return x * (x - 1) / 2 if x >= 1 else Fraction(0)

    def side(l) -> Fraction:
        l = Fraction(l)
        q = Fraction(pn)
        return c2(l) - min(c2(k - l), c2(q) + c2(k - l - q))

    return float(side(l_r) + side(l_b))
