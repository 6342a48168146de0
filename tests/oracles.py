"""Independent straight-from-definition reference implementations.

Everything here is deliberately naive: pair-set unions materialized as
Python sets, exponential DP for independence, exhaustive subset scans.
The package must agree with these on small instances.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, permutations

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


def placed_edge_array(product, placement) -> np.ndarray:
    """(m, 2) edges u < v of the placed graph, lexicographic, from the dense
    n x n flag matrices of the placed cells."""
    rows, cols = placement.rows, placement.cols
    red, blue = product.pair_flags(rows[:, None], cols[:, None], rows, cols)
    return np.argwhere(np.triu(red | blue, 1))


def placed_edges_by_induce(product, placement, edges) -> bool:
    """Re-induce the placed graph and compare edge arrays, entry by entry."""
    rebuilt = placed_edge_array(product, placement)
    edges = np.asarray(edges)
    return rebuilt.shape == edges.shape and bool((rebuilt == edges).all())


def placed_flag_tallies(product, placement, edges) -> dict:
    """Red, blue and dual flag counts over the edges of a materialized
    placed graph, one pair query per edge."""
    red = blue = dual = 0
    for u, v in edges:
        r, b = product.edge_flags(placement.cell_of(int(u)),
                                  placement.cell_of(int(v)))
        red, blue, dual = red + r, blue + b, dual + (r and b)
    return {"red": red, "blue": blue, "dual": dual, "edges": len(edges)}


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


def swap_improve_loop(g, chosen: list[int], rounds: int = 5) -> list[int]:
    """(1,2)-swaps on Python sets and dicts, one vertex at a time.

    Owners are visited in the iteration order of the set `current`, as the
    candidates dict meets them."""
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


def independence_exact_complement(g, budget: int = 10_000_000):
    """The exact solver colouring on complement rows and listing every
    coloured vertex: the same search tree as independence_exact."""
    from trioverlay.independence import (IndependenceResult, _bitmask_rows,
                                         _Budget, independence_greedy,
                                         is_independent_set)
    n = g.n
    if n == 0:
        return IndependenceResult([], True, 0)
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
    cert = sorted(best[1])
    if not is_independent_set(g, cert):
        raise AssertionError("exact solver produced an invalid certificate")
    return IndependenceResult(cert, optimal, nodes[0])


# ------------------------------------------------------------ star scan


@lru_cache(maxsize=None)
def _quads(n: int) -> np.ndarray:
    """Every 4-subset of range(n) as one (C(n, 4), 4) array, ascending."""
    count = math.comb(n, 4)
    quads = np.fromiter(chain.from_iterable(combinations(range(n), 4)),
                        dtype=np.int64, count=4 * count).reshape(count, 4)
    quads.flags.writeable = False  # one cached array for every caller
    return quads


def _star_table(h) -> np.ndarray:
    """[q, i] is True iff the 4-subset _quads(n)[q] carries the star centred
    at its i-th vertex: all three triples through that vertex present."""
    n = h.order
    present = np.zeros((n, n, n), dtype=bool)  # symmetric in its three axes
    for axes in permutations(h.triples.T):
        present[axes] = True
    quads = _quads(n)
    table = np.empty((len(quads), 4), dtype=bool)
    for i in range(4):
        c = quads[:, i]
        x, y, z = np.delete(quads, i, axis=1).T
        table[:, i] = present[c, x, y] & present[c, x, z] & present[c, y, z]
    return table


def star_free_bruteforce(h) -> bool:
    """Exhaustive 4-subset scan for the forbidden 3-uniform star."""
    return not _star_table(h).any()


def count_stars_bruteforce(h) -> int:
    """Stars over all 4-subsets and centres (the scan of star_free_bruteforce)."""
    return int(np.count_nonzero(_star_table(h)))


def count_stars_loop(h) -> int:
    """count_stars_bruteforce as a Python loop over the same subsets and
    centres: the reference for the array scan."""
    n = h.order
    present = set(map(tuple, h.triples.tolist()))
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


# ---------------------------------------------------------------- baselines
# The two baselines as bit loops over Python-int rows, drawing the same
# child streams as the package.  The package computes the edge-deletion
# output from its definition and runs the process on batched draws; both
# must give the same graphs and stats as these loops.


def _sample_gnp_rows(n: int, p: float, rng) -> list[int]:
    """Adjacency as python-int bitmasks, sampled row by row above diagonal."""
    rows = [0] * n
    for u in range(n - 1):
        keep = np.nonzero(rng.random(n - u - 1) < p)[0]
        for off in keep:
            v = u + 1 + int(off)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return rows


def _mask_edges(rows: list[int]) -> list[tuple[int, int]]:
    edges = []
    for u, mask in enumerate(rows):
        m = mask >> (u + 1) << (u + 1)
        while m:
            bit = m & -m
            v = bit.bit_length() - 1
            m ^= bit
            edges.append((u, v))
    return edges


def _forward_triangles(rows: list[int]) -> int:
    """Triangles a < b < c of Python-int rows, each once: the c above b
    common to a and b, over the edges (a, b)."""
    return sum(((rows[a] & rows[b]) >> (b + 1)).bit_count()
               for a, b in _mask_edges(rows))


def edge_deletion_loop(n: int, p: float, seed: int):
    """G(n, p), then one pass over triangles deleting each one's least edge.

    Triangles are enumerated in lexicographic order (a < b < c); a triangle
    still intact when reached loses its lexicographically least edge (a, b).
    Single pass: edges deleted earlier may already have destroyed it.
    """
    from trioverlay.baselines import BaselineResult
    from trioverlay.construction import STREAM_EDGE_DELETION, child_rng
    from trioverlay.graphview import SimpleGraphView

    if n < 1 or not 0.0 <= p <= 1.0:
        raise ValueError("need n >= 1 and 0 <= p <= 1")
    rng = child_rng(seed, STREAM_EDGE_DELETION)
    rows = _sample_gnp_rows(n, p, rng)
    m0 = sum(r.bit_count() for r in rows) // 2
    triangles0 = _forward_triangles(rows)

    deleted = 0
    for a in range(n - 2):
        ma = rows[a] >> (a + 1) << (a + 1)
        while ma:
            bit = ma & -ma
            b = bit.bit_length() - 1
            ma ^= bit
            common = rows[a] & rows[b]
            common >>= b + 1
            common <<= b + 1
            if common:
                # some triangle (a, b, c>b) is intact when reached, and
                # (a, b) is its lex-least edge: drop it
                rows[a] &= ~(1 << b)
                rows[b] &= ~(1 << a)
                deleted += 1

    assert _forward_triangles(rows) == 0
    g = SimpleGraphView.from_edges(n, _mask_edges(rows))
    stats = {"m_initial": m0, "triangles_initial": triangles0,
             "edges_deleted": deleted, "m_final": g.m, "p": p}
    return BaselineResult(g, stats)


def triangle_free_process_scalar(n: int, seed: int, max_steps: int | None = None):
    """Random greedy triangle-free graph: insert uniform open pairs until none.

    A pair is open while it is a non-edge whose insertion closes no triangle.
    Uniformity is exact: each step draws uniformly from all pairs and rejects
    non-open ones (the open count is tracked, so termination is detected
    without a scan).
    """
    from trioverlay.baselines import BaselineResult
    from trioverlay.construction import STREAM_PROCESS, child_rng
    from trioverlay.graphview import SimpleGraphView, count_triangles

    if n < 2:
        raise ValueError("need n >= 2")
    rng = child_rng(seed, STREAM_PROCESS)
    rows = [0] * n
    open_pairs = n * (n - 1) // 2
    # closed[u] bit v set when (u, v) is an edge or closes a triangle
    closed = [0] * n
    steps = 0
    edges = []
    while open_pairs > 0:
        if max_steps is not None and steps >= max_steps:
            break
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v or (closed[u] >> v) & 1:
            continue
        steps += 1
        # count newly closed pairs: the edge itself plus, for each neighbor w
        # of u, the pair (w, v) if previously open, and symmetrically
        newly = 1
        closed[u] |= 1 << v
        closed[v] |= 1 << u
        mu, mv = rows[u], rows[v]
        m = mu
        while m:
            bit = m & -m
            w = bit.bit_length() - 1
            m ^= bit
            if w != v and not (closed[w] >> v) & 1:
                closed[w] |= 1 << v
                closed[v] |= 1 << w
                newly += 1
        m = mv
        while m:
            bit = m & -m
            w = bit.bit_length() - 1
            m ^= bit
            if w != u and not (closed[w] >> u) & 1:
                closed[w] |= 1 << u
                closed[u] |= 1 << w
                newly += 1
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        edges.append((min(u, v), max(u, v)))
        open_pairs -= newly

    g = SimpleGraphView.from_edges(n, edges)
    assert count_triangles(g) == 0
    stats = {"m_final": g.m, "steps": steps, "open_remaining": open_pairs,
             "maximal": open_pairs == 0}
    return BaselineResult(g, stats)


# ------------------------------------------------------- edge-list files


# what str.split() splits on, and which of those end a line for
# str.splitlines(); no character above U+3000 is either
_SPACES = ("\t\n\v\f\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
           + "".join(map(chr, range(0x2000, 0x200B)))
           + "\u2028\u2029\u202f\u205f\u3000")
_BREAKS = "\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"
_CHAR_KIND = np.zeros(0x3002, dtype=np.uint8)  # 0 token, 1 space, 2 line break
_CHAR_KIND[[ord(c) for c in _SPACES]] = 1
_CHAR_KIND[[ord(c) for c in _BREAKS]] = 2


def line_widths_by_str(text: str) -> tuple[np.ndarray, str]:
    """Token counts of the non-blank lines of text, and the first such line.

    Counts as str.split() on each line of str.splitlines() would, from one
    code array instead of a Python string per line.
    """
    if text.isascii():
        codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    else:  # one code point per character, so positions index text
        codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
        codes = np.minimum(codes, _CHAR_KIND.size - 1)
    kind = _CHAR_KIND[codes]
    token = kind == 0
    start = token.copy()
    start[1:] &= ~token[:-1]  # first character of each token
    brk = kind == 2
    event = np.flatnonzero(start | brk)  # token starts and line breaks, in order
    at = np.flatnonzero(brk[event])  # the line breaks among them
    widths = np.diff(at, prepend=-1, append=event.size) - 1  # tokens per line
    nonblank = np.flatnonzero(widths)
    if not nonblank.size:
        return nonblank, ""
    first = nonblank[0]
    lo = event[at[first - 1]] + 1 if first else 0
    hi = event[at[first]] if first < at.size else len(text)
    return widths[nonblank], text[lo:hi]


def edge_list_by_split(path: str) -> tuple[int, int, int, np.ndarray]:
    """(n, m, seed, (m, w) 1-based entry lines) of an edge-list file, read as
    text and parsed by the code-array line widths plus one str.split()."""
    with open(path) as fh:
        text = fh.read()
    widths, first = line_widths_by_str(text)
    if not widths.size:
        raise ValueError(f"empty instance file: {path}")
    head = first.split()
    if len(head) != 3:
        raise ValueError(f"bad header {first!r}: want 'n m seed'")
    n, m, seed = (int(x) for x in head)
    if widths.size - 1 != m:
        raise ValueError(f"header claims {m} lines, found {widths.size - 1}")
    width = int(widths[1]) if m else 2
    if m and (width not in (2, 3) or (widths[1:] != width).any()):
        raise ValueError("mixed or malformed entry lines")
    # the header is the first three tokens, so the rest is the body
    body = np.array(text.split()[3:], dtype=np.int64).reshape(m, width)
    return n, m, seed, body


# ------------------------------------------------------ triple systems
# The hypergraph pipeline as it was written over per-triple tuples: every
# triple added to a dict one at a time, the reduction ordered by
# sorted(key=triple_key) and run on LinkIndex bitset dicts.  The package
# runs the same pipeline on int64 triple arrays and must give the same
# systems; triple_dict turns a package TripleSystem into such a dict.


def _norm(t) -> tuple[int, int, int]:
    a, b, c = sorted(int(x) for x in t)
    if a == b or b == c:
        raise ValueError(f"triple {t} has repeated vertices")
    return (a, b, c)


def triple_dict(h) -> dict:
    """The rows of a TripleSystem as {(u, v, w): flag bits}."""
    return dict(zip(map(tuple, h.triples.tolist()), h.flags.tolist()))


@dataclass
class LoopTriples:
    """The per-triple container of the loops below: sorted triple -> flag
    bits, with the system's order, kind and cells."""

    order: int
    flags: dict = field(default_factory=dict)
    kind: str = "base"
    cells: np.ndarray | None = None

    @classmethod
    def of(cls, h) -> LoopTriples:
        """The loop container of a package TripleSystem, its Placement of
        cells read as an (n, 2) array of rows and columns."""
        cells = (None if h.cells is None
                 else np.column_stack([h.cells.rows, h.cells.cols]))
        return cls(h.order, triple_dict(h), h.kind, cells)

    def add(self, t, flag: int) -> None:
        key = _norm(t)
        self.flags[key] = self.flags.get(key, 0) | flag

    def triple_key(self, t):
        """Lexicographic inspection key: sorted cell coordinates if placed."""
        t = _norm(t)
        if self.cells is None:
            return t
        return tuple(sorted((int(self.cells[v, 0]), int(self.cells[v, 1]))
                            for v in t))


class LinkIndex:
    """Incremental per-vertex link adjacency over one flag class.

    rows[v][u] is the bitmask of w with {v, u, w} present.  Adding a triple
    adds one link edge at each of its vertices; the star-creation test for a
    candidate triple is a common-neighbor query in each of the three links.
    """

    def __init__(self, order: int):
        self.order = order
        self.rows: list[dict[int, int]] = [dict() for _ in range(order)]

    def _pairs(self, t):
        x, y, z = _norm(t)
        return ((x, y, z), (y, x, z), (z, x, y))

    def creates_star(self, t) -> bool:
        for c, u, w in self._pairs(t):
            row = self.rows[c]
            if row.get(u, 0) & row.get(w, 0):
                return True
        return False

    def add(self, t) -> None:
        for c, u, w in self._pairs(t):
            row = self.rows[c]
            row[u] = row.get(u, 0) | (1 << w)
            row[w] = row.get(w, 0) | (1 << u)

    def remove(self, t) -> None:
        for c, u, w in self._pairs(t):
            row = self.rows[c]
            row[u] &= ~(1 << w)
            row[w] &= ~(1 << u)
            if row[u] == 0:
                del row[u]
            if row[w] == 0:
                del row[w]

    def link_edges(self, v: int) -> set[tuple[int, int]]:
        out = set()
        for u, mask in self.rows[v].items():
            m = mask
            while m:
                bit = m & -m
                w = bit.bit_length() - 1
                m ^= bit
                if u < w:
                    out.add((u, w))
        return out

    def link_triangles(self, c: int) -> list[tuple[int, int, int]]:
        """Triangles (u < w < z) of the link of c, sorted."""
        row = self.rows[c]
        out = []
        for u in sorted(row):
            mu = row[u]
            m = mu >> (u + 1) << (u + 1)  # w > u
            while m:
                bit = m & -m
                w = bit.bit_length() - 1
                m ^= bit
                common = mu & row.get(w, 0)
                common >>= w + 1
                common <<= w + 1
                cm = common
                while cm:
                    b2 = cm & -cm
                    z = b2.bit_length() - 1
                    cm ^= b2
                    out.append((u, w, z))
        return out


def sample_base_3graphs_loop(params: Params, seed: int) -> tuple[LoopTriples, LoopTriples]:
    """Independent binomial 3-graphs on {0..N-1}, each triple kept w.p. p."""
    from trioverlay.construction import (STREAM_HYPER_BLUE, STREAM_HYPER_RED,
                                         child_rng)
    from trioverlay.hypergraph import BLUE, RED

    N, p = params.N, params.p
    triples = list(combinations(range(N), 3))
    out = []
    for flag, stream, kind in ((RED, STREAM_HYPER_RED, "base-red"),
                               (BLUE, STREAM_HYPER_BLUE, "base-blue")):
        rng = child_rng(seed, stream)
        keep = rng.random(len(triples)) < p
        h = LoopTriples(order=N, kind=kind)
        for t, k in zip(triples, keep):
            if k:
                h.add(t, flag)
        out.append(h)
    return out[0], out[1]


def hyper_product_loop(hr: LoopTriples, hb: LoopTriples) -> LoopTriples:
    """Overlay on the N^2 cells; all six coordinates of a triple distinct."""
    from trioverlay.hypergraph import _MAX_PRODUCT_TRIPLES, BLUE, RED

    if hr.order != hb.order:
        raise ValueError("base systems must share N")
    N = hr.order
    combos = list(combinations(range(N), 3))
    expected = (len(hr.flags) + len(hb.flags)) * len(combos) * 6
    if expected > _MAX_PRODUCT_TRIPLES:
        raise ValueError(f"product would enumerate ~{expected} triples; too large")
    cells = np.array([(i, j) for i in range(N) for j in range(N)], dtype=np.int64)
    h = LoopTriples(order=N * N, kind="product", cells=cells)
    for rows in sorted(hr.flags):
        for cols in combos:
            for perm in permutations(cols):
                h.add(tuple(r * N + c for r, c in zip(rows, perm)), RED)
    for cols in sorted(hb.flags):
        for rows in combos:
            for perm in permutations(rows):
                h.add(tuple(r * N + c for r, c in zip(perm, cols)), BLUE)
    return h


def inject_hyper_loop(h1: LoopTriples, params: Params, seed: int) -> LoopTriples:
    """Uniform injection of {0..n-1} into cells; keep fully placed triples."""
    from trioverlay.construction import STREAM_HYPER_PHI, child_rng

    params.require_injectable()
    if h1.order != params.N * params.N:
        raise ValueError("product order does not match params")
    rng = child_rng(seed, STREAM_HYPER_PHI)
    cell_ids = rng.choice(h1.order, size=params.n, replace=False)
    vertex_of = {int(c): v for v, c in enumerate(cell_ids)}
    cells = np.column_stack([cell_ids // params.N, cell_ids % params.N]).astype(np.int64)
    h2 = LoopTriples(order=params.n, kind="induced", cells=cells)
    for t, f in h1.flags.items():
        if all(c in vertex_of for c in t):
            h2.add(tuple(vertex_of[c] for c in t), f)
    return h2


def s4_reduction_loop(h2: LoopTriples) -> LoopTriples:
    """Four-pass flag removal; the result carries no star on any center."""
    from trioverlay.hypergraph import BLUE, RED

    order = h2.order
    key = h2.triple_key
    result = LoopTriples(order=order, kind="reduced", cells=h2.cells)
    # pass (a): red flags greedily, no all-red star
    red_index = LinkIndex(order)
    for t in sorted((t for t, f in h2.flags.items() if f & RED), key=key):
        if not red_index.creates_star(t):
            red_index.add(t)
            result.add(t, RED)
    # pass (b): blue flags against accepted blue flags
    blue_index = LinkIndex(order)
    for t in sorted((t for t, f in h2.flags.items() if f & BLUE), key=key):
        if not blue_index.creates_star(t):
            blue_index.add(t)
            result.add(t, BLUE)

    presence = LinkIndex(order)
    for t in result.flags:
        presence.add(t)

    def remove_flag(t, flag):
        f = result.flags[t] & ~flag
        if f:
            result.flags[t] = f
        else:
            del result.flags[t]
            presence.remove(t)

    def sweep(two_flag: int, third_flag: int):
        # snapshot current star copies, then recheck liveness as flags fall
        copies = []
        for c in range(order):
            for (u, w, z) in presence.link_triangles(c):
                copies.append((c, u, w, z))
        for c, u, w, z in copies:
            tris = [_norm((c, u, w)), _norm((c, u, z)), _norm((c, w, z))]
            fl = [result.flags.get(t, 0) for t in tris]
            if 0 in fl:
                continue  # copy already destroyed
            flagged = [i for i, f in enumerate(fl) if f & two_flag]
            if len(flagged) == 2:
                third = next(i for i in range(3) if i not in flagged)
                if fl[third] & third_flag:
                    remove_flag(tris[third], third_flag)

    # pass (c): two blue edges, one red edge -> red edge removed
    sweep(BLUE, RED)
    # pass (d): two red edges, one blue edge -> blue edge removed
    sweep(RED, BLUE)
    return result


# -------------------------------------------------------- graph containers
# The CSR assembly and the bit packings as they were written before the
# package built its CSR from one sort of adjacency keys and packed every
# bitset through graphview.pack_bits: a lexsort of (head, tail) entries with
# np.add.at row counts, a per-entry loop into Python-int rows, and the edge-
# deletion baseline's own uint64 packing.


def csr_by_lexsort(n: int, us, vs) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of SimpleGraphView.from_edge_arrays as a lexsort."""
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if us.size and (us == vs).any():
        raise ValueError("self-loop in edge list")
    heads = np.concatenate([us, vs])
    tails = np.concatenate([vs, us])
    order = np.lexsort((tails, heads))
    heads, tails = heads[order], tails[order]
    if heads.size > 1:
        dup = (np.diff(heads) == 0) & (np.diff(tails) == 0)
        if dup.any():
            raise ValueError("duplicate edge in edge list")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, heads + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, tails.astype(np.int32)


def bitmask_rows_loop(g) -> list[int]:
    """Adjacency rows of g as Python ints, one entry at a time."""
    rows = [0] * g.n
    heads = np.repeat(np.arange(g.n), np.diff(g.indptr))
    for u, v in zip(heads.tolist(), g.indices.tolist()):
        rows[u] |= 1 << v
    return rows


def deletion_bitsets(n: int, us, vs) -> tuple[np.ndarray, np.ndarray]:
    """(above, packed) bitset rows of the edge-deletion baseline's G(n, p):
    above[b] holds the neighbours of b above b, packed[a] all of a's."""
    def bits(x):
        return np.uint64(1) << (x & 63).astype(np.uint64)
    above = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
    np.bitwise_or.at(above, (us, vs >> 6), bits(vs))
    packed = above.copy()
    np.bitwise_or.at(packed, (vs, us >> 6), bits(us))
    return above, packed
