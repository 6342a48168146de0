"""Output checks computed apart from trioverlay's own code paths.

Every check reads the program's output (files, JSON reports, returned
matrices) and tests it against a property the construction must have or
against a computation made here from the definition: its own file parser,
sparse or dense matrix products, Python neighbour sets and networkx's exact
clique search.  Each returns True when the output passes.
"""

from __future__ import annotations

import json
import math

import networkx as nx
import numpy as np
from scipy import sparse

# ---------------------------------------------------------------- parsing


def read_edge_file(path: str) -> tuple[int, np.ndarray]:
    """(n, (m, 2) 0-based edges) from an edge-list file, parsed here."""
    with open(path) as fh:
        head = fh.readline().split()
        body = np.array(fh.read().split(), dtype=np.int64)
    n, m = int(head[0]), int(head[1])
    edges = body.reshape(-1, 2) - 1
    if len(edges) != m:
        raise ValueError(f"{path}: header says {m} edges, file has {len(edges)}")
    return n, edges


def read_triple_file(path: str) -> tuple[int, np.ndarray]:
    """(n, (m, 3) 0-based triples) from a triple-list file, parsed here."""
    with open(path) as fh:
        head = fh.readline().split()
        body = np.array(fh.read().split(), dtype=np.int64)
    return int(head[0]), body.reshape(-1, 3) - 1


def read_sidecar(path: str) -> dict:
    with open(path + ".json") as fh:
        return json.load(fh)


def _adjacency(n: int, edges: np.ndarray) -> sparse.csr_matrix:
    u, v = edges[:, 0], edges[:, 1]
    data = np.ones(2 * len(edges), dtype=np.int64)
    return sparse.csr_matrix((data, (np.concatenate([u, v]),
                                     np.concatenate([v, u]))), shape=(n, n))


# ---------------------------------------------------------------- graphs


def triangle_free(n: int, edges: np.ndarray, block: int = 256) -> bool:
    """The sum of (A A) o A is 0, computed by sparse products in row blocks."""
    a = _adjacency(n, edges)
    closed = 0
    for start in range(0, n, block):
        rows = a[start:start + block]
        closed += int((rows @ a).multiply(rows).sum())
    return closed == 0


def independent(edges: np.ndarray, vertices) -> bool:
    """No edge has both ends in ``vertices`` (and no vertex repeats)."""
    vertices = np.asarray(vertices, dtype=np.int64)
    if np.unique(vertices).size != vertices.size:
        return False
    size = int(max(edges.max(initial=-1), vertices.max(initial=-1))) + 1
    mark = np.zeros(size, dtype=bool)
    mark[vertices] = True
    return not bool((mark[edges[:, 0]] & mark[edges[:, 1]]).any())


def max_degree(n: int, edges: np.ndarray) -> int:
    return int(np.bincount(edges.ravel(), minlength=n).max(initial=0))


def exact_alpha(n: int, edges: np.ndarray) -> int:
    """Independence number: networkx's maximum clique of the complement.

    scipy's MILP solver is not used: on one desk pool instance (seed 19) it
    reported 51 as optimal where an independent set of 52 exists.
    """
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges.tolist())
    return int(nx.max_weight_clique(nx.complement(g), weight=None)[1])


# ---------------------------------------------------------------- deletion rule


def _neighbour_sets(N: int, edges) -> list[set[int]]:
    nb = [set() for _ in range(N)]
    for u, v in edges:
        nb[u].add(v)
        nb[v].add(u)
    return nb


def _common(nb, a: int, b: int, below: int | None = None) -> bool:
    """a and b share a neighbour (one below ``below`` when given).

    With a == b this asks whether a has any neighbour, the convention the
    rule uses for equal coordinates.
    """
    shared = nb[a] & nb[b]
    return any(h < below for h in shared) if below is not None else bool(shared)


def rule_flags(red_nb, blue_nb, cell_a, cell_b) -> tuple[bool, bool]:
    """(red, blue) flags of a pair of distinct cells after deletion.

    Red: (i, k) is a red base edge, i and k have no common red neighbour
    below min(i, k), and j, l have no common blue neighbour at all.  Blue is
    the mirror image with rows and columns swapped.
    """
    (i, j), (k, l) = cell_a, cell_b
    red = (k in red_nb[i] and not _common(red_nb, i, k, min(i, k))
           and not _common(blue_nb, j, l))
    blue = (l in blue_nb[j] and not _common(blue_nb, j, l, min(j, l))
            and not _common(red_nb, i, k))
    return red, blue


def placed_pairs_match_rule(edges: np.ndarray, sidecar: dict, pairs) -> bool:
    """Each sampled vertex pair is an edge exactly when the rule says so.

    The rule is recomputed from the sidecar's base edges and placement.
    """
    N = sidecar["params"]["N"]
    rows, cols = sidecar["placement"]["rows"], sidecar["placement"]["cols"]
    red_nb = _neighbour_sets(N, sidecar["base_red_edges"])
    blue_nb = _neighbour_sets(N, sidecar["base_blue_edges"])
    present = set(map(tuple, edges.tolist()))
    for u, v in pairs:
        u, v = min(u, v), max(u, v)
        red, blue = rule_flags(red_nb, blue_nb, (rows[u], cols[u]),
                               (rows[v], cols[v]))
        if (red or blue) != ((u, v) in present):
            return False
    return True


def product_pairs_match_rule(product, adj_red: np.ndarray, adj_blue: np.ndarray,
                             pairs) -> bool:
    """The deleted product's four factor matrices agree with the rule.

    For sampled coordinate pairs (a, b): red_row[a, b] is a red edge with no
    common red neighbour below min(a, b); red_col[a, b] says a, b share no
    blue neighbour; blue_row and blue_col mirror them.
    """
    red_nb = _neighbour_sets(len(adj_red), zip(*np.nonzero(np.triu(adj_red, 1))))
    blue_nb = _neighbour_sets(len(adj_blue), zip(*np.nonzero(np.triu(adj_blue, 1))))
    for a, b in pairs:
        a, b = int(a), int(b)
        want = {
            "red_row": b in red_nb[a] and not _common(red_nb, a, b, min(a, b)),
            "red_col": not _common(blue_nb, a, b),
            "blue_row": not _common(red_nb, a, b),
            "blue_col": b in blue_nb[a] and not _common(blue_nb, a, b, min(a, b)),
        }
        if any(bool(getattr(product, key)[a, b]) != val
               for key, val in want.items()):
            return False
    return True


def cell_triangle_certificate(red_row, red_col, blue_row, blue_col) -> int:
    """Closed 3-walks of the cell graph, summed over its colour patterns.

    A walk whose three steps carry colours (c1, c2, c3) factorizes into a
    row walk and a column walk, so the count for the pattern is
    tr(R1 R2 R3) * tr(C1 C2 C3).  Every flagged pair joins distinct cells,
    so the total is 0 exactly when the cell graph has no triangle.  float32
    products stay exact below 2^24, far above N; traces sum in float64.
    """
    total = 0
    mats = {"r": (red_row, red_col), "b": (blue_row, blue_col)}
    side = [{c: m[s].astype(np.float32) for c, m in mats.items()} for s in (0, 1)]
    prods = [{c1 + c2: s[c1] @ s[c2] for c1 in "rb" for c2 in "rb"} for s in side]
    for c1 in "rb":
        for c2 in "rb":
            for c3 in "rb":
                trace = [float((p[c1 + c2] * s[c3].T).sum(dtype=np.float64))
                         for p, s in zip(prods, side)]
                total += int(trace[0]) * int(trace[1])
    return total


def window_violations(values, center: float, tol: float) -> int:
    return int((np.abs(np.asarray(values, dtype=float) - center) > tol).sum())


def concentration_counts(adj_red, adj_blue, rows, cols, params) -> dict[int, int]:
    """Violation counts of report bounds 1, 2 and 4, recomputed here.

    Fibre sizes from bincounts, base degrees from row sums and neighbourhood
    unions by summing fibre sizes over each vertex's neighbour list.
    """
    N, n, eps2 = params.N, params.n, params.eps2
    log2n = math.log(n) ** 2
    fib_r = np.bincount(rows, minlength=N)
    fib_c = np.bincount(cols, minlength=N)
    degs = np.concatenate([adj_red.sum(axis=1), adj_blue.sum(axis=1)])
    unions = [fib_r[np.nonzero(adj_red[v])[0]].sum() for v in range(N)] + \
             [fib_c[np.nonzero(adj_blue[v])[0]].sum() for v in range(N)]
    pN, pn = params.p * N, params.p * n
    return {
        1: window_violations(np.concatenate([fib_r, fib_c]), log2n, eps2 * log2n),
        2: window_violations(degs, pN, eps2 * pN),
        4: window_violations(unions, pn, eps2 * pn),
    }


# ---------------------------------------------------------------- triples


def star_free(n: int, triples: np.ndarray) -> bool:
    """Every centre's link graph L is triangle-free: tr(L^3) = 0 for each."""
    for c in range(n):
        hit = triples[(triples == c).any(axis=1)]
        if len(hit) < 3:
            continue
        others = hit[hit != c].reshape(-1, 2)
        link = np.zeros((n, n), dtype=np.int64)
        link[others[:, 0], others[:, 1]] = link[others[:, 1], others[:, 0]] = 1
        if np.trace(link @ link @ link):
            return False
    return True
