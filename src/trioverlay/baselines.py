"""Reference constructions to compare the overlay against.

Both are classical: delete one edge per triangle of a binomial random graph,
or grow a maximal triangle-free graph by the random greedy process.  They
exist to calibrate edge counts and independence numbers at equal n, not to
compete at scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construction import STREAM_EDGE_DELETION, STREAM_PROCESS, child_rng
from .graphview import SimpleGraphView, count_triangles

__all__ = ["BaselineResult", "edge_deletion_baseline", "triangle_free_process"]


@dataclass(frozen=True)
class BaselineResult:
    name: str
    n: int
    seed: int
    graph: SimpleGraphView
    stats: dict


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


def edge_deletion_baseline(n: int, p: float, seed: int) -> BaselineResult:
    """G(n, p), then one pass over triangles deleting each one's least edge.

    Triangles are enumerated in lexicographic order (a < b < c); a triangle
    still intact when reached loses its lexicographically least edge (a, b).
    Single pass: edges deleted earlier may already have destroyed it.
    """
    if n < 1 or not 0.0 <= p <= 1.0:
        raise ValueError("need n >= 1 and 0 <= p <= 1")
    rng = child_rng(seed, STREAM_EDGE_DELETION)
    rows = _sample_gnp_rows(n, p, rng)
    m0 = sum(r.bit_count() for r in rows) // 2
    g0 = SimpleGraphView.from_edges(n, _mask_edges(rows))
    triangles0 = count_triangles(g0)

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

    g = SimpleGraphView.from_edges(n, _mask_edges(rows))
    assert count_triangles(g) == 0
    stats = {"m_initial": m0, "triangles_initial": triangles0,
             "edges_deleted": deleted, "m_final": g.m, "p": p}
    return BaselineResult("edge-deletion", n, seed, g, stats)


def triangle_free_process(n: int, seed: int, max_steps: int | None = None) -> BaselineResult:
    """Random greedy triangle-free graph: insert uniform open pairs until none.

    A pair is open while it is a non-edge whose insertion closes no triangle.
    Uniformity is exact: each step draws uniformly from all pairs and rejects
    non-open ones (the open count is tracked, so termination is detected
    without a scan).
    """
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
    return BaselineResult("triangle-free-process", n, seed, g, stats)
