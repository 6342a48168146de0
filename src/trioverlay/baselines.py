"""Reference constructions to compare the overlay against.

Both are classical: delete one edge per triangle of a binomial random graph,
or grow a maximal triangle-free graph by the random greedy process.  They
exist to calibrate edge counts and independence numbers at equal n, not to
compete at scale.

The deletion baseline is computed from its definition on edge arrays.  The
process keeps its uniform pair draws and their order exactly, but draws them
in chunks and skips rejections in bulk; it holds an n x n bool matrix of
closed pairs (n^2 bytes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construction import STREAM_EDGE_DELETION, STREAM_PROCESS, child_rng
from .graphview import SimpleGraphView, count_triangles, triangle_apexes

__all__ = ["BaselineResult", "edge_deletion_baseline", "triangle_free_process"]

# pair draws per chunk of the process
_CHUNK_MIN, _CHUNK_MAX = 16, 65536


@dataclass(frozen=True)
class BaselineResult:
    graph: SimpleGraphView
    stats: dict


def edge_deletion_baseline(n: int, p: float, seed: int) -> BaselineResult:
    """G(n, p) minus every edge (a, b), a < b, with a common neighbour c > b.

    This is the single lexicographic pass over triangles (a < b < c) that
    deletes the least edge (a, b) of each triangle still intact when reached.
    The pass reads pairs above b only, where no earlier deletion has changed
    anything, so its outcome does not depend on the order it runs in.  Pairs
    (u, v > u) are drawn row by row, as ``rng.random(n - u - 1) < p``.
    """
    if n < 1 or not 0.0 <= p <= 1.0:
        raise ValueError("need n >= 1 and 0 <= p <= 1")
    rng = child_rng(seed, STREAM_EDGE_DELETION)
    rows = [np.flatnonzero(rng.random(n - u - 1) < p) + (u + 1)
            for u in range(n - 1)]
    us = np.repeat(np.arange(n - 1, dtype=np.int64), [r.size for r in rows])
    vs = np.concatenate(rows) if rows else np.empty(0, np.int64)

    # the c > b of each triangle a < b < c, counted at its edge (a, b)
    apexes = triangle_apexes(n, us, vs)
    doomed = apexes > 0

    g = SimpleGraphView.from_edge_arrays(n, us[~doomed], vs[~doomed])
    if count_triangles(g):
        raise AssertionError("edge-deletion baseline left a triangle")
    stats = {"m_initial": int(us.size), "triangles_initial": int(apexes.sum()),
             "edges_deleted": int(doomed.sum()), "m_final": g.m, "p": p}
    return BaselineResult(g, stats)


def triangle_free_process(n: int, seed: int, max_steps: int | None = None) -> BaselineResult:
    """Random greedy triangle-free graph: insert uniform open pairs until none.

    A pair is open while it is a non-edge whose insertion closes no triangle.
    Uniformity is exact: each attempt draws u, then v, uniformly from
    range(n), and an attempt whose pair is not open is rejected.  Attempts
    are drawn in chunks of about the expected wait, with one
    ``rng.integers(n, size=2k)`` per chunk; numpy gives that the same values
    as 2k scalar draws.  A rejection changes nothing, so the next step is the
    first attempt of the chunk whose pair is open, and after each step only
    the rest of the chunk is tested again.  Draws past the last step are
    discarded with the generator.  The open count is tracked, so termination
    is detected without a scan.

    Closed pairs (edges and pairs that would close a triangle) are an n x n
    bool matrix, n^2 bytes.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if max_steps is not None and max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    limit = n * n if max_steps is None else max_steps
    rng = child_rng(seed, STREAM_PROCESS)
    # the diagonal is closed, so an attempt with u == v is rejected too
    closed = np.eye(n, dtype=bool)
    nbrs = [[] for _ in range(n)]
    heads, tails = [], []
    open_pairs = n * (n - 1) // 2
    while open_pairs > 0 and len(heads) < limit:
        # n^2 ordered draws hold 2 * open_pairs open ones
        k = min(max(n * n // (2 * open_pairs), _CHUNK_MIN), _CHUNK_MAX)
        draws = rng.integers(n, size=2 * k)
        us, vs = draws[0::2], draws[1::2]
        hits = np.flatnonzero(~closed[us, vs])
        for u, v in zip(us[hits].tolist(), vs[hits].tolist()):
            # open at the start of the chunk; an earlier step may have closed it
            if closed[u, v]:
                continue
            closed[u, v] = closed[v, u] = True
            # newly closed: the edge, each open (w, v) for w in N(u), and
            # each open (w, u) for w in N(v)
            newly = 1
            for a, b in ((u, v), (v, u)):
                if nbrs[a]:
                    ws = np.array(nbrs[a])
                    ws = ws[~closed[ws, b]]
                    closed[ws, b] = closed[b, ws] = True
                    newly += ws.size
            nbrs[u].append(v)
            nbrs[v].append(u)
            heads.append(u)
            tails.append(v)
            open_pairs -= newly
            if open_pairs == 0 or len(heads) == limit:
                break

    g = SimpleGraphView.from_edge_arrays(n, heads, tails)
    if count_triangles(g):
        raise AssertionError("triangle-free process closed a triangle")
    stats = {"m_final": g.m, "steps": len(heads), "open_remaining": open_pairs,
             "maximal": open_pairs == 0}
    return BaselineResult(g, stats)
