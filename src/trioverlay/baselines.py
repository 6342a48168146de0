"""Reference constructions to compare the overlay against.

Both are classical: delete one edge per triangle of a binomial random graph,
or grow a maximal triangle-free graph by the random greedy process.  They
exist to calibrate edge counts and independence numbers at equal n, not to
compete at scale.

The deletion baseline is computed from its definition on edge arrays.  The
process keeps its uniform pair draws and their order exactly, but draws them
in chunks and skips rejections in bulk.  It decides each draw from the
closed-pair definition (an edge, or two ends with a common neighbour) on
neighbour bitsets, one Python int per vertex (n^2/8 bytes), and filters each
chunk with an n x n bool matrix of closed pairs (n^2 bytes) that is exact at
the chunk's start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construction import STREAM_EDGE_DELETION, STREAM_PROCESS, child_rng
from .graphview import SimpleGraphView, count_triangles, triangle_apexes

__all__ = ["BaselineResult", "edge_deletion_baseline", "triangle_free_process"]

# pair draws per chunk of the process: a multiple of the expected wait for
# an open pair, within bounds
_CHUNK_WAITS, _CHUNK_MIN, _CHUNK_MAX = 64, 64, 65536


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

    A pair is open while it is a non-edge whose insertion closes no triangle;
    a non-diagonal pair is closed iff it is an edge or its two ends have a
    common neighbour.  Uniformity is exact: each attempt draws u, then v,
    uniformly from range(n), and an attempt whose pair is not open is
    rejected.  Attempts are drawn in chunks of a fixed multiple of the
    expected wait, with one ``rng.integers(n, size=2k)`` per chunk; numpy
    gives that the same values as 2k scalar draws.  Draws past the last step
    are discarded with the generator.

    Neighbour sets are Python-int bitsets, so an attempt is decided from the
    definition, ``nbrs[u] >> v & 1 or nbrs[u] & nbrs[v]``.  An n x n bool
    matrix of closed pairs (n^2 bytes) filters each chunk's attempts down to
    the pairs open at its start: a pair closed then stays closed, so a
    rejection changes nothing and only those attempts are decided one by one.
    The matrix is brought up to date once per chunk from the chunk's new
    edges, and the open count with it, so both are exact at each chunk start
    and termination is detected without a scan.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if max_steps is not None and max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    limit = n * n if max_steps is None else max_steps
    rng = child_rng(seed, STREAM_PROCESS)
    # the diagonal is closed, so an attempt with u == v is rejected too
    closed = np.eye(n, dtype=bool)
    nbrs = [0] * n  # bit w of nbrs[v] is set iff w ~ v
    heads, tails = [], []
    open_pairs = n * (n - 1) // 2
    while open_pairs > 0 and len(heads) < limit:
        # n^2 ordered draws hold 2 * open_pairs open ones
        wait = n * n // (2 * open_pairs)
        k = min(max(_CHUNK_WAITS * wait, _CHUNK_MIN), _CHUNK_MAX)
        draws = rng.integers(n, size=2 * k)
        us, vs = draws[0::2], draws[1::2]
        hits = np.flatnonzero(~closed[us, vs])
        first = len(heads)
        for u, v in zip(us[hits].tolist(), vs[hits].tolist()):
            # open at the start of the chunk; an earlier step may have closed it
            row = nbrs[u]
            if row >> v & 1 or row & nbrs[v]:
                continue
            nbrs[u] = row | 1 << v
            nbrs[v] |= 1 << u
            heads.append(u)
            tails.append(v)
            if len(heads) == limit:
                break
        open_pairs -= _close_pairs(closed, nbrs, heads[first:], tails[first:])

    g = SimpleGraphView.from_edge_arrays(n, heads, tails)
    if count_triangles(g):
        raise AssertionError("triangle-free process closed a triangle")
    stats = {"m_final": g.m, "steps": len(heads), "open_remaining": open_pairs,
             "maximal": open_pairs == 0}
    return BaselineResult(g, stats)


def _close_pairs(closed: np.ndarray, nbrs: list[int], heads: list[int],
                 tails: list[int]) -> int:
    """Mark in closed the pairs the new edges closed; return their number.

    For each new edge uv, row v gains N(u) plus u and row u gains N(v) plus
    v, with N the neighbourhoods after the last new edge: that is every pair
    with a new edge or with a common neighbour through one.  Only pairs not
    yet closed are written, into the row and its mirrored column.
    """
    if not heads:
        return 0
    gains: dict[int, int] = {}
    for u, v in zip(heads, tails):
        gains[v] = gains.get(v, 0) | nbrs[u] | 1 << u
        gains[u] = gains.get(u, 0) | nbrs[v] | 1 << v
    n = closed.shape[0]
    width = (n + 7) // 8
    rows = np.fromiter(gains, np.int64, len(gains))
    packed = np.frombuffer(b"".join(g.to_bytes(width, "little")
                                    for g in gains.values()), np.uint8)
    gained = np.unpackbits(packed.reshape(rows.size, width), axis=1, count=n,
                           bitorder="little").view(bool)
    new = gained & ~closed[rows]
    # a pair between two gaining rows may be new in both: count it once
    among = new[:, rows]
    twice = int(np.count_nonzero(among & among.T)) // 2
    at, jj = np.divmod(np.flatnonzero(new), n)
    ii = rows[at]
    closed[ii, jj] = closed[jj, ii] = True
    return ii.size - twice
