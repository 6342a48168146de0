"""Uniform facade for simple undirected graphs.

A graph is its vertex count n and sorted CSR neighbor arrays (indptr,
indices), nothing else; packed_rows builds uint64 bitset rows from them on
each call.  Every graph the package produces (placed overlays, product cell
graphs, baselines, links of triple systems) is exposed through this one
container so the counting and independence code has a single surface to
target.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SimpleGraphView", "count_triangles", "pack_bits", "triangle_apexes"]

# uint64 words per block of triangle_apexes; caps its temporaries at 8 MB
_BLOCK_WORDS = 1 << 20


def pack_bits(n: int, heads, tails) -> np.ndarray:
    """(n, ceil(n/64)) uint64 rows with bit t of row h set for each pair
    (heads[i], tails[i]): bit t is bit t & 63 of word t >> 6."""
    tails = np.asarray(tails, dtype=np.int64)
    packed = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
    np.bitwise_or.at(packed, (heads, tails >> 6),
                     np.uint64(1) << (tails & 63).astype(np.uint64))
    return packed


class SimpleGraphView:
    """Immutable simple graph: n vertices, sorted CSR adjacency."""

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices

    # ---------------- constructors ----------------

    @classmethod
    def from_edge_arrays(cls, n: int, us: np.ndarray, vs: np.ndarray) -> "SimpleGraphView":
        """Build from undirected edge endpoint arrays (u != v in 0..n-1, no
        duplicates).  One sort of the 2m adjacency keys h * n + t gives the
        rows, the order within them, the duplicate test and indptr."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.size and (min(us.min(), vs.min()) < 0 or max(us.max(), vs.max()) >= n):
            raise ValueError(f"edge endpoint outside 0..{n - 1}")
        if (us == vs).any():
            raise ValueError("self-loop in edge list")
        keys = np.concatenate([us * n + vs, vs * n + us])
        keys.sort()
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("duplicate edge in edge list")
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        return cls(n, indptr, (keys % n).astype(np.int32))

    @classmethod
    def from_edges(cls, n: int, edges) -> "SimpleGraphView":
        pairs = sorted({(min(u, v), max(u, v)) for (u, v) in edges})
        arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return cls.from_edge_arrays(n, arr[:, 0], arr[:, 1])

    # ---------------- queries ----------------

    @property
    def m(self) -> int:
        return int(self.indices.size // 2)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degree_sequence(self) -> np.ndarray:
        return np.diff(self.indptr)

    def max_degree(self) -> int:
        return int(self.degree_sequence().max()) if self.n else 0

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < row.size and row[i] == v)

    def edge_array(self) -> np.ndarray:
        """(m, 2) int array of edges with u < v, lexicographically sorted;
        AssertionError unless half of the CSR's entries lie above the
        diagonal, as in every symmetric one."""
        heads = np.repeat(np.arange(self.n), np.diff(self.indptr))
        mask = heads < self.indices
        if 2 * np.count_nonzero(mask) != self.indices.size:
            raise AssertionError("adjacency corrupt: CSR entries above the diagonal are not half")
        return np.column_stack([heads[mask], self.indices[mask]])

    def to_dense(self) -> np.ndarray:
        adj = np.zeros((self.n, self.n), dtype=bool)
        heads = np.repeat(np.arange(self.n), np.diff(self.indptr))
        adj[heads, self.indices] = True
        return adj

    def packed_rows(self) -> np.ndarray:
        """(n, ceil(n/64)) uint64 bitset adjacency, bit v of row u <=> edge uv,
        packed anew on each call."""
        heads = np.repeat(np.arange(self.n), np.diff(self.indptr))
        return pack_bits(self.n, heads, self.indices)


def triangle_apexes(n: int, us, vs) -> np.ndarray:
    """For each edge (us[i], vs[i]) of a simple graph given whole, us < vs,
    in any order: its common neighbours w > vs[i].  A triangle u < v < w
    counts once, at (u, v), as in Latapy's "forward" scheme.  Upper row v is
    zero below word v >> 6: edges grouped by it AND the words from there on."""
    order = np.argsort(np.asarray(vs, np.int64) >> 6, kind="stable")
    us, vs = np.asarray(us, np.int64)[order], np.asarray(vs, np.int64)[order]
    upper = pack_bits(n, us, vs)
    starts = np.searchsorted(vs >> 6, np.arange(upper.shape[1] + 1))
    apexes = np.empty(us.size, dtype=np.int64)
    for w in range(upper.shape[1]):
        block = max(1, _BLOCK_WORDS // (upper.shape[1] - w))
        for s in range(starts[w], starts[w + 1], block):
            e = min(s + block, starts[w + 1])
            common = upper[us[s:e], w:] & upper[vs[s:e], w:]
            apexes[order[s:e]] = np.bitwise_count(common).sum(axis=1)
    return apexes


def count_triangles(g: SimpleGraphView) -> int:
    """Exact triangle count, each triangle once at its two least vertices."""
    edges = g.edge_array()
    return int(triangle_apexes(g.n, edges[:, 0], edges[:, 1]).sum())
