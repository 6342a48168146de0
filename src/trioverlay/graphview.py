"""Uniform facade for simple undirected graphs.

CSR neighbor arrays plus lazily packed uint64 bitset rows.  Every graph the
package produces (placed overlays, product cell graphs, baselines, links of
triple systems) is exposed through this one container so the counting and
independence code has a single surface to target.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SimpleGraphView", "count_triangles"]


class SimpleGraphView:
    """Immutable simple graph: n vertices, sorted CSR adjacency."""

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self._packed = None

    # ---------------- constructors ----------------

    @classmethod
    def from_edge_arrays(cls, n: int, us: np.ndarray, vs: np.ndarray) -> "SimpleGraphView":
        """Build from undirected edge endpoint arrays (u != v, no duplicates)."""
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
        return cls(n, indptr, tails.astype(np.int32))

    @classmethod
    def from_edges(cls, n: int, edges) -> "SimpleGraphView":
        pairs = sorted({(min(u, v), max(u, v)) for (u, v) in edges})
        if pairs:
            arr = np.array(pairs, dtype=np.int64)
            return cls.from_edge_arrays(n, arr[:, 0], arr[:, 1])
        return cls.from_edge_arrays(n, np.empty(0, np.int64), np.empty(0, np.int64))

    @classmethod
    def from_dense(cls, adj: np.ndarray) -> "SimpleGraphView":
        adj = np.asarray(adj, dtype=bool)
        if adj.shape[0] != adj.shape[1] or not (adj == adj.T).all() or adj.diagonal().any():
            raise ValueError("adjacency must be symmetric with empty diagonal")
        us, vs = np.nonzero(np.triu(adj, 1))
        return cls.from_edge_arrays(adj.shape[0], us, vs)

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
        """(m, 2) int array of edges with u < v, lexicographically sorted."""
        heads = np.repeat(np.arange(self.n), np.diff(self.indptr))
        mask = heads < self.indices
        return np.column_stack([heads[mask], self.indices[mask]])

    def to_dense(self) -> np.ndarray:
        adj = np.zeros((self.n, self.n), dtype=bool)
        heads = np.repeat(np.arange(self.n), np.diff(self.indptr))
        adj[heads, self.indices] = True
        return adj

    def packed_rows(self) -> np.ndarray:
        """(n, ceil(n/64)) uint64 bitset adjacency, bit v of row u <=> edge uv."""
        if self._packed is None:
            words = (self.n + 63) // 64
            packed = np.zeros((self.n, words), dtype=np.uint64)
            heads = np.repeat(np.arange(self.n), np.diff(self.indptr))
            cols = self.indices.astype(np.int64)
            np.bitwise_or.at(packed, (heads, cols >> 6),
                             np.uint64(1) << (cols & 63).astype(np.uint64))
            self._packed = packed
        return self._packed

    def subgraph(self, vertices) -> "SimpleGraphView":
        """Induced subgraph; vertex i of the result is vertices[i]."""
        vertices = np.asarray(vertices, dtype=np.int64)
        pos = -np.ones(self.n, dtype=np.int64)
        pos[vertices] = np.arange(vertices.size)
        us, vs = [], []
        for i, v in enumerate(vertices):
            nb = self.neighbors(v)
            sel = pos[nb]
            sel = sel[(sel >= 0) & (sel > i)]
            us.append(np.full(sel.size, i, dtype=np.int64))
            vs.append(sel)
        return SimpleGraphView.from_edge_arrays(
            vertices.size, np.concatenate(us) if us else np.empty(0, np.int64),
            np.concatenate(vs) if vs else np.empty(0, np.int64))


def count_triangles(g: SimpleGraphView) -> int:
    """Exact triangle count by packed-row intersections."""
    packed = g.packed_rows()
    total = 0
    for u in range(g.n):
        nb = g.neighbors(u)
        hi = nb[nb > u]
        if hi.size:
            # sum over edges (u, v>u) of |N(u) & N(v)|; every triangle counted 3x
            total += int(np.bitwise_count(packed[hi] & packed[u]).sum())
    if total % 3:
        raise AssertionError("path-count not divisible by 3; adjacency corrupt")
    return total // 3
