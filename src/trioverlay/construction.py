"""Two-layer blow-up overlay construction.

Pipeline: sample two independent binomial base graphs (a red one on rows, a
blue one on columns), form the red/blue flagged co-normal product on the
N x N grid of cells, delete flags caught inside neighborhood boxes, then pull
the surviving graph back through a uniform random injection of {0..n-1} into
the cells.  The deletion step makes the cell graph triangle-free by
construction, so the final graph is too.

Flag semantics on a pair of distinct cells a = (i, j), b = (k, l):

    red before deletion   iff (i, k) is an edge of the red base graph
    blue before deletion  iff (j, l) is an edge of the blue base graph

    red survives  iff additionally no common red-neighbor h of i, k has
                  h < min(i, k)   (box of upper neighborhoods of rows)
                  and j, l have no common blue-neighbor at all
                  (box of full neighborhoods of columns; j = l counts as
                  "common neighbor exists" whenever j has any neighbor)
    blue survives symmetrically with the roles of the sides swapped.

Both stages are therefore products of a row-pair condition and a column-pair
condition, which is what ColoredProductGraph stores: four N x N boolean
matrices.  This reproduces the definition exactly at every scale while
keeping pair queries O(1) and slicing vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphview import SimpleGraphView
from .params import Params

__all__ = [
    "BaseGraph", "ColoredProductGraph", "Placement", "PlacedGraph",
    "child_rng", "sample_base_graphs", "conormal_product",
    "apply_deletion_rule", "sample_injection", "induce_final_graph", "build",
    "rebuild",
    "STREAM_RED", "STREAM_BLUE", "STREAM_PHI",
    "STREAM_HYPER_RED", "STREAM_HYPER_BLUE", "STREAM_HYPER_PHI",
    "STREAM_EDGE_DELETION", "STREAM_PROCESS",
    "common_neighbor_matrix", "common_upper_neighbor_matrix", "count_matmul",
]

# labeled child streams of the master seed; fixed forever for reproducibility
STREAM_RED = 0
STREAM_BLUE = 1
STREAM_PHI = 2
STREAM_HYPER_RED = 3
STREAM_HYPER_BLUE = 4
STREAM_HYPER_PHI = 5
STREAM_EDGE_DELETION = 6
STREAM_PROCESS = 7


def child_rng(seed: int, stream: int) -> np.random.Generator:
    """Deterministic child generator for one labeled role of a master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


@dataclass
class BaseGraph:
    """One blow-up side: an undirected graph on {0..N-1} plus its side tag."""

    side: str  # "red" (row coordinates) or "blue" (column coordinates)
    N: int
    adj: np.ndarray  # (N, N) bool, symmetric, zero diagonal

    def __post_init__(self):
        if self.side not in ("red", "blue"):
            raise ValueError(f"side must be 'red' or 'blue', got {self.side!r}")
        adj = np.asarray(self.adj, dtype=bool)
        if adj.shape != (self.N, self.N):
            raise ValueError("adjacency shape mismatch")
        if adj.diagonal().any() or not (adj == adj.T).all():
            raise ValueError("adjacency must be symmetric with empty diagonal")
        self.adj = adj

    @classmethod
    def from_edges(cls, side: str, N: int, edges) -> "BaseGraph":
        adj = np.zeros((N, N), dtype=bool)
        for u, v in edges:
            if u == v:
                raise ValueError("self-loop")
            adj[u, v] = adj[v, u] = True
        return cls(side, N, adj)

    def edge_count(self) -> int:
        return int(self.adj.sum()) // 2

    def edge_list(self) -> list[tuple[int, int]]:
        us, vs = np.nonzero(np.triu(self.adj, 1))
        return [(int(u), int(v)) for u, v in zip(us, vs)]

    def degrees(self) -> np.ndarray:
        return self.adj.sum(axis=1)

    def neighbors(self, v: int) -> np.ndarray:
        return np.nonzero(self.adj[v])[0]

    def view(self) -> SimpleGraphView:
        return SimpleGraphView.from_dense(self.adj)


def sample_base_graphs(params: Params, seed: int) -> tuple[BaseGraph, BaseGraph]:
    """Two independent binomial graphs on {0..N-1} with edge probability p."""
    N, p = params.N, params.p
    graphs = []
    for side, stream in (("red", STREAM_RED), ("blue", STREAM_BLUE)):
        rng = child_rng(seed, stream)
        adj = np.zeros((N, N), dtype=bool)
        # the upper triangle row by row: one stream in row-major order,
        # without an index or draw array of all N(N-1)/2 pairs
        for i in range(N - 1):
            adj[i, i + 1:] = rng.random(N - 1 - i) < p
        adj |= adj.T
        graphs.append(BaseGraph(side, N, adj))
    return graphs[0], graphs[1]


def count_matmul(a, b) -> np.ndarray:
    """Exact product a @ b of nonnegative integer or boolean matrices, on BLAS.

    NumPy's integer matmul does not use BLAS.  Every partial sum of an entry
    of a @ b is an integer at most (max row sum of a) * (max of b); below
    2^24 float32 holds each of them exactly, whatever order BLAS adds in, so
    the product runs in float32, and in float64 (exact below 2^53) above.
    The result keeps that float dtype, with exact integer entries.  Float
    inputs must hold integers exactly; float32 inputs are used without a copy.
    """
    a, b = np.asarray(a), np.asarray(b)
    row_sum = a.sum(axis=-1, dtype=np.float64).max(initial=0.0)
    bound = row_sum * float(b.max(initial=0))
    dtype = np.float32 if bound < 2 ** 24 else np.float64
    return a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)


def common_neighbor_matrix(adj: np.ndarray) -> np.ndarray:
    """[u, v] True iff u and v share a neighbor; diagonal True iff deg(u) > 0."""
    a = adj.astype(np.float32)
    return count_matmul(a, a) > 0


def common_upper_neighbor_matrix(adj: np.ndarray) -> np.ndarray:
    """[u, v] True iff some h adjacent to both u and v has h < min(u, v)."""
    N = adj.shape[0]
    below = adj & (np.arange(N)[:, None] < np.arange(N)[None, :])  # [h, u]: h ~ u, h < u
    b = below.astype(np.float32)
    return count_matmul(b.T, b) > 0


@dataclass
class ColoredProductGraph:
    """Red/blue flagged graph on the N x N cell grid, stored factorized.

    A pair of distinct cells (i, j), (k, l) carries a red flag iff
    red_row[i, k] and red_col[j, l], a blue flag iff blue_row[i, k] and
    blue_col[j, l].  The row matrices have empty diagonals exactly when equal
    first coordinates are forbidden for that color (red), and similarly for
    the column matrices (blue), so equal cells never carry flags.
    """

    N: int
    red_row: np.ndarray
    red_col: np.ndarray
    blue_row: np.ndarray
    blue_col: np.ndarray
    stage: str  # "product" (pre-deletion) or "deleted"

    @property
    def cells(self) -> int:
        return self.N * self.N

    def cell_id(self, i: int, j: int) -> int:
        return i * self.N + j

    def edge_flags(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[bool, bool]:
        """(red, blue) flags of the pair of distinct cells a, b."""
        if a == b:
            raise ValueError("flags are defined for distinct cells")
        i, j = a
        k, l = b
        red = bool(self.red_row[i, k] and self.red_col[j, l])
        blue = bool(self.blue_row[i, k] and self.blue_col[j, l])
        return red, blue

    def has_edge(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        red, blue = self.edge_flags(a, b)
        return red or blue

    # ---------------- global counts (exact, via the factorization) ----------

    def flag_counts(self) -> dict:
        """Counts of red-flagged, blue-flagged, dual-flagged and present pairs."""
        cr = int(np.count_nonzero(self.red_row)) * int(np.count_nonzero(self.red_col))
        cb = int(np.count_nonzero(self.blue_row)) * int(np.count_nonzero(self.blue_col))
        both_row = self.red_row & self.blue_row
        both_col = self.red_col & self.blue_col
        cd = int(np.count_nonzero(both_row)) * int(np.count_nonzero(both_col))
        # ordered products count each unordered cell pair twice
        red, blue, dual = cr // 2, cb // 2, cd // 2
        return {"red": red, "blue": blue, "dual": dual, "edges": red + blue - dual}

    def edge_count(self) -> int:
        return self.flag_counts()["edges"]

    # ---------------- materializations ----------------

    def to_dense(self) -> tuple[np.ndarray, np.ndarray]:
        """(red, blue) boolean cell-pair matrices, cell id = i * N + j.

        Quadratic in the number of cells; intended for small N.
        """
        if self.cells > 4096:
            raise ValueError(f"dense product with {self.cells} cells refused")
        red = (self.red_row[:, None, :, None] & self.red_col[None, :, None, :])
        blue = (self.blue_row[:, None, :, None] & self.blue_col[None, :, None, :])
        return (red.reshape(self.cells, self.cells),
                blue.reshape(self.cells, self.cells))

    def flag_blocks(self, a, b) -> tuple[np.ndarray, np.ndarray]:
        """(red, blue) flag matrices between two lists of cells.

        a and b are (rows, cols) index-array pairs; entry [s, t] of each
        matrix is the flag of cell (a[0][s], a[1][s]) against (b[0][t], b[1][t]).
        """
        (ra, ca), (rb, cb) = a, b
        red = self.red_row[np.ix_(ra, rb)] & self.red_col[np.ix_(ca, cb)]
        blue = self.blue_row[np.ix_(ra, rb)] & self.blue_col[np.ix_(ca, cb)]
        return red, blue

    def cell_graph(self) -> SimpleGraphView:
        """SimpleGraphView over all N^2 cells (red or blue flag = edge)."""
        ids = np.arange(self.cells)
        us, vs, _ = _placed_adjacency(self, Placement(self.N, ids // self.N,
                                                      ids % self.N))
        return SimpleGraphView.from_edge_arrays(self.cells, us, vs)


def conormal_product(gr: BaseGraph, gb: BaseGraph) -> ColoredProductGraph:
    """Flagged co-normal product of the two base graphs (no deletion yet)."""
    if gr.side != "red" or gb.side != "blue":
        raise ValueError("expected a red and a blue base graph, in that order")
    if gr.N != gb.N:
        raise ValueError("base graphs must share N")
    N = gr.N
    free_rows = np.ones((N, N), dtype=bool)  # no constraint on the other side
    return ColoredProductGraph(
        N=N,
        red_row=gr.adj.copy(),
        red_col=free_rows.copy(),
        blue_row=free_rows.copy(),
        blue_col=gb.adj.copy(),
        stage="product",
    )


def apply_deletion_rule(g1: ColoredProductGraph, gr: BaseGraph,
                        gb: BaseGraph) -> ColoredProductGraph:
    """Remove flags caught in neighborhood boxes; result is triangle-free.

    Red flags die inside any box (upper red neighborhood of a row) x (all
    columns) or (all rows) x (full blue neighborhood of a column); blue flags
    symmetrically with "upper" and "full" swapped between the sides.
    """
    if g1.stage != "product":
        raise ValueError("deletion applies to the undeleted product")
    if not (np.array_equal(g1.red_row, gr.adj) and np.array_equal(g1.blue_col, gb.adj)):
        raise ValueError("product does not match the supplied base graphs")
    return ColoredProductGraph(
        N=g1.N,
        red_row=gr.adj & ~common_upper_neighbor_matrix(gr.adj),
        red_col=~common_neighbor_matrix(gb.adj),
        blue_row=~common_neighbor_matrix(gr.adj),
        blue_col=gb.adj & ~common_upper_neighbor_matrix(gb.adj),
        stage="deleted",
    )


@dataclass
class Placement:
    """Injective placement of {0..n-1} into the N x N cell grid."""

    N: int
    rows: np.ndarray  # (n,) int32
    cols: np.ndarray  # (n,) int32

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int32)
        self.cols = np.asarray(self.cols, dtype=np.int32)
        if self.rows.shape != self.cols.shape or self.rows.ndim != 1:
            raise ValueError("rows/cols must be equal-length vectors")
        ids = self.cell_ids()
        if np.unique(ids).size != ids.size:
            raise ValueError("placement is not injective")
        if self.rows.size and not (
                (self.rows >= 0).all() and (self.rows < self.N).all()
                and (self.cols >= 0).all() and (self.cols < self.N).all()):
            raise ValueError("cell out of range")

    @property
    def n(self) -> int:
        return int(self.rows.size)

    def cell_ids(self) -> np.ndarray:
        return self.rows.astype(np.int64) * self.N + self.cols

    def cell_of(self, v: int) -> tuple[int, int]:
        return int(self.rows[v]), int(self.cols[v])


def sample_injection(params: Params, seed: int) -> Placement:
    """Uniform random injection of {0..n-1} into the cells."""
    params.require_injectable()
    rng = child_rng(seed, STREAM_PHI)
    cells = rng.choice(params.N * params.N, size=params.n, replace=False)
    return Placement(params.N, (cells // params.N).astype(np.int32),
                     (cells % params.N).astype(np.int32))


@dataclass
class PlacedGraph:
    """Final instance: overlay graph plus everything needed to re-derive it."""

    params: Params
    seed: int | None
    base_red: BaseGraph
    base_blue: BaseGraph
    product: ColoredProductGraph  # deleted stage
    placement: Placement
    graph: SimpleGraphView
    stats: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.graph.n


def _placed_adjacency(product: ColoredProductGraph, placement: Placement,
                      block: int = 2048):
    """Edge arrays of the placed graph plus per-color pair counts."""
    rows, cols = placement.rows, placement.cols
    n = placement.n
    us, vs = [], []
    red_only = blue_only = dual = 0
    for start in range(0, n, block):
        stop = min(start + block, n)
        red, blue = product.flag_blocks((rows[start:stop], cols[start:stop]),
                                        (rows, cols))
        a, b = np.nonzero(red | blue)
        keep = (a + start) < b
        a, b = a[keep], b[keep]
        rk, bk = red[a, b], blue[a, b]
        red_only += int((rk & ~bk).sum())
        blue_only += int((bk & ~rk).sum())
        dual += int((rk & bk).sum())
        us.append(a + start)
        vs.append(b)
    counts = {"red_only": red_only, "blue_only": blue_only, "dual": dual}
    return np.concatenate(us), np.concatenate(vs), counts


def induce_final_graph(g2: ColoredProductGraph, placement: Placement,
                       params: Params | None = None, seed: int | None = None,
                       base_red: BaseGraph | None = None,
                       base_blue: BaseGraph | None = None,
                       extra_stats: dict | None = None) -> PlacedGraph:
    """Pull the cell graph back through the placement."""
    if g2.stage != "deleted":
        raise ValueError("final graph is induced from the deleted product")
    us, vs, color_counts = _placed_adjacency(g2, placement)
    graph = SimpleGraphView.from_edge_arrays(placement.n, us, vs)
    stats = dict(extra_stats or {})
    stats.update({
        "n": placement.n,
        "N": g2.N,
        "edges_final": graph.m,
        "placed_red_only": color_counts["red_only"],
        "placed_blue_only": color_counts["blue_only"],
        "placed_dual": color_counts["dual"],
    })
    return PlacedGraph(params=params, seed=seed, base_red=base_red,
                       base_blue=base_blue, product=g2, placement=placement,
                       graph=graph, stats=stats)


def _assemble(params: Params, seed: int | None, gr: BaseGraph, gb: BaseGraph,
              placement: Placement) -> PlacedGraph:
    """Bases + placement -> deleted product, builder stats, placed graph."""
    g1 = conormal_product(gr, gb)
    flags1 = g1.flag_counts()
    g2 = apply_deletion_rule(g1, gr, gb)
    flags2 = g2.flag_counts()
    stats = {
        "edges_base_red": gr.edge_count(),
        "edges_base_blue": gb.edge_count(),
        "flags_product": flags1,
        "flags_deleted_stage": flags2,
        "red_flags_removed": flags1["red"] - flags2["red"],
        "blue_flags_removed": flags1["blue"] - flags2["blue"],
        "cell_edges_product": flags1["edges"],
        "cell_edges_deleted_stage": flags2["edges"],
    }
    return induce_final_graph(g2, placement, params=params, seed=seed,
                              base_red=gr, base_blue=gb, extra_stats=stats)


def build(params: Params, seed: int) -> PlacedGraph:
    """Full pipeline for one (params, seed) instance."""
    params.require_injectable()
    gr, gb = sample_base_graphs(params, seed)
    return _assemble(params, seed, gr, gb, sample_injection(params, seed))


def rebuild(rec) -> PlacedGraph | None:
    """Re-derive a stored graph instance from its provenance.

    rec is a serialize.InstanceRecord; returns None when it lacks the
    params, the placement or either base edge list.
    """
    if (rec.params is None or rec.placement_rows is None
            or rec.base_red_edges is None or rec.base_blue_edges is None):
        return None
    N = rec.params.N
    return _assemble(rec.params, rec.seed,
                     BaseGraph.from_edges("red", N, rec.base_red_edges),
                     BaseGraph.from_edges("blue", N, rec.base_blue_edges),
                     Placement(N, rec.placement_rows, rec.placement_cols))
