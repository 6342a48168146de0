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

Before and after deletion, a flag is therefore the product of a row-pair
condition and a column-pair condition, which is what ColoredProductGraph
stores: four N x N boolean matrices, read through the one flag rule
ColoredProductGraph.pair_flags.  This reproduces the definition exactly at
every scale while keeping pair queries O(1) and slicing vectorized.

upper_neighborhoods(adj) is the one definition of the boxes N+, and
common_neighbor_matrix(boxes) the pairs sharing a box, for the deletion rule
and for analysis's closed pairs.  _assemble is the one maker of a whole
PlacedGraph: build induces its graph, rebuild takes a stored record's.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "STREAM_EDGE_DELETION", "STREAM_PROCESS", "STREAM_K_SETS", "STREAM_GREEDY",
    "upper_neighborhoods", "common_neighbor_matrix",
    "common_upper_neighbor_matrix", "count_matmul",
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
STREAM_K_SETS = 62  # analysis.sample_k_sets
STREAM_GREEDY = 63  # independence.independence_greedy


def child_rng(seed: int, stream: int) -> np.random.Generator:
    """Deterministic child generator for one labeled role of a master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


@dataclass
class BaseGraph:
    """One blow-up side: an undirected graph on {0..N-1} plus its side tag."""

    side: str  # "red" (row coordinates) or "blue" (column coordinates)
    adj: np.ndarray  # (N, N) bool, symmetric, zero diagonal

    def __post_init__(self):
        if self.side not in ("red", "blue"):
            raise ValueError(f"side must be 'red' or 'blue', got {self.side!r}")
        adj = np.asarray(self.adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency of shape {adj.shape} is not square")
        if adj.diagonal().any() or not (adj == adj.T).all():
            raise ValueError("adjacency must be symmetric with empty diagonal")
        self.adj = adj

    @property
    def N(self) -> int:
        return self.adj.shape[0]

    @classmethod
    def from_edges(cls, side: str, N: int, edges) -> "BaseGraph":
        """Graph on {0..N-1} from an (m, 2) array or sequence of pairs."""
        edges = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2)
        if edges.size and (edges.min() < 0 or edges.max() >= N):
            raise ValueError(f"{side} base edge endpoint outside 0..{N - 1}")
        us, vs = edges.T
        adj = np.zeros((N, N), dtype=bool)
        adj[us, vs] = adj[vs, us] = True
        return cls(side, adj)  # rejects self-loops

    def edge_count(self) -> int:
        return int(self.adj.sum()) // 2

    def edge_array(self) -> np.ndarray:
        """(m, 2) int array of edges with u < v, lexicographically sorted."""
        return np.argwhere(np.triu(self.adj, 1))


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
        graphs.append(BaseGraph(side, adj))
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


def upper_neighborhoods(adj: np.ndarray) -> np.ndarray:
    """The boxes N+(h), one per row: [h, u] True iff h ~ u and h < u."""
    idx = np.arange(adj.shape[0])
    return adj & (idx[:, None] < idx[None, :])


def common_neighbor_matrix(boxes: np.ndarray) -> np.ndarray:
    """[u, v] True iff some box (a row of boxes) holds both u and v.

    For a symmetric adjacency, whose boxes are the neighborhoods: u and v
    share a neighbor, and the diagonal is True iff deg(u) > 0."""
    b = np.asarray(boxes, dtype=np.float32)
    return count_matmul(b.T, b) > 0


def common_upper_neighbor_matrix(adj: np.ndarray) -> np.ndarray:
    """[u, v] True iff some h adjacent to both u and v has h < min(u, v)."""
    return common_neighbor_matrix(upper_neighborhoods(adj))


@dataclass
class ColoredProductGraph:
    """Red/blue flagged graph on the N x N cell grid, stored factorized.

    A pair of distinct cells (i, j), (k, l) carries a red flag iff
    red_row[i, k] and red_col[j, l], a blue flag iff blue_row[i, k] and
    blue_col[j, l].

    Invariant: all four matrices are symmetric, and red_row and blue_col have
    empty diagonals, so equal cells never carry flags.  The product and the
    deleted product both keep it: red_row and blue_col are BaseGraph.adj, or
    BaseGraph.adj masked.  The induce (_placed_adjacency) relies on it: it
    walks only the pairs i < k of red_row and j < l of blue_col.
    """

    red_row: np.ndarray
    red_col: np.ndarray
    blue_row: np.ndarray
    blue_col: np.ndarray

    @property
    def N(self) -> int:
        return self.red_row.shape[0]

    @property
    def cells(self) -> int:
        return self.N * self.N

    def pair_flags(self, ra, ca, rb, cb):
        """(red, blue) flags of cells (ra, ca) against cells (rb, cb).

        The one flag rule: red_row[ra, rb] & red_col[ca, cb] and
        blue_row[ra, rb] & blue_col[ca, cb].  The index arrays broadcast as
        numpy indexing does; a pair of equal cells reads (False, False).
        """
        return (self.red_row[ra, rb] & self.red_col[ca, cb],
                self.blue_row[ra, rb] & self.blue_col[ca, cb])

    def edge_flags(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[bool, bool]:
        """(red, blue) flags of the pair of distinct cells a, b."""
        if a == b:
            raise ValueError("flags are defined for distinct cells")
        red, blue = self.pair_flags(a[0], a[1], b[0], b[1])
        return bool(red), bool(blue)

    # ---------------- global counts (exact, via the factorization) ----------

    def flag_counts(self, placement: Placement | None = None) -> dict:
        """Red-, blue-, dual-flagged and present pairs of cells, or of placed
        cells: row @ Occ @ colᵀ summed over Occ, the 0/1 occupancy matrix."""
        factors = [(self.red_row, self.red_col), (self.blue_row, self.blue_col),
                   (self.red_row & self.blue_row, self.red_col & self.blue_col)]
        if placement is None:
            ordered = [int(np.count_nonzero(r)) * int(np.count_nonzero(c))
                       for r, c in factors]
        else:
            occ = placement.occupancy()
            ordered = [int((count_matmul(count_matmul(r, occ), c.T) * occ)
                           .sum(dtype=np.float64)) for r, c in factors]
        # ordered pairs count each unordered cell pair twice
        red, blue, dual = (x // 2 for x in ordered)
        return {"red": red, "blue": blue, "dual": dual, "edges": red + blue - dual}

    def triangle_certificate(self) -> int:
        """tr(M^3) for M = red + blue, the flag matrices of to_dense: closed
        3-walks of the cell graph, each weighted by its colourings.  It is 0
        iff the cell graph, and so every placed graph, is triangle-free.

        M^3 expands into 8 colour words.  The trace is cyclic, so they fall
        into 4 classes, RRR, RRB, RBB and BBB, of 1, 3, 3 and 1 words, and
        the trace of a word of Kronecker factors is (row-side trace) x
        (column-side trace).  For symmetric X, Y, tr(XXY) = sum(XX * Y), so
        each side takes two products, whose entries are at most N.
        """
        def traces(x, y):  # tr(XXX), tr(XXY), tr(XYY), tr(YYY)
            xx, yy = count_matmul(x, x), count_matmul(y, y)
            return [int((a * b).sum(dtype=np.float64))
                    for a, b in ((xx, x), (xx, y), (yy, x), (yy, y))]

        rows = traces(self.red_row, self.blue_row)
        cols = traces(self.red_col, self.blue_col)
        return sum(w * r * c for w, r, c in zip((1, 3, 3, 1), rows, cols))

    # ---------------- materializations ----------------

    def to_dense(self) -> tuple[np.ndarray, np.ndarray]:
        """(red, blue) boolean cell-pair matrices, cell id = i * N + j.

        Quadratic in the number of cells; intended for small N.
        """
        if self.cells > 4096:
            raise ValueError(f"dense product with {self.cells} cells refused")
        rows, cols = np.divmod(np.arange(self.cells), self.N)
        return self.pair_flags(rows[:, None], cols[:, None], rows, cols)

    def cell_graph(self) -> SimpleGraphView:
        """SimpleGraphView over all N^2 cells (red or blue flag = edge)."""
        grid = Placement(self.N, *np.divmod(np.arange(self.cells), self.N))
        us, vs = _placed_adjacency(self, grid)
        return SimpleGraphView.from_edge_arrays(self.cells, us, vs)


def conormal_product(gr: BaseGraph, gb: BaseGraph) -> ColoredProductGraph:
    """Flagged co-normal product of the two base graphs (no deletion yet)."""
    if gr.side != "red" or gb.side != "blue":
        raise ValueError("expected a red and a blue base graph, in that order")
    if gr.N != gb.N:
        raise ValueError("base graphs must share N")
    free = np.broadcast_to(True, gr.adj.shape)  # read-only: no constraint there
    return ColoredProductGraph(
        red_row=gr.adj.copy(),
        red_col=free,
        blue_row=free,
        blue_col=gb.adj.copy(),
    )


def apply_deletion_rule(g1: ColoredProductGraph, gr: BaseGraph,
                        gb: BaseGraph) -> ColoredProductGraph:
    """Remove flags caught in neighborhood boxes; result is triangle-free.

    Red flags die inside any box (upper red neighborhood of a row) x (all
    columns) or (all rows) x (full blue neighborhood of a column); blue flags
    symmetrically with "upper" and "full" swapped between the sides.
    g1 must be conormal_product(gr, gb).  A deleted product of bases with
    an edge fails that test; one of empty bases equals the product.
    """
    if not (np.array_equal(g1.red_row, gr.adj)
            and np.array_equal(g1.blue_col, gb.adj)
            and g1.red_col.all() and g1.blue_row.all()):
        raise ValueError("g1 is not the conormal product of the base graphs")
    return ColoredProductGraph(
        red_row=gr.adj & ~common_upper_neighbor_matrix(gr.adj),
        red_col=~common_neighbor_matrix(gb.adj),
        blue_row=~common_neighbor_matrix(gr.adj),
        blue_col=gb.adj & ~common_upper_neighbor_matrix(gb.adj),
    )


@dataclass(frozen=True)
class Placement:
    """Injective placement of {0..n-1} into the N x N cell grid."""

    N: int
    rows: np.ndarray  # (n,) int32
    cols: np.ndarray  # (n,) int32

    def __post_init__(self):
        # check the dtype, then the int64 values before narrowing them:
        # int64 would truncate floats, and int32 wrap large values
        rows, cols = np.asarray(self.rows), np.asarray(self.cols)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError("rows/cols must be equal-length vectors")
        if rows.size and {rows.dtype.kind, cols.dtype.kind} - set("iu"):
            raise ValueError("placement coordinates must be integers, got "
                             f"{rows.dtype} and {cols.dtype} values")
        rows, cols = rows.astype(np.int64), cols.astype(np.int64)
        if rows.size and (min(rows.min(), cols.min()) < 0
                          or max(rows.max(), cols.max()) >= self.N):
            raise ValueError("cell out of range")
        # a repeated cell is a zero step between sorted ids (a sort costs
        # far less than np.unique, which hashes in numpy 2.4, at n = 10^5)
        if not np.diff(np.sort(rows * self.N + cols)).all():
            raise ValueError("placement is not injective")
        object.__setattr__(self, "rows", rows.astype(np.int32))
        object.__setattr__(self, "cols", cols.astype(np.int32))

    @property
    def n(self) -> int:
        return int(self.rows.size)

    def cell_ids(self) -> np.ndarray:
        return self.rows.astype(np.int64) * self.N + self.cols

    def cell_of(self, v: int) -> tuple[int, int]:
        return int(self.rows[v]), int(self.cols[v])

    def occupancy(self) -> np.ndarray:
        """N x N float32 0/1 matrix: 1 on the placed cells."""
        occ = np.zeros((self.N, self.N), dtype=np.float32)
        occ[self.rows, self.cols] = 1
        return occ


def sample_injection(params: Params, seed: int,
                     stream: int = STREAM_PHI) -> Placement:
    """Uniform random injection of {0..n-1} into the cells."""
    params.require_injectable()
    cells = child_rng(seed, stream).choice(params.N * params.N, size=params.n,
                                           replace=False)
    return Placement(params.N, *np.divmod(cells, params.N))


@dataclass(frozen=True)
class PlacedGraph:
    """Final instance: overlay graph plus everything needed to re-derive it."""

    params: Params
    seed: int | None
    base_red: BaseGraph
    base_blue: BaseGraph
    product: ColoredProductGraph  # after apply_deletion_rule
    placement: Placement
    graph: SimpleGraphView
    stats: dict

    @property
    def n(self) -> int:
        return self.graph.n

    def edges_are_placed(self) -> bool:
        """True iff graph is the placed graph, without inducing it: every
        edge joins flagged cells, and there are stats["edges_final"] of them.
        graph is a SimpleGraphView, so its edges are distinct."""
        u, v = self.graph.edge_array().T
        rows, cols = self.placement.rows, self.placement.cols
        red, blue = self.product.pair_flags(rows[u], cols[u], rows[v], cols[v])
        return (bool((red | blue).all())
                and len(u) == self.stats["edges_final"])


def _fibers(coords: np.ndarray, N: int):
    """Placed vertices grouped by one coordinate: (order, start, count), so
    that fiber(c) = order[start[c]:start[c] + count[c]]."""
    order = np.argsort(coords, kind="stable")
    count = np.bincount(coords, minlength=N)
    return order, np.cumsum(count) - count, count


def _fiber_pairs(fibers, a: np.ndarray, b: np.ndarray):
    """(u, v) over fiber(a[t]) x fiber(b[t]) for every t."""
    order, start, count = fibers
    cb = count[b]
    sizes = count[a] * cb
    offsets = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    q, s = np.divmod(offsets, np.repeat(cb, sizes))
    return (order[np.repeat(start[a], sizes) + q],
            order[np.repeat(start[b], sizes) + s])


def _placed_adjacency(product: ColoredProductGraph, placement: Placement):
    """Edge arrays (u, v) of the placed graph, each edge once, in no
    particular order: O(m) fiber pairs instead of n^2 pair decisions.

    A red flag needs a red_row pair of rows, a blue flag a blue_col pair of
    columns.  Both matrices are symmetric with empty diagonals before and
    after deletion (BaseGraph.adj, or BaseGraph.adj masked), so the red pass
    takes the fibers of every red_row pair i < k and keeps the pairs with a
    red_col flag; the blue pass does the same over blue_col pairs j < l,
    filtered by blue_row, and drops the pairs the red pass already holds.
    """
    rows, cols = placement.rows, placement.cols
    red_row, red_col = product.red_row, product.red_col
    u, v = _fiber_pairs(_fibers(rows, product.N),
                        *np.nonzero(np.triu(red_row, 1)))
    keep = red_col[cols[u], cols[v]]
    red_u, red_v = u[keep], v[keep]
    u, v = _fiber_pairs(_fibers(cols, product.N),
                        *np.nonzero(np.triu(product.blue_col, 1)))
    ru, rv = rows[u], rows[v]
    keep = product.blue_row[ru, rv] & ~(red_row[ru, rv]
                                        & red_col[cols[u], cols[v]])
    return np.concatenate([red_u, u[keep]]), np.concatenate([red_v, v[keep]])


def induce_final_graph(g2: ColoredProductGraph, placement: Placement,
                       params: Params, seed: int | None, base_red: BaseGraph,
                       base_blue: BaseGraph, stats: dict) -> PlacedGraph:
    """The instance whose graph is the cell graph of the deleted product g2
    pulled back through the placement."""
    graph = SimpleGraphView.from_edge_arrays(
        placement.n, *_placed_adjacency(g2, placement))
    return PlacedGraph(params, seed, base_red, base_blue, g2, placement, graph,
                       stats)


def _assemble(params: Params, seed: int | None, gr: BaseGraph, gb: BaseGraph,
              placement: Placement,
              graph: SimpleGraphView | None = None) -> PlacedGraph:
    """Bases + placement -> the whole instance: deleted product, stats (the
    builder's counts, then the placed graph's, from the factorization) and
    the placed graph: graph when given, else induced."""
    g1 = conormal_product(gr, gb)
    flags1 = g1.flag_counts()
    g2 = apply_deletion_rule(g1, gr, gb)
    flags2 = g2.flag_counts()
    placed = g2.flag_counts(placement)
    stats = {
        "edges_base_red": gr.edge_count(),
        "edges_base_blue": gb.edge_count(),
        "flags_product": flags1,
        "flags_deleted_stage": flags2,
        "red_flags_removed": flags1["red"] - flags2["red"],
        "blue_flags_removed": flags1["blue"] - flags2["blue"],
        "cell_edges_product": flags1["edges"],
        "cell_edges_deleted_stage": flags2["edges"],
        "n": placement.n, "N": g2.N, "edges_final": placed["edges"],
        "placed_red_only": placed["red"] - placed["dual"],
        "placed_blue_only": placed["blue"] - placed["dual"],
        "placed_dual": placed["dual"],
    }
    if graph is None:
        return induce_final_graph(g2, placement, params, seed, gr, gb, stats)
    return PlacedGraph(params, seed, gr, gb, g2, placement, graph, stats)


def build(params: Params, seed: int) -> PlacedGraph:
    """Full pipeline for one (params, seed) instance."""
    gr, gb = sample_base_graphs(params, seed)
    return _assemble(params, seed, gr, gb, sample_injection(params, seed))


def rebuild(rec) -> PlacedGraph | None:
    """Re-derive a stored serialize.InstanceRecord around rec.graph, shared,
    or None when rec holds no provenance.

    The graph is not induced: edges_are_placed() on the result tells
    whether it is the placed one.  The reader has already checked the
    graph, and the bases and the placement against params."""
    if rec.provenance is None:
        return None
    return _assemble(rec.params, rec.seed, *rec.provenance, rec.graph)
