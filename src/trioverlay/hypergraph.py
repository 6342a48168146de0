"""Triple-system analogue of the overlay construction.

Two binomial 3-graphs are overlaid on the N x N cell grid: a cell triple is
red when its three row coordinates form a red base triple, blue when its
three column coordinates form a blue base triple, and in either case all six
coordinates must be distinct.  After a uniform injection the four-pass
reduction removes flags so that no four vertices carry three triples through
a common center (the forbidden star; equivalently, every vertex link is
triangle-free).

Passes, in order, each scanning triples lexicographically by their sorted
cell coordinates (vertex ids when no placement is attached, and to break
ties between triples on the same cells):

  (a) red flags are kept greedily unless they close an all-red star;
  (b) blue flags likewise against the blue flags kept so far;
  (c) any remaining star with exactly two blue-flagged edges loses the red
      flag of its third edge (which is red-only, so the edge disappears);
  (d) symmetrically, two red-flagged edges cost the third its blue flag.

Dual-flagged triples participate in both color passes; an edge survives
while it has at least one flag.

The pipeline runs on (m, 3) int64 arrays of triples (each row sorted,
u < v < w) with one flag per row; a ``TripleSystem`` holds its triples as a
dict filled in bulk from such arrays by ``TripleSystem.from_arrays``.

  - ``sample_base_3graphs`` keeps the rows of the C(N, 3) combinations array
    where ``rng.random(C(N, 3)) < p``.
  - ``hyper_product`` broadcasts the base triples against the N(N-1)(N-2)
    ordered coordinate triples, sorts each cell triple, and ORs the flags of
    equal cell triples after one ``np.unique`` over their int64 keys, so a
    triple that is both red and blue comes out dual.
  - ``inject_hyper`` gathers each cell triple through a cell -> vertex
    array and keeps the rows whose three cells are all placed.
  - ``s4_reduction`` orders the triples with one ``np.lexsort``.  Passes (a)
    and (b) are sequential: a Python loop over the rows with per-center link
    bitsets.  Passes (c) and (d) enumerate the star copies of the surviving
    triples once each (``_star_copies``, in blocks of bounded size).
    Within one of these passes no edge carrying the two-edge flag loses a
    flag, so whether a star copy qualifies does not change while the pass
    runs; removing the qualifying third edges block by block gives what
    the copy-by-copy scan gave.
  - ``verify_s4_free`` is the same enumeration, stopped at the first block
    that holds a copy.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, combinations, permutations

import numpy as np

from .construction import (STREAM_HYPER_BLUE, STREAM_HYPER_PHI,
                           STREAM_HYPER_RED, child_rng)
from .graphview import SimpleGraphView
from .params import Params

__all__ = [
    "RED", "BLUE", "TripleSystem", "LinkGraph", "LinkIndex",
    "sample_base_3graphs", "hyper_product", "inject_hyper", "s4_reduction",
    "extract_link", "verify_s4_free",
]

RED = 1
BLUE = 2

_MAX_PRODUCT_TRIPLES = 5_000_000
# link-edge pairs _star_copies holds at once (a few int64 arrays this long)
_PAIR_BLOCK = 1 << 18


def _norm(t) -> tuple[int, int, int]:
    a, b, c = sorted(int(x) for x in t)
    if a == b or b == c:
        raise ValueError(f"triple {t} has repeated vertices")
    return (a, b, c)


@dataclass
class TripleSystem:
    """3-uniform system with per-triple color flags (bit 1 red, bit 2 blue)."""

    order: int
    flags: dict = field(default_factory=dict)  # sorted triple -> flag bits
    kind: str = "base"
    cells: np.ndarray | None = None  # (order, 2) row/col provenance, optional

    @classmethod
    def from_arrays(cls, order: int, triples, flags, kind: str = "base",
                    cells: np.ndarray | None = None) -> TripleSystem:
        """The system holding the (m, 3) triples with the m flags, checked
        as ``add`` checks one triple; a repeated triple ORs its flags."""
        t = np.sort(np.asarray(triples, dtype=np.int64).reshape(-1, 3), axis=1)
        f = np.asarray(flags, dtype=np.int64).reshape(-1)
        if len(f) != len(t):
            raise ValueError(f"{len(t)} triples but {len(f)} flags")
        if len(t):
            if ((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2])).any():
                raise ValueError("triple has repeated vertices")
            if t[:, 0].min() < 0 or t[:, 2].max() >= order:
                raise ValueError("vertex out of range")
            if f.min() < 1 or f.max() > (RED | BLUE):
                raise ValueError("bad flag")
        h = cls(order=order, kind=kind, cells=cells)
        keys = list(map(tuple, t.tolist()))
        bits = f.tolist()
        h.flags = dict(zip(keys, bits))
        if len(h.flags) < len(keys):  # a repeated triple: OR, as add does
            h.flags = {}
            for key, bit in zip(keys, bits):
                h.flags[key] = h.flags.get(key, 0) | bit
        return h

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The triples as an (m, 3) int64 array and their uint8 flags, in
        the order of ``flags``."""
        m = len(self.flags)
        triples = np.fromiter(chain.from_iterable(self.flags), dtype=np.int64,
                              count=3 * m).reshape(m, 3)
        return triples, np.fromiter(self.flags.values(), dtype=np.uint8,
                                    count=m)

    def add(self, t, flag: int) -> None:
        key = _norm(t)
        if key[0] < 0 or key[2] >= self.order:
            raise ValueError("vertex out of range")
        if not 0 < flag <= (RED | BLUE):
            raise ValueError("bad flag")
        self.flags[key] = self.flags.get(key, 0) | flag

    def edges(self) -> list[tuple[int, int, int]]:
        return sorted(self.flags)

    def edge_count(self) -> int:
        return len(self.flags)

    def count_with(self, flag: int) -> int:
        return sum(1 for f in self.flags.values() if f & flag)

    def has_triple(self, t) -> bool:
        return _norm(t) in self.flags

    def flags_of(self, t) -> int:
        return self.flags.get(_norm(t), 0)

    def triple_key(self, t):
        """Lexicographic inspection key: sorted cell coordinates if placed."""
        t = _norm(t)
        if self.cells is None:
            return t
        return tuple(sorted((int(self.cells[v, 0]), int(self.cells[v, 1]))
                            for v in t))


def _combinations3(N: int) -> np.ndarray:
    """The C(N, 3) triples u < v < w of range(N), lexicographic, (m, 3)."""
    count = math.comb(N, 3)
    return np.fromiter(chain.from_iterable(combinations(range(N), 3)),
                       dtype=np.int64, count=3 * count).reshape(count, 3)


def _row_keys(rows: np.ndarray, base: int) -> np.ndarray:
    """The rows (a, b, c) of values below base as (a * base + b) * base + c,
    which orders them lexicographically."""
    return (rows[:, 0] * base + rows[:, 1]) * base + rows[:, 2]


def sample_base_3graphs(params: Params, seed: int) -> tuple[TripleSystem, TripleSystem]:
    """Independent binomial 3-graphs on {0..N-1}, each triple kept w.p. p."""
    N, p = params.N, params.p
    triples = _combinations3(N)
    out = []
    for flag, stream, kind in ((RED, STREAM_HYPER_RED, "base-red"),
                               (BLUE, STREAM_HYPER_BLUE, "base-blue")):
        rng = child_rng(seed, stream)
        kept = triples[rng.random(len(triples)) < p]
        out.append(TripleSystem.from_arrays(
            N, kept, np.full(len(kept), flag), kind=kind))
    return out[0], out[1]


def hyper_product(hr: TripleSystem, hb: TripleSystem) -> TripleSystem:
    """Overlay on the N^2 cells; all six coordinates of a triple distinct."""
    if hr.order != hb.order:
        raise ValueError("base systems must share N")
    N = hr.order
    M = N * N
    cells = np.column_stack(np.divmod(np.arange(M, dtype=np.int64), N))
    expected = (hr.edge_count() + hb.edge_count()) * math.comb(N, 3) * 6
    if expected > _MAX_PRODUCT_TRIPLES:
        raise ValueError(f"product would enumerate ~{expected} triples; too large")
    if not expected:  # no base triple, or N < 3
        return TripleSystem(order=M, kind="product", cells=cells)
    # every ordered triple of distinct coordinates, (N(N-1)(N-2), 3)
    ordered = _combinations3(N)[:, list(permutations(range(3)))].reshape(-1, 3)
    red, blue = hr.arrays()[0], hb.arrays()[0]
    # a red base triple of rows against each column assignment, and a blue
    # base triple of columns against each row assignment
    cell = np.concatenate([
        (red[:, None, :] * N + ordered[None, :, :]).reshape(-1, 3),
        (ordered[None, :, :] * N + blue[:, None, :]).reshape(-1, 3)])
    cell.sort(axis=1)
    flag = np.repeat(np.array([RED, BLUE], dtype=np.uint8),
                     [len(red) * len(ordered), len(blue) * len(ordered)])
    keys, inverse = np.unique(_row_keys(cell, M), return_inverse=True)
    flags = np.zeros(len(keys), dtype=np.uint8)
    np.bitwise_or.at(flags, inverse, flag)
    triples = np.column_stack([keys // (M * M), keys // M % M, keys % M])
    return TripleSystem.from_arrays(M, triples, flags, kind="product",
                                    cells=cells)


def inject_hyper(h1: TripleSystem, params: Params, seed: int) -> TripleSystem:
    """Uniform injection of {0..n-1} into cells; keep fully placed triples."""
    params.require_injectable()
    if h1.order != params.N * params.N:
        raise ValueError("product order does not match params")
    rng = child_rng(seed, STREAM_HYPER_PHI)
    cell_ids = rng.choice(h1.order, size=params.n, replace=False)
    vertex_of = np.full(h1.order, -1, dtype=np.int64)
    vertex_of[cell_ids] = np.arange(params.n)
    cells = np.column_stack([cell_ids // params.N, cell_ids % params.N]).astype(np.int64)
    triples, flags = h1.arrays()
    placed = vertex_of[triples]
    kept = (placed >= 0).all(axis=1)
    return TripleSystem.from_arrays(params.n, np.sort(placed[kept], axis=1),
                                    flags[kept], kind="induced", cells=cells)


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


def _greedy(rows: list, order: int) -> list[bool]:
    """For each triple of rows in turn: kept unless it closes a star with
    the triples kept before it."""
    # link[c * order + u]: bitmask of the w with {c, u, w} kept
    link = defaultdict(int)
    keep = []
    for x, y, z in rows:
        xo, yo, zo = x * order, y * order, z * order
        if (link[xo + y] & link[xo + z] or link[yo + x] & link[yo + z]
                or link[zo + x] & link[zo + y]):
            keep.append(False)
            continue
        keep.append(True)
        bx, by, bz = 1 << x, 1 << y, 1 << z
        link[xo + y] |= bz
        link[xo + z] |= by
        link[yo + x] |= bz
        link[yo + z] |= bx
        link[zo + x] |= by
        link[zo + y] |= bx
    return keep


def _star_copies(triples: np.ndarray, order: int):
    """Every star copy (c, u, w, z), u < w < z, of distinct sorted triples,
    yielded in blocks: (3, copies) arrays of the rows of {c, u, w},
    {c, u, z} and {c, w, z}.  A copy is a triangle in the link of c."""
    m = len(triples)
    # one link edge (center, u, w), u < w, per triple and vertex of it
    key = _row_keys(triples[:, [0, 1, 2, 1, 0, 2, 2, 0, 1]].reshape(-1, 3),
                    order)
    sort = np.argsort(key)
    key, row = key[sort], np.repeat(np.arange(m), 3)[sort]
    # each link edge (c, u, w) pairs with the later edges (c, u, z) of its
    # group; a copy is a pair whose closing edge (c, w, z) is present
    group = key // order
    later = np.searchsorted(group, group, side="right") - np.arange(3 * m) - 1
    upto = np.cumsum(later)
    lo = 0
    while lo < 3 * m:  # edges lo..hi-1 pair up at most _PAIR_BLOCK times
        base = upto[lo] - later[lo]
        hi = max(lo + 1,
                 int(np.searchsorted(upto, base + _PAIR_BLOCK, "right")))
        count = later[lo:hi]
        first = np.repeat(np.arange(lo, hi), count)
        second = first + 1 + np.arange(len(first)) \
            - np.repeat(upto[lo:hi] - count - base, count)
        center = group[first] // order
        closing = (center * order + key[first] % order) * order \
            + key[second] % order
        third = np.minimum(np.searchsorted(key, closing), 3 * m - 1)
        hit = key[third] == closing
        yield np.stack([row[first[hit]], row[second[hit]], row[third[hit]]])
        lo = hi


def s4_reduction(h2: TripleSystem) -> TripleSystem:
    """Four-pass flag removal; the result carries no star on any center."""
    order = h2.order
    triples, flags = h2.arrays()
    if h2.cells is None:
        rank = np.arange(order)
    else:  # equal cells rank equal
        rank = np.unique(h2.cells, axis=0, return_inverse=True)[1].reshape(-1)
    cell = np.sort(rank[triples], axis=1)
    scan = np.lexsort((_row_keys(triples, order), _row_keys(cell, len(rank))))
    triples, flags = triples[scan], flags[scan]

    # passes (a) and (b): each color's flags greedily, in scan order
    kept = np.zeros(len(triples), dtype=np.uint8)
    for flag in (RED, BLUE):
        at = np.flatnonzero(flags & flag)
        keep = _greedy(triples[at].tolist(), order)
        kept[at[np.array(keep, dtype=bool)]] |= flag

    # pass (c): two blue edges, one red edge -> red edge removed;
    # pass (d): two red edges, one blue edge -> blue edge removed
    for two_flag in (BLUE, RED):
        live = np.flatnonzero(kept)
        for copies in _star_copies(triples[live], order):
            copies = live[copies]
            has = (kept[copies] & two_flag) != 0
            hit = np.flatnonzero(has.sum(axis=0) == 2)
            # the third edge lacks two_flag, so the other flag was its only one
            kept[copies[np.argmin(has[:, hit], axis=0), hit]] = 0

    live = kept != 0
    return TripleSystem.from_arrays(order, triples[live], kept[live],
                                    kind="reduced", cells=h2.cells)


@dataclass
class LinkGraph:
    """Link of one vertex: pairs completing a present triple, with flags."""

    center: int
    order: int
    flags: dict  # (u, w) with u < w -> flag bits

    def graph_view(self) -> SimpleGraphView:
        return SimpleGraphView.from_edges(self.order, list(self.flags))

    def edge_count(self) -> int:
        return len(self.flags)


def extract_link(h: TripleSystem, v: int) -> LinkGraph:
    if not 0 <= v < h.order:
        raise ValueError("vertex out of range")
    flags = {}
    for t, f in h.flags.items():
        if v in t:
            u, w = (x for x in t if x != v)
            flags[(u, w)] = flags.get((u, w), 0) | f
    return LinkGraph(center=v, order=h.order, flags=flags)


def verify_s4_free(h: TripleSystem) -> bool:
    """No center carries three triples on four vertices (links triangle-free)."""
    blocks = _star_copies(h.arrays()[0], h.order)
    return not any(copies.size for copies in blocks)
