"""Triple-system analogue of the overlay construction.

Two binomial 3-graphs are overlaid on the N x N cell grid: a cell triple is
red when its three row coordinates form a red base triple, blue when its
three column coordinates form a blue base triple, and in either case all six
coordinates must be distinct.  After a uniform injection the four-pass
reduction removes flags so that no four vertices carry three triples through
a common center (the forbidden star; equivalently, every vertex link is
triangle-free).

Passes, in order, each scanning triples lexicographically by their sorted
cell ids, row * N + col (vertex ids when no placement is attached); placed
vertices sit on distinct cells, so no two triples tie:

  (a) red flags are kept greedily unless they close an all-red star;
  (b) blue flags likewise against the blue flags kept so far;
  (c) any remaining star with exactly two blue-flagged edges loses the red
      flag of its third edge (which is red-only, so the edge disappears);
  (d) symmetrically, two red-flagged edges cost the third its blue flag.

Dual-flagged triples participate in both color passes; an edge survives
while it has at least one flag.

A ``TripleSystem`` is an (m, 3) int64 array of triples and an (m,) uint8
array of flags, in the canonical form ``TripleSystem.from_arrays`` sets:
rows u < v < w, unique, lexicographic, the flags of a repeated triple ORed.
Rows are keyed as int64 (a * order + b) * order + c, on vertex ranks where
order^3 would overflow.

  - ``sample_base_3graphs`` keeps the rows of the C(N, 3) combinations array
    where ``rng.random(C(N, 3)) < p``.
  - ``hyper_product`` broadcasts the base triples against the N(N-1)(N-2)
    ordered coordinate triples; ``from_arrays`` merges equal cell triples,
    so a triple that is both red and blue comes out dual.
  - ``inject_hyper`` draws ``sample_injection`` on its own stream, gathers
    each cell triple through a cell -> vertex array and keeps the rows
    whose three cells are all placed.
  - ``s4_reduction`` scans the rows in their own order, or, when cells are
    attached, in one ``np.lexsort`` by sorted cell ids.  Passes (a)
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
from dataclasses import dataclass
from itertools import chain, combinations, permutations

import numpy as np

from .construction import (STREAM_HYPER_BLUE, STREAM_HYPER_PHI,
                           STREAM_HYPER_RED, Placement, child_rng,
                           sample_injection)
from .params import Params

__all__ = [
    "RED", "BLUE", "TripleSystem",
    "sample_base_3graphs", "hyper_product", "inject_hyper", "s4_reduction",
    "extract_link", "verify_s4_free",
]

RED = 1
BLUE = 2

_MAX_PRODUCT_TRIPLES = 5_000_000
# link-edge pairs _star_copies holds at once (a few int64 arrays this long)
_PAIR_BLOCK = 1 << 18


def _row_keys(rows: np.ndarray, base: int) -> tuple[np.ndarray, int]:
    """The rows (a, b, c) of values below base as (a * base + b) * base + c,
    which orders them lexicographically, and base; where base^3 overflows
    int64, the same on the ranks of the values, and the rank count."""
    if base ** 3 > 1 << 63:
        values, rows = np.unique(rows, return_inverse=True)
        base, rows = len(values), rows.reshape(-1, 3)
        if base ** 3 > 1 << 63:
            raise ValueError(f"{base} distinct vertices: too many to key "
                             "triples in int64")
    return (rows[:, 0] * base + rows[:, 1]) * base + rows[:, 2], base


@dataclass(frozen=True)
class TripleSystem:
    """3-uniform system with per-triple color flags (bit 1 red, bit 2 blue),
    in the canonical form ``from_arrays`` sets."""

    order: int
    triples: np.ndarray  # (m, 3) int64
    flags: np.ndarray  # (m,) uint8
    kind: str = "base"
    cells: Placement | None = None  # the cell of each vertex, optional

    @classmethod
    def from_arrays(cls, order: int, triples, flags, kind: str = "base",
                    cells: Placement | None = None) -> TripleSystem:
        """The system holding the (m, 3) triples, in any row and vertex
        order, with the m flags; a repeated triple ORs its flags."""
        if cells is not None and cells.n != order:
            raise ValueError(f"cells place {cells.n} vertices, not {order}")
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
        key = _row_keys(t, order)[0]
        sort = np.argsort(key)
        key, t, f = key[sort], t[sort], f[sort]
        start = np.flatnonzero(np.diff(key, prepend=-1))  # runs of one triple
        if len(start) < len(t):
            t, f = t[start], np.bitwise_or.reduceat(f, start)
        return cls(order=order, triples=t, flags=f.astype(np.uint8),
                   kind=kind, cells=cells)

    def edge_count(self) -> int:
        return len(self.triples)

    def count_with(self, flag: int) -> int:
        return int(np.count_nonzero(self.flags & flag))


def _combinations3(N: int) -> np.ndarray:
    """The C(N, 3) triples u < v < w of range(N), lexicographic, (m, 3)."""
    count = math.comb(N, 3)
    return np.fromiter(chain.from_iterable(combinations(range(N), 3)),
                       dtype=np.int64, count=3 * count).reshape(count, 3)


def sample_base_3graphs(params: Params, seed: int) -> tuple[TripleSystem, TripleSystem]:
    """Independent binomial 3-graphs on {0..N-1}, each triple kept w.p. p."""
    N, p = params.N, params.p
    triples = _combinations3(N)
    out = []
    for flag, stream, kind in ((RED, STREAM_HYPER_RED, "base-red"),
                               (BLUE, STREAM_HYPER_BLUE, "base-blue")):
        kept = triples[child_rng(seed, stream).random(len(triples)) < p]
        out.append(TripleSystem.from_arrays(
            N, kept, np.full(len(kept), flag), kind=kind))
    return out[0], out[1]


def hyper_product(hr: TripleSystem, hb: TripleSystem) -> TripleSystem:
    """Overlay on the N^2 cells; all six coordinates of a triple distinct."""
    if hr.order != hb.order:
        raise ValueError("base systems must share N")
    N = hr.order
    expected = (hr.edge_count() + hb.edge_count()) * math.comb(N, 3) * 6
    if expected > _MAX_PRODUCT_TRIPLES:
        raise ValueError(f"product would enumerate ~{expected} triples; too large")
    # every ordered triple of distinct coordinates, (N(N-1)(N-2), 3)
    ordered = _combinations3(N)[:, list(permutations(range(3)))].reshape(-1, 3)
    # a red base triple of rows against each column assignment, and a blue
    # base triple of columns against each row assignment
    cell = np.concatenate([
        (hr.triples[:, None, :] * N + ordered[None, :, :]).reshape(-1, 3),
        (ordered[None, :, :] * N + hb.triples[:, None, :]).reshape(-1, 3)])
    flag = np.repeat([RED, BLUE], [hr.edge_count() * len(ordered),
                                   hb.edge_count() * len(ordered)])
    return TripleSystem.from_arrays(
        N * N, cell, flag, kind="product",
        cells=Placement(N, *np.divmod(np.arange(N * N), N)))


def inject_hyper(h1: TripleSystem, params: Params, seed: int) -> TripleSystem:
    """Uniform injection of {0..n-1} into cells; keep fully placed triples."""
    if h1.order != params.N * params.N:
        raise ValueError("product order does not match params")
    cells = sample_injection(params, seed, stream=STREAM_HYPER_PHI)
    vertex_of = np.full(h1.order, -1, dtype=np.int64)
    vertex_of[cells.cell_ids()] = np.arange(params.n)
    placed = vertex_of[h1.triples]
    kept = (placed >= 0).all(axis=1)
    return TripleSystem.from_arrays(params.n, placed[kept], h1.flags[kept],
                                    kind="induced", cells=cells)


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
    key, order = _row_keys(
        triples[:, [0, 1, 2, 1, 0, 2, 2, 0, 1]].reshape(-1, 3), order)
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
    triples, flags = h2.triples, h2.flags
    if h2.cells is not None:  # by sorted cell ids, distinct for each row
        scan = np.lexsort(np.sort(h2.cells.cell_ids()[triples], axis=1).T[::-1])
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


def extract_link(h: TripleSystem, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Link of v: the pairs u < w of its triples, (m, 2), and their flags."""
    if not 0 <= v < h.order:
        raise ValueError("vertex out of range")
    at = h.triples == v
    through = at.any(axis=1)
    # each row through v without v, its other two vertices in order
    pairs = h.triples[through][~at[through]].reshape(-1, 2)
    return pairs, h.flags[through]


def verify_s4_free(h: TripleSystem) -> bool:
    """No center carries three triples on four vertices (links triangle-free)."""
    return not any(copies.size for copies in _star_copies(h.triples, h.order))
