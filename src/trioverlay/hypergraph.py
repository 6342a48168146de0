"""Triple-system analogue of the overlay construction.

Two binomial 3-graphs are overlaid on the N x N cell grid: a cell triple is
red when its three row coordinates form a red base triple, blue when its
three column coordinates form a blue base triple, and in either case all six
coordinates must be distinct.  After a uniform injection the four-pass
reduction removes flags so that no four vertices carry three triples through
a common center (the forbidden star; equivalently, every vertex link is
triangle-free).

Passes, in order, each scanning triples lexicographically by their sorted
cell coordinates (vertex ids when no placement is attached):

  (a) red flags are kept greedily unless they close an all-red star;
  (b) blue flags likewise against the blue flags kept so far;
  (c) any remaining star with exactly two blue-flagged edges loses the red
      flag of its third edge (which is red-only, so the edge disappears);
  (d) symmetrically, two red-flagged edges cost the third its blue flag.

Dual-flagged triples participate in both color passes; an edge survives
while it has at least one flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations

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

    def add(self, t, flag: int) -> None:
        key = _norm(t)
        if max(key) >= self.order:
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


def sample_base_3graphs(params: Params, seed: int) -> tuple[TripleSystem, TripleSystem]:
    """Independent binomial 3-graphs on {0..N-1}, each triple kept w.p. p."""
    N, p = params.N, params.p
    triples = list(combinations(range(N), 3))
    out = []
    for flag, stream, kind in ((RED, STREAM_HYPER_RED, "base-red"),
                               (BLUE, STREAM_HYPER_BLUE, "base-blue")):
        rng = child_rng(seed, stream)
        keep = rng.random(len(triples)) < p
        h = TripleSystem(order=N, kind=kind)
        for t, k in zip(triples, keep):
            if k:
                h.add(t, flag)
        out.append(h)
    return out[0], out[1]


def hyper_product(hr: TripleSystem, hb: TripleSystem) -> TripleSystem:
    """Overlay on the N^2 cells; all six coordinates of a triple distinct."""
    if hr.order != hb.order:
        raise ValueError("base systems must share N")
    N = hr.order
    combos = list(combinations(range(N), 3))
    expected = (hr.edge_count() + hb.edge_count()) * len(combos) * 6
    if expected > _MAX_PRODUCT_TRIPLES:
        raise ValueError(f"product would enumerate ~{expected} triples; too large")
    cells = np.array([(i, j) for i in range(N) for j in range(N)], dtype=np.int64)
    h = TripleSystem(order=N * N, kind="product", cells=cells)
    for rows in hr.edges():
        for cols in combos:
            for perm in permutations(cols):
                h.add(tuple(r * N + c for r, c in zip(rows, perm)), RED)
    for cols in hb.edges():
        for rows in combos:
            for perm in permutations(rows):
                h.add(tuple(r * N + c for r, c in zip(perm, cols)), BLUE)
    return h


def inject_hyper(h1: TripleSystem, params: Params, seed: int) -> TripleSystem:
    """Uniform injection of {0..n-1} into cells; keep fully placed triples."""
    params.require_injectable()
    if h1.order != params.N * params.N:
        raise ValueError("product order does not match params")
    rng = child_rng(seed, STREAM_HYPER_PHI)
    cell_ids = rng.choice(h1.order, size=params.n, replace=False)
    vertex_of = {int(c): v for v, c in enumerate(cell_ids)}
    cells = np.column_stack([cell_ids // params.N, cell_ids % params.N]).astype(np.int64)
    h2 = TripleSystem(order=params.n, kind="induced", cells=cells)
    for t, f in h1.flags.items():
        if all(c in vertex_of for c in t):
            h2.add(tuple(vertex_of[c] for c in t), f)
    return h2


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


def s4_reduction(h2: TripleSystem) -> TripleSystem:
    """Four-pass flag removal; the result carries no star on any center."""
    order = h2.order
    key = h2.triple_key
    result = TripleSystem(order=order, kind="reduced", cells=h2.cells)

    # pass (a): red flags greedily, no all-red star
    red_index = LinkIndex(order)
    for t in sorted((t for t, f in h2.flags.items() if f & RED), key=key):
        if not red_index.creates_star(t):
            red_index.add(t)
            result.add(t, RED)
    # pass (b): blue flags against accepted blue flags
    blue_index = LinkIndex(order)
    for t in sorted((t for t, f in h2.flags.items() if f & BLUE), key=key):
        if not blue_index.creates_star(t):
            blue_index.add(t)
            result.add(t, BLUE)

    presence = LinkIndex(order)
    for t in result.flags:
        presence.add(t)

    def remove_flag(t, flag):
        f = result.flags[t] & ~flag
        if f:
            result.flags[t] = f
        else:
            del result.flags[t]
            presence.remove(t)

    def sweep(two_flag: int, third_flag: int):
        # snapshot current star copies, then recheck liveness as flags fall
        copies = []
        for c in range(order):
            for (u, w, z) in presence.link_triangles(c):
                copies.append((c, u, w, z))
        for c, u, w, z in copies:
            tris = [_norm((c, u, w)), _norm((c, u, z)), _norm((c, w, z))]
            fl = [result.flags.get(t, 0) for t in tris]
            if 0 in fl:
                continue  # copy already destroyed
            flagged = [i for i, f in enumerate(fl) if f & two_flag]
            if len(flagged) == 2:
                third = next(i for i in range(3) if i not in flagged)
                if fl[third] & third_flag:
                    remove_flag(tris[third], third_flag)

    # pass (c): two blue edges, one red edge -> red edge removed
    sweep(BLUE, RED)
    # pass (d): two red edges, one blue edge -> blue edge removed
    sweep(RED, BLUE)
    return result


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
    links = LinkIndex(h.order)
    for t in h.flags:
        links.add(t)
    return not any(links.link_triangles(c) for c in range(h.order))
