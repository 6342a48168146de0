"""Structural diagnostics for placed overlay instances.

Three families:

* concentration_report checks the seven quantities the construction relies
  on (fiber sizes, base degrees and codegrees, neighborhood-fiber unions and
  their pairwise and projected intersections) against their stated windows.
  At desk scales several two-sided windows are narrower than the integer
  granularity of the quantities they bound, so the report records violation
  counts instead of failing hard; callers decide what to assert.

* classify_sets stratifies, for a k-set I of placed vertices, the trace
  sizes |X_v(I)| of all 2N neighborhood boxes into huge/large/medium/small
  classes, and counts closed and open pairs of I (pairs covered by some box,
  in both the full and the upper-neighborhood sense), each through _covered.

* f_function is the closed-pair budget used to rank how lopsided an
  independent candidate set can be before it is impossible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .construction import (STREAM_K_SETS, PlacedGraph, Placement, child_rng,
                           common_neighbor_matrix, count_matmul,
                           upper_neighborhoods)

__all__ = [
    "BoundCheck", "ConcentrationReport", "concentration_report",
    "SetClassification", "classify_sets", "edges_are_open_plus",
    "choose2", "f_function", "sample_k_sets",
]


# ---------------------------------------------------------------------------
# concentration

@dataclass
class BoundCheck:
    index: int        # 1..7, the order used throughout the package
    name: str
    bound: float      # allowed maximum for `worst`
    worst: float      # worst observed value (absolute deviation for windows)
    n_checked: int
    n_violations: int

    @property
    def passed(self) -> bool:
        return self.n_violations == 0

    def to_dict(self) -> dict:
        return {"index": self.index, "name": self.name, "bound": self.bound,
                "worst": self.worst, "n_checked": self.n_checked,
                "n_violations": self.n_violations, "passed": self.passed}


@dataclass
class ConcentrationReport:
    eps2: float
    C: float
    checks: list[BoundCheck]

    def check(self, index: int) -> BoundCheck:
        for c in self.checks:
            if c.index == index:
                return c
        raise KeyError(index)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"eps2": self.eps2, "C": self.C,
                "checks": [c.to_dict() for c in self.checks]}


def _window_check(index, name, values, center, tol) -> BoundCheck:
    dev = np.abs(np.asarray(values, dtype=float) - center)
    return BoundCheck(index, name, bound=tol, worst=float(dev.max()),
                      n_checked=int(dev.size), n_violations=int((dev > tol).sum()))


def _cap_check(index, name, values, cap) -> BoundCheck:
    vals = np.asarray(values, dtype=float)
    worst = float(vals.max()) if vals.size else 0.0
    return BoundCheck(index, name, bound=cap, worst=worst,
                      n_checked=int(vals.size), n_violations=int((vals > cap).sum()))


def _offdiag(mat: np.ndarray) -> np.ndarray:
    """Entries above the diagonal, row by row."""
    idx = np.arange(mat.shape[0])
    return mat[idx[:, None] < idx[None, :]]


def concentration_report(gr, gb, placement, params, eps2: float | None = None,
                         C: float | None = None) -> ConcentrationReport:
    """Evaluate the seven concentration quantities of one instance.

    eps2 and C default to params.eps2 and params.C; pass explicit values to
    measure against desk-scale windows instead of the asymptotic ones.
    """
    eps2 = params.eps2 if eps2 is None else eps2
    C = params.C if C is None else C
    n, N = params.n, params.N
    log2n, log3n = params.log2n, math.log(n) ** 3
    pn, pN = params.pn, params.pN

    occ = placement.occupancy()
    fib_rows = np.bincount(placement.rows, minlength=N)
    fib_cols = np.bincount(placement.cols, minlength=N)

    ar = gr.adj.astype(np.float32)
    ab = gb.adj.astype(np.float32)

    checks = []
    # (1) fiber sizes around log^2 n
    checks.append(_window_check(
        1, "fiber_size", np.concatenate([fib_rows, fib_cols]), log2n, eps2 * log2n))
    # (2) base degrees around pN
    degs = np.concatenate([gr.adj.sum(axis=1), gb.adj.sum(axis=1)])
    checks.append(_window_check(2, "base_degree", degs, pN, eps2 * pN))
    # (3) same-side codegrees at most C log n
    codeg = np.concatenate([_offdiag(count_matmul(ar, ar)),
                            _offdiag(count_matmul(ab, ab))])
    checks.append(_cap_check(3, "base_codegree", codeg, C * math.log(n)))
    # (4) neighborhood-fiber unions around pn
    # placed cells in neighbor rows, disjoint by row
    n3_red = count_matmul(ar, fib_rows)
    n3_blue = count_matmul(ab, fib_cols)
    checks.append(_window_check(
        4, "union_size", np.concatenate([n3_red, n3_blue]), pn, eps2 * pn))
    # (5) pairwise intersections of those unions, all distinct vertex pairs;
    # scaling column h by its fiber size is the middle diag(fib) factor
    same_red = _offdiag(count_matmul(ar * fib_rows.astype(np.float32), ar))
    same_blue = _offdiag(count_matmul(ab * fib_cols.astype(np.float32), ab))
    red_occ = count_matmul(ar, occ)  # [a-vertex, col]: placed cells in its union
    cross = count_matmul(red_occ, ab).ravel()
    checks.append(_cap_check(
        5, "union_codegree", np.concatenate([same_red, same_blue, cross]),
        C * log3n))
    # (6) shared columns of the unions, row-side pairs
    colhit = (red_occ > 0).astype(np.float32)
    checks.append(_cap_check(
        6, "column_projection_codegree",
        _offdiag(count_matmul(colhit, colhit.T)), C * log3n))
    # (7) shared rows of the unions, column-side pairs
    rowhit = (count_matmul(occ, ab) > 0).astype(np.float32)  # [row, b-vertex]
    checks.append(_cap_check(
        7, "row_projection_codegree",
        _offdiag(count_matmul(rowhit.T, rowhit)), C * log3n))
    return ConcentrationReport(eps2=eps2, C=C, checks=checks)


# ---------------------------------------------------------------------------
# k-set classification

CLASS_NAMES = ("huge", "large", "medium", "small")


@dataclass
class SetClassification:
    k: int
    sizes: np.ndarray        # (2N,) |X_v(I)|, rows then columns
    sizes_plus: np.ndarray   # (2N,) |X+_v(I)|
    labels: np.ndarray       # (2N,) index into CLASS_NAMES
    class_members: dict      # name -> vertex ids (0..N-1 rows, N..2N-1 cols)
    sum_pairs: dict          # name -> sum of C(|X_v(I)|, 2) over the class
    union_pairs: dict        # name -> |union of C(X_v(I), 2)| within I-pairs
    closed: int              # |C(I)|
    closed_plus: int         # |C+(I)|
    open: int                # |O(I)|
    open_plus: int           # |O+(I)|
    proj_rows: int           # |pi_R(I)|: distinct rows used by I
    proj_cols: int
    h_projection_sums: dict = field(default_factory=dict)

    @property
    def total_pairs(self) -> int:
        return self.k * (self.k - 1) // 2

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "closed": self.closed, "closed_plus": self.closed_plus,
            "open": self.open, "open_plus": self.open_plus,
            "proj_rows": self.proj_rows, "proj_cols": self.proj_cols,
            "class_sizes": {nm: len(self.class_members[nm]) for nm in CLASS_NAMES},
            "sum_pairs": dict(self.sum_pairs),
            "union_pairs": dict(self.union_pairs),
            "h_projection_sums": dict(self.h_projection_sums),
        }


def _labels_for(sizes: np.ndarray, t1: float, t2: float, t3: float) -> np.ndarray:
    """huge: x > t1; large: t2 < x <= t1; medium: t3 < x <= t2; small: x <= t3.

    Ties at t2/t3 go to the smaller class so every size has exactly one home.
    """
    sizes = np.asarray(sizes)
    labels = np.full(sizes.shape, 3, dtype=np.int8)  # small
    labels[sizes > t3] = 2
    labels[sizes > t2] = 1
    labels[sizes > t1] = 0
    return labels


def _int_choose2(values: np.ndarray) -> int:
    v = np.asarray(values, dtype=np.int64)
    return int((v * (v - 1) // 2).sum())


def _cells(I, placement) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """I as a 1-D int64 array of distinct ids in 0..n-1, else ValueError,
    with the rows and the columns of its cells."""
    I = np.asarray(I, dtype=np.int64)
    if I.ndim != 1 or not np.diff(np.sort(I)).all():
        raise ValueError("I must be a set of distinct vertices")
    if I.size and (I.min() < 0 or I.max() >= placement.n):
        raise ValueError("vertex out of range")
    return (I, placement.rows[I].astype(np.int64),
            placement.cols[I].astype(np.int64))


def _covered(boxes_r, boxes_b, rows, cols) -> np.ndarray:
    """k x k, symmetric: [s, t] True iff the cells (rows[s], cols[s]) and
    (rows[t], cols[t]) of I lie in a common row box (a row of boxes_r) or a
    common column box (a row of boxes_b)."""
    return (common_neighbor_matrix(boxes_r)[rows][:, rows]
            | common_neighbor_matrix(boxes_b)[cols][:, cols])


def classify_sets(I, instance: PlacedGraph) -> SetClassification:
    """Classify all 2N neighborhood boxes against the k-set I and count pairs."""
    params = instance.params
    N = params.N
    I, rows, cols = _cells(I, instance.placement)
    if I.size != params.k:
        raise ValueError(f"|I| = {I.size} != k = {params.k}")

    rowcnt = np.bincount(rows, minlength=N).astype(np.int64)
    colcnt = np.bincount(cols, minlength=N).astype(np.int64)

    ar = instance.base_red.adj
    ab = instance.base_blue.adj
    upper_r, upper_b = upper_neighborhoods(ar), upper_neighborhoods(ab)

    sizes = np.concatenate([ar @ rowcnt, ab @ colcnt])
    sizes_plus = np.concatenate([upper_r @ rowcnt, upper_b @ colcnt])
    labels = _labels_for(sizes, params.t1, params.t2, params.t3)

    class_members = {nm: np.nonzero(labels == idx)[0]
                     for idx, nm in enumerate(CLASS_NAMES)}
    sum_pairs = {nm: _int_choose2(sizes[mem]) for nm, mem in class_members.items()}

    # pairs of I covered by all boxes, by the upper ones, by each class's
    arf = ar.astype(np.float32)
    abf = ab.astype(np.float32)

    def covered_pairs(boxes_r, boxes_b) -> int:
        # the pairs s < t: half the off-diagonal entries
        cov = _covered(boxes_r, boxes_b, rows, cols)
        off = np.count_nonzero(cov) - np.count_nonzero(cov.diagonal())
        return int(off) // 2

    closed = covered_pairs(arf, abf)
    closed_plus = covered_pairs(upper_r, upper_b)
    total = I.size * (I.size - 1) // 2
    union_pairs = {nm: covered_pairs(arf[mem[mem < N]], abf[mem[mem >= N] - N])
                   for nm, mem in class_members.items()}

    # projection sums over the huge class (diagnostics for the budget bounds)
    occI = Placement(N, rows, cols).occupancy()
    projB_of_rowbox = (count_matmul(arf, occI) > 0).sum(axis=1)
    projR_of_rowbox = count_matmul(arf, rowcnt > 0)
    projR_of_colbox = (count_matmul(occI, abf) > 0).sum(axis=0)
    projB_of_colbox = count_matmul(abf, colcnt > 0)
    huge = class_members["huge"]
    huge_r = huge[huge < N]
    huge_b = huge[huge >= N] - N
    h_projection_sums = {
        "rows_projR": _int_choose2(projR_of_rowbox[huge_r]),
        "rows_projB": _int_choose2(projB_of_rowbox[huge_r]),
        "cols_projR": _int_choose2(projR_of_colbox[huge_b]),
        "cols_projB": _int_choose2(projB_of_colbox[huge_b]),
    }

    return SetClassification(
        k=int(I.size), sizes=sizes, sizes_plus=sizes_plus, labels=labels,
        class_members=class_members, sum_pairs=sum_pairs,
        union_pairs=union_pairs,
        closed=closed, closed_plus=closed_plus,
        open=total - closed, open_plus=total - closed_plus,
        proj_rows=int((rowcnt > 0).sum()), proj_cols=int((colcnt > 0).sum()),
        h_projection_sums=h_projection_sums,
    )


def edges_are_open_plus(instance: PlacedGraph, I) -> bool:
    """True iff no edge of the final graph inside I is covered in the + sense."""
    I, rows, cols = _cells(I, instance.placement)
    red, blue = instance.product.pair_flags(rows[:, None], cols[:, None],
                                            rows, cols)
    closedp = _covered(upper_neighborhoods(instance.base_red.adj),
                       upper_neighborhoods(instance.base_blue.adj), rows, cols)
    return not bool(((red | blue) & closedp).any())


# ---------------------------------------------------------------------------
# pair budget function

def choose2(x):
    """x (x - 1) / 2 for x >= 1 and 0 below: the monotone convex extension
    of the pair count to real arguments (exact on nonnegative integers)."""
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 1.0, x * (x - 1.0) / 2.0, 0.0)
    return float(out) if out.ndim == 0 else out


def f_function(l_r, l_b, params):
    """Closed-pair budget of a candidate split (l_r, l_b).

    f(l_r, l_b) = C(l_r,2) + C(l_b,2)
                  - min(C(k-l_r,2), C(pn,2) + C(k-l_r-pn,2))
                  - min(C(k-l_b,2), C(pn,2) + C(k-l_b-pn,2))

    with k = params.k and pn = params.p * n real-valued.  Symmetric, and
    non-decreasing in each argument on [1, k]; f(k, k) = 2 C(k, 2) exactly.
    """
    k, pn = float(params.k), params.pn

    def side(l):
        l = np.asarray(l, dtype=float)
        penalty = np.minimum(choose2(k - l), choose2(pn) + choose2(k - l - pn))
        return choose2(l) - penalty

    out = side(l_r) + side(l_b)
    arr = np.asarray(out)
    return float(arr) if arr.ndim == 0 else arr


# ---------------------------------------------------------------------------
# k-set sampling for diagnostics

def sample_k_sets(instance: PlacedGraph, n_random: int = 10, seed: int = 0,
                  adversarial: bool = True) -> list[tuple[str, np.ndarray]]:
    """Random k-sets plus structured stress sets (fiber-heavy, neighborhoods)."""
    params = instance.params
    n, k, N = instance.n, params.k, params.N
    rng = child_rng(seed, STREAM_K_SETS)
    out: list[tuple[str, np.ndarray]] = []
    for i in range(n_random):
        out.append((f"random_{i}", np.sort(rng.choice(n, size=k, replace=False))))
    if not adversarial:
        return out

    rows = instance.placement.rows
    cols = instance.placement.cols

    def fiber_heavy(coord: np.ndarray, label: str, top: int):
        counts = np.bincount(coord, minlength=N)
        order = np.argsort(-counts, kind="stable")
        picked: list[int] = []
        for idx in order[:top] if top else order:
            picked.extend(np.nonzero(coord == idx)[0].tolist())
            if len(picked) >= k:
                break
        if len(picked) < k:
            rest = np.setdiff1d(np.arange(n), np.array(picked, dtype=np.int64))
            extra = rng.choice(rest, size=k - len(picked), replace=False)
            picked.extend(extra.tolist())
        out.append((label, np.sort(np.array(picked[:k], dtype=np.int64))))

    fiber_heavy(rows, "rows_to_k", 0)
    fiber_heavy(rows, "top1_row", 1)
    fiber_heavy(rows, "top2_rows", 2)
    fiber_heavy(cols, "cols_to_k", 0)
    fiber_heavy(cols, "top1_col", 1)
    fiber_heavy(cols, "top2_cols", 2)

    deg = instance.graph.degree_sequence()
    for rank, v in enumerate(np.argsort(-deg)[:4]):
        nb = instance.graph.neighbors(int(v))
        picked = nb[:k].astype(np.int64)
        if picked.size < k:
            rest = np.setdiff1d(np.arange(n), np.append(picked, v))
            extra = rng.choice(rest, size=k - picked.size, replace=False)
            picked = np.append(picked, extra)
        out.append((f"neighborhood_{rank}", np.sort(picked)))
    return out
