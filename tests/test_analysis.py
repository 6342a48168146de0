"""Diagnostics tests: concentration checks, k-set classification, pair budget.

The closed/open counters and the seven concentration quantities are each
recomputed here with plain Python loops over neighbor sets, independently of
the matrix factorizations used by the library.
"""

import json
import math
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from trioverlay.analysis import (CLASS_NAMES, choose2, classify_sets,
                                 concentration_report, edges_are_open_plus,
                                 f_function, sample_k_sets)
from trioverlay.construction import (BaseGraph, apply_deletion_rule, build,
                                     conormal_product, sample_injection)
from trioverlay.params import Params, derive_params, explicit_params

from oracles import closed_pairs_bruteforce, f_reference


def _neighbor_sets(adj):
    return [set(np.nonzero(adj[v])[0].tolist()) for v in range(adj.shape[0])]


def _instance(N, p, n, k, seed):
    return build(explicit_params(n=n, N=N, p=p, k=k), seed=seed)


def _random_I(inst, rng):
    return np.sort(rng.choice(inst.n, size=inst.params.k, replace=False))


# ---------------------------------------------------------------------------
# classify_sets


class TestClassifySets:
    def test_sizes_match_direct_definition(self):
        rng = np.random.default_rng(420)
        for seed in range(6):
            inst = _instance(N=6, p=0.5, n=24, k=6, seed=seed)
            I = _random_I(inst, rng)
            cl = classify_sets(I, inst)
            nr = _neighbor_sets(inst.base_red.adj)
            nb = _neighbor_sets(inst.base_blue.adj)
            rows = inst.placement.rows[I]
            cols = inst.placement.cols[I]
            for v in range(6):
                box = [t for t in range(I.size) if rows[t] in nr[v]]
                boxp = [t for t in range(I.size)
                        if rows[t] in nr[v] and rows[t] > v]
                assert cl.sizes[v] == len(box)
                assert cl.sizes_plus[v] == len(boxp)
                cbox = [t for t in range(I.size) if cols[t] in nb[v]]
                cboxp = [t for t in range(I.size)
                         if cols[t] in nb[v] and cols[t] > v]
                assert cl.sizes[6 + v] == len(cbox)
                assert cl.sizes_plus[6 + v] == len(cboxp)
            assert cl.proj_rows == len(set(rows.tolist()))
            assert cl.proj_cols == len(set(cols.tolist()))

    def test_closed_open_vs_bruteforce(self):
        # the factorized pair counters against the explicit box-union oracle
        rng = np.random.default_rng(77)
        for seed in range(8):
            N = int(rng.integers(4, 9))
            p = float(rng.uniform(0.2, 0.9))
            n = int(rng.integers(2 * N, N * N + 1))
            k = int(rng.integers(3, min(n, 10) + 1))
            inst = _instance(N=N, p=p, n=n, k=k, seed=seed)
            I = _random_I(inst, rng)
            cl = classify_sets(I, inst)
            rows = inst.placement.rows[I].tolist()
            cols = inst.placement.cols[I].tolist()
            er = [tuple(e) for e in np.argwhere(np.triu(inst.base_red.adj, 1))]
            eb = [tuple(e) for e in np.argwhere(np.triu(inst.base_blue.adj, 1))]
            cov = closed_pairs_bruteforce(rows, cols, er, eb, N, plus=False)
            covp = closed_pairs_bruteforce(rows, cols, er, eb, N, plus=True)
            assert cl.closed == len(cov)
            assert cl.closed_plus == len(covp)
            assert covp <= cov  # the + boxes are subsets
            total = k * (k - 1) // 2
            assert cl.total_pairs == total
            assert cl.closed + cl.open == total
            assert cl.closed_plus + cl.open_plus == total
            assert cl.open <= cl.open_plus

    def test_union_pairs_per_class(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            inst = _instance(N=7, p=0.5, n=35, k=8, seed=seed)
            I = _random_I(inst, rng)
            cl = classify_sets(I, inst)
            nr = _neighbor_sets(inst.base_red.adj)
            nb = _neighbor_sets(inst.base_blue.adj)
            rows = inst.placement.rows[I]
            cols = inst.placement.cols[I]

            def covered(box_ids):
                out = set()
                for b in box_ids:
                    if b < 7:
                        mem = [t for t in range(I.size) if rows[t] in nr[b]]
                    else:
                        mem = [t for t in range(I.size) if cols[t] in nb[b - 7]]
                    out |= set(combinations(sorted(mem), 2))
                return out

            allcov = set()
            for nm in CLASS_NAMES:
                per = covered(cl.class_members[nm].tolist())
                assert cl.union_pairs[nm] == len(per)
                assert cl.union_pairs[nm] <= cl.sum_pairs[nm]
                allcov |= per
            # classes partition the boxes, so the unions rebuild C(I)
            assert len(allcov) == cl.closed
            assert sum(len(cl.class_members[nm]) for nm in CLASS_NAMES) == 14

    def test_sum_pairs_definition(self):
        rng = np.random.default_rng(31)
        inst = _instance(N=6, p=0.6, n=30, k=7, seed=3)
        I = _random_I(inst, rng)
        cl = classify_sets(I, inst)
        for idx, nm in enumerate(CLASS_NAMES):
            want = sum(int(s) * (int(s) - 1) // 2
                       for s in cl.sizes[cl.labels == idx])
            assert cl.sum_pairs[nm] == want

    def test_label_thresholds(self):
        # huge: x > t1; large: t2 < x <= t1; medium: t3 < x <= t2; small: <= t3
        rng = np.random.default_rng(5)
        inst = _instance(N=7, p=0.5, n=30, k=8, seed=11)
        I = _random_I(inst, rng)
        cl = classify_sets(I, inst)
        par = inst.params
        for x, lab in zip(cl.sizes, cl.labels):
            if x > par.t1:
                assert lab == 0
            elif x > par.t2:
                assert lab == 1
            elif x > par.t3:
                assert lab == 2
            else:
                assert lab == 3

    def test_label_ties_go_down(self):
        # rebuild the same instance with cutoffs equal to realized sizes:
        # a size exactly at t2 must classify medium, exactly at t3 small
        inst = _instance(N=6, p=0.55, n=24, k=6, seed=2)
        rng = np.random.default_rng(8)
        I = _random_I(inst, rng)
        sizes = classify_sets(I, inst).sizes
        vals = sorted({int(s) for s in sizes if 0 < s < 6})
        assert vals, "degenerate draw; pick another seed"
        s = vals[len(vals) // 2]
        d = explicit_params(n=24, N=6, p=0.55, k=6).to_dict()
        par2 = Params.from_dict({**d, "t1": s + 0.5, "t2": float(s),
                                 "t3": s - 0.5})
        shim = SimpleNamespace(params=par2, n=inst.n,
                               placement=inst.placement,
                               base_red=inst.base_red,
                               base_blue=inst.base_blue)
        cl2 = classify_sets(I, shim)
        at = np.nonzero(cl2.sizes == s)[0]
        assert at.size
        assert (cl2.labels[at] == 2).all()  # == t2 -> medium, not large
        par3 = Params.from_dict({**d, "t1": s + 1.0, "t2": s + 0.5,
                                 "t3": float(s)})
        shim.params = par3
        cl3 = classify_sets(I, shim)
        assert (cl3.labels[np.nonzero(cl3.sizes == s)[0]] == 3).all()

    def test_full_row_set_with_complete_bases(self):
        # p = 1, n = N^2: I = one whole row traces X_{r_i}(I) = I for every
        # other row vertex, and every pair of I is closed
        par = explicit_params(n=16, N=4, p=1.0, k=4)
        inst = build(par, seed=0)
        for x in range(4):
            I = np.nonzero(inst.placement.rows == x)[0]
            assert I.size == 4
            cl = classify_sets(I, inst)
            for r in range(4):
                assert cl.sizes[r] == (0 if r == x else 4)
            for b in range(4):
                assert cl.sizes[4 + b] == 3  # col boxes catch the other cols
            assert cl.closed == cl.total_pairs
            assert cl.open == 0
            assert cl.proj_rows == 1 and cl.proj_cols == 4

    def test_empty_bases_everything_open(self):
        par = explicit_params(n=18, N=5, p=0.0, k=5)
        inst = build(par, seed=1)
        rng = np.random.default_rng(0)
        I = _random_I(inst, rng)
        cl = classify_sets(I, inst)
        assert (cl.sizes == 0).all() and (cl.sizes_plus == 0).all()
        assert (cl.labels == 3).all()
        assert cl.closed == 0 and cl.closed_plus == 0
        assert cl.open == cl.total_pairs == 10
        assert cl.open_plus == 10
        assert all(v == 0 for v in cl.sum_pairs.values())
        assert all(v == 0 for v in cl.union_pairs.values())
        assert all(v == 0 for v in cl.h_projection_sums.values())

    def test_h_projection_sums(self):
        # drop the cutoffs so most boxes land in the huge class
        d = explicit_params(n=30, N=6, p=0.6, k=6).to_dict()
        par = Params.from_dict({**d, "t1": 1.5, "t2": 1.0, "t3": 0.5})
        inst = build(par, seed=4)
        rng = np.random.default_rng(14)
        I = _random_I(inst, rng)
        cl = classify_sets(I, inst)
        assert cl.class_members["huge"].size > 0
        nr = _neighbor_sets(inst.base_red.adj)
        nb = _neighbor_sets(inst.base_blue.adj)
        rows = inst.placement.rows[I]
        cols = inst.placement.cols[I]

        def c2(x):
            return x * (x - 1) // 2

        rr = rb = cr = cb = 0
        for v in cl.class_members["huge"]:
            if v < 6:
                mem = [t for t in range(I.size) if rows[t] in nr[v]]
                rr += c2(len({int(rows[t]) for t in mem}))
                rb += c2(len({int(cols[t]) for t in mem}))
            else:
                mem = [t for t in range(I.size) if cols[t] in nb[v - 6]]
                cr += c2(len({int(rows[t]) for t in mem}))
                cb += c2(len({int(cols[t]) for t in mem}))
        assert cl.h_projection_sums == {
            "rows_projR": rr, "rows_projB": rb,
            "cols_projR": cr, "cols_projB": cb,
        }

    def test_input_validation(self):
        inst = _instance(N=5, p=0.4, n=20, k=5, seed=0)
        with pytest.raises(ValueError):
            classify_sets(np.arange(4), inst)          # |I| != k
        with pytest.raises(ValueError):
            classify_sets(np.array([0, 1, 2, 3, 3]), inst)
        with pytest.raises(ValueError):
            classify_sets(np.array([0, 1, 2, 3, 20]), inst)

    def test_to_dict_shape(self):
        inst = _instance(N=5, p=0.4, n=20, k=5, seed=0)
        I = np.arange(5)
        d = classify_sets(I, inst).to_dict()
        assert d["k"] == 5
        assert set(d["class_sizes"]) == set(CLASS_NAMES)
        assert sum(d["class_sizes"].values()) == 10
        assert d["closed"] + d["open"] == 10
        assert json.loads(json.dumps(d)) == d  # plain Python values only


# ---------------------------------------------------------------------------
# edges_are_open_plus


class TestEdgesOpenPlus:
    def test_final_graphs_pass(self):
        # deletion removes every flag whose pair is closed in the + sense,
        # so the final graph has no edge inside C+(I) for any I
        for seed in range(3):
            inst = _instance(N=8, p=0.35, n=48, k=7, seed=seed)
            for label, I in sample_k_sets(inst, n_random=4, seed=seed):
                assert edges_are_open_plus(inst, I), label

    def test_product_stage_fails(self):
        # a red triangle base: rows 1,2 share upper neighbor 0, and the
        # pre-deletion product still carries the red flag between them
        par = explicit_params(n=9, N=3, p=1.0, k=3)
        br = BaseGraph.from_edges("red", 3, [(0, 1), (0, 2), (1, 2)])
        bb = BaseGraph.from_edges("blue", 3, [])
        g1 = conormal_product(br, bb)
        g2 = apply_deletion_rule(g1, br, bb)
        pl = sample_injection(par, seed=5)

        def vertex_at(r, c):
            return int(np.nonzero((pl.rows == r) & (pl.cols == c))[0][0])

        I = np.sort([vertex_at(1, 0), vertex_at(2, 1), vertex_at(0, 0)])
        before = SimpleNamespace(params=par, placement=pl, product=g1,
                                 base_red=br, base_blue=bb)
        after = SimpleNamespace(params=par, placement=pl, product=g2,
                                base_red=br, base_blue=bb)
        assert g1.edge_flags((1, 0), (2, 1))[0]  # red flag present pre-delete
        assert not edges_are_open_plus(before, I)
        assert edges_are_open_plus(after, I)

    def test_vacuous_on_empty(self):
        inst = _instance(N=5, p=0.0, n=20, k=5, seed=0)
        assert edges_are_open_plus(inst, np.arange(5))

    @pytest.mark.parametrize("I", [[-1, 0, 1], [0, 1, 20], [0, 1, 1],
                                   [[0, 1], [2, 3]]],
                             ids=["negative", "n", "repeated", "2-d"])
    def test_input_validation(self, I):
        # -1 once read vertex n - 1, and a repeated id was taken as given;
        # classify_sets rejects the same sets (with |I| = k)
        inst = _instance(N=5, p=0.4, n=20, k=3, seed=0)
        with pytest.raises(ValueError):
            edges_are_open_plus(inst, I)
        with pytest.raises(ValueError):
            classify_sets(I, inst)


# ---------------------------------------------------------------------------
# concentration


def _loop_concentration(inst):
    """All seven quantity lists via neighbor-set loops (oracle)."""
    par = inst.params
    N = par.N
    nr = _neighbor_sets(inst.base_red.adj)
    nb = _neighbor_sets(inst.base_blue.adj)
    rows = inst.placement.rows.tolist()
    cols = inst.placement.cols.tolist()
    fibR = [rows.count(i) for i in range(N)]
    fibC = [cols.count(i) for i in range(N)]
    pairs = list(combinations(range(N), 2))

    q1 = fibR + fibC
    q2 = [len(nr[v]) for v in range(N)] + [len(nb[v]) for v in range(N)]
    q3 = ([len(nr[u] & nr[v]) for u, v in pairs]
          + [len(nb[u] & nb[v]) for u, v in pairs])
    q4 = ([sum(fibR[w] for w in nr[v]) for v in range(N)]
          + [sum(fibC[w] for w in nb[v]) for v in range(N)])
    q5 = ([sum(fibR[w] for w in nr[u] & nr[v]) for u, v in pairs]
          + [sum(fibC[w] for w in nb[u] & nb[v]) for u, v in pairs]
          + [sum(1 for t in range(par.n)
                 if rows[t] in nr[u] and cols[t] in nb[v])
             for u in range(N) for v in range(N)])

    def colset(v):
        return {cols[t] for t in range(par.n) if rows[t] in nr[v]}

    def rowset(b):
        return {rows[t] for t in range(par.n) if cols[t] in nb[b]}

    q6 = [len(colset(u) & colset(v)) for u, v in pairs]
    q7 = [len(rowset(u) & rowset(v)) for u, v in pairs]
    return [q1, q2, q3, q4, q5, q6, q7]


class TestConcentration:
    def test_report_matches_loop_oracle(self):
        for N, p, n, seed in [(5, 0.5, 22, 0), (7, 0.45, 30, 1),
                              (6, 0.8, 36, 2)]:
            inst = _instance(N=N, p=p, n=n, k=5, seed=seed)
            par = inst.params
            rep = concentration_report(inst.base_red, inst.base_blue,
                                       inst.placement, par)
            qs = _loop_concentration(inst)
            log2n = math.log(n) ** 2
            log3n = math.log(n) ** 3
            centers = {1: log2n, 2: p * N, 4: p * n}
            caps = {3: par.C * math.log(n), 5: par.C * log3n,
                    6: par.C * log3n, 7: par.C * log3n}
            for idx in range(1, 8):
                chk = rep.check(idx)
                vals = qs[idx - 1]
                assert chk.n_checked == len(vals)
                if idx in centers:
                    c = centers[idx]
                    tol = par.eps2 * c
                    devs = [abs(v - c) for v in vals]
                    assert chk.bound == pytest.approx(tol)
                    assert chk.worst == pytest.approx(max(devs))
                    assert chk.n_violations == sum(d > tol for d in devs)
                else:
                    cap = caps[idx]
                    assert chk.bound == pytest.approx(cap)
                    assert chk.worst == pytest.approx(max(vals))
                    assert chk.n_violations == sum(v > cap for v in vals)

    def test_empty_bases(self):
        # with p = 0 every degree-flavored quantity is exactly zero and the
        # checks 2..7 pass with zero-width windows; fibers are still reported
        inst = _instance(N=6, p=0.0, n=30, k=5, seed=0)
        rep = concentration_report(inst.base_red, inst.base_blue,
                                   inst.placement, inst.params)
        for idx in range(2, 8):
            chk = rep.check(idx)
            assert chk.worst == 0.0
            assert chk.passed, idx
        fib = rep.check(1)
        assert fib.n_checked == 12
        assert fib.bound == pytest.approx(inst.params.eps2 * math.log(30) ** 2)

    def test_full_grid_fibers_exact(self):
        # n = N^2 forces every fiber to size N exactly
        inst = _instance(N=5, p=0.3, n=25, k=5, seed=3)
        rep = concentration_report(inst.base_red, inst.base_blue,
                                   inst.placement, inst.params)
        fib = rep.check(1)
        assert fib.worst == pytest.approx(abs(5 - math.log(25) ** 2))
        assert fib.n_checked == 10

    def test_override_eps2_and_C(self):
        inst = _instance(N=5, p=0.5, n=20, k=5, seed=1)
        par = inst.params
        rep = concentration_report(inst.base_red, inst.base_blue,
                                   inst.placement, par, eps2=0.5, C=100.0)
        assert rep.eps2 == 0.5 and rep.C == 100.0
        assert rep.check(1).bound == pytest.approx(0.5 * math.log(20) ** 2)
        assert rep.check(3).bound == pytest.approx(100.0 * math.log(20))
        # a huge cap makes every cap check pass
        for idx in (3, 5, 6, 7):
            assert rep.check(idx).passed
        dflt = concentration_report(inst.base_red, inst.base_blue,
                                    inst.placement, par)
        assert dflt.eps2 == par.eps2 and dflt.C == par.C

    def test_report_accessors(self):
        inst = _instance(N=4, p=0.5, n=12, k=4, seed=0)
        rep = concentration_report(inst.base_red, inst.base_blue,
                                   inst.placement, inst.params)
        assert [c.index for c in rep.checks] == list(range(1, 8))
        with pytest.raises(KeyError):
            rep.check(8)
        assert rep.all_passed == all(c.passed for c in rep.checks)
        d = rep.to_dict()
        assert len(d["checks"]) == 7
        assert {"index", "name", "bound", "worst", "n_checked",
                "n_violations", "passed"} <= set(d["checks"][0])


# ---------------------------------------------------------------------------
# pair budget


class TestPairBudget:
    def test_choose2_values(self):
        for x in range(12):
            assert choose2(x) == math.comb(x, 2)
        assert choose2(0.5) == 0.0
        assert choose2(-3.0) == 0.0
        assert choose2(1.0) == 0.0
        assert choose2(2.5) == pytest.approx(2.5 * 1.5 / 2)
        arr = choose2(np.array([0.0, 1.0, 3.0]))
        assert isinstance(arr, np.ndarray)
        assert arr.tolist() == [0.0, 0.0, 3.0]
        assert isinstance(choose2(4), float)

    def test_f_reference_agreement(self):
        par = derive_params(10_000)
        rng = np.random.default_rng(123)
        k = par.k
        for _ in range(200):
            lr = float(rng.integers(0, k + 1))
            lb = float(rng.integers(0, k + 1))
            if rng.random() < 0.5:
                lr += 0.5
            got = f_function(lr, lb, par)
            want = f_reference(lr, lb, k, par.p * par.n)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-9)

    def test_f_known_values(self):
        par = derive_params(10_000)
        assert par.k == 334
        assert f_function(334, 334, par) == pytest.approx(111222.0)
        assert f_function(334, 334, par) == 2 * math.comb(334, 2)
        # a fully concentrated candidate is impossible: negative budget
        zero = f_function(0, 0, par)
        assert zero < 0
        assert zero == pytest.approx(f_reference(0, 0, 334, par.p * par.n))

    def test_f_symmetric(self):
        par = derive_params(10_000)
        grid = np.linspace(0, par.k, 21)
        for a in grid:
            for b in grid:
                assert f_function(a, b, par) == pytest.approx(
                    f_function(b, a, par), abs=1e-9)

    def test_f_monotone(self):
        # non-decreasing in each argument: the gain term grows and the
        # penalty min() only shrinks as l increases
        par = derive_params(10_000)
        ls = np.linspace(1.0, par.k, 80)
        for fixed in (float(par.k), par.p * par.n, 10.0):
            vals = [f_function(l, fixed, par) for l in ls]
            assert all(b - a >= -1e-7 for a, b in zip(vals, vals[1:]))

    def test_f_vectorized(self):
        par = derive_params(10_000)
        out = f_function(np.array([0.0, 100.0, 334.0]), 334.0, par)
        assert isinstance(out, np.ndarray) and out.shape == (3,)
        assert out[2] == pytest.approx(111222.0)


# ---------------------------------------------------------------------------
# k-set sampling


class TestSampleKSets:
    def test_labels_and_validity(self):
        inst = _instance(N=8, p=0.4, n=40, k=6, seed=0)
        sets = sample_k_sets(inst, n_random=3, seed=1)
        labels = [lab for lab, _ in sets]
        assert labels[:3] == ["random_0", "random_1", "random_2"]
        assert labels[3:9] == ["rows_to_k", "top1_row", "top2_rows",
                               "cols_to_k", "top1_col", "top2_cols"]
        assert labels[9:] == [f"neighborhood_{i}" for i in range(4)]
        for lab, I in sets:
            assert I.shape == (6,)
            assert np.unique(I).size == 6
            assert I.min() >= 0 and I.max() < 40
            assert (np.sort(I) == I).all()
            classify_sets(I, inst)  # accepted as a k-set

    def test_deterministic(self):
        inst = _instance(N=8, p=0.4, n=40, k=6, seed=0)
        a = sample_k_sets(inst, seed=7)
        b = sample_k_sets(inst, seed=7)
        assert [lab for lab, _ in a] == [lab for lab, _ in b]
        for (_, x), (_, y) in zip(a, b):
            assert (x == y).all()
        c = sample_k_sets(inst, seed=8)
        assert any((x != y).any() for (_, x), (_, y) in zip(a, c))

    def test_random_only(self):
        inst = _instance(N=8, p=0.4, n=40, k=6, seed=0)
        sets = sample_k_sets(inst, n_random=5, seed=0, adversarial=False)
        assert [lab for lab, _ in sets] == [f"random_{i}" for i in range(5)]

    def test_fiber_heavy_sets_concentrate(self):
        # the top1_row stress set should use as few rows as the fibers allow
        inst = _instance(N=8, p=0.4, n=64, k=6, seed=2)
        sets = dict(sample_k_sets(inst, n_random=0, seed=3))
        rows = inst.placement.rows[sets["top1_row"]]
        # 64 = 8^2 placed on an 8x8 grid: every fiber has 8 >= k members
        assert np.unique(rows).size == 1
        cols = inst.placement.cols[sets["top1_col"]]
        assert np.unique(cols).size == 1
