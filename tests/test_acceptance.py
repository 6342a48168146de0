"""Acceptance gate: ten property and trend criteria, one line of output each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Every criterion computes its verdict first, prints it, then
asserts, so failing criteria still report their measurements.

Criterion 6 (concentration windows at n = 10^4) is known to fail for the
degree-flavored bounds: pN is about 1.8 at this scale, so integer degrees
cannot sit inside a +-20% window around it.  The check is implemented
faithfully and left red rather than widened; its message reports the exact
binomial expectation of the bound-(2) rate next to the observed one.  See
the README.

Triangle counting policy: the literal triple-loop oracle where it is
instant (n <= 120), the dense cubic matrix-count oracle (equally
exhaustive, C speed) for larger graphs of instances with N <= 40, the
package's packed-bitset counter above that.
"""

import math
import time
from collections import Counter
from itertools import combinations

import numpy as np

import trioverlay.cli as cli
from trioverlay.analysis import (classify_sets, concentration_report,
                                 edges_are_open_plus, f_function,
                                 sample_k_sets)
from trioverlay.baselines import edge_deletion_baseline, triangle_free_process
from trioverlay.construction import (BaseGraph, apply_deletion_rule, build,
                                     conormal_product)
from trioverlay.graphview import SimpleGraphView, count_triangles
from trioverlay.hypergraph import (TripleSystem, extract_link, hyper_product,
                                   inject_hyper, s4_reduction,
                                   sample_base_3graphs, verify_s4_free)
from trioverlay.independence import (independence_exact, independence_greedy,
                                     is_independent_set)
from trioverlay.params import derive_params, explicit_params, feasible_params
from trioverlay.serialize import (graph_record, instances_equal,
                                  read_instance, triple_record,
                                  write_instance)

from oracles import (LinkIndex, alpha_bruteforce, closed_pairs_bruteforce,
                     deletion_bruteforce, f_reference, flags_of_product,
                     star_free_bruteforce, triangles_bruteforce,
                     triangles_dense)


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" - {detail}" if detail else ""
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{tail}")


def _triangles(g: SimpleGraphView, N: int) -> int:
    if N > 40:
        return count_triangles(g)
    edges = g.edge_array().tolist()
    if g.n <= 120:
        return triangles_bruteforce(g.n, edges)
    return triangles_dense(g.n, edges)


def _tri_both(inst) -> tuple[int, int]:
    """(triangles in G, triangles in the cell graph G2)."""
    N = inst.product.N
    return _triangles(inst.graph, N), _triangles(inst.product.cell_graph(), N)


def _binomial_mass_outside(m: int, p: float, center: float, tol: float) -> float:
    """P(|X - center| > tol) for X ~ Bin(m, p), summed exactly."""
    inside = sum(math.comb(m, d) * p ** d * (1 - p) ** (m - d)
                 for d in range(m + 1) if abs(d - center) <= tol)
    return 1.0 - inside


# summaries of twenty derived n = 10^4 builds, shared by criteria 6 and 7;
# built lazily so the cost lands inside the first test that needs it
_BIG: dict = {}


def _big_entries():
    if not _BIG:
        par = derive_params(10_000)
        entries = []
        for seed in range(20):
            inst = build(par, seed)
            entries.append({
                "seed": seed,
                "m": inst.graph.m,
                "stats": dict(inst.stats),
                "conc": concentration_report(inst.base_red, inst.base_blue,
                                             inst.placement, par,
                                             eps2=0.2, C=3 * math.sqrt(20)),
            })
        _BIG["par"] = par
        _BIG["entries"] = entries
    return _BIG["par"], _BIG["entries"]


# ---------------------------------------------------------------------------


def test_criterion_01_triangle_free():
    t0 = time.time()
    bad = []
    count = 0

    def check(inst):
        nonlocal count
        count += 1
        tg, tc = _tri_both(inst)
        if tg or tc:
            bad.append((inst.product.N, inst.params.p, inst.seed, tg, tc))

    # 152 explicit tiny instances
    for N in range(2, 21):
        n = N * N if N <= 10 else 5 * N
        for p in (0.0, 0.3, 0.7, 1.0):
            par = explicit_params(n=n, N=N, p=p, k=3)
            for seed in (0, 1):
                check(build(par, seed))
    # 40 clamped-derived at n = 10^3 (N = 32: dense cubic count)
    park = feasible_params(1000)
    for seed in range(40):
        check(build(park, seed))
    # 8 derived at n = 10^4 (N = 118: bitset count)
    parb = derive_params(10_000)
    for seed in range(8):
        check(build(parb, seed))

    elapsed = time.time() - t0
    ok = not bad and count == 200 and elapsed < 300
    _line(1, "triangle-freeness (placed + cell stage)", ok,
          f"{count} instances, {len(bad)} with triangles, {elapsed:.0f}s")
    assert count == 200
    assert not bad, bad[:5]
    assert elapsed < 300


def test_criterion_02_s4_free():
    t0 = time.time()
    seeds_by_N = {3: 8, 4: 8, 5: 8, 6: 4, 7: 3, 8: 3}
    bad = []
    count = 0
    for N, n_seeds in seeds_by_N.items():
        for p in (0.2, 0.5, 1.0):
            for seed in range(n_seeds):
                par = explicit_params(n=N * N, N=N, p=p, k=3)
                hr, hb = sample_base_3graphs(par, seed)
                h2 = inject_hyper(hyper_product(hr, hb), par, seed)
                out = s4_reduction(h2)
                count += 1
                if not verify_s4_free(out) or not star_free_bruteforce(out):
                    bad.append((N, p, seed))
    elapsed = time.time() - t0
    ok = not bad and count >= 100 and elapsed < 300
    _line(2, "S4-freeness (link verifier + 4-subset scan)", ok,
          f"{count} instances, {len(bad)} with stars, {elapsed:.0f}s")
    assert count >= 100
    assert not bad, bad
    assert elapsed < 300


def test_criterion_03_oracle_equivalence():
    grid = [(N, p, s) for N in range(3, 13)
            for s, p in enumerate((0.15, 0.4, 0.7, 1.0))]
    grid += [(14, 0.3, 0), (14, 0.7, 1), (16, 0.3, 0), (16, 0.7, 1),
             (18, 0.4, 0), (18, 0.8, 1), (20, 0.0, 0), (20, 0.35, 1),
             (20, 0.6, 2), (20, 1.0, 3)]
    assert len(grid) == 50

    mism_del, mism_cls, mism_link = [], [], []
    for idx, (N, p, seed) in enumerate(grid):
        # (i) deletion rule vs definition-level box unions
        rng = np.random.default_rng(1000 + idx)
        er = [(u, v) for u, v in combinations(range(N), 2)
              if rng.random() < p]
        eb = [(u, v) for u, v in combinations(range(N), 2)
              if rng.random() < p]
        gr = BaseGraph.from_edges("red", N, er)
        gb = BaseGraph.from_edges("blue", N, eb)
        g2 = apply_deletion_rule(conormal_product(gr, gb), gr, gb)
        want_red, want_blue = deletion_bruteforce(er, eb, N)
        got_red, got_blue = flags_of_product(g2, N)
        if got_red != want_red or got_blue != want_blue:
            mism_del.append((N, p, seed))

        # (ii) closed/open counters vs the pair-set oracle
        n = max(4, min(N * N, 3 * N))
        k = min(5, n)
        inst = build(explicit_params(n=n, N=N, p=p, k=k), seed=idx)
        for j in range(2):
            I = np.sort(rng.choice(n, size=k, replace=False))
            cl = classify_sets(I, inst)
            rows = inst.placement.rows[I].tolist()
            cols = inst.placement.cols[I].tolist()
            ber = [tuple(e) for e in
                   np.argwhere(np.triu(inst.base_red.adj, 1))]
            beb = [tuple(e) for e in
                   np.argwhere(np.triu(inst.base_blue.adj, 1))]
            cov = closed_pairs_bruteforce(rows, cols, ber, beb, N, plus=False)
            covp = closed_pairs_bruteforce(rows, cols, ber, beb, N, plus=True)
            total = k * (k - 1) // 2
            if (cl.closed, cl.open) != (len(cov), total - len(cov)) or \
               (cl.closed_plus, cl.open_plus) != (len(covp), total - len(covp)):
                mism_cls.append((N, p, idx, j))

        # (iii) incremental links vs recomputation
        pool = list(combinations(range(10), 3))
        picks = [pool[i] for i in rng.choice(len(pool), 24, replace=False)]
        lidx = LinkIndex(10)
        for t in picks:
            lidx.add(t)

        def links_differ(live):
            h = TripleSystem.from_arrays(10, live, np.ones(len(live)))
            return any(lidx.link_edges(v)
                       != set(map(tuple, extract_link(h, v)[0].tolist()))
                       for v in range(10))

        if links_differ(picks):
            mism_link.append(("add", idx))
        for t in picks[:12]:
            lidx.remove(t)
        if links_differ(picks[12:]):
            mism_link.append(("remove", idx))

    ok = not (mism_del or mism_cls or mism_link)
    _line(3, "oracle equivalence (deletion, counters, links)", ok,
          f"50 instances; mismatches: deletion {len(mism_del)}, "
          f"classify {len(mism_cls)}, links {len(mism_link)}")
    assert not mism_del, mism_del
    assert not mism_cls, mism_cls
    assert not mism_link, mism_link


def test_criterion_04_counting_identities():
    shapes = [(N, p) for N in (6, 8, 10, 12, 14)
              for p in (0.2, 0.5, 0.8, 1.0)]
    assert len(shapes) == 20
    bad = []
    sets_seen = 0
    for seed, (N, p) in enumerate(shapes):
        inst = build(explicit_params(n=N * N, N=N, p=p, k=10), seed=seed)
        ber = [tuple(e) for e in np.argwhere(np.triu(inst.base_red.adj, 1))]
        beb = [tuple(e) for e in np.argwhere(np.triu(inst.base_blue.adj, 1))]
        for label, I in sample_k_sets(inst, n_random=100, seed=seed):
            sets_seen += 1
            cl = classify_sets(I, inst)
            total = cl.total_pairs
            rows = inst.placement.rows[I].tolist()
            cols = inst.placement.cols[I].tolist()
            cov = closed_pairs_bruteforce(rows, cols, ber, beb, N, plus=False)
            covp = closed_pairs_bruteforce(rows, cols, ber, beb, N, plus=True)
            checks = (
                cl.closed + cl.open == total,
                cl.closed_plus + cl.open_plus == total,
                covp <= cov,                      # C+ is a subset of C
                cl.closed == len(cov),
                cl.closed_plus == len(covp),
                edges_are_open_plus(inst, I),
            )
            if not all(checks):
                bad.append((N, p, label, checks))
    ok = not bad and sets_seen == 20 * 110
    _line(4, "pair-counting identities + open-plus edges", ok,
          f"{sets_seen} k-sets over 20 instances, {len(bad)} violations")
    assert sets_seen == 20 * 110
    assert not bad, bad[:5]


def test_criterion_05_independence_solver():
    bad_exact, bad_greedy, bad_cert = [], [], []
    ps = (0.1, 0.3, 0.5, 0.7, 0.9)
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        n = int(rng.integers(6, 19))
        p = ps[trial % len(ps)]
        edges = [(u, v) for u, v in combinations(range(n), 2)
                 if rng.random() < p]
        g = SimpleGraphView.from_edges(n, edges)
        res = independence_exact(g)
        want = alpha_bruteforce(n, edges)
        if res.value != want or not res.optimal:
            bad_exact.append((n, p, res.value, want))
        if not is_independent_set(g, res.certificate) or \
           len(res.certificate) != res.value:
            bad_cert.append(("exact", n, p))

    # greedy >= max degree on triangle-free graphs of all three flavors
    tf = [edge_deletion_baseline(60, 0.25, seed=s).graph for s in range(10)]
    tf += [triangle_free_process(40, seed=s).graph for s in range(5)]
    tf += [build(explicit_params(n=49, N=7, p=0.5, k=5), seed=s).graph
           for s in range(5)]
    for i, g in enumerate(tf):
        res = independence_greedy(g, restarts=2, seed=0)
        if res.value < g.max_degree():
            bad_greedy.append((i, res.value, int(g.max_degree())))
        if not is_independent_set(g, res.certificate):
            bad_cert.append(("greedy", i))

    ok = not (bad_exact or bad_greedy or bad_cert)
    _line(5, "independence solvers (exact vs 2^n, greedy >= max degree)", ok,
          f"100 exact trials, {len(tf)} greedy graphs; "
          f"bad: {len(bad_exact)}/{len(bad_greedy)}/{len(bad_cert)}")
    assert not bad_exact, bad_exact[:5]
    assert not bad_greedy, bad_greedy
    assert not bad_cert, bad_cert


def test_criterion_06_concentration_trend():
    t0 = time.time()
    par, entries = _big_entries()
    viol: Counter = Counter()
    checked: Counter = Counter()
    for entry in entries:
        for c in entry["conc"].checks:
            viol[c.index] += c.n_violations
            checked[c.index] += c.n_checked
    rates = {i: viol[i] / checked[i] for i in range(1, 8)}
    elapsed = time.time() - t0
    ok = all(rates[i] <= 0.10 for i in range(2, 8)) and elapsed < 900
    # each base degree is exactly Bin(N - 1, p), so the bound-(2) rate has
    # a closed-form expectation to set beside the observed one
    pN = par.p * par.N
    eps2 = entries[0]["conc"].eps2
    expected2 = _binomial_mass_outside(par.N - 1, par.p, pN, eps2 * pN)
    why = (f"pN = {pN:.2f}; exact Bin({par.N - 1}, {par.p:.5f}) mass outside "
           f"the +-{eps2:.0%} bound-(2) window is {expected2:.1%}")
    detail = ", ".join(f"({i}) {rates[i]:.1%}" for i in range(2, 8))
    _line(6, "concentration violation rates <= 10% (bounds 2-7)", ok,
          f"{detail}; {why}; (1) fiber windows {rates[1]:.1%} reported "
          f"unasserted; {elapsed:.0f}s")
    for i in range(2, 8):
        assert rates[i] <= 0.10, (
            f"bound ({i}) violation rate {rates[i]:.1%} exceeds 10% over "
            f"{checked[i]} checks on 20 seeds; {why}")
    assert elapsed < 900


def test_criterion_07_density_trend():
    par, entries = _big_entries()
    pairs = par.n * (par.n - 1) / 2
    densities = [e["m"] / pairs for e in entries]
    mean = sum(densities) / len(densities)
    losses = [1.0 - e["stats"]["cell_edges_deleted_stage"]
              / e["stats"]["cell_edges_product"] for e in entries]
    ok = 1.5 * par.p <= mean <= 2.2 * par.p
    _line(7, "density in [1.5p, 2.2p] at n = 10^4", ok,
          f"mean e/C(n,2) = {mean:.6f} = {mean / par.p:.3f}p over 20 seeds; "
          f"mean cell-edge deletion loss {sum(losses) / len(losses):.1%}")
    assert 1.5 * par.p <= mean <= 2.2 * par.p


def test_criterion_08_alpha_trend(tmp_path, capsys):
    out = str(tmp_path / "acc_sweep.csv")
    code = cli.main(["sweep", "--n", "2000,5000,10000", "--seeds", "10",
                     "--constructions", "overlay,edge-deletion",
                     "--out", out])
    capsys.readouterr()  # the per-row progress lines are not part of the gate
    rows = []
    with open(out) as fh:
        lines = fh.read().splitlines()
    for ln in lines[2:]:
        parts = ln.split(",")
        rows.append({"construction": parts[0], "n": int(parts[1]),
                     "max_degree": int(parts[4]),
                     "ratio": float(parts[7])})
    finite = all(math.isfinite(r["ratio"]) and r["ratio"] > 0 for r in rows)
    overlay = [r for r in rows if r["construction"] == "overlay"]
    dratio = [r["max_degree"] / math.sqrt(r["n"] * math.log(r["n"]))
              for r in overlay]
    mean_d = sum(dratio) / len(dratio)
    by_n = {}
    for r in rows:
        by_n.setdefault((r["construction"], r["n"]), []).append(r["ratio"])
    summary = "; ".join(
        f"{c}@{n}: {sum(v) / len(v):.2f}" for (c, n), v in sorted(by_n.items()))
    ok = code == 0 and len(rows) == 60 and finite and mean_d > 0.5
    _line(8, "alpha ratio sweep (overlay vs edge-deletion)", ok,
          f"mean ratios {summary}; overlay max-degree ratio {mean_d:.2f}")
    assert code == 0 and len(rows) == 60
    assert finite
    assert mean_d > 0.5


def test_criterion_09_f_function():
    par = derive_params(10_000)
    k, pn = par.k, par.p * par.n
    grid = np.linspace(0.0, float(k), 50)
    worst_rel = 0.0
    asym = 0
    for a in grid:
        for b in grid:
            fab = f_function(a, b, par)
            if fab != f_function(b, a, par):
                asym += 1
            ref = f_reference(a, b, k, pn)
            scale = max(1.0, abs(ref))
            worst_rel = max(worst_rel, abs(fab - ref) / scale)
    exact_top = f_function(k, k, par) == 2 * math.comb(k, 2)
    ok = asym == 0 and exact_top and worst_rel <= 1e-12
    _line(9, "pair budget f (symmetry, top value, reference match)", ok,
          f"50x50 grid, asymmetries {asym}, f(k,k) exact {exact_top}, "
          f"worst rel err {worst_rel:.2e}")
    assert asym == 0
    assert exact_top
    assert worst_rel <= 1e-12


def test_criterion_10_reproducibility(tmp_path):
    failures = []
    count = 0

    def roundtrip(rec, name, fmt):
        nonlocal count
        count += 1
        path = str(tmp_path / name)
        write_instance(rec, path, fmt=fmt)
        back = read_instance(path)
        if not instances_equal(rec, back):
            failures.append(("identity", name))
        path2 = str(tmp_path / ("re_" + name))
        write_instance(back, path2, fmt=fmt)
        if open(path, "rb").read() != open(path2, "rb").read():
            failures.append(("rewrite", name))

    # 34 graph instances (24 edge-list, 10 embedded JSON)
    i = 0
    for N in (4, 5, 6, 7, 8, 9):
        for p in (0.3, 0.7):
            for seed in (0, 1):
                rec = graph_record(build(
                    explicit_params(n=N * N, N=N, p=p, k=3), seed))
                roundtrip(rec, f"g{i}.edges", "edgelist")
                i += 1
    for j, (N, p) in enumerate([(5, 0.4), (5, 0.8), (6, 0.4), (6, 0.8),
                                (7, 0.4), (7, 0.8), (8, 0.4), (8, 0.8),
                                (9, 0.4), (9, 0.8)]):
        rec = graph_record(build(
            explicit_params(n=N * N, N=N, p=p, k=3), seed=2 + j))
        roundtrip(rec, f"gj{j}.json", "json")

    # 12 triple systems
    for j, (N, p, fmt) in enumerate(
            [(3, 0.4, "edgelist"), (3, 0.8, "edgelist"), (4, 0.4, "edgelist"),
             (4, 0.8, "edgelist"), (5, 0.4, "edgelist"), (5, 0.8, "edgelist"),
             (3, 0.6, "edgelist"), (4, 0.6, "edgelist"), (5, 0.6, "edgelist"),
             (5, 1.0, "edgelist"), (4, 0.5, "json"), (5, 0.5, "json")]):
        par = explicit_params(n=N * N, N=N, p=p, k=3)
        hr, hb = sample_base_3graphs(par, seed=j)
        h = s4_reduction(inject_hyper(hyper_product(hr, hb), par, seed=j))
        ext = "triples" if fmt == "edgelist" else "json"
        roundtrip(triple_record(h, params=par, seed=j), f"t{j}.{ext}", fmt)

    # 2 clamped-derived scales
    for n in (1000, 2000):
        roundtrip(graph_record(build(feasible_params(n), seed=0)),
                  f"c{n}.edges", "edgelist")

    # 2 double-build identity checks: same (params, seed), fresh runs
    pairs = [(derive_params(10_000), 0, "big.edges"),
             (explicit_params(n=36, N=6, p=0.5, k=4), 1, "small.edges")]
    for par, seed, name in pairs:
        count += 1
        p1, p2 = str(tmp_path / name), str(tmp_path / ("twin_" + name))
        write_instance(graph_record(build(par, seed)), p1, fmt="edgelist")
        write_instance(graph_record(build(par, seed)), p2, fmt="edgelist")
        same = (open(p1, "rb").read() == open(p2, "rb").read()
                and open(p1 + ".json", "rb").read()
                == open(p2 + ".json", "rb").read())
        if not same:
            failures.append(("double-build", name))

    ok = not failures and count == 50
    _line(10, "reproducibility (round-trips + bit-identical rebuilds)", ok,
          f"{count} instances, {len(failures)} failures")
    assert count == 50
    assert not failures, failures
