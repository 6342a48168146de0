"""Triple-system tests: product counts, star-freeness, link bookkeeping.

The four-pass reduction is checked two ways on every instance: the library's
per-link verifier and an exhaustive 4-subset scan from the oracle module.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from trioverlay import hypergraph
from trioverlay.hypergraph import (BLUE, RED, LinkIndex, TripleSystem,
                                   extract_link, hyper_product, inject_hyper,
                                   s4_reduction, sample_base_3graphs,
                                   verify_s4_free)
from trioverlay.params import Params, explicit_params

from oracles import (count_stars_bruteforce, hyper_product_loop,
                     inject_hyper_loop, s4_reduction_loop,
                     sample_base_3graphs_loop, star_free_bruteforce)


def _pipeline(N, p, seed):
    par = explicit_params(n=N * N, N=N, p=p, k=3)
    hr, hb = sample_base_3graphs(par, seed)
    h1 = hyper_product(hr, hb)
    h2 = inject_hyper(h1, par, seed)
    return par, hr, hb, h1, h2


# ---------------------------------------------------------------------------
# the container


class TestTripleSystem:
    def test_add_and_query(self):
        h = TripleSystem(order=6)
        h.add((3, 0, 5), RED)
        h.add((0, 3, 5), BLUE)  # same triple, any vertex order
        assert h.flags_of((5, 3, 0)) == (RED | BLUE)
        assert h.has_triple((0, 3, 5))
        assert not h.has_triple((0, 1, 2))
        assert h.edge_count() == 1
        h.add((1, 2, 4), RED)
        assert h.edges() == [(0, 3, 5), (1, 2, 4)]
        assert h.count_with(RED) == 2
        assert h.count_with(BLUE) == 1

    def test_rejects_bad_triples(self):
        h = TripleSystem(order=4)
        with pytest.raises(ValueError):
            h.add((0, 0, 1), RED)
        with pytest.raises(ValueError):
            h.add((0, 1, 4), RED)
        with pytest.raises(ValueError):
            h.add((-1, 0, 1), RED)
        with pytest.raises(ValueError):
            h.add((0, 1, 2), 0)
        with pytest.raises(ValueError):
            h.add((0, 1, 2), 4)

    def test_from_arrays_matches_add(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 7, size=(60, 3))
        rows = rows[(rows[:, 0] != rows[:, 1]) & (rows[:, 1] != rows[:, 2])
                    & (rows[:, 0] != rows[:, 2])]  # unsorted, some repeated
        flags = rng.integers(1, 4, size=len(rows))
        h = TripleSystem(order=7, kind="x")
        for t, f in zip(rows.tolist(), flags.tolist()):
            h.add(t, f)
        bulk = TripleSystem.from_arrays(7, rows, flags, kind="x")
        assert bulk.flags == h.flags and bulk.kind == "x"
        assert all(type(f) is int for f in bulk.flags.values())
        t, f = bulk.arrays()
        assert t.dtype == np.int64 and f.dtype == np.uint8
        assert dict(zip(map(tuple, t.tolist()), f.tolist())) == h.flags
        empty = TripleSystem.from_arrays(4, np.zeros((0, 3)), [])
        assert empty.flags == {} and empty.arrays()[0].shape == (0, 3)

    @pytest.mark.parametrize("rows, flags", [
        ([(0, 0, 1)], [RED]), ([(0, 1, 4)], [RED]), ([(-1, 0, 1)], [RED]),
        ([(0, 1, 2)], [0]), ([(0, 1, 2)], [4]), ([(0, 1, 2)], [RED, BLUE]),
    ], ids=["repeated", "beyond-order", "negative", "flag-0", "flag-4",
            "two-flags"])
    def test_from_arrays_rejects_what_add_rejects(self, rows, flags):
        with pytest.raises(ValueError):
            TripleSystem.from_arrays(4, rows, flags)

    def test_triple_key_uses_cells_when_placed(self):
        h = TripleSystem(order=3)
        h.add((0, 1, 2), RED)
        assert h.triple_key((2, 1, 0)) == (0, 1, 2)
        placed = TripleSystem(order=3, cells=np.array([[2, 0], [0, 1], [1, 1]]))
        # keys sort by cell coordinates, not vertex ids
        assert placed.triple_key((0, 1, 2)) == ((0, 1), (1, 1), (2, 0))


# ---------------------------------------------------------------------------
# base sampling and the product


class TestBaseSampling:
    def test_extremes(self):
        par = explicit_params(n=25, N=5, p=1.0, k=3)
        hr, hb = sample_base_3graphs(par, seed=0)
        assert hr.edge_count() == hb.edge_count() == math.comb(5, 3)
        assert all(f == RED for f in hr.flags.values())
        assert all(f == BLUE for f in hb.flags.values())
        par0 = explicit_params(n=25, N=5, p=0.0, k=3)
        hr0, hb0 = sample_base_3graphs(par0, seed=0)
        assert hr0.edge_count() == 0 and hb0.edge_count() == 0

    def test_deterministic_and_independent(self):
        par = explicit_params(n=64, N=8, p=0.5, k=3)
        hr1, hb1 = sample_base_3graphs(par, seed=9)
        hr2, hb2 = sample_base_3graphs(par, seed=9)
        assert hr1.flags == hr2.flags and hb1.flags == hb2.flags
        assert hr1.flags.keys() != hb1.flags.keys()  # different streams
        hr3, _ = sample_base_3graphs(par, seed=10)
        assert hr1.flags.keys() != hr3.flags.keys()

    def test_binomial_mean(self):
        par = explicit_params(n=100, N=10, p=0.3, k=3)
        total = math.comb(10, 3)
        counts = [sample_base_3graphs(par, seed=s)[0].edge_count()
                  for s in range(60)]
        mean = sum(counts) / len(counts)
        sigma = math.sqrt(total * 0.3 * 0.7)
        assert abs(mean - 0.3 * total) < 4 * sigma / math.sqrt(60)


class TestHyperProduct:
    def test_single_red_base_triple(self):
        # one red base triple on N = 3 spreads to the 6 row-col bijections
        hr = TripleSystem(order=3, kind="base-red")
        hr.add((0, 1, 2), RED)
        hb = TripleSystem(order=3, kind="base-blue")
        h1 = hyper_product(hr, hb)
        assert h1.edge_count() == 6
        assert h1.count_with(RED) == 6 and h1.count_with(BLUE) == 0
        for t in h1.edges():
            rows = sorted(c // 3 for c in t)
            cols = sorted(c % 3 for c in t)
            assert rows == [0, 1, 2] and cols == [0, 1, 2]
        # explicit membership: rows 0,1,2 against every column bijection
        from itertools import permutations
        want = {tuple(sorted(r * 3 + c for r, c in zip((0, 1, 2), pm)))
                for pm in permutations((0, 1, 2))}
        assert set(h1.edges()) == want

    def test_count_formulas(self):
        # each (base triple, coordinate combo, bijection) is a distinct triple
        for N, p, seed in [(5, 0.4, 0), (6, 0.3, 1)]:
            par = explicit_params(n=N * N, N=N, p=p, k=3)
            hr, hb = sample_base_3graphs(par, seed)
            h1 = hyper_product(hr, hb)
            r, b = hr.edge_count(), hb.edge_count()
            cN3 = math.comb(N, 3)
            assert h1.count_with(RED) == r * cN3 * 6
            assert h1.count_with(BLUE) == b * cN3 * 6
            dual = sum(1 for f in h1.flags.values() if f == (RED | BLUE))
            assert dual == r * b * 6
            assert h1.edge_count() == (r + b) * cN3 * 6 - dual

    def test_coordinates_distinct(self):
        par, _, _, h1, _ = _pipeline(N=5, p=0.5, seed=2)
        N = par.N
        for t in h1.edges():
            assert len({c // N for c in t}) == 3
            assert len({c % N for c in t}) == 3

    def test_cells_provenance(self):
        _, _, _, h1, _ = _pipeline(N=4, p=0.5, seed=0)
        for v in range(16):
            assert tuple(h1.cells[v]) == (v // 4, v % 4)

    def test_guards(self):
        hr = TripleSystem(order=4)
        hb = TripleSystem(order=5)
        with pytest.raises(ValueError):
            hyper_product(hr, hb)
        big_r = TripleSystem(order=100)
        big_b = TripleSystem(order=100)
        for t in list(combinations(range(100), 3))[:6]:
            big_r.add(t, RED)
        with pytest.raises(ValueError, match="too large"):
            hyper_product(big_r, big_b)


class TestInjectHyper:
    def test_full_grid_is_relabeling(self):
        par, _, _, h1, h2 = _pipeline(N=4, p=0.6, seed=1)
        assert h2.order == 16
        assert h2.edge_count() == h1.edge_count()
        N = par.N
        for t, f in h2.flags.items():
            cell_t = tuple(sorted(int(h2.cells[v, 0]) * N + int(h2.cells[v, 1])
                                  for v in t))
            assert h1.flags[cell_t] == f

    def test_deterministic(self):
        par, _, _, h1, _ = _pipeline(N=5, p=0.4, seed=3)
        a = inject_hyper(h1, par, seed=3)
        b = inject_hyper(h1, par, seed=3)
        assert a.flags == b.flags and (a.cells == b.cells).all()

    def test_guards(self):
        par, _, _, h1, _ = _pipeline(N=5, p=0.4, seed=0)
        small = TripleSystem(order=9)
        with pytest.raises(ValueError):
            inject_hyper(small, par, seed=0)
        bad = dict(par.to_dict())
        bad["n"] = 30  # 30 > 25 cells: passes re-validation, fails injection
        par_bad = Params.from_dict(bad)
        with pytest.raises(ValueError, match="injection"):
            inject_hyper(h1, par_bad, seed=0)


# ---------------------------------------------------------------------------
# link index


def _system_from(triples, order, flag=RED):
    h = TripleSystem(order=order)
    for t in triples:
        h.add(t, flag)
    return h


class TestLinkIndex:
    def test_matches_extract_link(self):
        rng = np.random.default_rng(0)
        n = 12
        pool = list(combinations(range(n), 3))
        picks = [pool[i] for i in rng.choice(len(pool), size=40, replace=False)]
        idx = LinkIndex(n)
        live = []
        for t in picks:
            idx.add(t)
            live.append(t)
        h = _system_from(live, n)
        for v in range(n):
            assert idx.link_edges(v) == set(extract_link(h, v).flags)
        # now remove every other triple and re-compare
        for t in live[::2]:
            idx.remove(t)
        h2 = _system_from(live[1::2], n)
        for v in range(n):
            assert idx.link_edges(v) == set(extract_link(h2, v).flags)

    def test_creates_star_is_exact(self):
        # greedy acceptance with the index never admits a star, and every
        # rejection is a genuine star (checked by the 4-subset oracle)
        rng = np.random.default_rng(5)
        n = 9
        pool = list(combinations(range(n), 3))
        order = rng.permutation(len(pool))
        idx = LinkIndex(n)
        kept = []
        rejected = []
        for i in order[:60]:
            t = pool[i]
            if idx.creates_star(t):
                rejected.append(t)
            else:
                idx.add(t)
                kept.append(t)
        assert rejected, "draw produced no rejections; loosen the sample"
        assert star_free_bruteforce(_system_from(kept, n))
        for t in rejected:
            with_t = _system_from(kept + [t], n)
            assert count_stars_bruteforce(with_t) > 0

    def test_link_triangles(self):
        idx = LinkIndex(8)
        for t in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 4, 5), (1, 2, 3)]:
            idx.add(t)
        # link of 0: edges 12,13,23,45 -> one triangle
        assert idx.link_triangles(0) == [(1, 2, 3)]
        assert idx.link_triangles(4) == []
        edges0 = idx.link_edges(0)
        assert edges0 == {(1, 2), (1, 3), (2, 3), (4, 5)}


# ---------------------------------------------------------------------------
# the reduction


class TestS4Reduction:
    def test_pass_c_two_blue_drop_red(self):
        h = TripleSystem(order=4)
        h.add((0, 1, 2), BLUE)
        h.add((0, 1, 3), BLUE)
        h.add((0, 2, 3), RED)
        out = s4_reduction(h)
        assert out.flags == {(0, 1, 2): BLUE, (0, 1, 3): BLUE}
        assert verify_s4_free(out) and star_free_bruteforce(out)

    def test_pass_d_two_red_drop_blue(self):
        h = TripleSystem(order=4)
        h.add((0, 1, 2), RED)
        h.add((0, 1, 3), RED)
        h.add((0, 2, 3), BLUE)
        out = s4_reduction(h)
        assert out.flags == {(0, 1, 2): RED, (0, 1, 3): RED}

    def test_dual_third_edge(self):
        # the blue pass already refuses the third blue flag, then pass (c)
        # strips the red flag, so the star edge disappears entirely
        h = TripleSystem(order=4)
        h.add((0, 1, 2), BLUE)
        h.add((0, 1, 3), BLUE)
        h.add((0, 2, 3), RED | BLUE)
        out = s4_reduction(h)
        assert out.flags == {(0, 1, 2): BLUE, (0, 1, 3): BLUE}

    def test_chained_stars_skip_dead_copies(self):
        # two star copies at center 0 share the red edge; removing it once
        # destroys both, and the second copy must be skipped, not KeyError
        h = TripleSystem(order=5)
        h.add((0, 1, 2), BLUE)
        h.add((0, 1, 3), BLUE)
        h.add((0, 2, 3), RED)
        h.add((0, 2, 4), BLUE)
        h.add((0, 3, 4), BLUE)
        out = s4_reduction(h)
        assert (0, 2, 3) not in out.flags
        assert out.edge_count() == 4
        assert star_free_bruteforce(out)

    def test_monotone_and_flag_subset(self):
        for N, p, seed in [(4, 0.5, 0), (5, 0.3, 1), (5, 1.0, 2)]:
            _, _, _, _, h2 = _pipeline(N=N, p=p, seed=seed)
            out = s4_reduction(h2)
            for t, f in out.flags.items():
                assert f & ~h2.flags_of(t) == 0  # never invents flags
            assert out.edge_count() <= h2.edge_count()
            assert out.kind == "reduced"
            assert out.cells is h2.cells

    def test_star_free_both_verifiers(self):
        # the acceptance-grade property on a sweep of shapes and densities
        for N in (3, 4, 5):
            for p in (0.2, 0.5, 1.0):
                for seed in (0, 1):
                    _, _, _, _, h2 = _pipeline(N=N, p=p, seed=seed)
                    out = s4_reduction(h2)
                    assert verify_s4_free(out)
                    assert star_free_bruteforce(out)

    def test_idempotent(self):
        _, _, _, _, h2 = _pipeline(N=5, p=0.6, seed=4)
        once = s4_reduction(h2)
        twice = s4_reduction(once)
        assert once.flags == twice.flags

    def test_empty(self):
        out = s4_reduction(TripleSystem(order=7))
        assert out.edge_count() == 0
        assert verify_s4_free(out)

    def test_link_identity(self):
        # every triple contributes one link edge at each of its vertices
        _, _, _, _, h2 = _pipeline(N=5, p=0.5, seed=6)
        for h in (h2, s4_reduction(h2)):
            total = sum(extract_link(h, v).edge_count()
                        for v in range(h.order))
            assert total == 3 * h.edge_count()


# ---------------------------------------------------------------------------
# links and the verifier


class TestLinks:
    def test_extract_link_flags(self):
        h = TripleSystem(order=6)
        h.add((0, 1, 2), RED)
        h.add((0, 1, 3), BLUE)
        h.add((0, 2, 3), RED | BLUE)
        h.add((1, 2, 3), RED)  # not through 0
        link = extract_link(h, 0)
        assert link.flags == {(1, 2): RED, (1, 3): BLUE, (2, 3): RED | BLUE}
        assert link.center == 0
        gv = link.graph_view()
        assert gv.m == 3
        with pytest.raises(ValueError):
            extract_link(h, 6)

    def test_verify_s4_free(self):
        star = TripleSystem(order=5)
        star.add((0, 1, 2), RED)
        star.add((0, 1, 3), BLUE)
        star.add((0, 2, 3), RED)
        assert not verify_s4_free(star)
        assert not star_free_bruteforce(star)
        ok = TripleSystem(order=5)
        ok.add((0, 1, 2), RED)
        ok.add((0, 1, 3), BLUE)
        ok.add((1, 2, 4), RED)
        assert verify_s4_free(ok)
        assert star_free_bruteforce(ok)


# ---------------------------------------------------------------------------
# the array pipeline against the per-triple loops it replaced

# both desk shapes x 30 seeds, then N = 3..8 at n = N^2 x p x 3 seeds
PIPELINE_CASES = ([(7, 40, 0.3, s) for s in range(30)]
                  + [(8, 50, 0.3, s) for s in range(30)]
                  + [(N, N * N, p, s) for N in range(3, 9)
                     for p in (0.2, 0.5, 1.0) for s in range(3)])


def _same_system(got, want):
    assert got.flags == want.flags
    assert got.kind == want.kind and got.order == want.order
    assert (got.cells is None) == (want.cells is None)
    if want.cells is not None:
        assert got.cells.dtype == want.cells.dtype
        assert np.array_equal(got.cells, want.cells)
    assert got.edge_count() == want.edge_count()
    for flag in (RED, BLUE, RED | BLUE):
        assert got.count_with(flag) == want.count_with(flag)


def _shuffled(h, rng, cells="keep"):
    """h with its triples inserted in random order; cells replaced by a
    random placement on distinct cells, dropped (None) or kept."""
    items = list(h.flags.items())
    out = TripleSystem(order=h.order, kind=h.kind, cells=h.cells)
    if cells == "random":
        grid = max(2, h.order)
        ids = rng.choice(grid * grid, size=h.order, replace=False)
        out.cells = np.column_stack([ids // grid, ids % grid])
    elif cells is None:
        out.cells = None
    for i in rng.permutation(len(items)):
        t, f = items[i]
        out.add(t[::-1] if i % 2 else t, f)
    return out


STAR_SHAPES = {  # the pass (c) and (d) shapes of TestS4Reduction
    "pass-c": [((0, 1, 2), BLUE), ((0, 1, 3), BLUE), ((0, 2, 3), RED)],
    "pass-d": [((0, 1, 2), RED), ((0, 1, 3), RED), ((0, 2, 3), BLUE)],
    "dual-third": [((0, 1, 2), BLUE), ((0, 1, 3), BLUE),
                   ((0, 2, 3), RED | BLUE)],
    "chained": [((0, 1, 2), BLUE), ((0, 1, 3), BLUE), ((0, 2, 3), RED),
                ((0, 2, 4), BLUE), ((0, 3, 4), BLUE)],
}


class TestMatchesLoops:
    @pytest.mark.parametrize("N, n, p, seed", PIPELINE_CASES)
    def test_pipeline(self, N, n, p, seed):
        par = explicit_params(n=n, N=N, p=p, k=3)
        hr, hb = sample_base_3graphs(par, seed)
        want_r, want_b = sample_base_3graphs_loop(par, seed)
        _same_system(hr, want_r)
        _same_system(hb, want_b)
        h1, want1 = hyper_product(hr, hb), hyper_product_loop(want_r, want_b)
        _same_system(h1, want1)
        h2, want2 = inject_hyper(h1, par, seed), inject_hyper_loop(want1, par, seed)
        _same_system(h2, want2)
        h3, want3 = s4_reduction(h2), s4_reduction_loop(want2)
        _same_system(h3, want3)
        assert h3.cells is h2.cells
        assert verify_s4_free(h3)

    @pytest.mark.parametrize("cells", ["keep", "random", None])
    def test_reduction_on_shuffled_systems(self, cells):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(4, 11))
            pool = list(combinations(range(n), 3))
            density = rng.uniform(0.2, 0.9)
            h = TripleSystem(order=n)
            for t in pool:
                if rng.random() < density:
                    h.add(t, int(rng.integers(1, 4)))
            for _ in range(2):
                hs = _shuffled(h, rng, cells)
                _same_system(s4_reduction(hs), s4_reduction_loop(hs))

    @pytest.mark.parametrize("shape", sorted(STAR_SHAPES))
    @pytest.mark.parametrize("cells", ["keep", "random", None])
    def test_star_shapes(self, shape, cells):
        rng = np.random.default_rng(len(shape))
        h = TripleSystem(order=5)
        for t, f in STAR_SHAPES[shape]:
            h.add(t, f)
        for _ in range(6):
            hs = _shuffled(h, rng, cells)
            _same_system(s4_reduction(hs), s4_reduction_loop(hs))

    @pytest.mark.parametrize("block", [1, 2, 7, 64])
    def test_star_copy_blocks(self, monkeypatch, block):
        # the copies come in blocks of at most _PAIR_BLOCK link-edge pairs;
        # any block size gives the same copies, reduction and verdict
        _, _, _, _, h2 = _pipeline(N=5, p=0.6, seed=1)
        triples = h2.arrays()[0]
        whole = np.concatenate(
            list(hypergraph._star_copies(triples, h2.order)), axis=1)
        assert whole.shape[1] == count_stars_bruteforce(h2) > 0
        monkeypatch.setattr(hypergraph, "_PAIR_BLOCK", block)
        blocks = list(hypergraph._star_copies(triples, h2.order))
        assert len(blocks) > 1
        assert np.array_equal(np.concatenate(blocks, axis=1), whole)
        assert not verify_s4_free(h2)
        out = s4_reduction(h2)
        assert out.flags == s4_reduction_loop(h2).flags
        assert verify_s4_free(out)

    def test_cell_ties_break_by_vertex_triple(self):
        # every vertex on one cell: the scan falls back to vertex order,
        # whatever order the triples were inserted in
        rng = np.random.default_rng(2)
        _, _, _, _, h2 = _pipeline(N=4, p=0.6, seed=5)
        by_vertex = TripleSystem(order=h2.order)
        for t in sorted(h2.flags):
            by_vertex.add(t, h2.flags[t])
        want = s4_reduction_loop(by_vertex).flags
        for _ in range(3):
            hs = _shuffled(h2, rng)
            hs.cells = np.zeros((h2.order, 2), dtype=np.int64)
            assert s4_reduction(hs).flags == want

