"""Triple-system tests: product counts, star-freeness, link bookkeeping.

The four-pass reduction is checked two ways on every instance: the library's
per-link verifier and an exhaustive 4-subset scan from the oracle module.
"""

import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest

from trioverlay import hypergraph
from trioverlay.construction import Placement
from trioverlay.hypergraph import (BLUE, RED, TripleSystem, extract_link,
                                   hyper_product, inject_hyper, s4_reduction,
                                   sample_base_3graphs, verify_s4_free)
from trioverlay.params import Params, explicit_params

from oracles import (LinkIndex, LoopTriples, count_stars_bruteforce,
                     count_stars_loop, hyper_product_loop, inject_hyper_loop,
                     s4_reduction_loop, sample_base_3graphs_loop,
                     star_free_bruteforce, triple_dict)


def _pipeline(N, p, seed):
    par = explicit_params(n=N * N, N=N, p=p, k=3)
    hr, hb = sample_base_3graphs(par, seed)
    h1 = hyper_product(hr, hb)
    h2 = inject_hyper(h1, par, seed)
    return par, hr, hb, h1, h2


def _system(order, items, **kw):
    """The TripleSystem of the (triple, flag) items."""
    triples = [t for t, _ in items]
    return TripleSystem.from_arrays(order, np.array(triples).reshape(-1, 3),
                                    [f for _, f in items], **kw)


# ---------------------------------------------------------------------------
# the container


class TestTripleSystem:
    def test_canonical_form(self):
        # the same triple in two vertex orders ORs its flags; rows come out
        # sorted within and among themselves
        h = _system(6, [((1, 4, 2), RED), ((3, 0, 5), RED), ((0, 5, 3), BLUE)])
        assert h.triples.tolist() == [[0, 3, 5], [1, 2, 4]]
        assert h.flags.tolist() == [RED | BLUE, RED]
        assert h.edge_count() == 2
        assert h.count_with(RED) == 2
        assert h.count_with(BLUE) == 1

    def test_frozen(self):
        # cells assigned after from_arrays would skip its size check, and an
        # (n, 2) array in place of a Placement broke s4_reduction
        h = _pipeline(4, 0.6, 5)[-1]
        for name, value in (("cells", np.zeros((h.order, 2), np.int64)),
                            ("triples", h.triples[:1]), ("flags", h.flags)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(h, name, value)

    def test_rejects_bad_triples(self):
        # 699,051 triples on 2^21 + 1 distinct vertices below 2^40: neither
        # the vertex ids nor their ranks key a triple within int64
        values = np.arange(3 * 699_051, dtype=np.int64) * 2 ** 18
        assert len(values) ** 3 > 2 ** 63
        with pytest.raises(ValueError, match="too many to key"):
            TripleSystem.from_arrays(2 ** 40, values.reshape(-1, 3),
                                     np.ones(len(values) // 3))

    def test_from_arrays_matches_add(self):
        # one OR into a dict per triple, as the loops do
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 7, size=(60, 3))
        rows = rows[(rows[:, 0] != rows[:, 1]) & (rows[:, 1] != rows[:, 2])
                    & (rows[:, 0] != rows[:, 2])]  # unsorted, some repeated
        flags = rng.integers(1, 4, size=len(rows))
        h = LoopTriples(order=7)
        for t, f in zip(rows.tolist(), flags.tolist()):
            h.add(t, f)
        bulk = TripleSystem.from_arrays(7, rows, flags, kind="x")
        assert triple_dict(bulk) == h.flags and bulk.kind == "x"
        assert bulk.triples.dtype == np.int64 and bulk.flags.dtype == np.uint8
        assert bulk.triples.tolist() == [list(t) for t in sorted(h.flags)]
        empty = TripleSystem.from_arrays(4, np.zeros((0, 3)), [])
        assert empty.triples.shape == (0, 3) and empty.flags.shape == (0,)

    @pytest.mark.parametrize("rows, flags", [
        ([(0, 0, 1)], [RED]), ([(0, 1, 4)], [RED]), ([(-1, 0, 1)], [RED]),
        ([(0, 1, 2)], [0]), ([(0, 1, 2)], [4]), ([(0, 1, 2)], [RED, BLUE]),
    ], ids=["repeated", "beyond-order", "negative", "flag-0", "flag-4",
            "two-flags"])
    def test_from_arrays_rejects_what_add_rejects(self, rows, flags):
        with pytest.raises(ValueError):
            TripleSystem.from_arrays(4, rows, flags)

    def test_cells_place_every_vertex_once(self):
        # cells are a Placement of the system's own vertices, on distinct
        # cells: a repeated cell is no Placement, a short one no fit
        triples, flags = [(0, 1, 2), (1, 2, 3)], [RED, BLUE]
        with pytest.raises(ValueError, match="not injective"):
            TripleSystem.from_arrays(4, triples, flags, cells=Placement(
                2, [0, 1, 0, 1], [0, 0, 0, 1]))
        with pytest.raises(ValueError, match="cells place 3 vertices, not 4"):
            TripleSystem.from_arrays(4, triples, flags, cells=Placement(
                2, [0, 1, 1], [0, 0, 1]))
        cells = Placement(2, [1, 0, 1, 0], [1, 1, 0, 0])
        assert TripleSystem.from_arrays(4, triples, flags,
                                        cells=cells).cells is cells

    def test_keys_on_ranks_beyond_int64(self):
        # order^3 overflows int64 for order > 2,097,151; the triples are
        # keyed on the ranks of their vertices, in the same order
        big = 3_000_000
        h = _system(big, [((big - 1, big - 4, big - 3), RED),
                          ((big - 4, big - 2, big - 1), BLUE),
                          ((big - 4, big - 3, big - 2), RED),
                          ((big - 1, big - 3, big - 4), BLUE)])
        assert (h.triples - big).tolist() == [[-4, -3, -2], [-4, -3, -1],
                                              [-4, -2, -1]]
        assert h.flags.tolist() == [RED, RED | BLUE, BLUE]


# ---------------------------------------------------------------------------
# base sampling and the product


class TestBaseSampling:
    def test_extremes(self):
        par = explicit_params(n=25, N=5, p=1.0, k=3)
        hr, hb = sample_base_3graphs(par, seed=0)
        assert hr.edge_count() == hb.edge_count() == math.comb(5, 3)
        assert (hr.flags == RED).all() and (hb.flags == BLUE).all()
        par0 = explicit_params(n=25, N=5, p=0.0, k=3)
        hr0, hb0 = sample_base_3graphs(par0, seed=0)
        assert hr0.edge_count() == 0 and hb0.edge_count() == 0

    def test_deterministic_and_independent(self):
        par = explicit_params(n=64, N=8, p=0.5, k=3)
        hr1, hb1 = sample_base_3graphs(par, seed=9)
        hr2, hb2 = sample_base_3graphs(par, seed=9)
        assert triple_dict(hr1) == triple_dict(hr2)
        assert triple_dict(hb1) == triple_dict(hb2)
        # different streams
        assert not np.array_equal(hr1.triples, hb1.triples)
        hr3, _ = sample_base_3graphs(par, seed=10)
        assert not np.array_equal(hr1.triples, hr3.triples)

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
        hr = _system(3, [((0, 1, 2), RED)], kind="base-red")
        hb = _system(3, [], kind="base-blue")
        h1 = hyper_product(hr, hb)
        assert h1.edge_count() == 6
        assert h1.count_with(RED) == 6 and h1.count_with(BLUE) == 0
        for t in h1.triples.tolist():
            rows = sorted(c // 3 for c in t)
            cols = sorted(c % 3 for c in t)
            assert rows == [0, 1, 2] and cols == [0, 1, 2]
        # explicit membership: rows 0,1,2 against every column bijection
        from itertools import permutations
        want = {tuple(sorted(r * 3 + c for r, c in zip((0, 1, 2), pm)))
                for pm in permutations((0, 1, 2))}
        assert set(triple_dict(h1)) == want

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
            dual = int(np.count_nonzero(h1.flags == RED | BLUE))
            assert dual == r * b * 6
            assert h1.edge_count() == (r + b) * cN3 * 6 - dual

    def test_coordinates_distinct(self):
        par, _, _, h1, _ = _pipeline(N=5, p=0.5, seed=2)
        N = par.N
        for t in h1.triples.tolist():
            assert len({c // N for c in t}) == 3
            assert len({c % N for c in t}) == 3

    def test_cells_provenance(self):
        _, _, _, h1, _ = _pipeline(N=4, p=0.5, seed=0)
        assert h1.cells.N == 4
        for v in range(16):
            assert h1.cells.cell_of(v) == (v // 4, v % 4)

    def test_guards(self):
        with pytest.raises(ValueError):
            hyper_product(_system(4, []), _system(5, []))
        big_r = _system(100, [(t, RED) for t in
                              list(combinations(range(100), 3))[:6]])
        big_b = _system(100, [])
        with pytest.raises(ValueError, match="too large"):
            hyper_product(big_r, big_b)


class TestInjectHyper:
    def test_full_grid_is_relabeling(self):
        par, _, _, h1, h2 = _pipeline(N=4, p=0.6, seed=1)
        assert h2.order == 16
        assert h2.edge_count() == h1.edge_count()
        N = par.N
        cell_flags = triple_dict(h1)
        for t, f in triple_dict(h2).items():
            cell_t = tuple(sorted(int(h2.cells.rows[v]) * N
                                  + int(h2.cells.cols[v]) for v in t))
            assert cell_flags[cell_t] == f

    def test_deterministic(self):
        par, _, _, h1, _ = _pipeline(N=5, p=0.4, seed=3)
        a = inject_hyper(h1, par, seed=3)
        b = inject_hyper(h1, par, seed=3)
        assert triple_dict(a) == triple_dict(b)
        assert np.array_equal(a.cells.rows, b.cells.rows)
        assert np.array_equal(a.cells.cols, b.cells.cols)

    def test_guards(self):
        par, _, _, h1, _ = _pipeline(N=5, p=0.4, seed=0)
        small = _system(9, [])
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
    return _system(order, [(t, flag) for t in triples])


def _link_pairs(h, v):
    return set(map(tuple, extract_link(h, v)[0].tolist()))


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
            assert idx.link_edges(v) == _link_pairs(h, v)
        # now remove every other triple and re-compare
        for t in live[::2]:
            idx.remove(t)
        h2 = _system_from(live[1::2], n)
        for v in range(n):
            assert idx.link_edges(v) == _link_pairs(h2, v)

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


class TestStarOracle:
    """The array 4-subset scan of the oracle module against its loop."""

    @pytest.mark.parametrize("N", [3, 4])
    def test_matches_loop_on_pipelines(self, N):
        for p in (0.3, 0.6, 1.0):
            for seed in range(2):
                h2 = _pipeline(N, p, seed)[-1]
                for h in (h2, s4_reduction(h2)):
                    count = count_stars_loop(h)
                    assert count_stars_bruteforce(h) == count
                    assert star_free_bruteforce(h) == (count == 0)

    def test_one_star(self):
        # three triples through c on {c, u, w, z}, for every 4-subset of
        # range(6) and centre in it, plus a triple that makes no second star
        for quad in combinations(range(6), 4):
            other = [x for x in range(6) if x not in quad]
            for c in quad:
                u, w, z = (x for x in quad if x != c)
                h = _system(6, [((c, u, w), RED), ((c, u, z), BLUE),
                                ((c, w, z), RED), ((u, *other), BLUE)])
                assert count_stars_loop(h) == count_stars_bruteforce(h) == 1
                assert not star_free_bruteforce(h)


# ---------------------------------------------------------------------------
# the reduction


class TestS4Reduction:
    def test_pass_c_two_blue_drop_red(self):
        h = _system(4, STAR_SHAPES["pass-c"])
        out = s4_reduction(h)
        assert triple_dict(out) == {(0, 1, 2): BLUE, (0, 1, 3): BLUE}
        assert verify_s4_free(out) and star_free_bruteforce(out)

    def test_pass_d_two_red_drop_blue(self):
        out = s4_reduction(_system(4, STAR_SHAPES["pass-d"]))
        assert triple_dict(out) == {(0, 1, 2): RED, (0, 1, 3): RED}

    def test_dual_third_edge(self):
        # the blue pass already refuses the third blue flag, then pass (c)
        # strips the red flag, so the star edge disappears entirely
        out = s4_reduction(_system(4, STAR_SHAPES["dual-third"]))
        assert triple_dict(out) == {(0, 1, 2): BLUE, (0, 1, 3): BLUE}

    def test_chained_stars_skip_dead_copies(self):
        # two star copies at center 0 share the red edge; removing it once
        # destroys both, and the second copy must be skipped, not KeyError
        out = s4_reduction(_system(5, STAR_SHAPES["chained"]))
        assert (0, 2, 3) not in triple_dict(out)
        assert out.edge_count() == 4
        assert star_free_bruteforce(out)

    def test_monotone_and_flag_subset(self):
        for N, p, seed in [(4, 0.5, 0), (5, 0.3, 1), (5, 1.0, 2)]:
            _, _, _, _, h2 = _pipeline(N=N, p=p, seed=seed)
            out = s4_reduction(h2)
            before = triple_dict(h2)
            for t, f in triple_dict(out).items():
                assert f & ~before[t] == 0  # never invents flags
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
        assert triple_dict(once) == triple_dict(twice)

    def test_empty(self):
        out = s4_reduction(_system(7, []))
        assert out.edge_count() == 0
        assert verify_s4_free(out)

    def test_link_identity(self):
        # every triple contributes one link edge at each of its vertices
        _, _, _, _, h2 = _pipeline(N=5, p=0.5, seed=6)
        for h in (h2, s4_reduction(h2)):
            total = sum(len(extract_link(h, v)[0]) for v in range(h.order))
            assert total == 3 * h.edge_count()

    def test_scan_uses_cells_when_placed(self):
        # pass (a) keeps the first two triples of an all-red star in scan
        # order: by vertex ids unplaced, by sorted cells once placed
        star = [((0, 1, 2), RED), ((0, 1, 3), RED), ((0, 2, 3), RED)]
        assert triple_dict(s4_reduction(_system(4, star))) == {
            (0, 1, 2): RED, (0, 1, 3): RED}
        # cells rank v0 < v2 < v3 < v1, so (0, 2, 3) scans first and (0, 1, 3)
        # closes the star
        cells = Placement(3, [0, 2, 0, 1], [0, 0, 1, 1])
        placed = s4_reduction(_system(4, star, cells=cells))
        assert triple_dict(placed) == {(0, 1, 2): RED, (0, 2, 3): RED}
        assert triple_dict(placed) == s4_reduction_loop(
            LoopTriples.of(_system(4, star, cells=cells))).flags


# ---------------------------------------------------------------------------
# links and the verifier


class TestLinks:
    def test_extract_link_flags(self):
        h = _system(6, [((0, 1, 2), RED), ((3, 0, 1), BLUE),
                        ((0, 2, 3), RED | BLUE),
                        ((1, 2, 3), RED)])  # not through 0
        pairs, flags = extract_link(h, 0)
        assert pairs.dtype == np.int64 and flags.dtype == np.uint8
        assert dict(zip(map(tuple, pairs.tolist()), flags.tolist())) \
            == {(1, 2): RED, (1, 3): BLUE, (2, 3): RED | BLUE}
        # the middle and last vertex of a triple as center
        assert extract_link(h, 2)[0].tolist() == [[0, 1], [0, 3], [1, 3]]
        # a link with no triples through its center is empty
        pairs, flags = extract_link(h, 5)
        assert pairs.shape == (0, 2) and flags.shape == (0,)
        with pytest.raises(ValueError):
            extract_link(h, 6)

    def test_verify_s4_free(self):
        star = _system(5, [((0, 1, 2), RED), ((0, 1, 3), BLUE),
                           ((0, 2, 3), RED)])
        assert not verify_s4_free(star)
        assert not star_free_bruteforce(star)
        ok = _system(5, [((0, 1, 2), RED), ((0, 1, 3), BLUE), ((1, 2, 4), RED)])
        assert verify_s4_free(ok)
        assert star_free_bruteforce(ok)

    @pytest.mark.parametrize("order", [5, 3_000_000])
    def test_verify_s4_free_keys_on_ranks(self, order):
        # a star on the top four vertices; beyond order 2,097,151 the int64
        # keys of the vertex ids would overflow and hide it
        c, u, w, z = range(order - 4, order)
        star = _system(order, [((c, u, w), RED), ((c, u, z), RED),
                               ((c, w, z), BLUE)])
        assert not verify_s4_free(star)
        out = s4_reduction(star)
        assert triple_dict(out) == {(c, u, w): RED, (c, u, z): RED}
        assert verify_s4_free(out)


# ---------------------------------------------------------------------------
# the array pipeline against the per-triple loops it replaced

# both desk shapes x 30 seeds, then N = 3..8 at n = N^2 x p x 3 seeds
PIPELINE_CASES = ([(7, 40, 0.3, s) for s in range(30)]
                  + [(8, 50, 0.3, s) for s in range(30)]
                  + [(N, N * N, p, s) for N in range(3, 9)
                     for p in (0.2, 0.5, 1.0) for s in range(3)])


def _same_system(got, want):
    """got, a TripleSystem, holds the triples of the loop container want,
    in canonical form, with its flags, kind, order and cells."""
    rows = sorted(want.flags)
    assert got.triples.dtype == np.int64 and got.flags.dtype == np.uint8
    assert got.triples.tolist() == [list(t) for t in rows]
    assert got.flags.tolist() == [want.flags[t] for t in rows]
    assert got.kind == want.kind and got.order == want.order
    assert (got.cells is None) == (want.cells is None)
    if want.cells is not None:
        assert np.array_equal(got.cells.rows, want.cells[:, 0])
        assert np.array_equal(got.cells.cols, want.cells[:, 1])
    for flag in (RED, BLUE, RED | BLUE):
        assert got.count_with(flag) == sum(1 for f in want.flags.values()
                                           if f & flag)


def _shuffled(h, rng, cells="keep"):
    """h built again from its rows in random order, every other row with
    its vertices reversed; cells replaced by a random placement on
    distinct cells, dropped (None) or kept."""
    if cells == "random":
        grid = max(2, h.order)
        ids = rng.choice(grid * grid, size=h.order, replace=False)
        cells = Placement(grid, ids // grid, ids % grid)
    elif cells == "keep":
        cells = h.cells
    perm = rng.permutation(h.edge_count())
    rows = h.triples[perm]
    rows[1::2] = rows[1::2, ::-1]
    return TripleSystem.from_arrays(h.order, rows, h.flags[perm], kind=h.kind,
                                    cells=cells)


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
            h = _system(n, [(t, int(rng.integers(1, 4))) for t in pool
                            if rng.random() < density])
            for _ in range(2):
                hs = _shuffled(h, rng, cells)
                _same_system(s4_reduction(hs),
                             s4_reduction_loop(LoopTriples.of(hs)))

    @pytest.mark.parametrize("shape", sorted(STAR_SHAPES))
    @pytest.mark.parametrize("cells", ["keep", "random", None])
    def test_star_shapes(self, shape, cells):
        rng = np.random.default_rng(len(shape))
        h = _system(5, STAR_SHAPES[shape])
        for _ in range(6):
            hs = _shuffled(h, rng, cells)
            _same_system(s4_reduction(hs),
                         s4_reduction_loop(LoopTriples.of(hs)))

    @pytest.mark.parametrize("block", [1, 2, 7, 64])
    def test_star_copy_blocks(self, monkeypatch, block):
        # the copies come in blocks of at most _PAIR_BLOCK link-edge pairs;
        # any block size gives the same copies, reduction and verdict
        _, _, _, _, h2 = _pipeline(N=5, p=0.6, seed=1)
        triples = h2.triples
        whole = np.concatenate(
            list(hypergraph._star_copies(triples, h2.order)), axis=1)
        assert whole.shape[1] == count_stars_bruteforce(h2) > 0
        monkeypatch.setattr(hypergraph, "_PAIR_BLOCK", block)
        blocks = list(hypergraph._star_copies(triples, h2.order))
        assert len(blocks) > 1
        assert np.array_equal(np.concatenate(blocks, axis=1), whole)
        assert not verify_s4_free(h2)
        out = s4_reduction(h2)
        assert triple_dict(out) == s4_reduction_loop(LoopTriples.of(h2)).flags
        assert verify_s4_free(out)
