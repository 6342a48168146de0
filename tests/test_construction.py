import numpy as np
import pytest

from oracles import (base_adjacency_oneshot, common_matrices_int32,
                     concentration_int64, deletion_bruteforce, flags_of_product,
                     product_flags_bruteforce, triangles_bruteforce)
from trioverlay.analysis import concentration_report
from trioverlay.construction import (STREAM_BLUE, STREAM_RED, BaseGraph,
                                     Placement, apply_deletion_rule, build,
                                     child_rng, common_neighbor_matrix,
                                     common_upper_neighbor_matrix,
                                     conormal_product, count_matmul,
                                     sample_base_graphs, sample_injection)
from trioverlay.graphview import count_triangles
from trioverlay.params import derive_params, explicit_params, feasible_params


def tiny_params(N, p, rng=None, n=None, k=None):
    n = n if n is not None else N * N
    k = k if k is not None else max(1, min(n, N))
    return explicit_params(n=n, N=N, p=p, k=k)


def random_bases(N, p, seed):
    par = tiny_params(N, p)
    return sample_base_graphs(par, seed)


class TestBaseSampling:
    def test_saturation_and_vacuum(self):
        gr, gb = random_bases(5, 1.0, seed=0)
        assert gr.edge_count() == gb.edge_count() == 10
        gr, gb = random_bases(5, 0.0, seed=0)
        assert gr.edge_count() == gb.edge_count() == 0

    def test_determinism_and_stream_independence(self):
        par = tiny_params(8, 0.5)
        gr1, gb1 = sample_base_graphs(par, 42)
        gr2, gb2 = sample_base_graphs(par, 42)
        assert (gr1.adj == gr2.adj).all() and (gb1.adj == gb2.adj).all()
        # red and blue must come from different streams
        assert not (gr1.adj == gb1.adj).all()
        gr3, _ = sample_base_graphs(par, 43)
        assert not (gr1.adj == gr3.adj).all()

    def test_binomial_mean(self):
        # spec example: N=50, p=0.3 -> mean edges within 3 sigma of 367.5
        par = explicit_params(n=2500, N=50, p=0.3, k=40)
        counts = [sample_base_graphs(par, s)[0].edge_count()
                  for s in range(200)]
        sigma = np.sqrt(1225 * 0.3 * 0.7)
        assert abs(np.mean(counts) - 367.5) < 3 * sigma / np.sqrt(200)

    def test_rowwise_draws_match_oneshot(self):
        # row-by-row sampling reads the same stream as one draw of the whole
        # upper triangle, so the bases are the same bytes
        for N, p in ((2, 0.5), (2, 1.0), (3, 0.5), (3, 0.3), (4, 0.7),
                     (17, 0.2), (64, 0.05), (118, 0.0152)):
            for seed in (0, 1, 7):
                gr, gb = sample_base_graphs(tiny_params(N, p), seed)
                for g, stream in ((gr, STREAM_RED), (gb, STREAM_BLUE)):
                    want = base_adjacency_oneshot(child_rng(seed, stream), N, p)
                    assert g.adj.dtype == want.dtype
                    assert (g.adj == want).all(), (N, p, seed, g.side)

    def test_adjacency_invariants(self):
        gr, gb = random_bases(7, 0.6, seed=3)
        for g in (gr, gb):
            assert (g.adj == g.adj.T).all()
            assert not g.adj.diagonal().any()


class TestCommonNeighborMatrices:
    def test_common_vs_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            N = int(rng.integers(2, 12))
            adj = np.zeros((N, N), dtype=bool)
            iu, ju = np.triu_indices(N, 1)
            keep = rng.random(iu.size) < 0.5
            adj[iu[keep], ju[keep]] = True
            adj |= adj.T
            com = common_neighbor_matrix(adj)
            comp = common_upper_neighbor_matrix(adj)
            for a in range(N):
                for b in range(N):
                    want = any(adj[h, a] and adj[h, b] for h in range(N))
                    assert com[a, b] == want
                    want_up = any(adj[h, a] and adj[h, b]
                                  and h < min(a, b) for h in range(N))
                    assert comp[a, b] == want_up

    def test_diagonal_semantics(self):
        # diag of the common matrix flags "has any neighbor"
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        com = common_neighbor_matrix(adj)
        assert com[0, 0] and com[1, 1] and not com[2, 2]


class TestCountMatmul:
    def test_matches_int64_matmul(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n, k, m = (int(x) for x in rng.integers(1, 40, size=3))
            for a, b in ((rng.random((n, k)) < 0.3, rng.random((k, m)) < 0.5),
                         (rng.integers(0, 50, (n, k)), rng.integers(0, 9, (k, m))),
                         (rng.random((n, k)) < 0.3, rng.integers(0, 7, k))):
                got = count_matmul(a, b)
                assert got.dtype == np.float32
                assert np.array_equal(got, a.astype(np.int64) @ b.astype(np.int64))

    def test_exact_just_below_2_24(self):
        # row sums 4096 * entries < 4096: every partial sum is below 2^24
        rng = np.random.default_rng(6)
        a = np.ones((3, 4096), dtype=np.int64)
        b = rng.integers(3000, 4096, (4096, 3))
        got = count_matmul(a, b)
        assert got.dtype == np.float32
        assert np.array_equal(got, a @ b)
        assert (a @ b).max() > 2 ** 23

    def test_float64_from_2_24(self):
        got = count_matmul(np.array([[2 ** 24, 1]]), np.array([[1], [1]]))
        assert got.dtype == np.float64
        assert got[0, 0] == 2 ** 24 + 1

    def test_deletion_at_derived_scale_matches_int32(self):
        par = derive_params(10 ** 5)
        gr, gb = sample_base_graphs(par, 3)
        g2 = apply_deletion_rule(conormal_product(gr, gb), gr, gb)
        com_r, up_r = common_matrices_int32(gr.adj)
        com_b, up_b = common_matrices_int32(gb.adj)
        assert np.array_equal(g2.red_row, gr.adj & ~up_r)
        assert np.array_equal(g2.red_col, ~com_b)
        assert np.array_equal(g2.blue_row, ~com_r)
        assert np.array_equal(g2.blue_col, gb.adj & ~up_b)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_concentration_report_matches_int64(self, seed):
        par = derive_params(2 * 10 ** 4)
        gr, gb = sample_base_graphs(par, seed)
        pl = sample_injection(par, seed)
        for eps2, C in ((None, None), (0.3, 0.15)):
            rep = concentration_report(gr, gb, pl, par, eps2=eps2, C=C)
            got = [c.to_dict() for c in rep.checks]
            want = concentration_int64(gr.adj, gb.adj, pl.rows, pl.cols, par,
                                       eps2=eps2, C=C)
            assert got == want
            assert [list(map(type, c.values())) for c in got] == \
                [list(map(type, c.values())) for c in want]


class TestProduct:
    def test_single_red_edge_spec_example(self):
        # one red edge, empty blue, N=2: exactly 4 edges, all red-only
        gr = BaseGraph.from_edges("red", 2, [(0, 1)])
        gb = BaseGraph.from_edges("blue", 2, [])
        g1 = conormal_product(gr, gb)
        fc = g1.flag_counts()
        assert fc["red"] == 4 and fc["blue"] == 0 and fc["edges"] == 4
        red, blue = flags_of_product(g1, 2)
        want_red, want_blue = product_flags_bruteforce([(0, 1)], [], 2)
        assert red == want_red and blue == want_blue

    def test_empty_and_complete(self):
        gr = BaseGraph.from_edges("red", 2, [])
        gb = BaseGraph.from_edges("blue", 2, [])
        assert conormal_product(gr, gb).flag_counts()["edges"] == 0
        full = [(0, 1)]
        gr = BaseGraph.from_edges("red", 2, full)
        gb = BaseGraph.from_edges("blue", 2, full)
        g1 = conormal_product(gr, gb)
        red, blue = flags_of_product(g1, 2)
        want_red, want_blue = product_flags_bruteforce(full, full, 2)
        assert red == want_red and blue == want_blue
        # the two pairs with both coordinates differing are dual
        fc = g1.flag_counts()
        assert fc["dual"] == 2
        assert fc["edges"] == 6  # complete on the 4 cells

    def test_flags_match_bruteforce_random(self):
        rng = np.random.default_rng(12)
        for _ in range(12):
            N = int(rng.integers(2, 8))
            gr, gb = random_bases(N, float(rng.random()), int(rng.integers(1e6)))
            g1 = conormal_product(gr, gb)
            red, blue = flags_of_product(g1, N)
            want_red, want_blue = product_flags_bruteforce(
                gr.edge_list(), gb.edge_list(), N)
            assert red == want_red
            assert blue == want_blue

    def test_flag_counts_identity(self):
        # |E(G1)| = red + blue - dual, computed two independent ways
        rng = np.random.default_rng(13)
        for _ in range(8):
            N = int(rng.integers(2, 10))
            gr, gb = random_bases(N, float(rng.random()), int(rng.integers(1e6)))
            g1 = conormal_product(gr, gb)
            fc = g1.flag_counts()
            er, eb = gr.edge_count(), gb.edge_count()
            assert fc["red"] == er * N * N
            assert fc["blue"] == eb * N * N
            assert fc["dual"] == 2 * er * eb
            assert fc["edges"] == er * N * N + eb * N * N - 2 * er * eb

    def test_mismatched_orders(self):
        gr = BaseGraph.from_edges("red", 2, [])
        gb = BaseGraph.from_edges("blue", 3, [])
        with pytest.raises(ValueError):
            conormal_product(gr, gb)


class TestDeletionRule:
    def test_matches_bruteforce(self):
        # two independently implemented deletion rules agree exactly
        rng = np.random.default_rng(14)
        for trial in range(25):
            N = int(rng.integers(2, 9))
            p = float(rng.choice([0.2, 0.5, 0.8, 1.0]))
            gr, gb = random_bases(N, p, int(rng.integers(1e6)))
            g2 = apply_deletion_rule(conormal_product(gr, gb), gr, gb)
            red, blue = flags_of_product(g2, N)
            want_red, want_blue = deletion_bruteforce(
                gr.edge_list(), gb.edge_list(), N)
            assert red == want_red, f"red flags differ at trial {trial}"
            assert blue == want_blue, f"blue flags differ at trial {trial}"

    def test_red_triangle_spec_example(self):
        # red base = triangle on {0,1,2}: all (r1,.)-(r2,.) red flags die
        # through X+_{r0}; those touching r0 survive (blue base empty)
        gr = BaseGraph.from_edges("red", 3, [(0, 1), (0, 2), (1, 2)])
        gb = BaseGraph.from_edges("blue", 3, [])
        g2 = apply_deletion_rule(conormal_product(gr, gb), gr, gb)
        red, blue = flags_of_product(g2, 3)
        assert not blue
        assert red
        for (u, v) in red:
            assert 0 in (u[0], v[0])
        # every surviving pair has adjacent rows, none is (1,.)-(2,.)
        rows = {frozenset((u[0], v[0])) for u, v in red}
        assert rows == {frozenset((0, 1)), frozenset((0, 2))}
        g = g2.cell_graph()
        assert triangles_bruteforce(g.n, g.edge_array()) == 0

    def test_monotone_flagwise(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            N = int(rng.integers(2, 9))
            gr, gb = random_bases(N, float(rng.random()), int(rng.integers(1e6)))
            g1 = conormal_product(gr, gb)
            g2 = apply_deletion_rule(g1, gr, gb)
            r1, b1 = flags_of_product(g1, N)
            r2, b2 = flags_of_product(g2, N)
            assert r2 <= r1 and b2 <= b1

    def test_color_coordinate_invariant(self):
        # red flags never join same-row cells; blue never same-column
        rng = np.random.default_rng(16)
        for _ in range(8):
            N = int(rng.integers(2, 8))
            gr, gb = random_bases(N, 0.7, int(rng.integers(1e6)))
            for g in (conormal_product(gr, gb),
                      apply_deletion_rule(conormal_product(gr, gb), gr, gb)):
                red, blue = flags_of_product(g, N)
                assert all(u[0] != v[0] for u, v in red)
                assert all(u[1] != v[1] for u, v in blue)

    def test_triangle_free_exhaustive_small(self):
        rng = np.random.default_rng(17)
        for _ in range(12):
            N = int(rng.integers(2, 7))
            gr, gb = random_bases(N, float(rng.random()), int(rng.integers(1e6)))
            g2 = apply_deletion_rule(conormal_product(gr, gb), gr, gb)
            g = g2.cell_graph()
            assert triangles_bruteforce(
                g.n, [tuple(e) for e in g.edge_array()]) == 0

    def test_triangle_free_bitset_larger(self):
        for N, p, seed in ((20, 0.3, 0), (30, 0.15, 1), (40, 0.1, 2)):
            par = explicit_params(n=N * N, N=N, p=p, k=N)
            gr, gb = sample_base_graphs(par, seed)
            g2 = apply_deletion_rule(conormal_product(gr, gb), gr, gb)
            assert count_triangles(g2.cell_graph()) == 0

    def test_p1_all_flags_die_on_triangle_rich_bases(self):
        # with complete bases and N >= 3 every pair is in some kill box
        gr, gb = random_bases(4, 1.0, seed=0)
        g2 = apply_deletion_rule(conormal_product(gr, gb), gr, gb)
        assert g2.edge_count() == 0

    def test_stage_guard(self):
        gr, gb = random_bases(3, 0.5, seed=1)
        g1 = conormal_product(gr, gb)
        g2 = apply_deletion_rule(g1, gr, gb)
        with pytest.raises(ValueError):
            apply_deletion_rule(g2, gr, gb)


class TestInjection:
    def test_uniform_single_cell(self):
        par = explicit_params(n=1, N=3, p=0.5, k=1)
        hits = np.zeros(9)
        for s in range(2000):
            pl = sample_injection(par, s)
            hits[pl.cell_ids()[0]] += 1
        freq = hits / 2000
        sigma = np.sqrt((1 / 9) * (8 / 9) / 2000)
        assert (np.abs(freq - 1 / 9) < 4 * sigma).all()

    def test_full_occupancy_is_permutation(self):
        par = explicit_params(n=9, N=3, p=0.5, k=3)
        pl = sample_injection(par, 5)
        assert sorted(pl.cell_ids().tolist()) == list(range(9))

    def test_determinism(self):
        par = explicit_params(n=6, N=3, p=0.5, k=3)
        a = sample_injection(par, 9)
        b = sample_injection(par, 9)
        assert (a.rows == b.rows).all() and (a.cols == b.cols).all()

    def test_injectivity_enforced(self):
        with pytest.raises(ValueError):
            Placement(2, np.array([0, 0]), np.array([1, 1]))
        with pytest.raises(ValueError):
            Placement(2, np.array([0, 2]), np.array([0, 0]))

    def test_rejects_overfull(self):
        par = derive_params(100)  # N=5, 25 cells < 100
        with pytest.raises(ValueError):
            sample_injection(par, 0)


class TestBuild:
    def test_empty_when_p_zero(self):
        par = explicit_params(n=9, N=3, p=0.0, k=3)
        placed = build(par, 7)
        assert placed.graph.m == 0 and placed.n == 9

    def test_determinism_bit_identical(self):
        par = explicit_params(n=20, N=5, p=0.6, k=5)
        a = build(par, 33)
        b = build(par, 33)
        assert (a.graph.edge_array() == b.graph.edge_array()).all()
        assert (a.placement.rows == b.placement.rows).all()
        assert a.stats == b.stats

    def test_stats_bookkeeping(self):
        par = explicit_params(n=25, N=5, p=0.7, k=5)
        placed = build(par, 2)
        st = placed.stats
        assert st["edges_final"] == placed.graph.m
        assert st["red_flags_removed"] >= 0
        assert st["blue_flags_removed"] >= 0
        fp, fd = st["flags_product"], st["flags_deleted_stage"]
        assert fd["red"] == fp["red"] - st["red_flags_removed"]
        assert fd["edges"] <= fp["edges"]
        assert (st["placed_red_only"] + st["placed_blue_only"]
                + st["placed_dual"] == placed.graph.m)

    def test_identity_placement_isomorphism(self):
        # n = N^2: placed graph isomorphic to the cell graph
        par = explicit_params(n=16, N=4, p=0.5, k=4)
        placed = build(par, 11)
        cell = placed.product.cell_graph()
        assert placed.graph.m == cell.m
        perm = placed.placement.cell_ids()
        mapped = {tuple(sorted((perm[u], perm[v])))
                  for u, v in placed.graph.edge_array()}
        want = {tuple(e) for e in cell.edge_array()}
        assert mapped == want

    def test_final_triangle_free_and_adjacency_faithful(self):
        rng = np.random.default_rng(18)
        for _ in range(6):
            N = int(rng.integers(3, 9))
            n = int(rng.integers(2, N * N + 1))
            par = tiny_params(N, float(rng.random()), n=n,
                              k=max(1, min(n, N)))
            placed = build(par, int(rng.integers(1e6)))
            g = placed.graph
            assert triangles_bruteforce(
                g.n, [tuple(e) for e in g.edge_array()]) == 0
            # adjacency(u,v) == G2 edge between placed cells
            for u in range(min(g.n, 10)):
                for v in range(u + 1, min(g.n, 10)):
                    cu = placed.placement.cell_of(u)
                    cv = placed.placement.cell_of(v)
                    assert g.has_edge(u, v) == placed.product.has_edge(cu, cv)

    def test_derived_scale_density_window(self):
        # derived params n=5000 via clamped grid: density in [1.5p, 2.5p]
        par = feasible_params(5000)
        dens = []
        for s in range(5):
            placed = build(par, s)
            dens.append(placed.graph.m / (par.n * (par.n - 1) / 2))
        mean = float(np.mean(dens))
        assert 1.5 * par.p <= mean <= 2.5 * par.p


class TestChildStreams:
    def test_streams_disjoint(self):
        a = child_rng(7, 0).random(5)
        b = child_rng(7, 1).random(5)
        c = child_rng(7, 0).random(5)
        assert (a == c).all()
        assert not (a == b).any()
