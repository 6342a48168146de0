import dataclasses
import inspect

import numpy as np
import pytest

from oracles import (base_adjacency_oneshot, common_matrices_int32,
                     concentration_int64, deletion_bruteforce, flags_of_product,
                     placed_edge_array, placed_edges_by_induce,
                     placed_flag_tallies, product_flags_bruteforce,
                     triangles_bruteforce)
from trioverlay import construction
from trioverlay.analysis import concentration_report
from trioverlay.construction import (STREAM_BLUE, STREAM_RED, BaseGraph,
                                     Placement, apply_deletion_rule, build,
                                     child_rng, common_neighbor_matrix,
                                     common_upper_neighbor_matrix,
                                     conormal_product, count_matmul,
                                     sample_base_graphs, sample_injection,
                                     upper_neighborhoods)
from trioverlay.graphview import SimpleGraphView, count_triangles
from trioverlay.params import derive_params, explicit_params, feasible_params
from trioverlay.serialize import graph_record, read_instance, write_instance


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


class TestBaseGraphEdges:
    def test_from_edges_edge_array_round_trip(self):
        gr, gb = random_bases(9, 0.4, seed=5)
        for g in (gr, gb):
            edges = g.edge_array()
            assert edges.shape == (g.edge_count(), 2)
            assert (edges[:, 0] < edges[:, 1]).all()
            assert edges.tolist() == sorted(edges.tolist())
            back = BaseGraph.from_edges(g.side, 9, edges)
            assert (back.adj == g.adj).all()
            # pairs in either order and as lists build the same graph
            flipped = [(v, u) for u, v in edges.tolist()]
            assert (BaseGraph.from_edges(g.side, 9, flipped).adj == g.adj).all()
        empty = BaseGraph.from_edges("red", 3, [])
        assert empty.edge_array().shape == (0, 2)

    @pytest.mark.parametrize("edge", [(0, 6), (-6, 2), (6, 0), (0, -1)],
                             ids=["v-is-N", "u-wraps", "u-is-N", "v-wraps"])
    def test_from_edges_rejects_endpoints_outside_grid(self, edge):
        # numpy indexing would wrap -6 to row 0 and -1 to row 5
        with pytest.raises(ValueError, match="outside 0..5"):
            BaseGraph.from_edges("red", 6, [(1, 2), edge])

    def test_from_edges_rejects_bad_shapes_and_loops(self):
        for edges in ([(0, 1, 2)], [(0, 1), (2, 3, 4)], [(3, 3)]):
            with pytest.raises(ValueError):
                BaseGraph.from_edges("blue", 6, edges)

    def test_rejects_non_square_adjacency(self):
        for adj in (np.zeros((2, 3), bool), np.zeros(4, bool),
                    np.zeros((2, 2, 2), bool)):
            with pytest.raises(ValueError, match="not square"):
                BaseGraph("red", adj)


class TestGridSize:
    def test_N_is_the_matrix_size(self):
        # N is read off the matrices, never stored beside them
        for N in (1, 2, 5, 9):
            gr = BaseGraph.from_edges("red", N, [(0, 1)] if N > 1 else [])
            gb = BaseGraph.from_edges("blue", N, [])
            assert gr.N == gb.N == gr.adj.shape[0] == N
            for g in (conormal_product(gr, gb),
                      apply_deletion_rule(conormal_product(gr, gb), gr, gb)):
                assert g.N == N
                assert {m.shape for m in (g.red_row, g.red_col, g.blue_row,
                                          g.blue_col)} == {(N, N)}


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

    def test_box_families_vs_definition(self):
        # any family of boxes, one per row: not square, not symmetric, or
        # empty; [u, v] iff some box holds both u and v
        rng = np.random.default_rng(12)
        for M, N in [(0, 4), (1, 5), (3, 7), (9, 4)] + [
                tuple(int(x) for x in rng.integers(0, 12, 2)) for _ in range(20)]:
            boxes = rng.random((M, N)) < rng.random()
            com = common_neighbor_matrix(boxes)
            assert com.shape == (N, N) and com.dtype == bool
            for u in range(N):
                for v in range(N):
                    assert com[u, v] == any(boxes[h, u] and boxes[h, v]
                                            for h in range(M))

    def test_upper_neighborhoods_vs_definition(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            N = int(rng.integers(1, 12))
            adj = np.triu(rng.random((N, N)) < 0.5, 1)
            adj |= adj.T
            up = upper_neighborhoods(adj)
            for h in range(N):
                for u in range(N):
                    assert up[h, u] == (bool(adj[h, u]) and h < u)
            assert (common_upper_neighbor_matrix(adj)
                    == common_neighbor_matrix(up)).all()

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
                gr.edge_array(), gb.edge_array(), N)
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

    @pytest.mark.parametrize("p", [0.0, None, 1.0], ids=["p0", "random", "p1"])
    def test_cell_graph_matches_dense(self, p):
        # the fiber passes against the definition, on the product's
        # broadcast red_col / blue_row views and after deletion
        rng = np.random.default_rng(18)
        for N in range(2, 9):
            q = float(rng.random()) if p is None else p
            gr, gb = random_bases(N, q, int(rng.integers(1e6)))
            g1 = conormal_product(gr, gb)
            for g in (g1, apply_deletion_rule(g1, gr, gb)):
                red, blue = g.to_dense()
                assert np.array_equal(g.cell_graph().to_dense(), red | blue)

    @pytest.mark.parametrize("oracle", [product_flags_bruteforce,
                                        deletion_bruteforce],
                             ids=["product", "deleted"])
    def test_pair_flags_match_bruteforce(self, oracle):
        # the one flag rule at scalar, 1-D and broadcast index shapes
        rng = np.random.default_rng(19)
        for _ in range(8):
            N = int(rng.integers(2, 7))
            gr, gb = random_bases(N, float(rng.random()), int(rng.integers(1e6)))
            g = conormal_product(gr, gb)
            if oracle is deletion_bruteforce:
                g = apply_deletion_rule(g, gr, gb)
            want = []
            for flags in oracle(gr.edge_array(), gb.edge_array(), N):
                dense = np.zeros((N * N, N * N), dtype=bool)
                for (i, j), (k, l) in flags:
                    dense[i * N + j, k * N + l] = dense[k * N + l, i * N + j] = True
                want.append(dense)
            rows, cols = np.divmod(np.arange(N * N), N)
            got = g.pair_flags(rows[:, None], cols[:, None], rows, cols)
            for x, w in zip(got, want):
                assert x.shape == w.shape and np.array_equal(x, w)
            s, t = rng.integers(N * N, size=(2, 40))
            got = g.pair_flags(rows[s], cols[s], rows[t], cols[t])
            for x, w in zip(got, want):
                assert x.shape == (40,) and np.array_equal(x, w[s, t])
            for a, b in zip(s[:10].tolist(), t[:10].tolist()):
                got = g.pair_flags(int(rows[a]), int(cols[a]),
                                   int(rows[b]), int(cols[b]))
                assert [np.shape(x) for x in got] == [(), ()]
                assert [bool(x) for x in got] == [w[a, b] for w in want]

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
                gr.edge_array(), gb.edge_array(), N)
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
        assert g2.flag_counts()["edges"] == 0

    def test_stage_guard(self):
        gr, gb = random_bases(3, 0.5, seed=1)
        g1 = conormal_product(gr, gb)
        g2 = apply_deletion_rule(g1, gr, gb)
        with pytest.raises(ValueError):
            apply_deletion_rule(g2, gr, gb)

    def test_rejects_product_of_other_bases(self):
        gr, gb = random_bases(5, 0.5, seed=2)
        other_r, other_b = random_bases(5, 0.5, seed=3)
        for g1 in (conormal_product(other_r, gb), conormal_product(gr, other_b)):
            with pytest.raises(ValueError, match="not the conormal product"):
                apply_deletion_rule(g1, gr, gb)

    @pytest.mark.parametrize("red, blue", [([(0, 1)], []), ([], [(1, 2)]),
                                           ([(0, 2)], [(0, 1)])],
                             ids=["red", "blue", "both"])
    def test_rejects_deleted_product(self, red, blue):
        # one base edge leaves a single-edge red_row / blue_col unmasked,
        # but empties the other side's diagonal
        gr = BaseGraph.from_edges("red", 3, red)
        gb = BaseGraph.from_edges("blue", 3, blue)
        g2 = apply_deletion_rule(conormal_product(gr, gb), gr, gb)
        with pytest.raises(ValueError, match="not the conormal product"):
            apply_deletion_rule(g2, gr, gb)

    def test_empty_bases_delete_nothing(self):
        gr = BaseGraph.from_edges("red", 3, [])
        gb = BaseGraph.from_edges("blue", 3, [])
        g1 = conormal_product(gr, gb)
        g2 = apply_deletion_rule(apply_deletion_rule(g1, gr, gb), gr, gb)
        for name in ("red_row", "red_col", "blue_row", "blue_col"):
            assert np.array_equal(getattr(g2, name), getattr(g1, name))


class TestTriangleCertificate:
    """tr((red + blue)^3) from the factors, against the dense cell matrices."""

    def test_is_trace_of_flag_cube(self):
        rng = np.random.default_rng(43)
        with_triangles = 0
        for trial in range(60):
            N = int(rng.integers(2, 9))
            gr, gb = random_bases(N, float(rng.uniform(0.05, 1.0)), trial)
            g1 = conormal_product(gr, gb)
            g2 = apply_deletion_rule(g1, gr, gb)
            for g in (g1, g2):
                red, blue = g.to_dense()
                m = red.astype(np.int64) + blue
                cert = g.triangle_certificate()
                assert cert == np.trace(m @ m @ m), (trial, N)
                # positive exactly when the cell graph has a triangle
                tri = count_triangles(g.cell_graph())
                assert (cert > 0) == (tri > 0)
            with_triangles += g1.triangle_certificate() > 0
            assert g2.triangle_certificate() == 0
        assert with_triangles > 20

    def test_derived_scale_deleted_product(self):
        # N = 118, the n = 10^4 instance's grid: float32 sums stay exact
        par = feasible_params(10_000)
        gr, gb = sample_base_graphs(par, 0)
        g1 = conormal_product(gr, gb)
        assert g1.triangle_certificate() > 0
        assert apply_deletion_rule(g1, gr, gb).triangle_certificate() == 0


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

    def test_injectivity_enforced_at_scale(self):
        # one repeated cell, at the last index of an n = 10^5 placement
        pl = sample_injection(derive_params(100_000), 0)
        rows, cols = pl.rows.copy(), pl.cols.copy()
        rows[-1], cols[-1] = rows[0], cols[0]
        with pytest.raises(ValueError, match="^placement is not injective$"):
            Placement(pl.N, rows, cols)
        assert Placement(pl.N, pl.rows, pl.cols).n == 100_000

    def test_range_checked_before_injectivity_and_narrowing(self):
        # (0, 3) is out of range, not a second copy of cell id 3 = (1, 0)
        with pytest.raises(ValueError, match="cell out of range"):
            Placement(3, [0, 1], [3, 0])
        # 2^32 + 1 narrowed to int32 first would read as row 1
        with pytest.raises(ValueError, match="cell out of range"):
            Placement(3, np.array([2 ** 32 + 1, 0], dtype=np.int64), [0, 0])
        pl = Placement(3, np.array([2, 0], dtype=np.int64), [1, 1])
        assert pl.rows.dtype == pl.cols.dtype == np.int32

    @pytest.mark.parametrize("rows, cols", [
        ([0.7, 2.9], [1, 0]), ([0, 2], [1.2, 0]), ([0, 2], [True, False]),
    ], ids=["float-rows", "float-cols", "bool-cols"])
    def test_rejects_non_integer_coordinates(self, rows, cols):
        # int64 conversion would read [0.7, 2.9] as the rows [0, 2]
        with pytest.raises(ValueError, match="must be integers"):
            Placement(3, rows, cols)
        assert Placement(3, [], np.array([], dtype=float)).n == 0
        pl = Placement(3, np.array([0, 2], dtype=np.uint8), [1, 0])
        assert pl.rows.tolist() == [0, 2] and pl.cols.tolist() == [1, 0]

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

    def test_frozen(self):
        # a field assigned after the checks would skip them: the placement's
        # range and injectivity, the graph's agreement with the product
        placed = build(explicit_params(n=20, N=5, p=0.6, k=5), 3)
        for obj, name, value in ((placed.placement, "rows", np.zeros(20)),
                                 (placed, "graph", None),
                                 (placed, "placement", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, value)

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
                    assert g.has_edge(u, v) == any(
                        placed.product.edge_flags(cu, cv))

    def test_derived_scale_density_window(self):
        # derived params n=5000 via clamped grid: density in [1.5p, 2.5p]
        par = feasible_params(5000)
        dens = []
        for s in range(5):
            placed = build(par, s)
            dens.append(placed.graph.m / (par.n * (par.n - 1) / 2))
        mean = float(np.mean(dens))
        assert 1.5 * par.p <= mean <= 2.5 * par.p

    def test_induce_needs_the_whole_instance(self):
        # no defaults: a PlacedGraph without params, seed, bases or stats
        # cannot be made
        placed = build(explicit_params(n=20, N=5, p=0.6, k=5), 4)
        sig = inspect.signature(construction.induce_final_graph)
        assert all(p.default is p.empty for p in sig.parameters.values())
        with pytest.raises(TypeError):
            construction.induce_final_graph(placed.product, placed.placement)
        again = construction.induce_final_graph(
            placed.product, placed.placement, placed.params, placed.seed,
            placed.base_red, placed.base_blue, placed.stats)
        assert again.graph.edge_array().tolist() == \
            placed.graph.edge_array().tolist()
        assert again.stats is placed.stats and again.params is placed.params

    def test_rebuild_uses_the_records_objects(self, tmp_path, monkeypatch):
        # the reader makes the bases and the placement once; rebuild only
        # assembles around them, and a record without them rebuilds to None
        placed = build(explicit_params(n=20, N=5, p=0.6, k=5), 4)
        path = str(tmp_path / "i.edges")
        write_instance(graph_record(placed), path)
        rec = read_instance(path)
        made = []
        for cls in (BaseGraph, Placement):
            monkeypatch.setattr(cls, "__post_init__", made.append)
        again = construction.rebuild(rec)
        assert made == []
        held = (again.base_red, again.base_blue, again.placement)
        assert all(x is y for x, y in zip(held, rec.provenance))
        assert again.stats == placed.stats
        assert again.graph is rec.graph
        rec.provenance = None
        assert construction.rebuild(rec) is None


def random_builds(count, seed):
    """Built instances with N = 2..13, every fourth one with n = N^2."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        N = int(rng.integers(2, 14))
        n = N * N if t % 4 == 0 else int(rng.integers(2, N * N + 1))
        par = tiny_params(N, float(rng.random()), n=n, k=max(1, min(n, N)))
        yield build(par, int(rng.integers(1e6)))


def tamperings(edges, n, rng) -> dict:
    """Damaged copies of a placed graph's edge array, by kind of damage."""
    out = {}
    present = set(map(tuple, edges.tolist()))
    free = [(u, v) for u in range(n) for v in range(u + 1, n)
            if (u, v) not in present]

    def lex(e):
        return e[np.lexsort((e[:, 1], e[:, 0]))]

    if len(edges):
        i = int(rng.integers(len(edges)))
        out["dropped"] = np.delete(edges, i, axis=0)
        out["duplicate"] = np.insert(edges, i, edges[i], axis=0)
        out["u_above_v"] = edges.copy()
        out["u_above_v"][i] = edges[i, ::-1]
        out["vertex_n"] = edges.copy()
        out["vertex_n"][-1, 1] = n
    if free:
        pair = free[int(rng.integers(len(free)))]
        out["unflagged_added"] = lex(np.vstack([edges, [pair]]))
        if len(edges):
            out["unflagged_swapped_in"] = lex(
                np.vstack([np.delete(edges, i, axis=0), [pair]]))
    if len(edges) >= 2:
        j = int(rng.integers(len(edges) - 1))
        out["lines_swapped"] = edges.copy()
        out["lines_swapped"][[j, j + 1]] = edges[[j + 1, j]]
    return out


class TestPlacedCounts:
    def test_flag_counts_match_tallies(self):
        seen_full = 0
        for placed in random_builds(32, seed=41):
            product, placement = placed.product, placed.placement
            got = product.flag_counts(placement)
            assert got == placed_flag_tallies(product, placement,
                                              placed.graph.edge_array())
            assert placed.stats["edges_final"] == placed.graph.m
            if placement.n == product.cells:
                seen_full += 1
                assert got == product.flag_counts()
            # any stage, not only the deleted one
            gr, gb = placed.base_red, placed.base_blue
            g1 = conormal_product(gr, gb)
            assert g1.flag_counts(placement) == placed_flag_tallies(
                g1, placement, placed_edge_array(g1, placement))
        assert seen_full >= 8

    def test_edges_are_placed_matches_induce(self):
        rng = np.random.default_rng(42)
        cases = 0
        instances = list(random_builds(24, seed=43))
        # empty bases, complete bases, and a single vertex (empty fibers)
        instances.append(build(explicit_params(n=9, N=3, p=0.0, k=3), 1))
        instances.append(build(explicit_params(n=4, N=2, p=1.0, k=2), 2))
        instances.append(build(explicit_params(n=11, N=5, p=1.0, k=3), 3))
        instances.append(build(explicit_params(n=1, N=3, p=0.5, k=1), 4))
        for placed in instances:
            product, placement = placed.product, placed.placement
            edges = placed.graph.edge_array()
            assert placed.edges_are_placed()
            assert placed_edges_by_induce(product, placement, edges)
            for kind, bad in tamperings(edges, placement.n, rng).items():
                cases += 1
                if kind in ("duplicate", "vertex_n"):  # no CSR holds these
                    with pytest.raises(ValueError):
                        SimpleGraphView.from_edge_arrays(placement.n, *bad.T)
                    continue
                graph = SimpleGraphView.from_edge_arrays(placement.n, *bad.T)
                if kind in ("u_above_v", "lines_swapped"):  # the same graph
                    assert np.array_equal(graph.edge_array(), edges), kind
                    continue
                tampered = dataclasses.replace(placed, graph=graph)
                assert not tampered.edges_are_placed(), kind
                assert not placed_edges_by_induce(product, placement,
                                                  graph.edge_array()), kind
        assert cases >= 100


class TestChildStreams:
    def test_registry_is_distinct(self):
        streams = {name: getattr(construction, name)
                   for name in construction.__all__
                   if name.startswith("STREAM_")}
        assert len(set(streams.values())) == len(streams) == 10
        assert (streams["STREAM_K_SETS"], streams["STREAM_GREEDY"]) == (62, 63)

    def test_streams_disjoint(self):
        a = child_rng(7, 0).random(5)
        b = child_rng(7, 1).random(5)
        c = child_rng(7, 0).random(5)
        assert (a == c).all()
        assert not (a == b).any()
