import numpy as np
import pytest

from oracles import (csr_by_lexsort, deletion_bitsets, triangles_bruteforce,
                     triangles_dense)
from trioverlay import graphview
from trioverlay.construction import build
from trioverlay.graphview import (SimpleGraphView, count_triangles, pack_bits,
                                  triangle_apexes)
from trioverlay.params import feasible_params


def random_graph(rng, n, p):
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < p
    return [(int(a), int(b)) for a, b in zip(iu[keep], ju[keep])]


class TestConstruction:
    def test_from_edges_basic(self):
        g = SimpleGraphView.from_edges(4, [(0, 1), (2, 1), (3, 0)])
        assert g.n == 4 and g.m == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and g.has_edge(0, 3)
        assert not g.has_edge(1, 3)
        assert list(g.neighbors(1)) == [0, 2]
        assert g.degree(0) == 2

    def test_rejects_self_loop_and_duplicate(self):
        with pytest.raises(ValueError):
            SimpleGraphView.from_edges(3, [(1, 1)])
        # the convenience constructor dedupes; the array one is strict
        assert SimpleGraphView.from_edges(3, [(0, 1), (1, 0)]).m == 1
        with pytest.raises(ValueError):
            SimpleGraphView.from_edge_arrays(
                3, np.array([0, 1]), np.array([1, 0]))

    @pytest.mark.parametrize("us, vs", [([-1], [1]), ([0], [3]), ([1, 2], [0, 5]),
                                        ([-3], [-2]), ([0, 1], [2, -1])])
    def test_rejects_endpoint_out_of_range(self, us, vs):
        # a key h * n + t outside 0..n-1 would land in another row
        with pytest.raises(ValueError, match=r"edge endpoint outside 0\.\.2"):
            SimpleGraphView.from_edge_arrays(3, np.array(us), np.array(vs))

    def test_edge_array_sorted(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            edges = random_graph(rng, 12, 0.4)
            g = SimpleGraphView.from_edges(12, edges)
            arr = g.edge_array()
            assert arr.shape == (len(edges), 2)
            assert (arr[:, 0] < arr[:, 1]).all()
            # lexicographic
            key = arr[:, 0] * 12 + arr[:, 1]
            assert (np.diff(key) > 0).all()
            assert set(map(tuple, arr.tolist())) == set(edges)

    def test_dense_roundtrip(self):
        rng = np.random.default_rng(6)
        edges = random_graph(rng, 9, 0.5)
        g = SimpleGraphView.from_edges(9, edges)
        d = g.to_dense()
        assert (d == d.T).all() and not d.diagonal().any()
        assert set(zip(*np.nonzero(np.triu(d, 1)))) == set(edges)

    def test_degree_sequence_and_max(self):
        g = SimpleGraphView.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degree_sequence().tolist() == [3, 1, 1, 1]
        assert g.max_degree() == 3
        empty = SimpleGraphView.from_edges(3, [])
        assert empty.max_degree() == 0


class TestTriangles:
    def test_known_counts(self):
        k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        assert count_triangles(SimpleGraphView.from_edges(4, k4)) == 4
        c5 = [(i, (i + 1) % 5) for i in range(5)]
        assert count_triangles(SimpleGraphView.from_edges(5, c5)) == 0
        tri = SimpleGraphView.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert count_triangles(tri) == 1

    def test_methods_agree_with_bruteforce(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            n = int(rng.integers(2, 26))
            p = float(rng.random())
            edges = random_graph(rng, n, p)
            g = SimpleGraphView.from_edges(n, edges)
            want = triangles_bruteforce(n, edges)
            assert count_triangles(g) == want
            assert triangles_dense(n, edges) == want

    def test_bitset_on_larger_instance(self):
        rng = np.random.default_rng(8)
        n = 300
        edges = random_graph(rng, n, 0.05)
        g = SimpleGraphView.from_edges(n, edges)
        assert count_triangles(g) == triangles_dense(n, edges)


class TestTriangleApexes:
    """The kernel against a per-edge count of the common neighbours above."""

    @staticmethod
    def per_edge(n, us, vs):
        adj = np.zeros((n, n), dtype=bool)
        adj[us, vs] = adj[vs, us] = True
        return [int(np.count_nonzero(adj[u, v + 1:] & adj[v, v + 1:]))
                for u, v in zip(us.tolist(), vs.tolist())]

    @pytest.mark.parametrize("block", [None, 1], ids=["default", "one-word"])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 300])
    def test_matches_per_edge_count(self, monkeypatch, n, block):
        # one word per block splits every group of edges into blocks
        if block is not None:
            monkeypatch.setattr(graphview, "_BLOCK_WORDS", block)
        rng = np.random.default_rng(n)
        for p in (0.05, 0.5):
            iu, ju = np.triu_indices(n, 1)
            keep = rng.random(iu.size) < p
            shuffle = rng.permutation(int(keep.sum()))  # any edge order
            us, vs = iu[keep][shuffle], ju[keep][shuffle]
            want = self.per_edge(n, us, vs)
            assert triangle_apexes(n, us, vs).tolist() == want
            g = SimpleGraphView.from_edge_arrays(n, us, vs)
            assert count_triangles(g) == sum(want)

    def test_asymmetric_csr_is_corrupt(self):
        # row 0 lists 1, row 1 does not list 0: 1 entry above the diagonal
        # of 1, not half
        g = SimpleGraphView(3, np.array([0, 1, 1, 1]), np.array([1], np.int32))
        with pytest.raises(AssertionError, match="adjacency corrupt"):
            count_triangles(g)
        # the check is the edge list's, so every reader of it gets it
        with pytest.raises(AssertionError, match="adjacency corrupt"):
            g.edge_array()


class TestPackedRows:
    def test_packed_matches_dense(self):
        rng = np.random.default_rng(9)
        n = 70
        g = SimpleGraphView.from_edges(n, random_graph(rng, n, 0.3))
        rows = g.packed_rows()
        words = (n + 63) // 64
        assert rows.shape == (n, words)
        dense = g.to_dense()
        for v in range(n):
            mask = np.zeros(n, dtype=bool)
            for w in range(words):
                bits = int(rows[v, w])
                for b in range(64):
                    if bits >> b & 1:
                        mask[w * 64 + b] = True
            assert (mask == dense[v]).all()


def assert_same_csr(n, us, vs):
    g = SimpleGraphView.from_edge_arrays(n, us, vs)
    indptr, indices = csr_by_lexsort(n, us, vs)
    for got, want in ((g.indptr, indptr), (g.indices, indices)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def shuffled_and_swapped(rng, us, vs):
    """The same edges in random order, each with its endpoints swapped at
    random."""
    order = rng.permutation(us.size)
    swap = rng.random(us.size) < 0.5
    return np.where(swap, vs, us)[order], np.where(swap, us, vs)[order]


class TestMatchesLexsort:
    """from_edge_arrays against the lexsort assembly it replaced."""

    def test_random_graphs(self):
        rng = np.random.default_rng(11)
        for n in range(61):
            iu, ju = np.triu_indices(n, 1)
            # 0 and 1 give the empty and the complete graph
            for p in (0.0, 0.1, 0.5, 1.0):
                keep = rng.random(iu.size) < p
                us, vs = iu[keep], ju[keep]
                assert_same_csr(n, us, vs)
                su, sv = shuffled_and_swapped(rng, us, vs)
                assert_same_csr(n, su, sv)
                assert_same_csr(n, su.tolist(), sv.tolist())

    def test_built_instance(self):
        edges = build(feasible_params(2000), 0).graph.edge_array()
        us, vs = edges[:, 0], edges[:, 1]
        assert_same_csr(2000, us, vs)
        assert_same_csr(2000, *shuffled_and_swapped(np.random.default_rng(12),
                                                    us, vs))

    @pytest.mark.parametrize("us, vs", [
        ([1], [1]), ([0, 2, 3], [1, 2, 0]),
        ([0, 1], [1, 0]), ([2, 0, 3], [3, 1, 2]), ([0, 0], [1, 1]),
    ], ids=["loop", "loop-among-edges", "swapped-dup", "dup-among-edges",
            "same-dup"])
    def test_same_errors(self, us, vs):
        with pytest.raises(ValueError) as want:
            csr_by_lexsort(4, us, vs)
        with pytest.raises(ValueError) as got:
            SimpleGraphView.from_edge_arrays(4, us, vs)
        assert str(got.value) == str(want.value)


class TestPackBits:
    def test_matches_deletion_packing(self):
        # the packings the edge-deletion baseline made before it shared the
        # triangle kernel, above the diagonal and in both directions
        rng = np.random.default_rng(13)
        for n in (1, 2, 63, 64, 65, 130):
            iu, ju = np.triu_indices(n, 1)
            keep = rng.random(iu.size) < 0.3
            us, vs = iu[keep], ju[keep]
            above, packed = deletion_bitsets(n, us, vs)
            got = pack_bits(n, us, vs)
            assert got.dtype == above.dtype and np.array_equal(got, above)
            rows = SimpleGraphView.from_edge_arrays(n, us, vs).packed_rows()
            assert np.array_equal(rows, packed)
