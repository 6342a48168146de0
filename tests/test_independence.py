import numpy as np
import pytest

from oracles import alpha_bruteforce, greedy_min_degree_heap
from trioverlay.construction import build, child_rng
from trioverlay.graphview import SimpleGraphView, count_triangles
from trioverlay.independence import (_greedy_min_degree, independence_exact,
                                     independence_greedy, is_independent_set)
from trioverlay.params import feasible_params


def random_graph(rng, n, p):
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < p
    return SimpleGraphView.from_edge_arrays(n, iu[keep], ju[keep])


class TestExact:
    def test_known_values(self):
        k5 = SimpleGraphView.from_edges(
            5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
        assert independence_exact(k5).value == 1
        c5 = SimpleGraphView.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert independence_exact(c5).value == 2
        empty = SimpleGraphView.from_edges(6, [])
        res = independence_exact(empty)
        assert res.value == 6 and res.optimal
        # petersen graph: alpha = 4
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        pet = SimpleGraphView.from_edges(10, outer + inner + spokes)
        assert independence_exact(pet).value == 4

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(21)
        for trial in range(60):
            n = int(rng.integers(2, 19))
            p = float(rng.random())
            g = random_graph(rng, n, p)
            res = independence_exact(g)
            assert res.optimal
            assert res.value == alpha_bruteforce(
                n, [tuple(e) for e in g.edge_array()]), f"trial {trial}"
            assert is_independent_set(g, res.certificate)
            assert len(res.certificate) == res.value

    def test_budget_exhaustion_gives_valid_lower_bound(self):
        rng = np.random.default_rng(22)
        g = random_graph(rng, 60, 0.12)
        res = independence_exact(g, budget=50)
        assert not res.optimal
        assert is_independent_set(g, res.certificate)
        full = independence_exact(g, budget=10_000_000)
        assert full.optimal
        assert res.value <= full.value

    def test_certificate_is_set_of_vertices(self):
        g = SimpleGraphView.from_edges(4, [(0, 1), (2, 3)])
        res = independence_exact(g)
        assert res.value == 2
        assert set(res.certificate) < set(range(4))


class TestGreedy:
    def test_camps_between_max_degree_and_exact(self):
        rng = np.random.default_rng(23)
        for trial in range(30):
            n = int(rng.integers(4, 40))
            g = random_graph(rng, n, 0.15)
            while count_triangles(g) > 0:
                # thin out a triangle edge to keep the family triangle-free
                arr = g.edge_array()
                g = SimpleGraphView.from_edges(
                    n, [tuple(e) for e in arr[1:]])
            greedy = independence_greedy(g, restarts=2, seed=trial)
            exact = independence_exact(g)
            assert g.max_degree() <= greedy.value <= exact.value
            assert is_independent_set(g, greedy.certificate)

    def test_greedy_on_dense_nontrianglefree_still_valid(self):
        # greedy does not require triangle-freeness for validity
        rng = np.random.default_rng(24)
        g = random_graph(rng, 25, 0.5)
        res = independence_greedy(g, restarts=3, seed=0)
        assert is_independent_set(g, res.certificate)
        assert res.value >= 1

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(25)
        g = random_graph(rng, 40, 0.1)
        a = independence_greedy(g, restarts=3, seed=7)
        b = independence_greedy(g, restarts=3, seed=7)
        assert a.value == b.value and a.certificate == b.certificate

    @staticmethod
    def assert_same_as_heap(g, seed):
        # same chosen list, and the same draws consumed
        ours, heap = child_rng(seed, 63), child_rng(seed, 63)
        assert _greedy_min_degree(g, ours) == greedy_min_degree_heap(g, heap)
        assert ours.random() == heap.random()

    def test_min_degree_matches_heap(self):
        rng = np.random.default_rng(27)
        for trial in range(320):
            n = int(rng.integers(1, 61))
            p = float(rng.random()) ** 2  # sparse through dense, triangles kept
            g = random_graph(rng, n, p)
            if trial % 4 == 0 and n > 1:
                # isolated vertices: pad with edge-free vertices, interleaved
                extra = int(rng.integers(1, 10))
                perm = rng.permutation(n + extra)
                arr = g.edge_array()
                g = SimpleGraphView.from_edge_arrays(
                    n + extra, perm[arr[:, 0]], perm[arr[:, 1]])
            self.assert_same_as_heap(g, trial)
        for n in (1, 2, 7):  # m = 0, n = 1 included
            self.assert_same_as_heap(SimpleGraphView.from_edges(n, []), n)
        self.assert_same_as_heap(SimpleGraphView.from_edges(2, [(0, 1)]), 0)

    def test_min_degree_matches_heap_on_instance(self):
        g = build(feasible_params(2000), 0).graph
        self.assert_same_as_heap(g, 1)

    def test_empty_graph(self):
        g = SimpleGraphView.from_edges(5, [])
        assert independence_greedy(g, restarts=1, seed=0).value == 5


class TestIsIndependent:
    def test_accepts_and_rejects(self):
        g = SimpleGraphView.from_edges(4, [(0, 1), (1, 2)])
        assert is_independent_set(g, [0, 2, 3])
        assert not is_independent_set(g, [0, 1])
        assert is_independent_set(g, [])
        assert not is_independent_set(g, [0, 2, 0])
        for bad in ([0, 4], [-1]):
            with pytest.raises(ValueError):
                is_independent_set(g, bad)
        # against the definition: no edge has both ends in the set
        rng = np.random.default_rng(26)
        h = random_graph(rng, 30, 0.1)
        edges = {tuple(e) for e in h.edge_array().tolist()}
        for _ in range(50):
            s = rng.choice(30, size=int(rng.integers(0, 8)), replace=False).tolist()
            want = not any((u, v) in edges for u in s for v in s)
            assert is_independent_set(h, s) == want
