import json
from pathlib import Path

import numpy as np
import pytest

from oracles import (alpha_bruteforce, bitmask_rows_loop,
                     greedy_min_degree_heap, independence_exact_complement,
                     swap_improve_loop)
from trioverlay import independence
from trioverlay.construction import build, child_rng
from trioverlay.graphview import SimpleGraphView, count_triangles
from trioverlay.independence import (_bitmask_rows, _greedy_min_degree,
                                     _swap_improve, independence_exact,
                                     independence_greedy, is_independent_set)
from trioverlay.params import explicit_params, feasible_params


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

    @staticmethod
    def assert_same_search(g, budget):
        got = independence_exact(g, budget=budget)
        want = independence_exact_complement(g, budget=budget)
        assert (got.certificate, got.optimal, got.nodes) == \
            (want.certificate, want.optimal, want.nodes)

    @pytest.mark.parametrize("budget", [1, 5, 37, 10_000_000])
    def test_same_search_as_complement_colouring(self, budget):
        # same tree: same incumbents, same node count, same budget cut
        rng = np.random.default_rng(32)
        for _ in range(400):
            n = int(rng.integers(1, 61))
            g = random_graph(rng, n, float(rng.random()) ** 2)
            self.assert_same_search(g, budget)

    @pytest.mark.parametrize("seed, nodes", enumerate(
        [3775, 64, 37, 6, 1161, 824, 488, 6]))
    def test_pool_seeds_pinned(self, seed, nodes):
        # the benchmark's exact-alpha pool: optima solved apart from this code
        ref = Path(__file__).resolve().parents[1] / "perfbench" / "exact_alpha.json"
        alpha = json.loads(ref.read_text())["alpha"][str(seed)]
        g = build(explicit_params(n=120, N=12, p=0.3, k=20), seed).graph
        res = independence_exact(g)
        assert (res.value, res.optimal, res.nodes) == (alpha, True, nodes)
        self.assert_same_search(g, 10_000_000)


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
        assert ours.bit_generator.state == heap.bit_generator.state

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

    def test_min_degree_matches_heap_through_degree_zero_stretches(self):
        # picking a star's leaf removes its centre and leaves the other
        # leaves at degree 0, between isolated vertices and a sparse rest:
        # the run alternates positive-degree picks and degree-0 batches
        rng = np.random.default_rng(28)
        for trial in range(40):
            sizes = rng.integers(1, 30, size=int(rng.integers(1, 12)))
            us, vs, top = [], [], 0
            for k in sizes.tolist():
                us += [top] * k
                vs += range(top + 1, top + k + 1)
                top += k + 1
            rest = int(rng.integers(0, 80))
            ru, rv = rng.integers(rest, size=(2, rest)) + top if rest else ([], [])
            pairs = {(min(a, b), max(a, b)) for a, b in zip(ru, rv) if a != b}
            pairs |= set(zip(us, vs))
            n = top + rest + int(rng.integers(0, 40))
            perm = rng.permutation(n)
            e = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
            g = SimpleGraphView.from_edge_arrays(n, perm[e[:, 0]], perm[e[:, 1]])
            self.assert_same_as_heap(g, trial)

    def test_min_degree_matches_heap_on_instance(self):
        g = build(feasible_params(2000), 0).graph
        self.assert_same_as_heap(g, 1)

    def test_empty_graph(self):
        g = SimpleGraphView.from_edges(5, [])
        assert independence_greedy(g, restarts=1, seed=0).value == 5


def sparse_random_graph(rng, n, m):
    """About m uniform pairs, without the n^2 pair index of random_graph."""
    us, vs = rng.integers(n, size=(2, m))
    keys = np.unique(np.minimum(us, vs) * n + np.maximum(us, vs))
    keys = keys[keys // n != keys % n]
    return SimpleGraphView.from_edge_arrays(n, keys // n, keys % n)


class TestSwapImprove:
    """The array swaps against the set-and-dict loop they replace."""

    @staticmethod
    def assert_same_as_loop(g, chosen):
        assert _swap_improve(g, chosen) == swap_improve_loop(g, chosen)

    def test_matches_loop_on_small_graphs(self):
        rng = np.random.default_rng(29)
        for trial in range(200):
            n = int(rng.integers(1, 70))
            g = random_graph(rng, n, float(rng.random()) ** 2)
            greedy = _greedy_min_degree(g, child_rng(trial, 63))
            # greedy's set is maximal; a thinned one leaves room to add and
            # to swap, and its order sets the set's iteration order
            thinned = [v for v in greedy if rng.random() < 0.6]
            for chosen in (greedy, thinned, rng.permutation(thinned).tolist()):
                self.assert_same_as_loop(g, chosen)

    def test_matches_loop_where_set_order_is_not_ascending(self):
        # sets of small ints iterate in ascending order until the values
        # outgrow the hash table: here the owners' visiting order is not
        rng = np.random.default_rng(30)
        for trial in range(4):
            n = int(rng.integers(5000, 7000))
            g = sparse_random_graph(rng, n, n * int(rng.integers(15, 40)))
            greedy = _greedy_min_degree(g, child_rng(trial, 63))
            thinned = [v for v in greedy if rng.random() < 0.7]
            assert list(set(greedy)) != sorted(greedy)
            assert list(set(thinned)) != sorted(thinned)
            self.assert_same_as_loop(g, greedy)
            got = _swap_improve(g, thinned)
            assert got == swap_improve_loop(g, thinned)
            assert len(got) > len(thinned)

    def test_matches_loop_on_instance(self):
        g = build(feasible_params(2000), 0).graph
        rng = np.random.default_rng(31)
        greedy = _greedy_min_degree(g, child_rng(0, 63))
        self.assert_same_as_loop(g, greedy)
        self.assert_same_as_loop(g, [v for v in greedy if rng.random() < 0.7])


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


class TestBitmaskRows:
    """Python-int rows from packed_rows against the per-entry loop."""

    def test_matches_loop(self):
        rng = np.random.default_rng(14)
        for n in (0, 1, 2, 63, 64, 65, 129):
            for p in (0.0, 0.2, 1.0):
                g = random_graph(rng, n, p)
                assert _bitmask_rows(g) == bitmask_rows_loop(g)

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_solver_unchanged(self, seed, monkeypatch):
        # the shape of the benchmark's exact-alpha pool
        g = build(explicit_params(n=120, N=12, p=0.3, k=20), seed).graph
        assert _bitmask_rows(g) == bitmask_rows_loop(g)
        got = independence_exact(g)
        monkeypatch.setattr(independence, "_bitmask_rows", bitmask_rows_loop)
        want = independence_exact(g)
        assert (got.value, got.certificate, got.optimal, got.nodes) == \
            (want.value, want.certificate, want.optimal, want.nodes)
