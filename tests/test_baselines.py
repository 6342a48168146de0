"""Baseline constructions: edge deletion over G(n, p) and the greedy process."""

import math
import os
from dataclasses import fields
import subprocess
import sys

import numpy as np
import pytest

import trioverlay
from trioverlay import baselines
from trioverlay.baselines import edge_deletion_baseline, triangle_free_process
from trioverlay.graphview import count_triangles
from trioverlay.params import feasible_params

from oracles import (edge_deletion_loop, triangle_free_process_scalar,
                     triangles_bruteforce)


def assert_same_result(got, want):
    assert got.graph.n == want.graph.n
    for field in ("indptr", "indices"):
        a, b = getattr(got.graph, field), getattr(want.graph, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert got.stats == want.stats


class TestEdgeDeletion:
    def test_trivial_densities(self):
        res = edge_deletion_baseline(20, 0.0, seed=0)
        assert res.graph.m == 0
        assert res.stats == {"m_initial": 0, "triangles_initial": 0,
                             "edges_deleted": 0, "m_final": 0, "p": 0.0}
        one = edge_deletion_baseline(1, 0.5, seed=0)
        assert one.graph.n == 1 and one.graph.m == 0

    def test_complete_triangle(self):
        # K_3 has one triangle; its lex-least edge (0, 1) goes
        res = edge_deletion_baseline(3, 1.0, seed=0)
        assert res.stats["m_initial"] == 3
        assert res.stats["triangles_initial"] == 1
        assert res.stats["edges_deleted"] == 1
        assert res.graph.edge_array().tolist() == [[0, 2], [1, 2]]

    def test_complete_k4(self):
        # lex pass over K_4: (0,1) dies for c=2, (0,2) for c=3, (1,2) for
        # c=3; what remains is the star at 3
        res = edge_deletion_baseline(4, 1.0, seed=1)
        assert res.graph.edge_array().tolist() == [[0, 3], [1, 3], [2, 3]]
        assert res.stats["edges_deleted"] == 3

    def test_always_triangle_free(self):
        for seed in range(6):
            res = edge_deletion_baseline(40, 0.25, seed=seed)
            g = res.graph
            assert triangles_bruteforce(g.n, g.edge_array()) == 0
            assert res.stats["m_final"] == g.m
            assert res.stats["m_initial"] == g.m + res.stats["edges_deleted"]

    def test_initial_counts_pre_deletion(self):
        # the recorded triangle count is the G(n, p) one, not post-pass
        res = edge_deletion_baseline(60, 0.4, seed=3)
        assert res.stats["triangles_initial"] > 0
        expect = 0.4 ** 3 * math.comb(60, 3)
        assert 0.3 * expect < res.stats["triangles_initial"] < 3 * expect

    def test_retention_at_sparse_density(self):
        # p = c/sqrt(n) deletes only an O(p^3 n^3) = O(m * c^2) share; with
        # c = 0.3 the retained fraction should stay above 90 percent
        n = 500
        p = 0.3 / math.sqrt(n)
        kept = []
        for seed in range(20):
            res = edge_deletion_baseline(n, p, seed=seed)
            if res.stats["m_initial"]:
                kept.append(res.stats["m_final"] / res.stats["m_initial"])
        assert sum(kept) / len(kept) > 0.9

    def test_deterministic(self):
        a = edge_deletion_baseline(50, 0.2, seed=7)
        b = edge_deletion_baseline(50, 0.2, seed=7)
        assert (a.graph.edge_array() == b.graph.edge_array()).all()
        c = edge_deletion_baseline(50, 0.2, seed=8)
        assert a.graph.m != c.graph.m or \
            (a.graph.edge_array() != c.graph.edge_array()).any()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            edge_deletion_baseline(0, 0.5, seed=0)
        with pytest.raises(ValueError):
            edge_deletion_baseline(5, 1.5, seed=0)
        with pytest.raises(ValueError):
            edge_deletion_baseline(5, -0.1, seed=0)


class TestTriangleFreeProcess:
    def test_tiny_orders(self):
        # n = 2: the single pair is open, gets inserted, done
        res = triangle_free_process(2, seed=0)
        assert res.graph.m == 1
        assert res.stats["maximal"]
        # n = 3: two edges always fit, the third closes a triangle
        for seed in range(5):
            res = triangle_free_process(3, seed=seed)
            assert res.graph.m == 2
            assert res.stats["maximal"]

    def test_triangle_free_and_maximal(self):
        for seed in range(4):
            res = triangle_free_process(25, seed=seed)
            g = res.graph
            assert count_triangles(g) == 0
            assert res.stats["maximal"]
            assert res.stats["open_remaining"] == 0
            # maximality: every non-edge closes some triangle
            adj = g.to_dense()
            for u in range(25):
                for v in range(u + 1, 25):
                    if not adj[u, v]:
                        assert (adj[u] & adj[v]).any(), (u, v)

    def test_steps_equal_edges(self):
        res = triangle_free_process(30, seed=2)
        assert res.stats["steps"] == res.graph.m == res.stats["m_final"]

    def test_max_steps_cutoff(self):
        res = triangle_free_process(30, seed=1, max_steps=5)
        assert res.graph.m == 5
        assert not res.stats["maximal"]
        assert res.stats["open_remaining"] > 0
        assert count_triangles(res.graph) == 0

    def test_open_pair_accounting(self):
        # rebuild the closed-pair count from the final graph: a pair is
        # closed iff it is an edge or has a common neighbor
        res = triangle_free_process(20, seed=4)
        adj = res.graph.to_dense()
        closed = 0
        for u in range(20):
            for v in range(u + 1, 20):
                if adj[u, v] or (adj[u] & adj[v]).any():
                    closed += 1
        assert closed == math.comb(20, 2)  # maximal: everything closed

    def test_deterministic(self):
        a = triangle_free_process(40, seed=9)
        b = triangle_free_process(40, seed=9)
        assert (a.graph.edge_array() == b.graph.edge_array()).all()

    def test_density_scale(self):
        # the greedy process lands near (1/sqrt 2) n^{3/2} sqrt(log n) edges;
        # only the coarse order is asserted here
        n = 200
        ms = [triangle_free_process(n, seed=s).graph.m for s in range(3)]
        lower = 0.3 * n ** 1.5 * math.sqrt(math.log(n))
        upper = 1.2 * n ** 1.5 * math.sqrt(math.log(n))
        assert all(lower < m < upper for m in ms)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            triangle_free_process(1, seed=0)
        with pytest.raises(ValueError, match="max_steps must be >= 0"):
            triangle_free_process(10, seed=0, max_steps=-1)


class TestResultShape:
    def test_fields(self):
        # a result holds what the run made, not the caller's arguments
        for res in (edge_deletion_baseline(10, 0.3, seed=0),
                    triangle_free_process(10, seed=0)):
            assert [f.name for f in fields(res)] == ["graph", "stats"]
            assert res.graph.n == 10

    def test_streams_differ(self):
        # same seed, different child streams: the G(n, p) stage of the
        # deletion baseline must not mirror the process's pair draws
        a = edge_deletion_baseline(30, 0.2, seed=5)
        b = triangle_free_process(30, seed=5)
        ea = {tuple(e) for e in a.graph.edge_array()}
        eb = {tuple(e) for e in b.graph.edge_array()}
        assert ea != eb


# ------------------------------------------------- equivalence with the loops


def test_process_matches_scalar():
    # batched draws against one scalar draw per attempt: same graph, stats
    for n in range(2, 41):
        for seed in range(3):
            for max_steps in (None, 0, 1, 5, 17):
                assert_same_result(
                    triangle_free_process(n, seed, max_steps=max_steps),
                    triangle_free_process_scalar(n, seed, max_steps=max_steps))
    for n in (150, 253):
        assert_same_result(triangle_free_process(n, seed=0),
                           triangle_free_process_scalar(n, seed=0))
    # cuts that land inside a chunk, at sweep sizes
    for n, seed, max_steps in ((150, 1, 1000), (253, 2, 3000)):
        got = triangle_free_process(n, seed, max_steps=max_steps)
        assert got.stats["steps"] == max_steps and not got.stats["maximal"]
        assert_same_result(
            got, triangle_free_process_scalar(n, seed, max_steps=max_steps))


@pytest.mark.parametrize("n, cut", [(30, 50), (150, 1000)])
@pytest.mark.parametrize("chunk", [1, 65536])
def test_process_does_not_depend_on_chunks(monkeypatch, n, cut, chunk):
    # chunk ends only decide when the closed-pair filter is brought up to
    # date; chunks of one draw and of 65,536 draws agree with the default
    # chunks, with and without a step cut
    want = {max_steps: triangle_free_process(n, 3, max_steps=max_steps)
            for max_steps in (None, cut)}
    monkeypatch.setattr(baselines, "_CHUNK_MIN", chunk)
    monkeypatch.setattr(baselines, "_CHUNK_MAX", chunk)
    for max_steps, res in want.items():
        got = triangle_free_process(n, 3, max_steps=max_steps)
        assert_same_result(got, res)
        assert [type(v) for v in got.stats.values()] == \
            [type(v) for v in res.stats.values()] == [int, int, int, bool]
    assert want[None].stats["maximal"] and not want[cut].stats["maximal"]


@pytest.mark.parametrize("n", [2, 3, 7, 253, 2**31, 2**33])
def test_chunked_draws_match_scalar_draws(n):
    # the process draws its attempts in chunks; this is the numpy behaviour
    # that keeps its stream, and its graphs, those of one draw per call
    chunks = [1, 2, 3, 997, 1, 3997, 2, 3]
    batched = np.random.default_rng(11)
    scalar = np.random.default_rng(11)
    for k in chunks:
        got = batched.integers(n, size=k)
        want = [scalar.integers(n) for _ in range(k)]
        assert got.tolist() == [int(x) for x in want], k
    assert batched.bit_generator.state == scalar.bit_generator.state


def test_edge_deletion_matches_loop():
    # the definition against the lexicographic bit loop it replaces
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(1, 91))
        p = float(rng.random())
        seed = int(rng.integers(0, 10_000))
        assert_same_result(edge_deletion_baseline(n, p, seed),
                           edge_deletion_loop(n, p, seed))
    p = feasible_params(2000).p
    assert_same_result(edge_deletion_baseline(2000, p, 0),
                       edge_deletion_loop(2000, p, 0))


# a baseline whose triangle check reports a triangle, run under python -O
_CHECK_UNDER_O = """
import sys
from trioverlay import baselines
baselines.count_triangles = lambda g: 1
try:
    eval(sys.argv[1], vars(baselines))
except AssertionError as exc:
    print(exc)
    sys.exit(3)
"""


@pytest.mark.parametrize("call", ["edge_deletion_baseline(12, 0.5, 0)",
                                  "triangle_free_process(12, 0)"],
                         ids=["edge-deletion", "process"])
def test_triangle_check_survives_optimize(call):
    # python -O strips assert statements; the check must not vanish with them
    pkg_root = os.path.dirname(os.path.dirname(trioverlay.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", _CHECK_UNDER_O, call],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert "triangle" in proc.stdout
