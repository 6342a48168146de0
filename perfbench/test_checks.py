"""Each benchmark check passes the program's output and rejects a corruption.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from trioverlay import (apply_deletion_rule, build, concentration_report,  # noqa: E402
                        conormal_product, explicit_params,
                        graph_record, independence_greedy, sample_base_graphs,
                        sample_injection, write_instance)

from perfbench import checks  # noqa: E402


@pytest.fixture(scope="module")
def placed():
    return build(explicit_params(n=150, N=14, p=0.3, k=20), seed=3)


@pytest.fixture(scope="module")
def instance_file(placed, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("inst") / "g.edges")
    write_instance(graph_record(placed), path)
    return path


@pytest.fixture(scope="module")
def grid():
    params = explicit_params(n=300, N=20, p=0.3, k=40)
    red, blue = sample_base_graphs(params, 5)
    product = conormal_product(red, blue)
    return params, red, blue, product, apply_deletion_rule(product, red, blue)


def _path_of_length_two(edges):
    """(u, w) joined through a common neighbour but not adjacent."""
    present = set(map(tuple, edges.tolist()))
    nb = {}
    for u, v in edges.tolist():
        nb.setdefault(u, []).append(v)
        nb.setdefault(v, []).append(u)
    for ends in nb.values():
        for a in ends:
            for b in ends:
                if a < b and (a, b) not in present:
                    return a, b
    raise AssertionError("no induced path of length two")


def test_edge_file_parses_to_the_program_edges(placed, instance_file):
    n, edges = checks.read_edge_file(instance_file)
    assert n == placed.n
    assert np.array_equal(edges, placed.graph.edge_array())


def test_triangle_free_rejects_an_edge_closing_a_triangle(instance_file):
    n, edges = checks.read_edge_file(instance_file)
    assert checks.triangle_free(n, edges, block=16)
    extra = np.array([_path_of_length_two(edges)])
    assert not checks.triangle_free(n, np.vstack([edges, extra]), block=16)


def test_independent_rejects_an_adjacent_pair(placed):
    edges = placed.graph.edge_array()
    cert = independence_greedy(placed.graph, restarts=1).certificate
    assert checks.independent(edges, cert)
    assert len(cert) >= checks.max_degree(placed.n, edges)
    v = cert[0]
    assert not checks.independent(edges, cert + [int(placed.graph.neighbors(v)[0])])
    assert not checks.independent(edges, cert + [v])


def test_placed_pairs_reject_a_flipped_edge(instance_file):
    n, edges = checks.read_edge_file(instance_file)
    sidecar = checks.read_sidecar(instance_file)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    assert checks.placed_pairs_match_rule(edges, sidecar, pairs)
    assert not checks.placed_pairs_match_rule(edges[1:], sidecar, pairs)
    extra = np.array([_path_of_length_two(edges)])
    assert not checks.placed_pairs_match_rule(np.vstack([edges, extra]),
                                              sidecar, pairs)


def test_product_pairs_reject_a_flipped_deletion_flag(grid):
    _, red, blue, _, deleted = grid
    N = red.N
    pairs = [(a, b) for a in range(N) for b in range(N)]
    assert checks.product_pairs_match_rule(deleted, red.adj, blue.adj, pairs)
    # a red base edge whose flag the rule removed, switched back on
    a, b = np.argwhere(red.adj & ~deleted.red_row)[0]
    deleted.red_row[a, b] = deleted.red_row[b, a] = True
    try:
        assert not checks.product_pairs_match_rule(deleted, red.adj, blue.adj,
                                                   pairs)
    finally:
        deleted.red_row[a, b] = deleted.red_row[b, a] = False


def test_cell_certificate_zero_only_after_deletion(grid):
    _, _, _, product, deleted = grid
    cert = checks.cell_triangle_certificate
    assert cert(deleted.red_row, deleted.red_col, deleted.blue_row,
                deleted.blue_col) == 0
    assert cert(product.red_row, product.red_col, product.blue_row,
                product.blue_col) > 0


def test_cell_certificate_matches_a_dense_count():
    params = explicit_params(n=20, N=6, p=0.5, k=8)
    red, blue = sample_base_graphs(params, 1)
    g = conormal_product(red, blue)
    r, b = g.to_dense()
    # summed over the 8 patterns, tr(M1 M2 M3) = tr((R + B)^3) on the cells
    flags = r.astype(np.int64) + b.astype(np.int64)
    walks = int(np.trace(flags @ flags @ flags))
    assert walks > 0
    assert checks.cell_triangle_certificate(g.red_row, g.red_col, g.blue_row,
                                            g.blue_col) == walks


def test_concentration_counts_match_the_report(grid):
    params, red, blue, _, _ = grid
    placement = sample_injection(params, 5)
    report = concentration_report(red, blue, placement, params)
    want = checks.concentration_counts(red.adj, blue.adj, placement.rows,
                                       placement.cols, params)
    assert all(report.check(i).n_violations == v for i, v in want.items())
    assert checks.window_violations([1, 2, 3, 9], center=2, tol=1) == 1


def test_star_free_rejects_a_star():
    triples = np.array([[0, 1, 2], [0, 1, 3], [1, 2, 4]])
    assert checks.star_free(5, triples)
    # centre 0 now carries triples on {0, 1, 2, 3}: its link has a triangle
    assert not checks.star_free(5, np.vstack([triples, [[0, 2, 3]]]))


def test_exact_alpha_on_known_graphs():
    cycle5 = np.array([[i, (i + 1) % 5] for i in range(5)])
    assert checks.exact_alpha(5, np.sort(cycle5, axis=1)) == 2
    outer = [[i, (i + 1) % 5] for i in range(5)]
    spokes = [[i, i + 5] for i in range(5)]
    inner = [[5 + i, 5 + (i + 2) % 5] for i in range(5)]
    petersen = np.sort(np.array(outer + spokes + inner), axis=1)
    assert checks.exact_alpha(10, petersen) == 4
    assert checks.exact_alpha(3, np.empty((0, 2), dtype=np.int64)) == 3
