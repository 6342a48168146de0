#!/usr/bin/env python3
"""Run the 3-uniform pipeline and watch the star reduction do its job.

The hypergraph layer mirrors the graph construction one level up: sample
two random 3-uniform base systems on the rows and columns, take the
flagged product over cell triples, inject onto n vertices, then strip
flags in four passes until no vertex is the center of a "star" (two
triples through it sharing their other two vertices pairwise with a
third).  The verifier re-derives star-freeness from per-link triangle
counts, independently of the reduction order.
"""
from trioverlay.graphview import SimpleGraphView, count_triangles
from trioverlay.hypergraph import (BLUE, RED, extract_link, hyper_product,
                                   inject_hyper, s4_reduction,
                                   sample_base_3graphs, verify_s4_free)
from trioverlay.params import explicit_params

par = explicit_params(n=36, N=6, p=0.6, k=4)
print(f"N={par.N} p={par.p} n={par.n}")

hr, hb = sample_base_3graphs(par, seed=3)
print(f"base systems: {hr.edge_count()} red triples on rows, "
      f"{hb.edge_count()} blue on columns")

h1 = hyper_product(hr, hb)
exp = (hr.count_with(RED) + hb.count_with(BLUE)) * 6 \
    * (par.N * (par.N - 1) * (par.N - 2) // 6)
print(f"product: {h1.edge_count()} flagged cell triples "
      f"(red {h1.count_with(RED)}, blue {h1.count_with(BLUE)}, "
      f"dual {h1.count_with(RED) + h1.count_with(BLUE) - h1.edge_count()})")
assert h1.count_with(RED) + h1.count_with(BLUE) == exp

h2 = inject_hyper(h1, par, seed=3)
print(f"injected onto n={par.n}: {h2.edge_count()} triples")

out = s4_reduction(h2)
kept = out.edge_count()
print(f"after the four reduction passes: {kept} triples "
      f"({h2.edge_count() - kept} dropped)")

ok = verify_s4_free(out)
print(f"star-free by the link verifier: {ok}")
assert ok

# sanity: links of the reduced system are triangle-free graphs -- that is
# exactly what star-freeness means pointwise
def link_graph(h, v):
    pairs, _ = extract_link(h, v)
    return SimpleGraphView.from_edge_arrays(h.order, pairs[:, 0], pairs[:, 1])


worst = max((count_triangles(link_graph(out, v)) for v in range(out.order)),
            default=0)
print(f"max triangles over all {out.order} links: {worst}")
assert worst == 0

# the unreduced system is generally NOT star-free, so the passes matter
print(f"unreduced system star-free: {verify_s4_free(h2)}")
