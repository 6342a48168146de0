#!/usr/bin/env python3
"""
Build one overlay instance end to end, verify it, and save it.

Usage: python3 build_and_verify.py [n] [seed]
       (defaults: n=2000, seed=0)

The construction places n vertices injectively into an N x N grid of
cells, draws two sparse base graphs on the rows and the columns, takes
their flagged conormal product, deletes every flag that would close a
triangle through the other color, and reads the surviving cell edges
back through the placement.  The result is triangle-free by a local
argument, which we re-check here by counting triangles.
"""
import sys
import time

from trioverlay.construction import build
from trioverlay.graphview import count_triangles
from trioverlay.params import feasible_params
from trioverlay.serialize import graph_record, read_instance, write_instance


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0

    par = feasible_params(n)
    print(f"parameters (mode={par.mode}):")
    print(f"  n = {par.n}   N = {par.N}   p = {par.p:.6f}   k = {par.k}")
    print(f"  size thresholds t1/t2/t3 = "
          f"{par.t1:.1f} / {par.t2:.1f} / {par.t3:.1f}")

    t0 = time.time()
    inst = build(par, seed)
    dt = time.time() - t0
    g = inst.graph
    print(f"\nbuilt in {dt:.2f}s: {g.n} vertices, {g.m} edges, "
          f"max degree {g.max_degree()}")
    print(f"  cell edges before deletion: {inst.stats['cell_edges_product']}")
    print(f"  cell edges after deletion:  {inst.stats['cell_edges_deleted_stage']}")
    dens = g.m / (g.n * (g.n - 1) / 2)
    print(f"  edge density {dens:.6f} = {dens / par.p:.3f} * p")

    tri = count_triangles(g)
    print(f"\ntriangles: {tri}")
    if tri:
        raise SystemExit("construction produced a triangle -- this is a bug")
    print("triangle-free: confirmed")

    paths = write_instance(graph_record(inst), f"overlay_n{n}_s{seed}.edges")
    print(f"\nwrote {paths}")
    back = read_instance(paths[0])
    assert back.graph.edge_array().tolist() == g.edge_array().tolist()
    print("re-read the edge list: edges match")


if __name__ == "__main__":
    main()
