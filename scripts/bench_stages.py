#!/usr/bin/env python3
"""Wall times of one source tree, end to end and per stage, as BENCH_<label>.json.

Usage: python3 scripts/bench_stages.py LABEL [--src DIR]

At seed 0 and feasible_params(n) for n in SIZES (the CLI's --clamp, which
equals derive_params wherever that is buildable), the file records:

- the machine: nproc, the numpy version and BLAS, the BLAS thread count;
- end to end: CLI build, verify, alpha --method greedy and diagnose, each in
  a fresh interpreter, with the sha256 of the built files, of the --json
  stdout of verify, alpha --method greedy and diagnose, and of the text
  stdout of build and verify (run in the work directory on a relative path,
  so the digests compare across trees);
- reading: serialize.read_instance on the built file, and
  construction.rebuild(read_instance(path)), in a fresh interpreter (the
  reader makes the record's CSR, so read_instance includes it, and rebuild
  assembles around that CSR without making another; in trees where the
  record held a raw edge array, read_instance did not make the CSR and
  rebuild made it);
- per stage: the induce (construction._placed_adjacency), the CSR
  (graphview.from_edge_arrays), the check that the CSR is the placed graph
  (row placed_edges_are: PlacedGraph.edges_are_placed(), its own
  edge_array() included; in trees where it took the edge array, the row
  times edge_array() and that call), the
  triangle count (graphview.count_triangles), the factorized triangle
  certificate (ColoredProductGraph.triangle_certificate),
  greedy alpha (independence.independence_greedy, 1 and 3 restarts) and
  its swap step alone (independence._swap_improve on one min-degree pass),
  in process, with the greedy values and the sha256 of the 3-restart
  certificate;
- k-set classification: analysis.classify_sets on diagnose's default 15
  sets (sample_k_sets(..., n_random=5, seed=0)), in process, with the
  sha256 of their to_dict() values;
- the edge-deletion baseline: baselines.edge_deletion_baseline(n, p, 0) at
  the same p, in process, with the sha256 of its stats and CSR (the
  triangle kernel on G(n, p), where the placed graph has no triangle);
- triple systems: CLI hyper --explicit and verify on its file at each of
  HYPER_SHAPES, with the sha256 of the written files and of verify --json;
- exact alpha: independence.independence_exact, in process, on EXACT_SHAPES
  (each built by construction.build at its seeds): the time of all the
  seeds of a shape, their node counts, values and optimal flags, and the
  sha256 of their certificates.

Each figure is the median of REPEATS runs.  --src picks the tree whose
package is timed (default: this checkout's src/), so one script compares
two trees on one machine.  The file goes to the repository root.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# fixed before any interpreter below loads numpy
THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

ROOT = Path(__file__).resolve().parent.parent
SIZES = (2000, 10000, 30000)
# (N, n, p, k): the explicit triple-system shapes of perfbench's desk workload
HYPER_SHAPES = ((7, 40, 0.3, 10), (8, 50, 0.3, 12))
# (n, N, p, k, seeds): pool seeds 0-7 of perfbench's desk exact-alpha
# instances, and one n = 200 instance
EXACT_SHAPES = ((120, 12, 0.3, 20, range(8)), (200, 15, 0.3, 30, (0,)))
REPEATS = 3

MACHINE = """
import json, os, numpy as np
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"nproc": os.cpu_count(), "numpy": np.__version__,
                  "blas": f"{blas['name']} {blas['version']}"}))
"""

STAGES = """
import hashlib, json, sys
from time import perf_counter
from trioverlay import analysis as an, construction as c, independence as ind
from trioverlay.baselines import edge_deletion_baseline
from trioverlay.graphview import SimpleGraphView, count_triangles
from trioverlay.params import feasible_params
par = feasible_params(int(sys.argv[1]))
gr, gb = c.sample_base_graphs(par, 0)
g2 = c.apply_deletion_rule(c.conormal_product(gr, gb), gr, gb)
placement = c.sample_injection(par, 0)
t0 = perf_counter()
us, vs = c._placed_adjacency(g2, placement)
t1 = perf_counter()
graph = SimpleGraphView.from_edge_arrays(par.n, us, vs)
t2 = perf_counter()
placed = c._assemble(par, 0, gr, gb, placement, graph)
t3 = perf_counter()
try:
    assert placed.edges_are_placed()
except TypeError:  # trees whose certificate was handed the edge array
    assert placed.edges_are_placed(graph.edge_array())
t4 = perf_counter()
assert count_triangles(graph) == 0
t5 = perf_counter()
greedy1 = ind.independence_greedy(graph, restarts=1, seed=0)
t6 = perf_counter()
greedy3 = ind.independence_greedy(graph, restarts=3, seed=0)
t7 = perf_counter()
chosen = ind._greedy_min_degree(graph, c.child_rng(0, c.STREAM_GREEDY))
t8 = perf_counter()
ind._swap_improve(graph, chosen)
t9 = perf_counter()
assert g2.triangle_certificate() == 0
certificate = perf_counter() - t9
sets = an.sample_k_sets(placed, n_random=5, seed=0)
t10 = perf_counter()
classified = [an.classify_sets(I, placed).to_dict() for _, I in sets]
t11 = perf_counter()
deletion = edge_deletion_baseline(par.n, par.p, 0)
t12 = perf_counter()
cert = json.dumps(greedy3.certificate).encode()
deleted = json.dumps(deletion.stats, sort_keys=True).encode()
print(json.dumps({"N": par.N, "m": graph.m, "placed_adjacency": t1 - t0,
                  "from_edge_arrays": t2 - t1, "placed_edges_are": t4 - t3,
                  "count_triangles": t5 - t4, "triangle_certificate": certificate,
                  "greedy_1": t6 - t5, "greedy_3": t7 - t6,
                  "swap_improve": t9 - t8, "classify_sets": t11 - t10,
                  "edge_deletion": t12 - t11,
                  "edge_deletion_sha256": hashlib.sha256(
                      deleted + deletion.graph.indptr.tobytes()
                      + deletion.graph.indices.tobytes()).hexdigest(),
                  "classify_sha256": hashlib.sha256(
                      json.dumps(classified).encode()).hexdigest(),
                  "greedy": {"value_1": greedy1.value, "value_3": greedy3.value,
                             "certificate_3_sha256":
                                 hashlib.sha256(cert).hexdigest()}}))
"""

READ = """
import json, sys
from time import perf_counter
from trioverlay.construction import rebuild
from trioverlay.serialize import read_instance
t0 = perf_counter()
read_instance(sys.argv[1])
t1 = perf_counter()
rebuild(read_instance(sys.argv[1]))
t2 = perf_counter()
print(json.dumps({"read_instance": t1 - t0, "rebuild_read": t2 - t1}))
"""

EXACT = """
import hashlib, json, sys
from time import perf_counter
from trioverlay.construction import build
from trioverlay.independence import independence_exact
from trioverlay.params import explicit_params
n, N, p, k, *seeds = json.loads(sys.argv[1])
graphs = [build(explicit_params(n=n, N=N, p=p, k=k), s).graph for s in seeds]
t0 = perf_counter()
results = [independence_exact(g) for g in graphs]
t1 = perf_counter()
certs = json.dumps([r.certificate for r in results]).encode()
print(json.dumps({"exact": t1 - t0, "nodes": [r.nodes for r in results],
                  "values": [r.value for r in results],
                  "optimal": [r.optimal for r in results],
                  "certificates_sha256": hashlib.sha256(certs).hexdigest()}))
"""


def python(env, work: Path, *args) -> str:
    """stdout of a fresh interpreter run in the work directory."""
    return subprocess.run([sys.executable, *args], env=env, cwd=work,
                          check=True, capture_output=True, text=True).stdout


def timed_cli(env, work: Path, argv) -> float:
    t0 = perf_counter()
    python(env, work, "-m", "trioverlay.cli", *argv)
    return perf_counter() - t0


def cli_medians(env, work: Path, argvs: dict) -> dict:
    """Median wall time of each CLI command line, in order."""
    return {key: round(statistics.median(timed_cli(env, work, argv)
                                         for _ in range(REPEATS)), 4)
            for key, argv in argvs.items()}


def stdout_digests(env, work: Path, argvs: dict, *extra) -> dict:
    """sha256 of the stdout of each CLI command line, extra flags appended."""
    return {key: hashlib.sha256(python(
        env, work, "-m", "trioverlay.cli", *argv, *extra).encode()).hexdigest()
            for key, argv in argvs.items()}


def digests(path: Path) -> dict:
    """sha256 of the written file and its sidecar."""
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in (path, Path(f"{path}.json"))}


def medians(runs: list, keys) -> dict:
    return {key: round(statistics.median(r[key] for r in runs), 4)
            for key in keys}


def bench_size(env, n: int, work: Path) -> dict:
    path = f"n{n}.edges"  # relative to work: it appears in the reports
    build = {"build": ["build", "--n", str(n), "--clamp", "--seed", "0",
                       "--out", path]}
    cli = cli_medians(env, work, build)
    readers = {"verify": ["verify", path],
               "alpha_greedy": ["alpha", path, "--method", "greedy"],
               "diagnose": ["diagnose", path]}
    cli.update(cli_medians(env, work, readers))
    runs = [json.loads(python(env, work, "-c", STAGES, str(n)))
            for _ in range(REPEATS)]
    stages = medians(runs, ("placed_adjacency", "from_edge_arrays",
                            "placed_edges_are", "count_triangles",
                            "triangle_certificate", "greedy_1", "greedy_3",
                            "swap_improve", "classify_sets", "edge_deletion"))
    stages.update(medians([json.loads(python(env, work, "-c", READ, path))
                           for _ in range(REPEATS)],
                          ("read_instance", "rebuild_read")))
    return {"n": n, "N": runs[0]["N"], "m": runs[0]["m"], "cli_s": cli,
            "stage_s": stages, "greedy": runs[0]["greedy"],
            "classify_sha256": runs[0]["classify_sha256"],
            "edge_deletion_sha256": runs[0]["edge_deletion_sha256"],
            "sha256": digests(work / path),
            "json_stdout_sha256": stdout_digests(env, work, readers, "--json"),
            "text_stdout_sha256": stdout_digests(
                env, work, {**build, "verify": readers["verify"]})}


def bench_hyper(env, shape: tuple, work: Path) -> dict:
    N, n, p, k = shape
    path = f"hyper{N}.triples"
    verify = {"verify": ["verify", path]}
    cli = cli_medians(env, work, {
        "hyper": ["hyper", "--explicit", "--N", str(N), "--n", str(n),
                  "--p", str(p), "--k", str(k), "--seed", "0",
                  "--out", path], **verify})
    return {"N": N, "n": n, "p": p, "k": k, "cli_s": cli,
            "sha256": digests(work / path),
            "json_stdout_sha256": stdout_digests(env, work, verify, "--json")}


def bench_exact(env, shape: tuple, work: Path) -> dict:
    n, N, p, k, seeds = shape
    arg = json.dumps([n, N, p, k, *seeds])
    runs = [json.loads(python(env, work, "-c", EXACT, arg))
            for _ in range(REPEATS)]
    return {"n": n, "N": N, "p": p, "k": k, "seeds": list(seeds),
            "stage_s": medians(runs, ("exact",)),
            **{key: runs[0][key] for key in ("nodes", "values", "optimal",
                                             "certificates_sha256")}}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label")
    ap.add_argument("--src", default=str(ROOT / "src"))
    args = ap.parse_args()
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))
    report = {"label": args.label, "seed": 0, "repeats": REPEATS,
              **json.loads(python(env, ROOT, "-c", MACHINE)),
              "blas_threads": int(THREADS), "sizes": [], "hyper": [],
              "exact": []}
    with tempfile.TemporaryDirectory() as work:
        for n in SIZES:
            report["sizes"].append(bench_size(env, n, Path(work)))
            print(json.dumps(report["sizes"][-1]), file=sys.stderr)
        for shape in HYPER_SHAPES:
            report["hyper"].append(bench_hyper(env, shape, Path(work)))
            print(json.dumps(report["hyper"][-1]), file=sys.stderr)
        for shape in EXACT_SHAPES:
            report["exact"].append(bench_exact(env, shape, Path(work)))
            print(json.dumps(report["exact"][-1]), file=sys.stderr)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(out)


if __name__ == "__main__":
    main()
