"""The three benchmark workloads, one round at a time.

A round runs a fixed list of operations on inputs made from one round seed,
times each operation, then checks the outputs with ``checks`` outside the
timed part.  ``instance`` and ``desk`` go through ``trioverlay.cli.main``
exactly as a shell user would; ``grid`` calls the layer functions a Python
user would, since no subcommand stops short of materializing edges.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

# layer functions are looked up on their modules at call time, so that a
# traced round sees the recorder's wrappers
from trioverlay import analysis, cli, construction, params

from . import checks

# instance: the CLI path on one derived instance.  n = 2000 needs --clamp
# (N lifted from 35 to 45); at n = 6000, the first round n placed without
# clamping, one round takes about 34 s and a run would hold one round.
INSTANCE_N = 2000
# grid: derived n = 10^5, N = 754, pN ~ 4.05; no edge is materialized
GRID_N = 100_000
# desk: sweep sizes (plus a 0..3 offset drawn per round), explicit triple
# systems (N, n, p, k) and explicit placed instances for the exact solver
SWEEP_N = (150, 250)
SWEEP_CONSTRUCTIONS = "overlay,edge-deletion,process"
HYPER = ((7, 40, 0.3, 10), (8, 50, 0.3, 12))
EXACT = dict(n=120, N=12, p=0.3, k=20)
EXACT_PER_ROUND = 8
# the exact instances are drawn from a fixed pool whose optima, solved by
# networkx's clique search (several times slower than the solver under
# test), are stored in EXACT_REFERENCE; reference.py regenerates that file
EXACT_POOL = 128
EXACT_REFERENCE = Path(__file__).with_name("exact_alpha.json")
CONFIG_FIRST_N = 300
# sampled pairs per pair-level check
PAIRS = 400


@dataclass
class Op:
    label: str
    ok: bool
    wall: float
    expected_failure: bool = False


@dataclass
class Round:
    ops: list[Op] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    alpha_greedy: int = 0

    @property
    def wall(self) -> float:
        return sum(op.wall for op in self.ops)

    def stage(self, *labels: str) -> float:
        return sum(op.wall for op in self.ops if op.label in labels)

    def _run(self, label, fn, expected_failure=False):
        """Time fn(); an exception or a nonzero exit code fails the op."""
        t0 = perf_counter()
        try:
            value, ok = fn(), True
        except Exception:
            value, ok = None, False
            if not expected_failure:
                traceback.print_exc(file=sys.stderr)
        self.ops.append(Op(label, ok, perf_counter() - t0, expected_failure))
        return value

    def call(self, label, fn, *args):
        return self._run(label, lambda: fn(*args))

    def cli(self, label, argv, expected_failure=False):
        """Run one CLI command; returns its stdout when it exits 0."""
        def command():
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main([str(a) for a in argv])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            if code != 0:
                raise RuntimeError(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
            return out.getvalue()
        return self._run(label, command, expected_failure)

    def check(self, name: str, fn, *args) -> None:
        """Record a check; an exception while checking is a failed check.

        A name checked more than once in a round passes only if every
        instance passes.
        """
        try:
            ok = bool(fn(*args))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        self.checks[name] = self.checks.get(name, True) and ok


def _sample_pairs(rng, n: int, edges: np.ndarray, count: int) -> np.ndarray:
    """Half edges, half uniform pairs of distinct vertices."""
    picked = edges[rng.integers(0, len(edges), count // 2)] if len(edges) else \
        np.empty((0, 2), dtype=np.int64)
    u = rng.integers(0, n, count)
    v = (u + rng.integers(1, n, count)) % n
    return np.vstack([picked, np.column_stack([u, v])[:count - len(picked)]])


# ---------------------------------------------------------------- instance


def instance_round(work: str, seed: int) -> Round:
    r = Round()
    path = os.path.join(work, "instance.edges")
    r.cli("build", ["build", "--n", INSTANCE_N, "--clamp", "--seed", seed,
                    "--out", path])
    r.cli("verify", ["verify", path])
    diag = r.cli("diagnose", ["diagnose", path, "--json", "--seed", seed])
    alpha = r.cli("alpha", ["alpha", path, "--method", "greedy", "--json"])

    if not os.path.exists(path) or diag is None or alpha is None:
        return r
    n, edges = checks.read_edge_file(path)
    sidecar = checks.read_sidecar(path)
    rng = np.random.default_rng(seed)
    cert = json.loads(alpha)["greedy"]["certificate"]
    r.alpha_greedy = len(cert)
    r.check("triangle_free", checks.triangle_free, n, edges)
    r.check("deletion_rule", checks.placed_pairs_match_rule, edges, sidecar,
            _sample_pairs(rng, n, edges, PAIRS))
    r.check("greedy_independent", checks.independent, edges, cert)
    r.check("greedy_at_least_max_degree",
            lambda: len(cert) >= checks.max_degree(n, edges))
    r.check("pairs_closed_plus_open", lambda: all(
        s["closed"] + s["open"] == s["k"] * (s["k"] - 1) // 2
        for s in json.loads(diag)["k_sets"]))
    return r


# ---------------------------------------------------------------- grid


def _cellgraph(seed: int):
    """params -> bases -> product -> deleted product, flag counts, placement."""
    par = params.derive_params(GRID_N)
    red, blue = construction.sample_base_graphs(par, seed)
    product = construction.conormal_product(red, blue)
    product.flag_counts()
    deleted = construction.apply_deletion_rule(product, red, blue)
    deleted.flag_counts()
    placement = construction.sample_injection(par, seed)
    return par, red, blue, product, deleted, placement


def grid_round(work: str, seed: int) -> Round:
    r = Round()
    built = r.call("cellgraph", _cellgraph, seed)
    if built is None:
        return r
    par, red, blue, product, deleted, placement = built
    report = r.call("concentration", analysis.concentration_report, red, blue,
                    placement, par)
    if report is None:
        return r

    def certificate(g):
        return checks.cell_triangle_certificate(g.red_row, g.red_col,
                                                g.blue_row, g.blue_col)
    rng = np.random.default_rng(seed)
    base_edges = np.vstack([np.argwhere(np.triu(red.adj, 1)),
                            np.argwhere(np.triu(blue.adj, 1))])
    r.check("deleted_product_triangle_free", lambda: certificate(deleted) == 0)
    r.check("product_has_triangles", lambda: certificate(product) > 0)
    r.check("deletion_rule", checks.product_pairs_match_rule, deleted,
            red.adj, blue.adj, _sample_pairs(rng, par.N, base_edges, PAIRS))
    want = checks.concentration_counts(red.adj, blue.adj, placement.rows,
                                       placement.cols, par)
    r.check("concentration_counts", lambda: all(
        report.check(i).n_violations == v for i, v in want.items()))
    return r


# ---------------------------------------------------------------- desk


def _sweep_rows(path: str) -> list[dict]:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def exact_build_argv(pool_seed: int, path: str) -> list:
    return ["build", "--explicit", "--n", EXACT["n"], "--N", EXACT["N"],
            "--p", EXACT["p"], "--k", EXACT["k"], "--seed", pool_seed,
            "--out", path]


def desk_round(work: str, seed: int) -> Round:
    r = Round()
    rng = np.random.default_rng(seed)
    ns = [n + int(rng.integers(0, 4)) for n in SWEEP_N]
    sweep_csv = os.path.join(work, "sweep.csv")
    r.cli("sweep", ["sweep", "--n", ",".join(map(str, ns)), "--seeds", 1,
                    "--constructions", SWEEP_CONSTRUCTIONS, "--out", sweep_csv])
    triple_files = []
    for N, n, p, k in HYPER:
        path = os.path.join(work, f"hyper{N}.triples")
        r.cli("hyper", ["hyper", "--explicit", "--N", N, "--n", n, "--p", p,
                        "--k", k, "--seed", seed, "--out", path])
        r.cli("hyper_verify", ["verify", path])
        triple_files.append(path)
    exact = []
    for j, pool_seed in enumerate(rng.choice(EXACT_POOL, EXACT_PER_ROUND,
                                             replace=False)):
        path = os.path.join(work, f"exact{j}.edges")
        r.cli("exact_build", exact_build_argv(int(pool_seed), path))
        out = r.cli("exact", ["alpha", path, "--method", "exact", "--json"])
        if out is not None:
            exact.append((path, int(pool_seed), json.loads(out)["exact"]))
    # a config file given before the subcommand: rejected with exit 2 today,
    # on the same inputs whatever the seed
    cfg = os.path.join(work, "first.cfg")
    config_out = os.path.join(work, "config_first.edges")
    with open(cfg, "w") as fh:
        fh.write(f"n={CONFIG_FIRST_N}\nseed=0\nclamp=1\nout={config_out}\n")
    if r.cli("config_first_build", ["--config", cfg, "build"],
             expected_failure=True) is not None:
        r.check("config_first_triangle_free",
                lambda: checks.triangle_free(*checks.read_edge_file(config_out)))

    if os.path.exists(sweep_csv):
        rows = _sweep_rows(sweep_csv)
        r.alpha_greedy = sum(int(row["alpha_greedy"]) for row in rows)
        r.check("sweep_rows", lambda: len(rows) == len(ns) * len(
            SWEEP_CONSTRUCTIONS.split(",")))
        r.check("sweep_alpha_at_least_max_degree", lambda: all(
            int(row["alpha_greedy"]) >= int(row["max_degree"]) for row in rows))
        r.check("process_maximal", lambda: all(
            "maximal=True" in row["diag"].split(";")
            for row in rows if row["construction"] == "process"))
    for path in triple_files:
        if os.path.exists(path):
            r.check("star_free",
                    lambda: checks.star_free(*checks.read_triple_file(path)))
    reference = json.loads(EXACT_REFERENCE.read_text())["alpha"]
    for path, pool_seed, res in exact:
        n, edges = checks.read_edge_file(path)
        r.check("exact_optimum", lambda: res["optimal"]
                and checks.independent(edges, res["certificate"])
                and res["value"] == len(res["certificate"])
                == reference[str(pool_seed)])
    return r


WORKLOADS = {"instance": instance_round, "grid": grid_round, "desk": desk_round}

# the end-to-end stage figures printed with each untraced run
STAGES = {
    "instance": {"build_s": ("build",), "verify_s": ("verify",),
                 "diagnose_s": ("diagnose",), "alpha_s": ("alpha",)},
    "grid": {"cellgraph_s": ("cellgraph",),
             "concentration_s": ("concentration",)},
    "desk": {"sweep_s": ("sweep",), "hyper_s": ("hyper", "hyper_verify"),
             "exact_s": ("exact",)},
}
