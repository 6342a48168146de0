"""Experiment runner: build, verify, measure, and sweep instances.

Subcommands
-----------
build     derive or take explicit parameters, build one overlay graph, write it
hyper     same for the triple-system variant (desk scale only)
verify    reload an instance file and check its hard invariants
alpha     independence-number bounds for an instance file
diagnose  concentration report and k-set classification for a built instance
sweep     CSV comparison of constructions over a grid of n and seeds

Exit codes: 0 ok, 1 invariant/I-O violation, 2 usage error.  Reports print as
aligned text by default; ``--json`` switches to the full JSON record.  Any
subcommand accepts ``--config FILE`` with ``key=value`` lines mirroring the
flags; command-line flags override the file.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__ as VERSION
from .analysis import classify_sets, concentration_report, f_function, sample_k_sets
from .baselines import edge_deletion_baseline, triangle_free_process
from .construction import build, rebuild
from .graphview import count_triangles
from .hypergraph import BLUE, RED, hyper_product, inject_hyper, \
    s4_reduction, sample_base_3graphs, verify_s4_free
from .independence import DEFAULT_BUDGET, independence_exact, independence_greedy
from .params import Params, derive_params, explicit_params, feasible_params
from .serialize import graph_record, jsonify, read_instance, triple_record, \
    write_instance

__all__ = ["main"]

SWEEP_SCHEMA = f"# trioverlay sweep schema=1 version={VERSION}"
SWEEP_CONSTRUCTIONS = ("overlay", "edge-deletion", "process")


class _Usage(Exception):
    pass


def _resolve_params(args) -> Params:
    if args.explicit:
        for name in ("N", "p", "n", "k"):
            if getattr(args, name) is None:
                raise _Usage(f"--explicit requires --{name}")
        return explicit_params(n=args.n, N=args.N, p=args.p, k=args.k,
                               epsilon=args.eps)
    if args.n is None:
        raise _Usage("--n is required (or use --explicit)")
    kw = {"epsilon": args.eps, "beta": args.beta}
    if args.kappa is not None:
        kw["kappa"] = args.kappa
    if getattr(args, "clamp", False):
        return feasible_params(args.n, **kw)
    return derive_params(args.n, **kw)


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(jsonify(report), sort_keys=True, indent=1))
        return
    for line in _render(report):
        print(line)


def _render(report: dict, indent: str = "") -> list[str]:
    lines = []
    for key, val in report.items():
        if isinstance(val, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_render(val, indent + "  "))
        elif isinstance(val, (list, tuple)) and val and isinstance(val[0], dict):
            lines.append(f"{indent}{key}:")
            for item in val:
                lines.extend(_render(item, indent + "  "))
                lines.append(f"{indent}  -")
            lines.pop()
        else:
            lines.append(f"{indent}{key}: {jsonify(val)}")
    return lines


# ---------------------------------------------------------------- build


def cmd_build(args) -> int:
    params = _resolve_params(args)
    placed = build(params, args.seed)
    rec = graph_record(placed)
    out = args.out or f"overlay_n{params.n}_seed{args.seed}.edges"
    files = write_instance(rec, out, fmt=args.format)
    report = {
        "command": "build", "version": VERSION, "files": files,
        "seed": args.seed, "params": params.to_dict(), "stats": placed.stats,
    }
    _emit(report, args.json)
    return 0


# ---------------------------------------------------------------- hyper


def cmd_hyper(args) -> int:
    params = _resolve_params(args)
    hr, hb = sample_base_3graphs(params, args.seed)
    h1 = hyper_product(hr, hb)
    h2 = inject_hyper(h1, params, args.seed)
    h3 = s4_reduction(h2)
    ok = verify_s4_free(h3)
    stats = {
        "base_red_triples": hr.edge_count(),
        "base_blue_triples": hb.edge_count(),
        "product_triples": h1.edge_count(),
        "induced_triples": h2.edge_count(),
        "reduced_triples": h3.edge_count(),
        "reduced_red": h3.count_with(RED),
        "reduced_blue": h3.count_with(BLUE),
        "s4_free": ok,
    }
    rec = triple_record(h3, params=params, seed=args.seed, stats=stats)
    out = args.out or f"hyper_n{params.n}_seed{args.seed}.triples"
    files = write_instance(rec, out, fmt=args.format)
    report = {"command": "hyper", "version": VERSION, "files": files,
              "seed": args.seed, "params": params.to_dict(), "stats": stats}
    _emit(report, args.json)
    if not ok:
        print("error: reduction left a forbidden star", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- verify


def _verify_graph(rec, report: dict) -> bool:
    placed = rebuild(rec)
    g = rec.graph
    rederivable = placed is not None and placed.edges_are_placed()
    # the placed edges join distinct flagged cells, so a triangle of g is a
    # closed 3-walk of the cell graph: a zero certificate leaves none
    certified = rederivable and placed.product.triangle_certificate() == 0
    tri = 0 if certified else count_triangles(g)
    delta = g.max_degree()
    alpha = independence_greedy(g, restarts=1, seed=0)
    checks = {
        "triangle_free": tri == 0,
        "alpha_at_least_max_degree": alpha.value >= delta,
    }
    report["triangles"] = tri
    report["max_degree"] = delta
    report["alpha_greedy"] = alpha.value
    if rec.params is not None:
        checks["n_matches_params"] = rec.params.n == rec.n
    if placed is not None:
        checks["edges_rederivable"] = rederivable
        if rec.stats:  # the counts `build` wrote, against the rebuilt ones
            checks["stats_match"] = rec.stats == placed.stats
        conc = concentration_report(placed.base_red, placed.base_blue,
                                    placed.placement, placed.params)
        # soft: concentration is a trend, not an invariant
        report["concentration"] = conc.to_dict()
    report["checks"] = checks
    return all(checks.values())


def _verify_triples(rec, report: dict) -> bool:
    h = rec.system
    ok = verify_s4_free(h)
    # the link of v has one edge for each triple through v
    sizes = np.unique(h.triples, return_counts=True)[1]
    report["links"] = {
        "nonempty": len(sizes),
        "max_edges": int(sizes.max(initial=0)),
        "total_edges": int(sizes.sum()),
        "triple_count_times_3": 3 * h.edge_count(),
    }
    checks = {"s4_free": ok}
    # the reduced counts `hyper` wrote, against the file's triples and colours
    stats = rec.stats if isinstance(rec.stats, dict) else {}
    if {"reduced_triples", "reduced_red", "reduced_blue"} <= stats.keys():
        checks["stats_match"] = (
            stats["reduced_triples"] == h.edge_count()
            and stats["reduced_red"] == h.count_with(RED)
            and stats["reduced_blue"] == h.count_with(BLUE))
    report["checks"] = checks
    return all(checks.values())


def cmd_verify(args) -> int:
    rec = read_instance(args.path)
    report = {"command": "verify", "version": VERSION, "path": args.path,
              "kind": rec.kind, "n": rec.n, "seed": rec.seed,
              "params": None if rec.params is None else rec.params.to_dict()}
    if rec.kind == "graph":
        ok = _verify_graph(rec, report)
    else:
        ok = _verify_triples(rec, report)
    report["ok"] = ok
    _emit(report, args.json)
    return 0 if ok else 1


# ---------------------------------------------------------------- alpha


def cmd_alpha(args) -> int:
    rec = read_instance(args.path)
    if rec.kind != "graph":
        raise _Usage("alpha runs on graph instances")
    g = rec.graph
    report = {"command": "alpha", "version": VERSION, "path": args.path,
              "n": rec.n, "m": g.m, "seed": rec.seed,
              "params": None if rec.params is None else rec.params.to_dict()}
    norm = math.sqrt(rec.n * math.log(rec.n)) if rec.n > 1 else float("nan")
    if args.method in ("greedy", "both"):
        res = independence_greedy(g, restarts=args.restarts, seed=0)
        report["greedy"] = {"value": res.value, "ratio": res.value / norm,
                            "certificate": sorted(res.certificate)}
    if args.method in ("exact", "both"):
        res = independence_exact(g, budget=args.budget)
        report["exact"] = {"value": res.value, "optimal": res.optimal,
                           "nodes": res.nodes, "ratio": res.value / norm,
                           "certificate": sorted(res.certificate)}
    _emit(report, args.json)
    return 0


# ---------------------------------------------------------------- diagnose


def cmd_diagnose(args) -> int:
    rec = read_instance(args.path)
    if rec.kind != "graph":
        raise _Usage("diagnose runs on graph instances")
    placed = rebuild(rec)
    if placed is None:
        print("error: instance lacks provenance (params/placement/base edges);"
              " rebuild with the build subcommand", file=sys.stderr)
        return 1
    conc = concentration_report(placed.base_red, placed.base_blue,
                                placed.placement, placed.params)
    sets = sample_k_sets(placed, n_random=args.sets, seed=args.seed,
                         adversarial=not args.no_adversarial)
    rows = []
    for label, I in sets:
        cl = classify_sets(I, placed)
        entry = {"set": label}
        entry.update(cl.to_dict())
        entry["f_value"] = float(f_function(cl.proj_rows, cl.proj_cols,
                                            placed.params))
        rows.append(entry)
    report = {"command": "diagnose", "version": VERSION, "path": args.path,
              "seed": rec.seed, "params": placed.params.to_dict(),
              "concentration": conc.to_dict(), "k_sets": rows,
              "all_bounds_pass": conc.all_passed}
    _emit(report, args.json)
    return 0


# ---------------------------------------------------------------- sweep


def _sweep_cell(construction: str, n: int, seed: int, args):
    norm = math.sqrt(n * math.log(n))
    diag_parts = []
    if construction == "overlay":
        par = feasible_params(n, epsilon=args.eps, beta=args.beta)
        placed = build(par, seed)
        g = placed.graph
        conc = concentration_report(placed.base_red, placed.base_blue,
                                    placed.placement, par)
        npass = sum(1 for c in conc.checks if c.passed)
        diag_parts += [f"mode={par.mode}", f"p={par.p:.6g}",
                       f"conc={npass}/{len(conc.checks)}"]
    elif construction == "edge-deletion":
        par = feasible_params(n, epsilon=args.eps, beta=args.beta)
        res = edge_deletion_baseline(n, par.p, seed)
        g = res.graph
        diag_parts += [f"p={par.p:.6g}", f"deleted={res.stats['edges_deleted']}"]
    else:  # "process": cmd_sweep rejects unknown constructions up front
        res = triangle_free_process(n, seed, max_steps=args.max_steps)
        g = res.graph
        diag_parts += [f"steps={res.stats['steps']}", f"maximal={res.stats['maximal']}"]

    restarts = 1 if n >= 5000 else 2
    alpha = independence_greedy(g, restarts=restarts, seed=0)
    row = {
        "construction": construction, "n": n, "seed": seed,
        "edges": g.m, "max_degree": g.max_degree(),
        "alpha_greedy": alpha.value, "alpha_exact": "",
        "ratio_greedy": repr(alpha.value / norm),
        "diag": ";".join(diag_parts),
    }
    if args.exact:  # a search can take minutes: say which one runs
        print(f"# exact alpha: {construction} n={n} seed={seed} "
              f"budget={args.budget}", file=sys.stderr, flush=True)
        res = independence_exact(g, budget=args.budget)
        if res.optimal:
            row["alpha_exact"] = res.value
        else:
            row["diag"] += f";exact_lb={res.value}"
    return row


def cmd_sweep(args) -> int:
    if args.n is None:
        raise _Usage("sweep needs --n n1,n2,...")
    try:
        ns = [int(x) for x in str(args.n).split(",") if x != ""]
        constructions = [c.strip() for c in args.constructions.split(",") if c.strip()]
    except ValueError as exc:
        raise _Usage(f"bad sweep grid: {exc}") from None
    if not ns or not constructions:
        raise _Usage("sweep needs --n n1,n2,... and --constructions c1,c2,...")
    # before --out is opened, so a typo neither truncates it nor wastes cells
    for construction in constructions:
        if construction not in SWEEP_CONSTRUCTIONS:
            raise _Usage(f"unknown construction {construction!r}")
    fields = ["construction", "n", "seed", "edges", "max_degree",
              "alpha_greedy", "alpha_exact", "ratio_greedy", "diag"]
    out = args.out or "sweep.csv"
    out_dir = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(out_dir):
        raise FileNotFoundError(f"output directory does not exist: {out_dir}")
    # each row reaches the file as soon as it is computed, so a failed or
    # interrupted sweep keeps the rows before it
    with open(out, "w") as fh:
        fh.write(f"{SWEEP_SCHEMA}\n{','.join(fields)}\n")
        fh.flush()
        for construction in constructions:
            for n in ns:
                for seed in range(args.seeds):
                    row = _sweep_cell(construction, n, seed, args)
                    line = ",".join(str(row[f]) for f in fields)
                    fh.write(line + "\n")
                    fh.flush()
                    print(line)
    print(f"# wrote {out}")
    return 0


# ---------------------------------------------------------------- wiring


def _count(floor: int):
    """argparse type: an integer of at least floor."""
    def count(text: str) -> int:
        if (value := int(text)) < floor:
            raise argparse.ArgumentTypeError(f"{value} is below {floor}")
        return value
    return count


def _add_common(sp):
    sp.add_argument("--config", help="key=value file; flags override it")
    sp.add_argument("--json", action="store_true",
                    help="print the JSON report instead of a table")


def _add_param_flags(sp):
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--beta", type=float, default=0.5)
    sp.add_argument("--kappa", type=float, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--explicit", action="store_true",
                    help="pass N, p, k directly instead of deriving them")
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--clamp", action="store_true",
                    help="widen N to the smallest injectable grid if needed")
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("edgelist", "json"), default="edgelist")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and kept for later ones."""
    parser = argparse.ArgumentParser(
        prog="trioverlay",
        description="two-layer overlay constructions of triangle-free graphs")
    sub = parser.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("build", help="build one overlay graph instance")
    _add_param_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("hyper", help="build one reduced triple system")
    _add_param_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("verify", help="check invariants of an instance file")
    sp.add_argument("path")
    _add_common(sp)

    sp = sub.add_parser("alpha", help="independence bounds for an instance file")
    sp.add_argument("path")
    sp.add_argument("--method", choices=("greedy", "exact", "both"),
                    default="greedy")
    sp.add_argument("--budget", type=_count(1), default=DEFAULT_BUDGET)
    sp.add_argument("--restarts", type=_count(1), default=3)
    _add_common(sp)

    sp = sub.add_parser("diagnose",
                        help="concentration + k-set classification report")
    sp.add_argument("path")
    sp.add_argument("--sets", type=_count(0), default=5,
                    help="random k-sets to classify")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--no-adversarial", action="store_true")
    _add_common(sp)

    sp = sub.add_parser("sweep", help="CSV comparison across constructions")
    sp.add_argument("--n", default=None,
                    help="comma-separated n grid, e.g. 2000,5000")
    sp.add_argument("--seeds", type=_count(0), default=3,
                    help="seeds 0..S-1 per cell")
    sp.add_argument("--constructions", default="overlay,edge-deletion")
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--beta", type=float, default=0.5)
    sp.add_argument("--exact", action="store_true",
                    help="also run the exact solver per cell")
    sp.add_argument("--budget", type=_count(1), default=DEFAULT_BUDGET)
    sp.add_argument("--max-steps", type=_count(0), default=None)
    sp.add_argument("--out", default=None)
    _add_common(sp)
    return parser


_BOOL_FLAGS = {"--explicit", "--clamp", "--json", "--exact", "--no-adversarial"}


def _apply_config(argv: list[str]) -> list[str]:
    """Splice config-file pairs in front of the explicit flags (last wins).

    ``--config FILE`` or ``--config=FILE`` may stand before or after the
    subcommand, once; it is taken out of argv and the file's pairs go right
    after the subcommand.
    """
    at = [i for i, arg in enumerate(argv)
          if arg == "--config" or arg.startswith("--config=")]
    if not at:
        return argv
    if len(at) > 1:
        raise _Usage("--config given more than once")
    i, arg = at[0], argv[at[0]]
    if arg == "--config":
        if i + 1 >= len(argv):
            raise _Usage("--config needs a file path")
        path, argv = argv[i + 1], argv[:i] + argv[i + 2:]
    else:
        path, argv = arg.split("=", 1)[1], argv[:i] + argv[i + 1:]
    injected: list[str] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _Usage(f"bad config line {raw.rstrip()!r}: want key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            flag = "--" + key.replace("_", "-")  # max_steps names --max-steps
            if flag in _BOOL_FLAGS:
                if val.lower() in ("1", "true", "yes", "on"):
                    injected.append(flag)
                elif val.lower() not in ("0", "false", "no", "off"):
                    raise _Usage(f"bad boolean {val!r} for config key {key!r}")
            else:
                injected.extend((flag, val))
    # the subcommand first, then config pairs, then explicit flags
    return argv[:1] + injected + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"usage error: cannot read config: {exc}", file=sys.stderr)
        return 2
    args = _build_parser().parse_args(argv)
    try:
        # looked up at call time, so a cmd_<name> replaced on the module runs
        return globals()[f"cmd_{args.cmd}"](args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, RecursionError) as exc:
        # an instance too large for this machine or for the exact search
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
