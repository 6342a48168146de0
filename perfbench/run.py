"""Benchmark runner for trioverlay, against the uninstalled checkout.

    python3 perfbench/run.py --workload instance|grid|desk --seed S \
        --seconds T --trace 0|1

Run from the root of a checkout.  It imports ``src/trioverlay`` (never an
installed copy), times the start-up of a fresh interpreter importing the
package, then runs whole rounds of the workload for T seconds: a round starts
only while it is expected, from the longest round so far, to end within T
seconds.  Each round draws its inputs from (S, round index).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, which holds the end-to-end metrics of
BENCHMARK.json when untraced and its per-layer metrics when traced.  The
lines before it give the same figures, each round's time and each
workload's stage times for a human reader.

A traced run alternates untraced and traced rounds on the same round seed;
per-layer figures come from the traced rounds, and ``trace.overhead_s`` is
the median traced-minus-untraced round time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# one thread per core at most, BLAS pools included; fixed before numpy loads
THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
IMPORT_ALL = ("import trioverlay, trioverlay.cli, trioverlay.analysis, "
              "trioverlay.baselines, trioverlay.hypergraph, trioverlay.serialize")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def _setup_seconds() -> float:
    """Median time for a fresh interpreter to import every layer."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_ALL], cwd=ROOT, env=env,
                       check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _round_seed(seed: int, index: int) -> int:
    return seed * 100_000 + index


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "trioverlay" / "__init__.py").is_file():
        _fail(f"no trioverlay sources under {SRC}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    sys.path[:0] = [str(SRC), str(ROOT)]
    import trioverlay
    if Path(trioverlay.__file__).resolve().parent != SRC / "trioverlay":
        _fail(f"imported trioverlay from {trioverlay.__file__}, not {SRC}")

    from perfbench import spans, workloads
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}")
    run_round = workloads.WORKLOADS[args.workload]

    setup_s = _setup_seconds()
    out_dir = ROOT / "perfbench" / "_results"
    work = ROOT / "perfbench" / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    recorder = spans.Recorder()
    untraced, traced = [], []
    try:
        start = perf_counter()
        longest = 0.0
        index = 0
        # whole rounds only; stop before a round expected to end past the limit
        while not untraced or perf_counter() - start + longest <= args.seconds:
            began = perf_counter()
            seed = _round_seed(args.seed, index)
            if args.trace:
                # alternate which side goes first, so warm caches favour neither
                for tracing in ((False, True) if index % 2 == 0 else (True, False)):
                    if tracing:
                        with recorder.installed(index):
                            traced.append(run_round(str(work), seed))
                    else:
                        untraced.append(run_round(str(work), seed))
            else:
                untraced.append(run_round(str(work), seed))
            longest = max(longest, perf_counter() - began)
            index += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for r in untraced + traced for op in r.ops]
    unexpected = sorted({op.label for op in ops
                         if not op.ok and not op.expected_failure})
    bad_checks = sorted({name for r in untraced + traced
                         for name, ok in r.checks.items() if not ok})
    if unexpected:
        print(f"# failed operations: {', '.join(unexpected)}", file=sys.stderr)
    if bad_checks:
        print(f"# failed checks: {', '.join(bad_checks)}", file=sys.stderr)

    print(f"# workload {args.workload}  seed {args.seed}  rounds {len(untraced)}"
          f"  threads {THREADS}  trace {args.trace}")
    print("# round_wall_s " + " ".join(f"{r.wall:.4f}" for r in untraced))
    if args.trace:
        out_dir.mkdir(exist_ok=True)
        recorder.write(str(out_dir / f"trace-{args.workload}-{args.seed}.jsonl"))
        names = [m["name"] for m in spec["per_layer"]]
        values = spans.layer_metrics(recorder.spans, names)
        values["trace.overhead_s"] = statistics.median(
            t.wall - u.wall for t, u in zip(traced, untraced))
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r.wall for r in untraced),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for name, labels in workloads.STAGES[args.workload].items():
            stage = statistics.median(r.stage(*labels) for r in untraced)
            print(f"# {name} {stage:.4f} s")
        if args.workload != "grid":
            alpha = statistics.median(r.alpha_greedy for r in untraced)
            print(f"# alpha_greedy {alpha} count")
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"# {m['name']} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected and not bad_checks,
                      "attempted": len(ops),
                      "failed": sum(not op.ok for op in ops),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
