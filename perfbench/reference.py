"""Regenerate exact_alpha.json, the reference optima for desk's exact solver.

    python3 perfbench/reference.py

Builds every instance of the desk workload's exact pool through the CLI,
exactly as the benchmark does, parses the edge file with ``checks`` and
solves its independence number with networkx's exact clique search.  It takes a few
minutes, which is why the benchmark reads the stored values instead.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, workloads  # noqa: E402


def main() -> int:
    alpha = {}
    scratch = ROOT / "perfbench" / "_work"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as work:
        for seed in range(workloads.EXACT_POOL):
            r = workloads.Round()
            path = str(Path(work) / "pool.edges")
            if r.cli("exact_build", workloads.exact_build_argv(seed, path)) is None:
                print(f"build of pool instance {seed} failed", file=sys.stderr)
                return 1
            alpha[str(seed)] = checks.exact_alpha(*checks.read_edge_file(path))
    workloads.EXACT_REFERENCE.write_text(json.dumps(
        {"instance": workloads.EXACT, "solver": "networkx.max_weight_clique on the complement",
         "alpha": alpha}, indent=1) + "\n")
    print(f"wrote {workloads.EXACT_REFERENCE} ({len(alpha)} instances)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
