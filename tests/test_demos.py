"""The demo scripts run to completion as standalone programs."""

import os
import subprocess
import sys

import pytest

import trioverlay

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos")

# each finishes in under about 1.5 s on 2 cores; independence_showdown.py is
# left out, since its triangle-free process and greedy sweeps over three
# constructions take about 45 s, too long for a smoke test
QUICK = ["build_and_verify.py", "closed_open_pairs.py",
         "concentration_windows.py", "deletion_rule_walkthrough.py",
         "star_free_hypergraph.py"]


@pytest.mark.parametrize("name", QUICK)
def test_demo_runs(name, tmp_path):
    # the child imports the same trioverlay as this process, as in
    # test_cli.py::TestWiring::test_module_invocation; it runs in tmp_path
    # because build_and_verify.py writes its instance to the working directory
    pkg_root = os.path.dirname(os.path.dirname(trioverlay.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, name)],
                          capture_output=True, text=True, cwd=str(tmp_path),
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
