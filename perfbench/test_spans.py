"""The span recorder wraps each traced name where callers look it up.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import trioverlay.cli  # noqa: E402
import trioverlay.construction  # noqa: E402
from trioverlay.graphview import SimpleGraphView  # noqa: E402

from perfbench import spans  # noqa: E402


def test_traced_cli_build_nests_and_restores(tmp_path):
    originals = (trioverlay.cli.build, trioverlay.construction.build,
                 SimpleGraphView.__dict__["from_edge_arrays"])
    rec = spans.Recorder()
    argv = ["build", "--explicit", "--n", "60", "--N", "9", "--p", "0.4",
            "--k", "10", "--out", str(tmp_path / "g.edges")]
    with rec.installed(0), contextlib.redirect_stdout(io.StringIO()):
        assert trioverlay.cli.main(argv) == 0
    assert (trioverlay.cli.build, trioverlay.construction.build,
            SimpleGraphView.__dict__["from_edge_arrays"]) == originals

    names = [s[0] for s in rec.spans]
    assert names[0] == "cli.main"
    for name in ("params.explicit_params", "construction.build",
                 "construction.induce_final_graph", "graphview.from_edge_arrays",
                 "serialize.write_instance"):
        assert name in names
    build = rec.spans[names.index("construction.build")]
    assert rec.spans[build[3]][0] == "cli.main"

    own = spans.self_times(rec.spans)
    top = rec.spans[0]
    assert sum(own) == pytest.approx(top[2] - top[1])
    metrics = spans.layer_metrics(rec.spans, ["construction.placed_edges",
                                              "serialize.bytes_written",
                                              "hypergraph.product_triples"])
    assert metrics["construction.placed_edges"] > 0
    assert metrics["serialize.bytes_written"] == sum(
        p.stat().st_size for p in tmp_path.iterdir())
    assert metrics["hypergraph.product_triples"] == 0
