"""Command-line driver: subcommands, exit codes, config files, sweep CSV."""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import trioverlay
import trioverlay.cli as cli
from trioverlay.cli import SWEEP_SCHEMA, main
from trioverlay.serialize import read_instance


def run(argv):
    """main() with SystemExit flattened to its code (argparse uses 2)."""
    try:
        return main(argv)
    except SystemExit as exc:
        return int(exc.code or 0)


def build_small(tmp_path, name="inst.edges", seed=0, fmt="edgelist"):
    path = str(tmp_path / name)
    code = run(["build", "--explicit", "--N", "6", "--p", "0.4", "--n", "24",
                "--k", "5", "--seed", str(seed), "--out", path,
                "--format", fmt])
    assert code == 0
    return path


class TestBuild:
    def test_explicit_tiny_deterministic(self, tmp_path, capsys):
        # N = 3, p = 1: the deletion boxes cover the whole grid, so the
        # final graph is empty no matter the seed
        path = str(tmp_path / "tiny.edges")
        code = run(["build", "--explicit", "--N", "3", "--p", "1", "--n", "9",
                    "--k", "3", "--out", path, "--json"])
        assert code == 0
        rec = read_instance(path)
        assert rec.n == 9 and len(rec.edges) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "build"
        assert report["stats"]["edges_final"] == 0
        assert report["files"] == [path, path + ".json"]

    def test_build_then_verify(self, tmp_path):
        path = build_small(tmp_path)
        assert os.path.exists(path) and os.path.exists(path + ".json")
        assert run(["verify", path]) == 0

    def test_json_format_single_file(self, tmp_path):
        path = build_small(tmp_path, name="inst.json", fmt="json")
        assert not os.path.exists(path + ".json")
        rec = read_instance(path)
        assert rec.params is not None and rec.placement_rows is not None
        assert run(["verify", path]) == 0

    def test_derived_needs_clamp_at_small_n(self, tmp_path):
        # plain derived grid is too small below ~5.5e3: injection must fail
        path = str(tmp_path / "d.edges")
        assert run(["build", "--n", "1000", "--out", path]) == 1
        assert run(["build", "--n", "1000", "--clamp", "--out", path]) == 0
        rec = read_instance(path)
        assert rec.params.mode == "clamped"
        assert rec.params.N == 32

    def test_golden_bytes(self, tmp_path):
        # the edge file and sidecar are a pure function of (params, seed);
        # any refactor of the pipeline or the writer must keep these bytes
        path = tmp_path / "g.edges"
        assert run(["build", "--n", "2000", "--clamp", "--seed", "0",
                    "--out", str(path)]) == 0
        side = tmp_path / "g.edges.json"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "813822118e0633aa744b9ce4bf978de353576c76799df4f77501c848e0057a3c"
        assert hashlib.sha256(side.read_bytes()).hexdigest() == \
            "7841758c7c797297d9b21fbe512603e9d3fa3cb94f8ca41c6d2f053b74a09369"

    def test_usage_errors(self, tmp_path):
        assert run(["build"]) == 2                      # no --n
        assert run(["build", "--explicit", "--N", "3"]) == 2
        assert run(["build", "--n", "200", "--bogus"]) == 2  # argparse
        assert run(["nosuchcmd"]) == 2

    def test_missing_out_dir(self, tmp_path):
        out = str(tmp_path / "missing" / "x.edges")
        assert run(["build", "--explicit", "--N", "3", "--p", "0.5",
                    "--n", "9", "--k", "3", "--out", out]) == 1


class TestHyper:
    def test_build_and_verify_triples(self, tmp_path, capsys):
        path = str(tmp_path / "h.triples")
        code = run(["hyper", "--explicit", "--N", "4", "--p", "0.6",
                    "--n", "16", "--k", "3", "--out", path, "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["stats"]["s4_free"] is True
        assert report["stats"]["reduced_triples"] <= report["stats"]["induced_triples"]
        rec = read_instance(path)
        assert rec.kind == "triples"
        assert run(["verify", path]) == 0


class TestVerify:
    def test_triangle_rejected(self, tmp_path):
        path = str(tmp_path / "bad.edges")
        with open(path, "w") as fh:
            fh.write("3 3 0\n1 2\n1 3\n2 3\n")
        assert run(["verify", path]) == 1

    def test_missing_file(self, tmp_path):
        assert run(["verify", str(tmp_path / "nope.edges")]) == 1

    def test_tampered_edges_not_rederivable(self, tmp_path):
        path = build_small(tmp_path, seed=7)
        lines = open(path).read().splitlines()
        n, m, seed = (int(x) for x in lines[0].split())
        assert m >= 1
        body = lines[1:-1]  # drop the last edge
        with open(path, "w") as fh:
            fh.write(f"{n} {m - 1} {seed}\n" + "".join(x + "\n" for x in body))
        side = json.loads(open(path + ".json").read())
        side["m"] = m - 1
        with open(path + ".json", "w") as fh:
            fh.write(json.dumps(side))
        assert run(["verify", path]) == 1

    def test_report_fields(self, tmp_path, capsys):
        path = build_small(tmp_path)
        capsys.readouterr()  # drop the build report
        assert run(["verify", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        checks = report["checks"]
        for key in ("triangle_free", "alpha_at_least_max_degree",
                    "params_roundtrip", "n_matches_params",
                    "edges_rederivable"):
            assert checks[key] is True, key
        assert report["ok"] is True
        assert len(report["concentration"]["checks"]) == 7


class TestAlpha:
    def test_both_methods(self, tmp_path, capsys):
        path = build_small(tmp_path)
        capsys.readouterr()
        code = run(["alpha", path, "--method", "both", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exact"]["optimal"] is True
        assert report["greedy"]["value"] <= report["exact"]["value"]
        cert = report["exact"]["certificate"]
        edges = {tuple(e) for e in read_instance(path).edges.tolist()}
        for i, u in enumerate(cert):
            for v in cert[i + 1:]:
                assert (u, v) not in edges
        norm = math.sqrt(24 * math.log(24))
        assert report["exact"]["ratio"] == pytest.approx(
            report["exact"]["value"] / norm)

    def test_rejects_triples(self, tmp_path):
        path = str(tmp_path / "h.triples")
        assert run(["hyper", "--explicit", "--N", "4", "--p", "0.5",
                    "--n", "16", "--k", "3", "--out", path]) == 0
        assert run(["alpha", path]) == 2

    def test_golden_greedy(self, tmp_path, capsys):
        # the test_golden_bytes instance: any rewrite of the greedy must keep
        # its values and certificate (stdout names the temporary path, so the
        # certificate list is hashed, not the whole report)
        path = str(tmp_path / "g.edges")
        assert run(["build", "--n", "2000", "--clamp", "--seed", "0",
                    "--out", path]) == 0
        capsys.readouterr()
        assert run(["alpha", path, "--method", "greedy", "--json"]) == 0
        greedy = json.loads(capsys.readouterr().out)["greedy"]
        assert greedy["value"] == 831
        cert = json.dumps(greedy["certificate"]).encode()
        assert hashlib.sha256(cert).hexdigest() == \
            "d976f967a6208c157fa5246c27f815a9a99c2a9c4ae598b344e47a39112fe675"
        assert run(["verify", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["alpha_greedy"] == 831


class TestDiagnose:
    def test_full_report(self, tmp_path, capsys):
        path = build_small(tmp_path)
        capsys.readouterr()
        assert run(["diagnose", path, "--sets", "2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["concentration"]["checks"]) == 7
        labels = [row["set"] for row in report["k_sets"]]
        assert labels[:2] == ["random_0", "random_1"]
        assert "top1_row" in labels and "neighborhood_0" in labels
        for row in report["k_sets"]:
            assert row["closed"] + row["open"] == math.comb(row["k"], 2)
            assert "f_value" in row

    def test_no_adversarial(self, tmp_path, capsys):
        path = build_small(tmp_path)
        capsys.readouterr()
        assert run(["diagnose", path, "--sets", "3", "--no-adversarial",
                    "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [r["set"] for r in report["k_sets"]] == \
            ["random_0", "random_1", "random_2"]

    def test_requires_provenance(self, tmp_path):
        path = str(tmp_path / "bare.edges")
        with open(path, "w") as fh:
            fh.write("4 2 0\n1 2\n3 4\n")
        assert run(["diagnose", path]) == 1


class TestSweep:
    def test_csv_layout_and_determinism(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        argv = ["sweep", "--n", "120,150", "--seeds", "2",
                "--constructions", "overlay,edge-deletion", "--out", out]
        assert run(argv) == 0
        text = open(out).read()
        lines = text.splitlines()
        assert lines[0] == SWEEP_SCHEMA
        header = lines[1].split(",")
        assert header == ["construction", "n", "seed", "edges", "max_degree",
                          "alpha_greedy", "alpha_exact", "ratio_greedy",
                          "diag"]
        rows = [ln.split(",") for ln in lines[2:]]
        assert len(rows) == 2 * 2 * 2
        for row in rows:
            n = int(row[1])
            alpha = int(row[5])
            ratio = float(row[7])
            assert ratio == pytest.approx(alpha / math.sqrt(n * math.log(n)))
            assert int(row[4]) <= alpha  # greedy beats the max degree
        out2 = str(tmp_path / "sweep2.csv")
        assert run(argv[:-1] + [out2]) == 0
        assert open(out).read().replace("sweep.csv", "") == \
            open(out2).read().replace("sweep2.csv", "")

    def test_process_rows(self, tmp_path):
        out = str(tmp_path / "p.csv")
        assert run(["sweep", "--n", "80", "--seeds", "1",
                    "--constructions", "process", "--out", out]) == 0
        row = open(out).read().splitlines()[2].split(",")
        assert row[0] == "process"
        assert "maximal=True" in row[8]

    def test_rows_on_disk_before_a_later_cell_fails(self, tmp_path, monkeypatch):
        out = str(tmp_path / "s.csv")
        real_cell = cli._sweep_cell
        seen = []

        def cell(construction, n, seed, args):
            if seen:
                seen.append(open(out).read())
                raise ValueError("second cell failed")
            seen.append(None)
            return real_cell(construction, n, seed, args)

        monkeypatch.setattr(cli, "_sweep_cell", cell)
        assert run(["sweep", "--n", "120,150", "--seeds", "1",
                    "--constructions", "overlay", "--out", out]) == 1
        lines = seen[1].splitlines()
        assert lines[:2] == [SWEEP_SCHEMA, ",".join(
            ["construction", "n", "seed", "edges", "max_degree",
             "alpha_greedy", "alpha_exact", "ratio_greedy", "diag"])]
        assert len(lines) == 3 and lines[2].startswith("overlay,120,0,")
        assert open(out).read() == seen[1]

    def test_unknown_construction_leaves_out_alone(self, tmp_path, capsys):
        out = tmp_path / "keep.csv"
        out.write_text("kept\n")
        assert run(["sweep", "--n", "120", "--constructions", "overlay,wat",
                    "--out", str(out)]) == 2
        assert out.read_text() == "kept\n"
        assert capsys.readouterr().out == ""

    def test_usage(self, tmp_path):
        assert run(["sweep"]) == 2
        assert run(["sweep", "--n", "abc"]) == 2
        assert run(["sweep", "--n", "120", "--constructions", "wat",
                    "--out", str(tmp_path / "x.csv")]) == 2


class TestConfig:
    def test_config_supplies_flags(self, tmp_path):
        cfg = tmp_path / "build.cfg"
        path = str(tmp_path / "c.edges")
        cfg.write_text(
            "# explicit tiny instance\n"
            "explicit = true\n"
            "N = 6\np = 0.4\nn = 24\nk = 5\n"
            f"out = {path}\n")
        assert run(["build", "--config", str(cfg)]) == 0
        assert read_instance(path).n == 24

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        a = str(tmp_path / "a.edges")
        b = str(tmp_path / "b.edges")
        cfg.write_text(f"explicit=yes\nN=6\np=0.4\nn=24\nk=5\nseed=3\nout={a}\n")
        assert run(["build", "--config", str(cfg)]) == 0
        assert run(["build", "--config", str(cfg), "--seed", "9",
                    "--out", b]) == 0
        ra, rb = read_instance(a), read_instance(b)
        assert ra.seed == 3 and rb.seed == 9

    def test_config_before_subcommand_and_equals_form(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        a = tmp_path / "a.edges"
        b = tmp_path / "b.edges"
        cfg.write_text("explicit=yes\nN=6\np=0.4\nn=24\nk=5\nseed=3\n")
        assert run(["--config", str(cfg), "build", "--out", str(a)]) == 0
        assert run(["build", f"--config={cfg}", "--out", str(b)]) == 0
        assert read_instance(str(a)).seed == 3
        assert a.read_bytes() == b.read_bytes()

    def test_config_errors(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no equals sign here\n")
        assert run(["build", "--config", str(cfg)]) == 2
        cfg.write_text("explicit = maybe\n")
        assert run(["build", "--config", str(cfg)]) == 2
        assert run(["build", "--config", str(tmp_path / "missing.cfg")]) == 2
        assert run(["build", "--config"]) == 2


class TestWiring:
    @pytest.mark.parametrize("exc", [MemoryError, RecursionError])
    def test_resource_errors_exit_1(self, tmp_path, monkeypatch, capsys, exc):
        def cmd(args):
            raise exc("too big")

        monkeypatch.setattr(cli, "cmd_verify", cmd)
        assert run(["verify", str(tmp_path / "x.edges")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {exc.__name__}: too big\n"

    def test_module_invocation(self, tmp_path):
        # the child must import the same trioverlay as this process, from
        # any cwd, whether it is installed or only on a relative PYTHONPATH
        pkg_root = os.path.dirname(os.path.dirname(trioverlay.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))}
        out = str(tmp_path / "m.edges")
        proc = subprocess.run(
            [sys.executable, "-m", "trioverlay.cli", "build", "--explicit",
             "--N", "4", "--p", "0.5", "--n", "12", "--k", "4",
             "--out", out],
            capture_output=True, text=True, cwd=str(tmp_path), env=env)
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(out)
        bad = subprocess.run(
            [sys.executable, "-m", "trioverlay.cli", "build", "--wat"],
            capture_output=True, text=True, cwd=str(tmp_path), env=env)
        assert bad.returncode == 2, bad.stderr

    def test_console_script(self):
        exe = shutil.which("trioverlay")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        for cmd in ("build", "hyper", "verify", "alpha", "diagnose", "sweep"):
            assert cmd in proc.stdout
