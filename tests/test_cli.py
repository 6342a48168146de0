"""Command-line driver: subcommands, exit codes, config files, sweep CSV."""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import trioverlay
import trioverlay.cli as cli
import trioverlay.construction as construction
from trioverlay.cli import SWEEP_SCHEMA, main
from trioverlay.graphview import SimpleGraphView
from trioverlay.hypergraph import TripleSystem
from trioverlay.serialize import read_instance, write_instance


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
        assert rec.n == 9 and rec.graph.m == 0
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
        assert rec.params is not None and rec.provenance is not None
        assert run(["verify", path]) == 0

    def test_derived_needs_clamp_at_small_n(self, tmp_path):
        # plain derived grid is too small below ~5.5e3: injection must fail
        path = str(tmp_path / "d.edges")
        assert run(["build", "--n", "1000", "--out", path]) == 1
        assert run(["build", "--n", "1000", "--clamp", "--out", path]) == 0
        rec = read_instance(path)
        assert rec.params.mode == "clamped"
        assert rec.params.N == 32

    @pytest.mark.parametrize("argv, files", [
        pytest.param(
            ["build", "--n", "2000", "--clamp", "--seed", "0"],
            {"g.edges": "813822118e0633aa744b9ce4bf978de3"
                        "53576c76799df4f77501c848e0057a3c",
             "g.edges.json": "7841758c7c797297d9b21fbe512603e9"
                             "d3fa3cb94f8ca41c6d2f053b74a09369"},
            id="build-edgelist"),
        pytest.param(
            ["build", "--n", "2000", "--clamp", "--seed", "1",
             "--format", "json"],
            {"g.json": "60762f6b77a605f1a4f7ac2f1858458d"
                       "b17d19a6f94b761476f19ea8b979d0a4"},
            id="build-json"),
        pytest.param(
            ["build", "--n", "10000", "--seed", "0"],
            {"g.edges": "e3ac6d1283a9a679bc2e2e3ec04da2bf"
                        "3e6d37782fd4e0516173d4f5fc69c53f",
             "g.edges.json": "8075c22a1a91f98797c5d1ba8ca60113"
                             "cb04c01ebe3825bbe32c26c64477d2a1"},
            id="build-edgelist-n10000"),
        pytest.param(
            ["hyper", "--explicit", "--N", "7", "--n", "40", "--p", "0.3",
             "--k", "10", "--seed", "3"],
            {"h.triples": "3f567180550b6cd20824500c88f50d9a"
                          "4d52716bf4fe38f047ebed5acf8cd850",
             "h.triples.json": "678fda01de7174a5b2b89defd177acca"
                               "e4e0e2b6d0449cb67612fb357edaf64e"},
            id="hyper-edgelist"),
        pytest.param(
            ["hyper", "--explicit", "--N", "8", "--n", "50", "--p", "0.3",
             "--k", "12", "--seed", "1", "--format", "json"],
            {"h.json": "f0318a64dc0390d8388ac97de2742b4b"
                       "5927fc2e42042e469420227bd2701cce"},
            id="hyper-json"),
    ])
    def test_golden_bytes(self, tmp_path, argv, files):
        # every written file is a pure function of (params, seed); any
        # refactor of the pipeline or the writer must keep these bytes
        out = tmp_path / next(iter(files))
        assert run(argv + ["--out", str(out)]) == 0
        assert sorted(os.listdir(tmp_path)) == sorted(files)
        for name, digest in files.items():
            data = (tmp_path / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name
        # and reading them back loses nothing the writer puts out
        again = tmp_path / "again"
        again.mkdir()
        fmt = "json" if "json" in argv else "edgelist"
        write_instance(read_instance(str(out)), str(again / out.name), fmt=fmt)
        assert sorted(os.listdir(again)) == sorted(files)
        for name in files:
            assert (again / name).read_bytes() == (tmp_path / name).read_bytes(), name

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

    def hyper_file(self, tmp_path):
        path = str(tmp_path / "h.triples")
        assert run(["hyper", "--explicit", "--N", "4", "--n", "16", "--p",
                    "0.5", "--k", "3", "--seed", "0", "--out", path]) == 0
        return path

    @pytest.mark.parametrize("damage, names", [
        (lambda s: s.update(cells=s["cells"][:1]),
         "placement holds 1 vertices, the instance 16"),
        (lambda s: s["cells"].__setitem__(1, s["cells"][0]),
         "placement is not injective"),
        (lambda s: s["cells"].__setitem__(0, [-5, 99]), "cell out of range"),
        (lambda s: s.update(cells=[c + [0] for c in s["cells"]]),
         "cells must have 2 values per row"),
        (lambda s: s.update(params=None),
         "partial provenance: holds cells without params"),
    ], ids=["one-cell", "repeated-cell", "out-of-range", "three-coordinates",
            "no-params"])
    def test_bad_cells(self, tmp_path, capsys, damage, names):
        # these sidecars once verified with exit 0, their cells unchecked
        path = self.hyper_file(tmp_path)
        side = json.loads(open(path + ".json").read())
        damage(side)
        with open(path + ".json", "w") as fh:
            fh.write(json.dumps(side))
        capsys.readouterr()
        assert run(["verify", path]) == 1
        assert capsys.readouterr().err == f"error: {path}.json: {names}\n"

    def verify_json(self, path, capsys):
        capsys.readouterr()
        code = run(["verify", path, "--json"])
        return code, json.loads(capsys.readouterr().out)

    def test_verify_report_fields(self, tmp_path, capsys):
        code, report = self.verify_json(self.hyper_file(tmp_path), capsys)
        assert code == 0
        assert report["checks"] == {"s4_free": True, "stats_match": True}

    @pytest.mark.parametrize("key", ["reduced_triples", "reduced_red",
                                     "reduced_blue"])
    def test_stats_mismatch_fails(self, tmp_path, capsys, key):
        # the sidecar's reduced counts are checked against the file's
        # triples and colours
        path = self.hyper_file(tmp_path)
        side = json.loads(open(path + ".json").read())
        side["stats"][key] += 1
        with open(path + ".json", "w") as fh:
            fh.write(json.dumps(side))
        code, report = self.verify_json(path, capsys)
        assert code == 1
        assert report["checks"] == {"s4_free": True, "stats_match": False}

    @pytest.mark.parametrize("stats", [{}, {"reduced_red": 0}, [1]],
                             ids=["none", "partial", "list"])
    def test_stats_check_needs_the_counts(self, tmp_path, capsys, stats):
        path = self.hyper_file(tmp_path)
        side = json.loads(open(path + ".json").read())
        side["stats"] = stats
        with open(path + ".json", "w") as fh:
            fh.write(json.dumps(side))
        code, report = self.verify_json(path, capsys)
        assert code == 0
        assert report["checks"] == {"s4_free": True}

    @pytest.mark.parametrize("c", [11, 2_999_991], ids=["low", "top"])
    def test_star_found_at_any_vertex(self, tmp_path, capsys, c):
        # three triples through c on {c, .., c + 3}, 1-based, at n = 3*10^6:
        # int64 keys of the vertex ids overflow there and hid the top star
        path = str(tmp_path / "star.triples")
        with open(path, "w") as fh:
            fh.write(f"3000000 3 0\n{c} {c + 1} {c + 2}\n"
                     f"{c} {c + 1} {c + 3}\n{c} {c + 2} {c + 3}\n")
        code, report = self.verify_json(path, capsys)
        assert code == 1
        assert report["checks"] == {"s4_free": False}
        assert report["links"]["nonempty"] == 4

    def test_too_many_vertices_to_key(self, tmp_path, capsys):
        # 2^21 + 1 distinct vertices: not even their ranks key a triple in
        # int64
        k = 699_051
        rows = np.arange(3 * k, dtype=np.int64).reshape(k, 3) * 2 ** 18 + 1
        path = str(tmp_path / "wide.triples")
        with open(path, "w") as fh:
            fh.write(f"{2 ** 40} {k} 0\n"
                     + "%d %d %d\n" * k % tuple(rows.ravel().tolist()))
        capsys.readouterr()
        assert run(["verify", path]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {path}: 2097153 distinct vertices: too many "
                       "to key triples in int64\n")

    @pytest.mark.parametrize("line", ["1 1 2", "2 1 1", "6 1 2"])
    def test_bad_triple_named_in_file_ids(self, tmp_path, capsys, line):
        path = str(tmp_path / "bad.triples")
        with open(path, "w") as fh:
            fh.write(f"5 1 0\n{line}\n")
        capsys.readouterr()
        assert run(["verify", path]) == 1
        want = tuple(int(x) for x in line.split())
        assert capsys.readouterr().err == f"error: {path}: bad triple {want}\n"

    def test_verify_canonicalizes_once(self, tmp_path, monkeypatch):
        # the reader builds the system; verify checks that same object
        path = self.hyper_file(tmp_path)
        calls = []
        real = TripleSystem.from_arrays.__func__

        def counted(cls, *args, **kwargs):
            calls.append(1)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(TripleSystem, "from_arrays", classmethod(counted))
        assert run(["verify", path]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("fmt", ["edgelist", "json"])
    def test_repeated_triple(self, tmp_path, capsys, fmt):
        # two distinct triples on three lines, as a graph file with a
        # repeated edge is
        lines = [[1, 2, 3], [1, 2, 3], [2, 3, 4]]
        path = str(tmp_path / "t.triples")
        with open(path, "w") as fh:
            if fmt == "json":
                fh.write(json.dumps({"format": "json", "kind": "triples",
                                     "n": 5, "m": 3, "seed": 0,
                                     "colors": "DDD", "triples": lines}))
            else:
                fh.write("5 3 0\n" + "".join("%d %d %d\n" % tuple(t)
                                             for t in lines))
        capsys.readouterr()
        assert run(["verify", path]) == 1
        assert capsys.readouterr().err == \
            f"error: {path}: duplicate triple in triple list\n"


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

    @pytest.mark.parametrize("line, shown", [
        (b"1 2.5", "b'.' is not"), (b"+1 2", "b'+' is not"),
        (b"-1 2", "b'-' is not"), (b"1\x002", "b'\\x00' is not"),
        (b"1\x1c2", "b'\\x1c' is not"),
        ("1 2 é".encode(), "b'\\xc3' is not"),
        ("1\u20032".encode(), "b'\\xe2' is not"),
        (b"1 " + b"9" * 20, "integer too large"),
    ], ids=["decimal", "plus", "minus", "nul", "x1c", "e-acute", "em-space",
            "20-digits"])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_malformed_line_named(self, tmp_path, capsys, line, shown, newline):
        # a byte outside digits, spaces and line breaks, or an integer
        # beyond int64, is an error that names the file and the line
        path = str(tmp_path / "bad.edges")
        with open(path, "wb") as fh:
            fh.write(newline.join([b"4 2 0", b"3 4", line, b""]))
        capsys.readouterr()
        assert run(["verify", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 3: ") and shown in err
        assert "Traceback" not in err

    def test_report_fields(self, tmp_path, capsys):
        path = build_small(tmp_path)
        capsys.readouterr()  # drop the build report
        assert run(["verify", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        checks = report["checks"]
        assert checks == {"triangle_free": True,
                          "alpha_at_least_max_degree": True,
                          "n_matches_params": True,
                          "edges_rederivable": True,
                          "stats_match": True}
        assert report["ok"] is True
        assert len(report["concentration"]["checks"]) == 7

    def test_sidecar_stats_checked(self, tmp_path, capsys):
        # the builder's counts in the sidecar must be the rebuilt ones
        path = str(tmp_path / "s.edges")
        assert run(["build", "--n", "300", "--clamp", "--out", path]) == 0
        for edited in (False, True):
            if edited:
                side = json.loads(open(path + ".json").read())
                side["stats"]["edges_final"] += 5
                side["stats"]["placed_dual"] = 999
                with open(path + ".json", "w") as fh:
                    fh.write(json.dumps(side))
            capsys.readouterr()
            assert run(["verify", path, "--json"]) == int(edited)
            checks = json.loads(capsys.readouterr().out)["checks"]
            assert checks["stats_match"] is not edited
            assert checks["edges_rederivable"] is True


class TestDamagedSidecar:
    """A damaged sidecar is an error line and exit 1, never a traceback."""

    def damaged(self, tmp_path, damage):
        path = build_small(tmp_path)
        side = json.loads(open(path + ".json").read())
        damage(side)
        with open(path + ".json", "w") as fh:
            fh.write(json.dumps(side))
        return path

    def assert_error_exit(self, argv, capsys):
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    @pytest.mark.parametrize("command", ["verify", "diagnose", "alpha"])
    @pytest.mark.parametrize("edge", [[0, 6], [-6, 2]],
                             ids=["beyond-N", "negative"])
    def test_base_edge_out_of_range(self, tmp_path, capsys, command, edge):
        path = self.damaged(tmp_path,
                            lambda s: s["base_red_edges"].__setitem__(0, edge))
        err = self.assert_error_exit([command, path], capsys)
        assert "red base edge endpoint outside 0..5" in err
        assert f"error: {path}.json: " in err

    @pytest.mark.parametrize("damage, names", [
        (lambda s: s["params"].pop("kappa"), "'kappa'"),
        (lambda s: s["placement"].pop("cols"), "'cols'"),
        (lambda s: s.update(params=list(s["params"].values())), "type"),
    ], ids=["no-params-kappa", "no-placement-cols", "params-a-list"])
    def test_malformed(self, tmp_path, capsys, damage, names):
        path = self.damaged(tmp_path, damage)
        with pytest.raises(ValueError) as exc:
            read_instance(path)
        assert str(exc.value).startswith(path + ".json: ")
        assert names in str(exc.value)
        for command in ("verify", "alpha"):
            err = self.assert_error_exit([command, path], capsys)
            assert path + ".json" in err and names in err


    @pytest.mark.parametrize("command", ["verify", "diagnose"])
    @pytest.mark.parametrize("damage, names", [
        (lambda s: s["base_red_edges"].__setitem__(0, [0.5, 3]),
         "base_red_edges must hold integers"),
        (lambda s: s["base_red_edges"].__setitem__(0, ["0", 3]),
         "base_red_edges must hold integers"),
        (lambda s: s["placement"]["rows"].__setitem__(
            0, s["placement"]["rows"][0] + 0.5), "placement rows must hold"),
        (lambda s: s.update(n=24.5), "n must be an integer"),
        (lambda s: s.update(m=s["m"] + 0.5), "m must be an integer"),
        (lambda s: s.update(seed=0.5), "seed must be an integer"),
        (lambda s: s.update(seed="0"), "seed must be an integer"),
        (lambda s: s["base_red_edges"][0].__setitem__(0, True),
         "base_red_edges must hold integers, got bool values"),
        (lambda s: s["placement"]["rows"].__setitem__(0, False),
         "placement rows must hold integers, got bool values"),
    ], ids=["base-float", "base-string", "placement-float", "n-float",
            "m-float", "seed-float", "seed-string", "base-bool",
            "placement-bool"])
    def test_non_integer(self, tmp_path, capsys, command, damage, names):
        # truncating a float, parsing a string or reading true as 1 would
        # read a different instance than the file holds
        path = self.damaged(tmp_path, damage)
        err = self.assert_error_exit([command, path], capsys)
        assert path + ".json: " in err and names in err

    @pytest.mark.parametrize("colors, names", [
        (lambda c: "X" + c[1:], "colors must hold R, B and D only, got 'X'"),
        (lambda c: list(c), "colors must be a string, got list"),
    ], ids=["X", "list"])
    def test_unknown_colors(self, tmp_path, capsys, colors, names):
        # verify read an 'X' into a KeyError traceback
        path = str(tmp_path / "h.triples")
        assert run(["hyper", "--explicit", "--N", "4", "--n", "16", "--p",
                    "0.5", "--k", "3", "--seed", "0", "--out", path]) == 0
        side = json.loads(open(path + ".json").read())
        side["colors"] = colors(side["colors"])
        with open(path + ".json", "w") as fh:
            fh.write(json.dumps(side))
        err = self.assert_error_exit(["verify", path], capsys)
        assert path + ".json: " in err and names in err

    @pytest.mark.parametrize("command", ["verify", "diagnose"])
    def test_non_integer_embedded_edge(self, tmp_path, capsys, command):
        path = build_small(tmp_path, name="inst.json", fmt="json")
        clean = open(path).read()
        for damage in (lambda v: v + 0.5, lambda v: True):
            payload = json.loads(clean)
            payload["edges"][0][1] = damage(payload["edges"][0][1])
            with open(path, "w") as fh:
                fh.write(json.dumps(payload))
            err = self.assert_error_exit([command, path], capsys)
            assert path + ": " in err and "edges must hold integers" in err

    @pytest.mark.parametrize("command", ["verify", "diagnose", "alpha"])
    def test_placement_beyond_int32(self, tmp_path, capsys, command):
        # narrowed to int32 first, rows[0] + 2^32 would read as rows[0]
        def damage(s):
            s["placement"]["rows"][0] += 2 ** 32
        path = self.damaged(tmp_path, damage)
        err = self.assert_error_exit([command, path], capsys)
        assert "cell out of range" in err
        assert f"error: {path}.json: " in err

    @pytest.mark.parametrize("command", ["verify", "diagnose", "alpha"])
    @pytest.mark.parametrize("fmt", ["edgelist", "json"])
    @pytest.mark.parametrize("drop", ["base_red_edges", "base_blue_edges",
                                      "placement", "params"])
    def test_partial_provenance(self, tmp_path, capsys, command, fmt, drop):
        # provenance is the two base edge lists and the placement, read with
        # params; a file holding only part of it once verified as a file
        # without any (exit 0), its placement never checked
        if fmt == "json":
            path = source = build_small(tmp_path, name="inst.json", fmt="json")
        else:
            path = build_small(tmp_path)
            source = path + ".json"
        payload = json.loads(open(source).read())
        payload[drop] = None
        with open(source, "w") as fh:
            fh.write(json.dumps(payload))
        err = self.assert_error_exit([command, path], capsys)
        assert err.startswith(f"error: {source}: partial provenance: ")
        assert f"without {drop}" in err

    @pytest.mark.parametrize("command", ["verify", "diagnose", "alpha"])
    @pytest.mark.parametrize("fmt", ["edgelist", "json"])
    @pytest.mark.parametrize("key, value", [
        ("eps1", 0.06), ("eps2", 0.05), ("C", 1000.0)])
    def test_conventions_disagree(self, tmp_path, capsys, command, fmt, key,
                                  value):
        # eps1, eps2 and C are computed from epsilon; a record stating other
        # values once verified with exit 0, and diagnose measured with them
        if fmt == "json":
            path = source = build_small(tmp_path, name="inst.json", fmt="json")
        else:
            path = build_small(tmp_path)
            source = path + ".json"
        payload = json.loads(open(source).read())
        want = payload["params"][key]
        payload["params"][key] = value
        with open(source, "w") as fh:
            fh.write(json.dumps(payload))
        err = self.assert_error_exit([command, path], capsys)
        assert err == (f"error: {source}: {key} = {value} is not the "
                       f"convention's {want}\n")

    @pytest.mark.parametrize("edit, key", [
        ({"p": 0.5, "t1": 60}, "p"), ({"t1": 60}, "t1"), ({"k": 700}, "k"),
        ({"N": 46}, "N"), ({"t3": 4.5}, "t3")])
    def test_formula_values_disagree(self, tmp_path, capsys, edit, key):
        # a clamped record's N, p, k and cutoffs follow from (n, epsilon,
        # beta, kappa); one stating p = 0.5 once verified with exit 0
        path = str(tmp_path / "g.edges")
        assert run(["build", "--n", "2000", "--clamp", "--seed", "0",
                    "--out", path]) == 0
        payload = json.loads(open(path + ".json").read())
        want = payload["params"][key]
        payload["params"].update(edit)
        with open(path + ".json", "w") as fh:
            fh.write(json.dumps(payload))
        err = self.assert_error_exit(["verify", path], capsys)
        assert err == (f"error: {path}.json: {key} = {edit[key]} is not the "
                       f"clamped formula's {want}\n")

    @pytest.mark.parametrize("command", ["verify", "diagnose", "alpha"])
    def test_short_placement(self, tmp_path, capsys, command):
        # 23 placed vertices cannot carry the file's 24-vertex graph
        path = self.damaged(tmp_path, lambda s: (s["placement"]["rows"].pop(),
                                                 s["placement"]["cols"].pop()))
        err = self.assert_error_exit([command, path], capsys)
        assert "placement holds 23 vertices, the instance 24" in err
        assert f"error: {path}.json: " in err

    @pytest.mark.parametrize("flags, names", [
        (["--n", "1000", "--clamp", "--kappa", "inf"],
         "kappa = inf must be finite and >= 1"),
        (["--n", "1000", "--clamp", "--kappa", "nan"],
         "kappa = nan must be finite and >= 1"),
        (["--n", "10000000", "--eps", "60"], "epsilon = 60.0 outside (0, 1)"),
    ], ids=["kappa-inf", "kappa-nan", "eps-60"])
    def test_params_that_overflow(self, tmp_path, capsys, flags, names):
        # kappa = inf made k = ceil(inf) an OverflowError traceback, and
        # epsilon = 60 would overflow n ** (0.25 + epsilon) unchecked
        err = self.assert_error_exit(
            ["build", *flags, "--out", str(tmp_path / "g.edges")], capsys)
        assert err == f"error: {names}\n"

    @pytest.mark.parametrize("command", ["verify", "alpha", "diagnose"])
    @pytest.mark.parametrize("kappa", [math.inf, math.nan])
    def test_record_kappa_not_finite(self, tmp_path, capsys, command, kappa):
        # from_dict re-derives a clamped record through derive_params
        path = str(tmp_path / "g.edges")
        assert run(["build", "--n", "2000", "--clamp", "--seed", "0",
                    "--out", path]) == 0
        payload = json.loads(open(path + ".json").read())
        payload["params"]["kappa"] = kappa
        with open(path + ".json", "w") as fh:
            fh.write(json.dumps(payload))
        err = self.assert_error_exit([command, path], capsys)
        assert err == (f"error: {path}.json: kappa = {kappa} must be finite "
                       "and >= 1\n")


def _edit(path, edit, as_json=False):
    """Rewrite a file through edit, on its payload or its list of lines."""
    text = open(path).read()
    if as_json:
        payload = json.loads(text)
        edit(payload)
        text = json.dumps(payload)
    else:
        lines = text.splitlines()
        edit(lines)
        text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _reverse_first_entry(lines):
    lines[1] = " ".join(reversed(lines[1].split()))


def _rewrite_json(path, **payload):
    """Replace a JSON instance file with a bare record of the payload."""
    with open(path, "w") as fh:
        json.dump({"format": "json", **payload}, fh)


class TestReadErrorsNameTheirFile:
    """A read error names, once, the file that holds the fault: the edge
    list or JSON file for its header and entries, the sidecar for its own
    values."""

    @pytest.mark.parametrize("instance, damaged, damage, names", [
        ("graph", "", lambda p: _edit(p, _reverse_first_entry),
         "edges must satisfy u < v"),
        ("graph", "", lambda p: _edit(p, lambda ls: ls.__setitem__(0, "24 5")),
         "bad header '24 5': want 'n m seed'"),
        ("graph", "", lambda p: _edit(p, lambda ls: ls.append(ls[1])),
         "header claims"),
        ("graph", "", lambda p: _edit(p, lambda ls: ls.__setitem__(1, ls[1] + " 3")),
         "mixed or malformed entry lines"),
        ("graph", "", lambda p: _edit(p, lambda ls: ls.__setitem__(1, "1 99")),
         "edge endpoint outside 0..23"),
        ("graph", "", lambda p: _edit(p, lambda ls: ls.__setitem__(2, ls[1])),
         "duplicate edge in edge list"),
        ("graph", ".json",
         lambda p: _edit(p + ".json", lambda s: s.update(m=s["m"] + 1), True),
         "sidecar disagrees with edge-file header"),
        ("triples", "", lambda p: _edit(p, lambda ls: ls.__setitem__(1, "1 1 2")),
         "bad triple (1, 1, 2)"),
        ("triples", "", lambda p: _edit(p, lambda ls: ls.__setitem__(2, ls[1])),
         "duplicate triple in triple list"),
        ("triples", ".json", lambda p: _edit(
            p + ".json", lambda s: s.update(colors=s["colors"][1:]), True),
         "color string does not match triple count"),
        ("json", "", lambda p: _edit(p, lambda s: s.pop("format"), True),
         "JSON instance file missing format marker"),
        ("json", "", lambda p: _edit(p, lambda ls: ls.pop()),
         "Expecting"),
        ("json", "", lambda p: _edit(p, lambda s: s["edges"][0].reverse(), True),
         "edges must satisfy u < v"),
        ("json", "", lambda p: _edit(
            p, lambda s: s["edges"].__setitem__(1, s["edges"][0]), True),
         "duplicate edge in edge list"),
        ("json", "", lambda p: _rewrite_json(p, kind="graph", n=-1, edges=[]),
         "n = -1 is negative"),
        ("json", "", lambda p: _rewrite_json(p, kind="triples", n=-1,
                                             triples=[], colors=""),
         "n = -1 is negative"),
    ], ids=["u<v", "bad-header", "header-claims", "mixed-lines", "out-of-range",
            "duplicate-edge", "sidecar-disagrees", "bad-triple",
            "duplicate-triple", "color-count", "format-marker", "json-syntax",
            "json-u<v", "json-duplicate-edge", "json-negative-n",
            "json-triples-negative-n"])
    def test_named_once(self, tmp_path, capsys, instance, damaged, damage,
                        names):
        if instance == "triples":
            path = str(tmp_path / "h.triples")
            assert run(["hyper", "--explicit", "--N", "4", "--n", "16", "--p",
                        "0.5", "--k", "3", "--seed", "0", "--out", path]) == 0
        else:
            path = build_small(tmp_path, *(("inst.json", 0, "json")
                                           if instance == "json" else ()))
        damage(path)
        capsys.readouterr()
        assert run(["verify", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}{damaged}: ")
        # the sidecar's name holds the edge file's: one occurrence either way
        assert err.count(path) == 1 and names in err
        assert "Traceback" not in err


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
        edges = {tuple(e) for e in
                 read_instance(path).graph.edge_array().tolist()}
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


class TestInduceOnce:
    """Only build induces the placed graph; verify and diagnose read it."""

    def test_verify_and_diagnose_never_induce(self, tmp_path, monkeypatch,
                                              capsys):
        path = build_small(tmp_path)
        argvs = [["verify", path, "--json"], ["verify", path],
                 ["diagnose", path, "--sets", "2"]]
        before = []
        for argv in argvs:
            capsys.readouterr()
            assert run(argv) == 0
            before.append(capsys.readouterr().out)

        def induce(*args, **kwargs):
            raise RuntimeError("induced")

        monkeypatch.setattr(construction, "_placed_adjacency", induce)
        for argv, out in zip(argvs, before):
            assert run(argv) == 0
            assert capsys.readouterr().out == out
        assert json.loads(before[0])["checks"]["edges_rederivable"] is True

    def test_verify_runs_one_placed_pass(self, tmp_path, monkeypatch):
        # the placed counts of _assemble's stats also certify the edge count
        path = build_small(tmp_path)
        calls = []
        real = construction.ColoredProductGraph.flag_counts

        def counted(self, placement=None):
            calls.append(placement is not None)
            return real(self, placement)

        monkeypatch.setattr(construction.ColoredProductGraph, "flag_counts",
                            counted)
        assert run(["verify", path]) == 0
        assert calls.count(True) == 1

    def test_build_induces_once(self, tmp_path, monkeypatch):
        calls = []
        real = construction.induce_final_graph

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(construction, "induce_final_graph", counted)
        build_small(tmp_path)
        assert len(calls) == 1


class TestTriangleCertificate:
    """verify counts triangles only where the factorization cannot decide."""

    def test_rederivable_build_never_counts(self, tmp_path, monkeypatch,
                                            capsys):
        argvs = []
        for seed in range(3):
            path = build_small(tmp_path, name=f"i{seed}.edges", seed=seed)
            argvs += [["verify", path, "--json"], ["verify", path]]
        counted = []
        with monkeypatch.context() as patch:
            # an inconclusive certificate: verify counts, as it did before
            patch.setattr(construction.ColoredProductGraph,
                          "triangle_certificate", lambda self: 1)
            for argv in argvs:
                capsys.readouterr()
                assert run(argv) == 0
                counted.append(capsys.readouterr().out)

        def count(g):
            raise RuntimeError("counted")

        monkeypatch.setattr(cli, "count_triangles", count)
        for argv, out in zip(argvs, counted):
            assert run(argv) == 0
            assert capsys.readouterr().out == out
        assert json.loads(counted[0])["triangles"] == 0

    def test_added_edge_closing_triangles_is_counted(self, tmp_path, capsys):
        path = build_small(tmp_path, seed=4)
        rec = read_instance(path)
        g = rec.graph
        # two neighbours of a vertex: the edge between them closes a triangle
        w = int(np.argmax(g.degree_sequence()))
        u, v = g.neighbors(w)[:2].tolist()
        common = set(g.neighbors(u).tolist()) & set(g.neighbors(v).tolist())
        rec.graph = SimpleGraphView.from_edges(
            rec.n, [*g.edge_array().tolist(), (u, v)])
        write_instance(rec, path)
        capsys.readouterr()
        assert run(["verify", path, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["triangles"] == len(common) >= 1
        assert report["checks"]["triangle_free"] is False
        assert report["checks"]["edges_rederivable"] is False


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

    def test_duplicate_edge(self, tmp_path, capsys):
        # diagnose reads the file's graph, which must be simple
        path = build_small(tmp_path)
        lines = open(path).read().splitlines()
        n, m, seed = lines[0].split()
        with open(path, "w") as fh:
            fh.write(f"{n} {int(m) + 1} {seed}\n"
                     + "".join(x + "\n" for x in lines[1:] + lines[-1:]))
        side = json.loads(open(path + ".json").read())
        side["m"] = int(m) + 1
        with open(path + ".json", "w") as fh:
            fh.write(json.dumps(side))
        capsys.readouterr()
        assert run(["diagnose", path]) == 1
        assert capsys.readouterr().err == \
            f"error: {path}: duplicate edge in edge list\n"

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

    def test_exact_cells_announced(self, tmp_path, capsys):
        # one stderr line before each exact search; the CSV is unchanged
        out = tmp_path / "e.csv"
        assert run(["sweep", "--n", "120", "--seeds", "2", "--constructions",
                    "edge-deletion", "--exact", "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"# exact alpha: edge-deletion n=120 seed={seed} budget=10000000"
            for seed in (0, 1)]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "c59d98fc1a5114b77d6f9c6da527f11e9118ef6b9d2a6859e2dbdbc00e151c3a"

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

    def test_golden_baselines(self, tmp_path):
        # the process and edge-deletion rows at two sizes, byte for byte;
        # the process rows have 1757, 1773, 4066 and 4019 edges, all maximal
        out = tmp_path / "golden.csv"
        assert run(["sweep", "--n", "150,253", "--seeds", "2",
                    "--constructions", "process,edge-deletion",
                    "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[2:]]
        assert [(r[0], int(r[3])) for r in rows[:4]] == [
            ("process", 1757), ("process", 1773),
            ("process", 4066), ("process", 4019)]
        assert all(r[8].endswith("maximal=True") for r in rows[:4])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "b5d1305f508a776d26019eda3dc9a36f5a91afa87c3b2e2d7181df7d28c3a32d"

    def test_negative_max_steps_leaves_out_alone(self, tmp_path, capsys):
        out = tmp_path / "keep.csv"
        out.write_text("kept\n")
        assert run(["sweep", "--n", "20", "--constructions", "process",
                    "--max-steps", "-1", "--out", str(out)]) == 2
        assert out.read_text() == "kept\n"
        assert capsys.readouterr().out == ""

    def test_usage(self, tmp_path):
        assert run(["sweep"]) == 2
        assert run(["sweep", "--n", "abc"]) == 2
        assert run(["sweep", "--n", "120", "--constructions", "wat",
                    "--out", str(tmp_path / "x.csv")]) == 2


class TestCountFlags:
    """Count flags below their floor are usage errors (exit 2)."""

    @pytest.mark.parametrize("flags", [
        ["alpha", "{path}", "--method", "exact", "--budget", "-1"],
        ["alpha", "{path}", "--method", "exact", "--budget", "0"],
        ["alpha", "{path}", "--restarts", "-4"],
        ["alpha", "{path}", "--restarts", "0"],
        ["diagnose", "{path}", "--sets", "-3"],
        ["sweep", "--n", "120", "--seeds", "-1", "--out", "{out}"],
        ["sweep", "--n", "120", "--exact", "--budget", "0", "--out", "{out}"],
        ["sweep", "--n", "20", "--constructions", "process",
         "--max-steps", "-1", "--out", "{out}"],
    ], ids=["budget-negative", "budget-0", "restarts-negative", "restarts-0",
            "sets", "seeds", "sweep-budget", "max-steps"])
    def test_below_floor(self, tmp_path, capsys, flags):
        path, out = build_small(tmp_path), tmp_path / "keep.csv"
        out.write_text("kept\n")
        capsys.readouterr()
        argv = [f.format(path=path, out=out) for f in flags]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "is below" in captured.err
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("flags", [
        ["alpha", "{path}", "--method", "exact", "--budget", "1"],
        ["alpha", "{path}", "--restarts", "1"],
        ["diagnose", "{path}", "--sets", "0"],
        ["sweep", "--n", "120", "--seeds", "0", "--out", "{out}"],
        ["sweep", "--n", "20", "--constructions", "process",
         "--max-steps", "0", "--out", "{out}"],
    ], ids=["budget", "restarts", "sets", "seeds", "max-steps"])
    def test_at_floor(self, tmp_path, flags):
        path, out = build_small(tmp_path), tmp_path / "sweep.csv"
        assert run([f.format(path=path, out=out) for f in flags]) == 0


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

    def test_config_given_twice(self, tmp_path, capsys):
        # a second file was left to the subcommand's help-only option
        a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
        a.write_text("n=300\nclamp=1\nseed=0\n")
        b.write_text("seed=5\n")
        out = tmp_path / "never.edges"
        for first, second in ((a, b), (b, a)):
            for argv in (["build", "--config", str(first), "--config",
                          str(second)],
                         [f"--config={first}", "build", f"--config={second}"]):
                capsys.readouterr()
                assert run(argv + ["--out", str(out)]) == 2
                err = capsys.readouterr().err
                assert err == "usage error: --config given more than once\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["max_steps", "max-steps"])
    def test_underscore_keys(self, tmp_path, key):
        # a config key names its flag with "_" or "-"
        cfg = tmp_path / "s.cfg"
        a, b = tmp_path / "a" / "sweep.csv", tmp_path / "b" / "sweep.csv"
        a.parent.mkdir()
        b.parent.mkdir()
        cfg.write_text(f"n = 20\nconstructions = process\n{key} = 5\n")
        assert run(["sweep", "--config", str(cfg), "--out", str(a)]) == 0
        assert run(["sweep", "--n", "20", "--constructions", "process",
                    "--max-steps", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


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
