"""File formats: edge lists with sidecars, embedded JSON, and equality."""

import dataclasses
import json
import os

import numpy as np
import pytest
from oracles import edge_list_by_split

from trioverlay.construction import build, rebuild
from trioverlay.graphview import SimpleGraphView
from trioverlay.hypergraph import BLUE, RED, TripleSystem
from trioverlay.params import explicit_params, feasible_params
from trioverlay.serialize import (InstanceRecord, TripleRecord, _line_widths,
                                  _record_payload, graph_record,
                                  instances_equal, read_instance,
                                  triple_record, write_instance)


def _bare(n, seed=0, edges=(), **kw):
    """A graph record of n vertices and the given edges, built in memory."""
    return InstanceRecord(seed=seed, graph=SimpleGraphView.from_edges(n, edges),
                          **kw)


def _placed(seed=0):
    return build(explicit_params(n=20, N=5, p=0.5, k=5), seed=seed)


def _reduced_system(seed=0):
    from trioverlay.hypergraph import (hyper_product, inject_hyper,
                                       s4_reduction, sample_base_3graphs)
    par = explicit_params(n=16, N=4, p=0.6, k=3)
    hr, hb = sample_base_3graphs(par, seed)
    h2 = inject_hyper(hyper_product(hr, hb), par, seed)
    return par, s4_reduction(h2)


class TestGraphRoundTrip:
    def test_edgelist_with_sidecar(self, tmp_path):
        rec = graph_record(_placed())
        path = str(tmp_path / "inst.edges")
        files = write_instance(rec, path, fmt="edgelist")
        assert files == [path, path + ".json"]
        back = read_instance(path)
        assert instances_equal(rec, back)
        assert back.params.to_dict() == rec.params.to_dict()

    def test_json_embedded(self, tmp_path):
        rec = graph_record(_placed(seed=3))
        path = str(tmp_path / "inst.json")
        files = write_instance(rec, path, fmt="json")
        assert files == [path]
        back = read_instance(path)
        assert instances_equal(rec, back)

    def test_rebuild_keeps_stats(self, tmp_path):
        # build -> record -> file -> record -> rebuild: equal stats, keys in
        # the same order, in either format
        placed = build(feasible_params(300), seed=5)
        for fmt, name in (("edgelist", "r.edges"), ("json", "r.json")):
            path = str(tmp_path / name)
            write_instance(graph_record(placed), path, fmt=fmt)
            again = rebuild(read_instance(path))
            assert again.stats == placed.stats
            assert list(again.stats) == list(placed.stats)

    def test_text_layout(self, tmp_path):
        rec = graph_record(_placed(seed=1))
        path = str(tmp_path / "inst.edges")
        write_instance(rec, path)
        lines = open(path).read().splitlines()
        n, m, seed = (int(x) for x in lines[0].split())
        assert (n, m, seed) == (20, rec.graph.m, 1)
        assert len(lines) == m + 1
        pairs = [tuple(int(x) for x in ln.split()) for ln in lines[1:]]
        assert all(1 <= u < v <= 20 for u, v in pairs)
        assert pairs == sorted(pairs)
        # endpoints are 1-based on disk, 0-based in memory
        assert pairs == [(int(u) + 1, int(v) + 1)
                         for u, v in rec.graph.edge_array()]

    def test_sidecar_payload(self, tmp_path):
        rec = graph_record(_placed(seed=2))
        path = str(tmp_path / "inst.edges")
        write_instance(rec, path)
        side = json.loads(open(path + ".json").read())
        assert side["kind"] == "graph"
        assert side["params"]["N"] == 5
        red, blue, placement = rec.provenance
        assert side["placement"]["rows"] == placement.rows.tolist()
        assert side["placement"]["cols"] == placement.cols.tolist()
        assert side["base_red_edges"] == red.edge_array().tolist()
        assert side["base_blue_edges"] == blue.edge_array().tolist()
        assert side["stats"] == rec.stats

    def test_rewrite_bit_identical(self, tmp_path):
        rec = graph_record(_placed(seed=4))
        for fmt, name in (("edgelist", "a.edges"), ("json", "a.json")):
            p1 = str(tmp_path / name)
            p2 = str(tmp_path / ("re_" + name))
            write_instance(rec, p1, fmt=fmt)
            write_instance(read_instance(p1), p2, fmt=fmt)
            assert open(p1, "rb").read() == open(p2, "rb").read()
            if fmt == "edgelist":
                assert (open(p1 + ".json", "rb").read()
                        == open(p2 + ".json", "rb").read())

    def test_lines_out_of_order(self, tmp_path):
        # the record is canonical: an unsorted file reads as its sorted twin
        # and both write the same bytes
        texts = {"u.edges": "4 2 0\n2 3\n1 2\n", "s.edges": "4 2 0\n1 2\n2 3\n"}
        recs = []
        for name, text in texts.items():
            (tmp_path / name).write_text(text)
            recs.append(read_instance(str(tmp_path / name)))
            write_instance(recs[-1], str(tmp_path / ("re_" + name)))
        assert instances_equal(*recs)
        assert recs[0].graph.edge_array().tolist() == [[0, 1], [1, 2]]
        for suffix in ("", ".json"):
            assert ((tmp_path / ("re_u.edges" + suffix)).read_bytes()
                    == (tmp_path / ("re_s.edges" + suffix)).read_bytes())
        assert (tmp_path / "re_u.edges").read_text() == texts["s.edges"]

    def test_nan_params_survive(self, tmp_path):
        # n = 1 leaves beta and kappa undefined; NaN must round-trip
        par = explicit_params(n=1, N=2, p=0.5, k=1)
        rec = _bare(1, params=par)
        for fmt, name in (("edgelist", "n.edges"), ("json", "n.json")):
            path = str(tmp_path / name)
            write_instance(rec, path, fmt=fmt)
            back = read_instance(path)
            assert np.isnan(back.params.beta) and np.isnan(back.params.kappa)
            assert instances_equal(rec, back)

    def test_bare_record(self, tmp_path):
        rec = _bare(4, seed=9, edges=[(0, 2), (1, 3)])
        path = str(tmp_path / "bare.edges")
        write_instance(rec, path)
        back = read_instance(path)
        assert instances_equal(rec, back)
        assert back.params is None and back.provenance is None

    def test_graph_without_sidecar(self, tmp_path):
        rec = graph_record(_placed(seed=5))
        path = str(tmp_path / "inst.edges")
        write_instance(rec, path)
        os.remove(path + ".json")
        back = read_instance(path)
        assert back.params is None
        assert (back.graph.edge_array() == rec.graph.edge_array()).all()
        assert back.seed == rec.seed
        assert not instances_equal(rec, back)  # provenance was dropped

    def test_empty_graph(self, tmp_path):
        rec = _bare(5, seed=1)
        for fmt in ("edgelist", "json"):
            path = str(tmp_path / f"e.{fmt}")
            write_instance(rec, path, fmt=fmt)
            back = read_instance(path)
            assert back.graph.edge_array().shape == (0, 2)
            assert instances_equal(rec, back)


class TestTripleRoundTrip:
    def test_both_formats(self, tmp_path):
        par, h = _reduced_system()
        rec = triple_record(h, params=par, seed=0, stats={"note": 1})
        assert rec.kind == "triples"
        for fmt, name in (("edgelist", "t.triples"), ("json", "t.json")):
            path = str(tmp_path / name)
            write_instance(rec, path, fmt=fmt)
            back = read_instance(path)
            assert instances_equal(rec, back)
            got = back.system
            assert np.array_equal(got.triples, h.triples)
            assert np.array_equal(got.flags, h.flags)

    def test_colors_align(self):
        h = TripleSystem.from_arrays(5, [(4, 2, 1), (0, 1, 2), (3, 1, 0)],
                                     [RED | BLUE, RED, BLUE])
        key, entries, payload = _record_payload(triple_record(h))
        assert key == "triples"
        assert np.array_equal(entries, [(0, 1, 2), (0, 1, 3), (1, 2, 4)])
        assert entries.dtype == np.int64
        assert payload["colors"] == "RBD"

    def test_record_holds_its_system(self, tmp_path):
        # the record holds the system itself; a read one, in either format,
        # holds the canonical form from_arrays gives the file's triples and
        # colours
        par, h = _reduced_system(seed=3)
        rec = triple_record(h, params=par, seed=3)
        assert rec.system is h and rec.n == h.order
        want = TripleSystem.from_arrays(h.order, h.triples[::-1],
                                        h.flags[::-1], h.kind, h.cells)
        for fmt in ("edgelist", "json"):
            path = str(tmp_path / f"t.{fmt}")
            write_instance(rec, path, fmt=fmt)
            got = read_instance(path).system
            for name in ("order", "kind"):
                assert getattr(got, name) == getattr(want, name)
            for name in ("triples", "flags"):
                x, y = getattr(got, name), getattr(want, name)
                assert x.dtype == y.dtype and np.array_equal(x, y), name
            assert got.cells.N == want.cells.N
            for name in ("rows", "cols"):
                x, y = getattr(got.cells, name), getattr(want.cells, name)
                assert x.dtype == y.dtype and np.array_equal(x, y), name

    def test_sidecar_less_fallback(self, tmp_path):
        par, h = _reduced_system(seed=2)
        rec = triple_record(h, params=par, seed=2)
        path = str(tmp_path / "t.triples")
        write_instance(rec, path)
        os.remove(path + ".json")
        back = read_instance(path)
        assert back.kind == "triples"
        assert np.array_equal(back.system.triples, h.triples)
        # flags were lost: every triple reads as dual ("D")
        assert (back.system.flags == RED | BLUE).all()
        assert back.params is None

    @pytest.mark.parametrize("sidecar", [False, True])
    def test_lines_out_of_order_read_sorted(self, tmp_path, sidecar):
        path = str(tmp_path / "t.triples")
        with open(path, "w") as fh:
            fh.write("5 2 0\n2 3 4\n1 2 3\n")
        if sidecar:
            with open(path + ".json", "w") as fh:
                fh.write(json.dumps({"kind": "triples", "n": 5, "m": 2,
                                     "seed": 0, "colors": "RB"}))
        rec = read_instance(path)
        assert rec.system.triples.tolist() == [[0, 1, 2], [1, 2, 3]]
        # each colour stays with its triple
        flags = [BLUE, RED] if sidecar else [RED | BLUE] * 2
        assert rec.system.flags.tolist() == flags
        # the record the same triples and colours give in sorted order
        h = TripleSystem.from_arrays(5, [(0, 1, 2), (1, 2, 3)], flags,
                                     "reduced")
        assert instances_equal(rec, triple_record(h))

    def test_text_lines_sorted(self, tmp_path):
        par, h = _reduced_system(seed=1)
        rec = triple_record(h, params=par, seed=1)
        path = str(tmp_path / "t.triples")
        write_instance(rec, path)
        lines = open(path).read().splitlines()
        trips = [tuple(int(x) for x in ln.split()) for ln in lines[1:]]
        assert trips == sorted(trips)
        assert all(a < b < c for a, b, c in trips)


class TestErrors:
    def test_missing_directory(self, tmp_path):
        rec = _bare(3)
        with pytest.raises(FileNotFoundError):
            write_instance(rec, str(tmp_path / "nope" / "x.edges"))

    def test_provenance_without_params(self, tmp_path):
        # the reader rejects such a file, so the writer writes none
        graph = graph_record(_placed())
        graph.params = None
        triples = triple_record(_reduced_system()[1])  # placed, no params
        for rec, held in ((graph, "base_red_edges, base_blue_edges, placement"),
                          (triples, "cells")):
            for fmt in ("edgelist", "json"):
                with pytest.raises(ValueError, match="partial provenance: "
                                   f"holds {held} without params"):
                    write_instance(rec, str(tmp_path / "x.edges"), fmt=fmt)
                assert os.listdir(tmp_path) == []

    def test_kind_is_not_a_field(self):
        # a record's kind is its class's constant, not a settable field
        for cls, kind in ((InstanceRecord, "graph"), (TripleRecord, "triples")):
            assert "kind" not in {f.name for f in dataclasses.fields(cls)}
            assert cls.kind == kind
        with pytest.raises(TypeError):
            _bare(3, kind="triples")

    def test_unknown_format(self, tmp_path):
        rec = _bare(3)
        with pytest.raises(ValueError):
            write_instance(rec, str(tmp_path / "x.edges"), fmt="csv")

    def _write(self, tmp_path, text, name="bad.edges"):
        path = str(tmp_path / name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def test_bad_header(self, tmp_path):
        with pytest.raises(ValueError, match="header"):
            read_instance(self._write(tmp_path, "3 1\n1 2\n"))

    def test_count_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="claims"):
            read_instance(self._write(tmp_path, "3 2 0\n1 2\n"))

    def test_mixed_lines(self, tmp_path):
        with pytest.raises(ValueError, match="mixed|malformed"):
            read_instance(self._write(tmp_path, "4 2 0\n1 2\n1 2 3\n"))

    def test_unsorted_endpoints(self, tmp_path):
        with pytest.raises(ValueError, match="u < v"):
            read_instance(self._write(tmp_path, "3 1 0\n2 1\n"))

    def test_out_of_range(self, tmp_path):
        with pytest.raises(ValueError, match="range"):
            read_instance(self._write(tmp_path, "2 1 0\n1 5\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            read_instance(self._write(tmp_path, ""))

    def test_sidecar_disagrees(self, tmp_path):
        path = self._write(tmp_path, "3 1 0\n1 2\n")
        with open(path + ".json", "w") as fh:
            fh.write(json.dumps({"kind": "graph", "n": 3, "m": 7}))
        with pytest.raises(ValueError, match="sidecar"):
            read_instance(path)

    def test_json_without_marker(self, tmp_path):
        path = self._write(tmp_path, json.dumps({"kind": "graph", "n": 2,
                                                 "edges": []}), "x.json")
        with pytest.raises(ValueError, match="marker"):
            read_instance(path)

    def test_bool_in_cells(self, tmp_path):
        # numpy would read [true, 3] as [1, 3]
        par, h = _reduced_system()
        path = str(tmp_path / "t.triples")
        write_instance(triple_record(h, params=par), path)
        side = json.loads(open(path + ".json").read())
        side["cells"][0][0] = True
        with open(path + ".json", "w") as fh:
            fh.write(json.dumps(side))
        with pytest.raises(ValueError, match="cells must hold integers, got bool"):
            read_instance(path)

    def test_color_length_mismatch(self, tmp_path):
        body = {"format": "json", "kind": "triples", "n": 4, "m": 1,
                "seed": 0, "colors": "RB", "triples": [[1, 2, 3]]}
        path = self._write(tmp_path, json.dumps(body), "t.json")
        with pytest.raises(ValueError, match="color"):
            read_instance(path)

    @pytest.mark.parametrize("n, lines", [
        (5, [[1, 2, 3], [1, 2, 3], [2, 3, 4]]),
        (5, [[1, 2, 3], [2, 3, 4], [3, 1, 2]]),
        # n^3 overflows int64: the rows are keyed on vertex ranks
        (3_000_000, [[2999994, 2999992, 1], [1, 2, 3], [1, 2999992, 2999994]])],
        ids=["adjacent", "reordered", "beyond-int64"])
    def test_repeated_triple(self, tmp_path, n, lines):
        # a file of two distinct triples must not read as a system of two
        # triples out of three lines
        text = f"{n} 3 0\n" + "".join(f"{u} {v} {w}\n" for u, v, w in lines)
        embedded = json.dumps({"format": "json", "kind": "triples", "n": n,
                               "m": 3, "seed": 0, "colors": "RBD",
                               "triples": lines})
        for source in (self._write(tmp_path, text, "t.triples"),
                       self._write(tmp_path, embedded, "t.json")):
            with pytest.raises(ValueError,
                               match="duplicate triple in triple list"):
                read_instance(source)

    @pytest.mark.parametrize("colors, names", [
        ("RXD", "colors must hold R, B and D only, got 'X'"),
        ("RBr", "colors must hold R, B and D only, got 'r'"),
        (["R", "B", "D"], "colors must be a string, got list"),
        (7, "colors must be a string, got int"),
    ], ids=["X", "lower-case", "list", "int"])
    def test_unknown_colors(self, tmp_path, colors, names):
        # the sidecar of an edge-list file and the JSON format alike
        side = {"kind": "triples", "n": 5, "m": 3, "seed": 0,
                "colors": colors}
        path = self._write(tmp_path, "5 3 0\n1 2 3\n1 2 4\n2 3 5\n",
                           "t.triples")
        with open(path + ".json", "w") as fh:
            fh.write(json.dumps(side))
        embedded = self._write(tmp_path, json.dumps(dict(
            side, format="json", triples=[[1, 2, 3], [1, 2, 4], [2, 3, 5]])),
            "t.json")
        for source, named in ((path, path + ".json"), (embedded, embedded)):
            with pytest.raises(ValueError) as exc:
                read_instance(source)
            assert str(exc.value).startswith(named + ": ")
            assert names in str(exc.value)


class TestLineWidths:
    def test_matches_str_split_per_line(self):
        # the per-line definition the vectorized count replaces, on the
        # grammar's alphabet; a final "\f" makes splitlines keep the last
        # line, blank or not, as the count does
        def per_line(text):
            return [len(ln.split()) for ln in (text + "\f").splitlines()]

        grammar = list(b"01 \t\n\r\v\f")
        others = [b for b in range(256) if b not in b"0123456789 \t\n\r\v\f"]
        rng = np.random.default_rng(9)
        for _ in range(3000):
            size = int(rng.integers(0, 25))
            data = bytearray(rng.choice(grammar, size=size).tolist())
            text = data.decode("ascii")
            if rng.random() < 0.5:
                assert _line_widths(bytes(data)).tolist() == per_line(text), \
                    repr(text)
                continue
            # any other byte is an error naming the line it stands on
            at = int(rng.integers(0, size + 1))
            data[at:at] = [int(rng.choice(others))]
            with pytest.raises(ValueError) as exc:
                _line_widths(bytes(data))
            assert str(exc.value) == (
                f"line {len(per_line(text[:at]))}: {bytes(data[at:at + 1])!r}"
                " is not a digit, space or line break")

    def test_crlf_tabs_and_blank_lines_parse_alike(self, tmp_path):
        plain = tmp_path / "a.edges"
        plain.write_text("4 2 0\n1 2\n3 4\n")
        odd = tmp_path / "b.edges"
        odd.write_bytes(b"\r\n 4\t2 0\r\n\r\n1 2\f3\t 4\r\n\n")
        a, b = read_instance(str(plain)), read_instance(str(odd))
        assert instances_equal(a, b)


class TestSplitOracle:
    """The one-pass reader against the two-pass parse it replaced."""

    @staticmethod
    def _text(rng, rows):
        """rows as lines of decimal tokens with random ASCII spacing, blank
        lines, CRLF and other line breaks, and leading zeros."""
        def gap(lo):
            return "".join(rng.choice([" ", "\t"], size=int(rng.integers(lo, 4))))

        def brk():
            return str(rng.choice(["\n", "\r\n", "\r", "\v", "\f"]))

        out = [brk() + gap(0) for _ in range(int(rng.integers(0, 2)))]
        for row in rows:
            out.append(gap(0) + "".join(
                ("0" * int(rng.integers(1, 25)) if rng.random() < 0.2 else "")
                + str(x) + gap(1 if j + 1 < len(row) else 0)
                for j, x in enumerate(row)) + brk())
            if rng.random() < 0.2:
                out.append(gap(0) + brk())
        return "".join(out)

    @pytest.mark.parametrize("width", [2, 3])
    def test_random_valid_files(self, tmp_path, width):
        rng = np.random.default_rng(width)
        path = tmp_path / "r.edges"
        for _ in range(300):
            n = int(rng.integers(width, 40))
            m = int(rng.integers(0, 12))
            body = np.sort([rng.choice(n, width, replace=False) + 1
                            for _ in range(m)], axis=-1).reshape(m, width)
            # a repeated line is an error
            body = body[np.sort(np.unique(body, axis=0, return_index=True)[1])]
            m = len(body)
            seed = int(rng.integers(0, 2**63 - 1))  # up to int64 max - 1
            text = self._text(rng, [[n, m, seed], *body.tolist()])
            path.write_bytes(text.encode("ascii"))
            n_ref, m_ref, seed_ref, body_ref = edge_list_by_split(str(path))
            rec = read_instance(str(path))
            # with no entry line the file cannot tell triples from edges
            entries = (rec.graph.edge_array() if rec.kind == "graph"
                       else rec.system.triples)
            assert (rec.n, len(entries), rec.seed) == (n_ref, m_ref, seed_ref), \
                repr(text)
            # entries come back lex-sorted, whatever the line order
            want = np.unique(body_ref, axis=0)
            assert np.array_equal(entries.ravel() + 1, want.ravel()), \
                repr(text)
            assert (n_ref, m_ref, seed_ref) == (n, m, seed)
            assert np.array_equal(body_ref.ravel(), body.ravel())


class TestInstancesEqual:
    def test_self_and_copies(self):
        rec = graph_record(_placed())
        assert instances_equal(rec, rec)

    def test_field_sensitivity(self):
        a = graph_record(_placed(seed=0))
        b = graph_record(_placed(seed=1))
        assert not instances_equal(a, b)
        import copy
        c = copy.deepcopy(a)
        c.stats["edges_final"] += 1
        assert not instances_equal(a, c)
        d = copy.deepcopy(a)
        d.provenance = None
        assert not instances_equal(a, d)

    def test_kind_mismatch(self):
        g = _bare(4)
        t = TripleRecord(seed=0, system=TripleSystem.from_arrays(4, [], []))
        assert not instances_equal(g, t)

    def test_nan_stats(self):
        a = _bare(2, stats={"x": float("nan")})
        b = _bare(2, stats={"x": float("nan")})
        assert instances_equal(a, b)
