"""Instance files: text edge lists with JSON sidecars, or single-file JSON.

Graph instances: header line ``n m seed``, then m lines ``u v`` with
1-based endpoints, u < v, sorted lexicographically.  Triple systems use the
same header and ``u v w`` lines (sorted within each line and overall), with
the per-line color flags carried by the sidecar as a string of R/B/D
characters aligned with the line order.  Edge-list files are ASCII: digits,
spaces or tabs, and line breaks.

The sidecar sits next to the edge file with ``.json`` appended to its name
and holds the parameter record, placement/base-graph provenance (0-based,
numpy-native ids), and builder statistics.  ``format="json"`` embeds
everything, edges included (still 1-based, mirroring the text layout), in
one deterministic file: keys sorted, newline-terminated.

Reading is where file layouts become program objects, checked once: a
graph record's provenance is (BaseGraph, BaseGraph, Placement), whole and
with params or absent, and a triple record holds its TripleSystem, whose
cells are a Placement read the same way.  Their errors name the file.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .construction import BaseGraph, Placement
from .graphview import SimpleGraphView
from .hypergraph import TripleSystem
from .params import Params

__all__ = ["InstanceRecord", "TripleRecord", "graph_record", "triple_record",
           "write_instance", "read_instance", "instances_equal", "jsonify"]


def jsonify(obj):
    """obj with numpy scalars and arrays turned into plain JSON values."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _dumps(payload: dict) -> str:
    return json.dumps(jsonify(payload), sort_keys=True, indent=1) + "\n"


@dataclass
class InstanceRecord:
    """Serializable projection of a built graph instance."""

    seed: int
    graph: SimpleGraphView  # its edge_array() is the lex-sorted edge list
    params: Params | None = None
    # (base_red, base_blue, placement), whole or None; read with params only
    provenance: tuple[BaseGraph, BaseGraph, Placement] | None = None
    stats: dict = field(default_factory=dict)
    kind: ClassVar[str] = "graph"

    @property
    def n(self) -> int:
        return self.graph.n


# a record's provenance keys, by kind: all of them with params, or none
_PROVENANCE = {"graph": ("base_red_edges", "base_blue_edges", "placement"),
               "triples": ("cells",)}


# triple colors: the character of flag bits f (1 red, 2 blue, 3 both) is
# _COLOR_OF_FLAG[f], and _FLAG_OF_COLOR maps each character code back (0
# for any character but R, B and D)
_COLOR_OF_FLAG = np.frombuffer(b"?RBD", dtype=np.uint8)
_FLAG_OF_COLOR = np.zeros(256, dtype=np.uint8)
_FLAG_OF_COLOR[_COLOR_OF_FLAG[1:]] = (1, 2, 3)


@dataclass
class TripleRecord:
    """Serializable projection of a triple system."""

    seed: int
    system: TripleSystem
    params: Params | None = None
    stats: dict = field(default_factory=dict)
    kind: ClassVar[str] = "triples"

    @property
    def n(self) -> int:
        return self.system.order


def graph_record(placed) -> InstanceRecord:
    """Project a builder result (construction.build output) to a record."""
    return InstanceRecord(
        seed=placed.seed,
        graph=placed.graph,
        params=placed.params,
        provenance=(placed.base_red, placed.base_blue, placed.placement),
        stats=dict(placed.stats),
    )


def triple_record(h: TripleSystem, params: Params | None = None, seed: int = 0,
                  stats: dict | None = None) -> TripleRecord:
    return TripleRecord(seed=seed, system=h, params=params,
                        stats=dict(stats or {}))


def _record_payload(rec) -> tuple[str, np.ndarray, dict]:
    """The key of rec's entries, the entries as one (m, w) int64 array
    (0-based; w = 2 for edges, 3 for triples) and rec's sidecar payload;
    ValueError for a record with provenance but no params."""
    if rec.kind == "graph":
        key, entries = "edges", rec.graph.edge_array()
        extra = dict.fromkeys(_PROVENANCE["graph"])
        if rec.provenance is not None:
            red, blue, placement = rec.provenance
            extra = {"base_red_edges": red.edge_array(),
                     "base_blue_edges": blue.edge_array(),
                     "placement": {"rows": placement.rows,
                                   "cols": placement.cols}}
    elif rec.kind == "triples":
        h = rec.system
        key, entries = "triples", h.triples
        extra = {"system_kind": h.kind, "cells": None if h.cells is None
                 else np.column_stack([h.cells.rows, h.cells.cols]),
                 "colors": _COLOR_OF_FLAG[h.flags].tobytes().decode()}
    else:
        raise ValueError(f"unknown record kind {rec.kind!r}")
    held = [k for k in _PROVENANCE[rec.kind] if extra[k] is not None]
    if held and rec.params is None:  # a file the reader rejects
        raise ValueError(f"partial provenance: holds {', '.join(held)} "
                         "without params")
    return key, entries, {
        "kind": rec.kind, "n": rec.n, "m": len(entries), "seed": rec.seed,
        "params": None if rec.params is None else rec.params.to_dict(),
        "stats": rec.stats, **extra}


# entry lines formatted per % call: bounds the text held at once
_CHUNK = 65536


def write_instance(rec, path: str, fmt: str = "edgelist") -> list[str]:
    """Write a record; returns the list of files written."""
    out_dir = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(out_dir):
        raise FileNotFoundError(f"output directory does not exist: {out_dir}")
    if fmt not in ("edgelist", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    key, entries, payload = _record_payload(rec)
    if fmt == "json":
        body = dict(payload, format="json")
        body[key] = entries + 1
        with open(path, "w") as fh:
            fh.write(_dumps(body))
        return [path]
    with open(path, "w") as fh:
        fh.write(f"{rec.n} {len(entries)} {rec.seed}\n")
        for lo in range(0, len(entries), _CHUNK):
            chunk = entries[lo:lo + _CHUNK] + 1
            line = " ".join(["%d"] * chunk.shape[1]) + "\n"
            fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
    side = path + ".json"
    with open(side, "w") as fh:
        fh.write(_dumps(payload))
    return [path, side]


def _integer(value, name: str) -> int:
    """value, which must be an int (not a bool, float or string)."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _int_array(raw, name: str) -> np.ndarray:
    """raw as an int64 array; TypeError unless every value is an integer."""
    if isinstance(raw, np.ndarray):  # an edge-list body, parsed as int64
        return raw
    arr = np.asarray(raw)
    if arr.size and arr.dtype.kind not in "iu":
        raise TypeError(f"{name} must hold integers, got {arr.dtype} values")
    # numpy reads a JSON true or false among integers as 1 or 0
    if arr.size and bool in map(type, np.array(raw, dtype=object).flat):
        raise TypeError(f"{name} must hold integers, got bool values")
    return arr.astype(np.int64, copy=False)


def _entries(raw, width: int, name: str) -> np.ndarray:
    """Entry lines (edges or triples) as a (count, width) int64 array."""
    arr = _int_array(raw, name)
    if arr.size == 0:
        return arr.reshape(0, width)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"{name} must have {width} values per row")
    return arr


def _provenance(payload: dict, kind: str, params: Params | None, n: int):
    """A payload's provenance, a graph's (base_red, base_blue, placement) or
    a triple system's cells as a Placement; None without any of its kind's
    keys, ValueError with only some of them, or with them but no params."""
    keys = _PROVENANCE[kind]
    held = [key for key in keys if payload.get(key) is not None]
    if not held:
        return None
    missing = [key for key in ("params", *keys) if payload.get(key) is None]
    if missing:
        raise ValueError("partial provenance: holds "
                         f"{', '.join(held)} without {', '.join(missing)}")
    if kind == "triples":  # [[row, col], ...]
        rows, cols = _entries(payload["cells"], 2, "cells").T
    else:
        rows, cols = (_int_array(payload["placement"][key], f"placement {key}")
                      for key in ("rows", "cols"))
    placement = Placement(params.N, rows, cols)
    if placement.n != n:
        raise ValueError(f"placement holds {placement.n} vertices, "
                         f"the instance {n}")
    if kind == "triples":
        return placement
    red, blue = (BaseGraph.from_edges(side, params.N,
                                      _entries(payload[key], 2, key))
                 for side, key in (("red", "base_red_edges"),
                                   ("blue", "base_blue_edges")))
    return red, blue, placement


def _from_payload(payload: dict, source: str, body=None, body_source=None):
    """Record from the parsed payload of file source; body holds the 1-based
    entry lines of edge-list file body_source, else the entries come from
    the payload itself.  An error names the file that holds the fault."""
    with _record_in(source):
        kind = payload.get("kind", "graph")
        if kind not in _PROVENANCE:
            raise ValueError(f"unknown record kind {kind!r}")
        n = _integer(payload["n"], "n")
        if n < 0:
            raise ValueError(f"n = {n} is negative")
        seed = _integer(payload.get("seed", 0), "seed")
        params = payload.get("params")
        params = None if params is None else Params.from_dict(params)
        placed = _provenance(payload, kind, params, n)
        stats = payload.get("stats") or {}
        key = "edges" if kind == "graph" else "triples"
        raw = payload.get(key, []) if body is None else body
        if kind == "triples":
            colors = payload.get("colors", "")
            if not isinstance(colors, str):
                raise TypeError(f"colors must be a string, got {type(colors).__name__}")
            if len(colors) != len(raw):
                raise ValueError("color string does not match triple count")
            odd = colors.lstrip("RBD")  # from the first other character on
            if odd:
                raise TypeError(f"colors must hold R, B and D only, got {odd[0]!r}")
            flags = _FLAG_OF_COLOR[np.frombuffer(colors.encode(), np.uint8)]
    with _record_in(body_source or source):
        if kind == "graph":
            edges = _entries(raw, 2, "edges") - 1
            if len(edges) and not (edges[:, 0] < edges[:, 1]).all():
                raise ValueError("edges must satisfy u < v")
            graph = SimpleGraphView.from_edge_arrays(n, *edges.T)
            return InstanceRecord(seed=seed, graph=graph, params=params,
                                  provenance=placed, stats=stats)
        entries = _entries(raw, 3, "triples")
        a, b, c = entries.T
        bad = (entries.min(axis=1) < 1) | (entries.max(axis=1) > n) \
            | (a == b) | (b == c) | (a == c)
        if bad.any():  # named as the file writes it, 1-based
            line = tuple(entries[bad.argmax()].tolist())
            raise ValueError(f"bad triple {line}")
        h = TripleSystem.from_arrays(n, entries - 1, flags,
                                     payload.get("system_kind", "reduced"), placed)
        if h.edge_count() != len(entries):  # from_arrays merged a repeated line
            raise ValueError("duplicate triple in triple list")
        return TripleRecord(seed=seed, system=h, params=params, stats=stats)


# the edge-list grammar, by byte: 0 digit, 1 space or tab, 2 line break,
# 3 anything else
_BYTE_KIND = np.full(256, 3, dtype=np.uint8)
_BYTE_KIND[list(b"0123456789")] = 0
_BYTE_KIND[list(b" \t")] = 1
_BYTE_KIND[list(b"\n\v\f\r")] = 2


def _line_widths(data: bytes) -> np.ndarray:
    """Token counts of the lines of an edge-list file, blank ones included
    ("\\r\\n" ends one line); a byte outside the grammar is a ValueError."""
    codes = np.frombuffer(data, dtype=np.uint8)
    kind = _BYTE_KIND[codes]
    token = kind == 0
    start = token.copy()
    start[1:] &= ~token[:-1]  # first digit of each token
    brk = kind == 2
    brk[1:] &= (codes[1:] != 10) | (codes[:-1] != 13)
    bad = kind == 3
    if bad.any():
        at = int(bad.argmax())
        raise ValueError(f"line {np.count_nonzero(brk[:at]) + 1}: "
                         f"{data[at:at + 1]!r} is not a digit, space or line break")
    event = np.flatnonzero(start | brk)  # token starts and line breaks, in order
    at = np.flatnonzero(brk[event])  # the line breaks among them
    return np.diff(at, prepend=-1, append=event.size) - 1


@contextmanager
def _record_in(source: str):
    """Report a bad value, a missing key or a value of the wrong type in
    file source as a ValueError naming the file once."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{source}: missing key {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{source}: value of the wrong type: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def read_instance(path: str):
    """Load a record from an edge-list (with sidecar) or embedded-JSON file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.lstrip().startswith(b"{"):
        with _record_in(path):
            payload = json.loads(data)
            if payload.get("format") != "json":
                raise ValueError("JSON instance file missing format marker")
        return _from_payload(payload, path)

    with _record_in(path):
        widths = _line_widths(data)
        lines = np.flatnonzero(widths)  # the non-blank lines, 0-based
        if not lines.size:
            raise ValueError("empty instance file")
        widths = widths[lines]
        # the grammar leaves only digit runs and C whitespace: one token each
        values = np.fromstring(data, dtype=np.int64, sep=" ")
        big = values == np.iinfo(np.int64).max  # where fromstring saturates
        if big.any():
            line = lines[np.searchsorted(np.cumsum(widths), big.argmax(), "right")]
            raise ValueError(f"line {line + 1}: integer too large")
        if widths[0] != 3:
            head = " ".join(map(str, values[:widths[0]].tolist()))
            raise ValueError(f"bad header {head!r}: want 'n m seed'")
        n, m, seed = values[:3].tolist()
        if widths.size - 1 != m:
            raise ValueError(f"header claims {m} lines, found {widths.size - 1}")
        width = int(widths[1]) if m else 2
        if m and (width not in (2, 3) or (widths[1:] != width).any()):
            raise ValueError("mixed or malformed entry lines")
        body = values[3:].reshape(m, width)
    kind = "triples" if width == 3 else "graph"

    side = path + ".json"
    if os.path.exists(side):
        with _record_in(side):
            with open(side) as fh:
                payload = json.loads(fh.read())
            if (_integer(payload.get("n", n), "n") != n
                    or _integer(payload.get("m", m), "m") != m
                    or (m and payload.get("kind", "graph") != kind)):
                raise ValueError("sidecar disagrees with edge-file header")
        return _from_payload(payload, side, body, path)
    payload = {"kind": kind, "n": n, "m": m, "seed": seed,
               "colors": "D" * m if kind == "triples" else None}
    return _from_payload(payload, path, body)


def instances_equal(a, b) -> bool:
    """True iff a and b would write the same instance."""
    key_a, entries_a, payload_a = _record_payload(a)
    key_b, entries_b, payload_b = _record_payload(b)
    return (key_a == key_b and np.array_equal(entries_a, entries_b)
            and _dumps(payload_a) == _dumps(payload_b))
