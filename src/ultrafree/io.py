"""File formats.

Graphs are parsed and emitted, in DIMACS-edge or JSON; round trips are
exact: parsing an emitted graph reproduces the same vertex indices in
both formats.  Set systems and convexity spaces are parsed only (JSON
inputs), and blow-up decompositions are emitted only (``decompose``
output).  All parse failures raise :class:`ParseError` naming the
offending line or entry.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .convexity import ConvexitySpace, explicit_space, mis_space, subcube_space
from .decompose import BlowupDecomposition
from .graphs import Graph
from .setsystems import SetSystem

__all__ = [
    "ParseError",
    "parse_graph",
    "emit_dimacs",
    "emit_graph_json",
    "graph_to_obj",
    "graph_from_obj",
    "system_from_obj",
    "parse_space",
    "decomposition_to_obj",
    "load_text",
]


class ParseError(ValueError):
    """Malformed input; the message names the line or entry at fault."""


def load_text(source) -> str:
    """Resolve a path-or-text argument to text.

    Anything that begins like one of the supported formats is taken
    verbatim; otherwise it must be the path of a readable file.
    """
    if isinstance(source, os.PathLike):
        return Path(source).read_text(encoding="utf-8")
    head = source.lstrip()[:1]
    if head in ("{", "["):
        return source
    first = source.lstrip().split(None, 1)[0] if source.strip() else ""
    if first in ("p", "c", "e"):
        return source
    if os.path.exists(source):
        return Path(source).read_text(encoding="utf-8")
    raise ParseError(f"not a recognized format and no such file: {source!r}")


def _unique_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"JSON object repeats key {key!r}")
        obj[key] = value
    return obj


def _load_json(text: str):
    """Parse JSON text; a key repeated in one object is a ParseError,
    not a silent overwrite."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from None


def _int_field(obj: dict, key: str, what: str) -> int:
    if key not in obj:
        raise ParseError(f"{what} is missing key {key!r}")
    v = obj[key]
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ParseError(f"{what} key {key!r} must be a nonnegative integer")
    return v


# ---------------------------------------------------------------- graphs


def _parse_dimacs(text: str) -> Graph:
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        tok = raw.split()
        if not tok or tok[0] == "c":
            continue
        if tok[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate problem line")
            if len(tok) != 4 or tok[1] != "edge":
                raise ParseError(f"line {lineno}: expected 'p edge <n> <m>'")
            try:
                n = int(tok[2])
                m = int(tok[3])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer size") from None
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: negative size")
        elif tok[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before problem line")
            if len(tok) != 3:
                raise ParseError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(tok[1]), int(tok[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer endpoint") from None
            if u == v:
                raise ParseError(f"line {lineno}: self-loop at vertex {u} rejected")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: vertex out of range 1..{n}")
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"line {lineno}: unknown record type {tok[0]!r}")
    if n is None:
        raise ParseError("missing 'p edge <n> <m>' problem line")
    return Graph(n, edges)


def graph_from_obj(obj) -> Graph:
    if not isinstance(obj, dict):
        raise ParseError("graph JSON must be an object")
    n = _int_field(obj, "n", "graph JSON")
    edges = obj.get("edges")
    if not isinstance(edges, list):
        raise ParseError('graph JSON key "edges" must be a list of pairs')
    out = []
    for k, e in enumerate(edges):
        ok = (
            isinstance(e, list)
            and len(e) == 2
            and all(isinstance(x, int) and not isinstance(x, bool) for x in e)
        )
        if not ok:
            raise ParseError(f"edge #{k} must be a pair of integers")
        u, v = e
        if u == v:
            raise ParseError(f"edge #{k}: self-loop at vertex {u} rejected")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge #{k}: vertex out of range 0..{n - 1}")
        out.append((u, v))
    return Graph(n, out)


def parse_graph(source) -> Graph:
    """Graph from DIMACS-edge or JSON text, or from a file of either."""
    text = load_text(source)
    if text.lstrip().startswith("{"):
        return graph_from_obj(_load_json(text))
    return _parse_dimacs(text)


def graph_to_obj(G: Graph) -> dict:
    return {"n": G.n, "edges": [[u, v] for u, v in G.edges()]}


def emit_graph_json(G: Graph) -> str:
    return json.dumps(graph_to_obj(G))


def emit_dimacs(G: Graph) -> str:
    lines = [f"p edge {G.n} {G.edge_count()}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in G.edges())
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------- set systems


def system_from_obj(obj) -> SetSystem:
    if not isinstance(obj, dict):
        raise ParseError("set-system JSON must be an object")
    ground = _int_field(obj, "ground", "set-system JSON")
    sets = obj.get("sets")
    if not isinstance(sets, list):
        raise ParseError('set-system JSON key "sets" must be a list of lists')
    for k, s in enumerate(sets):
        if not isinstance(s, list):
            raise ParseError(f"set #{k} must be a list of integers")
        for x in s:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ParseError(f"set #{k} must contain only integers")
            if not 0 <= x < ground:
                raise ParseError(f"set #{k}: element {x} out of ground range 0..{ground - 1}")
    return SetSystem(ground, sets)


# ---------------------------------------------------------------- spaces


def parse_space(source) -> ConvexitySpace:
    """Convexity space from JSON text, or from a file of it."""
    obj = _load_json(load_text(source))
    if not isinstance(obj, dict):
        raise ParseError("space JSON must be an object")
    kind = obj.get("kind")
    if kind == "from_graph":
        if "graph" not in obj:
            raise ParseError('from_graph space needs a "graph" key')
        return mis_space(graph_from_obj(obj["graph"]))
    if kind == "subcubes":
        dim = _int_field(obj, "dim", "subcubes space")
        if dim < 1:
            raise ParseError("subcubes space needs dim >= 1")
        return subcube_space(dim)
    if kind == "explicit":
        if "system" not in obj:
            raise ParseError('explicit space needs a "system" key')
        return explicit_space(system_from_obj(obj["system"]))
    raise ParseError(f"unknown space kind {kind!r}")


# -------------------------------------------------------- decompositions


def decomposition_to_obj(D: BlowupDecomposition) -> dict:
    return {
        "parts": [list(p) for p in D.parts],
        "quotient": graph_to_obj(D.quotient),
        "origin": list(D.origin),
    }
