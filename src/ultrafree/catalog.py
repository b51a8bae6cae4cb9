"""The stored small-graph catalog and seeded random graphs.

The connected graphs on at most 7 vertices, one per isomorphism class in
canonical labels, are stored in graph6 (``connected7.g6``, one graph per
line, by n and then by adjacency masks) and read, never generated, at
run time.  ``tools/write_catalog.py`` holds the generator (canonical
labelling by individualization and refinement) and rewrites the file
with ``_encode``; a test regenerates it and compares the bytes.
"""

from __future__ import annotations

import os

from .constructions import random_graph
from .errors import ClaimViolation
from .graphs import Graph

__all__ = ["connected_graphs"]


def _encode(G: Graph) -> str:
    """graph6 (n <= 62): chr(63 + n), then the upper triangle column by
    column, six bits per character, zero-padded."""
    bits = "".join(str(G.adj[j] >> i & 1) for j in range(1, G.n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    words = [G.n] + [int(bits[k : k + 6], 2) for k in range(0, len(bits), 6)]
    return "".join(chr(63 + w) for w in words)


def _decode(line: str) -> Graph:
    """Inverse of ``_encode``; raises ValueError on any other string."""
    words = [ord(ch) - 63 for ch in line]
    if not words or not all(0 <= w < 64 for w in words) or words[0] > 62:
        raise ValueError(f"not a graph6 line: {line!r}")
    n = words[0]
    pairs = n * (n - 1) // 2
    if len(words) != 1 + (pairs + 5) // 6:
        raise ValueError(f"graph6 line of wrong length for n = {n}: {line!r}")
    # the data characters as one integer, six bits each, first ones highest
    x = 0
    for w in words[1:]:
        x = x << 6 | w
    pad = 6 * (len(words) - 1) - pairs
    if x & ((1 << pad) - 1):
        raise ValueError(f"graph6 padding bits set: {line!r}")
    # column j holds the pairs (0, j)..(j - 1, j), with (i, j) at bit j - 1 - i
    adj = [0] * n
    shift = len(words) * 6 - 6
    for j in range(1, n):
        shift -= j
        col = x >> shift & ((1 << j) - 1)
        while col:
            low = col & -col
            col ^= low
            i = j - low.bit_length()
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph.from_masks(adj)


_STORED_PATH = os.path.join(os.path.dirname(__file__), "connected7.g6")
# https://oeis.org/A001349: connected graphs on n = 1..7 vertices
_STORED_COUNTS = (1, 1, 2, 6, 21, 112, 853)
_stored: list[Graph] | None = None


def _load_stored(path) -> list[Graph]:
    """The graphs stored at ``path``, after the cheap checks: every line
    decodes, every graph is connected, the graphs ascend strictly by
    (n, masks), and the per-n counts are A001349's.  That the graphs are
    canonical and complete is proved by regenerating the file in the
    tests, not here."""
    name = os.path.basename(path)
    # UTF-8, whose codec every interpreter has loaded: _decode rejects any
    # character outside graph6's range, so no ASCII codec is needed
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise ClaimViolation(f"{name}: {e}") from None
    graphs = []
    for num, line in enumerate(text.splitlines(), 1):
        try:
            G = _decode(line)
        except ValueError as e:
            raise ClaimViolation(f"{name} line {num}: {e}") from None
        if not G.is_connected():
            raise ClaimViolation(f"{name} line {num}: graph is not connected")
        if graphs and (G.n, G.adj) <= (graphs[-1].n, graphs[-1].adj):
            raise ClaimViolation(f"{name} line {num}: not after the line before it")
        graphs.append(G)
    expected = [n for n, count in enumerate(_STORED_COUNTS, 1) for _ in range(count)]
    if [G.n for G in graphs] != expected:
        raise ClaimViolation(f"{name}: per-n counts are not {_STORED_COUNTS}")
    return graphs


def connected_graphs(max_n: int) -> list[Graph]:
    """All connected graphs with 1 <= n <= max_n, up to isomorphism, in
    canonical labels, by n and then by adjacency masks, read from the
    stored catalog (once per process).  Only max_n <= 7 is stored."""
    global _stored
    if max_n > len(_STORED_COUNTS):
        raise ValueError(f"only n <= {len(_STORED_COUNTS)} is stored, not max_n = {max_n}")
    if _stored is None:
        _stored = _load_stored(_STORED_PATH)
    return [G for G in _stored if G.n <= max_n]


def seeded_random_graphs(count: int, max_n: int, seed: int) -> list[Graph]:
    """Reproducible random graphs with 1 <= n <= max_n."""
    import random

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(1, max_n + 1)
        num, den = rng.choice(((1, 4), (1, 2), (3, 4)))
        out.append(random_graph(n, num, den, rng.randrange(1 << 30)))
    return out
