"""The stored catalog (``ultrafree.catalog``) and the generator that
writes it (``tools/write_catalog.py``), which the package never runs."""

import ast
import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings

from ultrafree import catalog
from ultrafree.catalog import connected_graphs, seeded_random_graphs
from ultrafree.constructions import hypercube_lb
from ultrafree.decompose import twin_quotient
from ultrafree.errors import ClaimViolation
from ultrafree.graphs import Graph

import oracles
import write_catalog
from write_catalog import all_graphs, canonical_form


def relabel(G, perm):
    adj = [0] * G.n
    for u, v in G.edges():
        adj[perm[u]] |= 1 << perm[v]
        adj[perm[v]] |= 1 << perm[u]
    return Graph.from_masks(adj)


def one_vertex_extensions(m):
    """The m-vertex candidates all_graphs canonicalizes: each (m-1)-vertex
    catalog graph plus a vertex joined to every subset."""
    for G in all_graphs(m - 1):
        for nb in range(1 << (m - 1)):
            adj = list(G.adj) + [nb]
            for v in range(m - 1):
                if nb >> v & 1:
                    adj[v] |= 1 << (m - 1)
            yield Graph.from_masks(adj)


class TestCanonicalForm:
    def test_trivial(self):
        assert canonical_form(Graph(0)) == ()
        assert canonical_form(Graph(1)) == (0,)
        assert canonical_form(Graph.complete(2)) == (2, 1)

    def test_permutation_invariant(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randrange(1, 8)
            G = Graph(
                n,
                [
                    (u, v)
                    for u, v in combinations(range(n), 2)
                    if rng.random() < 0.5
                ],
            )
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(relabel(G, perm)) == canonical_form(G)

    def test_idempotent(self):
        for G in all_graphs(5):
            cert = canonical_form(G)
            assert canonical_form(Graph.from_masks(cert)) == cert

    def test_catalog_already_canonical(self):
        for G in all_graphs(4):
            assert G.adj == canonical_form(G)

    def test_separates_at_n5(self):
        # certificates agree exactly when a brute-force bijection exists
        level = all_graphs(5)
        for G, H in combinations(level, 2):
            assert canonical_form(G) != canonical_form(H)
            assert not oracles.isomorphic(G, H)


class TestPruningKeepsCertificate:
    # automorphism pruning must return the unpruned search's minimum

    def test_catalog_candidates(self):
        for m in range(1, 7):
            for G in one_vertex_extensions(m):
                assert canonical_form(G) == oracles.canonical_form_reference(G)

    def test_random_graphs(self):
        for G in seeded_random_graphs(200, 14, 31):
            assert canonical_form(G) == oracles.canonical_form_reference(G)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_hypercube_construction(self, d):
        H, G = hypercube_lb(d)
        for X in (H, twin_quotient(G).quotient):
            assert canonical_form(X) == oracles.canonical_form_reference(X)

    def test_hypercube_d5_leaves(self, monkeypatch):
        # the unpruned search reaches |Aut| = 2^5 * 5! = 3840 leaves here
        calls = []
        certificate = write_catalog._certificate

        def counted(adj, colors):
            calls.append(1)
            return certificate(adj, colors)

        monkeypatch.setattr(write_catalog, "_certificate", counted)
        H, G = hypercube_lb(5)
        cert = canonical_form(H)
        assert len(calls) <= 64
        assert canonical_form(twin_quotient(G).quotient) == cert


def is_isomorphic(G, H):
    return canonical_form(G) == canonical_form(H)


class TestIsIsomorphic:
    # isomorphism decided by equal canonical forms
    def test_basic(self):
        assert is_isomorphic(Graph.cycle(5), relabel(Graph.cycle(5), [2, 4, 1, 3, 0]))
        assert not is_isomorphic(Graph.cycle(5), Graph.path(5))
        assert not is_isomorphic(Graph(3), Graph(4))

    def test_matches_brute(self):
        rng = random.Random(11)
        graphs5 = all_graphs(5)
        for _ in range(40):
            G, H = rng.choice(graphs5), rng.choice(graphs5)
            perm = list(range(5))
            rng.shuffle(perm)
            H2 = relabel(H, perm)
            assert is_isomorphic(G, H2) == oracles.isomorphic(G, H2)

    @given(oracles.graphs(max_n=6))
    @settings(max_examples=50, deadline=None)
    def test_reflexive_under_relabeling(self, G):
        perm = list(range(G.n))
        random.Random(G.n).shuffle(perm)
        assert is_isomorphic(G, relabel(G, perm))


class TestAllGraphs:
    def test_counts(self):
        # https://oeis.org/A000088
        assert [len(all_graphs(n)) for n in range(8)] == [
            1, 1, 2, 4, 11, 34, 156, 1044,
        ]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            all_graphs(-1)

    def test_level_is_fresh_list(self):
        a = all_graphs(3)
        a.append(Graph(0))
        assert len(all_graphs(3)) == 4

    def test_pairwise_nonisomorphic_n4(self):
        level = all_graphs(4)
        for G, H in combinations(level, 2):
            assert not oracles.isomorphic(G, H)

    def test_complete_n4(self):
        # every 4-vertex graph appears: 2^C(4,2) labelings collapse to 11
        seen = set()
        for bits in range(1 << 6):
            pairs = list(combinations(range(4), 2))
            G = Graph(4, [pairs[i] for i in range(6) if bits >> i & 1])
            seen.add(canonical_form(G))
        assert len(seen) == 11
        assert seen == {G.adj for G in all_graphs(4)}


class TestConnectedGraphs:
    def test_counts(self):
        # https://oeis.org/A001349 partial sums by level
        got = connected_graphs(7)
        by_n = {}
        for G in got:
            by_n[G.n] = by_n.get(G.n, 0) + 1
        assert [by_n[n] for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]
        assert len(got) == 996

    def test_all_connected(self):
        assert all(G.is_connected() for G in connected_graphs(5))

    def test_only_the_stored_sizes(self):
        with pytest.raises(ValueError, match="n <= 7"):
            connected_graphs(8)


def cold_catalog(monkeypatch, path=None):
    """Forget the loaded file, so the next connected_graphs call starts
    as in a fresh process."""
    monkeypatch.setattr(catalog, "_stored", None)
    if path is not None:
        monkeypatch.setattr(catalog, "_STORED_PATH", path)


class TestStoredCatalog:
    def test_regenerates_file(self):
        # with the A001349 counts checked on load, this proves the file
        # holds every connected graph on <= 7 vertices once, canonically
        generated = write_catalog._generated_connected(7)
        text = "".join(catalog._encode(G) + "\n" for G in generated)
        assert catalog._STORED_PATH.read_bytes() == text.encode("ascii")
        assert catalog._load_stored(catalog._STORED_PATH) == generated

    def test_load_needs_no_canonical_form(self, monkeypatch):
        cold_catalog(monkeypatch)
        got = connected_graphs(7)
        assert len(got) == 996
        assert connected_graphs(4) == got[:10]

    def test_fresh_list(self):
        a = connected_graphs(7)
        a.clear()
        assert len(connected_graphs(7)) == 996

    def test_import_reads_no_file(self):
        code = "import ultrafree.cli, ultrafree.catalog as c; assert c._stored is None"
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)

    def test_runtime_never_canonicalises(self):
        # no package code names the generator ...
        package = Path(catalog.__file__).parent
        generator = {"canonical_form", "all_graphs", "_refine", "_LEVELS"}
        found = [
            f"{path.name}: {name}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            for name in (
                getattr(node, "id", None),
                getattr(node, "attr", None),
                getattr(node, "name", None),
            )
            if name in generator
        ]
        assert found == []
        # ... and a catalog suite never imports it, even where it could
        code = (
            "import sys\n"
            "from ultrafree.cli import main\n"
            "status = main(['verify', '--suite', 'codeg-edge', '--budget-nodes', '1', '--json'])\n"
            "assert 'write_catalog' not in sys.modules\n"
            "sys.exit(status)\n"
        )
        tools = Path(write_catalog.__file__).parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(package.parent), str(tools)]))
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert run.returncode == 3, run.stderr
        assert json.loads(run.stdout)["error"]["type"] == "budget"

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda lines: lines[:500] + [lines[499]] + lines[500:],
            lambda lines: lines[:500] + [lines[499]] + lines[501:],
            lambda lines: lines[:500] + lines[501:],
            lambda lines: lines[:500] + [lines[501], lines[500]] + lines[502:],
            lambda lines: lines[:2] + ["B?"] + lines[3:],
            lambda lines: lines[:2] + ["Bh"] + lines[3:],
            lambda lines: lines[:2] + ["Bg?"] + lines[3:],
            lambda lines: lines[:1] + ["A\x7f"] + lines[2:],
            lambda lines: lines[:2] + ["B\u00e9"] + lines[3:],
        ],
        ids=[
            "repeat",
            "repeat-in-place",
            "missing",
            "out-of-order",
            "disconnected",
            "padding-bit",
            "wrong-length",
            "not-graph6",
            "not-ascii",
        ],
    )
    def test_corrupt_copy_rejected(self, corrupt, tmp_path, monkeypatch):
        lines = catalog._STORED_PATH.read_text().splitlines()
        bad = tmp_path / "connected7.g6"
        bad.write_text("".join(line + "\n" for line in corrupt(lines)), encoding="utf-8")
        cold_catalog(monkeypatch, bad)
        with pytest.raises(ClaimViolation):
            connected_graphs(7)

    @given(oracles.graphs(max_n=12))
    @settings(max_examples=80, deadline=None)
    def test_encode_round_trip(self, G):
        line = catalog._encode(G)
        assert catalog._decode(line) == G
        pairs = G.n * (G.n - 1) // 2
        assert len(line) == 1 + (pairs + 5) // 6


class TestSeededRandom:
    def test_deterministic(self):
        a = seeded_random_graphs(20, 10, 123)
        b = seeded_random_graphs(20, 10, 123)
        assert a == b

    def test_seed_matters(self):
        assert seeded_random_graphs(20, 10, 1) != seeded_random_graphs(20, 10, 2)

    def test_bounds(self):
        for G in seeded_random_graphs(50, 9, 5):
            assert 1 <= G.n <= 9
