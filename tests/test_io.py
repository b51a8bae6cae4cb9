import gc
import json
import warnings

import pytest
from hypothesis import given, settings

from ultrafree.decompose import BlowupDecomposition
from ultrafree.graphs import Graph, members
from ultrafree.io import (
    ParseError,
    decomposition_to_obj,
    emit_dimacs,
    emit_graph_json,
    graph_from_obj,
    graph_to_obj,
    load_text,
    parse_graph,
    parse_space,
    system_from_obj,
)
from ultrafree.setsystems import SetSystem

import oracles

C5 = Graph.cycle(5)


class TestLoadText:
    def test_verbatim_json(self):
        assert load_text('  {"n": 1}') == '  {"n": 1}'
        assert load_text("[1]") == "[1]"

    def test_verbatim_dimacs(self):
        assert load_text("p edge 2 0") == "p edge 2 0"
        assert load_text("c comment only") == "c comment only"

    def test_path(self, tmp_path):
        f = tmp_path / "g.json"
        f.write_text('{"n": 2, "edges": []}')
        assert load_text(str(f)) == '{"n": 2, "edges": []}'
        assert load_text(f) == '{"n": 2, "edges": []}'  # PathLike

    def test_not_a_file(self):
        with pytest.raises(ParseError, match="no such file"):
            load_text("definitely-not-here.txt")

    def test_file_closed(self, tmp_path):
        f = tmp_path / "g.dimacs"
        f.write_text("p edge 2 1\ne 1 2\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parse_graph(str(f))
            parse_graph(f)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestDimacs:
    def test_spec_example(self):
        G = parse_graph("p edge 3 2\ne 1 2\ne 2 3\n")
        assert G == Graph.path(3)

    def test_comments_and_blanks(self):
        G = parse_graph("c hello\n\np edge 2 1\nc mid\ne 1 2\n")
        assert G == Graph.complete(2)

    def test_round_trip(self):
        text = emit_dimacs(C5)
        assert text == "p edge 5 5\ne 1 2\ne 1 5\ne 2 3\ne 3 4\ne 4 5\n"
        assert parse_graph(text) == C5

    def test_empty_graph(self):
        assert parse_graph(emit_dimacs(Graph(0))) == Graph(0)

    def test_errors_carry_line_numbers(self):
        bad = [
            ("p edge 2 1\np edge 2 1", "line 2: duplicate problem line"),
            ("p  edge\n", "line 1: expected 'p edge"),
            ("p edge x 0", "line 1: non-integer size"),
            ("p edge -1 0", "line 1: negative size"),
            ("e 1 2", "line 1: edge before problem line"),
            ("p edge 3 1\ne 1", "line 2: expected 'e <u> <v>'"),
            ("p edge 3 1\ne 1 z", "line 2: non-integer endpoint"),
            ("p edge 3 1\ne 1 1", "line 2: self-loop at vertex 1"),
            ("p edge 3 1\ne 1 4", "line 2: vertex out of range 1..3"),
            ("p edge 3 1\nq 1 2", "line 2: unknown record type 'q'"),
            ("c nothing else", "missing 'p edge"),
        ]
        for text, needle in bad:
            with pytest.raises(ParseError) as exc:
                parse_graph(text)
            assert needle in str(exc.value)


class TestGraphJson:
    def test_spec_example(self):
        G = parse_graph(
            '{"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}'
        )
        assert G == C5

    def test_round_trip(self):
        assert parse_graph(emit_graph_json(C5)) == C5
        assert parse_graph(emit_graph_json(Graph(0))) == Graph(0)

    def test_obj_round_trip_keeps_indices(self):
        obj = graph_to_obj(Graph(4, [(2, 0), (3, 1)]))
        assert obj == {"n": 4, "edges": [[0, 2], [1, 3]]}
        assert graph_from_obj(obj).edges() == [(0, 2), (1, 3)]

    def test_json_error_position(self):
        with pytest.raises(ParseError, match=r"line 1 column 10"):
            parse_graph('{"n": 1, ')

    def test_non_object(self):
        # arrays dispatch to the DIMACS lane in parse_graph, so the object
        # check is only reachable through the obj constructor
        with pytest.raises(ParseError, match="must be an object"):
            graph_from_obj([1, 2])

    def test_errors(self):
        bad = [
            ('{"edges": []}', "missing key 'n'"),
            ('{"n": true, "edges": []}', "nonnegative integer"),
            ('{"n": -1, "edges": []}', "nonnegative integer"),
            ('{"n": 2}', '"edges" must be a list'),
            ('{"n": 2, "edges": [[0]]}', "edge #0 must be a pair"),
            ('{"n": 2, "edges": [[0, 0.5]]}', "edge #0 must be a pair"),
            ('{"n": 2, "edges": [[1, 1]]}', "edge #0: self-loop"),
            ('{"n": 2, "edges": [[0, 2]]}', "edge #0: vertex out of range 0..1"),
        ]
        for text, needle in bad:
            with pytest.raises(ParseError) as exc:
                parse_graph(text)
            assert needle in str(exc.value)

    @given(oracles.graphs(max_n=8))
    @settings(max_examples=50, deadline=None)
    def test_both_formats_round_trip(self, G):
        assert parse_graph(emit_graph_json(G)) == G
        assert parse_graph(emit_dimacs(G)) == G

    def test_file_dispatch(self, tmp_path):
        f = tmp_path / "c5.dimacs"
        f.write_text(emit_dimacs(C5))
        assert parse_graph(str(f)) == C5


class TestSystemJson:
    def test_round_trip(self):
        obj = {"ground": 4, "sets": [[0, 1], [], [2, 3], [0, 1]]}
        assert system_from_obj(obj) == SetSystem(4, [(0, 1), (), (2, 3), (0, 1)])

    def test_errors(self):
        bad = [
            ("[]", "must be an object"),
            ('{"sets": []}', "missing key 'ground'"),
            ('{"ground": 2}', '"sets" must be a list'),
            ('{"ground": 2, "sets": [0]}', "set #0 must be a list"),
            ('{"ground": 2, "sets": [[true]]}', "only integers"),
            ('{"ground": 2, "sets": [[2]]}', "element 2 out of ground range 0..1"),
        ]
        for text, needle in bad:
            with pytest.raises(ParseError) as exc:
                system_from_obj(json.loads(text))
            assert needle in str(exc.value)

    @given(oracles.set_systems())
    @settings(max_examples=50, deadline=None)
    def test_any_system_round_trips(self, F):
        obj = {"ground": F.ground, "sets": [list(members(s)) for s in F.sets]}
        assert system_from_obj(obj) == F


class TestSpaceJson:
    def test_subcubes(self):
        S = parse_space('{"kind": "subcubes", "dim": 2}')
        assert S.tag == "subcubes" and S.ground_size == 4

    def test_from_graph(self):
        S = parse_space(json.dumps({"kind": "from_graph", "graph": graph_to_obj(C5)}))
        assert S.tag == "from_graph" and S.ground_size == 5

    def test_explicit(self):
        F = SetSystem(3, [(0, 1), (1, 2)])
        system = {"ground": 3, "sets": [[0, 1], [1, 2]]}
        S = parse_space(json.dumps({"kind": "explicit", "system": system}))
        assert S.tag == "explicit" and S.generators == F

    def test_errors(self):
        bad = [
            ("[]", "must be an object"),
            ('{"kind": "nope"}', "unknown space kind 'nope'"),
            ('{"kind": "from_graph"}', 'needs a "graph" key'),
            ('{"kind": "subcubes"}', "missing key 'dim'"),
            ('{"kind": "subcubes", "dim": 0}', "dim >= 1"),
            ('{"kind": "explicit"}', 'needs a "system" key'),
        ]
        for text, needle in bad:
            with pytest.raises(ParseError) as exc:
                parse_space(text)
            assert needle in str(exc.value)


class TestDecompositionJson:
    def test_obj_shape(self):
        D = BlowupDecomposition(((0, 1), (2,)), Graph(2, [(0, 1)]), (0, 0, 1))
        assert decomposition_to_obj(D) == {
            "parts": [[0, 1], [2]],
            "quotient": {"n": 2, "edges": [[0, 1]]},
            "origin": [0, 0, 1],
        }


class TestRepeatedJsonKeys:
    def test_nested_key_twice(self):
        spec = '{"kind": "explicit", "system": {"ground": 2, "sets": [], "ground": 3}}'
        with pytest.raises(ParseError, match="repeats key 'ground'"):
            parse_space(spec)

