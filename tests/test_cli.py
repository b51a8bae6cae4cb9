import gc
import hashlib
import json
import os
import subprocess
import sys

import pytest

import ultrafree
import ultrafree.catalog
import ultrafree.cli
import ultrafree.graphs
import ultrafree.setsystems
import ultrafree.ultra
from ultrafree.cli import main
from ultrafree.constructions import hypercube_lb
from ultrafree.decompose import BlowupDecomposition
from ultrafree.graphs import Graph
from ultrafree.io import graph_from_obj, parse_graph

C5_JSON = '{"n": 5, "edges": [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]}'


def _child_env():
    """The environment of a child Python that imports this package."""
    src = os.path.dirname(os.path.dirname(ultrafree.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def c5_file(tmp_path):
    f = tmp_path / "c5.json"
    assert main(["gen", "cycle", "--params", "n=5", "--out", str(f)]) == 0
    return str(f)


class TestGen:
    def test_out_file(self, c5_file):
        with open(c5_file) as fh:
            assert fh.read() == C5_JSON + "\n"

    def test_stdout_json(self, capsys):
        assert main(["gen", "path", "--params", "n=3"]) == 0
        assert capsys.readouterr().out == '{"n": 3, "edges": [[0, 1], [1, 2]]}\n'

    def test_dimacs(self, capsys):
        assert main(["gen", "cycle", "--params", "n=5", "--format", "dimacs"]) == 0
        out = capsys.readouterr().out
        assert out == "p edge 5 5\ne 1 2\ne 1 5\ne 2 3\ne 3 4\ne 4 5\n"

    def test_families_smoke(self, capsys):
        cases = {
            "complete": "n=3",
            "empty": "n=2",
            "turan": "n=6,parts=3",
            "kneser": "m=5,k=2",
            "crown": "t=3",
            "half-min": "k=2",
            "hypercube-lb": "d=2",
            "hypercube-lb-quotient": "d=2",
            "ultra-vc": "m=2",
            "c5-blowup": "s=2",
            "random": "n=6,num=1,den=2,seed=1",
        }
        for family, params in cases.items():
            assert main(["gen", family, "--params", params]) == 0
            parse_graph(capsys.readouterr().out)

    @pytest.mark.parametrize(
        "m, sha256",
        [
            (2, "d8eaccb6c2080b5c39e95768e5635eeb6f3c11ec228e6d162a51327427ec3951"),
            (3, "49cc95ef7edabbfea222be6327d9edbd3f6cb79be1a1bda317651a9c1f858997"),
            (4, "3f6f0a75a1d626a46cb3e1c83fa3bd21a3a96325da57285a51de21604b34c9e7"),
        ],
    )
    def test_ultra_vc_bytes_pinned(self, m, sha256, capsys):
        assert main(["gen", "ultra-vc", "--params", f"m={m}"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256

    def test_usage_errors(self, capsys):
        assert main(["gen", "moebius", "--params", "n=3"]) == 2
        assert "error (usage): unknown family" in capsys.readouterr().err
        assert main(["gen", "cycle"]) == 2
        assert "needs exactly --params" in capsys.readouterr().err
        assert main(["gen", "cycle", "--params", "n=5,extra=1"]) == 2
        capsys.readouterr()
        assert main(["gen", "cycle", "--params", "n"]) == 2
        assert "not of the form" in capsys.readouterr().err
        assert main(["gen", "cycle", "--params", "n=x"]) == 2
        assert "integer value" in capsys.readouterr().err

    def test_repeated_param_rejected(self, capsys):
        # n=3,n=4 used to emit C4: the last value won silently
        assert main(["gen", "cycle", "--params", "n=3,n=4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error (usage): parameter 'n' given twice" in captured.err


class TestAnalyze:
    def test_json_metrics(self, c5_file, capsys):
        code = main(
            [
                "analyze",
                c5_file,
                "--metrics",
                "chi,omega,mis,nubi,ultra:3,codegree:2,codensity:2:2",
                "--json",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {
            "chi": 3,
            "codegree:2": 1,
            "codensity:2:2": "0/1",
            "mis": 5,
            "nubi": 2,
            "omega": 2,
            "ultra:3": "1/5",
        }

    def test_text_mode(self, c5_file, capsys):
        assert main(["analyze", c5_file, "--metrics", "chi,ultra:3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["chi = 3", 'ultra:3 = "1/5"']

    def test_unknown_metric(self, c5_file, capsys):
        assert main(["analyze", c5_file, "--metrics", "girth"]) == 2
        assert "unknown graph metric" in capsys.readouterr().err
        # a known name with the wrong number of integers
        for tok in ("chi:3", "ultra:3:4", "codensity:2"):
            assert main(["analyze", c5_file, "--metrics", tok]) == 2
            assert f"unknown graph metric {tok!r}" in capsys.readouterr().err

    def test_bad_token_checked_before_any_metric(self, c5_file, capsys, monkeypatch):
        def unreachable(G):
            raise AssertionError("no metric may run before every token is checked")

        monkeypatch.setattr(ultrafree.cli, "chromatic_number", unreachable)
        assert main(["analyze", c5_file, "--metrics", "chi,girth", "--json"]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "usage"
        # nor is a graph input's star system derived first
        argv = ["setsys", c5_file, "--metrics", "tau,girth", "--budget-nodes", "1", "--json"]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "usage"

    def test_metrics_call_the_module_global(self, c5_file, capsys, monkeypatch):
        # the metric tables look their functions up when a metric runs, so
        # a rebound ultrafree.cli global is the one called
        calls = []

        def recording(name):
            fn = getattr(ultrafree.cli, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(ultrafree.cli, name, wrapper)

        recording("chromatic_number")
        recording("transversal_number")
        assert main(["analyze", c5_file, "--metrics", "chi"]) == 0
        assert main(["setsys", c5_file, "--metrics", "tau"]) == 0
        assert capsys.readouterr().out == "chi = 3\ntau = 3\n"
        assert calls == ["chromatic_number", "transversal_number"]

    @pytest.mark.parametrize(
        "error, message",
        [
            (RecursionError("maximum recursion depth"), "maximum recursion depth"),
            (MemoryError(), "MemoryError"),
        ],
        ids=["recursion", "memory"],
    )
    def test_resource_error_exits_three(self, error, message, c5_file, capsys, monkeypatch):
        def exhausted(G):
            raise error

        monkeypatch.setattr(ultrafree.cli, "clique_number", exhausted)
        assert main(["analyze", c5_file, "--metrics", "omega", "--json"]) == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"error": {"type": "resource", "message": message}}
        assert captured.err == ""
        assert main(["analyze", c5_file, "--metrics", "omega"]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error (resource): {message}\n")

    def test_invalid_nubi_witness_exits_one(self, c5_file, capsys, monkeypatch):
        # a clique of two darts that share vertex 0 fails nu_bi's own check
        def two_darts(rows, cand, meter, mirror):
            return 2, 0b11

        monkeypatch.setattr(ultrafree.ultra._kernels, "max_clique", two_darts)
        assert main(["analyze", c5_file, "--metrics", "nubi", "--json"]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "claim-violation"
        assert "vertices must be distinct" in error["message"]

    def test_missing_file(self, capsys):
        assert main(["analyze", "nowhere.json", "--metrics", "chi"]) == 2
        assert "error (parse-error)" in capsys.readouterr().err

    def test_budget_exit(self, c5_file, capsys):
        code = main(["analyze", c5_file, "--metrics", "chi", "--budget-nodes", "0", "--json"])
        assert code == 3
        obj = json.loads(capsys.readouterr().out)
        assert obj["error"]["type"] == "budget"
        assert "budget exceeded" in obj["error"]["message"]

    def test_ultra_budget_spans_pairs(self, tmp_path, capsys):
        # the K_4 check takes 195 nodes and each of the 105 non-adjacent
        # pairs 6 more: one meter for the whole call runs out.  K(7,2) is
        # twin-free, so its twin quotient is the graph itself.
        f = tmp_path / "k.json"
        assert main(["gen", "kneser", "--params", "m=7,k=2", "--out", str(f)]) == 0
        argv = ["analyze", str(f), "--metrics", "ultra:4", "--json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == {"ultra:4": "1/147"}
        assert main(argv + ["--budget-nodes", "195"]) == 3
        obj = json.loads(capsys.readouterr().out)
        assert obj["error"]["type"] == "budget"
        assert "ultra_parameter" in obj["error"]["message"]

    def test_ultra_budget_charges_each_pair_at_r3(self, tmp_path, capsys):
        # at r = 3 a pair's K_1 count is a popcount, so the K_3 check's 207
        # nodes and one node per each of the 680 non-adjacent pairs are
        # the whole call's 887
        f = tmp_path / "h.json"
        assert main(["gen", "hypercube-lb-quotient", "--params", "d=5", "--out", str(f)]) == 0
        argv = ["analyze", str(f), "--metrics", "ultra:3", "--json", "--budget-nodes"]
        for cap in ("207", "886"):
            assert main(argv + [cap]) == 3
            error = json.loads(capsys.readouterr().out)["error"]
            assert error["type"] == "budget" and "ultra_parameter" in error["message"]
        assert main(argv + ["887"]) == 0
        assert json.loads(capsys.readouterr().out) == {"ultra:3": "1/42"}


class TestSetsys:
    def test_stars(self, c5_file, capsys):
        code = main(
            [
                "setsys",
                c5_file,
                "--derive",
                "stars",
                "--metrics",
                "tau,nu,taustar,vc,helly,pq:3:2",
                "--json",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {
            "helly": 2,
            "nu": 2,
            "pq:3:2": True,
            "tau": 3,
            "taustar": "5/2",
            "vc": 2,
        }

    def test_mis_and_neighborhoods(self, c5_file, capsys):
        assert main(["setsys", c5_file, "--derive", "mis", "--metrics", "vc,tau,nu", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"nu": 2, "tau": 3, "vc": 2}
        assert main(["setsys", c5_file, "--derive", "neighborhoods", "--metrics", "vc", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"vc": 2}

    def test_system_input(self, capsys):
        sysjson = '{"ground": 3, "sets": [[0, 1], [1, 2]]}'
        assert main(["setsys", sysjson, "--metrics", "tau", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"tau": 1}
        assert main(["setsys", sysjson, "--derive", "dual", "--metrics", "nu", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"nu": 2}

    def test_derive_mismatch(self, c5_file, capsys):
        sysjson = '{"ground": 2, "sets": [[0]]}'
        assert main(["setsys", sysjson, "--derive", "stars", "--metrics", "tau"]) == 2
        assert "needs a graph input" in capsys.readouterr().err
        assert main(["setsys", c5_file, "--derive", "none", "--metrics", "tau"]) == 2
        assert "needs a set-system input" in capsys.readouterr().err

    def test_bad_json(self, capsys):
        argv = ["setsys", '{"ground": 3, "sets": [[0, 1]', "--metrics", "tau", "--json"]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": {"type": "parse-error", "message": "line 1 column 30: Expecting ',' delimiter"}
        }

    @pytest.mark.parametrize(
        "text, message",
        [
            ("c5.json", "line 1: unknown record type 'c5.json'"),
            ("", "missing 'p edge <n> <m>' problem line"),
        ],
        ids=["path-of-another-file", "empty"],
    )
    def test_file_read_once(self, text, message, c5_file, tmp_path, monkeypatch, capsys):
        # a file's text is parsed as it stands, even when it names another file
        monkeypatch.chdir(tmp_path)
        f = tmp_path / "b.txt"
        f.write_text(text, encoding="utf-8")
        assert main(["analyze", str(f), "--metrics", "omega", "--json"]) == 2
        want = json.loads(capsys.readouterr().out)
        assert want["error"]["message"] == message
        assert main(["setsys", str(f), "--metrics", "tau,nu", "--json"]) == 2
        assert json.loads(capsys.readouterr().out) == want

    def test_bad_metric_arity(self, c5_file, capsys):
        assert main(["setsys", c5_file, "--metrics", "pq:3"]) == 2
        assert "unknown set-system metric" in capsys.readouterr().err

    def test_taustar_budget(self, c5_file, capsys):
        # deriving C5's stars takes 9 nodes, the LP on them 25
        argv = ["setsys", c5_file, "--derive", "stars", "--metrics", "taustar", "--json"]
        assert main(argv + ["--budget-nodes", "10"]) == 3
        obj = json.loads(capsys.readouterr().out)
        assert obj["error"]["type"] == "budget"
        assert "fractional_transversal" in obj["error"]["message"]

    def test_pq_budget(self, tmp_path, capsys):
        # a set-system input, so no mis_family runs before the (p,q) search
        f = tmp_path / "sys.json"
        f.write_text('{"ground": 3, "sets": [[0], [1], [2]]}', encoding="utf-8")
        argv = ["setsys", str(f), "--metrics", "pq:3:2", "--json"]
        assert main(argv + ["--budget-nodes", "1"]) == 3
        obj = json.loads(capsys.readouterr().out)
        assert obj["error"]["type"] == "budget"
        assert "has_pq_property" in obj["error"]["message"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == {"pq:3:2": False}

    def test_failed_lp_certificate(self, monkeypatch, capsys):
        max_simplex = ultrafree.setsystems.max_simplex

        def wrong_dual(c, A, b, meter=None):
            value, x, duals = max_simplex(c, A, b, meter)
            return value, x, [0] * len(duals)

        monkeypatch.setattr(ultrafree.setsystems, "max_simplex", wrong_dual)
        sysjson = '{"ground": 3, "sets": [[0, 1], [1, 2]]}'
        assert main(["setsys", sysjson, "--metrics", "taustar", "--json"]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "claim-violation"
        assert "LP certification failed" in error["message"]


class TestSpace:
    def test_subcubes(self, capsys):
        code = main(
            [
                "space",
                '{"kind": "subcubes", "dim": 2}',
                "--radon-cap",
                "4",
                "--helly",
                "--json",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {
            "generators": 9,
            "helly": 2,
            "kind": "subcubes",
            "points": 4,
            "radon": 2,
        }

    def test_from_graph(self, capsys):
        spec = json.dumps({"kind": "from_graph", "graph": json.loads(C5_JSON)})
        assert main(["space", spec, "--helly", "--radon-cap", "4", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "generators": 5,
            "helly": 2,
            "kind": "from_graph",
            "points": 5,
            "radon": 2,
        }

    def test_radon_cap_none(self, capsys):
        assert main(["space", '{"kind": "subcubes", "dim": 2}', "--radon-cap", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["radon"] is None

    def test_weak_net(self, capsys):
        assert main(["space", '{"kind": "subcubes", "dim": 2}', "--weak-net", "1/2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["weak_net"] == [0, 3]

    def test_weak_net_budget(self, capsys):
        # the convex-set enumeration behind the net is charged to the command
        argv = ["space", '{"kind":"subcubes","dim":3}', "--weak-net", "1/4", "--json"]
        assert main(argv + ["--budget-nodes", "1"]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "budget" and error["message"].startswith("convex_sets:")

    def test_radon_budget(self, capsys):
        # the Radon search is charged to the command, one node per point set
        argv = ["space", '{"kind":"subcubes","dim":3}', "--radon-cap", "4", "--json"]
        assert main(argv + ["--budget-nodes", "1"]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "budget", "message": "radon_number: budget exceeded after 2 nodes (nodes)"}

    def test_weak_net_with_measure_file(self, tmp_path, capsys):
        mf = tmp_path / "dirac.json"
        mf.write_text('{"0": "1"}')
        code = main(
            [
                "space",
                '{"kind": "subcubes", "dim": 2}',
                "--weak-net",
                "1",
                "--measure",
                str(mf),
                "--json",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["weak_net"] == [0]

    @pytest.mark.parametrize("key", ["99", "-1"])
    def test_measure_point_out_of_range(self, tmp_path, capsys, key):
        mf = tmp_path / "m.json"
        mf.write_text(json.dumps({"0": "1/2", key: "1/2"}))
        space = '{"kind": "explicit", "system": {"ground": 5, "sets": [[0, 1], [2, 3, 4]]}}'
        code = main(["space", space, "--weak-net", "1/2", "--measure", str(mf), "--json"])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "parse-error"
        assert repr(key) in err["message"]

    def test_measure_bad_json(self, tmp_path, capsys):
        mf = tmp_path / "m.json"
        mf.write_text('{"0": "1/2",')
        code = main(
            ["space", '{"kind": "subcubes", "dim": 2}', "--weak-net", "1/2", "--measure", str(mf), "--json"]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": {
                "type": "parse-error",
                "message": "line 1 column 13: Expecting property name enclosed in double quotes",
            }
        }

    def test_decimal_eps_rejected(self, capsys):
        assert main(["space", '{"kind": "subcubes", "dim": 2}', "--weak-net", "0.5"]) == 2
        assert "expected a rational" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["decompose-eps", "weak-net", "measure-file"])
    def test_zero_denominator_is_usage_error(self, where, c5_file, tmp_path, capsys):
        space = '{"kind": "subcubes", "dim": 2}'
        mf = tmp_path / "m.json"
        mf.write_text('{"0": "1/0"}')
        argv = {
            "decompose-eps": ["decompose", c5_file, "--eps", "1/0"],
            "weak-net": ["space", space, "--weak-net", "1/0"],
            "measure-file": ["space", space, "--weak-net", "1/2", "--measure", str(mf)],
        }[where]
        assert main(argv + ["--json"]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": {"type": "usage", "message": "zero denominator in '1/0'"}
        }


class TestDecompose:
    def test_haussler(self, c5_file, capsys):
        assert main(["decompose", c5_file, "--method", "haussler", "--eps", "1/5"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "parts": [[0], [1], [2], [3], [4]],
            "quotient": json.loads(C5_JSON),
            "origin": [0, 1, 2, 3, 4],
        }

    def test_twin_on_blowup(self, tmp_path, capsys):
        f = tmp_path / "b.json"
        assert main(["gen", "c5-blowup", "--params", "s=2", "--out", str(f)]) == 0
        assert main(["decompose", str(f), "--method", "twin"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["parts"] == [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]
        D = BlowupDecomposition(
            tuple(map(tuple, obj["parts"])),
            graph_from_obj(obj["quotient"]),
            tuple(obj["origin"]),
        )
        D.validate(parse_graph(str(f)))

    def test_out_and_indent(self, c5_file, tmp_path, capsys):
        dest = tmp_path / "d.json"
        code = main(
            ["decompose", c5_file, "--eps", "1/5", "--out", str(dest), "--json"]
        )
        assert code == 0
        text = dest.read_text()
        assert text.startswith('{\n  "parts"')
        json.loads(text)

    def test_haussler_needs_eps(self, c5_file, capsys):
        assert main(["decompose", c5_file]) == 2
        assert "requires --eps" in capsys.readouterr().err

    def test_precondition_exit(self, tmp_path, capsys):
        f = tmp_path / "h.json"
        assert main(["gen", "half-min", "--params", "k=3", "--out", str(f)]) == 0
        assert main(["decompose", str(f), "--eps", "1/2"]) == 2
        assert "error (precondition)" in capsys.readouterr().err


class TestVerify:
    def test_construction_d2_json(self, capsys):
        assert main(["verify", "--suite", "construction:d=2", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["passed"] is True
        assert obj["timing"] is None
        assert [c["name"] for c in obj["checks"]] == [
            "construction-size",
            "maximal-triangle-free",
            "min-codegree",
            "p4-core-size",
            "twin-quotient-matches",
        ]
        assert all(c["status"] == "pass" for c in obj["checks"])

    def test_byte_stable(self, capsys):
        assert main(["verify", "--suite", "construction:d=2", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--suite", "construction:d=2", "--json"]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "suite, sha256",
        [
            ("mindeg-ultra", "5a7603f2fc6d2bf5af89554d9949c404681cf4a7e222e9a2af4081691cab6a80"),
            ("halfgraph", "ce66d8238cfd9e67fea0eb0288d612f346958fe62be7ba04c25babbc457feffd"),
            ("construction:d=3", "d4c6fc60cc3b469f7dc17dcb81edc716ce4c446cc29dfa9700e2edeefc95a1cc"),
            ("correspondence", "cf72670884b156bab2d2f163e713d6fba6f3b5498fc44c4c0516b2cfd15cd6d1"),
            ("codeg-edge", "d9c9d2d9d721d5faf47e9cdd56c098e79360efc03c9424801cdd337833b74d34"),
            ("vc-chromatic", "147171bf425f263c7ad685f3f355294c6f41c797ee7c26d6ad46b6046ed9ae74"),
            # the verify-correspondence benchmark workload, at seed 1 and
            # at the default seed
            (
                "correspondence --catalog extended --seed 1",
                "c83710f8b03d56220e7f036a996939f56f9e86de697303c7689809be177112a5",
            ),
            (
                "correspondence --catalog extended --seed 20260301",
                "5bbd75f6105d624c13505a1530f981911f89ab441100493ea4b34d24e56d46d7",
            ),
        ],
    )
    def test_report_bytes_pinned(self, suite, sha256, small_catalog, capsys):
        # ``suite`` is the suite name, then any options it takes
        assert main(["verify", "--suite", *suite.split(), "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize(
        "suite, sha256",
        [
            ("mindeg-ultra", "3c74aa716a1d4015f8195ccad49c7e9921890c1e0c542424137748d1437c001d"),
            ("halfgraph", "c75025da7ee23a40c8ca4e88d4c21bdeae4b23707077f8847cc30645d6c939b9"),
            ("construction:d=3", "1e0f5603f990063674802bc667c37d2d2d1651b905a88fb3061811491906d21a"),
            ("correspondence", "067aa18001645af365d488224a08955f9c92f3adc3df2e86de0b89bb91ab6393"),
            ("codeg-edge", "f939349444be2ae6c666fba870e2d2de1a94533573fd7423b8431ad162c2ce32"),
            ("vc-chromatic", "72e256409fac796cfbc91c3b3bc70b4ee1cd10d503ecc32145ff9f4759530da5"),
        ],
    )
    def test_text_report_bytes_pinned(self, suite, sha256, small_catalog, capsys):
        # the summary lines and the verdict line, without --json
        assert main(["verify", "--suite", suite]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize(
        "family, params, flags, sha256",
        [
            (
                "c5-blowup",
                "s=3",
                ["--method", "haussler", "--r", "3", "--eps", "1/28"],
                "58906e0611e0924834067e829425bb83d759722a851f19295129eb2f5119df4f",
            ),
            (
                "hypercube-lb",
                "d=3",
                ["--method", "twin"],
                "3ba0e87f42492843d2f45649dd17af8d81c1b7328c1c1019f53c16c833a77bb0",
            ),
        ],
    )
    def test_decompose_bytes_pinned(self, family, params, flags, sha256, tmp_path, capsys):
        f = tmp_path / "g.json"
        assert main(["gen", family, "--params", params, "--out", str(f)]) == 0
        assert main(["decompose", str(f), *flags, "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_construction_builds_no_canonical_form(self, capsys):
        # the twin quotient is compared with H label for label; that no
        # package code can canonicalise is test_catalog's structural test
        assert main(["verify", "--suite", "construction:d=3", "--json"]) == 0
        out = capsys.readouterr().out
        digest = "d4c6fc60cc3b469f7dc17dcb81edc716ce4c446cc29dfa9700e2edeefc95a1cc"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_construction_d7(self, capsys):
        # n = 1,920: codegree, maximality and the P4 core run on 142 classes
        assert main(["verify", "--suite", "construction:d=7", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["passed"] is True

    def test_construction_budget(self, capsys):
        argv = ["verify", "--suite", "construction:d=5", "--budget-nodes", "1", "--json"]
        assert main(argv) == 3
        obj = json.loads(capsys.readouterr().out)
        assert obj["error"]["type"] == "budget"
        assert "budget exceeded" in obj["error"]["message"]

    def test_text_mode(self, capsys):
        assert main(["verify", "--suite", "construction:d=2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "suite construction:d=2: PASSED"
        assert all(line.startswith("[PASS]") for line in lines[:-1])

    def test_mindeg_ultra(self, capsys):
        assert main(["verify", "--suite", "mindeg-ultra", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["passed"] is True

    def test_failure_exits_one(self, capsys, monkeypatch):
        # swap the pair so the size formula no longer matches
        monkeypatch.setattr(
            "ultrafree.cli.hypercube_lb",
            lambda d: (hypercube_lb(d).G, hypercube_lb(d).H),
        )
        assert main(["verify", "--suite", "construction:d=2", "--json"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["passed"] is False
        by_name = {c["name"]: c for c in obj["checks"]}
        assert by_name["construction-size"]["status"] == "fail"
        # H has 2d + 2^d = 8 vertices where G's formula expects 20
        assert by_name["construction-size"]["witness"]["witness"] == {"n": 8, "expected": 20}

    def test_halfgraph_suite(self, capsys):
        assert main(["verify", "--suite", "halfgraph", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert [(c["name"], c["value"]) for c in obj["checks"]] == [
            ("instance-is-ultra", {"pass": 9, "total": 9}),
            ("no-half-graph-at-threshold", {"pass": 9, "total": 9}),
        ]

    def test_catalog_suites(self, small_catalog, capsys):
        # the fixture keeps the catalog cache warm for both suites
        assert main(["verify", "--suite", "codeg-edge", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert [(c["name"], c["value"]) for c in obj["checks"]] == [
            ("co-neighborhood-density", {"pass": 451, "skipped": 545, "total": 996}),
            ("codegree-hypothesis", {"pass": 451, "total": 451}),
        ]
        assert main(["verify", "--suite", "vc-chromatic", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert [(c["name"], c["value"]) for c in obj["checks"]] == [
            ("colors-within-vc-bound", {"pass": 48, "total": 48}),
            ("parts-independent", {"pass": 48, "total": 48}),
        ]

    def test_suite_usage_errors(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err
        assert main(["verify", "--suite", "construction:d=1"]) == 2
        assert "needs d >= 2" in capsys.readouterr().err
        assert main(["verify", "--suite", "construction:x=2"]) == 2
        assert "construction:d=D" in capsys.readouterr().err

    def test_argparse_errors(self, capsys):
        assert main([]) == 2
        assert main(["verify"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["verify"], "the following arguments are required: --suite"),
            (["space", "F", "--weak-net", "-1/2"], "argument --weak-net: expected one argument"),
            (
                ["verify", "--suite", "halfgraph", "--catalog", "huge"],
                "argument --catalog: invalid choice: 'huge'",
            ),
        ],
        ids=["missing-suite", "weak-net-dash-value", "bad-catalog"],
    )
    def test_argparse_errors_follow_json(self, argv, needle, capsys):
        assert main(argv + ["--json"]) == 2
        captured = capsys.readouterr()
        obj = json.loads(captured.out)
        assert list(obj) == ["error"] and obj["error"]["type"] == "usage"
        assert needle in obj["error"]["message"]
        assert captured.err == ""
        # without --json argparse prints its usage and message on stderr
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ultrafree ")
        assert f"error: {needle}" in captured.err

    def test_abbreviated_options_rejected(self, capsys):
        # main spots --json by its full name, so an abbreviation such as
        # --js must be a usage error rather than a silent JSON switch
        assert main(["verify", "--suite", "halfgraph", "--js"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ultrafree ")
        assert "unrecognized arguments: --js" in captured.err
        argv = ["analyze", '{"n":3,"edges":[[0,1]]}', "--metrics", "chi", "--budget-n", "0", "--json"]
        assert main(argv) == 2
        obj = json.loads(capsys.readouterr().out)
        assert obj["error"]["type"] == "usage"
        assert "--budget-n" in obj["error"]["message"]

    def test_help_exits_zero(self, capsys):
        assert main(["verify", "--help"]) == 0
        assert main(["verify", "--help", "--json"]) == 0
        assert capsys.readouterr().out.startswith("usage: ultrafree verify")

    @pytest.mark.parametrize(
        "suite", ["correspondence", "halfgraph", "mindeg-ultra", "codeg-edge", "vc-chromatic"]
    )
    def test_suite_parameter_rejected(self, suite, capsys, monkeypatch):
        # rejected before any work: no catalog is built, no suite runs
        monkeypatch.setattr("ultrafree.cli.connected_graphs", None)
        monkeypatch.setattr("ultrafree.cli.ultra_parameter", None)
        monkeypatch.setattr("ultrafree.cli.turan", None)
        assert main(["verify", "--suite", f"{suite}:d=9", "--json"]) == 2
        obj = json.loads(capsys.readouterr().out)
        assert obj["error"]["type"] == "usage"
        assert "takes no parameter" in obj["error"]["message"]
        assert main(["verify", "--suite", f"{suite}:"]) == 2
        assert "takes no parameter" in capsys.readouterr().err

    def test_construction_empty_parameter_rejected(self, capsys):
        assert main(["verify", "--suite", "construction:"]) == 2
        assert "construction:d=D" in capsys.readouterr().err

    @staticmethod
    def _two_graph_catalog(monkeypatch):
        cat = [Graph.path(3), Graph.cycle(5)]
        monkeypatch.setattr("ultrafree.cli.connected_graphs", lambda n: list(cat))
        return cat

    def test_correspondence_failure_witness(self, capsys, monkeypatch):
        cat = self._two_graph_catalog(monkeypatch)
        monkeypatch.setattr(ultrafree.setsystems, "helly_number", lambda F: 3)
        assert main(["verify", "--suite", "correspondence", "--json"]) == 1
        by_name = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        helly = by_name["star-helly-matches-edges"]
        assert helly["status"] == "fail"
        assert helly["value"] == {"pass": 0, "total": 3 * len(cat)}
        assert helly["witness"]["instance"] == {"n": 3, "edges": [[0, 1], [1, 2]], "r": 3}
        assert helly["witness"]["witness"] == {"helly": 3}
        assert by_name["clique-free-matches-pq"]["value"] == {"pass": 6, "total": 6}

    def test_correspondence_pq_witness_keeps_its_r(self, capsys, monkeypatch):
        # the three instances of a graph share one edge list; each must
        # still carry its own r
        self._two_graph_catalog(monkeypatch)
        pq_properties = ultrafree.setsystems._pq_properties

        def wrong_at_four(F, ps, q):
            return {p: holds != (p == 4) for p, holds in pq_properties(F, ps, q).items()}

        monkeypatch.setattr(ultrafree.setsystems, "_pq_properties", wrong_at_four)
        assert main(["verify", "--suite", "correspondence", "--json"]) == 1
        by_name = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        pq = by_name["clique-free-matches-pq"]
        assert pq["status"] == "fail"
        assert pq["witness"]["instance"] == {"n": 3, "edges": [[0, 1], [1, 2]], "r": 4}

    def test_budgeted_catalog_suite_builds_nothing(self, capsys, monkeypatch):
        # a cold process: the stored catalog is not loaded yet
        monkeypatch.setattr(ultrafree.catalog, "_stored", None)
        assert main(["verify", "--suite", "codeg-edge", "--budget-nodes", "1", "--json"]) == 3
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "budget"

    def test_correspondence_one_pass_per_graph(self, capsys, monkeypatch):
        cat = self._two_graph_catalog(monkeypatch)
        calls = {"mis_family": 0, "clique_number": 0, "chromatic_number": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(ultrafree.setsystems, "mis_family")
        counted(ultrafree.graphs, "clique_number")
        counted(ultrafree.graphs, "chromatic_number")
        assert main(["verify", "--suite", "correspondence", "--json"]) == 0
        capsys.readouterr()
        # three values of r share one dictionary pass per graph, and χ
        # starts from the one ω search
        assert calls == dict.fromkeys(("mis_family", "clique_number", "chromatic_number"), len(cat))

    def test_passing_correspondence_builds_no_instance(self, capsys, monkeypatch):
        # an instance's JSON is built only for a rule's first failure
        self._two_graph_catalog(monkeypatch)
        calls = []
        monkeypatch.setattr(ultrafree.cli, "graph_to_obj", lambda G: calls.append(G))
        assert main(["verify", "--suite", "correspondence", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert calls == []


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{c5}", "--metrics", "chi", "--json"],
            ["verify", "--suite", "construction:d=2", "--json"],
        ],
    )
    def test_broken_pipe_exits_two(self, argv, c5_file):
        # a pipe whose read end is closed before the command starts
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ultrafree.cli", *(a.format(c5=c5_file) for a in argv)],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=_child_env(),
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr


class TestStartup:
    def test_import_skips_dataclasses_and_hashlib(self):
        # a command that takes no digest never loads hashlib (and OpenSSL);
        # one that does still prints its pinned bytes
        code = (
            "import sys, ultrafree.cli\n"
            "loaded = {'dataclasses', 'inspect', 'hashlib'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
            "sys.exit(ultrafree.cli.main(['verify', '--suite', 'halfgraph', '--json']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        assert hashlib.sha256(proc.stdout).hexdigest() == (
            "ce66d8238cfd9e67fea0eb0288d612f346958fe62be7ba04c25babbc457feffd"
        )


class TestProcessEntry:
    # ``python -m ultrafree.cli`` exits through ``run()``, which freezes the
    # heap after ``main()``; its exit code and stdout are main()'s
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "ultrafree.cli", *argv], capture_output=True, env=_child_env(), timeout=120
        )

    def test_report_bytes(self):
        proc = self._run("verify", "--suite", "halfgraph", "--json")
        assert proc.returncode == 0, proc.stderr.decode()
        assert hashlib.sha256(proc.stdout).hexdigest() == (
            "ce66d8238cfd9e67fea0eb0288d612f346958fe62be7ba04c25babbc457feffd"
        )

    def test_usage_error(self):
        proc = self._run("analyze", C5_JSON, "--metrics", "chi,bogus", "--json")
        assert proc.returncode == 2, proc.stderr.decode()
        assert json.loads(proc.stdout)["error"]["type"] == "usage"

    def test_budget_error(self):
        proc = self._run("verify", "--suite", "correspondence", "--budget-nodes", "30", "--json")
        assert proc.returncode == 3, proc.stderr.decode()
        assert json.loads(proc.stdout)["error"]["type"] == "budget"

    def test_main_leaves_the_heap_unfrozen(self, capsys):
        frozen = gc.get_freeze_count()
        assert main(["verify", "--suite", "halfgraph", "--json"]) == 0
        assert gc.get_freeze_count() == frozen


class TestBudgetEnv:
    # fixed ids, so the two cases keep the names they have always had
    @pytest.mark.parametrize(
        "flags", [["--budget-nodes", "-1"], ["--budget-ms", "-5"]], ids=["flags0-None", "flags1-None"]
    )
    def test_negative_rejected(self, flags, c5_file, capsys):
        assert main(["analyze", c5_file, "--metrics", "chi", "--json", *flags]) == 2
        obj = json.loads(capsys.readouterr().out)
        assert obj["error"]["type"] == "usage"
        assert "must be nonnegative" in obj["error"]["message"]

    def test_environment_is_not_read(self, capsys, monkeypatch):
        # the time budget comes from --budget-ms alone
        argv = ["verify", "--suite", "halfgraph", "--json"]
        monkeypatch.delenv("ULTRAFREE_BUDGET_MS", raising=False)
        assert main(argv) == 0
        expected = capsys.readouterr().out
        for value in ("1", "soon"):
            monkeypatch.setenv("ULTRAFREE_BUDGET_MS", value)
            assert main(argv) == 0
            assert capsys.readouterr().out == expected


class TestCommandBudget:
    def test_budget_ms_bounds_the_whole_suite(self):
        # each solver call of the suite is short, but together they take
        # far more than 1 ms: one deadline for the command stops them
        env = _child_env()
        env.pop("ULTRAFREE_BUDGET_MS", None)
        argv = ["verify", "--suite", "correspondence", "--budget-ms", "1", "--json"]
        proc = subprocess.run(
            [sys.executable, "-m", "ultrafree.cli", *argv], capture_output=True, env=env, timeout=120
        )
        assert proc.returncode == 3, proc.stderr.decode()
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "budget" and "(time)" in error["message"]

    def test_budget_nodes_bounds_the_whole_suite(self, capsys):
        # the suite charges 2,517 nodes over six meters, the largest the
        # 861 class pairs of p4_obstruction: the command's one budget runs
        # out at 2,516
        argv = ["verify", "--suite", "construction:d=5", "--json", "--budget-nodes"]
        assert main(argv + ["2516"]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "budget" and "(nodes)" in error["message"]
        assert main(argv + ["2517"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_budget_nodes_bounds_the_correspondence_suite(self, capsys):
        # no solver call of the suite charges more than 23 nodes, but
        # together they charge tens of thousands
        assert main(["verify", "--suite", "correspondence", "--budget-nodes", "30", "--json"]) == 3
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "budget"


# (argv with G for the d = 4 hypercube_lb graph and S for the 3-cube's
# subcube space, the op whose meter runs out) for every analyze metric,
# every setsys metric under each graph derivation, every space option and
# every gen family that searches.  A star or MIS derivation, like a
# from_graph space, runs out inside mis_family before any metric runs.
_GRAPH_METRIC_OPS = {
    "chi": "chromatic_number",
    "omega": "clique_number",
    "mis": "mis_family",
    "nubi": "nu_bi",
    "ultra:3": "ultra_parameter",
    "codegree:2": "codegree_min",
    "codensity:2:2": "clique_codensity",
}
_SETSYS_METRIC_OPS = {
    "tau": "transversal_number",
    "nu": "matching_number",
    "taustar": "fractional_transversal",
    "vc": "vc_dimension",
    "helly": "helly_number",
    "pq:3:2": "has_pq_property",
}
_BUDGET_TABLE = (
    [(["analyze", "G", "--metrics", m], op) for m, op in _GRAPH_METRIC_OPS.items()]
    + [
        (["setsys", "G", "--derive", derive, "--metrics", m], op if derive == "neighborhoods" else "mis_family")
        for derive in ("stars", "mis", "neighborhoods")
        for m, op in _SETSYS_METRIC_OPS.items()
    ]
    + [
        (["space", "S", "--helly"], "helly_number"),
        (["space", "S", "--radon-cap", "2"], "radon_number"),
        (["space", "S", "--weak-net", "1/4"], "convex_sets"),
        (["gen", "ultra-vc", "--params", "m=3"], "count_cliques"),
        (["decompose", "G", "--method", "twin"], "twin_quotient"),
    ]
)


@pytest.mark.parametrize("argv, op", _BUDGET_TABLE, ids=[" ".join(a) for a, _ in _BUDGET_TABLE])
def test_every_search_honours_the_command_budget(argv, op, tmp_path, capsys):
    files = {"G": str(tmp_path / "g.json"), "S": str(tmp_path / "s.json")}
    assert main(["gen", "hypercube-lb", "--params", "d=4", "--out", files["G"]]) == 0
    (tmp_path / "s.json").write_text('{"kind": "subcubes", "dim": 3}')
    argv = [files.get(a, a) for a in argv]
    assert main(argv + ["--budget-nodes", "1", "--json"]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "budget", "message": f"{op}: budget exceeded after 2 nodes (nodes)"}


class TestRepeatedKeys:
    def test_graph_key_twice(self, capsys):
        assert main(["analyze", '{"n": 3, "edges": [], "n": 5}', "--metrics", "omega", "--json"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "parse-error", "message": "JSON object repeats key 'n'"}

    def test_measure_point_twice(self, tmp_path, capsys):
        # "1" and "01" name one point; read as a dict, the total 3/2 was 1
        mf = tmp_path / "m.json"
        mf.write_text('{"0": "1/2", "1": "1/2", "01": "1/2"}')
        space = json.dumps({"kind": "from_graph", "graph": json.loads(C5_JSON)})
        code = main(["space", space, "--weak-net", "1/2", "--measure", str(mf), "--json"])
        assert code == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "parse-error"
        assert "'01'" in error["message"]


class TestOptionChecks:
    def test_random_probability_out_of_range(self, capsys):
        argv = ["gen", "random", "--params", "n=3,num=1,den=0,seed=1", "--json"]
        assert main(argv) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "usage"
        assert "p_num=1, p_den=0" in error["message"]

    @pytest.mark.parametrize(
        "options", [["--catalog", "extended"], ["--seed", "3"], ["--catalog", "extended", "--seed", "3"]]
    )
    @pytest.mark.parametrize("suite", ["halfgraph", "mindeg-ultra", "construction:d=2"])
    def test_catalog_options_rejected_where_unread(self, suite, options, capsys):
        assert main(["verify", "--suite", suite, *options, "--json"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "usage"
        assert error["message"] == f"suite {suite.partition(':')[0]} takes no {options[0]}"

    @pytest.mark.parametrize("options", [["--seed", "3"], ["--catalog", "small", "--seed", "3"]])
    @pytest.mark.parametrize("suite", ["correspondence", "codeg-edge", "vc-chromatic"])
    def test_seed_needs_extended_catalog(self, suite, options, capsys):
        # the small catalog reads no seed, so a seed would only rename its digest
        assert main(["verify", "--suite", suite, *options, "--json"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "usage", "message": "--seed needs --catalog extended"}

    @pytest.mark.parametrize("tok", ["ultra:x", "codensity:2:", "codegree:1.5"])
    def test_non_integer_metric_argument_names_its_token(self, tok, c5_file, capsys):
        assert main(["analyze", c5_file, "--metrics", f"chi,{tok}", "--json"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "usage", "message": f"unknown graph metric {tok!r}"}

    @pytest.mark.parametrize("suite", ["construction:d=", "construction:d=x", "construction:d=3/2"])
    def test_non_integer_suite_parameter_names_the_form(self, suite, capsys):
        assert main(["verify", "--suite", suite, "--json"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "usage", "message": "construction suite takes construction:d=D"}

    def test_catalog_defaults_keep_the_digest(self, small_catalog, capsys):
        # the defaults filled in for a catalog suite are the ones it always had
        assert main(["verify", "--suite", "correspondence", "--json"]) == 0
        implicit = capsys.readouterr().out
        argv = ["verify", "--suite", "correspondence", "--catalog", "small", "--json"]
        assert main(argv) == 0
        assert capsys.readouterr().out == implicit
        digest = "cf72670884b156bab2d2f163e713d6fba6f3b5498fc44c4c0516b2cfd15cd6d1"
        assert hashlib.sha256(implicit.encode()).hexdigest() == digest

    @pytest.mark.parametrize("options, name", [(["--eps", "1/2", "--r", "7"], "--r"), (["--eps", "1/2"], "--eps")])
    def test_twin_takes_no_haussler_options(self, options, name, tmp_path, capsys):
        f = tmp_path / "b.json"
        assert main(["gen", "c5-blowup", "--params", "s=2", "--out", str(f)]) == 0
        assert main(["decompose", str(f), "--method", "twin", *options, "--json"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "usage", "message": f"--method twin takes no {name}"}

    def test_haussler_r_defaults_to_3(self, c5_file, capsys):
        assert main(["decompose", c5_file, "--method", "haussler", "--eps", "1/5"]) == 0
        implicit = capsys.readouterr().out
        assert main(["decompose", c5_file, "--method", "haussler", "--r", "3", "--eps", "1/5"]) == 0
        assert capsys.readouterr().out == implicit
        digest = "e5fdf6f0da3d987e1ba0aff8a0dfb0a3780e777a895e1bfb5913e3d14e4ff0f1"
        assert hashlib.sha256(implicit.encode()).hexdigest() == digest

    def test_measure_needs_weak_net(self, c5_file, capsys):
        space = json.dumps({"kind": "from_graph", "graph": json.loads(C5_JSON)})
        assert main(["space", space, "--measure", "/nonexistent.json", "--json"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "usage", "message": "--measure needs --weak-net"}

    def test_weak_net_measure_defaults_to_uniform(self, capsys):
        space = json.dumps({"kind": "from_graph", "graph": json.loads(C5_JSON)})
        assert main(["space", space, "--weak-net", "1/2", "--json"]) == 0
        implicit = capsys.readouterr().out
        assert main(["space", space, "--weak-net", "1/2", "--measure", "uniform", "--json"]) == 0
        assert capsys.readouterr().out == implicit
        assert json.loads(implicit)["weak_net"] == [0]

    @pytest.mark.parametrize("metric", ["tau", "taustar"])
    def test_empty_set_is_a_precondition_error(self, metric, capsys):
        argv = ["setsys", '{"ground":2,"sets":[[],[1]]}', "--metrics", metric, "--json"]
        assert main(argv) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "precondition", "message": "system contains an empty set"}
