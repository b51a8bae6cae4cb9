import json

import pytest

import ultrafree.setsystems
from ultrafree.cli import main
from ultrafree.constructions import hypercube_lb
from ultrafree.io import decomposition_from_obj, parse_graph

C5_JSON = '{"n": 5, "edges": [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]}'


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

    def test_missing_file(self, capsys):
        assert main(["analyze", "nowhere.json", "--metrics", "chi"]) == 2
        assert "error (parse-error)" in capsys.readouterr().err

    def test_budget_exit(self, c5_file, capsys):
        code = main(["analyze", c5_file, "--metrics", "chi", "--budget-nodes", "0", "--json"])
        assert code == 3
        obj = json.loads(capsys.readouterr().out)
        assert obj["error"]["type"] == "budget"
        assert "budget exceeded" in obj["error"]["message"]


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

    def test_bad_metric_arity(self, c5_file, capsys):
        assert main(["setsys", c5_file, "--metrics", "pq:3"]) == 2
        assert "unknown set-system metric" in capsys.readouterr().err

    def test_failed_lp_certificate(self, monkeypatch, capsys):
        max_simplex = ultrafree.setsystems.max_simplex

        def wrong_dual(c, A, b):
            value, x, duals = max_simplex(c, A, b)
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

    def test_decimal_eps_rejected(self, capsys):
        assert main(["space", '{"kind": "subcubes", "dim": 2}', "--weak-net", "0.5"]) == 2
        assert "expected a rational" in capsys.readouterr().err


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
        decomposition_from_obj(obj).validate(parse_graph(str(f)))

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
        assert by_name["construction-size"]["witness"] is not None

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


class TestBudgetEnv:
    def test_env_millis(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "r.json"
        assert main(["gen", "random", "--params", "n=40,num=1,den=2,seed=7", "--out", str(f)]) == 0
        monkeypatch.setenv("ULTRAFREE_BUDGET_MS", "1")
        assert main(["analyze", str(f), "--metrics", "chi"]) == 3
        assert "error (budget)" in capsys.readouterr().err

    def test_env_invalid(self, c5_file, capsys, monkeypatch):
        monkeypatch.setenv("ULTRAFREE_BUDGET_MS", "soon")
        assert main(["analyze", c5_file, "--metrics", "chi"]) == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_arg_overrides_env(self, c5_file, capsys, monkeypatch):
        # explicit --budget-ms wins, so the bad env value is never read
        monkeypatch.setenv("ULTRAFREE_BUDGET_MS", "soon")
        assert main(["analyze", c5_file, "--metrics", "chi", "--budget-ms", "100000"]) == 0
        capsys.readouterr()
