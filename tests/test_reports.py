import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import ultrafree
from ultrafree.reports import TOOL_VERSION, Check, Report, _verdict, digest_of, jsonable


class TestJsonable:
    def test_fractions(self):
        assert jsonable(Fraction(5, 2)) == "5/2"
        assert jsonable(Fraction(0)) == "0/1"
        assert jsonable(Fraction(-1, 3)) == "-1/3"

    def test_containers(self):
        got = jsonable({"a": (Fraction(1, 2), [3, None]), 4: "x"})
        assert got == {"a": ["1/2", [3, None]], "4": "x"}

    def test_passthrough(self):
        for v in (1, "s", None, True, 2.5):
            assert jsonable(v) == v


class TestCheck:
    def test_status_validation(self):
        with pytest.raises(ValueError, match="bad status"):
            Check("x", "r", "ok")

    def test_fail_needs_witness(self):
        with pytest.raises(ValueError, match="must carry a witness"):
            Check("x", "r", "fail")
        Check("x", "r", "fail", witness=(0, 1))

    def test_passed(self):
        assert Check("x", "r", "pass").passed
        assert Check("x", "r", "skipped").passed
        assert not Check("x", "r", "fail", witness=0).passed

    def test_to_json(self):
        c = Check("n", "rule", "pass", value=Fraction(1, 2))
        assert c.to_json() == {
            "name": "n",
            "rule": "rule",
            "status": "pass",
            "value": "1/2",
            "witness": None,
        }


class TestVerdict:
    def test_pass_drops_witness(self):
        c = _verdict("x", "r", True, value=1, witness={"w": 2})
        assert (c.status, c.value, c.witness) == ("pass", 1, None)

    def test_fail_keeps_witness(self):
        c = _verdict("x", "r", False, value=1, witness={"w": 2})
        assert (c.status, c.value, c.witness) == ("fail", 1, {"w": 2})

    def test_none_skips(self):
        c = _verdict("x", "r", None, value=1, witness={"w": 2})
        assert (c.status, c.value, c.witness) == ("skipped", 1, None)

    def test_fail_without_witness(self):
        c = _verdict("x", "r", 0)
        assert (c.status, c.witness) == ("fail", {})


class TestReport:
    def two_checks(self):
        return [Check("b", "r", "pass"), Check("a", "r", "skipped", value=1)]

    def test_sorted_by_name(self):
        rep = Report("d" * 12, self.two_checks())
        assert [c.name for c in rep.checks] == ["a", "b"]

    def test_passed_and_failures(self):
        assert Report("d" * 12, self.two_checks()).passed
        bad = Check("c", "r", "fail", witness=9)
        assert not Report("d" * 12, self.two_checks() + [bad]).passed

    def test_to_json_shape(self):
        rep = Report("abc", [Check("a", "r", "pass")])
        obj = rep.to_json()
        assert obj["tool_version"] == TOOL_VERSION
        assert obj["input_digest"] == "abc"
        assert obj["passed"] is True
        assert obj["timing"] is None
        assert len(obj["checks"]) == 1

    def test_dumps_byte_stable(self):
        mk = lambda: Report("abc", self.two_checks()).dumps()
        assert mk() == mk()
        obj = json.loads(mk())
        assert list(obj) == sorted(obj)  # sort_keys
        assert "\n  " in mk()  # indent=2

    def test_summary_lines(self):
        rep = Report(
            "abc",
            [
                Check("ok", "r", "pass", value={"n": 3}),
                Check("metric", "r", "pass"),
                Check("broken", "r", "fail", value=2, witness=(0, 1)),
                Check("absent", "r", "skipped"),
            ],
        )
        assert rep.summary_lines() == [
            "[SKIP] absent",
            "[FAIL] broken value=2 witness=[0, 1]",
            "[PASS] metric",
            "[PASS] ok value={'n': 3}",
        ]


class TestDigest:
    def test_stable_and_short(self):
        d = digest_of({"n": 5}, Fraction(1, 2))
        assert d == digest_of({"n": 5}, Fraction(1, 2))
        assert len(d) == 12 and int(d, 16) >= 0

    def test_sensitive_to_content_and_order(self):
        assert digest_of(1, 2) != digest_of(2, 1)
        assert digest_of("a") != digest_of("b")

    @given(st.lists(oracles.json_parts, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_rebuilt_parts(self, parts):
        assert digest_of(*parts) == oracles.digest_of(*parts)

    def test_rejects_what_json_cannot_write(self):
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            digest_of({"s": {1}})


def test_version_consistency():
    assert ultrafree.__version__ == TOOL_VERSION == "0.1.0"
