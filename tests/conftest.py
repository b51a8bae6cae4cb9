import re
import sys
from pathlib import Path

import pytest

from ultrafree.catalog import connected_graphs, seeded_random_graphs

# the catalog generator (tools/write_catalog.py) is imported by the tests
# that regenerate the stored catalog or decide isomorphism
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

_CRITERION = re.compile(r"::test_criterion_(\d+)")
_outcomes: dict[int, str] = {}


@pytest.fixture(scope="session")
def small_catalog():
    """All connected graphs on up to 7 vertices, one per isomorphism class."""
    return tuple(connected_graphs(7))


@pytest.fixture(scope="session")
def random_catalog():
    """200 seeded random graphs on up to 10 vertices."""
    return tuple(seeded_random_graphs(200, 10, 20260301))


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if m is None:
        return
    num = int(m.group(1))
    # any failing phase (setup error, call, teardown) flips the verdict
    if report.outcome != "passed":
        _outcomes[num] = "FAIL"
    elif report.when == "call":
        _outcomes.setdefault(num, "PASS")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_outcomes):
        terminalreporter.write_line(f"criterion {num:2d}: {_outcomes[num]}")
