"""No search leaves a reference cycle behind.

Only the cyclic garbage collector frees a cycle, so a command would pay
for each search's cycle in collections.  Every recursive search is a
module-level function, which holds no closure cell, and
``tests/test_api_surface.py`` checks that no function nests one that
calls itself.  With the collector off, every search below must leave
``gc.collect()`` nothing to free, also when its budget runs out inside
the recursion.
"""

import gc
from fractions import Fraction

import pytest

from ultrafree.budget import BudgetExceeded, SearchBudget
from ultrafree.cli import main
from ultrafree.convexity import correspondence_checks
from ultrafree.decompose import haussler_partition
from ultrafree.graphs import Graph, chromatic_number, clique_codensity, is_maximal_kr_free
from ultrafree.setsystems import helly_number, mis_family, mis_star_system, transversal_number
from ultrafree.ultra import find_half_graph, nu_bi, ultra_parameter

C5 = Graph.cycle(5)
C7 = Graph.cycle(7)
STARS = mis_star_system(C7)

SEARCHES = {
    "transversal_number": lambda: transversal_number(STARS),
    "helly_number": lambda: helly_number(STARS),
    "mis_family": lambda: mis_family(C7),
    # C7's greedy classes are 3 and ω = 2, so the k-colouring search runs
    "chromatic_number": lambda: chromatic_number(C7),
    "find_half_graph": lambda: find_half_graph(C7, 2),
    "clique_codensity": lambda: clique_codensity(C7, 2, 2),
    "is_maximal_kr_free": lambda: is_maximal_kr_free(C7, 3),
    "ultra_parameter": lambda: ultra_parameter(C7, 3),
    "haussler_partition": lambda: haussler_partition(C5, 3, Fraction(1, 5)),
    "nu_bi": lambda: nu_bi(C7),
    "correspondence_checks": lambda: correspondence_checks([C7], (3, 4, 5))[0],
}


@pytest.fixture
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_no_search_leaves_a_cycle(collector_off):
    left = {}
    for name, search in SEARCHES.items():
        search()
        left[name] = gc.collect()
    assert left == dict.fromkeys(SEARCHES, 0)


# each raises inside its recursive helper under a 2-node cap
RAISING = {
    "transversal_number": lambda: transversal_number(STARS),
    "helly_number": lambda: helly_number(STARS),
    "mis_family": lambda: mis_family(C7),
    # with ω given, the first search is the k-colouring one
    "chromatic_number": lambda: chromatic_number(C7, omega=2),
    "find_half_graph": lambda: find_half_graph(C7, 2),
}


def test_no_search_leaves_a_cycle_when_it_raises(collector_off):
    left = {}
    for name, search in RAISING.items():
        # the handled exception holds the search's frames until its
        # handler ends, so the collection runs after it
        with pytest.raises(BudgetExceeded), SearchBudget(max_nodes=2):
            search()
        left[name] = gc.collect()
    assert left == dict.fromkeys(RAISING, 0)


def test_a_second_command_leaves_no_cycle(collector_off, capsys):
    # parsing the command line builds no parser object, so the first
    # command leaves no cycle either
    argv = ["verify", "--suite", "halfgraph"]
    assert main(argv) == 0
    assert gc.collect() == 0
    assert main(argv) == 0
    assert gc.collect() == 0
