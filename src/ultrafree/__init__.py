"""Exact tools for clique-density-critical graphs.

Maximal K_r-free graphs in which every non-adjacent pair sees many
(r-2)-cliques in its common neighborhood have rigid structure: bounded
VC dimension, no large half graphs, and small blow-up quotients.  This
package computes all of the relevant quantities exactly (rationals, no
floats) and re-verifies each structural claim on every input it touches.

``BACKEND`` is the constant ``"pure"``: the search kernels have a single
pure-Python implementation, and the name is kept for scripts that print it.
"""

from .budget import BudgetExceeded, SearchBudget
from .catalog import connected_graphs
from .constructions import (
    HypercubePair,
    anchored_crown,
    blowup,
    crown,
    half_min,
    hypercube_lb,
    kneser,
    turan,
    ultra_vc_example,
)
from .convexity import (
    ConvexitySpace,
    Measure,
    correspondence_checks,
    mis_space,
    radon_number,
    space_helly_number,
    subcube_space,
    weak_eps_net,
)
from .decompose import (
    BlowupDecomposition,
    ObstructionCertificate,
    codegree_density_check,
    haussler_partition,
    min_degree_ultra_check,
    p4_obstruction,
    packing_bound,
    twin_quotient,
    vc_chromatic_partition,
)
from .errors import ClaimViolation, PreconditionViolated
from .graphs import (
    Graph,
    chromatic_number,
    clique_codensity,
    clique_number,
    codegree_min,
    count_cliques,
    enumerate_mis,
    is_kr_free,
    is_maximal_kr_free,
)
from .io import emit_dimacs, emit_graph_json, parse_graph
from .reports import Check, Report, TOOL_VERSION
from .setsystems import (
    SetSystem,
    dual,
    disjointness_graph,
    fractional_transversal,
    has_pq_property,
    helly_number,
    matching_number,
    mis_family,
    mis_star_system,
    neighborhood_system,
    transversal_number,
    vc_dimension,
)
from .ultra import (
    BiInducedMatching,
    HalfGraphEmbedding,
    UltraCertificate,
    find_half_graph,
    is_eps_ultra,
    nu_bi,
    ultra_parameter,
)

__version__ = TOOL_VERSION
BACKEND = "pure"

__all__ = [
    "BACKEND",
    "__version__",
    "TOOL_VERSION",
    "BudgetExceeded",
    "SearchBudget",
    "connected_graphs",
    "HypercubePair",
    "anchored_crown",
    "blowup",
    "crown",
    "half_min",
    "hypercube_lb",
    "kneser",
    "turan",
    "ultra_vc_example",
    "ConvexitySpace",
    "Measure",
    "mis_space",
    "radon_number",
    "space_helly_number",
    "subcube_space",
    "correspondence_checks",
    "weak_eps_net",
    "BlowupDecomposition",
    "ObstructionCertificate",
    "codegree_density_check",
    "haussler_partition",
    "min_degree_ultra_check",
    "p4_obstruction",
    "packing_bound",
    "twin_quotient",
    "vc_chromatic_partition",
    "ClaimViolation",
    "PreconditionViolated",
    "Graph",
    "chromatic_number",
    "clique_codensity",
    "clique_number",
    "codegree_min",
    "count_cliques",
    "enumerate_mis",
    "is_kr_free",
    "is_maximal_kr_free",
    "emit_dimacs",
    "emit_graph_json",
    "parse_graph",
    "Check",
    "Report",
    "SetSystem",
    "dual",
    "disjointness_graph",
    "fractional_transversal",
    "has_pq_property",
    "helly_number",
    "matching_number",
    "mis_family",
    "mis_star_system",
    "neighborhood_system",
    "transversal_number",
    "vc_dimension",
    "BiInducedMatching",
    "HalfGraphEmbedding",
    "UltraCertificate",
    "find_half_graph",
    "is_eps_ultra",
    "nu_bi",
    "ultra_parameter",
]
