"""Exact invariants, edge-ideal regularity, and bounds for (whiskered) trees."""

from .bounds import (
    BoundSet,
    InvariantRecord,
    Violation,
    evaluate_bounds,
    record_for_tree,
    verify_record,
)
from .graphs import (
    Graph,
    TreeWitness,
    WhiskerVector,
    from_edge_list,
    multi_whisker,
    path_graph,
)
from .homology import (
    BettiTable,
    betti_table,
    regularity,
)
from .invariants import (
    IndependentSetCertificate,
    MatchingCertificate,
    independence_number,
    induced_matching_number,
)
from .trees import (
    canonical_code,
    count_trees,
    enumerate_trees,
    graph_from_code,
    tree_from_code,
)

__all__ = [
    "BettiTable",
    "BoundSet",
    "Graph",
    "IndependentSetCertificate",
    "InvariantRecord",
    "MatchingCertificate",
    "TreeWitness",
    "Violation",
    "WhiskerVector",
    "betti_table",
    "canonical_code",
    "count_trees",
    "enumerate_trees",
    "evaluate_bounds",
    "from_edge_list",
    "graph_from_code",
    "independence_number",
    "induced_matching_number",
    "multi_whisker",
    "path_graph",
    "record_for_tree",
    "regularity",
    "tree_from_code",
    "verify_record",
]

__version__ = "0.1.0"
