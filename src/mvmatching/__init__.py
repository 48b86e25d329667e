"""Maximum-cardinality matching for general graphs.

Phase-structured minimum-length augmenting-path search with double
depth-first search and petal/bud bookkeeping, plus a brute-force
structural oracle for small instances.
"""

from .graph import (
    Graph,
    GraphFormatError,
    MatchingState,
    generate_random_graph,
    parse_dimacs,
    parse_matching,
    serialize_dimacs,
    serialize_matching,
    validate_matching,
)
from .phase import PhaseState, run_phase
from .solver import maximum_matching

__all__ = [
    "Graph",
    "GraphFormatError",
    "MatchingState",
    "PhaseState",
    "generate_random_graph",
    "maximum_matching",
    "parse_dimacs",
    "parse_matching",
    "run_phase",
    "serialize_dimacs",
    "serialize_matching",
    "validate_matching",
]

__version__ = "0.1.0"
