"""Top-level maximum-matching driver: repeat phases until no augmenting
path remains."""

from __future__ import annotations

from typing import Optional

from .graph import Graph, MatchingState, augment_in_place, validate_matching
from .phase import TraceFn, run_phase


def maximum_matching(
    g: Graph,
    m: Optional[MatchingState] = None,
    trace: Optional[TraceFn] = None,
) -> tuple[MatchingState, int]:
    """Compute a maximum-cardinality matching.

    Returns the matching and the number of phases run (including the
    final phase that certifies no augmenting path exists).  When no
    starting matching is given, a greedy maximal matching seeds the
    search, which skips the short-path phases on large inputs.  A given
    matching that is not valid for g raises ValueError naming its first
    fault (see `validate_matching`).
    """
    if m is not None:
        violations = validate_matching(g, m)
        if violations:
            raise ValueError(f"invalid starting matching: {violations[0]}")
        matching = m.copy()
    else:
        matching = MatchingState(g.n)
        partner = matching.partner
        for u, v in g.edges:
            if partner[u] is None and partner[v] is None:
                partner[u] = v
                partner[v] = u
    phases = 0
    while True:
        s = run_phase(g, matching, trace=trace)
        phases += 1
        if not s.paths:
            return matching, phases
        for path in s.paths:
            augment_in_place(matching, g, path)
