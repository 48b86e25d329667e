"""Top-level maximum-matching driver: repeat phases until no augmenting
path remains."""

from __future__ import annotations

from typing import Optional

from .graph import Graph, MatchingState, augment_in_place, validate_matching
from .phase import TraceFn, run_phase


def degree_one_cascade(g: Graph) -> MatchingState:
    """Match every vertex left with one unmatched neighbour to it, until
    none is left: the degree-1 rule of Karp and Sipser (1981).

    Some maximum matching of what is still unmatched matches a vertex of
    degree 1 to its one neighbour, so each such pair extends to a maximum
    matching of g.  Matching u removes it from its unmatched neighbours'
    counts, and a neighbour whose count falls to 1 is matched in turn.
    `live[w]` holds w's count only once it has fallen below
    `len(g.adj[w])`, w's degree, so a graph with no degree-1 vertex pays
    one pass of `len` over `adj`.  The walks read neighbours only, in
    `adj` order.  O(n + m).
    """
    adj = g.adj
    matching = MatchingState(g.n)
    partner = matching.partner
    stack = [v for v, nbrs in enumerate(adj) if len(nbrs) == 1]
    live: dict[int, int] = {}
    while stack:
        v = stack.pop()
        if partner[v] is not None:
            continue
        for u in adj[v]:
            if partner[u] is None:
                break
        else:
            continue  # v's last neighbour was matched since v was pushed
        partner[v] = u
        partner[u] = v
        for w in adj[u]:
            if partner[w] is None:
                count = live.get(w, len(adj[w])) - 1
                live[w] = count
                if count == 1:
                    stack.append(w)
    return matching


def maximum_matching(
    g: Graph,
    m: Optional[MatchingState] = None,
    trace: Optional[TraceFn] = None,
) -> tuple[MatchingState, int]:
    """Compute a maximum-cardinality matching.

    Returns the matching and the number of phases run (including the
    final phase that certifies no augmenting path exists).  When no
    starting matching is given, the search is seeded by
    `degree_one_cascade`, then by a greedy pass over `g.edges` that
    matches each edge whose ends are both still free; on a forest the
    cascade alone is maximum, so one certifying phase remains.  A given
    matching is used as it is; one that is not valid for g raises
    ValueError naming its first fault (see `validate_matching`).
    """
    if m is not None:
        violations = validate_matching(g, m)
        if violations:
            raise ValueError(f"invalid starting matching: {violations[0]}")
        matching = m.copy()
    else:
        matching = degree_one_cascade(g)
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
