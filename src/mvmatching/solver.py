"""Top-level maximum-matching driver: repeat phases until no augmenting
path remains."""

from __future__ import annotations

from typing import Iterator, Optional

from .graph import Graph, MatchingState, augment_in_place, gc_paused, validate_matching
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


def _free_vertices(partner: list[Optional[int]]) -> Iterator[int]:
    """The free vertices in vertex order, found by `list.index`."""
    v = -1
    try:
        while True:
            v = partner.index(None, v + 1)
            yield v
    except ValueError:
        return


def two_free_in_one_component(g: Graph, m: MatchingState) -> bool:
    """Whether some connected component of g holds two or more vertices
    that m leaves free.  When none does, m is maximum: by Berge's lemma
    an augmenting path joins two free vertices of one component.  This
    is the empty-barrier case of the Tutte-Berge formula.

    One breadth-first search grows from the free vertices, and `root`
    labels each vertex it reaches with the free vertex it grew from.  It
    takes one more free vertex, in vertex order, before each vertex it
    expands, so on a matching with many free vertices the answer comes
    after a few steps, with no pass over all of `partner`.  The answer is
    True at the first edge whose ends carry two labels, or at a free
    vertex already reached from another one, and False once every free
    vertex is a root and their components are exhausted.  O(n + m).
    """
    adj = g.adj
    root = [-1] * g.n
    free = _free_vertices(m.partner)
    first = next(free, None)
    if first is None:
        return False
    root[first] = first
    queue = [first]
    # The list iterator also yields the vertices appended while it runs.
    for u in queue:
        f = next(free, None)
        if f is not None:
            if root[f] >= 0:
                return True
            root[f] = f
            queue.append(f)
        r = root[u]
        for v in adj[u]:
            rv = root[v]
            if rv < 0:
                root[v] = r
                queue.append(v)
            elif rv != r:
                return True
    return False


@gc_paused
def maximum_matching(
    g: Graph,
    m: Optional[MatchingState] = None,
    trace: Optional[TraceFn] = None,
) -> tuple[MatchingState, int]:
    """Compute a maximum-cardinality matching.

    Returns the matching and the number of phases run, the certifying
    one included.  Before each phase's search, `two_free_in_one_component`
    checks the matching; when no component holds two free vertices, the
    check alone certifies it maximum and counts as that phase, with no
    search and no trace event.  Otherwise the last phase is a search
    that finds no augmenting path.

    When no starting matching is given, the search is seeded by
    `degree_one_cascade`, then by a greedy pass over `g.edges` that
    matches each edge whose ends are both still free; on a forest the
    cascade alone is maximum, so one certifying phase remains.  A given
    matching is used as it is; one that is not valid for g raises
    ValueError naming its first fault (see `validate_matching`).

    The call runs with cyclic GC paused (`gc_paused`).
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
        phases += 1
        if not two_free_in_one_component(g, matching):
            return matching, phases
        s = run_phase(g, matching, trace=trace)
        if not s.paths:
            return matching, phases
        for path in s.paths:
            augment_in_place(matching, g, path)
