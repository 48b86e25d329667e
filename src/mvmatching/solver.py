"""Top-level maximum-matching driver: repeat phases until no augmenting
path remains."""

from __future__ import annotations

from typing import Iterator, Optional

from .graph import Graph, MatchingState, augment_in_place, gc_paused, validate_matching
from .phase import TraceFn, run_phase


def karp_sipser(g: Graph) -> tuple[MatchingState, int]:
    """The Karp-Sipser (1981) matching of g, and the number of greedy
    picks it made.

    The degree-1 rule matches a free vertex that has one free neighbour
    to that neighbour, until no such vertex is left.  Then the next edge
    of `g.edges` whose ends are both free is matched, a greedy pick, and
    the rule runs again, until no edge joins two free vertices.

    `live[w]` is w's degree less its matched neighbours, so while w is
    free it counts w's free neighbours.  Each new pair lowers the counts
    of its ends' neighbours, and a vertex whose count falls to 1 is
    pushed for the rule, once, as counts only fall.  A pair of the rule
    lowers only its second end's neighbours: the first has no other
    free neighbour.  Each adjacency is walked at most once for the counts
    and once to find a partner, so the pass is O(n + m).

    Some maximum matching of what is still free matches a vertex of
    degree 1 to its one neighbour, so every pair the rule makes extends
    to a maximum matching.  With no greedy pick every pair is one of
    these, and no edge is left between free vertices, so the matching is
    maximum.
    """
    adj = g.adj
    matching = MatchingState(g.n)
    partner = matching.partner
    live = [len(nbrs) for nbrs in adj]
    stack = [v for v, count in enumerate(live) if count == 1]
    edges = iter(g.edges)
    picks = 0
    while True:
        if stack:
            u = stack.pop()
            if partner[u] is not None or not live[u]:
                continue
            for v in adj[u]:
                if partner[v] is None:
                    break
            walk = adj[v]
        else:
            for u, v in edges:
                if partner[u] is None and partner[v] is None:
                    break
            else:
                return matching, picks
            picks += 1
            walk = adj[u] + adj[v]
        partner[u] = v
        partner[v] = u
        for w in walk:
            count = live[w] - 1
            live[w] = count
            if count == 1:
                stack.append(w)


def _free_vertices(g: Graph, partner: list[Optional[int]]) -> Iterator[int]:
    """The free vertices that have a neighbour, in vertex order, found by
    `list.index`."""
    adj = g.adj
    v = -1
    try:
        while True:
            v = partner.index(None, v + 1)
            if adj[v]:
                yield v
    except ValueError:
        return


def two_free_in_one_component(g: Graph, m: MatchingState) -> bool:
    """Whether some connected component of g holds two or more vertices
    that m leaves free.  When none does, m is maximum: by Berge's lemma
    an augmenting path joins two free vertices of one component.  This
    is the empty-barrier case of the Tutte-Berge formula.

    A free vertex of degree 0 is a component by itself, so it is passed
    over, and when at most one free vertex is left the answer is False
    at once.  Otherwise one breadth-first search grows from the free
    vertices, and `root` labels each vertex it reaches with the free
    vertex it grew from.  It takes one more free vertex, in vertex
    order, before each vertex it expands, so on a matching with many
    free vertices the answer comes after a few steps, with no pass over
    all of `partner`.  The answer is True at the first edge whose ends
    carry two labels, or at a free vertex already reached from another
    one, and False once every free vertex is a root and their components
    are exhausted.  O(n + m).
    """
    adj = g.adj
    root = [-1] * g.n
    free = _free_vertices(g, m.partner)
    first = next(free, None)
    second = next(free, None)
    if second is None:
        return False
    root[first] = first
    root[second] = second
    queue = [first, second]
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
    `karp_sipser`.  A seed made with no greedy pick is maximum by
    itself, as on every forest: it is returned at once, and that counts
    as the certifying phase, again with no trace event.  A given
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
        matching, picks = karp_sipser(g)
        if not picks:
            return matching, 1
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
