"""Bounded-exhaustive checks of the engine against the oracle.

Every labelled graph on at most five vertices, with its edges in sorted
order, is started from each of its matchings, the empty one included.
The engine's l_m, and its levels at every vertex of tenacity below l_m,
must equal those of `oracle.compute_profile`; its stored minlevels must
equal min(evenlevel, oddlevel) everywhere; its props (the edges one end
lists in the other's `preds`) must be the oracle's props among the
edges MIN classified, read from its per-vertex scan marks; every
petal's members must lie in its bridge's support; and the oracle's
profile must satisfy the paper's structural theorems.  The same checks
run on every edge order of every labelled graph on four vertices, from
each of its matchings: the DDFS takes out-edges in scan order, which
follows the adjacency and so the edge order.  Every labelled graph on
six vertices is also solved from the empty matching and from the
solver's own seed, and each size must equal `brute_max_matching`'s; a
Karp-Sipser seed made with no greedy pick must be maximum by itself
(Karp and Sipser's lemma).  The enumerations live in `support.small_instances`
and `support.all_graphs`; `tests/edge_order_sweep.py` runs the
edge-order checks on five vertices and up to six edges, outside pytest.
"""

from __future__ import annotations

import itertools
import math

from mvmatching.graph import Graph, MatchingState
from mvmatching.oracle import (
    brute_max_matching,
    brute_support,
    check_structural_theorems,
    compute_profile,
)
from mvmatching.phase import run_phase
from mvmatching.solver import karp_sipser, maximum_matching

import support

MAX_N = 5

# (graph, matching) pairs for n = 1..5: 1, 3, 20, 304 and 9,984.
PAIRS = 10_312
# Petals the engine forms over those pairs, and edges its MIN classifies.
PETALS = 3_675
CLASSIFIED = 50_676
# (graph, edge order, matching) triples on four vertices, and the petals
# the engine forms over them.
ORDERED_4 = 15_853
ORDERED_PETALS_4 = 72
# Labelled graphs on six vertices: one per subset of the 15 pairs, and
# those whose Karp-Sipser seed makes no greedy pick.
GRAPHS_6 = 32_768
CERTIFIED_6 = 12_982


def check_phase(s, profile) -> tuple[int, int]:
    """Check the finished phase s against the oracle's profile of the same
    graph and matching, its edges in any order; return the petals formed
    and the edges classified."""
    g, where = s.g, (s.g.edges, s.m.pairs())
    assert (s.l_m if s.paths else math.inf) == profile.l_m, where
    assert profile.level_mismatches(s.evenlevel, s.oddlevel) == [], where
    assert s.minlevels == list(map(min, s.evenlevel, s.oddlevel)), where
    props = classified = 0
    for u, v in g.edges:
        if support.classified(s, u, v):
            prop = support.is_prop(s, u, v)
            assert prop == ((u, v) in profile.props), ((u, v), where)
            props += prop
            classified += 1
    assert sum(map(len, s.preds)) == props, where
    for petal, members in zip(s.petals, support.petal_members(s)):
        assert members <= brute_support(profile, petal.bridge), (petal, where)
    return len(s.petals), classified


def test_every_small_graph_from_every_matching() -> None:
    count = petals = classified = 0
    for g, m in support.small_instances(MAX_N):
        profile = compute_profile(g, m)
        assert check_structural_theorems(profile) == [], (g.edges, m.pairs())
        p, c = check_phase(run_phase(g, m), profile)
        petals += p
        classified += c
        count += 1
    assert (count, petals, classified) == (PAIRS, PETALS, CLASSIFIED)


def test_every_edge_order_on_four_vertices() -> None:
    count = petals = 0
    for g in support.all_graphs(4):
        for m in support.all_matchings(g):
            profile = compute_profile(g, m)
            assert check_structural_theorems(profile) == [], (g.edges, m.pairs())
            for order in itertools.permutations(g.edges):
                s = run_phase(Graph.from_edges(4, list(order)), m)
                petals += check_phase(s, profile)[0]
                count += 1
    assert (count, petals) == (ORDERED_4, ORDERED_PETALS_4)


def test_every_six_vertex_graph_solves_to_maximum() -> None:
    count = certified = 0
    for g in support.all_graphs(6):
        best = brute_max_matching(g)[0]
        assert maximum_matching(g, MatchingState(6))[0].size() == best, g.edges
        assert maximum_matching(g)[0].size() == best, g.edges
        # Karp and Sipser's lemma: every pair of the degree-1 rule extends
        # to a maximum matching, so a seed made of such pairs alone, with
        # no edge left between free vertices, is maximum.
        seed, picks = karp_sipser(g)
        if not picks:
            assert seed.size() == best, g.edges
            certified += 1
        count += 1
    assert (count, certified) == (GRAPHS_6, CERTIFIED_6)
