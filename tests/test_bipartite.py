"""Exact per-phase checks on bipartite graphs of any size.

On a bipartite graph an alternating walk that repeats a vertex closes an
even cycle, and cutting the cycle out keeps alternation, so shortest
alternating walks are paths and the engine's minlevels are plain BFS
distances from the free vertices: the Hopcroft-Karp (1973) layering.
Every phase of a solve is checked against that layering:
- l_m is the least BFS oddlevel of a free vertex;
- every vertex MIN reached has its BFS minlevel, and every vertex within
  the levels MIN ran (all levels, in the certifying phase) was reached;
- the phase's paths are a maximal set: a layered DFS finds no augmenting
  path of length l_m that avoids them, and l_m rises strictly to the
  next phase.
No bipartite vertex has tenacity below l_m, so the oracle's level
comparison checks nothing here; these checks need no oracle and hold at
any n.  They do not cover maxlevels or petals.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Optional

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvmatching import paths, phase
from mvmatching.graph import Graph, MatchingState, augment_in_place
from mvmatching.oracle import greedy_matching
from mvmatching.phase import UNSET, PhaseState

import support

PROPERTY_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_SEED = st.integers(min_value=0, max_value=2**32 - 1)


def _bfs_levels(g: Graph, m: MatchingState) -> tuple[list[int], list[int]]:
    """The lengths of the shortest even and odd alternating walks from a
    free vertex to each vertex, UNSET where there is none."""
    even, odd = [UNSET] * g.n, [UNSET] * g.n
    frontier = [v for v in range(g.n) if m.partner[v] is None]
    for v in frontier:
        even[v] = 0
    d = 0
    while frontier:
        nxt = []
        for u in frontier:
            if d % 2 == 0:
                for v in g.adj[u]:
                    if m.partner[u] != v and odd[v] == UNSET:
                        odd[v] = d + 1
                        nxt.append(v)
            else:
                p = m.partner[u]
                if p is not None and even[p] == UNSET:
                    even[p] = d + 1
                    nxt.append(p)
        frontier, d = nxt, d + 1
    return even, odd


def _layered_path(
    g: Graph, m: MatchingState, even: list[int], odd: list[int], l_m: int, used: set[int]
) -> Optional[list[int]]:
    """An augmenting path of length l_m through no vertex of `used`, its
    j-th vertex at BFS level j, or None: the layered DFS of Hopcroft-Karp,
    which marks a vertex dead at a level once nothing below it succeeds."""

    def step(v: int, j: int) -> list[int]:
        if j >= l_m:
            return []
        if j % 2:
            p = m.partner[v]
            return [p] if p is not None and even[p] == j + 1 else []
        return [x for x in g.adj[v] if m.partner[v] != x and odd[x] == j + 1]

    dead: set[tuple[int, int]] = set()
    for f in range(g.n):
        if m.partner[f] is not None or f in used:
            continue
        path, nexts = [f], [iter(step(f, 0))]
        while nexts:
            j = len(path) - 1
            if j == l_m and m.partner[path[-1]] is None:
                return path
            x = next(nexts[-1], None)
            if x is None:
                dead.add((path.pop(), j))
                nexts.pop()
            elif x not in used and (x, j + 1) not in dead:
                path.append(x)
                nexts.append(iter(step(x, j + 1)))
    return None


def _check_phase(s: PhaseState, m: MatchingState) -> None:
    g = s.g
    even, odd = _bfs_levels(g, m)
    free = [v for v in range(g.n) if m.partner[v] is None]
    assert s.l_m == min((odd[f] for f in free), default=UNSET)
    assert (s.l_m == UNSET) == (s.paths == [])
    # MIN ran levels 0..(l_m - 1) // 2, and assigned minlevels one above.
    reach = (s.l_m + 1) // 2 if s.paths else UNSET - 1
    for v in range(g.n):
        bfs = min(even[v], odd[v])
        if s.minlevel(v) != UNSET:
            assert s.minlevel(v) == bfs, v
        else:
            assert bfs > reach, v
    used: set[int] = set()
    for path in s.paths:
        assert len(path) - 1 == s.l_m and used.isdisjoint(path)
        used.update(path)
    if s.paths:
        assert _layered_path(g, m, even, odd, s.l_m, used) is None


def _check_solve(g: Graph, m: MatchingState) -> int:
    """Check every phase of a solve from m; return the phase count."""
    m = m.copy()
    last_lm = phases = 0
    for s, _ in support.solve_phases(g, m):
        _check_phase(s, m)
        assert s.l_m > last_lm
        last_lm = s.l_m
        phases += 1
        for path in s.paths:
            augment_in_place(m, g, path)
    return phases


def _named(g: Graph, rng: random.Random) -> Graph:
    """g with its vertices renamed and its edges listed in a random order."""
    name = list(range(g.n))
    rng.shuffle(name)
    edges = [(name[u], name[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return Graph.from_edges(g.n, edges)


@st.composite
def _bipartite_instance(draw: st.DrawFn) -> tuple[Graph, MatchingState]:
    """A random bipartite graph, sides of 1 to 30 vertices under shuffled
    names, with a seeded greedy starting matching (possibly empty)."""
    a = draw(st.integers(min_value=1, max_value=30))
    b = draw(st.integers(min_value=1, max_value=30))
    density = draw(st.floats(min_value=0.0, max_value=0.5))
    rng = random.Random(draw(_SEED))
    edges = [(x, a + y) for x in range(a) for y in range(b) if rng.random() < density]
    g = _named(Graph.from_edges(a + b, edges), rng)
    accept = draw(st.sampled_from([0.0, 0.3, 0.8]))
    return g, greedy_matching(g, rng.randrange(2**32), accept)


def _grid(rows: int, cols: int) -> Graph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def _near_tree(n: int, rng: random.Random) -> Graph:
    """A tree in which v hangs off one of the five vertices before it."""
    edges = [(rng.randrange(max(0, v - 5), v), v) for v in range(1, n)]
    rng.shuffle(edges)
    return Graph.from_edges(n, edges)


def _dense_with_pendants(k: int) -> tuple[Graph, MatchingState]:
    """K_{k,k} between k free vertices and k matched ones, each partner of
    which holds one more free vertex: one phase of k paths of length 3, in
    which each matched vertex of the K_{k,k} has k predecessors and each
    free vertex a path removes has k successors."""
    edges = [(f, k + x) for f in range(k) for x in range(k)]
    edges += [(k + i, 2 * k + i) for i in range(k)] + [(2 * k + i, 3 * k + i) for i in range(k)]
    return Graph.from_edges(4 * k, edges), MatchingState(4 * k, [(k + i, 2 * k + i) for i in range(k)])


class TestBipartitePhases:
    @PROPERTY_SETTINGS
    @given(inst=_bipartite_instance())
    def test_random_bipartite_phases_are_exact(
        self, inst: tuple[Graph, MatchingState]
    ) -> None:
        _check_solve(*inst)

    def test_long_paths(self) -> None:
        # The inner-matched path has one augmenting path, the whole graph.
        g, m = support.inner_matched_path(3000)
        assert _check_solve(g, m) == 2
        rng = random.Random(5)
        g = _named(Graph.from_edges(2001, [(i, i + 1) for i in range(2000)]), rng)
        _check_solve(g, MatchingState(g.n))
        _check_solve(g, greedy_matching(g, 5, 0.5))

    def test_grids(self) -> None:
        rng = random.Random(6)
        for rows, cols in ((30, 30), (4, 400), (25, 31), (70, 71)):
            g = _grid(rows, cols)
            _check_solve(g, MatchingState(g.n))
            g = _named(g, rng)
            _check_solve(g, MatchingState(g.n))
            _check_solve(g, greedy_matching(g, rows, 0.5))

    def test_near_trees(self) -> None:
        rng = random.Random(7)
        for n in (1000, 6000, 20000):
            g = _near_tree(n, rng)
            assert _check_solve(g, MatchingState(n)) > 5
            _check_solve(g, greedy_matching(g, n, 0.5))

    def test_large_random(self) -> None:
        rng = random.Random(8)
        for a, b, m in ((1000, 1000, 2000), (3000, 2000, 9000), (5000, 5000, 15000)):
            edges = {(rng.randrange(a), a + rng.randrange(b)) for _ in range(m)}
            g = _named(Graph.from_edges(a + b, sorted(edges)), rng)
            assert _check_solve(g, MatchingState(g.n)) > 3

    def test_dense_complete_bipartite(self) -> None:
        rng = random.Random(9)
        for k in (1, 2, 3, 40, 120):
            g, m = _dense_with_pendants(k)
            assert _check_solve(g, m) == 2
            _check_solve(g, MatchingState(g.n))
            _check_solve(_named(g, rng), MatchingState(g.n))

    def test_dense_removal_costs_what_min_costs(self, monkeypatch) -> None:
        # Removal tests each edge of a removed vertex for a successor in
        # O(1), and MIN scans those same edges once, so on the dense phase
        # the two cost about alike.  A test that searched preds[z] would
        # read k/2 entries per edge, several times MIN's cost at k = 400.
        g, m = _dense_with_pendants(400)
        spent: dict[str, float] = {}

        def timed(owner, name: str) -> None:
            inner = getattr(owner, name)

            def call(*args):
                t0 = time.perf_counter()
                inner(*args)
                spent[name] = spent.get(name, 0.0) + time.perf_counter() - t0

            monkeypatch.setattr(owner, name, call)

        timed(paths, "recursive_remove")
        timed(phase, "min_step")
        ratios = []
        for _ in range(3):
            spent.clear()
            assert len(phase.run_phase(g, m).paths) == 400
            ratios.append(spent["recursive_remove"] / spent["min_step"])
        assert statistics.median(ratios) < 3.0, ratios
