"""Tests for the top-level maximum-matching driver."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvmatching.graph import (
    Graph,
    MatchingState,
    generate_random_graph,
    validate_matching,
)
from mvmatching.oracle import brute_max_matching
from mvmatching.phase import run_phase
from mvmatching.solver import degree_one_cascade, maximum_matching, two_free_in_one_component

import support

PROPERTY_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_SEED = st.integers(min_value=0, max_value=2**32 - 1)


class TestNamedGraphs:
    def test_petersen(self) -> None:
        m, _ = maximum_matching(support.petersen())
        assert m.size() == 5

    def test_c5(self) -> None:
        m, _ = maximum_matching(support.c5())
        assert m.size() == 2

    def test_k4(self) -> None:
        m, _ = maximum_matching(support.k4())
        assert m.size() == 2

    def test_empty_graph(self) -> None:
        m, phases = maximum_matching(Graph.from_edges(3, []))
        assert m.size() == 0
        assert phases == 1

    def test_deferred_bridge_graph_reaches_perfect_matching(self) -> None:
        g, m0 = support.deferred_bridge_graph()
        m, _ = maximum_matching(g, m0)
        assert m.size() == 4

    def test_supplied_matching_not_mutated(self) -> None:
        g, m0 = support.p4()
        before = m0.pairs()
        maximum_matching(g, m0)
        assert m0.pairs() == before


def _old_greedy(g: Graph) -> MatchingState:
    """The greedy pass alone: each edge in order whose ends are both free."""
    m = MatchingState(g.n)
    for u, v in g.edges:
        if not m.is_matched(u) and not m.is_matched(v):
            m.partner[u] = v
            m.partner[v] = u
    return m


@st.composite
def _forest(draw) -> tuple[Graph, int]:
    """A random forest with its maximum matching size: each vertex v > 0
    has a parent below v or none (a root, isolated if it gets no child);
    names and edge order are shuffled."""
    n = draw(st.integers(min_value=1, max_value=60))
    parent = [None] + [
        draw(st.one_of(st.none(), st.integers(min_value=0, max_value=v - 1)))
        for v in range(1, n)
    ]
    # Leaf to parent: match v to its parent when both are free; exact on
    # forests, as every child comes after its parent.
    matched = [False] * n
    optimum = 0
    for v in reversed(range(n)):
        p = parent[v]
        if p is not None and not matched[v] and not matched[p]:
            matched[v] = matched[p] = True
            optimum += 1
    name = draw(st.permutations(range(n)))
    edges = draw(st.permutations([(name[v], name[p]) for v, p in enumerate(parent) if p is not None]))
    return Graph.from_edges(n, edges), optimum


class TestDegreeOneSeed:
    """With no start given, the seed is the degree-1 cascade and then the
    greedy pass; a given start is used as it is."""

    @PROPERTY_SETTINGS
    @given(forest=_forest())
    def test_forest_solves_in_one_phase(self, forest: tuple[Graph, int]) -> None:
        g, optimum = forest
        assert degree_one_cascade(g).size() == optimum
        m, phases = maximum_matching(g)
        assert validate_matching(g, m) == []
        assert (m.size(), phases) == (optimum, 1)

    @pytest.mark.parametrize(
        "g",
        [Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]) for n in (3, 4, 7, 30)]
        + [support.k4(), support.petersen(), support.barbell()],
        ids=["c3", "c4", "c7", "c30", "k4", "petersen", "barbell"],
    )
    def test_pendant_free_seed_is_the_greedy_pass(self, g: Graph) -> None:
        assert degree_one_cascade(g).size() == 0
        seeded: list[str] = []
        given_greedy: list[str] = []
        m, phases = maximum_matching(g, trace=seeded.append)
        assert (m, phases) == maximum_matching(g, _old_greedy(g), trace=given_greedy.append)
        assert seeded == given_greedy

    def test_given_start_is_not_seeded(self) -> None:
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert maximum_matching(g)[1] == 1
        m, phases = maximum_matching(g, MatchingState(4))
        assert (m.size(), phases) == (2, 2)


class TestInvalidStart:
    """An invalid starting matching is refused up front with its first
    `validate_matching` fault, before any phase runs."""

    def test_non_edge_pair(self) -> None:
        g, _ = support.p4()  # path 0-1-2-3
        with pytest.raises(ValueError, match=r"\(0, 2\) is not a graph edge"):
            maximum_matching(g, MatchingState(4, [(0, 2)]))

    @pytest.mark.parametrize("n", [2, 12])
    def test_wrong_size(self, n: int) -> None:
        g = support.petersen()
        with pytest.raises(ValueError, match=f"covers {n} vertices but graph has 10"):
            maximum_matching(g, MatchingState(n))

    def test_asymmetric_partner(self) -> None:
        g, _ = support.p4()
        m = MatchingState(4)
        m.partner[1] = 2
        with pytest.raises(ValueError, match=r"asymmetry: partner\(1\) = 2"):
            maximum_matching(g, m)


class TestAgainstBruteForce:
    @PROPERTY_SETTINGS
    @given(
        n=st.integers(min_value=1, max_value=12),
        frac=st.floats(min_value=0.0, max_value=1.0),
        seed=_SEED,
    )
    def test_cardinality_is_exact(self, n: int, frac: float, seed: int) -> None:
        m_edges = int(frac * (n * (n - 1) // 2))
        g = generate_random_graph(n, m_edges, seed)
        engine, _ = maximum_matching(g)
        assert validate_matching(g, engine) == []
        assert engine.size() == brute_max_matching(g)[0]

    @PROPERTY_SETTINGS
    @given(
        n=st.integers(min_value=1, max_value=10),
        frac=st.floats(min_value=0.0, max_value=1.0),
        seed=_SEED,
    )
    def test_partial_start_reaches_same_cardinality(
        self, n: int, frac: float, seed: int
    ) -> None:
        m_edges = int(frac * (n * (n - 1) // 2))
        g = generate_random_graph(n, m_edges, seed)
        start = support.greedy_matching(g, seed)
        engine, _ = maximum_matching(g, start)
        assert validate_matching(g, engine) == []
        assert engine.size() == brute_max_matching(g)[0]


class TestComponentCheck:
    """`two_free_in_one_component` against a union-find count of the free
    vertices in each component, and what the solver skips by it."""

    def _check(self, g: Graph, m: MatchingState) -> bool:
        answer = two_free_in_one_component(g, m)
        assert answer == any(c >= 2 for c in support.free_per_component(g, m))
        if not answer:
            # Berge's lemma: no augmenting path, so the search finds none.
            assert run_phase(g, m).paths == []
        return answer

    @PROPERTY_SETTINGS
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=9), max_size=6),
        chords=st.integers(min_value=0, max_value=8),
        unmatched=st.integers(min_value=0, max_value=3),
        seed=_SEED,
    )
    def test_planted_components(
        self, sizes: list[int], chords: int, unmatched: int, seed: int
    ) -> None:
        g, m = support.planted_components(sizes, chords, seed)
        assert not self._check(g, m)
        for u, v in m.pairs()[:unmatched]:
            m.partner[u] = m.partner[v] = None
            self._check(g, m)

    @PROPERTY_SETTINGS
    @given(
        n=st.integers(min_value=0, max_value=30),
        frac=st.floats(min_value=0.0, max_value=0.3),
        accept=st.floats(min_value=0.0, max_value=1.0),
        seed=_SEED,
    )
    def test_random_graphs(self, n: int, frac: float, accept: float, seed: int) -> None:
        g = generate_random_graph(n, int(frac * (n * (n - 1) // 2)), seed)
        self._check(g, support.greedy_matching(g, seed, accept))
        self._check(g, maximum_matching(g)[0])

    def test_no_search_after_the_last_path(self) -> None:
        # Odd components solved from the empty matching: the solve ends
        # with one free vertex in each, so the certifying step runs no
        # search, and no `level` line (nor a petal of a later level)
        # follows the last path.  The phase count still includes it.
        for seed in range(20):
            g, planted = support.planted_components([5, 7, 9, 11], 6, seed)
            lines: list[str] = []
            m, phases = maximum_matching(g, MatchingState(g.n), trace=lines.append)
            assert m.size() == planted.size() == 14
            last = max(k for k, line in enumerate(lines) if line.startswith("path "))
            assert not any(line.startswith("level ") for line in lines[last:])
            assert phases == sum(line == "level 0" for line in lines) + 1
