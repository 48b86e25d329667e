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
from mvmatching.solver import maximum_matching

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
