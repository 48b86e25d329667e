"""Tests for the brute-force structural oracle."""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvmatching.graph import Graph, MatchingState, generate_random_graph, validate_matching
from mvmatching.oracle import (
    OracleGuardError,
    brute_blossoms,
    brute_levels,
    brute_max_matching,
    brute_support,
    check_structural_theorems,
    compute_profile,
    greedy_matching,
)

import support

INF = math.inf

PROPERTY_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_SEED = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def _small_instance(draw: st.DrawFn) -> tuple[Graph, MatchingState]:
    n = draw(st.integers(min_value=1, max_value=9))
    m = draw(st.integers(min_value=0, max_value=n * (n - 1) // 2))
    g = generate_random_graph(n, m, draw(_SEED))
    return g, greedy_matching(g, draw(_SEED))


class TestBruteLevels:
    def test_p4_levels(self) -> None:
        g, m = support.p4()
        even, odd = brute_levels(g, m)
        assert even == [0, 2, 2, 0]
        assert odd == [3, 1, 1, 3]

    def test_isolated_unmatched_vertex(self) -> None:
        g = Graph.from_edges(1, [])
        even, odd = brute_levels(g, MatchingState(1))
        assert (even[0], odd[0]) == (0, INF)

    def test_perfectly_matched_k2(self) -> None:
        g = Graph.from_edges(2, [(0, 1)])
        even, odd = brute_levels(g, MatchingState(2, [(0, 1)]))
        assert even == [INF, INF]
        assert odd == [INF, INF]

    def test_guard_trips(self) -> None:
        g = generate_random_graph(15, 10, 0)
        with pytest.raises(OracleGuardError):
            brute_levels(g, MatchingState(15))
        with pytest.raises(OracleGuardError):
            compute_profile(g, MatchingState(15))


class TestBruteMaxMatching:
    def test_petersen_has_perfect_matching(self) -> None:
        size, witness = brute_max_matching(support.petersen())
        assert size == 5
        assert witness.size() == 5
        assert validate_matching(support.petersen(), witness) == []

    def test_odd_cycle(self) -> None:
        assert brute_max_matching(support.c5())[0] == 2

    def test_k4(self) -> None:
        assert brute_max_matching(support.k4())[0] == 2

    def test_guard_trips(self) -> None:
        g = generate_random_graph(20, 40, 0)
        with pytest.raises(OracleGuardError):
            brute_max_matching(g)

    @PROPERTY_SETTINGS
    @given(inst=_small_instance())
    def test_witness_is_valid_and_has_reported_size(
        self, inst: tuple[Graph, MatchingState]
    ) -> None:
        g, _ = inst
        size, witness = brute_max_matching(g)
        assert witness.size() == size
        assert validate_matching(g, witness) == []


class TestMinAugmentingLength:
    def test_p4(self) -> None:
        g, m = support.p4()
        assert compute_profile(g, m).l_m == 3

    def test_triangle_single_unmatched(self) -> None:
        g, m = support.triangle()
        assert compute_profile(g, m).l_m == INF

    def test_empty_matching_with_edges(self) -> None:
        g, _ = support.p4()
        assert compute_profile(g, MatchingState(4)).l_m == 1


class TestBaseAndBlossoms:
    def test_triangle_petal_base(self) -> None:
        g, m = support.triangle()
        profile = compute_profile(g, m)
        for v in (1, 2):
            assert profile.base_sets[v] == frozenset({0})

    def test_p4_tenacity_lm_vertices_have_no_base(self) -> None:
        g, m = support.p4()
        profile = compute_profile(g, m)
        # Vertices 1 and 2 have tenacity 3 = l_m: outside eligibility.
        assert profile.l_m == 3
        for v in (1, 2):
            assert profile.tenacity[v] == 3
            assert v not in profile.base_sets

    def test_triangle_blossom_both_definitions(self) -> None:
        g, m = support.triangle()
        profile = compute_profile(g, m)
        rec, alt = profile.blossoms[(0, 3)]
        assert rec == alt == frozenset({1, 2})

    def test_tenacity_one_blossoms_are_empty(self) -> None:
        g, _ = support.p4()
        m = MatchingState(4)
        profile = compute_profile(g, m)
        blossoms = brute_blossoms(profile)
        for (_, t), (rec, _) in blossoms.items():
            if t == 1:
                assert rec == frozenset()

    def test_nested_blossoms_strictly_contained(self) -> None:
        g, m = support.nested_blossom_graph()
        profile = compute_profile(g, m)
        inner, inner_alt = profile.blossoms[(0, 3)]
        outer, outer_alt = profile.blossoms[(0, 7)]
        assert inner == inner_alt == frozenset({1, 2})
        assert outer == outer_alt == frozenset({1, 2, 3, 4})
        assert inner < outer


class TestBruteSupport:
    def test_triangle_bridge(self) -> None:
        g, m = support.triangle()
        profile = compute_profile(g, m)
        assert (1, 2) in g.edges and (1, 2) not in profile.props
        assert brute_support(profile, (1, 2)) == frozenset({1, 2})

    def test_p4_bridge_at_lm(self) -> None:
        g, m = support.p4()
        profile = compute_profile(g, m)
        assert (1, 2) in g.edges and (1, 2) not in profile.props
        assert profile.edge_tenacity(1, 2) == 3
        # All four vertices have tenacity 3 and their maxlevel path
        # 0-1-2-3 crosses the bridge.
        assert brute_support(profile, (1, 2)) == frozenset({0, 1, 2, 3})

    def test_empty_support_bridge(self) -> None:
        g, m = support.empty_support_graph()
        profile = compute_profile(g, m)
        assert (1, 4) in g.edges and (1, 4) not in profile.props
        assert profile.edge_tenacity(1, 4) == 13
        assert brute_support(profile, (1, 4)) == frozenset()

    @pytest.mark.parametrize(
        "make, bridge",
        [(support.triangle, (1, 2)), (support.p4, (1, 2)), (support.empty_support_graph, (1, 4))],
    )
    def test_ends_in_either_order(self, make, bridge: tuple[int, int]) -> None:
        # An edge is named by its ends, so (v, u) names the same bridge as
        # (u, v); an unsorted pair must not miss the sorted path edges.
        profile = compute_profile(*make())
        u, v = bridge
        assert brute_support(profile, (v, u)) == brute_support(profile, (u, v))
        assert profile.edge_tenacity(v, u) == profile.edge_tenacity(u, v)


class TestStructuralTheorems:
    def test_fixture_corpus_clean(self) -> None:
        fixtures = [
            support.p4(),
            support.triangle(),
            support.deferred_bridge_graph(),
            support.two_bridges_graph(),
            support.empty_support_graph(),
            support.nested_blossom_graph(),
        ]
        for g, m in fixtures:
            profile = compute_profile(g, m)
            assert check_structural_theorems(profile) == []

    def test_corrupted_profile_detected(self) -> None:
        g, m = support.triangle()
        profile = compute_profile(g, m)
        profile.base_sets[1] = frozenset({0, 2})  # negative control
        assert check_structural_theorems(profile) != []

    def test_p4_report_empty(self) -> None:
        g, m = support.p4()
        profile = compute_profile(g, m)
        assert check_structural_theorems(profile) == []

    @PROPERTY_SETTINGS
    @given(inst=_small_instance())
    def test_random_instances_clean(self, inst: tuple[Graph, MatchingState]) -> None:
        g, m = inst
        profile = compute_profile(g, m)
        assert check_structural_theorems(profile) == []


class TestProfileDeterminism:
    @PROPERTY_SETTINGS
    @given(inst=_small_instance())
    def test_repeated_calls_agree(self, inst: tuple[Graph, MatchingState]) -> None:
        g, m = inst
        a = compute_profile(g, m)
        b = compute_profile(g, m)
        assert a.evenlevel == b.evenlevel
        assert a.oddlevel == b.oddlevel
        assert a.props == b.props
        assert a.blossoms == b.blossoms


class TestProfileFields:
    def test_p4_fields(self) -> None:
        g, m = support.p4()
        profile = compute_profile(g, m)
        assert profile.evenlevel == [0, 2, 2, 0]
        assert profile.oddlevel == [3, 1, 1, 3]
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        assert profile.props == {(0, 1), (2, 3)}
        assert [profile.edge_tenacity(u, v) for u, v in g.edges] == [3, 3, 3]
        assert profile.min_paths[1] == {2: [[3, 2, 1]], 1: [[0, 1]]}

    def test_matched_k2_is_infinite(self) -> None:
        g = Graph.from_edges(2, [(0, 1)])
        profile = compute_profile(g, MatchingState(2, [(0, 1)]))
        assert profile.evenlevel == [INF, INF]
        assert profile.oddlevel == [INF, INF]
        assert profile.edge_tenacity(0, 1) == INF
