"""Tests for the top-level maximum-matching driver."""

from __future__ import annotations

import gc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvmatching.graph import (
    Graph,
    MatchingState,
    generate_random_graph,
    parse_dimacs,
    parse_matching,
    serialize_dimacs,
    serialize_matching,
    validate_matching,
)
from mvmatching.oracle import brute_max_matching, greedy_matching
from mvmatching.phase import run_phase
from mvmatching.solver import karp_sipser, maximum_matching, two_free_in_one_component

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


def _reference_karp_sipser(g: Graph) -> tuple[MatchingState, int]:
    """Karp and Sipser's seed from its definition, in O(n * m) time, with
    the solver's choices; returns the matching and its greedy picks.

    While some free vertex has exactly one free neighbour, match the two,
    taking first the vertex left with one last: at the start the
    highest-numbered, and after a pair (u, v) the one reached last in a
    walk of u's neighbours, then v's.  When none has, match the first
    edge of `g.edges` whose ends are both free, a greedy pick.
    """
    m = MatchingState(g.n)
    partner = m.partner

    def free_degree(v: int) -> int:
        return sum(partner[w] is None for w in g.adj[v])

    pendant = [v for v in range(g.n) if free_degree(v) == 1]  # oldest first
    picks = 0
    while True:
        pendant = [v for v in pendant if partner[v] is None and free_degree(v) == 1]
        if pendant:
            u = pendant.pop()
            (v,) = [w for w in g.adj[u] if partner[w] is None]
        else:
            pair = next(((a, b) for a, b in g.edges if partner[a] is None and partner[b] is None), None)
            if pair is None:
                return m, picks
            u, v = pair
            picks += 1
        before = [free_degree(w) for w in range(g.n)]
        partner[u], partner[v] = v, u
        walk = g.adj[u] + g.adj[v]
        last = {w: k for k, w in enumerate(walk) if partner[w] is None and free_degree(w) == 1 < before[w]}
        pendant += sorted(last, key=last.__getitem__)


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
    """With no start given, the seed is `karp_sipser`: the degree-1 rule,
    with a greedy pick whenever it runs out.  A seed made with no greedy
    pick is returned as maximum; a given start is used as it is."""

    def _check_seed(self, g: Graph) -> int:
        """The seed is the reference Karp-Sipser, and the solve from it is
        the solve from the reference's matching; returns the picks."""
        seed, picks = karp_sipser(g)
        assert (seed, picks) == _reference_karp_sipser(g)
        seeded: list[str] = []
        m, phases = maximum_matching(g, trace=seeded.append)
        if picks:
            given_seed: list[str] = []
            assert (m, phases) == maximum_matching(g, seed, trace=given_seed.append)
            assert seeded == given_seed
        else:
            assert (m, phases, seeded) == (seed, 1, [])
        return picks

    @PROPERTY_SETTINGS
    @given(forest=_forest())
    def test_forest_solves_in_one_phase(self, forest: tuple[Graph, int]) -> None:
        g, optimum = forest
        assert self._check_seed(g) == 0
        lines: list[str] = []
        m, phases = maximum_matching(g, trace=lines.append)
        assert validate_matching(g, m) == []
        assert (m.size(), phases) == (optimum, 1)
        assert not any(line.startswith("level ") for line in lines)

    @pytest.mark.parametrize(
        "g",
        [Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]) for n in (3, 4, 7, 30)]
        + [support.k4(), support.petersen(), support.barbell()],
        ids=["c3", "c4", "c7", "c30", "k4", "petersen", "barbell"],
    )
    def test_pendant_free_seed_is_the_greedy_pass(self, g: Graph) -> None:
        # No vertex has degree 1, so the seed opens with a greedy pick.
        assert self._check_seed(g) > 0

    @PROPERTY_SETTINGS
    @given(
        n=st.integers(min_value=0, max_value=30),
        frac=st.floats(min_value=0.0, max_value=0.3),
        seed=_SEED,
    )
    def test_seed_is_the_reference_karp_sipser(self, n: int, frac: float, seed: int) -> None:
        self._check_seed(generate_random_graph(n, int(frac * (n * (n - 1) // 2)), seed))

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
        start = greedy_matching(g, seed)
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
        self._check(g, greedy_matching(g, seed, accept))
        self._check(g, maximum_matching(g)[0])

    @pytest.mark.parametrize(
        "sizes, unmatched, answer",
        [
            ([19, 1, 1, 1], 0, False),
            ([20, 1, 1], 0, False),
            ([1, 1, 1], 0, False),
            ([19, 1, 1], 1, True),
        ],
        ids=["odd-giant", "even-giant", "all-isolated", "giant-with-three-free"],
    )
    def test_isolated_free_vertices(self, sizes: list[int], unmatched: int, answer: bool) -> None:
        # A free vertex of degree 0 is a component by itself, whatever the
        # free vertices elsewhere.
        g, m = support.planted_components(sizes, 6, seed=7)
        for u, v in m.pairs()[:unmatched]:
            m.partner[u] = m.partner[v] = None
        assert self._check(g, m) == answer

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


class TestGcPause:
    """`maximum_matching` runs with cyclic GC paused and runs one young
    collection on exit, by a return or by an error; a caller's own pause
    is kept, with no collection."""

    def test_paused_then_restored(self) -> None:
        g, m = support.nested_blossoms(3)
        enabled: list[bool] = []
        with support.gc_collections() as collections:
            matching, _ = maximum_matching(g, m, trace=lambda line: enabled.append(gc.isenabled()))
        assert enabled and not any(enabled)
        assert gc.isenabled()
        assert collections == [0]
        assert matching.size() == m.size() + 1

    def test_restored_after_invalid_start(self) -> None:
        g, _ = support.p4()
        with support.gc_collections() as collections:
            with pytest.raises(ValueError, match="invalid starting matching"):
                maximum_matching(g, MatchingState(4, [(0, 2)]))
        assert gc.isenabled()
        assert collections == [0]

    def test_caller_pause_is_kept(self) -> None:
        g, _ = support.p4()
        gc.disable()
        try:
            with support.gc_collections() as collections:
                maximum_matching(g)
                with pytest.raises(ValueError, match="invalid starting matching"):
                    maximum_matching(g, MatchingState(4, [(0, 2)]))
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert collections == []


class TestNoCycles:
    """The pause rests on the parse and the solve making no reference
    cycles: with GC off throughout, a full collection afterwards finds
    nothing to free, so no memory waits on the collector."""

    @pytest.mark.parametrize("case", ["random", "nested_blossoms"])
    def test_parse_and_solve_leave_no_cycles(self, case: str) -> None:
        if case == "random":
            g, start = generate_random_graph(400, 1_200, seed=11), None
        else:
            g, start = support.nested_blossoms(6)
        text = serialize_dimacs(g)
        lines: list[str] = []
        gc.collect()
        gc.disable()
        try:
            parsed = parse_dimacs(text)
            matching, _ = maximum_matching(parsed, start)
            maximum_matching(parsed, start, trace=lines.append)
            parse_matching(serialize_matching(matching), g.n)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert parsed == g
        assert unreachable == 0
