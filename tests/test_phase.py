"""Tests for the phase engine: MIN/MAX levels, bridges, petals, bud*."""

from __future__ import annotations

import math
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvmatching import paths, phase
from mvmatching.ddfs import GREEN, RED
from mvmatching.graph import Graph, MatchingState, augment_in_place, generate_random_graph
from mvmatching.oracle import brute_support, compute_profile
from mvmatching.phase import (
    UNSET,
    PhaseState,
    bridge_side,
    bud_star,
    init_phase,
    max_step,
    min_step,
    run_phase,
)
from mvmatching.solver import maximum_matching

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
    n = draw(st.integers(min_value=1, max_value=10))
    m = draw(st.integers(min_value=0, max_value=n * (n - 1) // 2))
    g = generate_random_graph(n, m, draw(_SEED))
    return g, support.greedy_matching(g, draw(_SEED))


class TestInitPhase:
    def test_k4_empty_matching(self) -> None:
        g = support.k4()
        s = init_phase(g, MatchingState(4))
        assert s.evenlevel == [0, 0, 0, 0]
        assert s.oddlevel == [UNSET] * 4

    def test_p4_middle_edge(self) -> None:
        g, m = support.p4()
        s = init_phase(g, m)
        assert s.evenlevel == [0, UNSET, UNSET, 0]
        assert s.oddlevel == [UNSET] * 4

    def test_perfectly_matched_k2_terminates_immediately(self) -> None:
        g = Graph.from_edges(2, [(0, 1)])
        lines: list[str] = []
        s = run_phase(g, MatchingState(2, [(0, 1)]), trace=lines.append)
        assert s.paths == []
        assert s.l_m == UNSET
        assert [line for line in lines if line.startswith("level ")] == ["level 0"]


class TestMinStep:
    def test_p4_level_0_assigns_minlevel_1(self) -> None:
        g, m = support.p4()
        s = init_phase(g, m)
        min_step(s, 0)
        assert s.oddlevel[1] == 1 and s.oddlevel[2] == 1
        assert (s.preds[1], s.preds[2]) == ([0], [3])
        # The free ends' even scans have started, and nothing else.
        assert list(s.scanned) == [1, 0, 0, 1]
        for u, v in ((0, 1), (2, 3)):
            assert support.classified(s, u, v) and support.is_prop(s, u, v)
        assert not support.classified(s, 1, 2)

    def test_p4_level_1_files_matched_bridge(self) -> None:
        g, m = support.p4()
        s = init_phase(g, m)
        min_step(s, 0)
        min_step(s, 1)
        # 1's odd scan classified the matched edge, so 2's skipped it.
        assert list(s.scanned) == [1, 2, 2, 1]
        assert support.classified(s, 1, 2) and not support.is_prop(s, 1, 2)
        assert s.br[3] == [1, 2]

    def test_triangle_matched_bridge(self) -> None:
        g, m = support.triangle()
        s = init_phase(g, m)
        min_step(s, 0)
        min_step(s, 1)
        assert support.classified(s, 1, 2) and not support.is_prop(s, 1, 2)
        assert s.br[3] == [1, 2]


def _stepped_phase(g: Graph, m: MatchingState) -> tuple[PhaseState, list[str], int]:
    """Run one phase level by level, as `run_phase` does, and check the
    scan rule `min_step` rests on before and after each MIN: each vertex
    starts at most one even and one odd scan, `scanned` marks exactly the
    scans started, and a matched vertex's matched edge is classified
    before its even scan starts.  Returns the finished state, each break
    of the rule, and how many even scans of matched vertices were met."""
    s = init_phase(g, m)
    started = bytearray(g.n)
    faults: list[str] = []
    matched_even = 0
    for i in range(2 * g.n + 5):
        bit = 2 if i % 2 else 1
        for u in list(s.schedule.get(i, ())):
            if started[u] & bit:
                faults.append(f"{u} starts a second scan of parity {i % 2} at level {i}")
            started[u] |= bit
            p = m.partner[u]
            if bit == 1 and p is not None:
                matched_even += 1
                if not support.classified(s, u, p):
                    faults.append(f"({u}, {p}) unclassified at {u}'s even scan, level {i}")
        min_step(s, i)
        if s.scanned != started:
            faults.append(f"marks {list(s.scanned)} after level {i}, scans {list(started)}")
        max_step(s, i)
        if s.paths or not (s.schedule or s.br):
            break
    return s, faults, matched_even


class TestScanMarks:
    @PROPERTY_SETTINGS
    @given(inst=_small_instance())
    def test_each_phase_of_a_solve(self, inst: tuple[Graph, MatchingState]) -> None:
        g, m = inst
        m = m.copy()
        while True:
            s, faults, _ = _stepped_phase(g, m)
            assert faults == []
            assert s.paths == run_phase(g, m).paths
            if not s.paths:
                return
            for path in s.paths:
                augment_in_place(m, g, path)

    def test_every_small_graph_from_every_matching(self) -> None:
        # The n <= 5 pairs of tests/test_exhaustive.py.
        matched_even = 0
        for g, m in support.small_instances(5):
            _, faults, k = _stepped_phase(g, m)
            assert faults == [], (g.edges, m.pairs())
            matched_even += k
        assert matched_even > 10_000


class TestMaxStep:
    def test_triangle_petal(self) -> None:
        g, m = support.triangle()
        s = init_phase(g, m)
        for i in range(2):
            min_step(s, i)
            max_step(s, i)
        assert len(s.petals) == 1
        petal = s.petals[0]
        assert petal.bud == 0
        assert support.petal_members(s) == [{1, 2}]
        # Red roots at 1 and green at 2; both reach the bud in one step.
        assert (s.color[1], s.color[2]) == (RED, GREEN)
        assert s.tree_parent[1] is None and s.tree_parent[2] is None
        assert petal.bud_parent == (1, 2)
        assert s.evenlevel[1] == s.evenlevel[2] == 2  # maxlevels 2i+1 - 1

    def test_p4_two_paths(self) -> None:
        g, m = support.p4()
        s = init_phase(g, m)
        for i in range(2):
            min_step(s, i)
            max_step(s, i)
        assert s.l_m == 3
        assert s.paths in ([[0, 1, 2, 3]], [[3, 2, 1, 0]])


class TestDeferredBridge:
    def test_tenacity_known_only_after_petal(self) -> None:
        g, m = support.deferred_bridge_graph()
        s = init_phase(g, m)
        for i in range(3):
            min_step(s, i)
        # Scanned at level 2 but vertex 1's evenlevel is still unknown:
        # classified bridge, waiting under 1 as its other end, not yet
        # filed.
        assert support.classified(s, 1, 6) and not support.is_prop(s, 1, 6)
        assert s.waiting[1] == [6]
        assert s.evenlevel[1] == UNSET
        assert (1, 6) not in support.queued_bridges(s)
        max_step(s, 2)  # forms the cycle petal, evenlevel(1) = 4
        assert s.evenlevel[1] == 4
        assert not support.is_prop(s, 1, 6) and 1 not in s.waiting
        assert s.br[7] == [1, 6]

    def test_full_phase_finds_length_7_path(self) -> None:
        g, m = support.deferred_bridge_graph()
        s = run_phase(g, m)
        assert s.l_m == 7
        assert len(s.paths) == 1
        assert sorted(s.paths[0]) == list(range(8))


class TestBudStar:
    def test_identity_without_petal(self) -> None:
        g, m = support.p4()
        s = init_phase(g, m)
        assert bud_star(s, 2) == 2

    def test_triangle_single_petal(self) -> None:
        g, m = support.triangle()
        s = run_phase(g, m)
        assert bud_star(s, 1) == 0
        assert bud_star(s, 2) == 0

    def test_two_step_chain(self) -> None:
        # Outer blossom's bud chain passes through the inner blossom.
        g, m = support.nested_blossom_graph()
        s = run_phase(g, m)
        assert s.jump[3] in (0, 1, 2)  # direct bud of the second petal
        assert bud_star(s, 3) == 0
        assert bud_star(s, 4) == 0
        assert bud_star(s, 1) == 0

    def test_compression_keeps_roots(self) -> None:
        g, m = support.empty_support_graph()
        s = run_phase(g, m)
        first = [bud_star(s, v) for v in range(g.n)]
        second = [bud_star(s, v) for v in range(g.n)]
        assert first == second


class TestLayeredAdapter:
    def test_unmatched_vertex_is_layer_0_sink(self) -> None:
        g, m = support.triangle()
        s = init_phase(g, m)
        min_step(s, 0)
        assert s.layer(0) == 0
        assert s.out_edges(0) == []

    def test_prepetal_out_edges_follow_props(self) -> None:
        g, m = support.triangle()
        s = init_phase(g, m)
        min_step(s, 0)
        assert s.out_edges(1) == [0]
        assert s.out_edges(2) == [0]

    def test_edges_into_petal_map_to_bud(self) -> None:
        # The triangle {1, 2} becomes a petal with bud 0 at level 1; vertex
        # 3 then gets its minlevel from 2, a prop edge into the petal.
        g, m = support.nested_blossom_graph()
        s = init_phase(g, m)
        for i in range(2):
            min_step(s, i)
            max_step(s, i)
        min_step(s, 2)
        assert s.preds[3] == [2]
        assert s.out_edges(3) == [0]


def _stranded(s: PhaseState, pid: int) -> list[int]:
    """Members of petal `pid` with no live predecessor whose bud chain, as
    of the petal, stops in it or at its bud."""
    bud = s.petals[pid].bud
    out = []
    for w in sorted(support.petal_members(s)[pid]):
        anchors = [paths._anchor(s, p, pid) for p in s.preds[w] if not s.removed[p]]
        if not any(y == bud or s.petal_of[y] == pid for y in anchors):
            out.append(w)
    return out


class TestPetalInvariant:
    def test_live_bud_keeps_petal_live_and_walkable(self, monkeypatch) -> None:
        # The invariant stated at `paths.recursive_remove`: a new petal's
        # members each have a live predecessor whose bud chain stops in
        # the petal or at its bud, and while the bud is live every member
        # stays live and keeps such a predecessor.
        form, remove = phase._form_petal, paths.recursive_remove
        seen = {"petals": 0, "kept": 0}

        def checked_form(s: PhaseState, bridge, outcome, i: int) -> None:
            form(s, bridge, outcome, i)
            assert _stranded(s, len(s.petals) - 1) == []
            seen["petals"] += 1

        def checked_remove(s: PhaseState, seed: set[int]) -> None:
            remove(s, seed)
            members = support.petal_members(s)
            for pid, petal in enumerate(s.petals):
                if s.removed[petal.bud]:
                    continue
                assert not any(s.removed[w] for w in members[pid]), petal
                assert _stranded(s, pid) == []
                seen["kept"] += 1

        monkeypatch.setattr(phase, "_form_petal", checked_form)
        monkeypatch.setattr(paths, "recursive_remove", checked_remove)
        rng = random.Random(14014)
        for k in range(300):
            n = rng.randint(2, 40)
            edges = rng.randint(0, min(n * (n - 1) // 2, 3 * n))
            g = generate_random_graph(n, edges, rng.randrange(2**32))
            accept = (0.0, 0.7, 0.4)[k % 3]
            m, _ = maximum_matching(g, support.greedy_matching(g, k, accept))
            # The solver runs no search to certify a matching that leaves
            # at most one free vertex in each component, so the final
            # matching's certifying phase is run here.
            run_phase(g, m)
        # Most petals form in certifying phases, which remove nothing: a
        # petal with a live bud after a removal is rare on these graphs.
        assert seen["petals"] > 500
        assert seen["kept"] > 5


class TestRunPhase:
    def test_p4(self) -> None:
        g, m = support.p4()
        s = run_phase(g, m)
        assert s.l_m == 3
        assert len(s.paths) == 1

    def test_triangle_no_paths(self) -> None:
        g, m = support.triangle()
        s = run_phase(g, m)
        assert s.paths == []
        assert s.l_m == UNSET

    def test_two_disjoint_edges_lm_1(self) -> None:
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        s = run_phase(g, MatchingState(4))
        assert s.l_m == 1
        assert len(s.paths) == 2

    def test_two_bridges_single_path(self) -> None:
        g, m = support.two_bridges_graph()
        s = run_phase(g, m)
        assert s.l_m == 7
        assert len(s.paths) == 1
        path = s.paths[0]
        assert path in ([0, 1, 2, 7, 8, 10, 9, 11], [11, 9, 10, 8, 7, 2, 1, 0])
        # The first bridge bottlenecked into a petal with bud 0.
        assert any(p.bud == 0 for p in s.petals)

    def test_empty_support_bridge_skipped(self) -> None:
        g, m = support.empty_support_graph()
        lines: list[str] = []
        s = run_phase(g, m, trace=lines.append)
        assert s.paths == []
        assert s.l_m == UNSET
        # The tenacity-13 bridge was filed and its level 6 reached, but its
        # roots coincide at the bud, so no petal and no path came of it.
        filed = {(u, v): (t, level) for u, v, t, level in support.filed_bridges(lines)}
        t, level = filed[(1, 4)]
        assert t == 13 and level <= 6
        assert "level 6" in lines
        assert len(s.petals) == 1


class TestSynchronizationSafety:
    @PROPERTY_SETTINGS
    @given(inst=_small_instance())
    def test_bridges_processed_at_their_own_level(
        self, inst: tuple[Graph, MatchingState]
    ) -> None:
        g, m = inst
        lines: list[str] = []
        s = run_phase(g, m, trace=lines.append)
        filed = support.filed_bridges(lines)
        assert len({(u, v) for u, v, _, _ in filed}) == len(filed)
        for u, v, t, level in filed:
            # Filed no later than the level that drains Br(t), at the
            # tenacity its final levels give.
            assert t % 2 == 1 and level <= (t - 1) // 2
            side = bridge_side(s, u, v)
            assert t == side[u] + side[v] + 1


class TestPredsFollowReach:
    def test_preds_are_the_prop_tails_of_reached_vertices(self) -> None:
        # After every phase of a solve: a vertex that no prop reaches
        # holds no list of its own; for each classified edge (u, v), u is in
        # preds[v] exactly when u's level on the edge's side is one below
        # v's minlevel, the rule by which MIN makes (u, v) a prop; the
        # lists hold one entry per prop, so no tail repeats; and every
        # traced bridge names its smaller end first, at the tenacity its
        # `bridge_side` levels give.  Dense odd graphs make blossom-heavy
        # phases.
        rng = random.Random(17171)
        instances = [support.triangle_chain(30), support.nested_blossoms(6)]
        for k in range(240):
            n = rng.randint(2, 40) | (k % 2)
            cap = n * (n - 1) // 2
            edges = rng.randint(0, min(cap, 3 * n)) if k % 3 else rng.randint(cap // 4, cap // 2)
            g = generate_random_graph(n, edges, rng.randrange(2**32))
            instances.append((g, MatchingState(n) if k % 2 else support.greedy_matching(g, k)))
        reached = unreached = props = bridges = filed = petals = 0
        for g, m in instances:
            for s, lines in support.solve_phases(g, m):
                lists = [p for p in s.preds if type(p) is list]
                assert len({id(p) for p in lists}) == len(lists)
                heads = set()
                phase_props = props
                for u, v in g.edges:
                    if not support.classified(s, u, v):
                        continue
                    side = bridge_side(s, u, v)
                    for a, b in ((u, v), (v, u)):
                        assert (a in s.preds[b]) == (side[a] + 1 == s.minlevel(b)), (a, b)
                    if support.is_prop(s, u, v):
                        heads.add(u if v in s.preds[u] else v)
                        props += 1
                    else:
                        bridges += 1
                assert sum(len(p) for p in lists) == props - phase_props
                for v in range(g.n):
                    if v in heads:
                        assert type(s.preds[v]) is list and s.preds[v], v
                        reached += 1
                    else:
                        assert s.preds[v] == () and type(s.preds[v]) is tuple, v
                        unreached += 1
                for a, b, t, _ in support.filed_bridges(lines):
                    side = bridge_side(s, a, b)
                    assert a < b and t == side[a] + side[b] + 1, (a, b, t)
                    filed += 1
                petals += len(s.petals)
        assert min(reached, unreached, props, bridges, filed) > 1000 and petals > 1000


class TestLevelsAreInts:
    @PROPERTY_SETTINGS
    @given(inst=_small_instance())
    def test_finished_phases_hold_int_levels(
        self, inst: tuple[Graph, MatchingState]
    ) -> None:
        g, m = inst
        final, _ = maximum_matching(g, m)
        # The phase on the given matching and the certifying phase.
        for start in (m, final):
            s = run_phase(g, start)
            assert isinstance(s, PhaseState) and s.g is g and s.m is start
            assert all(type(x) is int for x in s.evenlevel + s.oddlevel)
            assert type(s.l_m) is int
            # Paths are plain vertex lists of l_m edges; l_m is UNSET
            # exactly when the phase found none.
            assert (s.l_m == UNSET) == (s.paths == [])
            for path in s.paths:
                assert type(path) is list and all(type(v) is int for v in path)
                assert len(path) - 1 == s.l_m


class TestEachBridgeFiledOnce:
    def test_one_bridge_line_per_filed_bridge(self) -> None:
        # In every phase of a solve no edge is filed twice, and every
        # bridge whose final tenacity is finite and at most l_m (any
        # finite tenacity in the certifying phase) is filed exactly once.
        # MIN files every bridge it classifies and MAX only retries the
        # waiting ones, which rests on two more facts checked here:
        # - l_m rises strictly from phase to phase, so each phase's path
        #   set is maximal (Hopcroft-Karp), checked beyond the oracle's
        #   n <= 14;
        # - in the certifying phase, where nothing is removed, MIN
        #   reaches every edge: each non-prop whose two relevant end
        #   levels are finite is a bridge, filed exactly once.
        rng = random.Random(9009)
        at_inner = 0  # filed unmatched bridges with an inner end
        rises = 0  # phases with paths after the first of their solve
        certified = 0  # non-props checked in certifying phases
        for k in range(300):
            n = rng.randint(2, 40)
            edges = rng.randint(0, min(n * (n - 1) // 2, 4 * n))
            g = generate_random_graph(n, edges, rng.randrange(2**32))
            m = MatchingState(n) if k % 2 else support.greedy_matching(g, k)
            last_lm = 0
            while True:
                lines: list[str] = []
                s = run_phase(g, m, trace=lines.append)
                filed = [(u, v) for u, v, _, _ in support.filed_bridges(lines)]
                assert len(set(filed)) == len(filed), k
                for u, v in filed:
                    if m.partner[u] != v and any(s.oddlevel[x] < s.evenlevel[x] for x in (u, v)):
                        at_inner += 1
                for u, v in g.edges:
                    # A bridge is a classified edge that is no prop.
                    if not support.classified(s, u, v) or support.is_prop(s, u, v):
                        continue
                    side = bridge_side(s, u, v)
                    # An UNSET end makes the tenacity exceed UNSET >= l_m.
                    if side[u] + side[v] + 1 <= s.l_m:
                        assert (u, v) in filed, (k, u, v)
                if not s.paths:
                    assert not any(s.removed), k
                    for u, v in g.edges:
                        side = bridge_side(s, u, v)
                        if support.is_prop(s, u, v) or UNSET in (side[u], side[v]):
                            continue
                        assert support.classified(s, u, v), (k, u, v)
                        assert filed.count((u, v)) == 1, (k, u, v)
                        certified += 1
                    break
                assert s.l_m > last_lm, (k, last_lm, s.l_m)
                rises += last_lm > 0
                last_lm = s.l_m
                for path in s.paths:
                    augment_in_place(m, g, path)
        assert at_inner > 1000
        assert rises > 120
        assert certified > 2000


class TestFilingStopsAtLm:
    def test_no_bridge_above_lm_after_first_path(self) -> None:
        # Once a phase has found a path of length l_m it ends at that
        # level, so a bridge of higher tenacity is never filed after it,
        # and MIN, which runs before MAX at each level, never runs after
        # a removal: no `minlevel` line and no `level` line follow the
        # phase's first path until the next phase's `level 0`.
        rng = random.Random(6006)
        phases_with_paths = 0
        for k in range(300):
            n = rng.randint(2, 40)
            edges = rng.randint(0, min(n * (n - 1) // 2, 4 * n))
            g = generate_random_graph(n, edges, rng.randrange(2**32))
            start = MatchingState(n) if k % 2 else None
            lines: list[str] = []
            maximum_matching(g, start, trace=lines.append)
            l_m = None
            for line in lines:
                words = line.split()
                if words[:2] == ["level", "0"]:
                    l_m = None
                elif words[0] == "path" and l_m is None:
                    l_m = len(words[1].split("-")) - 1
                    phases_with_paths += 1
                elif words[0] == "bridge" and l_m is not None:
                    assert int(words[4]) <= l_m, (k, line)
                elif words[0] in ("level", "minlevel"):
                    assert l_m is None, (k, line)
        assert phases_with_paths > 300


class TestEngineAgainstOracle:
    @PROPERTY_SETTINGS
    @given(inst=_small_instance())
    def test_levels_and_lm(self, inst: tuple[Graph, MatchingState]) -> None:
        g, m = inst
        profile = compute_profile(g, m)
        s = run_phase(g, m)
        assert (s.l_m if s.paths else INF) == profile.l_m
        for v in range(g.n):
            if profile.tenacity[v] < profile.l_m:
                assert s.evenlevel[v] == profile.evenlevel[v]
                assert s.oddlevel[v] == profile.oddlevel[v]

    @PROPERTY_SETTINGS
    @given(inst=_small_instance())
    def test_bridge_sets_complete_below_lm(
        self, inst: tuple[Graph, MatchingState]
    ) -> None:
        g, m = inst
        profile = compute_profile(g, m)
        lines: list[str] = []
        run_phase(g, m, trace=lines.append)
        filed = support.filed_bridges(lines)
        for t in range(1, 2 * g.n, 2):
            if t >= profile.l_m:
                break
            oracle_set = {
                eid
                for eid in range(g.m)
                if profile.edge_class[eid] == "bridge"
                and profile.edge_tenacity[eid] == t
            }
            engine_set = {
                g.edges.index((u, v))
                for u, v, tenacity, level in filed
                if tenacity == t and level <= (t - 1) // 2
            }
            assert engine_set == oracle_set, t
            if oracle_set:
                assert f"level {(t - 1) // 2}" in lines, t

    @PROPERTY_SETTINGS
    @given(inst=_small_instance())
    def test_petal_classes_match_oracle_s_sets(
        self, inst: tuple[Graph, MatchingState]
    ) -> None:
        g, m = inst
        profile = compute_profile(g, m)
        s = run_phase(g, m)
        assert support.engine_base_classes(s, profile.l_m) == (
            support.oracle_base_classes(profile)
        )

    def test_petal_members_within_bridge_support(self) -> None:
        # Each petal member has a maxlevel path through the petal's bridge.
        # A member can be a strict subset of the support: a vertex with
        # such paths through two bridges joins only one of their petals.
        rng = random.Random(20261018)
        petals = 0
        for k in range(3000):
            n = rng.randint(2, 10)
            g = generate_random_graph(n, rng.randint(0, n * (n - 1) // 2), rng.randrange(2**32))
            m = support.greedy_matching(g, rng.randrange(2**32))
            s = run_phase(g, m)
            if not s.petals:
                continue
            profile = compute_profile(g, m)
            for petal, members in zip(s.petals, support.petal_members(s)):
                assert members <= brute_support(profile, g.edges.index(petal.bridge)), (k, petal)
                petals += 1
        assert petals > 1000

