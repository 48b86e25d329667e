"""Tests for path extraction, petal opening, and vertex removal."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mvmatching
from mvmatching.graph import Graph, MatchingState, check_alternating, generate_random_graph
from mvmatching.graph import serialize_dimacs, serialize_matching
from mvmatching.oracle import compute_profile, greedy_matching
from mvmatching.ddfs import TwoPaths, run_ddfs
from mvmatching.paths import ExtractionError, _walk, extract_path, recursive_remove
from mvmatching.phase import (
    UNSET,
    PhaseState,
    init_phase,
    max_step,
    min_step,
    run_phase,
)

import support

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
    return g, greedy_matching(g, draw(_SEED))


def _triangle_state() -> PhaseState:
    g, m = support.triangle()
    s = init_phase(g, m)
    for i in range(2):
        min_step(s, i)
        max_step(s, i)
    return s


def descend(s: PhaseState, x: int, level: float, low: int) -> list[int]:
    """The walker's alternating path [x, ..., low] from x, entered at
    `level`, down its bud chain to `low`: one segment work item."""
    return _walk(s, [(x, level, low, len(s.petals), False), low])


class TestExtractPath:
    def test_p4_bridge_yields_unique_path(self) -> None:
        g, m = support.p4()
        s = run_phase(g, m)
        assert [sorted(p) for p in s.paths] == [[0, 1, 2, 3]]
        assert check_alternating(g, m, s.paths[0]) is None

    def test_length_one_case(self) -> None:
        g = Graph.from_edges(2, [(0, 1)])
        s = run_phase(g, MatchingState(2))
        assert s.l_m == 1
        assert [p for p in s.paths] in ([[0, 1]], [[1, 0]])

    def test_two_bridges_path_jumps_through_bud(self) -> None:
        g, m = support.two_bridges_graph()
        s = run_phase(g, m)
        assert len(s.paths) == 1
        path = s.paths[0]
        assert len(path) == 8
        assert check_alternating(g, m, path) is None
        assert not m.is_matched(path[0]) and not m.is_matched(path[-1])


class TestOpenPetal:
    def test_high_equals_low(self) -> None:
        s = _triangle_state()
        assert descend(s, 0, 0, 0) == [0]

    def test_triangle_odd_path_avoids_bridge(self) -> None:
        s = _triangle_state()
        assert descend(s, 1, s.oddlevel[1], 0) == [1, 0]

    def test_triangle_even_path_uses_bridge(self) -> None:
        s = _triangle_state()
        assert descend(s, 1, s.evenlevel[1], 0) == [1, 2, 0]

    def test_confinement_to_petal_members(self) -> None:
        g, m = support.deferred_bridge_graph()
        s = init_phase(g, m)
        for i in range(3):
            min_step(s, i)
            max_step(s, i)
        petal = s.petals[0]
        members = sorted(support.petal_members(s)[0])
        allowed = set(members) | {petal.bud}
        for v in members:
            for want in (s.evenlevel[v], s.oddlevel[v]):
                out = descend(s, v, want, petal.bud)
                assert set(out) <= allowed
                assert out[0] == v and out[-1] == petal.bud
                assert len(out) - 1 == want
                assert check_alternating(g, m, out) is None


def _p4_before_extraction() -> tuple[PhaseState, TwoPaths, tuple[int, int]]:
    """P4's phase at level 1, its one bridge and that bridge's TwoPaths
    outcome, before MAX extracts the path."""
    g, m = support.p4()
    s = init_phase(g, m)
    min_step(s, 0)
    max_step(s, 0)
    min_step(s, 1)
    bridge = tuple(s.br[3])
    assert bridge == (1, 2)
    outcome = run_ddfs(s, *bridge)
    assert isinstance(outcome, TwoPaths)
    return s, outcome, bridge


class TestExtractionFaults:
    """Each fault detector of path extraction fires on a corrupted state.
    The triangle's petal has bud 0, red member 1 and green member 2."""

    def test_intact_states_extract(self) -> None:
        s = _triangle_state()
        assert descend(s, 1, s.oddlevel[1], 0) == [1, 0]
        assert descend(s, 1, s.evenlevel[1], 0) == [1, 2, 0]
        s, outcome, bridge = _p4_before_extraction()
        assert extract_path(s, outcome, bridge) == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "level, emptied", [("odd", 1), ("even", 2)], ids=["outer_member", "tree_descent"]
    )
    def test_hop_without_predecessor(self, level: str, emptied: int) -> None:
        # Entered at its oddlevel, 1 hops straight to the bud; entered at
        # its evenlevel, it crosses the bridge and 2 hops to the bud.
        s = _triangle_state()
        entry = s.oddlevel[1] if level == "odd" else s.evenlevel[1]
        s.preds[emptied] = []
        with pytest.raises(ExtractionError, match=f"no predecessor of {emptied} reaches"):
            descend(s, 1, entry, 0)

    def test_bud_chain_misses(self) -> None:
        s = _triangle_state()
        s.petal_of[1] = None
        with pytest.raises(ExtractionError, match="bud chain of 1 misses 0"):
            descend(s, 1, s.oddlevel[1], 0)

    def test_entry_at_no_level(self) -> None:
        s = _triangle_state()
        entry = s.oddlevel[1]
        # Move the level, and the stored minlevel with it, so that the
        # state is consistent but has no level at the entry.
        s.oddlevel[1] = 3
        s.minlevels[1] = min(s.evenlevel[1], s.oddlevel[1])
        assert entry not in (s.minlevel(1), s.maxlevel(1))
        with pytest.raises(ExtractionError, match="vertex 1 has no level 1"):
            descend(s, 1, entry, 0)

    @pytest.mark.parametrize("fault", ["length", "free_end"])
    def test_path_check(self, fault: str) -> None:
        s, outcome, bridge = _p4_before_extraction()
        if fault == "length":
            s.oddlevel[1] = 3  # the bridge's tenacity now promises 5 edges
        else:
            s.m.partner[0], s.m.partner[3] = 3, 0
        with pytest.raises(ExtractionError, match="no augmenting path through bridge"):
            extract_path(s, outcome, bridge)


class TestRecursiveRemove:
    def test_p4_total_removal(self) -> None:
        g, m = support.p4()
        s = init_phase(g, m)
        for i in range(2):
            min_step(s, i)
        recursive_remove(s, {0, 1, 2, 3})
        assert all(s.removed)

    def test_pendant_matched_pair_cascades(self) -> None:
        # 0-1-2-3 with (2,3) matched dangling off the path via vertex 1
        # only: removing 0,1 starves 2, and 3 follows through the cascade.
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        m = MatchingState(4, [(2, 3)])
        s = init_phase(g, m)
        for i in range(4):
            min_step(s, i)
        recursive_remove(s, {0, 1})
        assert s.removed[2]

    def test_removal_follows_prop_edges_only(self) -> None:
        # 0-1=2-5=6-3 ('=' matched) with free 0, 3 and 4, and 4 hanging
        # off 0.  Props run 0 -> 1 -> 2 and 3 -> 6 -> 5; (2, 5) is not a
        # prop and (0, 4) joins two free vertices.  Removing 0 takes 1
        # and then 2, each losing its only predecessor, but neither 5
        # across (2, 5) nor 4.  Once l_m = 3 is known the cascade stops
        # at minlevel 1, so 2 stays.
        g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 5), (5, 6), (6, 3), (0, 4)])
        m = MatchingState(7, [(1, 2), (5, 6)])
        for l_m, gone in ((UNSET, [0, 1, 2]), (3, [0, 1])):
            s = init_phase(g, m)
            for i in range(2):
                min_step(s, i)
            s.l_m = l_m
            recursive_remove(s, {0})
            assert [v for v in range(g.n) if s.removed[v]] == gone, l_m

    def test_remaining_leveled_matched_vertices_keep_predecessors(self) -> None:
        # After each phase of a solve that finds paths, each live matched
        # vertex that has predecessors and lies at or below the cap keeps
        # a live one, and `pred_gone` counts exactly its removed ones.  (In
        # the two-bridge graph every vertex goes, so random graphs supply
        # the cases.)
        rng = random.Random(20317)
        instances = [support.two_bridges_graph()]
        for k in range(300):
            n = rng.randint(2, 60)
            edges = rng.randint(0, min(n * (n - 1) // 2, 3 * n))
            g = generate_random_graph(n, edges, rng.randrange(2**32))
            instances.append((g, greedy_matching(g, k, (0.0, 0.7, 0.4)[k % 3])))
        checked = partly_gone = 0
        for g, m in instances:
            for s, _ in support.solve_phases(g, m):
                if not s.paths:
                    continue
                top = (s.l_m - 1) // 2
                for v in range(g.n):
                    if s.removed[v] or not s.m.is_matched(v) or s.minlevel(v) > top:
                        continue
                    gone = sum(s.removed[p] for p in s.preds[v])
                    assert s.pred_gone.get(v, 0) == gone < len(s.preds[v]), v
                    checked += 1
                    partly_gone += gone > 0
        assert checked > 1000 and partly_gone > 150


def _uncapped_removal(s: PhaseState, seeds: set[int]) -> set[int]:
    """The vertices the cascade removes with no cap: the seeds, then, in
    minlevel order, every vertex with predecessors once all are gone."""
    gone = set(seeds)
    for z in sorted(range(s.g.n), key=s.minlevel):
        if z not in gone and s.preds[z] and gone.issuperset(s.preds[z]):
            gone.add(z)
    return gone


def _check_removal_cap(s: PhaseState) -> set[int]:
    """After a phase whose paths have length l_m = 2i+1, no vertex of
    minlevel above i is removed, and removal at minlevel <= i is the
    uncapped cascade from the path vertices.  Returns that cascade."""
    top = (s.l_m - 1) // 2
    uncapped = _uncapped_removal(s, {v for p in s.paths for v in p})
    for v in range(s.g.n):
        if s.minlevel(v) > top:
            assert not s.removed[v], v
        else:
            assert s.removed[v] == (v in uncapped), v
    return uncapped


class TestRemovalCap:
    def test_no_removal_above_last_level(self) -> None:
        # Path 0-1=2-3 plus the matched arm 0-5=4.  The phase's path
        # 0-1-2-3 has l_m = 3, so i = 1: 5 (minlevel 1) loses its only
        # predecessor 0 and goes, but 4 (minlevel 2) stays, though the
        # uncapped cascade would take it through 5.
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 5), (5, 4)])
        m = MatchingState(6, [(1, 2), (5, 4)])
        s = run_phase(g, m)
        assert s.l_m == 3
        uncapped = _check_removal_cap(s)
        assert s.removed[5] and not s.removed[4]
        assert 4 in uncapped

    @PROPERTY_SETTINGS
    @given(inst=_small_instance())
    def test_removal_capped_at_last_level(
        self, inst: tuple[Graph, MatchingState]
    ) -> None:
        g, m = inst
        s = run_phase(g, m)
        if s.paths:
            _check_removal_cap(s)


class TestCollectMaximal:
    def test_disjoint_p4_components(self) -> None:
        edges = []
        pairs = []
        for k in range(3):
            base = 4 * k
            edges += [(base, base + 1), (base + 1, base + 2), (base + 2, base + 3)]
            pairs.append((base + 1, base + 2))
        g = Graph.from_edges(12, edges)
        m = MatchingState(12, pairs)
        s = run_phase(g, m)
        assert s.l_m == 3
        assert len(s.paths) == 3
        covered = [v for p in s.paths for v in p]
        assert len(covered) == len(set(covered))

    def test_two_bridges_exactly_one_path(self) -> None:
        g, m = support.two_bridges_graph()
        s = run_phase(g, m)
        assert len(s.paths) == 1

    def test_shared_vertices_give_one_path(self) -> None:
        # Two would-be paths overlapping on the middle edge: only one fits.
        g = Graph.from_edges(6, [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)])
        m = MatchingState(6, [(2, 3)])
        s = run_phase(g, m)
        assert s.l_m == 3
        assert len(s.paths) == 1

    def test_free_vertex_stranded_by_paths(self) -> None:
        # Free 8 is adjacent only to 1 and 5, and the phase's two paths
        # take both, so 8 stays free with no live neighbour.
        g = Graph.from_edges(
            9, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (8, 1), (8, 5)]
        )
        m = MatchingState(9, [(1, 2), (5, 6)])
        s = run_phase(g, m)
        assert support.path_set_faults(s, compute_profile(g, m)) == []
        assert len(s.paths) == 2
        used = {v for p in s.paths for v in p}
        assert 8 not in used and {1, 5} <= used

    def test_collect_maximal_is_idempotent_after_phase(self) -> None:
        g, m = support.two_bridges_graph()
        s = run_phase(g, m)
        before = [list(p) for p in s.paths]
        max_step(s, (s.l_m - 1) // 2)
        assert s.paths == before


class TestPathSetProperties:
    @PROPERTY_SETTINGS
    @given(inst=_small_instance())
    def test_paths_valid_disjoint_and_maximal(
        self, inst: tuple[Graph, MatchingState]
    ) -> None:
        g, m = inst
        assert support.path_set_faults(run_phase(g, m), compute_profile(g, m)) == []


def _run_shallow(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run `script` in a fresh interpreter whose recursion limit is 120:
    room for the engine's fixed call depth, far below any input size, so
    recursion that grows with the input fails."""
    code = "import sys\nsys.setrecursionlimit(120)\n" + textwrap.dedent(script)
    pythonpath = [
        str(Path(mvmatching.__file__).resolve().parents[1]),  # the package
        str(Path(__file__).parent),  # support.py
    ]
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)},
        timeout=600,
    )


class TestLongPaths:
    def test_path_graph_inner_matching(self) -> None:
        out = _run_shallow(
            """
            import support
            from mvmatching.solver import maximum_matching
            g, m = support.inner_matched_path(20000)
            result, phases = maximum_matching(g, m)
            print(result.size(), phases)
            """
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["10000", "2"]

    def test_verify_path_graph(self, tmp_path: Path) -> None:
        g, inner = support.inner_matched_path(20000)
        graph_file = tmp_path / "p.dimacs"
        graph_file.write_text(serialize_dimacs(g))
        script = """
            from mvmatching.cli import main
            sys.exit(main(["verify", *sys.argv[1:]]))
            """
        inner_file = tmp_path / "inner.txt"
        inner_file.write_text(serialize_matching(inner))
        out = _run_shallow(script, str(graph_file), str(inner_file))
        assert out.returncode == 1, out.stderr
        prefix = "not maximum: augmenting path "
        assert out.stdout.startswith(prefix)
        witness = [int(v) for v in out.stdout[len(prefix):].split("-")]
        assert len(witness) - 1 == 19999
        assert witness in (list(range(1, 20001)), list(range(20000, 0, -1)))

        solved_file = tmp_path / "solved.txt"
        solved = MatchingState(g.n, [(i, i + 1) for i in range(0, g.n, 2)])
        solved_file.write_text(serialize_matching(solved))
        out = _run_shallow(script, str(graph_file), str(solved_file))
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "valid maximum matching of size 10000"

    def test_triangle_chain_path_crosses_every_petal(self) -> None:
        out = _run_shallow(
            """
            import support
            from mvmatching.phase import run_phase
            from mvmatching.solver import maximum_matching
            g, m = support.triangle_chain(10000)
            s = run_phase(g, m)
            on_path = set(s.paths[0])
            crossed = all(ms <= on_path for ms in support.petal_members(s))
            print(len(s.paths), len(s.paths[0]) - 1, len(s.petals), crossed)
            result, phases = maximum_matching(g, m)
            print(m.size(), result.size(), phases)
            """
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["1", "39999", "5000", "True", "19999", "20000", "2"]

    def test_nested_blossoms_of_depth_300(self) -> None:
        out = _run_shallow(
            """
            import support
            from mvmatching.graph import check_alternating
            from mvmatching.phase import run_phase
            from mvmatching.solver import maximum_matching
            g, m = support.nested_blossoms(300)
            s = run_phase(g, m)
            petals = s.petals
            path = s.paths[0]
            on_path = set(path)
            nested = all(s.petal_of[p.bud] == k + 1 for k, p in enumerate(petals[:-1]))
            outermost = s.petal_of[petals[-1].bud] is None
            touched = all(on_path & ms for ms in support.petal_members(s))
            print(g.n, len(s.paths), len(path) - 1, len(petals))
            print(nested, outermost, touched, check_alternating(g, m, path))
            result, phases = maximum_matching(g, m)
            print(m.size(), result.size(), phases)
            """
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == [
            "183002", "1", "3003", "300",
            "True", "True", "True", "None",
            "91500", "91501", "2",
        ]
