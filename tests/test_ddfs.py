"""Tests for the double depth-first search over layered views."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvmatching.ddfs import (
    GREEN,
    RED,
    Bottleneck,
    LayeredViewError,
    TwoPaths,
    run_ddfs,
)

import support
from support import (
    DictView,
    checked_ddfs,
    color_sets,
    expected_ddfs,
    has_disjoint_pair,
    random_layered_view,
)

PROPERTY_SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_SEED = st.integers(min_value=0, max_value=2**32 - 1)


class TestNamedViews:
    def test_unique_sink_forces_bottleneck(self) -> None:
        # r=1, g=2 at layer 1, both feeding the sole layer-0 vertex x=0.
        view = DictView({0: 0, 1: 1, 2: 1}, {1: [0], 2: [0]})
        out = run_ddfs(view, 1, 2)
        assert isinstance(out, Bottleneck)
        assert out.b == 0
        assert color_sets(out) == ({1}, {2})

    def test_disjoint_chains_give_two_paths(self) -> None:
        view = DictView({0: 0, 1: 0, 2: 1, 3: 1}, {2: [0], 3: [1]})
        out = run_ddfs(view, 2, 3)
        assert isinstance(out, TwoPaths)
        assert {out.red_path[-1], out.green_path[-1]} == {0, 1}
        assert out.red_path == [2, 0]
        assert out.green_path == [3, 1]

    def test_diamond_partitions_middle_layer(self) -> None:
        # r=4, g=5 over middle vertices a=1, b=2 and the sink x=0: the sink
        # is on every descent while each middle vertex can be avoided.
        view = DictView(
            {0: 0, 1: 1, 2: 1, 4: 2, 5: 2},
            {4: [1, 2], 5: [1, 2], 1: [0], 2: [0]},
        )
        out = run_ddfs(view, 4, 5)
        assert isinstance(out, Bottleneck)
        assert out.b == 0
        red, green = color_sets(out)
        assert red | green == {4, 5, 1, 2}
        assert not (red & green)
        assert 4 in red and 5 in green

    def test_coinciding_roots_give_empty_support(self) -> None:
        view = DictView({0: 0, 1: 1}, {1: [0]})
        with pytest.raises(ValueError, match="coincide"):
            run_ddfs(view, 1, 1)


class TestViewValidation:
    def test_non_decreasing_edge_rejected(self) -> None:
        view = DictView({0: 1, 1: 1, 2: 0}, {0: [1], 1: [2]})
        with pytest.raises(LayeredViewError, match="strictly decrease"):
            run_ddfs(view, 0, 1)

    def test_dead_end_rejected(self) -> None:
        # Vertex 1 sits at layer 1 with no way down; red walks into it.
        view = DictView({0: 0, 1: 1, 2: 1, 3: 2}, {3: [1], 2: [0]})
        with pytest.raises(LayeredViewError, match="dead end"):
            run_ddfs(view, 3, 2)


class TestOutcomeShape:
    def _check(self, view: DictView, r: int, g: int) -> None:
        kind, b = expected_ddfs(view, r, g)
        if kind == "empty":
            with pytest.raises(ValueError, match="coincide"):
                run_ddfs(view, r, g)
            return
        out, broken = checked_ddfs(view, r, g)
        if kind == "paths":
            assert isinstance(out, TwoPaths)
            r0, g0 = out.red_path[-1], out.green_path[-1]
            assert out.red_path[0] == r and out.green_path[0] == g
            assert view.layer(r0) == 0 and view.layer(g0) == 0
            assert r0 != g0
            assert not (set(out.red_path) & set(out.green_path))
            for path in (out.red_path, out.green_path):
                for a, c in zip(path, path[1:]):
                    assert c in view.out_edges(a)
                    assert view.layer(c) < view.layer(a)
        else:
            assert isinstance(out, Bottleneck)
            assert out.b == b and out.b in out.color
            red, green = color_sets(out)
            assert not (red & green)
            if r != out.b:
                assert r in red
            if g != out.b:
                assert g in green
            # Certificate: every red vertex admits a descent from r
            # disjoint from some green descent to b, and vice versa.
            for v in red:
                assert has_disjoint_pair(view, r, g, v, out.b), (v, "red")
            for v in green:
                assert has_disjoint_pair(view, g, r, v, out.b), (v, "green")
        # Work bounds: each vertex's out-edges fetched once, each vertex
        # backtracked at most once per tree, each edge taken at most once.
        assert broken == []

    def test_every_view_up_to_four_vertices(self) -> None:
        # 2,002 runs.  All 265,568 runs up to five vertices pass too, in
        # about 13 s; the next test keeps a fixed slice of the five.
        count = 0
        for n in range(1, 5):
            for view, r, g in support.all_layered_views(n):
                self._check(view, r, g)
                count += 1
        assert count == 2002

    def test_slice_of_five_vertex_views(self) -> None:
        runs = itertools.islice(support.all_layered_views(5), 0, None, 29)
        count = 0
        for view, r, g in runs:
            self._check(view, r, g)
            count += 1
        assert count == 9089

    @PROPERTY_SETTINGS
    @given(seed=_SEED)
    def test_matches_exhaustive_analysis(self, seed: int) -> None:
        view, r, g = random_layered_view(seed)
        self._check(view, r, g)

    @PROPERTY_SETTINGS
    @given(seed=_SEED)
    def test_deterministic(self, seed: int) -> None:
        view, r, g = random_layered_view(seed)
        if r == g:
            return
        first = run_ddfs(view, r, g)
        second = run_ddfs(view, r, g)
        assert type(first) is type(second)
        if isinstance(first, Bottleneck):
            assert (first.b, color_sets(first)) == (second.b, color_sets(second))
        elif isinstance(first, TwoPaths):
            assert first.red_path == second.red_path
            assert first.green_path == second.green_path


class TestTreeRecords:
    @PROPERTY_SETTINGS
    @given(seed=_SEED)
    def test_bottleneck_trees_stay_inside_their_color(self, seed: int) -> None:
        view, r, g = random_layered_view(seed)
        if r == g:
            return
        out = run_ddfs(view, r, g)
        if not isinstance(out, Bottleneck):
            return
        red, green = color_sets(out)
        for tree, members, root in ((out.parent[RED], red, r), (out.parent[GREEN], green, g)):
            for v in members:
                # Walk to the root; every hop stays in members ∪ {b}.
                cur = v
                for _ in range(len(tree) + 1):
                    if cur == root:
                        break
                    cur = tree[cur]
                    assert cur is not None
                    assert cur in members or cur == out.b
                else:
                    pytest.fail(f"no path from {v} to root {root}")


def _assert_per_vertex_records(out: Bottleneck) -> None:
    """What a petal's per-vertex records rely on: b lies in both trees and
    is no vertex's parent, and each visited vertex's ancestors in its own
    colour's tree have that colour."""
    for tree in out.parent:
        assert out.b in tree
        assert out.b not in tree.values()
    for v, t in out.color.items():
        tree, cur = out.parent[t], v
        for _ in range(len(tree)):
            cur = tree[cur]
            if cur is None:
                break
            assert out.color[cur] == t, (v, cur)
        else:
            pytest.fail(f"no root above {v}")


class TestPerVertexRecords:
    def test_every_view_up_to_four_vertices(self) -> None:
        count = 0
        for n in range(1, 5):
            for view, r, g in support.all_layered_views(n):
                if r == g:
                    continue
                out = run_ddfs(view, r, g)
                if isinstance(out, Bottleneck):
                    _assert_per_vertex_records(out)
                    count += 1
        assert count == 1290

    @PROPERTY_SETTINGS
    @given(seed=_SEED)
    def test_random_views(self, seed: int) -> None:
        view, r, g = random_layered_view(seed)
        if r == g:
            return
        out = run_ddfs(view, r, g)
        if isinstance(out, Bottleneck):
            _assert_per_vertex_records(out)


class TestMeetColours:
    def test_contested_vertex_has_the_other_colour(self) -> None:
        # A meet decides on the prober alone: off red's barrier the
        # contested vertex v has the colour of the tree that does not
        # probe and goes to green, and only green probes red's barrier,
        # which stays red.  Read from the trace: colours are rebuilt from
        # `advance` and `reassign`, the only events that change one, and
        # red's barrier moves to v at each `reassign red v`.  At the end
        # of a bottleneck run the rebuilt colours must equal the
        # outcome's.  Checked at every meet of every view with at most
        # four vertices and of the five-vertex slice.
        names = {"red": RED, "green": GREEN}
        # (prober, colour of v before the meet, events after it), by
        # whether v was red's barrier.
        at_barrier: set[tuple[str, str, tuple[str, ...]]] = set()
        elsewhere: set[tuple[str, str, tuple[str, ...]]] = set()
        views = itertools.chain(
            *(support.all_layered_views(n) for n in range(1, 5)),
            itertools.islice(support.all_layered_views(5), 0, None, 29),
        )
        for view, r, g in views:
            lines: list[str] = []
            out = run_ddfs(view, r, g, trace=lines.append)
            events = [(action, tree, int(v)) for _, action, tree, v, _ in map(str.split, lines)]
            color, barrier = {r: "red", g: "green"}, r
            for k, (action, tree, v) in enumerate(events):
                if action == "meet":
                    # The events up to and including the reassignment of v.
                    after = list(itertools.takewhile(lambda e: e[0] != "reassign", events[k + 1:]))
                    after.append(events[k + 1 + len(after)])
                    assert {e[2] for e in after} == {v}, (view.outs, r, g, lines)
                    sequence = tuple(f"{a} {t}" for a, t, _ in after)
                    (at_barrier if v == barrier else elsewhere).add((tree, color[v], sequence))
                if action in ("advance", "reassign"):
                    color[v] = tree
                if (action, tree) == ("reassign", "red"):
                    barrier = v
            if isinstance(out, Bottleneck):
                assert {v: names[c] for v, c in color.items()} == out.color, (view.outs, r, g)
        assert at_barrier == {("green", "red", ("reassign red",))}
        assert elsewhere == {
            ("green", "red", ("backtrack red", "reassign green")),
            ("red", "green", ("reassign green",)),
        }
