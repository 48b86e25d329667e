"""Double depth-first search over an abstract layered structure.

Two coordinated DFS trees (red rooted at r, green rooted at g, r != g)
descend a layered DAG.  The search ends either at the highest bottleneck
vertex -- a vertex every root-to-layer-0 path must cross -- together with
a red/green partition of the visited vertices, or with two
vertex-disjoint paths reaching distinct layer-0 vertices.

A contested vertex changes colour alone.  It is always the centre of the
tree that waits, and a waiting tree has no descendants below its centre
(proof in `_Ddfs._meet`), so nothing below the vertex changes sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Protocol

RED = 0
GREEN = 1
_NAMES = ("red", "green")


class LayeredView(Protocol):
    def layer(self, v: int) -> int: ...

    def out_edges(self, v: int) -> list[int]: ...


class LayeredViewError(ValueError):
    """The view violates layer monotonicity or the reach-layer-0 requirement."""


class DdfsInternalError(RuntimeError):
    """Coordination reached a state believed unreachable; indicates a bug."""


@dataclass
class Bottleneck:
    """The search ended at bottleneck b: `color` gives the tree of every
    visited vertex, b included, and `parent[t]` links tree t's vertices
    to its root.  b lies in both trees and is no vertex's parent, and a
    vertex's ancestors in its own colour's tree have its colour, since a
    vertex with a tree child never changes colour (see `_Ddfs._meet`)."""

    b: int
    color: dict[int, int]
    parent: tuple[dict[int, Optional[int]], dict[int, Optional[int]]]


@dataclass
class TwoPaths:
    """Vertex-disjoint descents from the red and the green root to two
    distinct layer-0 vertices, each listed root first."""

    red_path: list[int]
    green_path: list[int]


DdfsOutcome = Bottleneck | TwoPaths

TraceFn = Callable[[str], None]


def tree_path(parent: dict[int, Optional[int]] | list[Optional[int]], v: int) -> list[int]:
    """The path from the root of a DDFS parent map or list down to v."""
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


class _Ddfs:
    def __init__(self, view: LayeredView, r: int, g: int, trace: Optional[TraceFn]):
        self.view = view
        self.trace = trace
        self.color: dict[int, int] = {r: RED, g: GREEN}
        self.parent: tuple[dict[int, Optional[int]], dict[int, Optional[int]]] = (
            {r: None},
            {g: None},
        )
        self.center = [r, g]
        # Each tree's barrier, below which it may not backtrack: red's is
        # its root, then each contested vertex it wins; green's stays g.
        self.barrier = [r, g]
        # None while the trees alternate by the keep-ahead rule; else the
        # tree that must find a vertex at or below the contested vertex's
        # layer while the other waits.  `contested` is None exactly when
        # `seeker` is.
        self.seeker: Optional[int] = None
        self.contested: Optional[int] = None
        # Each visited vertex's out-edges not yet taken.
        self.pending: dict[int, Iterator[int]] = {}

    # -- view access -------------------------------------------------

    def _pending(self, v: int) -> Iterator[int]:
        edges = self.pending.get(v)
        if edges is None:
            outs = self.view.out_edges(v)
            lv = self.view.layer(v)
            for u in outs:
                if self.view.layer(u) >= lv:
                    raise LayeredViewError(
                        f"edge ({v}, {u}) does not strictly decrease layer"
                    )
            if not outs and lv > 0:
                raise LayeredViewError(f"dead end at {v} (layer {lv})")
            edges = self.pending[v] = iter(outs)
        return edges

    def _emit(self, action: str, tree: Optional[int], vertex: int) -> None:
        if self.trace is not None:
            name = _NAMES[tree] if tree is not None else "-"
            self.trace(f"ddfs {action} {name} {vertex} {self.view.layer(vertex)}")

    # -- tree maintenance ---------------------------------------------

    def _claim(self, t: int, u: int) -> None:
        c = self.center[t]
        self.color[u] = t
        self.parent[t][u] = c
        self.center[t] = u
        self._emit("advance", t, u)
        if self.seeker == t and self.view.layer(u) <= self.view.layer(self.contested):
            self._emit("terminate_seek", t, u)
            self.seeker = None
            self.contested = None

    def _backtrack(self, t: int, v: int) -> None:
        self.center[t] = self.parent[t][v]
        self._emit("backtrack", t, v)

    # -- coordination -------------------------------------------------

    def run(self) -> DdfsOutcome:
        while True:
            t = self.seeker
            if t is None:
                lr = self.view.layer(self.center[RED])
                lg = self.view.layer(self.center[GREEN])
                if lr >= lg and lr > 0:
                    t = RED
                elif lg > 0:
                    t = GREEN
                else:
                    return self._two_paths()
            outcome = self._step(t)
            if outcome is not None:
                return outcome

    def _step(self, t: int) -> Optional[DdfsOutcome]:
        c = self.center[t]
        for u in self._pending(c):
            if u not in self.color:
                self._claim(t, u)
                return None
            if self.seeker is None and u == self.center[1 - t]:
                return self._meet(t, u)
            # interior of a tree, or the contested vertex: skip
        # Out-edges exhausted: back up or resolve the contest.
        if c != self.barrier[t]:
            self._backtrack(t, c)
            return None
        if self.seeker != t:
            raise DdfsInternalError(
                f"{_NAMES[t]} starved at barrier {c} outside a contest"
            )
        return self._concede_red() if t == RED else self._bottleneck(self.contested)

    def _meet(self, prober: int, v: int) -> Optional[DdfsOutcome]:
        """The prober reached the other tree's center: contest v.

        v is first given to green; red must then find an equally deep
        alternative.

        v changes colour here or in `_concede_red` without descendants in
        the tree it leaves, because that tree waits at v and a waiting
        tree's centre has no children.  A tree gains a child only at its
        centre, by stepping from it.  It waits only at its root before
        its first step, at a vertex it has just claimed, or at a
        contested vertex it has just been handed, and none of these has
        a child yet.  It never waits at a vertex it backtracked into:
        that parent lies strictly above the vertex it left, which was at
        or above the other centre (red moves on lr >= lg, green on
        lg > lr), so the keep-ahead rule picks the same tree again.  A
        seeker keeps stepping until a claim ends its seek, it concedes,
        or it reaches the bottleneck; a prober either takes v as its
        centre or seeks from the centre that gained v.

        Each tree's centre has that tree's colour: a tree centres only on
        a vertex it claims, is handed or wins, and leaves a centre it
        loses at once.  So off red's barrier, v is red exactly when green
        probes, and one test on the prober decides the handover.
        """
        self.parent[prober][v] = self.center[prober]
        self._emit("meet", prober, v)
        self.contested = v
        if self.barrier[RED] == v:
            # Red already won v once and may not rescind: green (the
            # prober) concedes the vertex immediately and must seek.
            self.seeker = GREEN
            self._emit("reassign", RED, v)
            return None
        if prober == GREEN:
            self._backtrack(RED, v)
            self.color[v] = GREEN
            self.center[GREEN] = v
        self.seeker = RED
        self._emit("reassign", GREEN, v)
        return None

    def _concede_red(self) -> Optional[DdfsOutcome]:
        """Red failed to find an alternative: the contested vertex is
        reassigned to red and green must now seek below it."""
        v = self.contested
        self.color[v] = RED
        self.center[RED] = v
        self.barrier[RED] = v
        self._emit("reassign", RED, v)
        # v stays in green's tree; green can back up past it unless v is
        # green's root, and then v is the bottleneck.
        if v == self.barrier[GREEN]:
            return self._bottleneck(v)
        self._backtrack(GREEN, v)
        self.seeker = GREEN
        return None

    def _bottleneck(self, b: int) -> Bottleneck:
        self._emit("terminate", None, b)
        return Bottleneck(b, self.color, self.parent)

    def _two_paths(self) -> TwoPaths:
        self._emit("terminate", None, self.center[RED])
        return TwoPaths(*map(tree_path, self.parent, self.center))


def run_ddfs(
    view: LayeredView, r: int, g: int, trace: Optional[TraceFn] = None
) -> DdfsOutcome:
    """Run the double depth-first search from distinct roots r (red) and
    g (green); raises ValueError when r == g, since coinciding roots
    leave nothing to search.

    Each step is traced as `ddfs <action> <tree> <vertex> <layer>`."""
    if r == g:
        raise ValueError(f"DDFS roots coincide at {r}")
    return _Ddfs(view, r, g, trace).run()
