"""Double depth-first search over an abstract layered structure.

Two coordinated DFS trees (red rooted at r, green rooted at g, r != g)
descend a layered DAG.  The search ends either at the highest bottleneck
vertex -- a vertex every root-to-layer-0 path must cross -- together with
a red/green partition of the visited vertices, or with two
vertex-disjoint paths reaching distinct layer-0 vertices.

A contested vertex changes colour alone.  It is always the centre of the
tree that waits, and a waiting tree has no descendants below its centre
(proof in `run_ddfs`), so nothing below the vertex changes sides.
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
    vertex with a tree child never changes colour (see `run_ddfs`)."""

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


def run_ddfs(
    view: LayeredView, r: int, g: int, trace: Optional[TraceFn] = None
) -> DdfsOutcome:
    """Run the double depth-first search from distinct roots r (red) and
    g (green); raises ValueError when r == g, since coinciding roots
    leave nothing to search.

    Each step is traced as `ddfs <action> <tree> <vertex> <layer>`.
    Outside a contest the trees alternate by the keep-ahead rule: red
    steps if its centre's layer is at least green's and above 0, else
    green steps if its centre is above layer 0, and once both centres
    lie at layer 0 the two descents are disjoint.  A tree steps from its
    centre along an out-edge not taken yet: an unvisited vertex is
    claimed (`advance`); reaching the other tree's centre outside a
    contest contests it (`meet`).  A tree whose
    centre has no edge left backs up to its parent (`backtrack`), except
    at its barrier, where it either concedes the contested vertex (red)
    or finds it to be the bottleneck (green).

    At a meet the contested vertex v is first given to green; red must
    then find an equally deep alternative, its seek ending at a claim at
    or below v's layer (`terminate_seek`).  If red's barrier is v, red
    already won v once and may not rescind: green concedes v at once
    and must seek.  If red starves at its barrier, v is reassigned to
    red, which makes v its barrier, and green must seek below v; v is
    the bottleneck if it is green's root or green starves at its root.

    v changes colour at a meet or a concession without descendants in
    the tree it leaves, because that tree waits at v and a waiting
    tree's centre has no children.  A tree gains a child only at its
    centre, by stepping from it.  It waits only at its root before its
    first step, at a vertex it has just claimed, or at a contested
    vertex it has just been handed, and none of these has a child yet.
    It never waits at a vertex it backtracked into: that parent lies
    strictly above the vertex it left, which was at or above the other
    centre (red moves on lr >= lg, green on lg > lr), so the keep-ahead
    rule picks the same tree again.  A seeker keeps stepping until a
    claim ends its seek, it concedes, or it reaches the bottleneck; a
    prober either takes v as its centre or seeks from the centre that
    gained v.

    Each tree's centre has that tree's colour: a tree centres only on a
    vertex it claims, is handed or wins, and leaves a centre it loses at
    once.  So off red's barrier, v is red exactly when green probes,
    and one test on the prober decides the handover."""
    if r == g:
        raise ValueError(f"DDFS roots coincide at {r}")
    layer, out_edges = view.layer, view.out_edges
    color: dict[int, int] = {r: RED, g: GREEN}
    parent: tuple[dict[int, Optional[int]], dict[int, Optional[int]]] = ({r: None}, {g: None})
    center = [r, g]
    # Each tree's barrier, below which it may not backtrack: red's is its
    # root, then each contested vertex it wins; green's stays g.
    barrier = [r, g]
    # None while the trees alternate by the keep-ahead rule; else the tree
    # that must find a vertex at or below the contested vertex's layer
    # while the other waits.  `contested` is None exactly when `seeker`
    # is, and `contested_layer` is its layer.
    seeker: Optional[int] = None
    contested: Optional[int] = None
    contested_layer = 0
    # Each visited vertex's out-edges not yet taken.
    pending: dict[int, Iterator[int]] = {}
    while True:
        t = seeker
        if t is None:
            lr, lg = layer(center[RED]), layer(center[GREEN])
            if lr >= lg and lr > 0:
                t = RED
            elif lg > 0:
                t = GREEN
            else:
                if trace is not None:
                    trace(f"ddfs terminate - {center[RED]} {lr}")
                return TwoPaths(*map(tree_path, parent, center))
        c = center[t]
        edges = pending.get(c)
        if edges is None:
            outs = out_edges(c)
            lc = layer(c)
            for u in outs:
                if layer(u) >= lc:
                    raise LayeredViewError(f"edge ({c}, {u}) does not strictly decrease layer")
            if not outs and lc > 0:
                raise LayeredViewError(f"dead end at {c} (layer {lc})")
            edges = pending[c] = iter(outs)
        for u in edges:
            if u not in color:
                # Claim u.
                color[u] = t
                parent[t][u] = c
                center[t] = u
                if trace is not None:
                    trace(f"ddfs advance {_NAMES[t]} {u} {layer(u)}")
                if seeker == t and layer(u) <= contested_layer:
                    if trace is not None:
                        trace(f"ddfs terminate_seek {_NAMES[t]} {u} {layer(u)}")
                    seeker = contested = None
                break
            if seeker is None and u == center[1 - t]:
                # Meet: t reached the other tree's centre, now contested.
                parent[t][u] = c
                contested, contested_layer = u, layer(u)
                if trace is not None:
                    trace(f"ddfs meet {_NAMES[t]} {u} {contested_layer}")
                if barrier[RED] == u:
                    seeker = GREEN
                    if trace is not None:
                        trace(f"ddfs reassign red {u} {contested_layer}")
                    break
                if t == GREEN:
                    center[RED] = parent[RED][u]
                    if trace is not None:
                        trace(f"ddfs backtrack red {u} {contested_layer}")
                    color[u] = GREEN
                    center[GREEN] = u
                seeker = RED
                if trace is not None:
                    trace(f"ddfs reassign green {u} {contested_layer}")
                break
            # interior of a tree, or the contested vertex: skip
        else:
            # Out-edges exhausted: back up or resolve the contest.
            if c != barrier[t]:
                center[t] = parent[t][c]
                if trace is not None:
                    trace(f"ddfs backtrack {_NAMES[t]} {c} {layer(c)}")
                continue
            if seeker != t:
                raise DdfsInternalError(f"{_NAMES[t]} starved at barrier {c} outside a contest")
            b = contested
            if t == RED:
                # Red concedes: the contested vertex goes to red, and green
                # must seek below it unless it is green's root.
                color[b] = RED
                center[RED] = barrier[RED] = b
                if trace is not None:
                    trace(f"ddfs reassign red {b} {contested_layer}")
                if b != barrier[GREEN]:
                    center[GREEN] = parent[GREEN][b]
                    if trace is not None:
                        trace(f"ddfs backtrack green {b} {contested_layer}")
                    seeker = GREEN
                    continue
            if trace is not None:
                trace(f"ddfs terminate - {b} {contested_layer}")
            return Bottleneck(b, color, parent)
