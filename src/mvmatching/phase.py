"""One phase of the matching engine.

A phase runs search levels i = 0, 1, ...; MIN assigns minlevels i+1 by
scanning from level-i vertices (unmatched edges on even i, the matched
edge on odd i) and classifies edges as props or bridges; MAX processes
the bridges of tenacity 2i+1 with a double depth-first search over the
layered predecessor structure, forming petals and assigning maxlevels,
until a maximal set of minimum-length augmenting paths is found or no
work remains.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

from .ddfs import GREEN, RED, Bottleneck, TraceFn, run_ddfs
from .graph import Graph, MatchingState

# Level of a vertex not reached yet.  Every real level is at most
# 4n + 9 (the level cap of `run_phase`), far below UNSET for any
# n <= graph.MAX_VERTICES, so "unset" compares above every level.
UNSET = 1 << 29


@dataclass
class PetalNode:
    """Record of one formed petal: its bridge as its ends (a, b) with
    a < b, the red root's end first, its bud, and the bud's parent in the
    forming DDFS's red and green tree, None where the bud is the root.
    `petal_of` names the petal's members."""

    bridge: tuple[int, int]
    bud: int
    bud_parent: tuple[Optional[int], Optional[int]]


@dataclass
class PhaseState:
    """One phase's search of graph `g` relative to matching `m`, each fact
    held once but one.  `evenlevel`, `oddlevel` and `minlevels` hold ints,
    UNSET where a level is not assigned, and `minlevels[v]` is always
    min(evenlevel[v], oddlevel[v]): MIN, DDFS, MAX and removal read it
    far more often than levels are set, so it is stored, and written once,
    with v's first level, by `init_phase` at level 0 or by MIN at v's
    first prop; the maxlevel MAX sets later lies above it.  `paths` are
    vertex lists of `l_m` edges; `l_m` is UNSET until the first path.
    `preds[v]` lists the tails of v's props in scan order; it is the
    shared empty tuple until v's first prop, so a vertex the search never
    reaches costs no list.  `pred_gone[v]` counts
    the removed predecessors of a live v that has lost some; successors
    are derived (see `paths.recursive_remove`).  `preds` alone records
    props; a classified edge that is no prop is a bridge.  MIN marks
    scans per vertex, not per edge: bit 1 of `scanned[v]` is set once v's
    even scan has started, bit 2 once its odd scan has (see `min_step`),
    and an edge is classified once a scan of its parity has started at
    either end, odd for the matched edge and even for the rest.  `br[t]`
    queues the bridges filed at tenacity t, each as its ends a < b in
    turn, in a flat list of ints: the tens of thousands of bridges a
    certifying phase can file then allocate nothing that cyclic GC must
    track.  Only MIN classifies edges, and it files each bridge as it
    classifies it.  A bridge whose relevant end levels are not both
    known waits: only an unmatched bridge can, on an inner end v whose
    evenlevel is still UNSET.  It waits in `waiting[v]` as its other end
    until MAX gives v an even maxlevel, and `_assign_maxlevels` files it
    then.  Only even maxlevels are scheduled for MIN.  A member w of a
    petal has `color[w]` and its parent in that colour's DDFS tree,
    `tree_parent[w]` (None at a root); w joins no other petal."""

    g: Graph
    m: MatchingState
    evenlevel: list[int]
    oddlevel: list[int]
    minlevels: list[int]
    preds: list[list[int] | tuple[()]]
    pred_gone: dict[int, int]
    waiting: defaultdict[int, list[int]]
    scanned: bytearray
    br: defaultdict[int, list[int]]
    petal_of: list[Optional[int]]
    petals: list[PetalNode]
    color: list[int]
    tree_parent: list[Optional[int]]
    jump: list[int]
    removed: list[bool]
    schedule: defaultdict[int, list[int]]
    paths: list[list[int]] = field(default_factory=list)
    l_m: int = UNSET
    trace: Optional[TraceFn] = None

    def minlevel(self, v: int) -> int:
        return self.minlevels[v]

    def maxlevel(self, v: int) -> int:
        return max(self.evenlevel[v], self.oddlevel[v])

    # MAX's `ddfs.LayeredView`: predecessors, petals contracted to bud*s.
    @property
    def layer(self) -> Callable[[int], int]:
        """The minlevel reader, `minlevels`'s own item lookup: `run_ddfs`
        takes it once per run and then calls no Python method per read."""
        return self.minlevels.__getitem__

    def out_edges(self, v: int) -> list[int]:
        """The distinct live bud*s of v's live predecessors, in scan
        order; each lies below v, as a bud lies below its members.  A
        removed vertex has a removed bud* (see `paths.recursive_remove`).
        Most vertices have one predecessor and few have more than five,
        but a hub can have thousands, so duplicates go in one linear
        `dict.fromkeys` pass, not a search of the list per entry."""
        out: list[int] = []
        jump, removed = self.jump, self.removed
        for u in self.preds[v]:
            b = jump[u]
            if jump[b] != b:
                b = bud_star(self, u)
            if not removed[b]:
                out.append(b)
        return list(dict.fromkeys(out)) if len(out) > 1 else out


def init_phase(g: Graph, m: MatchingState, trace: Optional[TraceFn] = None) -> PhaseState:
    """Fresh per-phase state: unmatched vertices at evenlevel 0, all else
    unassigned, no vertex scanned.  No per-vertex list or counter is built
    here: MIN makes `preds[v]` at v's first prop and `waiting[v]` at v's
    first waiting bridge, and removal counts into `pred_gone`."""
    n = g.n
    evenlevel = [UNSET] * n
    level0 = [v for v, p in enumerate(m.partner) if p is None]
    for v in level0:
        evenlevel[v] = 0
    # An empty level 0 is popped by `min_step(s, 0)` as a missing one is.
    schedule: defaultdict[int, list[int]] = defaultdict(list)
    schedule[0] = level0
    return PhaseState(
        g=g,
        m=m,
        evenlevel=evenlevel,
        oddlevel=[UNSET] * n,
        minlevels=evenlevel.copy(),
        preds=[()] * n,
        pred_gone={},
        waiting=defaultdict(list),
        scanned=bytearray(n),
        br=defaultdict(list),
        petal_of=[None] * n,
        petals=[],
        color=[RED] * n,
        tree_parent=[None] * n,
        jump=list(range(n)),
        removed=[False] * n,
        schedule=schedule,
        trace=trace,
    )


def levels_with_inf(levels: list[int]) -> list[float]:
    """The levels with UNSET written as math.inf, as the oracle and the
    printed output have them."""
    return [math.inf if x == UNSET else x for x in levels]


def bud_star(s: PhaseState, v: int) -> int:
    """Root of v's bud chain, with path compression (roots never change).
    Callers test `jump[jump[v]] == jump[v]` first, as nearly every chain
    is compressed to one step, and call this only for a longer one."""
    jump = s.jump
    root = v
    while jump[root] != root:
        root = jump[root]
    while jump[v] != root:
        jump[v], v = root, jump[v]
    return root


def bridge_side(s: PhaseState, u: int, v: int) -> list[int]:
    """The levels a bridge (u, v) joins: odd levels if it is matched, else
    even levels.  Its tenacity is side[u] + side[v] + 1."""
    return s.oddlevel if s.m.partner[u] == v else s.evenlevel


def _trace_bridge(s: PhaseState, u: int, v: int, t: int) -> None:
    """Trace the filing of bridge (u, v), smaller end first."""
    if u > v:
        u, v = v, u
    s.trace(f"bridge {u} {v} tenacity {t}")


def min_step(s: PhaseState, i: int) -> None:
    """MIN at search level i: extend minlevel assignments to i+1 and
    classify newly scanned edges, each once.  A prop's tail joins its
    head's `preds`, and the head gets that list at its first prop, the
    one that sets its level.  A bridge is filed into Br(tenacity) if its
    tenacity is at most l_m.  An UNSET end makes the tenacity exceed
    every l_m, and the bridge waits under that end; once l_m is known a
    bridge of higher tenacity is left unfiled, as the phase ends before
    its level.

    The scan's parity gives a bridge's levels (`bridge_side`): an even
    scan meets unmatched edges only, an odd scan the matched edge only.
    Only even maxlevels are scheduled, so a vertex scanned at an odd
    level has an odd minlevel and is matched: free vertices sit at
    evenlevel 0.  A vertex has one even level and at most one odd one,
    each scheduled once, so it is scanned at most once per parity.  An
    unmatched edge is therefore classified at the first even scan of
    either end, and the matched edge at the first odd scan of either
    end.  `scanned` marks the scans that have started, so no edge needs a
    mark: an even scan of u skips each v whose even scan has started, and
    an odd scan skips the partner once the partner's odd scan has.  An
    even scan of u also skips the partner, as the matched edge is
    classified by then: it gave u an even minlevel as a prop, or it was
    classified by the time u's odd scan ran.  MIN never meets a removed
    vertex: only `max_step` removes, after the phase's first path, and
    `run_phase` stops after that level's MAX."""
    sources = s.schedule.pop(i, [])
    even, odd, minl = s.evenlevel, s.oddlevel, s.minlevels
    scanned, preds, br, waiting = s.scanned, s.preds, s.br, s.waiting
    l_m, trace = s.l_m, s.trace
    adj, partner = s.g.adj, s.m.partner
    even_scan = i % 2 == 0
    side, target_levels, bit = (even, odd, 1) if even_scan else (odd, even, 2)
    nxt = i + 1
    next_sched: Optional[list[int]] = None
    for u in sources:
        scanned[u] |= bit
        p = partner[u]
        if even_scan:
            scan, skip = adj[u], -1 if p is None else p
        else:
            scan, skip = (p,), -1
        su = side[u] + 1
        for v in scan:
            if scanned[v] & bit or v == skip:
                continue
            if minl[v] >= nxt:
                if target_levels[v] == UNSET:
                    target_levels[v] = minl[v] = nxt
                    preds[v] = [u]
                    if next_sched is None:
                        next_sched = s.schedule[nxt]
                    next_sched.append(v)
                    if trace is not None:
                        trace(f"minlevel {v} {nxt}")
                else:
                    preds[v].append(u)
            else:
                t = su + side[v]
                if t <= l_m:
                    br[t].extend((u, v) if u < v else (v, u))
                    if trace is not None:
                        _trace_bridge(s, u, v, t)
                elif side[v] == UNSET:
                    waiting[v].append(u)


def _assign_maxlevels(s: PhaseState, members: list[int], t: int) -> None:
    """Give each new petal member w its maxlevel t - minlevel(w).

    The slot is always UNSET here: the DDFS visits only bud* vertices, so
    w joins no other petal, and MIN assigns minlevels only.  An odd
    maxlevel is not scheduled: w's minlevel is then even, so its matched
    edge, if any, is the prop that gave w that level, and an odd scan of
    w would find nothing.  An even maxlevel is scheduled for MIN, and
    each bridge waiting at w, whose tenacity needed the evenlevel just
    set, is filed by MIN's rule: into Br(tenacity) if the tenacity is at
    most l_m.  `waiting[w]` holds each such bridge as its other end x;
    two or more are filed in the order of w's adjacency, which is the
    first-occurrence order of `g.edges` (`Graph.from_edges`).  A matched bridge never waits:
    both its ends have oddlevels.  An unclassified unmatched edge
    (w, x) is left to MIN.  A live x has no evenlevel at or below the
    current level i, or its even scan would have classified the edge, so
    MIN scans the edge from its first even end at level L > i.  If x has
    a level, both ends lie below L + 1: MIN makes the edge a bridge and
    files it at level L, before MAX reaches its tenacity of at least
    2L + 1, or it waits for x's even maxlevel."""
    even, odd, minl = s.evenlevel, s.oddlevel, s.minlevels
    for w in members:
        maxl = t - minl[w]
        if maxl % 2:
            odd[w] = maxl
            continue
        even[w] = maxl
        s.schedule[maxl].append(w)
        ends = s.waiting.pop(w, ())
        if len(ends) > 1:
            ends = filter(set(ends).__contains__, s.g.adj[w])
        for x in ends:
            tx = maxl + even[x] + 1
            if tx <= s.l_m:
                s.br[tx].extend((w, x) if w < x else (x, w))
                if s.trace is not None:
                    _trace_bridge(s, w, x, tx)


def _form_petal(s: PhaseState, bridge: tuple[int, int], outcome: Bottleneck, i: int) -> None:
    b, color, parent = outcome.b, outcome.color, outcome.parent
    members = sorted(color)
    members.remove(b)
    petals, petal_of, jump = s.petals, s.petal_of, s.jump
    member_color, tree_parent = s.color, s.tree_parent
    pid = len(petals)
    petals.append(PetalNode(bridge, b, (parent[RED][b], parent[GREEN][b])))
    for w in members:
        petal_of[w] = pid
        jump[w] = b
        c = member_color[w] = color[w]
        tree_parent[w] = parent[c][w]
    if s.trace is not None:
        s.trace(f"petal bud {b} members {','.join(map(str, members))}")
    _assign_maxlevels(s, members, 2 * i + 1)


def max_step(s: PhaseState, i: int) -> None:
    """MAX at search level i: run DDFS on each tenacity-(2i+1) bridge in
    filing order, those filed meanwhile included, and form a petal or
    take a path from each."""
    from .paths import extract_path, recursive_remove

    t = 2 * i + 1
    jump, removed = s.jump, s.removed
    # The queue may grow as petals form; its iterator takes the bridges
    # filed meanwhile too, two ends at a time.
    queue = iter(s.br.get(t, ()))
    for u, v in zip(queue, queue):
        ru, rv = jump[u], jump[v]
        if jump[ru] != ru:
            ru = bud_star(s, u)
        if jump[rv] != rv:
            rv = bud_star(s, v)
        # Ends sharing a bud* have empty support: no petal, no path.  A
        # removed end has a removed bud* (see `paths.recursive_remove`).
        if ru == rv or removed[ru] or removed[rv]:
            continue
        outcome = run_ddfs(s, ru, rv, trace=s.trace)
        if isinstance(outcome, Bottleneck):
            _form_petal(s, (u, v), outcome, i)
            continue
        s.l_m = t
        path = extract_path(s, outcome, (u, v))
        s.paths.append(path)
        if s.trace is not None:
            s.trace("path " + "-".join(map(str, path)))
        recursive_remove(s, set(path))
    s.br.pop(t, None)


def run_phase(g: Graph, m: MatchingState, trace: Optional[TraceFn] = None) -> PhaseState:
    """Run one full phase and return its finished state, whose `paths`
    are a maximal set of vertex-disjoint augmenting paths of the minimum
    length `l_m` (none, with `l_m` UNSET, when m is maximum).  m must be
    a valid matching of g, one `validate_matching` finds no fault in."""
    s = init_phase(g, m, trace=trace)
    i = 0
    cap = 2 * g.n + 4
    while i <= cap:
        if s.trace is not None:
            s.trace(f"level {i}")
        min_step(s, i)
        max_step(s, i)
        if s.paths or not (s.schedule or s.br):
            break
        i += 1
    return s
