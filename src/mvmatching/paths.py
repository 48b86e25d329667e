"""Augmenting-path extraction and bookkeeping after a successful search.

A TwoPaths outcome gives, from each end of the triggering bridge, a
descent to a free vertex through the contracted graph, where each petal
is shrunk to its bud*.  `extract_path` expands every hop of those
descents and opens each petal it jumps over (the paper's FINDPATH/OPEN):
a vertex entered at its minlevel (outer) hops to a predecessor whose bud
chain stops at the bud; a vertex entered at its maxlevel (inner) climbs
its colour's DDFS tree to the bridge, crosses it, and descends the other
colour's tree to the bud.  All of it runs on one explicit work stack
whose entries carry their orientation, so nothing recurses with the
input and no segment is reversed after it is built.
"""

from __future__ import annotations

from typing import Union

from .ddfs import TwoPaths, tree_path
from .phase import PhaseState, bridge_side

# A work item is a vertex or a segment (x, level, low, pid, rev): the path
# from x, entered at `level`, down x's bud chain to `low` (excluded),
# through petals formed before petal `pid` only; `rev` emits it backwards.
Segment = tuple[int, int, int, int, bool]
Item = Union[int, Segment]


class ExtractionError(RuntimeError):
    """Engine state inconsistent with a promised path; indicates a bug."""


def _flip(items: list[Item]) -> list[Item]:
    """The same vertices in reverse order."""
    return [t if type(t) is int else t[:4] + (not t[4],) for t in reversed(items)]


def _anchor(s: PhaseState, x: int, pid: int) -> int:
    """bud*(x) as it stood when petal `pid` formed: follow x's bud chain
    through earlier petals only."""
    petal_of, petals = s.petal_of, s.petals
    q = petal_of[x]
    while q is not None and q < pid:
        x = petals[q].bud
        q = petal_of[x]
    return x


def _hop(s: PhaseState, a: int, pid: int, end: int) -> Segment:
    """The segment below a: from the first predecessor of a whose bud
    chain, as of petal `pid`, stops at `end`, down to `end`.  Such a
    predecessor is live, as its end is."""
    for p in s.preds[a]:
        if _anchor(s, p, pid) == end:
            return (p, s.minlevel(a) - 1, end, pid, False)
    raise ExtractionError(f"no predecessor of {a} reaches {end} as of petal {pid}")


def _down(s: PhaseState, x: int, level: int, chain: list[int], pid: int) -> list[Item]:
    """Items for the path from x, entered at `level`, down its bud chain to
    chain[0], then hop by hop along the contracted descent `chain` to
    chain[-1] (excluded)."""
    items: list[Item] = [(x, level, chain[0], pid, False)]
    for a, y in zip(chain, chain[1:]):
        items += [a, _hop(s, a, pid, y)]
    return items


def _inner(s: PhaseState, x: int, pid: int) -> list[Item]:
    """Items for [x, bud) for an inner member x of petal `pid`: up x's
    colour tree to its bridge end, across the bridge, down the other
    colour's tree to the bud."""
    petal = s.petals[pid]
    t = s.color[x]
    c, d = petal.bridge[t], petal.bridge[1 - t]
    side = bridge_side(s, c, d)
    p = petal.bud_parent[1 - t]
    to_bud = [petal.bud] if p is None else tree_path(s.tree_parent, p) + [petal.bud]
    climb = _down(s, c, side[c], tree_path(s.tree_parent, x), pid)
    return [x] + _flip(climb) + _down(s, d, side[d], to_bud, pid)


def _walk(s: PhaseState, items: list[Item]) -> list[int]:
    """Expand work items into the vertices they stand for, in order: each
    segment opens x's petal down to its bud, then goes on down the chain."""
    out: list[int] = []
    stack = items[::-1]
    while stack:
        item = stack.pop()
        if type(item) is int:
            out.append(item)
            continue
        x, level, low, pid, rev = item
        if x == low:
            continue
        q = s.petal_of[x]
        if q is None or q >= pid:
            raise ExtractionError(f"bud chain of {x} misses {low}")
        bud = s.petals[q].bud
        if level == s.minlevel(x):
            # A chain stops in q or at its bud as of petal q exactly when
            # it stops at the bud as of q + 1: the bud was then a bud*.
            sub = [x, _hop(s, x, q + 1, bud)]
        elif level == s.maxlevel(x):
            sub = _inner(s, x, q)
        else:
            raise ExtractionError(f"vertex {x} has no level {level}")
        sub.append((bud, s.minlevel(bud), low, pid, False))
        stack.extend(reversed(_flip(sub) if rev else sub))
    return out


def extract_path(s: PhaseState, outcome: TwoPaths, bridge: tuple[int, int]) -> list[int]:
    """Recover the augmenting path certified by a TwoPaths outcome of the
    DDFS from the bridge's ends (u, v), red at u's bud*, as its vertex
    list."""
    u, v = bridge
    side = bridge_side(s, u, v)
    red, green = (
        _down(s, end, side[end], descent, len(s.petals)) + [descent[-1]]
        for end, descent in ((u, outcome.red_path), (v, outcome.green_path))
    )
    path = _walk(s, _flip(red) + green)
    free_ends = not (s.m.is_matched(path[0]) or s.m.is_matched(path[-1]))
    if len(path) - 1 != side[u] + side[v] + 1 or not free_ends:
        raise ExtractionError(f"no augmenting path through bridge {(u, v)}")
    return path


def recursive_remove(s: PhaseState, seed: set[int]) -> None:
    """Remove the seed vertices, then cascade: a vertex goes once its last
    live predecessor has gone.  w's successors are the z with w in
    preds[z]; for a classified edge (w, z), with side its `bridge_side`,
    that holds iff side[w] + 1 is z's minlevel.  Scanned from w, the edge
    is a prop iff z has no level below side[w] + 1; scanned from z, the
    odd levels of a matched edge differ by an even number, and unmatched,
    side[w] >= side[z], or w would have scanned it first.  Removal runs
    after MIN at some level i, when every minlevel is at most i + 1 and
    every edge on a side level at most i is classified, so the walk reads
    w's neighbours in `adj[w]` and no scan mark.  `pred_gone[z]` counts
    the removed predecessors of z, and z goes when the count reaches
    len(preds[z]): z has no repeated predecessor, and each removed w is
    walked once.

    Once l_m = 2i+1 is known the cascade stops at minlevel top = i: the
    phase ends after level i's MAX, whose DDFS runs and path extractions
    read `removed` at minlevels <= i only.  No vertex above top is
    removed and no vertex at top is walked from.  While l_m is UNSET,
    top lies above every level and nothing is capped.

    Invariant: while a petal's bud is live, its members are live and each
    has a live predecessor whose bud chain, as of the petal, stops at a
    member or the bud; MAX and path extraction rely on it.  At formation
    the DDFS has visited live vertices only, and each member either used
    up its out-edges, whose targets (bud*s of live predecessors) were all
    visited, or lies on red's final root-to-bud path, where its tree
    child is one.  Later a path through a member opens its petal and runs
    on to the bud, so a seeded member takes its bud along.  Were some
    member w cascaded away while its bud is live, take the first: its
    predecessor p above has a bud chain ending at a live vertex, and each
    vertex back up the chain is a member of a petal with a live bud, so
    live, p included; yet w goes only after all its predecessors.  By the
    same chain, a vertex whose bud chain stops at a live vertex is live:
    a removed vertex has a removed bud*."""
    adj, removed, preds, gone = s.g.adj, s.removed, s.preds, s.pred_gone
    even, odd, minl, partner = s.evenlevel, s.oddlevel, s.minlevels, s.m.partner
    top = (s.l_m - 1) // 2
    stack = [v for v in seed if not removed[v]]
    for v in stack:
        removed[v] = True
    while stack:
        w = stack.pop()
        if minl[w] >= top:
            continue
        ew, ow, mate = even[w], odd[w], partner[w]
        for z in adj[w]:
            lz = minl[z]
            if removed[z] or lz > top or (ow if z == mate else ew) + 1 != lz:
                continue
            k = gone.get(z, 0) + 1
            if k == len(preds[z]):
                removed[z] = True
                stack.append(z)
            else:
                gone[z] = k
