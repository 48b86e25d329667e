"""Shared fixtures and reference analyses for the test suite.

Everything here is deliberately independent of the engine's internals:
named graphs are built edge-by-edge, layered views are plain dicts, the
DDFS reference analysis enumerates paths exhaustively, the engine's
work and bridge filing are read from its `mvtrace` events, and its
petal classes are read from a finished phase's petal records.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import random
from collections import Counter
from typing import Iterator, Optional

from mvmatching.ddfs import GREEN, RED, Bottleneck, DdfsOutcome, run_ddfs
from mvmatching.graph import Graph, MatchingState, augment_in_place, check_alternating
from mvmatching.phase import UNSET, PhaseState, run_phase


# ---------------------------------------------------------------------------
# Cyclic GC


@contextlib.contextmanager
def gc_collections() -> Iterator[list[int]]:
    """Record the generation of each cyclic GC collection started inside
    the block, in order."""
    started: list[int] = []

    def record(phase: str, info: dict) -> None:
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(record)
    try:
        yield started
    finally:
        gc.callbacks.remove(record)


# ---------------------------------------------------------------------------
# Named graphs


def p4() -> tuple[Graph, MatchingState]:
    """Path 0-1-2-3 with the middle edge matched."""
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    return g, MatchingState(4, [(1, 2)])


def triangle() -> tuple[Graph, MatchingState]:
    """f=0 unmatched; u=1, v=2 matched to each other."""
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    return g, MatchingState(3, [(1, 2)])


def k4() -> Graph:
    return Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def c5() -> Graph:
    return Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def barbell() -> Graph:
    """Triangles 1-2-3 and 0-4-5 joined by the edge (0, 1); no vertex has
    degree 1.  In this edge order the greedy seed matches (0, 5) and
    (2, 3), so one phase forms the petal {2, 3} with bud 1 and then finds
    the augmenting path 1-0-5-4."""
    return Graph.from_edges(
        6, [(0, 5), (2, 3), (1, 2), (4, 5), (0, 1), (1, 3), (0, 4)]
    )


def deferred_bridge_graph() -> tuple[Graph, MatchingState]:
    """A five-cycle hanging off vertex 0 plus an arm 7-5-6 reaching into it.

    Vertices 0..4 form the cycle 0-1-2-3-4-0 with (1,2) and (3,4) matched;
    the unmatched edge (6,1) is seen by the level search before vertex 1's
    evenlevel exists, so its tenacity (7) only becomes known once the
    cycle's petal forms.  The single augmenting path is 7-5-6-1-2-3-4-0.
    """
    g = Graph.from_edges(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (7, 5), (5, 6), (6, 1)],
    )
    return g, MatchingState(8, [(1, 2), (3, 4), (5, 6)])


def two_bridges_graph() -> tuple[Graph, MatchingState]:
    """Two tenacity-7 bridges; only the second yields an augmenting path.

    Vertex 0 fans out through two matched arms (1,2) and (4,5) to the
    matched pair (3,6), whose bridge bottlenecks back at 0 and forms a
    petal.  The second bridge, matched pair (7,8), escapes through
    2-1-0 on one side and the arm 10-9-11 on the other, giving the single
    augmenting path 0-1-2-7-8-10-9-11.
    """
    g = Graph.from_edges(
        12,
        [
            (0, 1), (1, 2), (2, 3),
            (0, 4), (4, 5), (5, 6),
            (3, 6),
            (2, 7), (7, 8), (8, 10), (10, 9), (9, 11),
        ],
    )
    return g, MatchingState(12, [(1, 2), (4, 5), (3, 6), (7, 8), (9, 10)])


def empty_support_graph() -> tuple[Graph, MatchingState]:
    """A tenacity-13 bridge both of whose roots contract to the same bud.

    The two-arm gadget around vertex 0 forms a petal with bud 0 from the
    tenacity-7 bridge (3,6); the extra edge (1,4) then has tenacity 13
    but its DDFS roots coincide at 0, so its support is empty and no
    augmenting path exists.
    """
    g = Graph.from_edges(
        7,
        [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (3, 6), (1, 4)],
    )
    return g, MatchingState(7, [(1, 2), (4, 5), (3, 6)])


def nested_blossom_graph() -> tuple[Graph, MatchingState]:
    """Two nested blossoms based at 0: {1,2} at tenacity 3, plus {3,4}
    at tenacity 7."""
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 1)])
    return g, MatchingState(5, [(1, 2), (3, 4)])


def inner_matched_path(n: int) -> tuple[Graph, MatchingState]:
    """Path 0-1-...-(n-1), n even, with its inner edges (1,2), (3,4), ...
    matched: the single augmenting path is the whole graph."""
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    return g, MatchingState(n, [(i, i + 1) for i in range(1, n - 2, 2)])


def triangle_chain(k: int) -> tuple[Graph, MatchingState]:
    """k triangles, each an apex x and a matched pair (y, z), linked by
    z-w unmatched and w-x' matched to the next apex; the first apex and
    a last vertex t hanging off the last z are free.  The search from
    the first apex turns each triangle of the first half into a petal
    (the search from t reaches the second half first), and the single
    augmenting path t-z-y-x-w-... enters each of those petals at its
    maxlevel, crossing it through its bridge."""
    edges: list[tuple[int, int]] = []
    pairs: list[tuple[int, int]] = []
    x = 0
    for j in range(k):
        y, z, w = 4 * j + 1, 4 * j + 2, 4 * j + 3
        edges += [(x, y), (x, z), (y, z), (z, w)]
        pairs.append((y, z))
        if j < k - 1:
            x = w + 1
            edges.append((w, x))
            pairs.append((w, x))
    return Graph.from_edges(4 * k, edges), MatchingState(4 * k, pairs)


def nested_blossoms(depth: int) -> tuple[Graph, MatchingState]:
    """`depth` petals, each bud inside the next, crossed by one augmenting
    path of 10 * depth + 3 edges; about 2 * depth**2 vertices.

    With D = depth, a stem 0-1=2-...=2D ('=' matched) starts at the free
    vertex 0.  The innermost petal is a triangle on 2D with the matched
    pair (x, y).  Outer petal k = 1..D-1 adds a matched pair (p, q), p
    hanging off the previous petal's exit vertex, and an arm of matched
    pairs climbing from the stem vertex b = 2D - 2k to the exit's level
    and joined to q: its bridge (p, q) bottlenecks at b, so the previous
    bud b + 2 is one of its members.  A tail of 4D matched pairs hangs
    off x and ends at a second free vertex."""
    d = depth
    fresh = itertools.count(2 * d + 1)
    edges = [(i, i + 1) for i in range(2 * d)]
    pairs = [(2 * j - 1, 2 * j) for j in range(1, d + 1)]

    def matched_chain(start: int, count: int) -> int:
        """Hang `count` matched pairs off `start`; return the last vertex."""
        prev = start
        for _ in range(count):
            u, w = next(fresh), next(fresh)
            edges.extend([(prev, u), (u, w)])
            pairs.append((u, w))
            prev = w
        return prev

    x, y = next(fresh), next(fresh)
    edges += [(2 * d, x), (2 * d, y), (x, y)]
    pairs.append((x, y))
    exit_, level = x, 2 * d + 2
    for k in range(1, d):
        b = 2 * d - 2 * k
        p, q = next(fresh), next(fresh)
        edges += [(exit_, p), (p, q), (matched_chain(b, (level - b) // 2), q)]
        pairs.append((p, q))
        exit_, level = p, level + 2
    edges.append((matched_chain(x, 4 * d), next(fresh)))
    n = next(fresh)
    return Graph.from_edges(n, edges), MatchingState(n, pairs)


def planted_components(
    sizes: list[int], chords: int, seed: int
) -> tuple[Graph, MatchingState]:
    """Disjoint connected components of the given sizes, with a maximum
    matching that leaves one free vertex in each odd component and none
    in an even one.  Each component is a path with every other edge
    matched from its start, plus up to `chords` random edges inside it;
    the vertex names and the edge order are shuffled by `seed`."""
    rng = random.Random(seed)
    n = sum(sizes)
    names = list(range(n))
    rng.shuffle(names)
    edges: set[tuple[int, int]] = set()
    pairs = []
    start = 0
    for size in sizes:
        comp = names[start:start + size]
        start += size
        for k in range(size - 1):
            edges.add((min(comp[k], comp[k + 1]), max(comp[k], comp[k + 1])))
            if k % 2 == 0:
                pairs.append((comp[k], comp[k + 1]))
        for _ in range(chords if size > 2 else 0):
            u, v = rng.sample(comp, 2)
            edges.add((min(u, v), max(u, v)))
    order = sorted(edges)
    rng.shuffle(order)
    return Graph.from_edges(n, order), MatchingState(n, pairs)


def free_per_component(g: Graph, m: MatchingState) -> list[int]:
    """How many vertices m leaves free in each connected component of g
    that holds one, found by union-find over `g.edges`, apart from the
    engine's searches of the adjacency."""
    parent = list(range(g.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in g.edges:
        parent[find(u)] = find(v)
    return list(Counter(find(v) for v in range(g.n) if m.partner[v] is None).values())


def all_matchings(g: Graph) -> Iterator[MatchingState]:
    """Every matching of g, each edge either taken or not, in edge order."""

    def extend(k: int, pairs: list[tuple[int, int]], used: set[int]):
        if k == g.m:
            yield MatchingState(g.n, pairs)
            return
        yield from extend(k + 1, pairs, used)
        u, v = g.edges[k]
        if u not in used and v not in used:
            yield from extend(k + 1, pairs + [(u, v)], used | {u, v})

    return extend(0, [], set())


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labelled graph on n vertices, its edges in sorted order."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [p for k, p in enumerate(pairs) if mask >> k & 1])


def small_instances(max_n: int) -> Iterator[tuple[Graph, MatchingState]]:
    """Every (graph, matching) pair of `all_graphs` and `all_matchings`
    on 1..max_n vertices."""
    for n in range(1, max_n + 1):
        for g in all_graphs(n):
            for m in all_matchings(g):
                yield g, m


def solve_phases(g: Graph, m: MatchingState) -> Iterator[tuple[PhaseState, list[str]]]:
    """Each phase of a solve from a copy of m, with its trace, before its
    paths are applied; the certifying phase comes last."""
    m = m.copy()
    while True:
        lines: list[str] = []
        s = run_phase(g, m, trace=lines.append)
        yield s, lines
        if not s.paths:
            return
        for path in s.paths:
            augment_in_place(m, g, path)


def path_set_faults(s: PhaseState, profile) -> list[str]:
    """How the paths of a finished phase `s` fail to be augmenting, of
    length l_m, vertex-disjoint and maximal: no augmenting path of length
    l_m misses them all.  As l_m is the least oddlevel of a free vertex,
    each such path is in the oracle's `profile.min_paths` of its free end."""
    g, m, l_m = s.g, s.m, s.l_m
    faults: list[str] = []
    used: set[int] = set()
    for p in s.paths:
        ends = (m.is_matched(p[0]), m.is_matched(p[-1]))
        if len(p) - 1 != l_m or check_alternating(g, m, p) or any(ends) or not used.isdisjoint(p):
            faults.append(f"path {p} is not a disjoint augmenting path of length {l_m}")
        used.update(p)
    if not s.paths:
        return faults
    if l_m != profile.l_m:
        faults.append(f"l_m {l_m} != oracle {profile.l_m}")
    for x in range(g.n):
        if not m.is_matched(x):
            missed = [p for p in profile.min_paths[x].get(l_m, []) if used.isdisjoint(p)]
            faults += [f"missed disjoint augmenting path {p}" for p in missed]
    return faults


def filed_bridges(lines: list[str]) -> list[tuple[int, int, int, int]]:
    """(u, v, tenacity, level) for each `bridge u v tenacity t` event of a
    phase trace, where level is that of the last `level` line before it."""
    filed: list[tuple[int, int, int, int]] = []
    level = -1
    for line in lines:
        words = line.split()
        if words[0] == "level":
            level = int(words[1])
        elif words[0] == "bridge":
            filed.append((int(words[1]), int(words[2]), int(words[4]), level))
    return filed


def queued_bridges(s: PhaseState) -> list[tuple[int, int]]:
    """The bridges queued in `s.br`, each as its ends (a, b), a < b: every
    queue holds the two ends of each of its bridges in turn."""
    return [(q[k], q[k + 1]) for q in s.br.values() for k in range(0, len(q), 2)]


def classified(s: PhaseState, u: int, v: int) -> bool:
    """Whether MIN has classified the edge (u, v), read from the per-vertex
    scan marks: the matched edge once either end's odd scan (bit 2) has
    started, an unmatched edge once either end's even scan (bit 1) has."""
    bit = 2 if s.m.partner[u] == v else 1
    return bool((s.scanned[u] | s.scanned[v]) & bit)


def is_prop(s: PhaseState, u: int, v: int) -> bool:
    """Whether MIN made the edge (u, v) a prop: one end lists the other in
    its `preds`.  A classified edge that is no prop is a bridge."""
    return u in s.preds[v] or v in s.preds[u]


def petal_members(s) -> list[set[int]]:
    """Each petal's members in a phase state `s`, indexed like `s.petals`:
    the vertices whose `petal_of` names the petal."""
    members: list[set[int]] = [set() for _ in s.petals]
    for w, q in enumerate(s.petal_of):
        if q is not None:
            members[q].add(w)
    return members


def oracle_base_classes(profile) -> dict[tuple[int, int], set[int]]:
    """The oracle's sets S_{b,t}: vertices of tenacity t with the single
    base b, keyed by (b, t)."""
    classes: dict[tuple[int, int], set[int]] = {}
    for v, bases in profile.base_sets.items():
        if len(bases) == 1:
            key = (next(iter(bases)), int(profile.tenacity[v]))
            classes.setdefault(key, set()).add(v)
    return classes


def engine_base_classes(s, l_m: float) -> dict[tuple[int, int], set[int]]:
    """The same sets from a finished phase state `s`: each vertex of
    tenacity t < l_m inside a petal, keyed by its base at its own
    tenacity, the end of its bud chain through petals of tenacity t.  A
    petal of higher tenacity can take in that base later, which moves
    bud*(v) but not the base."""
    classes: dict[tuple[int, int], set[int]] = {}
    for v in range(s.g.n):
        t = s.evenlevel[v] + s.oddlevel[v]
        if UNSET in (s.evenlevel[v], s.oddlevel[v]) or t >= l_m:
            continue
        b = v
        while s.petal_of[b] is not None and s.evenlevel[b] + s.oddlevel[b] == t:
            b = s.petals[s.petal_of[b]].bud
        if b != v:
            classes.setdefault((b, int(t)), set()).add(v)
    return classes


# ---------------------------------------------------------------------------
# Layered views and the exhaustive DDFS reference analysis


class DictView:
    """LayeredView backed by plain dicts; used for direct DDFS tests."""

    def __init__(self, layers: dict[int, int], outs: dict[int, list[int]]):
        self.layers = layers
        self.outs = outs

    def layer(self, v: int) -> int:
        return self.layers[v]

    def out_edges(self, v: int) -> list[int]:
        return self.outs.get(v, [])


class CountingView:
    """Wraps a layered view and counts the out_edges fetches per vertex."""

    def __init__(self, view: DictView):
        self.view = view
        self.fetches: Counter[int] = Counter()

    def layer(self, v: int) -> int:
        return self.view.layer(v)

    def out_edges(self, v: int) -> list[int]:
        self.fetches[v] += 1
        return self.view.out_edges(v)


def checked_ddfs(view: DictView, r: int, g: int) -> tuple[DdfsOutcome, list[str]]:
    """Run the DDFS and read its work bounds from its trace and its view
    accesses; returns the outcome and every bound it broke: each vertex's
    out-edges fetched at most once, each vertex backtracked at most once
    per tree, and at most one advance or meet per edge of the view."""
    counting = CountingView(view)
    lines: list[str] = []
    out = run_ddfs(counting, r, g, trace=lines.append)
    events = [line.split() for line in lines]
    backtracks = Counter((tree, v) for _, action, tree, v, _ in events if action == "backtrack")
    steps = sum(action in ("advance", "meet") for _, action, *_ in events)
    edges = sum(len(view.out_edges(v)) for v in view.layers)
    broken = [f"out_edges({v}) fetched {c} times" for v, c in counting.fetches.items() if c > 1]
    broken += [f"{t} backtracked {v} {c} times" for (t, v), c in backtracks.items() if c > 1]
    if steps > edges:
        broken.append(f"{steps} advances and meets over {edges} edges")
    return out, broken


def color_sets(out: Bottleneck) -> tuple[set[int], set[int]]:
    """A bottleneck's red and green vertices, the bottleneck excluded."""
    red = {v for v, c in out.color.items() if c == RED and v != out.b}
    green = {v for v, c in out.color.items() if c == GREEN and v != out.b}
    return red, green


def random_layered_view(seed: int, max_n: int = 10) -> tuple[DictView, int, int]:
    """Seeded random layered DAG satisfying the reach-layer-0 requirement,
    plus two root vertices."""
    rng = random.Random(seed)
    n = rng.randint(2, max_n)
    depth = rng.randint(1, max(1, n - 1))
    layers = {0: 0}
    for v in range(1, n):
        layers[v] = rng.randint(0, depth)
    outs: dict[int, list[int]] = {}
    for v in range(n):
        if layers[v] == 0:
            continue
        below = [u for u in range(n) if layers[u] < layers[v]]
        k = rng.randint(1, min(len(below), 3))
        outs[v] = rng.sample(below, k)
    tops = sorted(range(n), key=lambda v: -layers[v])
    r = tops[0]
    g = rng.choice([v for v in range(n) if layers[v] <= layers[r]])
    return DictView(layers, outs), r, g


def all_layered_views(n: int) -> Iterator[tuple[DictView, int, int]]:
    """Every layered view on vertices 0..n-1 whose layers do not fall
    with the vertex number and use each of 0..d, with every ordered
    out-edge list of each vertex above layer 0, and every ordered root
    pair r != g with a root above layer 0."""
    for steps in itertools.product((0, 1), repeat=n - 1):
        layers = [0]
        for step in steps:
            layers.append(layers[-1] + step)
        choices = []
        for v in range(n):
            below = [u for u in range(v) if layers[u] < layers[v]]
            choices.append(
                [list(p) for k in range(1, len(below) + 1) for p in itertools.permutations(below, k)]
                if layers[v] > 0
                else [[]]
            )
        for outs in itertools.product(*choices):
            view = DictView(dict(enumerate(layers)), dict(enumerate(outs)))
            for r, g in itertools.permutations(range(n), 2):
                if layers[r] > 0 or layers[g] > 0:
                    yield view, r, g


def all_descents(view: DictView, start: int) -> list[list[int]]:
    """Every path from start down to a layer-0 vertex."""
    paths: list[list[int]] = []
    stack: list[int] = [start]

    def go() -> None:
        v = stack[-1]
        if view.layer(v) == 0:
            paths.append(list(stack))
            return
        for u in view.out_edges(v):
            stack.append(u)
            go()
            stack.pop()

    go()
    return paths


def expected_ddfs(view: DictView, r: int, g: int) -> tuple[str, Optional[int]]:
    """Exhaustive reference outcome: ('empty', None), ('paths', None), or
    ('bottleneck', b) with b the unique highest vertex on every descent
    from both roots."""
    if r == g:
        return ("empty", None)
    red = all_descents(view, r)
    green = all_descents(view, g)
    for pr in red:
        sr = set(pr)
        for pg in green:
            if not (sr & set(pg)):
                return ("paths", None)
    common = set(red[0])
    for p in red[1:] + green:
        common &= set(p)
    assert common, "no disjoint pair and no common vertex"
    b = max(common, key=view.layer)
    return ("bottleneck", b)


def paths_to(view: DictView, start: int, target: Optional[int]) -> list[list[int]]:
    """Every descending path from start ending at target (or at any
    layer-0 vertex when target is None)."""
    paths: list[list[int]] = []
    stack: list[int] = [start]

    def go() -> None:
        v = stack[-1]
        if v == target or (target is None and view.layer(v) == 0):
            paths.append(list(stack))
            return
        for u in view.out_edges(v):
            stack.append(u)
            go()
            stack.pop()

    go()
    return paths


def has_disjoint_pair(
    view: DictView, a: int, b: int, target_a: Optional[int], target_b: Optional[int]
) -> bool:
    """Whether vertex-disjoint descending paths exist from a to target_a
    and from b to target_b (None meaning any layer-0 vertex)."""
    for pa in paths_to(view, a, target_a):
        sa = set(pa)
        for pb in paths_to(view, b, target_b):
            if not (sa & set(pb)):
                return True
    return False
