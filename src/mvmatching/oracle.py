"""Brute-force structural oracle.

Every quantity here is computed by definitional enumeration over simple
alternating paths, never by the phase engine's algorithm.  Exponential
time; hard size guards protect against accidental large inputs.

`compute_profile` enumerates once, keeping per vertex and parity the
shortest length so far and the paths of that length: the levels, and the
minimal alternating paths, those whose length is their end vertex's
evenlevel or oddlevel.  Props, bases, blossoms, supports and the
structural theorems all read those paths; an edge is named by its ends.
Every cross-check of the engine starts from `greedy_matching` and
compares levels with `OracleProfile.level_mismatches`; neither reads
more than it is given, so the oracle stays apart from the engine.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .graph import Graph, MatchingState

INF = math.inf

LEVEL_GUARD_N = 14
MATCHING_GUARD_N = 14
MATCHING_GUARD_M = 24


class OracleGuardError(ValueError):
    """Raised when an input exceeds the oracle's exhaustive-search guards."""


def check_level_guard(n: int) -> None:
    """Refuse a graph of n vertices that the level enumeration cannot take."""
    if n > LEVEL_GUARD_N:
        raise OracleGuardError(f"n = {n} exceeds oracle guard {LEVEL_GUARD_N}")


def greedy_matching(g: Graph, seed: int, accept: float = 0.7) -> MatchingState:
    """Seeded partial matching: each shuffled edge with free ends is taken at odds `accept`."""
    rng = random.Random(seed)
    edges = list(g.edges)
    rng.shuffle(edges)
    m = MatchingState(g.n)
    for u, v in edges:
        if not m.is_matched(u) and not m.is_matched(v) and rng.random() < accept:
            m.partner[u], m.partner[v] = v, u
    return m


def _iter_alternating_paths(g: Graph, m: MatchingState, start: int) -> Iterator[list[int]]:
    """Yield every simple alternating path from unmatched vertex `start`.

    Paths are vertex lists beginning with [start]; the first edge is
    necessarily unmatched since `start` has no partner.
    """
    path = [start]
    in_path = {start}

    def extend(last_matched: Optional[bool]) -> Iterator[list[int]]:
        yield list(path)
        v = path[-1]
        for w in g.adj[v]:
            if w in in_path:
                continue
            matched = m.partner[v] == w
            if last_matched is not None and matched == last_matched:
                continue
            path.append(w)
            in_path.add(w)
            yield from extend(matched)
            path.pop()
            in_path.remove(w)

    yield from extend(None)


def _minimal_paths(
    g: Graph, m: MatchingState
) -> tuple[list[float], list[float], list[dict[float, list[list[int]]]]]:
    """Evenlevels, oddlevels and minimal paths from one enumeration that
    keeps, per vertex and parity, the shortest length so far and its paths."""
    check_level_guard(g.n)
    shortest = [[INF, INF] for _ in range(g.n)]
    found: list[list[list[list[int]]]] = [[[], []] for _ in range(g.n)]
    for f in range(g.n):
        if m.is_matched(f):
            continue
        for p in _iter_alternating_paths(g, m, f):
            v, length = p[-1], len(p) - 1
            best, parity = shortest[v], length % 2
            if length < best[parity]:
                best[parity], found[v][parity] = length, []
            if length == best[parity]:
                found[v][parity].append(p)
    even, odd = [s[0] for s in shortest], [s[1] for s in shortest]
    return even, odd, [{e: pe, o: po} for (e, o), (pe, po) in zip(shortest, found)]


def brute_levels(g: Graph, m: MatchingState) -> tuple[list[float], list[float]]:
    """Exact evenlevel/oddlevel per vertex by exhaustive path enumeration."""
    even, odd, _ = _minimal_paths(g, m)
    return even, odd


def brute_max_matching(g: Graph) -> tuple[int, MatchingState]:
    """Exact maximum matching cardinality with one witness matching."""
    if not (g.n <= MATCHING_GUARD_N or g.m <= MATCHING_GUARD_M):
        raise OracleGuardError(
            f"n = {g.n}, m = {g.m} exceed guards (n <= {MATCHING_GUARD_N} or m <= {MATCHING_GUARD_M})"
        )
    verts = [v for v in range(g.n) if g.degree(v) > 0]
    index = {v: i for i, v in enumerate(verts)}
    nbr_mask = [0] * len(verts)
    for i, v in enumerate(verts):
        for w in g.adj[v]:
            nbr_mask[i] |= 1 << index[w]
    memo: dict[int, int] = {}

    def best(mask: int) -> int:
        if mask == 0:
            return 0
        cached = memo.get(mask)
        if cached is not None:
            return cached
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        live = nbr_mask[i] & mask
        result = best(rest)
        while live:
            j = (live & -live).bit_length() - 1
            live &= live - 1
            result = max(result, 1 + best(rest & ~(1 << j)))
        memo[mask] = result
        return result

    full = (1 << len(verts)) - 1
    size = best(full)

    # Replay the memoized recursion to recover one witness.
    pairs: list[tuple[int, int]] = []
    mask = full
    while mask:
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        if best(mask) == best(rest):
            mask = rest
            continue
        live = nbr_mask[i] & mask
        while live:
            j = (live & -live).bit_length() - 1
            live &= live - 1
            if best(mask) == 1 + best(rest & ~(1 << j)):
                pairs.append((verts[i], verts[j]))
                mask = rest & ~(1 << j)
                break
    return size, MatchingState(g.n, pairs)


@dataclass
class OracleProfile:
    """Exhaustively computed structural data for one (graph, matching) pair.

    Only `compute_profile` makes one, so every profile is within the
    level guard.  `min_paths[v]` maps each of v's two levels to the
    alternating paths of that length from a free vertex to v, in
    enumeration order; an infinite level maps to no paths.  `props`
    holds each prop as its ends (u, v), u < v; every other edge is a
    bridge.
    """

    g: Graph
    m: MatchingState
    evenlevel: list[float]
    oddlevel: list[float]
    tenacity: list[float]
    props: frozenset[tuple[int, int]]
    t_m: float
    l_m: float
    min_paths: list[dict[float, list[list[int]]]]
    base_sets: dict[int, frozenset[int]] = field(default_factory=dict)
    blossoms: dict[tuple[int, int], tuple[frozenset[int], frozenset[int]]] = field(
        default_factory=dict
    )

    def minlevel(self, v: int) -> float:
        return min(self.evenlevel[v], self.oddlevel[v])

    def maxlevel(self, v: int) -> float:
        return max(self.evenlevel[v], self.oddlevel[v])

    def is_outer(self, v: int) -> bool:
        return self.evenlevel[v] < self.oddlevel[v]

    def is_eligible_tenacity(self, t: float) -> bool:
        return t != INF and self.t_m <= t < self.l_m

    def eligible_vertices(self) -> list[int]:
        return [v for v in range(self.g.n) if self.is_eligible_tenacity(self.tenacity[v])]

    def edge_tenacity(self, u: int, v: int) -> float:
        """Tenacity of edge (u, v), its ends in either order: their
        oddlevels plus one if it is matched, else their evenlevels plus one."""
        level = self.oddlevel if self.m.partner[u] == v else self.evenlevel
        return level[u] + level[v] + 1

    def level_mismatches(self, evenlevel: Sequence[float], oddlevel: Sequence[float]) -> list[int]:
        """The vertices of tenacity below l_m whose given levels differ from
        the oracle's, which are finite there, so any stand-in for inf differs."""
        rows = zip(self.tenacity, zip(evenlevel, oddlevel), zip(self.evenlevel, self.oddlevel))
        return [v for v, (t, given, ours) in enumerate(rows) if t < self.l_m and given != ours]


def _path_edges(p: list[int]) -> list[tuple[int, int]]:
    """The edges along vertex path p, in order, each as (a, b), a < b."""
    return [(a, b) if a < b else (b, a) for a, b in zip(p, p[1:])]


def compute_profile(g: Graph, m: MatchingState) -> OracleProfile:
    """Compute an OracleProfile, base sets and blossoms included."""
    even, odd, min_paths = _minimal_paths(g, m)
    free = [f for f in range(g.n) if not m.is_matched(f)]
    tenacity = [even[v] + odd[v] for v in range(g.n)]
    finite_ts = [t for t in tenacity if t != INF]
    t_m = min(finite_ts) if finite_ts else INF
    # An odd alternating path that ends at a free vertex augments.
    l_m = min((odd[f] for f in free), default=INF)
    # A prop is the last edge of some minlevel path; every other edge is a bridge.
    props = frozenset(
        e
        for v in range(g.n)
        for p in min_paths[v][min(even[v], odd[v])]
        for e in _path_edges(p[-2:])
    )
    profile = OracleProfile(
        g=g,
        m=m,
        evenlevel=even,
        oddlevel=odd,
        tenacity=tenacity,
        props=props,
        t_m=t_m,
        l_m=l_m,
        min_paths=min_paths,
    )
    for v in profile.eligible_vertices():
        profile.base_sets[v] = _base_set(profile, v)
    profile.blossoms = brute_blossoms(profile)
    return profile


def _base_set(profile: OracleProfile, v: int) -> frozenset[int]:
    """The set B(v): over all minimal (evenlevel and oddlevel) paths p to v,
    the highest vertex on p of tenacity exceeding tenacity(v).

    Singleton for every eligible vertex; may be empty when some minimal
    path carries no higher-tenacity vertex.
    """
    t_v = profile.tenacity[v]
    out: set[int] = set()
    for paths in profile.min_paths[v].values():
        for p in paths:
            candidate = None
            for u in p:
                if u != v and profile.tenacity[u] > t_v:
                    candidate = u  # last such vertex = furthest from the start
            if candidate is None:
                return frozenset()
            out.add(candidate)
    return frozenset(out)


def _base_of(profile: OracleProfile, v: int) -> Optional[int]:
    s = profile.base_sets.get(v)
    if s and len(s) == 1:
        return next(iter(s))
    return None


def brute_blossoms(
    profile: OracleProfile,
) -> dict[tuple[int, int], tuple[frozenset[int], frozenset[int]]]:
    """Blossoms computed two independent ways.

    For each candidate (b, t) the first set follows the recursive
    definition (S_{b,t} plus nested blossoms of outer members and the
    base); the second collects vertices whose iterated base chain first
    exceeds tenacity t exactly at b.
    """
    n = profile.g.n
    eligible_ts = sorted({int(profile.tenacity[v]) for v in profile.eligible_vertices()})
    s_sets: dict[tuple[int, int], set[int]] = {}
    for v in profile.eligible_vertices():
        b = _base_of(profile, v)
        if b is None:
            continue
        s_sets.setdefault((b, int(profile.tenacity[v])), set()).add(v)

    memo: dict[tuple[int, int], frozenset[int]] = {}

    def recursive_blossom(b: int, t: int) -> frozenset[int]:
        if t < 3:
            return frozenset()
        key = (b, t)
        cached = memo.get(key)
        if cached is not None:
            return cached
        members = set(s_sets.get(key, set()))
        for v in members | {b}:
            if profile.is_outer(v):
                members |= recursive_blossom(v, t - 2)
        result = frozenset(members)
        memo[key] = result
        return result

    def base_above(v: int, t: int) -> Optional[int]:
        cur = v
        for _ in range(n + 1):
            if profile.tenacity[cur] > t:
                return cur
            nxt = _base_of(profile, cur)
            if nxt is None:
                return None
            cur = nxt
        return None

    out: dict[tuple[int, int], tuple[frozenset[int], frozenset[int]]] = {}
    for t in eligible_ts:
        bases = {
            b
            for b in range(n)
            if profile.tenacity[b] > t and profile.is_outer(b)
        }
        for b in bases:
            rec = recursive_blossom(b, t)
            alt = frozenset(
                v
                for v in range(n)
                if profile.tenacity[v] != INF
                and profile.tenacity[v] <= t
                and base_above(v, t) == b
            )
            if rec or alt:
                out[(b, t)] = (rec, alt)
    return out


def brute_support(profile: OracleProfile, bridge: tuple[int, int]) -> frozenset[int]:
    """Support of a bridge, given as its ends in either order: vertices of
    the bridge's tenacity having a maxlevel path through the bridge edge."""
    u, v = bridge
    edge, t = (min(u, v), max(u, v)), profile.edge_tenacity(u, v)
    return frozenset(
        w
        for w in range(profile.g.n)
        if profile.tenacity[w] == t
        and any(edge in _path_edges(p) for p in profile.min_paths[w][profile.maxlevel(w)])
    )


def check_structural_theorems(profile: OracleProfile) -> list[str]:
    """Verify the structural theorems by enumeration; returns violations."""
    g, m = profile.g, profile.m
    violations: list[str] = []

    # (a) BFS-honesty along every minimal path.
    for v in range(g.n):
        t_v = profile.tenacity[v]
        for paths in profile.min_paths[v].values():
            for p in paths:
                for k, u in enumerate(p):
                    t_u = profile.tenacity[u]
                    if t_u < t_v:
                        continue
                    expected = profile.evenlevel[u] if k % 2 == 0 else profile.oddlevel[u]
                    if k != expected:
                        violations.append(
                            f"honesty: path {p} to {v}: prefix {k} to {u} "
                            f"!= level {expected}"
                        )
                    if t_u > t_v and k != profile.minlevel(u):
                        violations.append(
                            f"honesty: path {p} to {v}: higher-tenacity {u} entered "
                            f"at {k} != minlevel {profile.minlevel(u)}"
                        )

    # (b) Matched-edge tenacity equality (below l_m).
    for u, v in g.edges:
        if m.partner[u] != v:
            continue
        tu, tv, t_e = profile.tenacity[u], profile.tenacity[v], profile.edge_tenacity(u, v)
        if tu != INF and tv != INF and max(tu, tv) < profile.l_m:
            if not (tu == tv == t_e):
                violations.append(
                    f"matched edge ({u},{v}): tenacities {tu}, {tv}, edge {t_e} differ"
                )

    # (c) Singleton base for every eligible vertex.
    for v in profile.eligible_vertices():
        s = profile.base_sets[v]
        if len(s) != 1:
            violations.append(f"base of eligible vertex {v} is {sorted(s)}, not a singleton")

    # (d) Exactly one same-tenacity bridge on every maxlevel path.
    for v in range(g.n):
        t_v = profile.tenacity[v]
        if not (profile.is_eligible_tenacity(t_v) or t_v == profile.l_m):
            continue
        for p in profile.min_paths[v][profile.maxlevel(v)]:
            count = sum(
                1
                for e in _path_edges(p)
                if e not in profile.props and profile.edge_tenacity(*e) == t_v
            )
            if count != 1:
                violations.append(
                    f"maxlevel path {p} of {v} has {count} bridges of tenacity {t_v}"
                )

    # (e) Laminarity of blossoms.
    blossom_sets = [(key, sets[0]) for key, sets in profile.blossoms.items()]
    for i in range(len(blossom_sets)):
        for j in range(i + 1, len(blossom_sets)):
            a, b = blossom_sets[i][1], blossom_sets[j][1]
            if a & b and not (a <= b or b <= a):
                violations.append(
                    f"blossoms {blossom_sets[i][0]} and {blossom_sets[j][0]} cross"
                )

    # (f) Per-start even/odd path availability agrees for eligible vertices.
    for v in profile.eligible_vertices():
        even_starts = {p[0] for p in profile.min_paths[v][profile.evenlevel[v]]}
        odd_starts = {p[0] for p in profile.min_paths[v][profile.oddlevel[v]]}
        for f in sorted(even_starts ^ odd_starts):
            violations.append(
                f"vertex {v}: even path from {f}: {f in even_starts}, odd: {f in odd_starts}"
            )

    # (g) Bridge endpoint cases.
    for u, v in g.edges:
        if (u, v) in profile.props:
            continue
        t_e = profile.edge_tenacity(u, v)
        if t_e == INF or t_e > profile.l_m:
            continue
        if m.partner[u] == v:
            for x in (u, v):
                if profile.is_outer(x):
                    violations.append(f"matched bridge ({u},{v}): endpoint {x} is outer")
        else:
            for x in (u, v):
                t_x = profile.tenacity[x]
                if profile.is_outer(x):
                    if not t_x <= t_e:
                        violations.append(
                            f"unmatched bridge ({u},{v}): outer {x} tenacity {t_x} > {t_e}"
                        )
                else:
                    if not t_x < t_e:
                        violations.append(
                            f"unmatched bridge ({u},{v}): inner {x} tenacity {t_x} >= {t_e}"
                        )
    return violations
