"""Brute-force structural oracle.

Every quantity here is computed by definitional enumeration over simple
alternating paths, never by the phase engine's algorithm.  Exponential
time; hard size guards protect against accidental large inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .graph import Graph, MatchingState

INF = math.inf

LEVEL_GUARD_N = 14
MATCHING_GUARD_N = 14
MATCHING_GUARD_M = 24


class OracleGuardError(ValueError):
    """Raised when an input exceeds the oracle's exhaustive-search guards."""


def _check_level_guard(g: Graph) -> None:
    if g.n > LEVEL_GUARD_N:
        raise OracleGuardError(f"n = {g.n} exceeds oracle guard {LEVEL_GUARD_N}")


def _iter_alternating_paths(
    g: Graph, m: MatchingState, start: int, max_len: Optional[int] = None
) -> Iterator[list[int]]:
    """Yield every simple alternating path from unmatched vertex `start`.

    Paths are vertex lists beginning with [start]; the first edge is
    necessarily unmatched since `start` has no partner.  `max_len` caps
    the edge count (inclusive).
    """
    path = [start]
    in_path = {start}

    def extend(last_matched: Optional[bool]) -> Iterator[list[int]]:
        yield list(path)
        if max_len is not None and len(path) - 1 >= max_len:
            return
        v = path[-1]
        for w, _eid in g.adj[v]:
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


def _iter_level_paths(
    g: Graph, m: MatchingState, v: int, length: int | float
) -> Iterator[list[int]]:
    """Yield every alternating path of exactly `length` edges from any
    unmatched vertex to v."""
    if length is INF or length == INF:
        return
    length = int(length)
    for f in range(g.n):
        if m.is_matched(f):
            continue
        for p in _iter_alternating_paths(g, m, f, max_len=length):
            if len(p) - 1 == length and p[-1] == v:
                yield p


def brute_levels(g: Graph, m: MatchingState) -> tuple[list[float], list[float]]:
    """Exact evenlevel/oddlevel per vertex by exhaustive path enumeration."""
    _check_level_guard(g)
    even = [INF] * g.n
    odd = [INF] * g.n
    for f in range(g.n):
        if m.is_matched(f):
            continue
        for p in _iter_alternating_paths(g, m, f):
            length = len(p) - 1
            v = p[-1]
            if length % 2 == 0:
                even[v] = min(even[v], length)
            else:
                odd[v] = min(odd[v], length)
    return even, odd


def brute_min_augmenting_length(g: Graph, m: MatchingState) -> float:
    """Minimum augmenting path length l_m, or infinity when none exists."""
    _check_level_guard(g)
    best = INF
    for f in range(g.n):
        if m.is_matched(f):
            continue
        for p in _iter_alternating_paths(g, m, f):
            length = len(p) - 1
            if length >= 1 and length % 2 == 1 and not m.is_matched(p[-1]):
                best = min(best, length)
    return best


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
        for w, _eid in g.adj[v]:
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
    """Exhaustively computed structural data for one (graph, matching) pair."""

    g: Graph
    m: MatchingState
    evenlevel: list[float]
    oddlevel: list[float]
    tenacity: list[float]
    edge_class: list[str]  # 'prop' | 'bridge'
    edge_tenacity: list[float]
    t_m: float
    l_m: float
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


def _compute_props(g: Graph, m: MatchingState, even: list[float], odd: list[float]) -> list[str]:
    """Classify each edge as prop (last edge of some minlevel path) or bridge."""
    is_prop = [False] * g.m
    edge_id = {}
    for eid, (a, b) in enumerate(g.edges):
        edge_id[(a, b)] = eid
        edge_id[(b, a)] = eid
    for v in range(g.n):
        minl = min(even[v], odd[v])
        if minl == INF or minl == 0:
            continue
        for p in _iter_level_paths(g, m, v, minl):
            is_prop[edge_id[(p[-2], p[-1])]] = True
    return ["prop" if f else "bridge" for f in is_prop]


def compute_profile(g: Graph, m: MatchingState) -> OracleProfile:
    """Compute an OracleProfile, base sets and blossoms included."""
    even, odd = brute_levels(g, m)
    tenacity = [even[v] + odd[v] for v in range(g.n)]
    l_m = brute_min_augmenting_length(g, m)
    finite_ts = [t for t in tenacity if t != INF]
    t_m = min(finite_ts) if finite_ts else INF
    edge_class = _compute_props(g, m, even, odd)
    edge_tenacity: list[float] = []
    for u, v in g.edges:
        if m.partner[u] == v:
            edge_tenacity.append(odd[u] + odd[v] + 1)
        else:
            edge_tenacity.append(even[u] + even[v] + 1)
    profile = OracleProfile(
        g=g,
        m=m,
        evenlevel=even,
        oddlevel=odd,
        tenacity=tenacity,
        edge_class=edge_class,
        edge_tenacity=edge_tenacity,
        t_m=t_m,
        l_m=l_m,
    )
    for v in profile.eligible_vertices():
        profile.base_sets[v] = brute_base_set(g, m, profile, v)
    profile.blossoms = brute_blossoms(g, m, profile)
    return profile


def brute_base_set(g: Graph, m: MatchingState, profile: OracleProfile, v: int) -> frozenset[int]:
    """The set B(v): over all minimal (evenlevel and oddlevel) paths p to v,
    the highest vertex on p of tenacity exceeding tenacity(v).

    Singleton for every eligible vertex; may be empty when some minimal
    path carries no higher-tenacity vertex.
    """
    _check_level_guard(g)
    t_v = profile.tenacity[v]
    out: set[int] = set()
    for length in (profile.evenlevel[v], profile.oddlevel[v]):
        for p in _iter_level_paths(g, m, v, length):
            candidate = None
            for u in p:
                if u != v and profile.tenacity[u] > t_v:
                    candidate = u  # last such vertex = furthest from the start
            if candidate is not None:
                out.add(candidate)
            else:
                return frozenset()
    return frozenset(out)


def brute_base(profile: OracleProfile, v: int) -> tuple[str, Optional[frozenset[int]]]:
    """Classify v's base: ('not-eligible', None), ('no-base', None),
    or ('base', set-of-candidates).  `compute_profile` fills `base_sets`
    for every eligible vertex."""
    if not profile.is_eligible_tenacity(profile.tenacity[v]):
        return ("not-eligible", None)
    s = profile.base_sets[v]
    if not s:
        return ("no-base", None)
    return ("base", s)


def _base_of(profile: OracleProfile, v: int) -> Optional[int]:
    s = profile.base_sets.get(v)
    if s and len(s) == 1:
        return next(iter(s))
    return None


def brute_blossoms(
    g: Graph, m: MatchingState, profile: OracleProfile
) -> dict[tuple[int, int], tuple[frozenset[int], frozenset[int]]]:
    """Blossoms computed two independent ways.

    For each candidate (b, t) the first set follows the recursive
    definition (S_{b,t} plus nested blossoms of outer members and the
    base); the second collects vertices whose iterated base chain first
    exceeds tenacity t exactly at b.
    """
    _check_level_guard(g)
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
        for _ in range(g.n + 1):
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
            for b in range(g.n)
            if profile.tenacity[b] > t and profile.is_outer(b)
        }
        for b in bases:
            rec = recursive_blossom(b, t)
            alt = frozenset(
                v
                for v in range(g.n)
                if profile.tenacity[v] != INF
                and profile.tenacity[v] <= t
                and base_above(v, t) == b
            )
            if rec or alt:
                out[(b, t)] = (rec, alt)
    return out


def brute_support(g: Graph, m: MatchingState, profile: OracleProfile, eid: int) -> frozenset[int]:
    """Support of a bridge: vertices of the bridge's tenacity having a
    maxlevel path through the bridge edge."""
    _check_level_guard(g)
    t = profile.edge_tenacity[eid]
    u, v = g.edges[eid]
    out: set[int] = set()
    for w in range(g.n):
        if profile.tenacity[w] != t:
            continue
        maxl = profile.maxlevel(w)
        found = False
        for p in _iter_level_paths(g, m, w, maxl):
            for a, b in zip(p, p[1:]):
                if (a, b) == (u, v) or (a, b) == (v, u):
                    found = True
                    break
            if found:
                break
        if found:
            out.add(w)
    return frozenset(out)


def check_structural_theorems(g: Graph, m: MatchingState, profile: OracleProfile) -> list[str]:
    """Verify the structural theorems by enumeration; returns violations."""
    _check_level_guard(g)
    violations: list[str] = []

    # (a) BFS-honesty along every minimal path.
    for v in range(g.n):
        t_v = profile.tenacity[v]
        for length in (profile.evenlevel[v], profile.oddlevel[v]):
            if length == INF:
                continue
            for p in _iter_level_paths(g, m, v, length):
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
    for eid, (u, v) in enumerate(g.edges):
        if m.partner[u] != v:
            continue
        tu, tv = profile.tenacity[u], profile.tenacity[v]
        if tu != INF and tv != INF and max(tu, tv) < profile.l_m:
            if not (tu == tv == profile.edge_tenacity[eid]):
                violations.append(
                    f"matched edge ({u},{v}): tenacities {tu}, {tv}, "
                    f"edge {profile.edge_tenacity[eid]} differ"
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
        maxl = profile.maxlevel(v)
        if maxl == INF:
            continue
        for p in _iter_level_paths(g, m, v, maxl):
            count = 0
            for a, b in zip(p, p[1:]):
                for w, eid in g.adj[a]:
                    if w == b:
                        if (
                            profile.edge_class[eid] == "bridge"
                            and profile.edge_tenacity[eid] == t_v
                        ):
                            count += 1
                        break
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
        for f in range(g.n):
            if m.is_matched(f):
                continue
            has_even = any(
                p[0] == f for p in _iter_level_paths(g, m, v, profile.evenlevel[v])
            )
            has_odd = any(
                p[0] == f for p in _iter_level_paths(g, m, v, profile.oddlevel[v])
            )
            if has_even != has_odd:
                violations.append(
                    f"vertex {v}: even path from {f}: {has_even}, odd: {has_odd}"
                )

    # (g) Bridge endpoint cases.
    for eid, (u, v) in enumerate(g.edges):
        if profile.edge_class[eid] != "bridge":
            continue
        t_e = profile.edge_tenacity[eid]
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


def serialize_profile(profile: OracleProfile) -> str:
    """Structured-text dump: per-vertex levels and per-edge classification."""

    def fmt(x: float) -> str:
        return "inf" if x == INF else str(int(x))

    lines = []
    for v in range(profile.g.n):
        lines.append(f"v {v + 1} even {fmt(profile.evenlevel[v])} odd {fmt(profile.oddlevel[v])}")
    for eid, (u, v) in enumerate(profile.g.edges):
        t = profile.edge_tenacity[eid]
        t_str = "?" if t == INF else str(int(t))
        lines.append(f"edge {u + 1} {v + 1} {profile.edge_class[eid]} tenacity {t_str}")
    return "\n".join(lines) + "\n"
