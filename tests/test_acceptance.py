"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned in-line: cardinality and level comparisons are
exact (tolerance 0); the timing criterion uses the 2.6x doubling factor
and the 10-second wall-clock budget; the phase bound is ceil(2*sqrt(n))+2.
"""

from __future__ import annotations

import math
import random
import statistics
import time

import pytest

from mvmatching.ddfs import Bottleneck, TwoPaths, run_ddfs
from mvmatching.graph import (
    Graph,
    MatchingState,
    generate_random_graph,
    validate_matching,
)
from mvmatching.oracle import (
    brute_max_matching,
    compute_profile,
    check_structural_theorems,
    greedy_matching,
)
from mvmatching.phase import UNSET, run_phase
from mvmatching.solver import maximum_matching

import support
from support import checked_ddfs, expected_ddfs, random_layered_view


CORPUS_SIZE = 1000
CORPUS_MAX_N = 10
PHASE_BOUND = lambda n: math.ceil(2 * math.sqrt(n)) + 2  # noqa: E731


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num} [{name}]: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def corpus():
    """1,000 seeded (graph, partial matching) instances with n <= 10,
    each paired with its oracle profile and one engine phase."""
    instances = []
    rng = random.Random(20240811)
    for k in range(CORPUS_SIZE):
        n = rng.randint(2, CORPUS_MAX_N)
        m_edges = rng.randint(0, n * (n - 1) // 2)
        g = generate_random_graph(n, m_edges, rng.randrange(2**32))
        m = greedy_matching(g, rng.randrange(2**32))
        profile = compute_profile(g, m)
        instances.append((g, m, profile, run_phase(g, m)))
    return instances


def _connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def test_criterion_1_exactness():
    start = time.perf_counter()
    rng = random.Random(90125)
    checked = 0
    mismatches = 0
    # 10,000 sampled connected graphs with n <= 8.
    while checked < 10_000:
        n = rng.randint(2, 8)
        cap = n * (n - 1) // 2
        m_edges = rng.randint(n - 1, cap)
        g = generate_random_graph(n, m_edges, rng.randrange(2**32))
        if not _connected(g):
            continue
        checked += 1
        engine, _ = maximum_matching(g)
        if validate_matching(g, engine) or engine.size() != brute_max_matching(g)[0]:
            mismatches += 1
    # 1,000 random graphs with n <= 12, any density.
    for _ in range(1000):
        n = rng.randint(1, 12)
        m_edges = rng.randint(0, n * (n - 1) // 2)
        g = generate_random_graph(n, m_edges, rng.randrange(2**32))
        engine, _ = maximum_matching(g)
        if validate_matching(g, engine) or engine.size() != brute_max_matching(g)[0]:
            mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        "exactness vs brute force",
        mismatches == 0 and elapsed < 120.0,
        f"11,000 instances, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_level_correctness(corpus):
    mismatches = sum(len(p.level_mismatches(s.evenlevel, s.oddlevel)) for _, _, p, s in corpus)
    _report(
        2,
        "level correctness below l_m",
        mismatches == 0,
        f"{len(corpus)} instances, {mismatches} mismatches",
    )


def test_criterion_3_structural_theorems(corpus):
    violations = 0
    for _, _, profile, _ in corpus:
        violations += len(check_structural_theorems(profile))
    _report(
        3,
        "structural theorem suite",
        violations == 0,
        f"{len(corpus)} instances, {violations} violations",
    )


def test_criterion_4_blossom_equivalence(corpus):
    mismatches = 0
    for _, _, profile, _ in corpus:
        for (b, t), (recursive, iterated) in profile.blossoms.items():
            if recursive != iterated:
                mismatches += 1
    _report(
        4,
        "blossom definition equivalence",
        mismatches == 0,
        f"{len(corpus)} instances, {mismatches} mismatches",
    )


def _engine_blossom(state, b: int, t: int, l_m: float) -> set[int]:
    """Vertices whose petal-bud chain first exceeds tenacity t at b."""
    out: set[int] = set()
    for v in range(state.g.n):
        t_v = state.evenlevel[v] + state.oddlevel[v]
        if UNSET in (state.evenlevel[v], state.oddlevel[v]) or t_v > t or t_v >= l_m:
            continue
        cur, t_cur = v, t_v
        while t_cur <= t:
            pid = state.petal_of[cur]
            if pid is None:
                break
            cur = state.petals[pid].bud
            t_cur = state.evenlevel[cur] + state.oddlevel[cur]
        if t_cur > t and cur == b:
            out.add(v)
    return out


def test_criterion_5_petal_blossom_correspondence(corpus):
    mismatches = 0
    for g, m, profile, state in corpus:
        # Petal classes by base at their own tenacity vs oracle S_{b,t}.
        engine_classes = support.engine_base_classes(state, profile.l_m)
        if engine_classes != support.oracle_base_classes(profile):
            mismatches += 1
            continue
        # Petal unions (with nesting) vs oracle blossoms.
        for (b, t), (recursive, _) in profile.blossoms.items():
            if not recursive:
                continue
            if _engine_blossom(state, b, t, profile.l_m) != set(recursive):
                mismatches += 1
                break
    _report(
        5,
        "petal-blossom correspondence",
        mismatches == 0,
        f"{len(corpus)} instances, {mismatches} mismatches",
    )


def test_criterion_6_maximality(corpus):
    violations = sum(bool(support.path_set_faults(s, profile)) for _, _, profile, s in corpus)
    _report(
        6,
        "per-phase path-set maximality",
        violations == 0,
        f"{len(corpus)} instances, {violations} violations",
    )


BENCH_RUNS = [
    (100, 300, 11),
    (1000, 3000, 12),
    (5000, 10000, 13),
    (10000, 50000, 14),
]


def test_criterion_7_phase_bound():
    worst = 0.0
    ok = True
    for n, m_edges, seed in BENCH_RUNS:
        g = generate_random_graph(n, m_edges, seed)
        _, phases = maximum_matching(g)
        bound = PHASE_BOUND(n)
        worst = max(worst, phases / bound)
        if phases > bound:
            ok = False
    _report(
        7,
        "phases within ceil(2*sqrt(n))+2",
        ok,
        f"{len(BENCH_RUNS)} runs, worst ratio {worst:.2f}",
    )


def test_criterion_8_performance():
    n = 20000
    def run(m_edges: int, seed: int) -> tuple[float, int]:
        g = generate_random_graph(n, m_edges, seed)
        t0 = time.perf_counter()
        matching, phases = maximum_matching(g)
        elapsed = time.perf_counter() - t0
        assert phases <= PHASE_BOUND(n)
        return elapsed, phases

    # The median of five runs, with the phase count of that run.  The two
    # edge counts alternate seed by seed, so a change in host speed moves
    # both sides alike and leaves the ratio alone.
    base_runs, doubled_runs = [], []
    for k in range(5):
        base_runs.append(run(50000, 100 + k))
        doubled_runs.append(run(100000, 200 + k))
    base, base_phases = statistics.median_low(base_runs)
    doubled, doubled_phases = statistics.median_low(doubled_runs)
    ratio = doubled / base

    g = generate_random_graph(100000, 500000, 4242)
    t0 = time.perf_counter()
    matching, phases = maximum_matching(g)
    big_elapsed = time.perf_counter() - t0
    assert phases <= PHASE_BOUND(100000)

    _report(
        8,
        "performance sanity",
        ratio < 2.6 and big_elapsed < 10.0,
        f"doubling ratio {ratio:.2f} (< 2.6) = {doubled:.3f}s at m=1e5 ({doubled_phases} phases)"
        f" / {base:.3f}s at m=5e4 ({base_phases} phases), n=1e5 m=5e5 in {big_elapsed:.2f}s (< 10s)",
    )


def test_criterion_9_ddfs_unit_suite():
    failures = 0
    for seed in range(500):
        view, r, g = random_layered_view(seed + 31000)
        kind, b = expected_ddfs(view, r, g)
        if kind == "empty":
            try:
                run_ddfs(view, r, g)
            except ValueError:
                continue
            failures += 1
            continue
        out, broken = checked_ddfs(view, r, g)
        ok = (
            (kind == "paths" and isinstance(out, TwoPaths))
            or (kind == "bottleneck" and isinstance(out, Bottleneck) and out.b == b)
        )
        if isinstance(out, TwoPaths) and (set(out.red_path) & set(out.green_path)):
            ok = False
        if broken:
            ok = False
        if not ok:
            failures += 1
    _report(
        9,
        "DDFS vs exhaustive analysis",
        failures == 0,
        f"500 views, {failures} failures",
    )
