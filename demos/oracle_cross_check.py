"""Cross-check the engine against the brute-force oracle on small graphs.

For a batch of seeded random graphs with partial matchings, compares the
engine's level assignments and minimum augmenting path length with the
oracle's definitional enumeration, and verifies the structural theorems
(BFS-honesty, singleton bases, blossom laminarity, ...) hold.

Run: python3 demos/oracle_cross_check.py [count] [seed]
"""

from __future__ import annotations

import math
import random
import sys

from mvmatching import MatchingState, generate_random_graph
from mvmatching.oracle import check_structural_theorems, compute_profile
from mvmatching.phase import run_phase


def greedy(g, rng):
    m = MatchingState(g.n)
    edges = list(g.edges)
    rng.shuffle(edges)
    for u, v in edges:
        if not m.is_matched(u) and not m.is_matched(v) and rng.random() < 0.7:
            m.partner[u] = v
            m.partner[v] = u
    return m


def main() -> None:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    rng = random.Random(seed)

    level_checks = violation_count = 0
    for k in range(count):
        n = rng.randint(2, 10)
        g = generate_random_graph(n, rng.randint(0, n * (n - 1) // 2), rng.randrange(2**32))
        m = greedy(g, rng)

        profile = compute_profile(g, m)
        violations = check_structural_theorems(profile)
        violation_count += len(violations)
        for line in violations:
            print(f"instance {k}: {line}")

        s = run_phase(g, m)
        l_m = s.l_m if s.paths else math.inf
        assert l_m == profile.l_m, f"instance {k}: l_m disagrees"
        for v in range(g.n):
            if profile.tenacity[v] < profile.l_m:
                assert s.evenlevel[v] == profile.evenlevel[v]
                assert s.oddlevel[v] == profile.oddlevel[v]
                level_checks += 1

    print(f"{count} instances: {level_checks} level comparisons, "
          f"{violation_count} theorem violations")


if __name__ == "__main__":
    main()
