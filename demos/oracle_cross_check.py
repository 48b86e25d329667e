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

from mvmatching import generate_random_graph
from mvmatching.oracle import check_structural_theorems, compute_profile, greedy_matching
from mvmatching.phase import run_phase


def main() -> None:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    rng = random.Random(seed)

    violation_count = 0
    for k in range(count):
        n = rng.randint(2, 10)
        g = generate_random_graph(n, rng.randint(0, n * (n - 1) // 2), rng.randrange(2**32))
        m = greedy_matching(g, rng.randrange(2**32))

        profile = compute_profile(g, m)
        violations = check_structural_theorems(profile)
        violation_count += len(violations)
        for line in violations:
            print(f"instance {k}: {line}")

        s = run_phase(g, m)
        assert (s.l_m if s.paths else math.inf) == profile.l_m, f"instance {k}: l_m disagrees"
        bad = profile.level_mismatches(s.evenlevel, s.oddlevel)
        assert not bad, f"instance {k}: levels disagree at {bad}"

    print(f"{count} instances: levels and l_m agree, {violation_count} theorem violations")


if __name__ == "__main__":
    main()
