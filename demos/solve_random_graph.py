"""Generate a random graph, solve it, and verify the result end to end.

Run: python3 demos/solve_random_graph.py [n] [m] [seed]
"""

from __future__ import annotations

import sys
import time

from mvmatching import Graph, generate_random_graph, maximum_matching, validate_matching
from mvmatching.phase import run_phase


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    m = int(sys.argv[2]) if len(sys.argv) > 2 else 6000
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 42

    g = generate_random_graph(n, m, seed)
    print(f"graph: n={g.n}, m={g.m}, seed={seed}")

    start = time.perf_counter()
    matching, phases = maximum_matching(g)
    elapsed = time.perf_counter() - start
    print(f"matching size {matching.size()} in {phases} phases, {elapsed:.3f}s")

    violations = validate_matching(g, matching)
    print(f"validation: {'ok' if not violations else violations}")

    # Maximality certificate: one more phase must find no augmenting path.
    s = run_phase(g, matching)
    assert not s.paths, "matching is not maximum!"
    print("certificate: no augmenting path remains (l_m = infinity)")


if __name__ == "__main__":
    main()
