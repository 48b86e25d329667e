"""Walk through one phase on a graph with a blossom and a deferred bridge.

The graph is a five-cycle 0-1-2-3-4-0 (edges (1,2) and (3,4) matched,
vertex 0 unmatched) plus an arm 7-5-6 with (5,6) matched and the edge
(6,1) reaching into the cycle.  The phase trace shows:

- minlevels spreading out from the unmatched vertices 0 and 7;
- the cycle's bridge (2,3) of tenacity 5 forming a petal with bud 0,
  which assigns maxlevels to the cycle vertices;
- the bridge (6,1), whose tenacity was unknown when first scanned
  (vertex 1's evenlevel did not exist yet), being filed at tenacity 7
  the moment the petal resolves it;
- the double depth-first search on (6,1) reaching two distinct
  unmatched vertices, giving the augmenting path of length 7 that
  threads the whole graph.

Run: python3 demos/blossom_walkthrough.py
"""

from __future__ import annotations

from mvmatching import Graph, MatchingState
from mvmatching.phase import levels_with_inf, run_phase


def main() -> None:
    g = Graph.from_edges(
        8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (7, 5), (5, 6), (6, 1)]
    )
    m = MatchingState(8, [(1, 2), (3, 4), (5, 6)])
    print("matched pairs:", m.pairs())
    print()

    s = run_phase(g, m, trace=lambda line: print("  " + line))
    print()
    print(f"l_m = {s.l_m}")
    for p in s.paths:
        print("augmenting path:", "-".join(map(str, p)))

    even, odd = levels_with_inf(s.evenlevel), levels_with_inf(s.oddlevel)
    print()
    print("final levels (vertex: even/odd):")
    for v in range(g.n):
        print(f"  {v}: {even[v]}/{odd[v]}")
    for pid, petal in enumerate(s.petals):
        members = [w for w, q in enumerate(s.petal_of) if q == pid]
        print(f"petal: bud {petal.bud}, members {members}")


if __name__ == "__main__":
    main()
