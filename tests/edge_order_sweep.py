"""Run one phase on every edge order of every small graph, from each of its
matchings, and check it against the oracle.

The DDFS takes out-edges in scan order, which follows the adjacency and so
the edge order; `tests/test_exhaustive.py` covers every order on four
vertices in tier-1.  This covers every labelled graph on five vertices with
at most six edges: 2,135,841 (graph, edge order, matching) triples.  For
each, the phase's l_m, and its levels at every vertex of tenacity below
l_m, must equal those of `oracle.compute_profile`, which is computed once
per graph and matching, as neither depends on the edge order.  The last
line is a sha256 over every phase's `mvtrace` lines and final levels, so
that a change meant to keep behaviour can show it prints the same digest.

Not collected by pytest; it takes over a minute.  Run from the repository
root:

    python tests/edge_order_sweep.py

It prints the count, the number of mismatches (listing the first few) and
the digest, and exits 1 if any triple mismatched.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import support  # noqa: E402
from mvmatching.graph import Graph  # noqa: E402
from mvmatching.oracle import compute_profile  # noqa: E402
from mvmatching.phase import run_phase  # noqa: E402

N = 5
MAX_EDGES = 6
SHOWN = 5


def sweep() -> tuple[int, list[str], str]:
    """The triple count, the mismatches and the behaviour digest."""
    h = hashlib.sha256()
    count = 0
    mismatches: list[str] = []
    for g in support.all_graphs(N):
        if g.m > MAX_EDGES:
            continue
        for m in support.all_matchings(g):
            profile = compute_profile(g, m)
            for order in itertools.permutations(g.edges):
                lines: list[str] = []
                s = run_phase(Graph.from_edges(N, list(order)), m, trace=lines.append)
                lines.append(f"even {s.evenlevel}")
                lines.append(f"odd {s.oddlevel}")
                h.update(("\n".join(lines) + "\n").encode())
                l_m = s.l_m if s.paths else math.inf
                bad = profile.level_mismatches(s.evenlevel, s.oddlevel)
                if l_m != profile.l_m or bad:
                    where = f"edges {list(order)} matching {m.pairs()}: l_m {l_m}"
                    mismatches.append(f"{where} != {profile.l_m}, levels differ at {bad}")
                count += 1
    return count, mismatches, h.hexdigest()


def main() -> int:
    count, mismatches, digest = sweep()
    print(f"{count} phases, {len(mismatches)} mismatches against the oracle")
    for line in mismatches[:SHOWN]:
        print("  " + line)
    print(f"trace sha256 {digest}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
