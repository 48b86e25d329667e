"""Print three sha256 digests of the engine's behaviour on a fixed corpus.

A refactor that must not change behaviour should print the same count and
digests before and after.  For the first line each solve adds, in order: the
`mvtrace` lines of `maximum_matching`, the matching size and phase count,
then the trace of one more `run_phase` on the final matching (the certifying
phase) and that phase's final even and odd levels.  The second line,
`outcome`, covers each solve's matching size and phase count only.  It does
not depend on search order, so a change that reorders work can still show
identical outcomes.

The corpus: 3,000 seeded random graphs with n < 60, started from no
matching (the solver's own seed, `karp_sipser`), the empty matching, or
a seeded greedy partial matching in turn;
`triangle_chain(200)`, `nested_blossoms(12)` and `inner_matched_path(2000)`;
and every named graph of `support.py`.

Not collected by pytest; `tests/test_trace_digest.py` pins the three digests
through `digests()`.  Run from the repository root:

    python tests/trace_digest.py
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import support  # noqa: E402
from mvmatching import Graph, MatchingState, generate_random_graph, maximum_matching  # noqa: E402
from mvmatching.oracle import greedy_matching  # noqa: E402
from mvmatching.phase import run_phase  # noqa: E402


def corpus():
    rng = random.Random(20240601)
    for k in range(3000):
        n = rng.randint(1, 59)
        g = generate_random_graph(n, rng.randint(0, min(n * (n - 1) // 2, 3 * n)), k)
        start = (None, MatchingState(n), greedy_matching(g, k))[k % 3]
        yield g, start
    yield support.triangle_chain(200)
    yield support.nested_blossoms(12)
    yield support.inner_matched_path(2000)
    for make in (
        support.p4, support.triangle, support.deferred_bridge_graph,
        support.two_bridges_graph, support.empty_support_graph,
        support.nested_blossom_graph,
    ):
        yield make()
    for make in (support.k4, support.c5, support.petersen):
        yield make(), None


def digest_one(h, outcome, g: Graph, start) -> None:
    lines: list[str] = []
    m, phases = maximum_matching(g, start, trace=lines.append)
    lines.append(f"size {m.size()} phases {phases}")
    outcome.update((lines[-1] + "\n").encode())
    result = run_phase(g, m, trace=lines.append)
    # Older engines return a wrapper that holds the phase state in `.state`.
    s = getattr(result, "state", result)
    lines.append(f"even {s.evenlevel}")
    lines.append(f"odd {s.oddlevel}")
    h.update(("\n".join(lines) + "\n").encode())


def digests() -> tuple[int, str, str, str]:
    """The corpus size and the behaviour, outcome and graph digests."""
    h = hashlib.sha256()
    outcome = hashlib.sha256()
    graphs = hashlib.sha256()
    count = 0
    for g, start in corpus():
        graphs.update(f"{(g.n, g.adj, g.edges)}\n".encode())
        digest_one(h, outcome, g, start)
        count += 1
    return count, h.hexdigest(), outcome.hexdigest(), graphs.hexdigest()


def main() -> None:
    count, behaviour, outcome, graphs = digests()
    print(f"{count} solves sha256 {behaviour}")
    print(f"outcome sha256 {outcome}")
    print(f"graphs sha256 {graphs}")


if __name__ == "__main__":
    main()
