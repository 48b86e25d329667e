"""Seeded graph families for the benchmark, generated apart from the engine.

Each generator builds a graph's structure, edge order included, from a
fixed structure key, then renames its vertices by a permutation drawn
from the run's seed.  Renaming keeps the optimum and the engine's greedy
seed (which follows the edge order) the same up to isomorphism, so the
phase count hardly moves with the seed; drawing the structure itself from
the seed moves it by one to three phases, more than any bound.

Each generator returns an `Instance`: the DIMACS text the program reads,
the sorted edge keys the checker looks pairs up in, and the matching size
that the construction proves optimal.  Only the DIMACS text crosses over
to the program.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass


@dataclass
class Instance:
    n: int
    m: int
    text: str
    edge_keys: array  # sorted u * n + v over every input edge, u < v
    optimum: int


def _finish(n: int, edges: list[tuple[int, int]], optimum: int, seed: str) -> Instance:
    """Rename the vertices by a permutation drawn from `seed` and render
    the 1-based DIMACS text, keeping the edge order."""
    label = list(range(n))
    random.Random(seed).shuffle(label)
    edges = [(label[u], label[v]) for u, v in edges]
    lines = [f"p edge {n} {len(edges)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in edges)
    keys = array("q", sorted(u * n + v if u < v else v * n + u for u, v in edges))
    return Instance(n, len(edges), "\n".join(lines) + "\n", keys, optimum)


def _plant(edges: list[tuple[int, int]], seen: set[int], order: list[int], n: int) -> None:
    """Add the pairs order[0]-order[1], order[2]-order[3], ... as edges."""
    for i in range(0, len(order) - 1, 2):
        u, v = order[i], order[i + 1]
        seen.add(u * n + v if u < v else v * n + u)
        edges.append((u, v))


def _add_random_edges(edges: list[tuple[int, int]], seen: set[int], verts: list[int],
                      n: int, count: int, rng: random.Random) -> None:
    """Append `count` new distinct random edges among `verts`."""
    target = len(edges) + count
    while len(edges) < target:
        u, v = rng.choice(verts), rng.choice(verts)
        key = u * n + v if u < v else v * n + u
        if u == v or key in seen:
            continue
        seen.add(key)
        edges.append((u, v))


def sparse(n: int, m: int, structure: str, seed: str) -> Instance:
    """Random graph with a planted perfect matching: the optimum is n/2."""
    assert n % 2 == 0
    rng = random.Random(structure)
    order = list(range(n))
    rng.shuffle(order)
    edges: list[tuple[int, int]] = []
    seen: set[int] = set()
    _plant(edges, seen, order, n)
    _add_random_edges(edges, seen, order, n, m - len(edges), rng)
    rng.shuffle(edges)
    return _finish(n, edges, n // 2, seed)


def near_tree(n: int, structure: str, seed: str) -> Instance:
    """Tree with parent(v) = randrange(v-5, v); the optimum is the
    leaf-to-parent greedy, which is exact on forests."""
    rng = random.Random(structure)
    parent = [0] * n
    for v in range(1, n):
        parent[v] = rng.randrange(max(0, v - 5), v)
    matched = bytearray(n)
    optimum = 0
    # Children have larger labels than their parents, so this visits every
    # vertex after all of its children.
    for v in range(n - 1, 0, -1):
        p = parent[v]
        if not matched[v] and not matched[p]:
            matched[v] = matched[p] = 1
            optimum += 1
    edges = [(parent[v], v) for v in range(1, n)]
    rng.shuffle(edges)
    return _finish(n, edges, optimum, seed)


def blossom(components: int, size: int, degree: int, structure: str, seed: str) -> Instance:
    """Disjoint random odd components, each with a planted near-perfect
    matching: by Tutte-Berge with the empty barrier the optimum is
    (n - components) / 2, and the certifying phase searches every
    component from its one free vertex."""
    assert size % 2 == 1
    rng = random.Random(structure)
    n = components * size
    edges: list[tuple[int, int]] = []
    seen: set[int] = set()
    for k in range(components):
        verts = list(range(k * size, (k + 1) * size))
        rng.shuffle(verts)
        _plant(edges, seen, verts, n)
        _add_random_edges(edges, seen, verts, n, size * degree // 2 - size // 2, rng)
    rng.shuffle(edges)
    return _finish(n, edges, (n - components) // 2, seed)
