"""Output checks made apart from the engine.

Every check reads the program's output (a matching file, a partner list,
a verify verdict) and compares it against the generator's own edge keys
and the optimum the construction proves.  Nothing here calls into
`mvmatching`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Optional

from inputs import Instance


class Mismatch(Exception):
    """The program produced an output that fails a check."""


def phase_bound(n: int) -> int:
    return math.ceil(2 * math.sqrt(n)) + 2


def _is_edge(w: Instance, u: int, v: int) -> bool:
    if u > v:
        u, v = v, u
    key = u * w.n + v
    i = bisect_left(w.edge_keys, key)
    return i < len(w.edge_keys) and w.edge_keys[i] == key


def check_phases(w: Instance, phases: int) -> None:
    if not 1 <= phases <= phase_bound(w.n):
        raise Mismatch(f"{phases} phases, bound {phase_bound(w.n)}")


def check_pairs(w: Instance, pairs: list[tuple[int, int]]) -> None:
    """0-based pairs form a matching of input edges of the optimum size."""
    seen = bytearray(w.n)
    for u, v in pairs:
        if not (0 <= u < w.n and 0 <= v < w.n) or u == v:
            raise Mismatch(f"pair ({u}, {v}) out of range")
        if seen[u] or seen[v]:
            raise Mismatch(f"vertex repeated in pair ({u}, {v})")
        seen[u] = seen[v] = 1
        if not _is_edge(w, u, v):
            raise Mismatch(f"pair ({u}, {v}) is not an input edge")
    if len(pairs) != w.optimum:
        raise Mismatch(f"size {len(pairs)}, optimum {w.optimum}")


def check_partner(w: Instance, partner: list[Optional[int]]) -> None:
    """The library's partner list is symmetric and passes check_pairs."""
    if len(partner) != w.n:
        raise Mismatch(f"partner list covers {len(partner)} of {w.n} vertices")
    pairs = []
    for u, p in enumerate(partner):
        if p is None:
            continue
        if not (0 <= p < w.n) or partner[p] != u:
            raise Mismatch(f"partner({u}) = {p} is not symmetric")
        if u < p:
            pairs.append((u, p))
    check_pairs(w, pairs)


def parse_matching_file(w: Instance, text: str) -> list[tuple[int, int]]:
    """Read 'size k' and 1-based 'matched u v' lines; check them with
    check_pairs and return the 0-based pairs."""
    declared = None
    pairs = []
    for line in text.splitlines():
        fields = line.split()
        if len(fields) == 2 and fields[0] == "size" and declared is None:
            declared = int(fields[1])
        elif len(fields) == 3 and fields[0] == "matched":
            pairs.append((int(fields[1]) - 1, int(fields[2]) - 1))
        elif fields:
            raise Mismatch(f"unexpected line {line!r}")
    if declared != len(pairs):
        raise Mismatch(f"declared size {declared}, {len(pairs)} pairs")
    check_pairs(w, pairs)
    return pairs


def check_witness(w: Instance, pairs: list[tuple[int, int]], witness: list[int]) -> None:
    """`witness` (0-based) is an augmenting path for the matching `pairs`:
    distinct vertices joined by input edges, unmatched and matched edges
    alternating, both ends free."""
    mate = {}
    for u, v in pairs:
        mate[u] = v
        mate[v] = u
    if len(witness) < 2 or len(witness) % 2:
        raise Mismatch(f"witness has {len(witness)} vertices")
    if len(set(witness)) != len(witness):
        raise Mismatch("witness repeats a vertex")
    if witness[0] in mate or witness[-1] in mate:
        raise Mismatch("witness end is matched")
    for i, (a, b) in enumerate(zip(witness, witness[1:])):
        if not (0 <= a < w.n and 0 <= b < w.n) or not _is_edge(w, a, b):
            raise Mismatch(f"witness step ({a}, {b}) is not an input edge")
        if (mate.get(a) == b) != (i % 2 == 1):
            raise Mismatch(f"witness does not alternate at ({a}, {b})")
