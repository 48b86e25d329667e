"""Graph and matching primitives shared by the matching engine and the oracle.

Vertices are integers 0..n-1 internally.  The DIMACS edge format (1-based)
is used only at the I/O boundary.
"""

from __future__ import annotations

import functools
import gc
import json
import random
import re
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional, ParamSpec, TextIO, TypeVar

_P = ParamSpec("_P")
_R = TypeVar("_R")


# The most vertices a graph may have.  Every array the engine keeps is
# sized by n; a larger n is refused before anything is allocated.  On
# CPython 3.11, x86-64 Linux, `mvmatch solve` on an edgeless graph of
# 2^21 vertices peaked at 177 MB RSS, about 77 bytes a vertex above the
# interpreter's 16 MB, nearly all of it the empty adjacency lists.  The
# two limits are safe together: at n = 2^21 and m = MAX_EDGES,
# `mvmatch solve` peaked at 468 MB and `mvmatch bench` at 477 MB, within
# a 1.5 GB address space.
MAX_VERTICES = 1 << 21

# The most edges `generate_random_graph` samples and the most edge lines
# `parse_dimacs` reads; a larger m is refused before the graph is built.
# Its memory grows with m: `mvmatch gen` and `mvmatch bench` at 10^6
# edges peaked at 294 and 276 MB with n = 2*10^5, and at 289 MB with
# n = 2,000, where the sample is dense (same host).
MAX_EDGES = 10**6


class GraphFormatError(ValueError):
    """Raised for malformed DIMACS input, out-of-range indices, a vertex
    count below 0 or above MAX_VERTICES, or more than MAX_EDGES edge
    lines."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Static undirected simple graph.

    Attributes:
        n: number of vertices (identified by indices 0..n-1).
        adj: per-vertex tuple of neighbours, in the order of `edges`.
        ends: the two ends of each edge in turn, in either order, one
            flat tuple in first-occurrence order.

    The edges are held once, as their ends in `ends`, and `adj` holds
    each edge as its two ends' neighbour ints, so no per-edge tuple or
    index outlives the build.  `edges` and `m` are derived from `ends`.
    Two graphs are equal when their n, `adj` and `edges` are, whichever
    way round each edge's ends were given.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]
    ends: tuple[int, ...]

    @staticmethod
    def from_edges(
        n: int, edges: Iterable[tuple[int, int]] = (), *, ends: Optional[list[int]] = None
    ) -> "Graph":
        """Build a graph from an edge iterable, or from `ends`, the flat
        list of endpoints, two per edge; `edges` is ignored when `ends` is
        given.

        Endpoints outside 0..n-1, self-loops, an odd number of `ends` and
        n below 0 or above MAX_VERTICES are rejected; duplicate undirected
        edges are merged, keeping the first.  An IndexError raised while
        `edges` is read counts as an endpoint out of range.  `parse_dimacs`
        relies on these checks for its column path, which hands over the
        list it already holds.

        The pairs are flattened into one list, and the adjacency is made by
        one loop over it, with no tuple per edge.  A repeated edge shows as
        a vertex listed twice in one adjacency; only then are the distinct
        edges collected and the graph built again from them.
        """
        if n < 0:
            raise GraphFormatError(f"vertex count {n} is negative")
        if n > MAX_VERTICES:
            raise GraphFormatError(f"{n} vertices exceed the limit of {MAX_VERTICES}")
        adj: list[list[int]] = [[] for _ in range(n)]
        try:
            if ends is None:
                ends = list(chain.from_iterable(edges))
            elif len(ends) % 2:
                raise GraphFormatError(f"{len(ends)} endpoints do not make whole edges")
            # A negative index would wrap to the end of `adj`.
            if ends and min(ends) < 0:
                raise IndexError
            pairs = iter(ends)
            for u, v in zip(pairs, pairs):
                if u == v:
                    raise GraphFormatError(f"self-loop at vertex {u}")
                adj[u].append(v)
                adj[v].append(u)
        except IndexError:
            raise GraphFormatError(f"vertex index out of range [0, {n})") from None
        if sum(map(len, map(set, adj))) < len(ends):
            pairs = iter(ends)
            return Graph.from_edges(
                n, dict.fromkeys((u, v) if u < v else (v, u) for u, v in zip(pairs, pairs))
            )
        return Graph(n, tuple(map(tuple, adj)), tuple(ends))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as pairs (u, v) with u < v, in first-occurrence
        order; a new tuple on each call."""
        pairs = iter(self.ends)
        return tuple((u, v) if u < v else (v, u) for u, v in zip(pairs, pairs))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and (self.n, self.adj, self.edges) == (
            other.n, other.adj, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def has_edge(self, u: int, v: int) -> bool:
        """Whether (u, v) is an edge: a scan of the shorter adjacency."""
        a, b = self.adj[u], self.adj[v]
        return v in a if len(a) <= len(b) else u in b

    @property
    def m(self) -> int:
        return len(self.ends) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])


def gc_paused(call: Callable[_P, _R]) -> Callable[_P, _R]:
    """Run `call` with cyclic GC held off, then pay its young pass once.

    The parse and the solve allocate tuples and lists by the thousand and
    make no reference cycles, so the collections their allocations would
    trigger free nothing.  When the call ends, by a return or by an
    exception, GC is enabled again and one generation-0 collection runs,
    so the deferred pass is paid inside the call, not by whatever
    allocates next.  It runs after the call's frame is gone, so it walks
    only what the call returns, not its dead locals.  A caller that had GC
    disabled keeps it so, and no collection runs.  The pause is
    process-wide while the call runs.
    """

    @functools.wraps(call)
    def paused(*args: _P.args, **kwargs: _P.kwargs) -> _R:
        if not gc.isenabled():
            return call(*args, **kwargs)
        gc.disable()
        try:
            return call(*args, **kwargs)
        finally:
            gc.enable()
            gc.collect(0)

    return paused


# The canonical layout.  The possessive repeat (new in Python 3.11) keeps
# no backtracking record per line, so the check takes constant memory.
_CANONICAL = re.compile(r"p edge \d+ \d+(?:\ne \d+ \d+)*+\n?", re.ASCII)


@gc_paused
def parse_dimacs(text: str | TextIO) -> Graph:
    """Parse a graph in DIMACS edge format.

    Comment lines start with 'c'.  One problem line 'p edge <n> <m>' must
    precede the 'e <u> <v>' edge lines (1-based endpoints).  Parallel edges
    are deduplicated; self-loops and more than MAX_EDGES edge lines are an
    error.

    Text in the canonical layout (the problem line, then the edge lines,
    fields split by single spaces, lines ended by a newline save perhaps
    the last) is converted all at once: its endpoints are read as one
    JSON array (`_endpoints`).  Any other text, and canonical text that
    fails to convert or build, goes through the line loop, which names the
    offending line in its error; JSON refuses an endpoint with a leading
    zero, such as `e 01 2`, or past Python's int-conversion limit, so
    those take the line loop too.  Both paths give the same graph.  The
    call runs with cyclic GC paused (`gc_paused`).
    """
    if hasattr(text, "read"):
        text = text.read()
    check_edge_lines(text)
    if _CANONICAL.fullmatch(text):
        try:
            return _parse_columns(text)
        except ValueError:
            pass
    return _parse_lines(text)


def check_edge_lines(text: str) -> None:
    """Refuse DIMACS text with more than MAX_EDGES edge lines, counted
    before the text is split.  Each line that starts with 'e' is an edge
    line or one the line loop refuses, so the count refuses no text the
    loop accepts; the loop counts edge lines with leading spaces itself.

    k such lines take at least 2k - 1 characters (an 'e' after each
    newline, the first perhaps without one), so a text of at most
    2 * MAX_EDGES characters is under the limit and is not counted."""
    if len(text) <= 2 * MAX_EDGES:
        return
    lines = text.count("\ne") + text.startswith("e")
    if lines > MAX_EDGES:
        raise GraphFormatError(f"{lines} edge lines exceed the limit of {MAX_EDGES}")


def _parse_columns(text: str) -> Graph:
    """Build the graph of a canonical text from its endpoints.

    Raises ValueError (GraphFormatError among them) for a number JSON or
    `int` refuses, an endpoint out of range, a self-loop or too many
    vertices.  The endpoints are converted through the vertex table
    (`_vertices`), where an endpoint above n fails, and the list is handed
    to `Graph.from_edges` as `ends`, which does the other checks.
    """
    head, _, body = text.partition("\n")
    n = int(head.split()[2])
    if n > MAX_VERTICES:
        raise ValueError("too many vertices")  # before the table is made
    try:
        ends = _vertices(_endpoints(body, "e"), n)
    except IndexError:
        raise ValueError("vertex out of range") from None
    del body  # free the copy of the text before the build allocates
    return Graph.from_edges(n, ends=ends)


def _endpoints(body: str, word: str) -> list[int]:
    """The numbers of `body`, canonical lines '<word> <a> <b>' joined by
    newlines, as one list in text order, as the text gives them.

    The canonical pattern has shown that `body` holds only the word, ASCII
    digits, single spaces and newlines, so deleting each newline and each
    letter of the word, and turning each space into a comma, leaves a
    comma before every number: one JSON array once the first comma is
    dropped, which `json.loads` converts in C.  It raises ValueError for
    a number with a leading zero, such as `01`, or past Python's
    int-conversion limit.  Each step copies the text, and each copy adds
    to peak memory, so the steps are as few as the conversion needs.
    """
    flat = body.translate(str.maketrans(" ", ",", "\n" + word))
    return json.loads(f"[{flat[1:]}]")


def _vertices(numbers: list[int], n: int) -> list[int]:
    """The 1-based vertex `numbers` as a list of 0-based vertices, each
    looked up in one table of vertices so that every vertex is one shared
    int object.  The table is freed on return, before the caller builds.

    The table holds the n vertices, or, when `numbers` is shorter than n,
    those up to the largest number, so a text that names few of many
    declared vertices builds no table of them all.  A number above n
    raises IndexError; 0 comes out as -1, which the reader refuses as out
    of range.
    """
    top = n if len(numbers) >= n else min(n, max(numbers, default=0))
    return list(map(list(range(-1, top)).__getitem__, numbers))


# A line end of `str.splitlines`; "\r\n" is one end, not two.
_LINE_END = re.compile("\r\n|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")

# The characters `_iter_lines` splits at once, give or take a line.
_LINE_BLOCK = 1 << 13


def _iter_lines(text: str) -> Iterator[str]:
    """Yield the lines of `text.splitlines()`, in blocks of about
    _LINE_BLOCK characters cut after a line end, so a line loop holds one
    block's lines, not a list of them all."""
    start, size = 0, len(text)
    while start < size:
        end = _LINE_END.search(text, start + _LINE_BLOCK)
        stop = size if end is None else end.end()
        yield from text[start:stop].splitlines()
        start = stop


def _number(field: str) -> int:
    """A line-loop number: ASCII digits after an optional '-'.  Raises
    ValueError for the '+1', '1_0' and other digits that `int` takes."""
    if not (field.isascii() and field.removeprefix("-").isdigit()):
        raise ValueError(f"not a number: {field!r}")
    return int(field)


def _parse_lines(text: str) -> Graph:
    """Parse DIMACS text line by line, naming the line of any error.

    The lines are read a block at a time (`_iter_lines`), so comment and
    blank lines hold no more memory than one block's lines; the edge list
    is bounded by MAX_EDGES."""
    n: Optional[int] = None
    declared_m = 0
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(_iter_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate problem line")
            if len(fields) != 4 or fields[1] != "edge":
                raise GraphFormatError(f"line {lineno}: malformed problem line {line!r}")
            try:
                n, declared_m = _number(fields[2]), _number(fields[3])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: malformed problem line {line!r}")
            if n < 0 or declared_m < 0:
                raise GraphFormatError(f"line {lineno}: negative count in problem line")
        elif fields[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before problem line")
            if len(edges) == MAX_EDGES:
                raise GraphFormatError(f"line {lineno}: edge lines exceed the limit of {MAX_EDGES}")
            if len(fields) != 3:
                raise GraphFormatError(f"line {lineno}: malformed edge line {line!r}")
            try:
                u, v = _number(fields[1]), _number(fields[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: malformed edge line {line!r}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"line {lineno}: vertex index out of range [1, {n}]")
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
            edges.append((u - 1, v - 1))
        else:
            raise GraphFormatError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise GraphFormatError("missing problem line")
    return Graph.from_edges(n, edges)


def serialize_dimacs(g: Graph) -> str:
    """Render a graph in DIMACS edge format (1-based)."""
    lines = [f"p edge {g.n} {g.m}"]
    for u, v in g.edges:
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


class MatchingState:
    """Matched partner per vertex; None for unmatched vertices."""

    __slots__ = ("partner",)

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]] = ()) -> None:
        self.partner: list[Optional[int]] = [None] * n
        for u, v in pairs:
            self.partner[u] = v
            self.partner[v] = u

    @property
    def n(self) -> int:
        return len(self.partner)

    def is_matched(self, v: int) -> bool:
        return self.partner[v] is not None

    def size(self) -> int:
        return (len(self.partner) - self.partner.count(None)) // 2

    def pairs(self) -> list[tuple[int, int]]:
        return [(u, v) for u, v in enumerate(self.partner) if v is not None and u < v]

    def copy(self) -> "MatchingState":
        out = MatchingState(self.n)
        out.partner = list(self.partner)
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MatchingState) and self.partner == other.partner

    def __repr__(self) -> str:
        return f"MatchingState({self.pairs()!r})"


def serialize_matching(m: MatchingState) -> str:
    """Render a matching: 'size <k>' then one 'matched <u> <v>' line per edge."""
    pairs = m.pairs()
    lines = [f"size {len(pairs)}"]
    for u, v in pairs:
        lines.append(f"matched {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


# The layout `serialize_matching` writes, checked as `_CANONICAL` is.
_CANONICAL_MATCHING = re.compile(r"size \d+(?:\nmatched \d+ \d+)*+\n?", re.ASCII)


@gc_paused
def parse_matching(text: str | TextIO, n: int) -> MatchingState:
    """Parse the matching serialization produced by serialize_matching:
    'size <k>' then 'matched <u> <v>' lines (1-based), with comment lines
    ('c ...'), blank lines and other spacing accepted.  A vertex out of
    range, a repeated vertex or a declared size that differs from the
    number of matched lines is an error.

    Text in the canonical layout, with at most n // 2 matched lines, is
    converted all at once: its vertices are read as one JSON array
    (`_endpoints`).  Any other text, and canonical text that fails a
    check, goes through the line loop, which names the offending line in
    its error; JSON refuses a vertex with a leading zero or past Python's
    int-conversion limit, so those take the line loop too.  Both paths
    give the same matching.  The call runs with cyclic GC paused
    (`gc_paused`).
    """
    if hasattr(text, "read"):
        text = text.read()
    # More than n // 2 pairs must repeat a vertex or miss the declared
    # size; they are counted before the text is converted.
    if text.count("\nmatched") <= n // 2 and _CANONICAL_MATCHING.fullmatch(text):
        try:
            return _parse_matching_columns(text, n)
        except ValueError:
            pass
    return _parse_matching_lines(text, n)


def _parse_matching_columns(text: str, n: int) -> MatchingState:
    """Build the matching of a canonical text from its vertices.

    Raises ValueError for a number JSON or `int` refuses, a declared size
    that differs from the pair count, a vertex out of range and a repeated
    or self-paired vertex; the line loop then names the fault.
    """
    head, _, body = text.partition("\n")
    declared = int(head[5:])
    try:
        ends = _vertices(_endpoints(body, "matched"), n)
    except IndexError:
        raise ValueError("vertex out of range") from None
    if declared != len(ends) // 2:
        raise ValueError("declared size differs")
    if ends and min(ends) < 0:
        raise ValueError("vertex out of range")
    if len(set(ends)) != len(ends):
        raise ValueError("vertex repeated")
    m = MatchingState(n)
    partner = m.partner
    for u, v in zip(ends[::2], ends[1::2]):
        partner[u] = v
        partner[v] = u
    return m


def _parse_matching_lines(text: str, n: int) -> MatchingState:
    """Parse a matching line by line, naming the line of any error.

    The lines are read a block at a time (`_iter_lines`), and at most
    n // 2 + 1 pairs are kept; the rest are only counted.  Among n // 2 + 1 pairs of
    vertices in 1..n some vertex repeats, so the first repeat is among the
    kept pairs and the errors are those of a loop that keeps them all.
    """
    declared: Optional[int] = None
    pairs: list[tuple[int, int]] = []
    count = 0
    keep = n // 2 + 1
    for lineno, raw in enumerate(_iter_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        try:
            numbers = [_number(f) for f in fields[1:]]
        except ValueError:
            raise GraphFormatError(f"line {lineno}: malformed line {line!r}")
        if fields[0] == "size" and len(numbers) == 1:
            declared = numbers[0]
        elif fields[0] == "matched" and len(numbers) == 2:
            u, v = numbers
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"line {lineno}: vertex index out of range [1, {n}]")
            if count < keep:
                pairs.append((u - 1, v - 1))
            count += 1
        else:
            raise GraphFormatError(f"line {lineno}: unrecognized line {line!r}")
    if declared is not None and declared != count:
        raise GraphFormatError(f"declared size {declared} but {count} matched lines")
    seen: set[int] = set()
    for u, v in pairs:
        if u in seen or v in seen or u == v:
            raise GraphFormatError(f"vertex repeated in matching: ({u + 1}, {v + 1})")
        seen.update((u, v))
    return MatchingState(n, pairs)


def validate_matching(g: Graph, m: MatchingState) -> list[str]:
    """Return a list of violation descriptions; empty means valid."""
    violations: list[str] = []
    if m.n != g.n:
        violations.append(f"matching covers {m.n} vertices but graph has {g.n}")
        return violations
    for u, p in enumerate(m.partner):
        if p is None:
            continue
        if not (0 <= p < g.n):
            violations.append(f"partner({u}) = {p} out of range")
            continue
        if m.partner[p] != u:
            violations.append(f"asymmetry: partner({u}) = {p} but partner({p}) = {m.partner[p]}")
        if u < p and not g.has_edge(u, p):
            violations.append(f"matched pair ({u}, {p}) is not a graph edge")
    return violations


def check_alternating(g: Graph, m: MatchingState, path: list[int]) -> Optional[str]:
    """Return a defect description for a non-alternating/non-simple path, or None."""
    if len(set(path)) != len(path):
        return "path repeats a vertex"
    prev_matched: Optional[bool] = None
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            return f"({a}, {b}) is not a graph edge"
        matched = m.partner[a] == b
        if prev_matched is not None and matched == prev_matched:
            return f"edges do not alternate at ({a}, {b})"
        prev_matched = matched
    return None


def augment_in_place(m: MatchingState, g: Graph, path: list[int]) -> None:
    """Flip the matched/unmatched edges of m along an augmenting path.

    Raises ValueError unless the vertex list is a simple alternating path
    between two unmatched vertices, which makes its edge count odd."""
    if len(path) < 2:
        raise ValueError(f"augmenting path must have at least 2 vertices, got {len(path)}")
    defect = check_alternating(g, m, path)
    if defect is not None:
        raise ValueError(defect)
    for endpoint in (path[0], path[-1]):
        if m.is_matched(endpoint):
            raise ValueError(f"endpoint {endpoint} matched")
    for k, (a, b) in enumerate(zip(path, path[1:])):
        if k % 2 == 0:
            m.partner[a] = b
            m.partner[b] = a


def generate_random_graph(n: int, m: int, seed: int) -> Graph:
    """Deterministically sample a simple graph with exactly m distinct edges."""
    if n < 0:
        raise ValueError(f"n = {n} is negative")
    if n > MAX_VERTICES:
        raise ValueError(f"{n} vertices exceed the limit of {MAX_VERTICES}")
    if m < 0:
        raise ValueError(f"m = {m} is negative")
    if m > MAX_EDGES:
        raise ValueError(f"m = {m} exceeds the limit of {MAX_EDGES} edges")
    cap = n * (n - 1) // 2
    if m > cap:
        raise ValueError(f"m = {m} exceeds simple-graph capacity {cap} for n = {n}")
    rng = random.Random(seed)
    if cap and m > cap // 2:
        # Dense regime: sample from the explicit list of cap < 2m pairs to avoid rejection stalls.
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = rng.sample(all_pairs, m)
        return Graph.from_edges(n, chosen)
    chosen_set: set[tuple[int, int]] = set()
    order: list[tuple[int, int]] = []
    while len(order) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in chosen_set:
            continue
        chosen_set.add(key)
        order.append(key)
    return Graph.from_edges(n, order)
