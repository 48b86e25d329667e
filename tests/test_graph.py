"""Tests for graph/matching primitives and the DIMACS boundary."""

from __future__ import annotations

import gc
import io
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mvmatching import graph
from mvmatching.graph import (
    MAX_EDGES,
    MAX_VERTICES,
    Graph,
    GraphFormatError,
    MatchingState,
    augment_in_place,
    check_alternating,
    generate_random_graph,
    parse_dimacs,
    parse_matching,
    serialize_dimacs,
    serialize_matching,
    validate_matching,
)
from mvmatching.graph import _iter_lines, _number, _parse_lines, _parse_matching_lines
from mvmatching.oracle import _iter_alternating_paths, greedy_matching

import support

PROPERTY_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_SEED = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def _random_graph(draw: st.DrawFn) -> Graph:
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=0, max_value=n * (n - 1) // 2))
    return generate_random_graph(n, m, draw(_SEED))


@st.composite
def _edge_input(draw: st.DrawFn) -> tuple[int, list[tuple[int, int]]]:
    """A vertex count and an edge list over it: some vertices isolated,
    some edges repeated, some given as reversed pairs, in any order."""
    n = draw(st.integers(min_value=0, max_value=10))
    isolated = draw(st.integers(min_value=0, max_value=3))
    if n < 2:
        return n + isolated, []
    end = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(end, end).filter(lambda e: e[0] != e[1]), max_size=30))
    if edges:
        repeats = draw(st.lists(st.tuples(st.sampled_from(edges), st.booleans()), max_size=10))
        edges += [(v, u) if flip else (u, v) for (u, v), flip in repeats]
    return n + isolated, draw(st.permutations(edges))


class TestParseDimacs:
    def test_smallest_instance(self) -> None:
        g = parse_dimacs("p edge 2 1\ne 1 2")
        assert g.n == 2
        assert g.edges == ((0, 1),)

    def test_path_graph(self) -> None:
        g = parse_dimacs("p edge 4 3\ne 1 2\ne 2 3\ne 3 4")
        assert g.n == 4
        assert g.edges == ((0, 1), (1, 2), (2, 3))

    def test_index_out_of_range(self) -> None:
        with pytest.raises(GraphFormatError, match="out of range"):
            parse_dimacs("p edge 2 1\ne 1 3")

    def test_self_loop_rejected(self) -> None:
        with pytest.raises(GraphFormatError, match="self-loop"):
            parse_dimacs("p edge 2 1\ne 2 2")

    def test_missing_problem_line(self) -> None:
        for text in ("", "c only\n"):
            with pytest.raises(GraphFormatError, match="missing problem line"):
                parse_dimacs(text)

    @pytest.mark.parametrize("text", ["p edge x 1", "p edge 3", "p col 3 1", "p edge +2 1"])
    def test_malformed_problem_line(self, text: str) -> None:
        with pytest.raises(GraphFormatError, match="line 1: malformed problem line"):
            parse_dimacs(text)

    def test_negative_count_in_problem_line(self) -> None:
        with pytest.raises(GraphFormatError, match="line 1: negative count"):
            parse_dimacs("p edge -1 0")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p edge 12 1\ne 1_0 2", "line 2: malformed edge line"),
            ("p edge 2 1\ne \u0661 2", "line 2: malformed edge line"),
            ("p edge 2 1\ne -1 2", "line 2: vertex index out of range"),
        ],
    )
    def test_numbers_are_ascii_digits(self, text: str, message: str) -> None:
        # `int` alone takes the first two fields; '-' still reads as a sign.
        with pytest.raises(GraphFormatError, match=f"^{message}"):
            parse_dimacs(text)

    def test_reads_a_text_stream(self) -> None:
        for text in ("p edge 3 2\ne 1 2\ne 2 3\n", "c header\np edge 3 2\ne 1 2\ne 2 3\n"):
            assert parse_dimacs(io.StringIO(text)).edges == ((0, 1), (1, 2))

    def test_edge_before_problem_line(self) -> None:
        with pytest.raises(GraphFormatError, match="before problem line"):
            parse_dimacs("e 1 2\np edge 2 1")

    def test_malformed_edge_line(self) -> None:
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_dimacs("p edge 2 1\ne 1")

    def test_comments_and_blank_lines_skipped(self) -> None:
        g = parse_dimacs("c header\n\np edge 3 1\nc mid\ne 1 3\n")
        assert g.edges == ((0, 2),)

    def test_parallel_edges_merged(self) -> None:
        g = parse_dimacs("p edge 3 3\ne 1 2\ne 2 1\ne 1 2")
        assert g.edges == ((0, 1),)

    @pytest.mark.parametrize("layout", ["canonical", "line_loop", "leading_space"])
    def test_edge_lines_above_limit(self, monkeypatch, layout: str) -> None:
        # Parallel lines count too.  Lines that start with 'e' are counted
        # before either path runs; the line loop names the first edge line
        # over the limit among lines that start with a space.
        monkeypatch.setattr(graph, "MAX_EDGES", 3)
        head = "p edge 3 4\n" if layout == "canonical" else "c header\np edge 3 4\n"
        indent = " " if layout == "leading_space" else ""
        lines = [indent + line + "\n" for line in ("e 1 2", "e 2 3", "e 2 1", "e 1 3")]
        assert parse_dimacs(head + "".join(lines[:3])).m == 2
        message = "line 6: edge lines" if indent else "4 edge lines"
        with pytest.raises(GraphFormatError, match=f"{message} exceed the limit of 3"):
            parse_dimacs(head + "".join(lines))

    def test_edge_line_count_skips_line_loop(self, monkeypatch) -> None:
        # Over the limit, a text that is not canonical is never split.
        monkeypatch.setattr(graph, "MAX_EDGES", 3)
        monkeypatch.setattr(graph, "_parse_lines", lambda text: pytest.fail("line loop ran"))
        with pytest.raises(GraphFormatError, match="4 edge lines"):
            parse_dimacs("e 1 2\nc header\np edge 3 4\ne 2 3\ne 2 1\ne 1 3\n")

    def test_vertex_count_above_limit(self) -> None:
        with pytest.raises(GraphFormatError, match="limit"):
            parse_dimacs(f"p edge {MAX_VERTICES + 1} 0")

    def test_negative_vertex_count(self) -> None:
        with pytest.raises(GraphFormatError, match="negative"):
            Graph.from_edges(-1, [])


def _parse_outcome(parse, text: str) -> Graph | str:
    try:
        return parse(text)
    except GraphFormatError as exc:
        return str(exc)


# Departures from the canonical layout, each a change to the list of lines
# or to how they are joined.
_PERTURBATIONS = (
    "comment_first",
    "comment_middle",
    "blank_line",
    "crlf",
    "tab",
    "plus_sign",
    "no_final_newline",
    "endpoint_0",
    "endpoint_n_plus_1",
    "self_loop",
    "second_problem_line",
    "edge_before_problem_line",
    "huge_number",
    "leading_zero",
)


@st.composite
def _dimacs_text(draw: st.DrawFn) -> str:
    """A canonical text, duplicate and reversed edges allowed, with up to
    three perturbations applied."""
    n = draw(st.integers(min_value=0, max_value=8))
    edges = []
    if n >= 2:
        pairs = st.tuples(st.integers(1, n), st.integers(1, n - 1))
        for u, d in draw(st.lists(pairs, max_size=12)):
            edges.append((u, (u - 1 + d) % n + 1))
    lines = [f"p edge {n} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
    newline, final = "\n", "\n"

    def insert(line: str, first: int = 1) -> None:
        lines.insert(draw(st.integers(first, len(lines))), line)

    # Comments shaped like edge lines, which would shift the columns.
    comment = st.sampled_from(["c", "c 1 2", "c edge 2 1"])

    for kind in draw(st.lists(st.sampled_from(_PERTURBATIONS), max_size=3)):
        if kind == "comment_first":
            insert(draw(comment), first=0)
        elif kind == "comment_middle":
            insert(draw(comment))
        elif kind == "blank_line":
            insert("", first=0)
        elif kind == "crlf":
            newline = final = "\r\n"
        elif kind == "tab":
            k = draw(st.integers(0, len(lines) - 1))
            lines[k] = lines[k].replace(" ", "\t", 1)
        elif kind == "plus_sign":
            k = draw(st.integers(0, len(lines) - 1))
            lines[k] = lines[k].replace(" ", " +", 1) if k else lines[k][:7] + "+" + lines[k][7:]
        elif kind == "no_final_newline":
            final = ""
        elif kind == "endpoint_0":
            insert("e 0 1")
        elif kind == "endpoint_n_plus_1":
            insert(f"e 1 {n + 1}")
        elif kind == "self_loop":
            insert(f"e {n} {n}")
        elif kind == "second_problem_line":
            insert(f"p edge {n} 0")
        elif kind == "edge_before_problem_line":
            insert("e 1 2", first=0)
        elif kind == "huge_number":
            insert("e 1 " + "7" * 5000)
        elif kind == "leading_zero":
            # Canonical for the pattern, refused by JSON.
            edge_lines = [k for k, line in enumerate(lines) if line.startswith("e ")]
            if edge_lines:
                k = draw(st.sampled_from(edge_lines))
                lines[k] = lines[k].replace(" ", " 0", 1)
    return newline.join(lines) + final


class TestParsePaths:
    """The column path of `parse_dimacs` agrees with the line loop."""

    @PROPERTY_SETTINGS
    @given(_dimacs_text())
    def test_column_path_matches_line_loop(self, text: str) -> None:
        assert _parse_outcome(parse_dimacs, text) == _parse_outcome(_parse_lines, text)

    @pytest.mark.parametrize(
        "text",
        [
            "p edge 0 0\n",
            "p edge 0 0",
            "p edge 5 0\n",
            "p edge 5 3",
            f"p edge {MAX_VERTICES + 1} 0\n",
            f"p edge {MAX_VERTICES + 1} 0\ne 1 2\n",
            "p edge 3 1\ne 1 " + "2" * 5000 + "\n",
            "p edge " + "3" * 5000 + " 0\n",
            "p edge 3 1\ne 01 2\n",
        ],
    )
    def test_edge_cases_match_line_loop(self, text: str) -> None:
        assert _parse_outcome(parse_dimacs, text) == _parse_outcome(_parse_lines, text)

    def test_empty_and_limit_outcomes(self) -> None:
        g = parse_dimacs("p edge 0 0\n")
        assert (g.n, g.edges, g.adj) == (0, (), ())
        assert parse_dimacs("p edge 3 0").adj == ((), (), ())
        with pytest.raises(GraphFormatError, match=f"exceed the limit of {MAX_VERTICES}"):
            parse_dimacs(f"p edge {MAX_VERTICES + 1} 0\n")

    def test_huge_number_names_its_line(self) -> None:
        with pytest.raises(GraphFormatError, match="^line 3: malformed edge line"):
            parse_dimacs("p edge 3 2\ne 1 2\ne 1 " + "2" * 5000 + "\n")

    def test_canonical_text_skips_line_loop(self, monkeypatch) -> None:
        def refuse(text: str) -> Graph:
            raise AssertionError("canonical text reached the line loop")

        monkeypatch.setattr(graph, "_parse_lines", refuse)
        g = parse_dimacs("p edge 4 4\ne 1 2\ne 3 2\ne 2 1\ne 4 3")
        assert g.edges == ((0, 1), (1, 2), (2, 3))

    def test_canonical_memory_per_line(self) -> None:
        lines = 100_001
        text = "p edge 2 1\n" + "e 1 2\n" * (lines - 1)
        gc.collect()
        tracemalloc.start()
        try:
            parse_dimacs(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 128 * lines

    def test_comment_lines_memory(self) -> None:
        # The line loop reads its lines a block at a time: a list of every
        # line would hold about 60 bytes a line, 18 MB here.
        lines = 300_000
        text = "p edge 2 1\n" + "cc\n" * lines + "e 1 2\n"
        gc.collect()
        tracemalloc.start()
        try:
            g = parse_dimacs(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edges == ((0, 1),)
        assert peak <= 1 << 20


class _Source(io.StringIO):
    """A text file that records whether cyclic GC was enabled when read."""

    def __init__(self, text: str) -> None:
        super().__init__(text)
        self.gc_enabled: list[bool] = []

    def read(self, size: int | None = -1) -> str:
        self.gc_enabled.append(gc.isenabled())
        return super().read(size)


# Each parse call with a text it accepts from its column path, one from
# its line loop, and one its line loop refuses (True).
_PARSES = [
    (parse_dimacs, "p edge 3 2\ne 1 2\ne 2 3\n", False),
    (parse_dimacs, "c comment\np edge 3 2\ne 1 2\ne 2 3\n", False),
    (parse_dimacs, "p edge 3 1\ne 1 4\n", True),
    (lambda text: parse_matching(text, 4), "size 1\nmatched 1 2\n", False),
    (lambda text: parse_matching(text, 4), "size 1\n\nmatched 1 2\n", False),
    (lambda text: parse_matching(text, 4), "size 1\nmatched 1 5\n", True),
]


class TestGcPause:
    """`parse_dimacs` and `parse_matching` run with cyclic GC paused and
    run one young collection on exit, by a return or by an error; a
    caller's own pause is kept, with no collection."""

    @pytest.mark.parametrize("parse, text, refused", _PARSES)
    def test_paused_then_restored(self, parse, text: str, refused: bool) -> None:
        assert gc.isenabled()
        source = _Source(text)
        with support.gc_collections() as collections:
            outcome = _parse_outcome(parse, source)
        assert source.gc_enabled == [False]
        assert gc.isenabled()
        assert collections == [0]
        assert isinstance(outcome, str) == refused
        if refused:
            assert outcome.startswith("line 2: vertex index out of range")

    @pytest.mark.parametrize("parse, text, refused", _PARSES)
    def test_caller_pause_is_kept(self, parse, text: str, refused: bool) -> None:
        gc.disable()
        try:
            with support.gc_collections() as collections:
                _parse_outcome(parse, text)
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert collections == []


# Every line end of `str.splitlines`, and the characters near them.
_LINE_TEXT = st.text(alphabet="ab \t\n\r\v\f\x1c\x1d\x1e\x1f\x85\u2028\u2029", max_size=60)


class TestIterLines:
    @PROPERTY_SETTINGS
    @given(_LINE_TEXT, st.integers(min_value=0, max_value=8))
    def test_matches_splitlines(self, text: str, block: int) -> None:
        # Small blocks put block cuts inside lines and between "\r" and "\n".
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph, "_LINE_BLOCK", block)
            assert list(_iter_lines(text)) == text.splitlines()

    def test_default_block_matches_splitlines(self) -> None:
        text = "".join(f"line {k}" + "\r\n\n\r\x85"[k % 5 :] for k in range(20_000))
        assert list(_iter_lines(text)) == text.splitlines()


def _every_pair_line_loop(text: str, n: int) -> MatchingState:
    """The matching line loop as it reads with every pair kept: the
    reference for `_parse_matching_lines`, which keeps n // 2 + 1."""
    declared = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
            pairs.append((u - 1, v - 1))
        else:
            raise GraphFormatError(f"line {lineno}: unrecognized line {line!r}")
    if declared is not None and declared != len(pairs):
        raise GraphFormatError(f"declared size {declared} but {len(pairs)} matched lines")
    seen: set[int] = set()
    for u, v in pairs:
        if u in seen or v in seen or u == v:
            raise GraphFormatError(f"vertex repeated in matching: ({u + 1}, {v + 1})")
        seen.update((u, v))
    return MatchingState(n, pairs)


# Departures from a valid canonical matching text: the first eight keep
# the canonical layout, the rest leave it.
_MATCHING_PERTURBATIONS = (
    "size_mismatch",
    "vertex_0",
    "vertex_n_plus_1",
    "self_pair",
    "repeat",
    "many_repeats",
    "leading_zero",
    "huge_number",
    "comment",
    "blank_line",
    "crlf",
    "tab",
    "no_final_newline",
)


@st.composite
def _matching_text(draw: st.DrawFn) -> tuple[str, int]:
    """A vertex count and a matching text over it: a valid canonical text
    with up to three perturbations applied."""
    n = draw(st.integers(min_value=0, max_value=10))
    order = draw(st.permutations(range(1, n + 1)))
    k = draw(st.integers(min_value=0, max_value=n // 2))
    pairs = [(order[2 * i], order[2 * i + 1]) for i in range(k)]
    declared = k
    lines = [f"matched {u} {v}" for u, v in pairs]
    newline, final = "\n", "\n"
    vertex = st.integers(1, max(n, 1))

    def insert(line: str) -> None:
        lines.insert(draw(st.integers(0, len(lines))), line)

    for kind in draw(st.lists(st.sampled_from(_MATCHING_PERTURBATIONS), max_size=3)):
        if kind == "size_mismatch":
            declared += draw(st.sampled_from([-1, 1]))
        elif kind == "vertex_0":
            insert(f"matched 0 {draw(vertex)}")
        elif kind == "vertex_n_plus_1":
            insert(f"matched {draw(vertex)} {n + 1}")
        elif kind == "self_pair":
            v = draw(vertex)
            insert(f"matched {v} {v}")
        elif kind == "repeat":
            insert(f"matched {draw(vertex)} {draw(vertex)}")
        elif kind == "many_repeats":
            # More pairs than n // 2 + 1, past what the line loop keeps.
            line = f"matched {draw(vertex)} {draw(vertex)}"
            lines += [line] * draw(st.integers(n // 2 + 1, n + 3))
        elif kind == "leading_zero" and lines:
            k = draw(st.integers(0, len(lines) - 1))
            lines[k] = lines[k].replace(" ", " 0", 1)
        elif kind == "huge_number":
            insert("matched 1 " + "7" * 5000)
        elif kind == "comment":
            insert(draw(st.sampled_from(["c", "c 1 2", "c matched 1 2"])))
        elif kind == "blank_line":
            insert("")
        elif kind == "crlf":
            newline = final = "\r\n"
        elif kind == "tab" and lines:
            k = draw(st.integers(0, len(lines) - 1))
            lines[k] = lines[k].replace(" ", "\t", 1)
        elif kind == "no_final_newline":
            final = ""
    if declared < 0:
        # No canonical size is below 0: take one past the int-conversion
        # limit instead.
        declared = "9" * 5000
    return newline.join([f"size {declared}"] + lines) + final, n


class TestMatchingPaths:
    """The column path of `parse_matching` agrees with the line loop, and
    the line loop with one that keeps every pair."""

    @PROPERTY_SETTINGS
    @given(_matching_text())
    def test_column_path_matches_line_loop(self, case: tuple[str, int]) -> None:
        text, n = case
        outcome = _parse_outcome(lambda t: parse_matching(t, n), text)
        assert outcome == _parse_outcome(lambda t: _parse_matching_lines(t, n), text)
        assert outcome == _parse_outcome(lambda t: _every_pair_line_loop(t, n), text)

    def test_canonical_text_skips_line_loop(self, monkeypatch) -> None:
        def refuse(text: str, n: int) -> MatchingState:
            raise AssertionError("canonical text reached the line loop")

        monkeypatch.setattr(graph, "_parse_matching_lines", refuse)
        m = parse_matching("size 2\nmatched 4 1\nmatched 2 3", 5)
        assert m.partner == [3, 2, 1, 0, None]
        assert parse_matching("size 0\n", 0).partner == []

    def test_canonical_memory_per_line(self) -> None:
        n = 100_000
        text = serialize_matching(MatchingState(n, [(2 * i, 2 * i + 1) for i in range(n // 2)]))
        gc.collect()
        tracemalloc.start()
        try:
            m = parse_matching(text, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.size() == n // 2
        assert peak <= 288 * (n // 2)

    def test_repeated_pairs_memory(self) -> None:
        # Pairs past n // 2 + 1 are counted, not kept: a list of every
        # line and every pair would hold about 35 MB here.
        lines = 300_000
        text = "size 1\n" + "matched 1 2\n" * lines
        gc.collect()
        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError, match=f"^declared size 1 but {lines} matched"):
                parse_matching(text, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20
        with pytest.raises(GraphFormatError, match=r"^vertex repeated in matching: \(1, 2\)"):
            parse_matching("size 1000\n" + "matched 1 2\n" * 1000, 4)


class TestValidateMatching:
    def test_p4_middle_edge_valid(self) -> None:
        g, m = support.p4()
        assert validate_matching(g, m) == []

    def test_asymmetric_partner_reported(self) -> None:
        g, _ = support.p4()
        m = MatchingState(4)
        m.partner[0] = 1
        m.partner[1] = 2
        m.partner[2] = 1
        report = validate_matching(g, m)
        assert any("asymmetry" in line for line in report)

    def test_overlapping_pairs_reported(self) -> None:
        g, _ = support.triangle()
        m = MatchingState(3)
        m.partner[0] = 1
        m.partner[1] = 2
        m.partner[2] = 1
        assert any("asymmetry" in line for line in validate_matching(g, m))

    def test_non_edge_pair_reported(self) -> None:
        g, _ = support.p4()
        m = MatchingState(4, [(0, 3)])
        assert any("not a graph edge" in line for line in validate_matching(g, m))

    def test_size_mismatch_reported(self) -> None:
        g, _ = support.p4()
        assert validate_matching(g, MatchingState(5)) == [
            "matching covers 5 vertices but graph has 4"
        ]

    def test_out_of_range_partner_reported(self) -> None:
        g, _ = support.p4()
        m = MatchingState(4)
        m.partner[1] = 4
        assert validate_matching(g, m) == ["partner(1) = 4 out of range"]


class TestAugment:
    def test_single_edge_from_empty_matching(self) -> None:
        g = Graph.from_edges(2, [(0, 1)])
        m = MatchingState(2)
        augment_in_place(m, g, [0, 1])
        assert m.pairs() == [(0, 1)]

    def test_p4_full_flip(self) -> None:
        g, m = support.p4()
        out = m.copy()
        augment_in_place(out, g, [0, 1, 2, 3])
        assert out.pairs() == [(0, 1), (2, 3)]
        assert out.size() == m.size() + 1
        assert m.pairs() == [(1, 2)]  # input untouched

    def test_matched_endpoint_rejected(self) -> None:
        g, m = support.p4()
        with pytest.raises(ValueError, match="endpoint 2 matched"):
            augment_in_place(m.copy(), g, [0, 1, 2])

    def test_non_alternating_rejected(self) -> None:
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="alternate"):
            augment_in_place(MatchingState(4), g, [0, 1, 2, 3])

    def test_even_edge_count_refused_at_an_endpoint(self) -> None:
        # An alternating path with an even number of edges ends in a
        # matched edge, so the endpoint check refuses each one.
        count = 0
        for g, m in support.small_instances(5):
            for start in range(g.n):
                for path in _iter_alternating_paths(g, m, start):
                    if len(path) % 2 and len(path) > 1:
                        with pytest.raises(ValueError, match=r"^endpoint \d+ matched$"):
                            augment_in_place(m, g, path)
                        count += 1
        assert count == 93_336

    def test_one_vertex_path_rejected(self) -> None:
        g = Graph.from_edges(2, [(0, 1)])
        m = MatchingState(2)
        with pytest.raises(ValueError, match="at least 2 vertices, got 1"):
            augment_in_place(m, g, [0])
        assert m.pairs() == []


class TestSerialization:
    def test_dimacs_round_trip_p4(self) -> None:
        g, _ = support.p4()
        assert parse_dimacs(serialize_dimacs(g)).edges == g.edges

    def test_matching_round_trip(self) -> None:
        g, m = support.p4()
        text = serialize_matching(m)
        assert text == "size 1\nmatched 2 3\n"
        assert parse_matching(text, g.n) == m

    def test_matching_size_mismatch_rejected(self) -> None:
        with pytest.raises(GraphFormatError, match="declared size"):
            parse_matching("size 2\nmatched 1 2\n", 4)

    def test_matching_repeated_vertex_rejected(self) -> None:
        with pytest.raises(GraphFormatError, match="repeated"):
            parse_matching("size 2\nmatched 1 2\nmatched 2 3\n", 4)

    def test_matching_out_of_range_vertex_rejected(self) -> None:
        with pytest.raises(GraphFormatError, match=r"line 2: vertex index out of range \[1, 4\]"):
            parse_matching("size 1\nmatched 1 5\n", 4)

    @pytest.mark.parametrize("field", ["1_0", "\u0661", "+1"])
    def test_matching_numbers_are_ascii_digits(self, field: str) -> None:
        with pytest.raises(GraphFormatError, match="^line 2: malformed line"):
            parse_matching(f"size 1\nmatched {field} 2\n", 12)

    def test_matching_unrecognized_line_rejected(self) -> None:
        with pytest.raises(GraphFormatError, match="line 2: unrecognized line 'pair 1 2'"):
            parse_matching("size 1\npair 1 2\n", 4)

    def test_matching_comments_and_blank_lines_skipped(self) -> None:
        m = parse_matching("c header\n\nsize 1\n  \nc mid\nmatched 2 3\n", 4)
        assert m == support.p4()[1]

    def test_matching_reads_a_text_stream(self) -> None:
        assert parse_matching(io.StringIO("size 1\nmatched 2 3\n"), 4) == support.p4()[1]

    def test_matching_size_counts_pairs(self) -> None:
        m = MatchingState(5, [(0, 3), (1, 2)])
        assert m.size() == 2
        assert MatchingState(3).size() == 0


class TestGenerateRandomGraph:
    def test_k4_forced(self) -> None:
        g = generate_random_graph(4, 6, 31337)
        assert sorted(g.edges) == sorted(support.k4().edges)

    def test_edgeless(self) -> None:
        assert generate_random_graph(7, 0, 5).edges == ()

    def test_capacity_exceeded(self) -> None:
        with pytest.raises(ValueError, match="capacity"):
            generate_random_graph(3, 4, 0)

    def test_negative_edge_count(self) -> None:
        with pytest.raises(ValueError, match="negative"):
            generate_random_graph(5, -1, 0)

    def test_edge_count_above_limit(self) -> None:
        with pytest.raises(ValueError, match="limit"):
            generate_random_graph(10**6, MAX_EDGES + 1, 0)

    def test_vertex_count_above_limit_refused_before_sampling(self, monkeypatch) -> None:
        def no_sampling(seed):
            pytest.fail("sampling began")

        monkeypatch.setattr(graph.random, "Random", no_sampling)
        with pytest.raises(ValueError, match=f"exceed the limit of {MAX_VERTICES}"):
            generate_random_graph(MAX_VERTICES + 1, 10**6, 0)

    @PROPERTY_SETTINGS
    @given(
        n=st.integers(min_value=1, max_value=30),
        frac=st.floats(min_value=0.0, max_value=1.0),
        seed=_SEED,
    )
    def test_deterministic_and_exact_edge_count(
        self, n: int, frac: float, seed: int
    ) -> None:
        m = int(frac * (n * (n - 1) // 2))
        g1 = generate_random_graph(n, m, seed)
        g2 = generate_random_graph(n, m, seed)
        assert g1.edges == g2.edges
        assert g1.m == m
        assert all(u != v for u, v in g1.edges)


class TestGraphLayout:
    @PROPERTY_SETTINGS
    @given(given_edges=_edge_input())
    @example(given_edges=(0, []))
    def test_from_edges_against_a_reference(
        self, given_edges: tuple[int, list[tuple[int, int]]]
    ) -> None:
        n, pairs = given_edges
        g = Graph.from_edges(n, pairs)
        ref: list[tuple[int, int]] = []
        for u, v in pairs:
            if (min(u, v), max(u, v)) not in ref:
                ref.append((min(u, v), max(u, v)))
        # Edges are in first-occurrence order, each as (u, v), u < v.
        assert (g.n, g.edges) == (n, tuple(ref))
        # adj[v] is the other ends of v's edges in that order, the
        # order in which `phase._assign_maxlevels` files waiting bridges.
        assert g.adj == tuple(
            tuple(b if a == v else a for a, b in ref if v in (a, b)) for v in range(n)
        )
        for u in range(n):
            for v in range(n):
                want = (min(u, v), max(u, v)) in ref
                assert g.has_edge(u, v) == g.has_edge(v, u) == want, (u, v)

    def test_built_graph_holds_under_250_bytes_an_edge(self) -> None:
        # Each edge is held once as a tuple in `edges` and as two
        # neighbour ints in `adj`, with no id or index beside them: about
        # 150 bytes an edge under tracemalloc, the endpoint ints the parse
        # makes included.
        text = serialize_dimacs(generate_random_graph(4000, 20000, 2020))
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            g = parse_dimacs(text)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert g.m == 20000
        assert held / g.m < 250


class TestGraphProperties:
    @PROPERTY_SETTINGS
    @given(g=_random_graph())
    def test_degree_sum_is_twice_edge_count(self, g: Graph) -> None:
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m

    @PROPERTY_SETTINGS
    @given(g=_random_graph())
    def test_dimacs_round_trip_preserves_edge_set(self, g: Graph) -> None:
        back = parse_dimacs(serialize_dimacs(g))
        assert set(back.edges) == set(g.edges)
        assert back.n == g.n

    @PROPERTY_SETTINGS
    @given(g=_random_graph(), seed=_SEED)
    def test_greedy_matchings_validate_and_round_trip(self, g: Graph, seed: int) -> None:
        m = greedy_matching(g, seed)
        assert validate_matching(g, m) == []
        assert parse_matching(serialize_matching(m), g.n) == m

    @PROPERTY_SETTINGS
    @given(g=_random_graph(), seed=_SEED)
    def test_augment_grows_matching_by_one(self, g: Graph, seed: int) -> None:
        m = greedy_matching(g, seed)
        path = _find_augmenting_path(g, m)
        if path is None:
            return
        out = m.copy()
        augment_in_place(out, g, path)
        assert out.size() == m.size() + 1
        assert validate_matching(g, out) == []


def _find_augmenting_path(g: Graph, m: MatchingState) -> list[int] | None:
    """Small DFS helper: any augmenting path, or None."""
    for start in range(g.n):
        if m.is_matched(start):
            continue
        found = _extend(g, m, [start], {start})
        if found is not None:
            return found
    return None


def _extend(g: Graph, m: MatchingState, path: list[int], seen: set[int]) -> list[int] | None:
    v = path[-1]
    need_matched = len(path) % 2 == 0
    for w in g.adj[v]:
        if w in seen or (m.partner[v] == w) != need_matched:
            continue
        if not need_matched and not m.is_matched(w):
            return path + [w]
        path.append(w)
        seen.add(w)
        found = _extend(g, m, path, seen)
        if found is not None:
            return found
        path.pop()
        seen.remove(w)
    return None


class TestCheckAlternating:
    def test_valid_path(self) -> None:
        g, m = support.p4()
        assert check_alternating(g, m, [0, 1, 2, 3]) is None

    def test_repeated_vertex(self) -> None:
        g, m = support.triangle()
        assert check_alternating(g, m, [0, 1, 2, 0]) == "path repeats a vertex"

    def test_non_edge(self) -> None:
        g, m = support.p4()
        assert "not a graph edge" in check_alternating(g, m, [0, 2])
