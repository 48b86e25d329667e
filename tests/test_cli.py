"""Tests for the command-line front end and its exit-code contract."""

from __future__ import annotations

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvmatching
from mvmatching import cli
from mvmatching.cli import TRACE_HEADER, main
from mvmatching.graph import (
    MAX_EDGES,
    MAX_VERTICES,
    parse_dimacs,
    parse_matching,
    serialize_dimacs,
)
from mvmatching.phase import run_phase

import support

P4_DIMACS = "p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
PETERSEN_DIMACS = serialize_dimacs(support.petersen())
C5_DIMACS = serialize_dimacs(support.c5())
TRIANGLE_DIMACS = serialize_dimacs(support.triangle()[0])
BARBELL_DIMACS = serialize_dimacs(support.barbell())
# The paw (triangle 1-2-3 with 4 on 1) plus the edge 3-4, so that no
# vertex has degree 1 and the seed's degree-1 cascade matches nothing.
DIAMOND_DIMACS = "p edge 4 5\ne 1 3\ne 1 4\ne 2 3\ne 1 2\ne 3 4\n"

# The five-cycle 1-2-3-4-5 with a hub 6 on vertex 1 and two leaves 7 and
# 8 on the hub.  The seed matches leaf 8 to the hub and two pairs of the
# cycle, leaving 5 and 7 free in one component, and by Tutte-Berge with
# the barrier {6} no augmenting path exists, so the certifying search runs.
C5_HUB_DIMACS = "p edge 8 8\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\ne 1 6\ne 6 7\ne 6 8\n"

# Full `solve --trace` streams, line for line.  Neither the barbell nor
# the diamond has a vertex of degree 1, so the seed is the greedy pass
# alone and leaves one short augmenting path in each.  The barbell's
# bridge (2, 3) forms a petal before the path is found; the diamond's
# bridge ends its DDFS with a terminated seek.  After each path the
# matching is perfect, so the certifying step runs no search.  The
# five-cycle's seed leaves one free vertex, so its one certifying step
# runs no search either.  In the hub graph's certifying search the
# cycle's bridge forms a petal through meet, reassign and backtrack
# steps, and two more levels find no path.
BARBELL_TRACE = """\
mvtrace 1
level 0
minlevel 2 1
minlevel 0 1
minlevel 3 1
minlevel 5 1
level 1
bridge 2 3 tenacity 3
bridge 0 5 tenacity 3
ddfs advance red 1 0
ddfs meet green 1 0
ddfs backtrack red 1 0
ddfs reassign green 1 0
ddfs reassign red 1 0
ddfs backtrack green 1 0
ddfs terminate - 1 0
petal bud 1 members 2,3
ddfs advance red 1 0
ddfs advance green 4 0
ddfs terminate - 1 0
path 1-0-5-4
phases 2
"""
C5_TRACE = """\
mvtrace 1
phases 1
"""
C5_HUB_TRACE = """\
mvtrace 1
level 0
minlevel 3 1
minlevel 0 1
minlevel 5 1
level 1
minlevel 2 2
minlevel 1 2
minlevel 7 2
level 2
bridge 1 2 tenacity 5
ddfs advance red 0 1
ddfs advance green 3 1
ddfs advance red 4 0
ddfs meet green 4 0
ddfs backtrack red 4 0
ddfs reassign green 4 0
ddfs backtrack red 0 1
ddfs reassign red 4 0
ddfs backtrack green 4 0
ddfs backtrack green 3 1
ddfs terminate - 4 0
petal bud 4 members 0,1,2,3
level 3
level 4
phases 1
"""
DIAMOND_TRACE = """\
mvtrace 1
level 0
minlevel 2 1
minlevel 0 1
level 1
bridge 0 2 tenacity 3
ddfs advance red 1 0
ddfs meet green 1 0
ddfs backtrack red 1 0
ddfs reassign green 1 0
ddfs advance red 3 0
ddfs terminate_seek red 3 0
ddfs terminate - 3 0
path 3-0-2-1
phases 2
"""


def _run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_p4_size_2(self, tmp_path, capsys) -> None:
        f = tmp_path / "g.dimacs"
        f.write_text(P4_DIMACS)
        code, out, _ = _run(capsys, ["solve", str(f)])
        assert code == 0
        assert out.startswith("size 2\n")
        m = parse_matching(out, 4)
        assert m.size() == 2

    def test_petersen_size_5(self, tmp_path, capsys) -> None:
        f = tmp_path / "g.dimacs"
        f.write_text(PETERSEN_DIMACS)
        code, out, _ = _run(capsys, ["solve", str(f)])
        assert code == 0
        assert out.startswith("size 5\n")

    def test_c5_size_2(self, tmp_path, capsys) -> None:
        f = tmp_path / "g.dimacs"
        f.write_text(C5_DIMACS)
        code, out, _ = _run(capsys, ["solve", str(f)])
        assert code == 0
        assert out.startswith("size 2\n")

    def test_stdin_input(self, capsys, monkeypatch) -> None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(P4_DIMACS))
        code, out, _ = _run(capsys, ["solve", "-"])
        assert code == 0
        assert out.startswith("size 2\n")

    def test_parse_error_exits_2(self, tmp_path, capsys) -> None:
        f = tmp_path / "bad.dimacs"
        f.write_text("p edge 2 1\ne 1 9\n")
        code, _, err = _run(capsys, ["solve", str(f)])
        assert code == 2
        assert "error:" in err

    def test_out_file_and_size_line(self, tmp_path, capsys) -> None:
        f = tmp_path / "g.dimacs"
        f.write_text(P4_DIMACS)
        dest = tmp_path / "matching.txt"
        code, out, _ = _run(capsys, ["solve", str(f), "--out", str(dest)])
        assert code == 0
        assert out == "size 2\n"
        assert parse_matching(dest.read_text(), 4).size() == 2

    def test_out_dash_is_stdout(self, tmp_path, capsys, monkeypatch) -> None:
        f = tmp_path / "g.dimacs"
        f.write_text(PETERSEN_DIMACS)
        monkeypatch.chdir(tmp_path)
        plain = _run(capsys, ["solve", str(f)])
        assert _run(capsys, ["solve", str(f), "--out", "-"]) == plain
        assert plain[0] == 0 and plain[1].startswith("size 5\n")
        assert not (tmp_path / "-").exists()

    def test_trace_header_and_events(self, tmp_path, capsys) -> None:
        f = tmp_path / "g.dimacs"
        f.write_text(BARBELL_DIMACS)
        code, _, err = _run(capsys, ["solve", str(f), "--trace"])
        assert code == 0
        lines = err.splitlines()
        assert lines[0] == TRACE_HEADER
        assert any(line.startswith("bridge ") for line in lines)
        assert any(line.startswith("path ") for line in lines)

    @pytest.mark.parametrize(
        "dimacs, expected",
        [
            (BARBELL_DIMACS, BARBELL_TRACE),
            (C5_DIMACS, C5_TRACE),
            (C5_HUB_DIMACS, C5_HUB_TRACE),
            (DIAMOND_DIMACS, DIAMOND_TRACE),
        ],
        ids=["barbell", "c5", "c5_hub", "diamond"],
    )
    def test_golden_trace(self, tmp_path, capsys, dimacs, expected) -> None:
        f = tmp_path / "g.dimacs"
        f.write_text(dimacs)
        code, _, err = _run(capsys, ["solve", str(f), "--trace"])
        assert code == 0
        assert err.splitlines() == expected.splitlines()

    def test_deterministic_output(self, tmp_path, capsys) -> None:
        f = tmp_path / "g.dimacs"
        f.write_text(PETERSEN_DIMACS)
        _, first, _ = _run(capsys, ["solve", str(f)])
        _, second, _ = _run(capsys, ["solve", str(f)])
        assert first == second


class TestVerify:
    def test_non_maximum_gives_witness(self, tmp_path, capsys) -> None:
        g = tmp_path / "g.dimacs"
        g.write_text(P4_DIMACS)
        m = tmp_path / "m.txt"
        m.write_text("size 1\nmatched 2 3\n")
        code, out, _ = _run(capsys, ["verify", str(g), str(m)])
        assert code == 1
        assert "not maximum: augmenting path" in out
        assert "1-2-3-4" in out or "4-3-2-1" in out

    def test_maximum_matching_accepted(self, tmp_path, capsys) -> None:
        g = tmp_path / "g.dimacs"
        g.write_text(P4_DIMACS)
        m = tmp_path / "m.txt"
        m.write_text("size 2\nmatched 1 2\nmatched 3 4\n")
        code, out, _ = _run(capsys, ["verify", str(g), str(m)])
        assert code == 0
        assert "valid maximum matching of size 2" in out

    def test_one_free_vertex_per_component_runs_no_search(
        self, tmp_path, capsys, monkeypatch
    ) -> None:
        # Two triangles and a five-cycle, each with one free vertex: Berge's
        # lemma alone shows the matching maximum.
        def no_search(g, m, trace=None):
            raise AssertionError("run_phase called")

        monkeypatch.setattr(cli, "run_phase", no_search)
        g = tmp_path / "g.dimacs"
        g.write_text(
            "p edge 11 11\ne 1 2\ne 2 3\ne 1 3\ne 4 5\ne 5 6\ne 4 6\n"
            "e 7 8\ne 8 9\ne 9 10\ne 10 11\ne 7 11\n"
        )
        m = tmp_path / "m.txt"
        m.write_text("size 4\nmatched 1 2\nmatched 5 6\nmatched 7 8\nmatched 9 10\n")
        code, out, _ = _run(capsys, ["verify", str(g), str(m)])
        assert (code, out) == (0, "valid maximum matching of size 4\n")

    def test_two_free_leaves_of_a_star_run_the_search(
        self, tmp_path, capsys, monkeypatch
    ) -> None:
        # K_{1,3} with the centre matched: maximum, with two free leaves
        # in one component, so only the search can show it.
        calls = []

        def counted(g, m, trace=None):
            calls.append(m.partner[:])
            return run_phase(g, m, trace)

        monkeypatch.setattr(cli, "run_phase", counted)
        g = tmp_path / "g.dimacs"
        g.write_text("p edge 4 3\ne 1 2\ne 1 3\ne 1 4\n")
        m = tmp_path / "m.txt"
        m.write_text("size 1\nmatched 1 2\n")
        code, out, _ = _run(capsys, ["verify", str(g), str(m)])
        assert (code, out) == (0, "valid maximum matching of size 1\n")
        assert calls == [[1, 0, None, None]]

    def test_invalid_matching_rejected(self, tmp_path, capsys) -> None:
        g = tmp_path / "g.dimacs"
        g.write_text(P4_DIMACS)
        m = tmp_path / "m.txt"
        m.write_text("size 1\nmatched 1 4\n")  # not an edge
        code, out, _ = _run(capsys, ["verify", str(g), str(m)])
        # Vertices are named 1-based, as in the files.
        assert (code, out) == (1, "invalid: matched pair (1, 4) is not a graph edge\n")

    def test_both_inputs_from_stdin_exit_2(self, capsys, monkeypatch) -> None:
        import io

        stdin = io.StringIO(P4_DIMACS)
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = _run(capsys, ["verify", "-", "-"])
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert stdin.tell() == 0  # nothing read

    def test_malformed_matching_exits_2(self, tmp_path, capsys) -> None:
        g = tmp_path / "g.dimacs"
        g.write_text(P4_DIMACS)
        m = tmp_path / "m.txt"
        m.write_text("size 2\nmatched 1 2\nmatched 2 3\n")  # reuses vertex 2
        code, _, err = _run(capsys, ["verify", str(g), str(m)])
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("line", ["size x", "matched 1 y"])
    def test_non_integer_field_exits_2(self, tmp_path, capsys, line) -> None:
        g = tmp_path / "g.dimacs"
        g.write_text(P4_DIMACS)
        m = tmp_path / "m.txt"
        m.write_text(f"{line}\n")
        code, _, err = _run(capsys, ["verify", str(g), str(m)])
        assert code == 2
        assert "error: line 1: malformed line" in err


class TestGen:
    def test_deterministic(self, capsys) -> None:
        _, first, _ = _run(capsys, ["gen", "8", "12", "--seed", "7"])
        _, second, _ = _run(capsys, ["gen", "8", "12", "--seed", "7"])
        assert first == second
        g = parse_dimacs(first)
        assert g.n == 8 and g.m == 12

    def test_capacity_error_exits_2(self, capsys) -> None:
        code, _, err = _run(capsys, ["gen", "3", "10"])
        assert code == 2
        assert "error:" in err

    def test_negative_vertex_count_exits_2(self, capsys) -> None:
        code, out, err = _run(capsys, ["gen", "-3", "0"])
        assert code == 2
        assert err.startswith("error:") and out == ""

    def test_negative_edge_count_exits_2(self, capsys) -> None:
        code, out, err = _run(capsys, ["gen", "5", "-1"])
        assert code == 2
        assert err.startswith("error:") and out == ""

    def test_out_dash_is_stdout(self, tmp_path, capsys, monkeypatch) -> None:
        monkeypatch.chdir(tmp_path)
        plain = _run(capsys, ["gen", "8", "12", "--seed", "7"])
        assert _run(capsys, ["gen", "8", "12", "--seed", "7", "--out", "-"]) == plain
        assert plain[0] == 0 and parse_dimacs(plain[1]).m == 12
        assert not (tmp_path / "-").exists()

    def test_roundtrips_with_solve(self, tmp_path, capsys) -> None:
        dest = tmp_path / "g.dimacs"
        code, _, _ = _run(capsys, ["gen", "10", "15", "--seed", "3", "--out", str(dest)])
        assert code == 0
        code, out, _ = _run(capsys, ["solve", str(dest)])
        assert code == 0
        assert out.startswith("size ")


class TestOracleCheck:
    def test_fixture_graph_ok(self, tmp_path, capsys) -> None:
        f = tmp_path / "g.dimacs"
        f.write_text(PETERSEN_DIMACS)
        code, out, _ = _run(capsys, ["oracle-check", str(f)])
        assert code == 0
        assert out.strip().startswith("ok:")

    def test_guard_exceeded_exits_2(self, tmp_path, capsys) -> None:
        f = tmp_path / "g.dimacs"
        f.write_text("p edge 20 1\ne 1 2\n")
        code, _, err = _run(capsys, ["oracle-check", str(f)])
        assert code == 2
        assert "guard" in err
        # No option lifts the guard.
        with pytest.raises(SystemExit) as exc:
            main(["oracle-check", str(f), "--guard-override"])
        assert exc.value.code == 2

    def test_guard_fires_before_any_greedy_matching(self, tmp_path, capsys, monkeypatch) -> None:
        def no_greedy(g, seed):
            raise AssertionError("greedy matching built before the guard")

        monkeypatch.setattr(cli, "_greedy_matching", no_greedy)
        f = tmp_path / "g.dimacs"
        f.write_text("p edge 20 1\ne 1 2\n")
        code, _, err = _run(capsys, ["oracle-check", str(f)])
        assert code == 2
        assert "guard" in err

    def test_guard_fires_on_the_declared_n_before_the_parse(
        self, tmp_path, capsys, monkeypatch
    ) -> None:
        def no_parse(text):
            raise AssertionError("graph parsed before the guard")

        monkeypatch.setattr(cli, "parse_dimacs", no_parse)
        f = tmp_path / "g.dimacs"
        # The self-loop would be a parse error; the guard comes first.
        f.write_text("c large\r\n p edge 100000 2 \r\ne 1 2\r\ne 3 3\r\n")
        code, out, err = _run(capsys, ["oracle-check", str(f)])
        assert (code, out) == (2, "")
        assert err == "error: n = 100000 exceeds oracle guard 14\n"

    def test_guard_fires_on_the_parsed_n_of_another_layout(self, tmp_path, capsys) -> None:
        # A no-break space between fields is whitespace to the parser only.
        f = tmp_path / "g.dimacs"
        f.write_text("p\u00a0edge 20 1\ne 1 2\n", encoding="utf-8")
        code, _, err = _run(capsys, ["oracle-check", str(f)])
        assert code == 2
        assert err == "error: n = 20 exceeds oracle guard 14\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p edge 5 1\ne 1 9\n", "vertex index out of range"),
            ("p edge 5 1\ne 2 2\n", "self-loop"),
            ("c no problem line\n", "missing problem line"),
        ],
    )
    def test_small_graph_reports_its_parse_error(
        self, tmp_path, capsys, text: str, message: str
    ) -> None:
        f = tmp_path / "g.dimacs"
        f.write_text(text)
        code, _, err = _run(capsys, ["oracle-check", str(f)])
        assert code == 2
        assert message in err

    def test_fault_injection_detected(self, tmp_path, capsys, monkeypatch) -> None:
        f = tmp_path / "g.dimacs"
        f.write_text(TRIANGLE_DIMACS)
        code, out, _ = _run(capsys, ["oracle-check", str(f), "--seed", "0"])
        assert code == 0

        run_phase = cli.run_phase

        def faulty_run_phase(g, m):
            s = run_phase(g, m)
            s.evenlevel[0] += 2  # negative-control corruption
            return s

        monkeypatch.setattr(cli, "run_phase", faulty_run_phase)
        code, out, _ = _run(capsys, ["oracle-check", str(f), "--seed", "0"])
        assert code == 1
        assert "disagreement" in out
        # Vertex 0 of the library is vertex 1 of the file.
        assert "matching 1: engine levels for 1 (4, 1) != oracle (2, 1)" in out.splitlines()

    def test_structural_violation_exits_1(self, tmp_path, capsys, monkeypatch) -> None:
        f = tmp_path / "g.dimacs"
        f.write_text(P4_DIMACS)
        monkeypatch.setattr(cli.oracle, "check_structural_theorems", lambda profile: ["injected"])
        code, out, _ = _run(capsys, ["oracle-check", str(f)])
        assert code == 1
        assert out.splitlines() == [f"matching {k}: injected" for k in range(4)] + [
            "4 disagreement(s)"
        ]

    def test_l_m_disagreement_exits_1(self, tmp_path, capsys, monkeypatch) -> None:
        # P4 from the empty matching has l_m = 1; the engine's is shifted.
        f = tmp_path / "g.dimacs"
        f.write_text(P4_DIMACS)
        run_phase = cli.run_phase

        def shifted_run_phase(g, m):
            s = run_phase(g, m)
            if m.size() == 0:
                s.l_m += 2
            return s

        monkeypatch.setattr(cli, "run_phase", shifted_run_phase)
        code, out, _ = _run(capsys, ["oracle-check", str(f)])
        assert code == 1
        assert "matching 0: engine l_m 3 != oracle 1" in out.splitlines()
        assert out.splitlines()[-1].endswith("disagreement(s)")


class TestBench:
    def test_table_and_phase_bound(self, capsys) -> None:
        code, out, _ = _run(
            capsys, ["bench", "--n", "200", "--m", "500", "--repeats", "2", "--seed", "1"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n m phases seconds"
        assert len(lines) == 3
        for line in lines[1:]:
            n, m, phases, _secs = line.split()
            assert (int(n), int(m)) == (200, 500)
            assert int(phases) <= 31  # ceil(2*sqrt(200)) + 2

    def test_empty_graph(self, capsys) -> None:
        code, out, _ = _run(capsys, ["bench", "--n", "5", "--m", "0"])
        assert code == 0
        assert out.splitlines()[1].startswith("5 0 1 ")

    def test_phases_above_bound_exit_1(self, capsys, monkeypatch) -> None:
        # The bound for n = 5 is ceil(2 * sqrt(5)) + 2 = 7.
        maximum_matching = cli.maximum_matching
        monkeypatch.setattr(cli, "maximum_matching", lambda g: (maximum_matching(g)[0], 8))
        code, out, err = _run(capsys, ["bench", "--n", "5", "--m", "0"])
        assert code == 1
        assert out.splitlines()[1].startswith("5 0 8 ")
        assert err == "error: phases 8 exceed bound 7\n"

    @pytest.mark.parametrize(
        "n, m",
        [(5, 100), (-3, 0), (20_000_000, 0), (5, -3)],
        ids=["capacity", "negative", "limit", "negative_edges"],
    )
    def test_bad_size_exits_2(self, capsys, n, m) -> None:
        code, out, err = _run(capsys, ["bench", "--n", str(n), "--m", str(m)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_repeats_below_one_exits_2(self, capsys, repeats) -> None:
        code, out, err = _run(capsys, ["bench", "--n", "5", "--m", "0", "--repeats", str(repeats)])
        assert code == 2
        assert out == ""
        assert err == f"error: --repeats {repeats} is below 1\n"


def _run_under_memory_cap(
    args: list[str], stdin: str = "", cap_kb: int = 1_500_000
) -> subprocess.CompletedProcess:
    """Run `mvmatch args` in a child process whose address space alone is
    limited to cap_kb KiB, 1.5 GB by default."""
    resource = pytest.importorskip("resource")
    cap = cap_kb * 1024

    def limit_memory() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(mvmatching.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "mvmatching.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=limit_memory,
        timeout=120,
    )


def _assert_limit_error(out: subprocess.CompletedProcess) -> None:
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error:") and "limit" in out.stderr
    assert "Traceback" not in out.stderr


@functools.cache
def _too_many_edges() -> str:
    """A canonical text of 3 * 10^6 distinct edges on MAX_VERTICES
    vertices: i to i + 1, then i to i + 2."""
    n = MAX_VERTICES
    lines = [f"p edge {n} 3000000"]
    for d in (1, 2):
        lines += [f"e {i} {i + d}" for i in range(1, n - d + 1)]
    del lines[3000001:]
    return "\n".join(lines) + "\n"


class TestInputLimits:
    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_huge_vertex_count_exits_2_under_memory_cap(self, tmp_path, command) -> None:
        # One-line inputs that declare 10^9 vertices and one vertex over
        # the limit, each read from stdin.
        matching = tmp_path / "m.txt"
        matching.write_text("size 0\n")
        extra = [str(matching)] if command == "verify" else []
        for n in (10**9, MAX_VERTICES + 1):
            _assert_limit_error(_run_under_memory_cap([command, "-", *extra], f"p edge {n} 0\n"))

    @pytest.mark.parametrize("command", ["solve", "verify", "oracle-check"])
    def test_too_many_edge_lines_exit_2_under_memory_cap(self, tmp_path, command) -> None:
        # 3 * 10^6 distinct edges at the vertex limit, read from stdin:
        # building that graph overflows the cap, so the parser refuses the
        # edge lines first.
        matching = tmp_path / "m.txt"
        matching.write_text("size 0\n")
        extra = [str(matching)] if command == "verify" else []
        _assert_limit_error(_run_under_memory_cap([command, "-", *extra], _too_many_edges()))

    @pytest.mark.parametrize("command", ["gen", "bench"])
    def test_huge_edge_count_exits_2_under_memory_cap(self, command) -> None:
        # 1.5 * 10^8 of the 2 * 10^8 pairs on 20,000 vertices, and one
        # edge over the limit at 2 * 10^5 vertices.
        for n, m in ((20000, 150_000_000), (200_000, MAX_EDGES + 1)):
            if command == "gen":
                args = ["gen", str(n), str(m)]
            else:
                args = ["bench", "--n", str(n), "--m", str(m)]
            _assert_limit_error(_run_under_memory_cap(args))

    def test_repeated_pairs_exit_2_under_memory_cap(self, tmp_path) -> None:
        # 2 * 10^6 copies of one pair (24 MB) for a 4-vertex graph: a list
        # of every line and pair overflows a 160 MB cap, so the line loop
        # reads the lines a block at a time and keeps three pairs.
        dimacs, matching = tmp_path / "g.txt", tmp_path / "m.txt"
        dimacs.write_text("p edge 4 1\ne 1 2\n")
        matching.write_text("size 1\n" + "matched 1 2\n" * 2_000_000)
        out = _run_under_memory_cap(["verify", str(dimacs), str(matching)], cap_kb=160_000)
        assert (out.returncode, out.stdout) == (2, ""), out.stderr
        assert out.stderr == "error: declared size 1 but 2000000 matched lines\n"

    def test_comment_lines_solve_under_memory_cap(self, tmp_path) -> None:
        # 3 * 10^6 comment lines (9 MB) around one edge: a list of every
        # line overflows a 160 MB cap.
        dimacs = tmp_path / "g.txt"
        dimacs.write_text("p edge 2 1\n" + "cc\n" * 3_000_000 + "e 1 2\n")
        out = _run_under_memory_cap(["solve", str(dimacs)], cap_kb=160_000)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "size 1\nmatched 1 2\n"


class TestFileErrors:
    UNDECODABLE = b"p edge 2 1\ne 1 2\n\xff\xfe\n"

    def _assert_decode_error(self, code: int, out: str, err: str, source: str) -> None:
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {source}: 'utf-8' codec can't decode byte 0xff in position 17: "
            "invalid start byte\n"
        )

    @pytest.mark.parametrize("command", ["solve", "verify", "oracle-check"])
    def test_undecodable_file_exits_2(self, tmp_path, capsys, command) -> None:
        bad = tmp_path / "bad.txt"
        bad.write_bytes(self.UNDECODABLE)
        args = [command, str(bad)]
        if command == "verify":
            g = tmp_path / "g.dimacs"
            g.write_text(P4_DIMACS)
            args = [command, str(g), str(bad)]
        self._assert_decode_error(*_run(capsys, args), str(bad))

    def test_undecodable_stdin_exits_2(self, capsys, monkeypatch) -> None:
        import io

        # A strict decoder, as stdin has under a UTF-8 locale.
        stdin = io.TextIOWrapper(io.BytesIO(self.UNDECODABLE), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        self._assert_decode_error(*_run(capsys, ["solve", "-"]), "-")

    @pytest.mark.parametrize("command", ["solve", "gen"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command) -> None:
        f = tmp_path / "g.dimacs"
        f.write_text(P4_DIMACS)
        dest = tmp_path / "missing" / "out.txt"
        args = ["solve", str(f)] if command == "solve" else ["gen", "5", "3"]
        code, out, err = _run(capsys, args + ["--out", str(dest)])
        assert code == 2
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: [Errno 2] No such file or directory: '{dest}'"
        ]
        assert not dest.exists()


    def test_unwritable_out_exits_2_before_the_solve(self, tmp_path, capsys, monkeypatch) -> None:
        f = tmp_path / "g.dimacs"
        f.write_text(P4_DIMACS)
        dest = tmp_path / "missing" / "out.txt"

        def refuse(g, trace=None):
            raise AssertionError("solved before --out was opened")

        monkeypatch.setattr(cli, "maximum_matching", refuse)
        code, out, err = _run(capsys, ["solve", str(f), "--out", str(dest)])
        assert code == 2
        assert out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{dest}'\n"

    def test_out_may_name_the_input(self, tmp_path, capsys) -> None:
        f = tmp_path / "g.dimacs"
        f.write_text(P4_DIMACS)
        code, out, _ = _run(capsys, ["solve", str(f), "--out", str(f)])
        assert code == 0
        assert out == "size 2\n"
        assert parse_matching(f.read_text(), 4).size() == 2


class TestUsage:
    def test_missing_command_exits_2(self, capsys) -> None:
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
