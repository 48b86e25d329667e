"""Command-line front end: solve, verify, gen, oracle-check, bench.

Exit codes: 0 success, 1 semantic failure (invalid or non-maximum
matching, structural-theorem violation), 2 usage or input error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import re
import sys
import time
from typing import ContextManager, Optional, TextIO

from . import oracle
from .graph import (
    GraphFormatError,
    MatchingState,
    check_edge_lines,
    generate_random_graph,
    parse_dimacs,
    parse_matching,
    serialize_dimacs,
    serialize_matching,
    validate_matching,
)
from .phase import levels_with_inf, run_phase
from .solver import maximum_matching, two_free_in_one_component

TRACE_HEADER = "mvtrace 1"

# A problem line that `parse_dimacs` accepts, fields split by spaces or
# tabs and LF or CRLF line ends, with a vertex count short enough to
# convert.  `oracle-check` refuses on its n before the parse.
_PROBLEM_LINE = re.compile(r"^[ \t]*p[ \t]+edge[ \t]+(\d{1,18})[ \t]+\d+[ \t\r]*$", re.M | re.ASCII)


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


def _out_path(arg: str) -> Optional[str]:
    """An --out value, with - (stdout) taken as no --out at all."""
    return None if arg == "-" else arg


def _open_out(cfg: argparse.Namespace) -> ContextManager[TextIO]:
    """Open --out for writing, or hand out stdout without it; raises
    OSError when the file cannot be opened."""
    if not cfg.out:
        return contextlib.nullcontext(sys.stdout)
    return open(cfg.out, "w", encoding="utf-8")


def _trace_fn(cfg: argparse.Namespace, sink: TextIO):
    if not cfg.trace:
        return None
    sink.write(TRACE_HEADER + "\n")

    def emit(line: str) -> None:
        sink.write(line + "\n")

    return emit


def cmd_solve(cfg: argparse.Namespace) -> int:
    try:
        g = parse_dimacs(_read_text(cfg.input))
        with _open_out(cfg) as out:
            matching, phases = maximum_matching(g, trace=_trace_fn(cfg, sys.stderr))
            out.write(serialize_matching(matching))
    except (OSError, GraphFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.out:
        print(f"size {matching.size()}")
    print(f"phases {phases}", file=sys.stderr)
    return 0


def cmd_verify(cfg: argparse.Namespace) -> int:
    if cfg.input == "-" and cfg.matching == "-":
        print("error: the graph and the matching cannot both come from stdin", file=sys.stderr)
        return 2
    try:
        g = parse_dimacs(_read_text(cfg.input))
        m = parse_matching(_read_text(cfg.matching), g.n)
    except (OSError, GraphFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    violations = validate_matching(g, m)
    if violations:
        # `parse_matching` sizes the matching to the graph, so every fault
        # is about a pair and every number in it is a vertex: name it 1-based.
        for v in violations:
            print("invalid: " + re.sub(r"\d+", lambda d: str(int(d[0]) + 1), v))
        return 1
    # With at most one free vertex in each component, Berge's lemma alone
    # shows the matching maximum, and no search is run.
    if two_free_in_one_component(g, m):
        s = run_phase(g, m)
        if s.paths:
            witness = "-".join(str(v + 1) for v in s.paths[0])
            print(f"not maximum: augmenting path {witness}")
            return 1
    print(f"valid maximum matching of size {m.size()}")
    return 0


def cmd_gen(cfg: argparse.Namespace) -> int:
    try:
        g = generate_random_graph(cfg.n, cfg.m, cfg.seed)
        with _open_out(cfg) as out:
            print(f"c seed {cfg.seed}", file=sys.stderr)
            out.write(serialize_dimacs(g))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_oracle_check(cfg: argparse.Namespace) -> int:
    try:
        text = _read_text(cfg.input)
        # The size guard fires on the declared n, after the edge-line limit
        # and before the edges are parsed, and on the parsed n for a layout
        # the pattern misses.
        check_edge_lines(text)
        problem = _PROBLEM_LINE.search(text)
        if problem:
            oracle.check_level_guard(int(problem[1]))
        g = parse_dimacs(text)
        oracle.check_level_guard(g.n)
    except (OSError, GraphFormatError, oracle.OracleGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures = 0
    # The empty matching, then three greedy ones.
    seeds = [None] + [cfg.seed + k for k in range(3)]
    for idx, seed in enumerate(seeds):
        m = MatchingState(g.n) if seed is None else oracle.greedy_matching(g, seed)
        profile = oracle.compute_profile(g, m)
        for v in oracle.check_structural_theorems(profile):
            print(f"matching {idx}: {v}")
            failures += 1
        s = run_phase(g, m)
        even, odd = levels_with_inf(s.evenlevel), levels_with_inf(s.oddlevel)
        for v in profile.level_mismatches(s.evenlevel, s.oddlevel):
            ours = (profile.evenlevel[v], profile.oddlevel[v])
            print(f"matching {idx}: engine levels for {v + 1} {(even[v], odd[v])} != oracle {ours}")
            failures += 1
        engine_lm = s.l_m if s.paths else math.inf
        if engine_lm != profile.l_m:
            print(f"matching {idx}: engine l_m {engine_lm} != oracle {profile.l_m}")
            failures += 1
    if failures:
        print(f"{failures} disagreement(s)")
        return 1
    print(f"ok: {len(seeds)} matchings checked")
    return 0


def cmd_bench(cfg: argparse.Namespace) -> int:
    if cfg.repeats < 1:
        print(f"error: --repeats {cfg.repeats} is below 1", file=sys.stderr)
        return 2
    for rep in range(cfg.repeats):
        try:
            g = generate_random_graph(cfg.n, cfg.m, cfg.seed + rep)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if rep == 0:
            print("n m phases seconds")
        start = time.perf_counter()
        matching, phases = maximum_matching(g)
        elapsed = time.perf_counter() - start
        bound = math.ceil(2 * math.sqrt(g.n)) + 2
        print(f"{g.n} {g.m} {phases} {elapsed:.3f}")
        if phases > bound:
            print(f"error: phases {phases} exceed bound {bound}", file=sys.stderr)
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvmatch",
        description="Maximum-cardinality matching in general graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute a maximum matching for a DIMACS graph")
    solve.add_argument("input", help="DIMACS edge-format file, or - for stdin")
    solve.add_argument("--trace", action="store_true", help="emit phase traces to stderr")
    solve.add_argument("--out", type=_out_path, help="write the matching to a file (- for stdout)")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="check a matching file for validity and maximality")
    verify.add_argument("input", help="DIMACS edge-format file, or - for stdin")
    verify.add_argument("matching", help="matching file (size/matched lines)")
    verify.set_defaults(func=cmd_verify)

    gen = sub.add_parser("gen", help="generate a seeded random graph")
    gen.add_argument("n", type=int)
    gen.add_argument("m", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=_out_path, help="write the graph to a file (- for stdout)")
    gen.set_defaults(func=cmd_gen)

    ocheck = sub.add_parser(
        "oracle-check",
        help="compare the engine against the brute-force oracle on a small graph",
    )
    ocheck.add_argument("input", help="DIMACS edge-format file, or - for stdin")
    ocheck.add_argument("--seed", type=int, default=0)
    ocheck.set_defaults(func=cmd_oracle_check)

    bench = sub.add_parser("bench", help="time the solver on seeded random graphs")
    bench.add_argument("--n", type=int, default=1000)
    bench.add_argument("--m", type=int, default=5000)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--repeats", type=int, default=1)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
