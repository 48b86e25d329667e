"""Benchmark of the matching engine: `mvmatch solve`, `maximum_matching`
and `mvmatch verify`, in-process, on seeded graph families.

    python3 perfbench/run.py --workload sparse_d10 --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the engine is imported from its `src`.
Each run generates the workload's graphs from the seed, then repeats
whole rounds until --seconds have passed.  A round visits every graph:
parse it (set-up), match it through the library, solve it through the
CLI, verify the solution, and verify it again with one pair removed.
Every output is checked apart from the engine (check.py).

--trace 0 prints the end-to-end metrics: for each operation, the mean
over the workload's graphs of the median time per graph, each time scaled
to a fixed interpreter speed (see REFERENCE_S).  --trace 1
instead wraps the engine's layers from outside (spans.py) and prints
per-layer self times and work counts for solve and verify, plus the
tracing overhead on solve.  The last line of standard output is one
JSON object; a fuller record goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from check import (  # noqa: E402
    Mismatch, check_partner, check_phases, check_witness, parse_matching_file)
from inputs import Instance  # noqa: E402
from spans import Tracer, install_engine_spans, layer_metrics  # noqa: E402

# Each workload is a generator of one graph from its structure key and its
# seed key; see README.md for why each family is here.  Every run uses
# GRAPHS graphs of the family, so that no single structure decides it: the
# seed's renaming still moves a graph's phase count by one, and four graphs
# halve what that does to a run's figures.
GRAPHS = 4
WORKLOADS: dict[str, Callable[[str, str], Instance]] = {
    "sparse_d10": lambda structure, seed: inputs.sparse(4_000, 20_000, structure, seed),
    "near_tree": lambda structure, seed: inputs.near_tree(6_000, structure, seed),
    "blossom_d6": lambda structure, seed: inputs.blossom(8, 501, 6, structure, seed),
}


# A shared host of this kind changes speed by 20-50 %, for seconds to
# minutes at a time, so whole runs come out fast or slow (README.md,
# "Steadiness").  Every time the benchmark reports is therefore scaled to a
# fixed interpreter speed: before the operations on each graph of a round,
# a run also times a breadth-first search over a fixed graph (harness code,
# never the engine), and multiplies their times by REFERENCE_S over that
# search's time.  The graph is as large as the engine's working sets, past
# the per-core cache, so it slows down with the host as the engine does.
# It is held in tuples of ints, which cyclic GC stops tracking after the
# first collection, so it leaves the engine's GC cost alone.
REFERENCE_S = 0.06


def calibration_graph() -> tuple[tuple[int, ...], ...]:
    """Fixed random graph of 40,000 vertices and average degree 6."""
    n = 40_000
    rng = random.Random("calibration")
    neighbours = [[] for _ in range(n)]
    for u in range(n):
        for _ in range(3):
            v = rng.randrange(n)
            neighbours[u].append(v)
            neighbours[v].append(u)
    graph = tuple(map(tuple, neighbours))
    del neighbours
    gc.collect()
    return graph


def calibration_s(graph: tuple[tuple[int, ...], ...]) -> float:
    """Time one breadth-first search of the calibration graph."""
    start = time.perf_counter()
    level = [-1] * len(graph)
    level[0] = 0
    frontier = [0]
    while frontier:
        following = []
        for u in frontier:
            next_level = level[u] + 1
            for v in graph[u]:
                if level[v] < 0:
                    level[v] = next_level
                    following.append(v)
        frontier = following
    return time.perf_counter() - start


def load_program():
    """Import the engine from the checkout's own source tree."""
    src = ROOT / "src"
    if not (src / "mvmatching" / "__init__.py").is_file():
        sys.exit(f"error: no engine source under {src}")
    sys.path.insert(0, str(src))
    import mvmatching
    import mvmatching.cli

    if Path(mvmatching.__file__).resolve().parent != src / "mvmatching":
        sys.exit(f"error: imported {mvmatching.__file__}, not the checkout's engine")
    return mvmatching


class Run:
    """One benchmark run: the graphs, their files, and the tallies."""

    def __init__(self, program, name: str, seed: int, workdir: Path) -> None:
        self.program = program
        self.work = workdir
        make = WORKLOADS[name]
        self.graphs = [make(f"{name}/{k}", f"{name}/{k}/{seed}") for k in range(GRAPHS)]
        # Which solution pair verify_broken drops, fixed per graph.
        self.drops = [random.Random(f"{name}/{k}/{seed}/drop").random() for k in range(GRAPHS)]
        for k, w in enumerate(self.graphs):
            self.path(k, "dimacs").write_text(w.text)
        self.built = None  # the Graph from setup, consumed by match
        self.calibration_graph = calibration_graph()
        self.calibration: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: list[str] = []

    def at_reference(self, took: float) -> float:
        """A wall-clock time scaled by the latest search."""
        return took * REFERENCE_S / self.calibration[-1]

    def path(self, k: int, kind: str) -> Path:
        return self.work / f"g{k}.{kind}"

    def calibrate(self) -> None:
        gc.collect()
        self.calibration.append(calibration_s(self.calibration_graph))

    def attempt(self, label: str, op: Callable[[], float]) -> float | None:
        """Run one checked operation; return its time, or None if it failed."""
        self.attempted += 1
        try:
            return op()
        except Mismatch as exc:
            self.correct = False
            message = f"{label}: wrong output: {exc}"
        except Exception:
            message = f"{label}: {traceback.format_exc(limit=3)}"
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)
            print(message, file=sys.stderr)
        return None

    def call_cli(self, argv: list[str], tracer: Tracer | None = None) -> tuple[float, int, str, str]:
        """Time one in-process `mvmatch` call from a clean heap."""
        main = self.program.cli.main
        if tracer is not None:
            main = tracer.wrap("cli", main)
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with tracer or contextlib.nullcontext(), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = main(argv)
            took = time.perf_counter() - start
        return took, code, out.getvalue(), err.getvalue()

    # -- operations on graph k; each returns its time ----------------------

    def setup(self, k: int) -> float:
        w = self.graphs[k]
        self.built = None
        gc.collect()
        start = time.perf_counter()
        g = self.program.parse_dimacs(w.text)
        took = time.perf_counter() - start
        if (g.n, g.m) != (w.n, w.m):
            raise Mismatch(f"parsed n={g.n} m={g.m}, wrote n={w.n} m={w.m}")
        self.built = g
        return took

    def match(self, k: int) -> float:
        g, self.built = self.built, None
        if g is None:
            raise RuntimeError("set-up failed, no graph to match")
        gc.collect()
        start = time.perf_counter()
        matching, phases = self.program.maximum_matching(g)
        took = time.perf_counter() - start
        check_phases(self.graphs[k], phases)
        check_partner(self.graphs[k], matching.partner)
        return took

    def solve(self, k: int, tracer: Tracer | None = None) -> float:
        w = self.graphs[k]
        out = self.path(k, "match")
        took, code, stdout, stderr = self.call_cli(
            ["solve", str(self.path(k, "dimacs")), "--out", str(out)], tracer)
        if code != 0:
            raise RuntimeError(f"solve exited {code}: {stderr.strip()}")
        phases = [int(line.split()[1]) for line in stderr.splitlines() if line.startswith("phases ")]
        if len(phases) != 1:
            raise Mismatch(f"no phase count in {stderr!r}")
        check_phases(w, phases[0])
        if stdout.split() != ["size", str(w.optimum)]:
            raise Mismatch(f"solve printed {stdout!r}")
        parse_matching_file(w, out.read_text())
        return took

    def verify(self, k: int, tracer: Tracer | None = None) -> float:
        w = self.graphs[k]
        took, code, stdout, _ = self.call_cli(
            ["verify", str(self.path(k, "dimacs")), str(self.path(k, "match"))], tracer)
        if (code, stdout) != (0, f"valid maximum matching of size {w.optimum}\n"):
            raise Mismatch(f"verify exited {code}: {stdout!r}")
        return took

    def verify_broken(self, k: int) -> float:
        """Verify the solution minus one pair: expect exit 1 and an
        augmenting-path witness that passes check_witness."""
        w = self.graphs[k]
        pairs = parse_matching_file(w, self.path(k, "match").read_text())
        del pairs[int(self.drops[k] * len(pairs))]
        broken = self.path(k, "broken")
        broken.write_text(f"size {len(pairs)}\n" + "".join(
            f"matched {u + 1} {v + 1}\n" for u, v in pairs))
        took, code, stdout, _ = self.call_cli(["verify", str(self.path(k, "dimacs")), str(broken)])
        prefix = "not maximum: augmenting path "
        if code != 1 or not stdout.startswith(prefix):
            raise Mismatch(f"verify of a non-maximum matching exited {code}: {stdout[:200]!r}")
        check_witness(w, pairs, [int(x) - 1 for x in stdout[len(prefix):].split("-")])
        return took


def mean_of_medians(samples: list[list[float]]) -> float:
    return statistics.fmean(statistics.median(s) for s in samples)


def rounds_until(deadline: float):
    """Yield round numbers until the deadline; always at least one round."""
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        yield rounds
        rounds += 1


def run_plain(run: Run, seconds: float) -> dict:
    graphs = range(len(run.graphs))
    ops = (("setup_s", run.setup), ("match_s", run.match), ("solve_s", run.solve),
           ("verify_s", run.verify), ("verify_broken", run.verify_broken))
    times = {op: [[] for _ in graphs] for op, _ in ops}
    scaled = {op: [[] for _ in graphs] for op, _ in ops}
    rounds = 0
    for rounds in rounds_until(time.perf_counter() + seconds):
        for k in graphs:
            run.calibrate()
            for op, call in ops:
                took = run.attempt(f"{op} g{k}", lambda: call(k))
                if took is not None:
                    times[op][k].append(took)
                    scaled[op][k].append(run.at_reference(took))
    del times["verify_broken"], scaled["verify_broken"]
    metrics = {op: (mean_of_medians(t), "s") for op, t in scaled.items() if all(t)}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    wall = {op: mean_of_medians(t) for op, t in times.items() if all(t)}
    return {"rounds": rounds + 1, "metrics": metrics, "wall_s": wall,
            "samples": times, "calibration_s": run.calibration}


def graph_mb(program, w: Instance) -> float:
    """Live size of the built Graph, in a pass of its own."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = program.parse_dimacs(w.text)
        gc.collect()
        size = tracemalloc.get_traced_memory()[0] - base
        del g
    finally:
        tracemalloc.stop()
    return size / 2**20


def run_traced(run: Run, seconds: float) -> dict:
    program = run.program
    graphs = range(len(run.graphs))
    tracer = Tracer()
    layers: dict[tuple[str, str], list[list[float]]] = {}
    untraced = [[] for _ in graphs]
    traced = [[] for _ in graphs]

    def traced_op(op: str, k: int) -> float:
        tracer.reset()
        install_engine_spans(tracer)
        try:
            took = run.solve(k, tracer) if op == "solve" else run.verify(k, tracer)
        finally:
            tracer.uninstall()
        for metric, (value, unit) in layer_metrics(op, tracer.self_s, tracer.counts,
                                                   run.graphs[k].optimum).items():
            if unit == "s":
                value = run.at_reference(value)
            layers.setdefault((metric, unit), [[] for _ in graphs])[k].append(value)
        return took

    rounds = 0
    for rounds in rounds_until(time.perf_counter() + seconds):
        for k in graphs:
            run.calibrate()
            took = run.attempt(f"solve g{k}", lambda: run.solve(k))
            if took is not None:
                untraced[k].append(run.at_reference(took))
            took = run.attempt(f"traced solve g{k}", lambda: traced_op("solve", k))
            if took is not None:
                traced[k].append(run.at_reference(took))
            run.attempt(f"traced verify g{k}", lambda: traced_op("verify", k))
            run.attempt(f"verify_broken g{k}", lambda: run.verify_broken(k))

    metrics: dict[str, tuple[float, str]] = {}
    repeats = {}
    for (metric, unit), per_graph in sorted(layers.items()):
        if not all(per_graph):
            continue
        if unit == "s":
            metrics[metric] = (mean_of_medians(per_graph), "s")
        else:
            metrics[metric] = (sum(statistics.median_low(v) for v in per_graph), "count")
            repeats[metric] = all(len(set(v)) == 1 for v in per_graph)
    for op in ("solve", "verify"):
        runs = metrics.get(f"{op}.ddfs.runs", (0,))[0]
        useful = sum(metrics.get(f"{op}.ddfs.{c}", (0,))[0] for c in ("bottlenecks", "two_paths"))
        metrics[f"{op}.ddfs.useful_ratio"] = (useful / runs if runs else 0.0, "ratio")
    metrics["solve.graph.graph_mb"] = (
        statistics.fmean(graph_mb(program, w) for w in run.graphs), "MB")
    if all(untraced) and all(traced):
        metrics["solve.trace.overhead_s"] = (
            mean_of_medians(traced) - mean_of_medians(untraced), "s")
    if tracer.absent:
        print(f"absent, not traced: {', '.join(tracer.absent)}", file=sys.stderr)
    return {"rounds": rounds + 1, "metrics": metrics, "calibration_s": run.calibration,
            "counts_repeat": repeats, "absent": tracer.absent}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    cfg = parser.parse_args(argv)

    program = load_program()
    workdir = HERE / "work" / f"{cfg.workload}-{cfg.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        started = time.perf_counter()
        run = Run(program, cfg.workload, cfg.seed, workdir)
        generated = time.perf_counter() - started
        rss_after_inputs = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        body = (run_traced if cfg.trace else run_plain)(run, cfg.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in body.pop("metrics").items()},
    }
    record = dict(result, workload=cfg.workload, seed=cfg.seed, seconds=cfg.seconds,
                  trace=cfg.trace, graphs=[{"n": w.n, "m": w.m, "optimum": w.optimum}
                                           for w in run.graphs],
                  generate_s=generated, peak_rss_after_inputs_mb=rss_after_inputs,
                  errors=run.errors, **body)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{cfg.workload}-seed{cfg.seed}-trace{cfg.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
