"""Per-layer spans taken from outside the program.

`Tracer.install` replaces a module attribute with a wrapper that records
one span per call: its duration, the part of it covered by child spans,
and optional work counts drawn from the call's result.  The wrappers are
installed on the names the callers actually look up, so the engine runs
unchanged.  A name that no longer exists is recorded as absent.  Cyclic
GC is recorded through `gc.callbacks`; its time also falls inside the
self time of whichever span triggered it.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

OnResult = Callable[[Counter, Any], None]


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._children: list[float] = []  # child time per open span
        self._patches: list[tuple[Any, str, Any]] = []
        self._gc_start = 0.0

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    def wrap(self, span: str, fn: Callable, on_result: Optional[OnResult] = None) -> Callable:
        children = self._children
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                self_s[span] += took - children.pop()
                counts[span] += 1
                if children:
                    children[-1] += took
            if on_result is not None:
                on_result(counts, result)
            return result

        return traced

    def install(self, path: str, attr: str, span: str,
                on_result: Optional[OnResult] = None) -> None:
        """Wrap `attr` of the engine object at `path` ('phase' or
        'graph.Graph'), keeping a class's staticmethod static."""
        module, _, cls = path.partition(".")
        try:
            owner = importlib.import_module(f"mvmatching.{module}")
        except ModuleNotFoundError:
            owner = None
        if cls:
            owner = getattr(owner, cls, None)
        if owner is None or not hasattr(owner, attr):
            if f"{path}.{attr}" not in self.absent:
                self.absent.append(f"{path}.{attr}")
            return
        original = inspect.getattr_static(owner, attr)
        wrapped = self.wrap(span, getattr(owner, attr), on_result)
        setattr(owner, attr, staticmethod(wrapped) if isinstance(original, staticmethod) else wrapped)
        self._patches.append((owner, attr, original))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.self_s["gc"] += time.perf_counter() - self._gc_start
        self.counts["gc.collections"] += 1
        if info["generation"] == 2:
            self.counts["gc.full_collections"] += 1

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install_engine_spans(tracer: Tracer) -> None:
    """Wrap each layer's entry points where its callers look them up."""

    def ddfs_outcome(counts: Counter, result: Any) -> None:
        counts["ddfs." + type(result).__name__] += 1

    def path_edges(counts: Counter, result: Any) -> None:
        counts["paths.path_edges"] += len(getattr(result, "vertices", result)) - 1

    for attr, span in (
        ("parse_dimacs", "graph.parse"),
        ("parse_matching", "graph.parse_matching"),
        ("validate_matching", "graph.validate"),
        ("serialize_matching", "graph.serialize"),
        ("maximum_matching", "solver.seed"),
        ("run_phase", "phase.run"),
    ):
        tracer.install("cli", attr, span)
    tracer.install("graph.Graph", "from_edges", "graph.build")
    tracer.install("solver", "run_phase", "phase.run")
    tracer.install("solver", "augment_in_place", "solver.augment")
    tracer.install("phase", "init_phase", "phase.init")
    tracer.install("phase", "min_step", "phase.min")
    tracer.install("phase", "max_step", "phase.max")
    tracer.install("phase", "run_ddfs", "ddfs", ddfs_outcome)
    tracer.install("paths", "extract_path", "paths.extract", path_edges)
    tracer.install("paths", "recursive_remove", "paths.remove")


def layer_metrics(op: str, self_s: dict, counts: Counter,
                  optimum: int) -> dict[str, tuple[float, str]]:
    """Name one traced call of `op` ('solve' or 'verify') by layer.

    Times are span self times in seconds; counts are calls or work
    items.  `optimum` is the checked final matching size, from which the
    greedy seed's size follows as optimum minus augmentations.
    """
    s = lambda span: (self_s.get(span, 0.0), "s")
    c = lambda span: (counts.get(span, 0), "count")
    out = {
        "graph.parse_s": s("graph.parse"),
        "graph.build_s": s("graph.build"),
        "phase.init_s": s("phase.init"),
        "phase.levels": c("phase.min"),
        "phase.min_s": s("phase.min"),
        "phase.max_self_s": s("phase.max"),
        "phase.loop_s": s("phase.run"),
        "ddfs.s": s("ddfs"),
        "ddfs.runs": c("ddfs"),
        "ddfs.bottlenecks": c("ddfs.Bottleneck"),
        "ddfs.two_paths": c("ddfs.TwoPaths"),
        "ddfs.empty": c("ddfs.EmptySupport"),
        "gc.s": s("gc"),
        "gc.collections": c("gc.collections"),
        "gc.full_collections": c("gc.full_collections"),
        "cli.other_s": s("cli"),
    }
    if op == "solve":
        out.update({
            "graph.serialize_s": s("graph.serialize"),
            "solver.seed_s": s("solver.seed"),
            "solver.seed_pairs": (optimum - counts.get("solver.augment", 0), "count"),
            "solver.phases": c("phase.run"),
            "solver.augmentations": c("solver.augment"),
            "solver.augment_s": s("solver.augment"),
            "paths.extract_s": s("paths.extract"),
            "paths.paths": c("paths.extract"),
            "paths.path_edges": c("paths.path_edges"),
            "paths.remove_s": s("paths.remove"),
        })
    else:
        out.update({
            "graph.parse_matching_s": s("graph.parse_matching"),
            "graph.validate_s": s("graph.validate"),
        })
    return {f"{op}.{name}": value for name, value in out.items()}
