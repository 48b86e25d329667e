"""The benchmark's layer spans find every engine name they wrap.

`perfbench/spans.py` wraps engine functions by module attribute, where
their callers look them up at call time.  This loads it unchanged and
checks that each wrapped name exists and is called during a solve.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from mvmatching import cli
from mvmatching.graph import serialize_dimacs

import support

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_engine_spans_wrap_live_names(tmp_path, capsys) -> None:
    spans = _load_spans()
    f = tmp_path / "g.dimacs"
    f.write_text(serialize_dimacs(support.barbell()))
    tracer = spans.Tracer()
    try:
        spans.install_engine_spans(tracer)
        assert tracer.absent == []
        assert cli.main(["solve", str(f)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for span in (
        "phase.init",
        "phase.min",
        "phase.max",
        "ddfs",
        "paths.extract",
        "paths.remove",
        "solver.augment",
        "graph.parse",
    ):
        assert tracer.counts[span] > 0, span
