"""Smoke test: every walkthrough in demos/ runs to completion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvmatching
from mvmatching.phase import UNSET

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _run_demo(demo: Path) -> str:
    src = str(Path(mvmatching.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo: Path) -> None:
    assert _run_demo(demo)


def test_walkthrough_prints_unset_levels_as_inf() -> None:
    (walkthrough,) = [d for d in DEMOS if d.name == "blossom_walkthrough.py"]
    out = _run_demo(walkthrough)
    # The free vertex 0 never gets an oddlevel.
    assert "  0: 0/inf\n" in out
    assert str(UNSET) not in out
