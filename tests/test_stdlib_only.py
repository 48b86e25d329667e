"""The library imports nothing outside the standard library and itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import mvmatching

PACKAGE = Path(mvmatching.__file__).resolve().parent


def _foreign_imports(path: Path) -> list[str]:
    foreign = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top not in sys.stdlib_module_names and top != "mvmatching":
                foreign.append(f"{path.name}:{node.lineno} imports {name}")
    return foreign


def test_library_imports_only_stdlib() -> None:
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    assert [f for path in sources for f in _foreign_imports(path)] == []
