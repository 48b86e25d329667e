"""The engine's behaviour on the fixed corpus of `trace_digest.py`.

A change meant to keep behaviour leaves these constants alone.  A change
meant to alter it updates them and says why in CHANGES.md.
"""

from __future__ import annotations

import trace_digest

SOLVES = 3012
BEHAVIOUR = "cd5e90c3c0b1c8e65a8c7dbbdb53f2a459c23bf86286b36726d052a89c0b1025"
OUTCOME = "8dff78cec2085ffb424f44e94e1561d2589027a96c890d7907ccd15f87976027"


def test_digests_are_pinned() -> None:
    assert trace_digest.digests() == (SOLVES, BEHAVIOUR, OUTCOME)
