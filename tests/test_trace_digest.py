"""The engine's behaviour on the fixed corpus of `trace_digest.py`.

A change meant to keep behaviour leaves these constants alone.  A change
meant to alter it updates them and says why in CHANGES.md.
"""

from __future__ import annotations

import trace_digest

SOLVES = 3012
BEHAVIOUR = "7c7ebd052b106ac89fb0258d0a8fba4102b1846ab299cefb89649358381666ac"
OUTCOME = "27a837b92a6cdeea77aa730f2e2013017ed46937fe9203068d6f6d6603e23e33"
GRAPHS = "278a7ff387b2e29f09a096a384638b90d29abfed0dbfe690316283254e2efb3e"


def test_digests_are_pinned() -> None:
    assert trace_digest.digests() == (SOLVES, BEHAVIOUR, OUTCOME, GRAPHS)
