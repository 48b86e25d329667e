"""The engine's behaviour on the fixed corpus of `trace_digest.py`.

A change meant to keep behaviour leaves these constants alone.  A change
meant to alter it updates them and says why in CHANGES.md.
"""

from __future__ import annotations

import trace_digest

SOLVES = 3012
BEHAVIOUR = "3d438e2eff4762aba26cfc353cffd60d47fa7c8a87cad86e180250b440a3ce5b"
OUTCOME = "1919d09904a0cf0e49a24455e983aa04022af9259acfef74833b28dd1c0713b3"


def test_digests_are_pinned() -> None:
    assert trace_digest.digests() == (SOLVES, BEHAVIOUR, OUTCOME)
