"""Repository tools that guard the tests themselves."""

from __future__ import annotations

import runpy
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_every_mutant_anchor_matches_once():
    assert runpy.run_path(str(TOOLS / "mutants.py"))["anchor_errors"]() == []
