"""The README states the package's public surface."""

from __future__ import annotations

import re
from pathlib import Path

import aicnet

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_each_public_name_once():
    section = README.read_text(encoding="utf-8").split("### Public names\n\n", 1)[1]
    bullets = section.split("\n\n")[1]  # the paragraph after the introduction
    assert bullets.startswith("- ")
    listed = re.findall(r"`(\w+)`", bullets)
    assert sorted(listed) == sorted(aicnet.__all__)
    assert len(set(listed)) == len(listed)
