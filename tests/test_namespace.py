"""The package exports only names that non-test code reaches.

A helper that only tests call belongs with the tests, so every public
name in `semiabc`'s namespace must appear in the package's own modules or
in `scripts/` on some line other than its own `def` or `class` line.
"""

import re
import types
from pathlib import Path

import semiabc

REPO = Path(__file__).resolve().parent.parent


def test_every_exported_name_is_reached_outside_the_tests():
    sources = [p for p in (REPO / "src" / "semiabc").glob("*.py") if p.name != "__init__.py"]
    lines = [line for p in sources + list((REPO / "scripts").glob("*.py"))
             for line in p.read_text().splitlines()]
    exported = sorted(
        name for name, value in vars(semiabc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    unused = [
        name for name in exported
        if not any(
            re.search(rf"\b{name}\b", line)
            and not re.match(rf"\s*(def|class)\s+{name}\b", line)
            for line in lines
        )
    ]
    assert unused == []
