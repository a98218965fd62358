"""Tier-1 gate: the environment variables the code reads are the ones
``docs/CLI.md`` documents.

Every ``"BIGGERFISH_..."`` string literal under ``src/repro`` must have
a row in the "Environment variables" table, and every row must name a
variable the code still uses, so adding or retiring a variable without
touching the docs fails the suite.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_LITERAL = re.compile(r'"(BIGGERFISH_[A-Z_]+)"')
_TABLE_ROW = re.compile(r"^\| `(BIGGERFISH_[A-Z_]+)` \|", re.MULTILINE)


def _source_variables() -> set:
    return {
        name
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        for name in _LITERAL.findall(path.read_text(encoding="utf-8"))
    }


def _documented_variables() -> set:
    text = (REPO_ROOT / "docs" / "CLI.md").read_text(encoding="utf-8")
    section = text.split("## Environment variables", 1)[1].split("\n## ", 1)[0]
    return set(_TABLE_ROW.findall(section))


def test_documented_variables_match_source():
    source = _source_variables()
    assert "BIGGERFISH_JOBS" in source  # the scan itself works
    assert source == _documented_variables()
