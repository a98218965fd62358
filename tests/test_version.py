"""The package version has one source: ``repro.__version__``."""

import re
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_pyproject_reads_version_from_package():
    """pyproject.toml must not pin a version of its own: the value in
    ``repro.__version__`` is the one cache keys, artifacts and store
    manifests record.  Read as text because Python 3.9 has no tomllib."""
    text = PYPROJECT.read_text()
    assert not re.search(r"^version\s*=\s*[\"']", text, re.MULTILINE)
    assert re.search(r"^dynamic\s*=\s*\[[^\]]*\"version\"", text, re.MULTILINE)
    assert 'version = { attr = "repro.__version__" }' in text
