import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import gcs2d.cli  # noqa: E402  (needs the path above)
import gcs2d.graph  # noqa: E402


@pytest.fixture(autouse=True)
def fresh_structure_memo(monkeypatch):
    """Start every test with no structure analysed and no document parsed by
    the CLI, so that no count or result depends on the tests that ran
    before it."""
    monkeypatch.setattr(gcs2d.graph, "_last_structure", (None, {}))
    monkeypatch.setattr(gcs2d.cli, "_last_document", (None, None))
