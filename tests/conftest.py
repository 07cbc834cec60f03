import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import gcs2d.cli  # noqa: E402  (needs the path above)
import gcs2d.graph  # noqa: E402


@pytest.fixture(autouse=True)
def fresh_structure_memo():
    """Start every test with no structure analysed and no document parsed by
    the CLI, by clearing their ``lru_cache`` memos
    (``graph._structure_results`` and ``cli._parsed``), so that no count or
    result depends on the tests that ran before it."""
    gcs2d.graph._structure_results.cache_clear()
    gcs2d.cli._parsed.cache_clear()
