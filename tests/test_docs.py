"""The committed API index is its generator's output."""

import difflib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _generator():
    path = ROOT / "docs" / "generate_api.py"
    spec = importlib.util.spec_from_file_location("generate_api", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_api_index_matches_its_generator():
    committed = (ROOT / "docs" / "API.md").read_text().splitlines()
    rendered = _generator().render().splitlines()
    diff = list(difflib.unified_diff(
        committed, rendered, "docs/API.md", "render()", lineterm="", n=0
    ))
    assert not diff, (
        "docs/API.md is stale; regenerate it with "
        "`python docs/generate_api.py`:\n" + "\n".join(diff[:40])
    )
