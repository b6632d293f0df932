"""Every demo script imports cleanly against the current public API.

Each file under ``demos/`` is loaded by path without running its
``main()`` (all demos guard it behind ``__name__ == "__main__"``), so a
renamed or removed public name that a demo uses fails here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(_DEMOS) >= 5


@pytest.mark.parametrize("path", _DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))
