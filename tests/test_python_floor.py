"""Every module of the package parses under the grammar of the oldest Python
that pyproject.toml admits, whichever interpreter runs the suite."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = tuple(int(v) for v in re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"',
                                        (ROOT / "pyproject.toml").read_text()).groups())


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "ellrank").glob("*.py")),
                         ids=lambda path: path.name)
def test_module_parses_at_the_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
