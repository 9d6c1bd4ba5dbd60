"""Every Python file of the project parses as Python 3.10, the oldest version it supports.

This checks syntax only: a library call that differs between versions is not seen here.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "benchmarks") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
