"""Every name a midconv module imports is used in that module.

__init__.py is left out: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "midconv"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    """Names read anywhere, including inside string annotations like "Matrix"."""
    trees = [tree]
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            trees.append(ast.parse(ann.value, mode="eval"))
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(set(_imported_names(tree)) - _used_names(tree))
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("from .linalg import Matrix, rank\nimport os.path\n\n"
                     "def f(M: \"Matrix\"):\n    return M\n")
    assert set(_imported_names(tree)) - _used_names(tree) == {"rank", "os"}
