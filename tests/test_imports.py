"""Every name a midconv module imports is used in that module, and every public
top-level function and class is read by some pipeline.

__init__.py is left out: its imports are the package's re-exports.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "midconv"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# public names that no module and no benchmark reads, each kept for its tests
UNREAD_ALLOWED = {
    "kronecker_jordan": "the paper's prediction of the Jordan data of a Kronecker product, "
                        "the law that the tests check against jordan_data",
    "group_elements": "the closure oracle: its element count pins group_closure's order",
}


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


def _reads(tree):
    """How often each name is read by a Name or an Attribute node under tree.

    An f-string's fields are parsed into the same nodes, so a name read only
    inside an f-string counts; a token scan would miss it."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _unread_public_names(modules, elsewhere):
    """(module, name) of each public top-level def or class in `modules` (file name to
    tree) that no module reads outside its own definition and that is not in `elsewhere`."""
    total = sum(map(_reads, modules.values()), Counter())
    for module, tree in modules.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in elsewhere
                    and total[node.name] == _reads(node)[node.name]):
                yield module, node.name


def test_every_public_name_is_read_by_a_pipeline():
    modules = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    benchmarks = set().union(*(_reads(ast.parse(p.read_text(), filename=str(p)))
                               for p in (ROOT / "benchmarks").glob("*.py")))
    unread = sorted(_unread_public_names(modules, benchmarks))
    assert sorted(name for _module, name in unread) == sorted(UNREAD_ALLOWED), (
        f"public names no module or benchmark reads: {unread}; delete them, or keep one "
        "in UNREAD_ALLOWED with its reason (and drop an entry that is read now)")


def test_the_scan_sees_an_unread_public_name():
    a = ast.parse("def recursive(n):\n    return recursive(n - 1)\n\n"
                  "def shown():\n    return 1\n\n"
                  "def helper():\n    return f'{shown()}'\n\n"
                  "class Kept:\n    pass\n\n"
                  "def benched():\n    pass\n\n"
                  "def _private():\n    pass\n")
    b = ast.parse("from . import a\n\ndef run(k: a.Kept):\n    return a.helper()\n")
    assert sorted(_unread_public_names({"a.py": a, "b.py": b}, {"benched"})) == [
        ("a.py", "recursive"), ("b.py", "run")]
