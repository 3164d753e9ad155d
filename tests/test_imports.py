"""Import hygiene: every name an import binds is read somewhere in its module.

Covers the library modules (not the package ``__init__``, whose imports are
its exports) and the tests. A name counts as read when it is loaded anywhere
in the module, including inside a string annotation.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "brandt_ranks").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import, with its line number."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _string_annotations(tree: ast.Module):
    """Expressions parsed from string annotations and string type aliases."""
    for node in ast.walk(tree):
        roots = []
        if isinstance(node, ast.arg):
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
            if "TypeAlias" in ast.unparse(node.annotation):
                roots.append(node.value)
        for root in filter(None, roots):
            for sub in ast.walk(root):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield ast.parse(sub.value, mode="eval")


def _read_names(tree: ast.AST) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _unused_imports(source: str) -> dict[str, int]:
    tree = ast.parse(source)
    read = _read_names(tree)
    for expr in _string_annotations(tree):
        read |= _read_names(expr)
    return {name: line for name, line in _imported_names(tree).items() if name not in read}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    unused = _unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name}: imported but never read (name: line): {unused}"


def test_the_check_sees_an_unused_import():
    source = "import os\nimport os.path as osp\nfrom typing import List\nx: 'List[int]' = []\n"
    assert _unused_imports(source) == {"os": 1, "osp": 2}
