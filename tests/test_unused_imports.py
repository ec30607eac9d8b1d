"""Every import in the package and the tests is used.

No linter is a dependency of the project, so this compares, per module,
the names an import statement binds with the names the module reads.
``from __future__`` imports and the names ``wqed/__init__.py`` re-exports
through ``__all__`` are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "wqed").glob("*.py")) \
    + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport re\nre.compile('x')\n") \
        == ["os (line 1)"]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_exports_are_its_imports():
    # the scan above counts every ``__all__`` name as used, so a stale
    # export would pass it: ``__all__`` must be exactly what is imported
    import wqed

    tree = ast.parse((ROOT / "src" / "wqed" / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert all(hasattr(wqed, name) for name in wqed.__all__)
    assert sorted(wqed.__all__) == sorted(imported)
