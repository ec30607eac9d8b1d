"""Every import is used, and every private name of the package is read.

No linter is a dependency of the project, so this compares, per module,
the names an import statement binds with the names the module reads.
``from __future__`` imports and the names ``wqed/__init__.py`` re-exports
through ``__all__`` are exempt.  A private top-level name of ``src/wqed``
(one underscore, not a dunder) must be read somewhere in the package or
the tests: as a name, as an attribute, or by a ``from`` import.  Only the
tests may read it from outside its own module.
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


def top_level_names(source: str) -> list[str]:
    """Names a module's top level defines or assigns."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [leaf.id for target in targets
                      for leaf in ast.walk(target)
                      if isinstance(leaf, ast.Name)]
    return names


def private_definitions(source: str) -> list[str]:
    """Private names a module's top level defines or assigns."""
    return [name for name in top_level_names(source)
            if name.startswith("_") and not name.startswith("__")]


def parameter_names(source: str) -> set[str]:
    """Parameter names of a module's functions: the fixtures they request."""
    return {arg.arg for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for arg in node.args.posonlyargs + node.args.args
            + node.args.kwonlyargs}


def read_names(source: str) -> set[str]:
    """Names a module reads, looks up as attributes or imports by name."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


def orphans(package: dict[str, str], readers: list[str]) -> list[str]:
    """``module: name`` of each private definition in ``package`` (module
    name to source) that no source in ``readers`` reads."""
    reads = set().union(*(read_names(source) for source in readers))
    return [f"{module}: {name}" for module, source in package.items()
            for name in private_definitions(source) if name not in reads]


def test_scan_finds_an_orphaned_private_name():
    package = {"m": "_A = 1\ndef _f(): pass\ndef _g(): return _A\n"
                    "class _K: pass\n"}
    assert orphans(package, list(package.values())) \
        == ["m: _f", "m: _g", "m: _K"]
    assert orphans(package, ["from m import _f\nm._g\n_K()\n"]) \
        == ["m: _A"]
    assert orphans(package, list(package.values())
                   + ["from m import _f\nm._g\n_K()\n"]) == []


def test_every_private_name_of_the_package_is_read():
    package = {path.name: path.read_text()
               for path in sorted((ROOT / "src" / "wqed").glob("*.py"))}
    assert orphans(package, [path.read_text() for path in MODULES]) == []


def private_reads_across_modules(package: dict[str, str]) -> list[str]:
    """``reader: module.name`` of each private top-level name of a module of
    ``package`` (file name to source) that another of its modules reads,
    by a ``from`` import or as an attribute of the imported module."""
    private = {Path(name).stem: set(private_definitions(source))
               for name, source in package.items()}
    found = []
    for name, source in package.items():
        reader = Path(name).stem
        tree = ast.parse(source)
        modules = {}    # local name of an imported module of the package
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not node.level:
                continue
            if node.module is None:
                modules.update((alias.asname or alias.name, alias.name)
                               for alias in node.names)
            else:
                found += [f"{reader}: {node.module}.{alias.name}"
                          for alias in node.names
                          if alias.name in private.get(node.module, ())]
        found += [f"{reader}: {modules[node.value.id]}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.attr in private.get(modules.get(node.value.id), ())]
    return found


def test_scan_finds_a_private_name_read_across_modules():
    package = {"a.py": "_X = 1\ndef _f(): pass\ndef g(): return _f()\n",
               "b.py": "from . import a\nfrom .a import _X, g\na._f()\n",
               "c.py": "def h(self):\n    from . import a as m\n"
                       "    return m._f, m.g, self._f\n"}
    assert private_reads_across_modules(package) \
        == ["b: a._X", "b: a._f", "c: a._f"]


def test_no_module_reads_another_modules_private_name():
    package = {path.name: path.read_text()
               for path in sorted((ROOT / "src" / "wqed").glob("*.py"))}
    assert private_reads_across_modules(package) == []


def test_scan_counts_a_requested_fixture_as_read():
    assert parameter_names("def f(a, /, b, *c, d): pass\n") == {"a", "b", "d"}


def test_every_conftest_definition_is_read():
    # a conftest helper must be read like a private name of the package,
    # and a fixture requested by some function's parameter
    sources = [path.read_text() for path in MODULES]
    reads = set().union(*(read_names(source) | parameter_names(source)
                          for source in sources))
    conftest = (ROOT / "tests" / "conftest.py").read_text()
    assert [name for name in top_level_names(conftest)
            if name not in reads] == []
