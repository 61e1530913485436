"""Every public name resolves where it is advertised.

A moved definition must leave its old import path working: each name in
a module's ``__all__`` resolves, and each name the package imports is the
very object its defining module holds.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import rareunion

MODULES = sorted(f"rareunion.{info.name}" for info in pkgutil.iter_modules(rareunion.__path__))


def _package_imports():
    """``(module, name)`` of every ``from .module import name`` in ``__init__.py``."""
    tree = ast.parse(Path(rareunion.__file__).read_text(encoding="utf-8"))
    return [
        (f"rareunion.{node.module}", alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names {missing}"


def test_package_imports_are_the_defining_objects():
    imports = _package_imports()
    assert len(imports) > 50
    for module_name, name in imports:
        obj = getattr(importlib.import_module(module_name), name)
        assert getattr(rareunion, name) is obj, name
        if inspect.isclass(obj) or inspect.isfunction(obj):
            home = importlib.import_module(obj.__module__)
            assert getattr(home, obj.__name__) is obj, f"{name} from {obj.__module__}"


def test_moved_interval_keeps_its_import_path():
    from rareunion import efficiency, models

    assert efficiency.Interval is models.Interval
    assert all(isinstance(rule.valid, models.Interval) for rule in efficiency.ARCHIMEDEAN_TABLE)


SOURCES = sorted(Path(rareunion.__file__).parent.glob("*.py"))


def _imported_top_packages(path):
    """The top-level package of every absolute import in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_no_module_imports_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone
    importers = [path.name for path in SOURCES if "scipy" in set(_imported_top_packages(path))]
    assert len(SOURCES) > 10
    assert importers == []


def _unused_imports(path):
    """``file:line name`` of each module-level import in one source file that
    the module never reads, exports in ``__all__`` or marks ``# noqa: F401``."""
    source = path.read_text(encoding="utf-8")
    tree, lines = ast.parse(source), source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if "# noqa: F401" in lines[node.end_lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and name not in exported:
                yield f"{path.name}:{node.lineno} {name}"


def test_every_module_level_import_is_used():
    # no linter runs on the package, so an import a refactor leaves behind
    # would stay; __init__.py imports only to re-export
    unused = [hit for path in SOURCES if path.name != "__init__.py" for hit in _unused_imports(path)]
    assert unused == []


def _private_definitions(path):
    """``(name, line)`` of each module-level private function, class or
    assignment (``_name``, not ``__dunder__``) in one source file."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node.lineno) for name in names if name.startswith("_") and not name.endswith("__"))


def test_every_private_helper_is_read():
    # no linter runs on the package, so a helper a refactor leaves behind
    # would stay; a name counts as read wherever src/ loads it, as a name or
    # as a module attribute
    read = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    dead = [f"{path.name}:{line} {name}" for path in SOURCES for name, line in _private_definitions(path)
            if name not in read]
    assert dead == []
