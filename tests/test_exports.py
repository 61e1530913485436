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
    sources = sorted(Path(rareunion.__file__).parent.glob("*.py"))
    importers = [path.name for path in sources if "scipy" in set(_imported_top_packages(path))]
    assert len(sources) > 10
    assert importers == []
