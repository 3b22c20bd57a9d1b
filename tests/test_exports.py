"""Every exported name resolves: a deleted function or class cannot
leave behind an ``__all__`` entry or a package-level import of it."""

import ast
import importlib
import pkgutil

import pytest

import tenkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(tenkit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"tenkit.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


def _package_imports():
    with open(tenkit.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name


def test_package_imports_resolve_to_public_names():
    imports = list(_package_imports())
    assert imports
    for module_name, name, bound in imports:
        module = importlib.import_module(f"tenkit.{module_name}")
        assert getattr(tenkit, bound) is getattr(module, name)
        assert name in module.__all__, f"tenkit.{module_name}.{name} is not in __all__"
