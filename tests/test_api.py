"""The public names: each module's ``__all__`` and the package's imports."""

import ast
import importlib
import pkgutil

import pytest

import sshchain

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(sshchain.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    # a stale name breaks ``from sshchain.<module> import *``
    module = importlib.import_module(f"sshchain.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_imports_only_public_names():
    with open(sshchain.__file__) as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"sshchain.{node.module}")
        public = getattr(module, "__all__", None) or \
            [n for n in vars(module) if not n.startswith("_")]
        assert [a.name for a in node.names if a.name not in public] == [], node.module
