"""The names each module of the package imports and exports: no module imports
a name it never uses, and every ``__all__`` entry resolves.  No linter runs in
this suite, so these stand in for the unused-import and undefined-export
checks of one."""

import ast
import importlib
from pathlib import Path

import pytest

import hypam

SRC = Path(hypam.__file__).resolve().parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem not in ("__init__", "__main__"))


def imported_names(tree: ast.Module) -> list[str]:
    """The names the module's import statements bind, __future__ aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        name
        for name in imported_names(tree)
        if name not in used and name not in exported_names(tree)
    ]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("name", ["__init__", *MODULES])
def test_all_entries_resolve(name):
    module = hypam if name == "__init__" else importlib.import_module(f"hypam.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == [], f"{module.__name__}.__all__ names undefined attributes: {missing}"


def test_package_exports_come_from_submodules():
    submodule_exports = set()
    for name in MODULES:
        submodule_exports |= set(importlib.import_module(f"hypam.{name}").__all__)
    stray = [e for e in hypam.__all__ if e != "__version__" and e not in submodule_exports]
    assert stray == [], f"hypam.__all__ entries in no submodule's __all__: {stray}"
