"""Every name a library module imports is used in that module.

A stdlib ``ast`` scan stands in for an unused-import lint: a deleted
call site that leaves its import behind fails here.  A name counts as
used when it is read anywhere in the module, as a plain name or as the
root of an attribute chain.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "latticeopt"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def _imported(tree):
    """(bound name, line) for each module-level or nested import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{module}: unused imports {unused}"


# cli's --brute-force checks enumerate box points and test point-cloud
# membership with polyrelax's own helpers, so the library keeps one copy
# of each; no other private name crosses a module boundary
PRIVATE_ALLOWED = {("cli.py", "polyrelax", "_box_points"),
                   ("cli.py", "polyrelax", "_cloud_minimum")}


def _private_imports(tree):
    """(sibling, private name, line) for each private name the module
    takes from a sibling: by `from .sibling import _name` (or the
    absolute `latticeopt.sibling`), or as `sibling._name` after
    `from . import sibling`."""
    modules = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            sibling = node.module
        elif node.level == 0 and node.module.split(".")[0] == "latticeopt":
            sibling = node.module.partition(".")[2] or None
        else:
            continue
        for alias in node.names:
            if sibling is None:
                modules[alias.asname or alias.name] = alias.name
            elif alias.name.startswith("_"):
                yield sibling, alias.name, node.lineno
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            yield modules[node.value.id], node.attr, node.lineno


@pytest.mark.parametrize("module", MODULES)
def test_no_private_names_from_siblings(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    found = [f"{sib}.{name} (line {line})"
             for sib, name, line in _private_imports(tree)
             if (module, sib, name) not in PRIVATE_ALLOWED]
    assert not found, f"{module}: private sibling names {found}"
