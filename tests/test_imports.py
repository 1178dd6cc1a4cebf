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
