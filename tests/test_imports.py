"""Every name a module's top-level imports bind is used or re-exported."""

import ast
from pathlib import Path

import pytest

import recurrisk

MODULES = sorted(Path(recurrisk.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> set[str]:
    """Names bound by top-level imports that the module never reads and
    that its ``__all__`` does not list."""
    tree = ast.parse(source)
    bound, exported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read - exported


def test_the_scan_finds_an_unused_import():
    source = "from dataclasses import dataclass, field\nimport numpy as np\n\n" \
             "@dataclass\nclass A:\n    x: int = 0\n"
    assert unused_imports(source) == {"field", "np"}
    assert unused_imports(source + "__all__ = ['np', 'field']\n") == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == set()
