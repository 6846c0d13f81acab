"""Every name a jcouple module imports is used in that module.

An import left behind by a deletion still runs at start-up and tells a
reader the module depends on something it no longer uses.  __init__.py is
checked too: it re-exports by name on first access, not by importing.
"""

import ast
from pathlib import Path

import pytest

import jcouple

MODULES = sorted(Path(jcouple.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names source imports but never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_a_planted_unused_import_is_caught():
    source = "import csv\nimport os.path\nfrom typing import Iterator as It, Sequence\nos.sep\n"
    assert unused_imports(source) == ["It", "Sequence", "csv"]
    # an annotation counts as a use
    assert unused_imports("from typing import Sequence\ndef f(x: Sequence): pass\n") == []
