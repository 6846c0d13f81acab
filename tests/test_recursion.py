"""No jcouple function calls itself, save one.

A function that recurses once per tree level, leaf or momentum fails with
a RecursionError traceback near a thousand levels, and inputs of that size
are in range (diagrams of 1200 leaves, chains of 1000 momenta).  The walks
keep explicit stacks instead.  The one exception is coupling._insertions:
it is the reference enumeration behind enumerate_coupling_trees, which the
listing and the index decoder are tested against, and it runs only under
the enumeration guard.
"""

import ast
from pathlib import Path

import pytest

import jcouple

MODULES = sorted(Path(jcouple.__file__).parent.glob("*.py"))
ALLOWED = {"coupling.py": ["_insertions"]}


def _calls_itself(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Name) and callee.id == func.name:
            return True
        # a method through self or cls
        if (
            isinstance(callee, ast.Attribute)
            and callee.attr == func.name
            and isinstance(callee.value, ast.Name)
            and callee.value.id in ("self", "cls")
        ):
            return True
    return False


def self_calling(source: str) -> list[str]:
    """The dotted names of the functions in source that call themselves, sorted."""
    found = []
    stack = [(ast.parse(source), "")]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name + "."
                if not isinstance(child, ast.ClassDef) and _calls_itself(child):
                    found.append(name[:-1])
            stack.append((child, name))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    assert self_calling(path.read_text()) == ALLOWED.get(path.name, [])


def test_a_planted_self_call_is_caught():
    source = (
        "def depth(shape):\n"
        "    return 0 if isinstance(shape, int) else 1 + depth(shape[0])\n"
        "class Tree:\n"
        "    def size(self, node):\n"
        "        return 1 + self.size(node[0])\n"
        "    @classmethod\n"
        "    def build(cls, obj):\n"
        "        def walk(node):\n"
        "            yield from walk(node[0])\n"
        "        return cls.build(obj)\n"
        "def flat(items):\n"
        "    return [flat for flat in other.flat(items)]\n"
    )
    assert self_calling(source) == ["Tree.build", "Tree.build.walk", "Tree.size", "depth"]
