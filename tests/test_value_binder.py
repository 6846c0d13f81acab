"""The binder a value class gets from ``_Value`` when it writes no ``__init__``.

``_Value.__init__`` binds its arguments to ``__slots__``, by position or by
keyword, in slot order, and refuses a missing, unknown or doubled field
with a TypeError naming the class.  A class whose constructor would only
set its fields writes none, so its fields are named once.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from jcouple.coupling import CouplingTree, StateExpansion
from jcouple.kepler import KeplerLevel, MergedKeplerLevel
from jcouple.numerics import FactorizedFactorial, _Value
from jcouple.timerev import FirstSymmetryAudit
from jcouple.wigner import ReggeAuditEntry

SRC = Path(__file__).resolve().parent.parent / "src" / "jcouple"
MODULES = ("numerics", "wigner", "coupling", "timerev", "particles", "kepler")

# the value classes that check nothing, so _Value builds them
GENERIC = [
    FactorizedFactorial,
    ReggeAuditEntry,
    FirstSymmetryAudit,
    StateExpansion,
    CouplingTree,
    KeplerLevel,
    MergedKeplerLevel,
]
IDS = [cls.__name__ for cls in GENERIC]


def _value_classes():
    for name in MODULES:
        module = importlib.import_module(f"jcouple.{name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls is not _Value and issubclass(cls, _Value) and cls.__module__ == module.__name__:
                yield cls


def test_generic_classes_are_listed():
    generic = {cls for cls in _value_classes() if cls.__init__ is _Value.__init__}
    assert generic == set(GENERIC)


def _values(cls) -> list:
    """One distinct placeholder per field; the binder checks no value."""
    return [f"<{name}>" for name in cls.__slots__]


@pytest.mark.parametrize("cls", GENERIC, ids=IDS)
def test_keywords_bind_in_slot_order(cls):
    values = _values(cls)
    by_name = dict(reversed(list(zip(cls.__slots__, values))))
    mixed = dict(list(by_name.items())[:-1])  # all but the first field by keyword
    for value in (cls(**by_name), cls(values[0], **mixed)):
        assert [getattr(value, name) for name in cls.__slots__] == values


@pytest.mark.parametrize("cls", GENERIC, ids=IDS)
def test_missing_field(cls):
    values, names = _values(cls), cls.__slots__
    with pytest.raises(TypeError) as info:
        cls(*values[:-1])
    assert str(info.value) == f"{cls.__name__}() missing field {names[-1]!r}"
    with pytest.raises(TypeError) as info:
        cls(**dict(zip(names[1:], values[1:])))
    assert str(info.value) == f"{cls.__name__}() missing field {names[0]!r}"
    with pytest.raises(TypeError) as info:
        cls()
    assert str(info.value) == f"{cls.__name__}() missing field {names[0]!r}"


@pytest.mark.parametrize("cls", GENERIC, ids=IDS)
def test_unknown_keyword(cls):
    with pytest.raises(TypeError) as info:
        cls(*_values(cls), extra=1)
    assert str(info.value) == f"{cls.__name__}() has no field 'extra'"


@pytest.mark.parametrize("cls", GENERIC, ids=IDS)
def test_doubled_field(cls):
    values, first = _values(cls), cls.__slots__[0]
    with pytest.raises(TypeError) as info:
        cls(*values, **{first: values[0]})
    assert str(info.value) == f"{cls.__name__}() got field {first!r} twice"


@pytest.mark.parametrize("cls", GENERIC, ids=IDS)
def test_too_many_positional_values(cls):
    n = len(cls.__slots__)
    with pytest.raises(TypeError) as info:
        cls(*_values(cls), "<extra>")
    assert str(info.value) == f"{cls.__name__}() takes {n} fields, got {n + 1} by position"


def _sets_fields_only(init: ast.FunctionDef) -> bool:
    """True when every statement of init, past a docstring, is a bare _set(...) call."""
    body = init.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return all(
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Name)
        and stmt.value.func.id == "_set"
        for stmt in body
    )


def test_no_value_class_writes_a_field_only_init():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(isinstance(base, ast.Name) and base.id == "_Value" for base in node.bases):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    if _sets_fields_only(item):
                        found.append(f"{path.name}:{node.name}")
    assert found == []
