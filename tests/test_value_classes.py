"""The contract every value class keeps: construction, ==, hash, repr, immutability, copies.

The classes are slotted classes on one immutable base; each behaves as the
frozen dataclass it replaced, and the reprs below are that dataclass text.
"""

import ast
import copy
import operator
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from jcouple.coupling import CouplingChain, CouplingTree, StateExpansion
from jcouple.kepler import KeplerLevel, MergedKeplerLevel, Statistics
from jcouple.numerics import FactorizedFactorial, GaussianRational, HalfInt, Surd
from jcouple.particles import Leaf, Node
from jcouple.timerev import FirstSymmetryAudit
from jcouple.wigner import CgArgs, ReggeAuditEntry, RSymbol

H = HalfInt
HALF = "HalfInt(twice=1)"
CHAIN = f"CouplingChain(js=({HALF}, {HALF}), intermediates=(), total_j=HalfInt(twice=2))"

# (class, {field: value} in __init__ order, the repr the frozen dataclass gave)
CASES = [
    (HalfInt, {"twice": 3}, "HalfInt(twice=3)"),
    (Surd, {"sign": 1, "radicand": Fraction(2)}, "Surd(sign=1, radicand=Fraction(2, 1))"),
    (
        GaussianRational,
        {"re": Fraction(1, 2), "im": -3},
        "GaussianRational(re=Fraction(1, 2), im=-3)",
    ),
    (
        FactorizedFactorial,
        {"n": 4, "exponents": ((2, 3), (3, 1))},
        "FactorizedFactorial(n=4, exponents=((2, 3), (3, 1)))",
    ),
    (
        CgArgs,
        {"j1": H(1), "m1": H(1), "j2": H(1), "m2": H(-1), "j": H(0), "m": H(0)},
        f"CgArgs(j1={HALF}, m1={HALF}, j2={HALF}, m2=HalfInt(twice=-1), "
        "j=HalfInt(twice=0), m=HalfInt(twice=0))",
    ),
    (
        RSymbol,
        {"rows": ((1, 1, 0), (0, 1, 1), (1, 0, 1))},
        "RSymbol(rows=((1, 1, 0), (0, 1, 1), (1, 0, 1)))",
    ),
    (
        ReggeAuditEntry,
        {"transform": "rows:213", "claimed": -1, "actual": 1},
        "ReggeAuditEntry(transform='rows:213', claimed=-1, actual=1)",
    ),
    (CouplingChain, {"js": (H(1), H(1)), "intermediates": (), "total_j": H(2)}, CHAIN),
    (
        StateExpansion,
        {
            "chain": CouplingChain((H(1), H(1)), (), H(2)),
            "total_m": H(0),
            "amplitudes": {(H(1), H(-1)): Surd(1, Fraction(1, 2))},
        },
        f"StateExpansion(chain={CHAIN}, total_m=HalfInt(twice=0), amplitudes="
        f"{{({HALF}, HalfInt(twice=-1)): Surd(sign=1, radicand=Fraction(1, 2))}})",
    ),
    (CouplingTree, {"shape": ((1, 2), 3)}, "CouplingTree(shape=((1, 2), 3))"),
    (
        FirstSymmetryAudit,
        {"lhs": Surd(1, Fraction(1, 2)), "rhs": Surd(-1, Fraction(1, 2)), "ratio": -1},
        "FirstSymmetryAudit(lhs=Surd(sign=1, radicand=Fraction(1, 2)), "
        "rhs=Surd(sign=-1, radicand=Fraction(1, 2)), ratio=-1)",
    ),
    (
        KeplerLevel,
        {
            "js": (H(1),),
            "energy": Fraction(-1, 16),
            "degeneracy_paper": 4,
            "degeneracy_enumerated": 4,
            "statistics": Statistics.BOSON0,
        },
        f"KeplerLevel(js=({HALF},), energy=Fraction(-1, 16), degeneracy_paper=4, "
        "degeneracy_enumerated=4, statistics=<Statistics.BOSON0: 'boson0'>)",
    ),
    (
        MergedKeplerLevel,
        {
            "energy": Fraction(-1, 16),
            "degeneracy_paper": 4,
            "degeneracy_enumerated": 4,
            "js_tuples": ((H(1),),),
        },
        "MergedKeplerLevel(energy=Fraction(-1, 16), degeneracy_paper=4, "
        f"degeneracy_enumerated=4, js_tuples=(({HALF},),))",
    ),
    (Leaf, {"univalence": -1}, "Leaf(univalence=-1)"),
    (
        Node,
        {"children": (Leaf(-1), Node((Leaf(1),)))},
        "Node(children=(Leaf(univalence=-1), Node(children=(Leaf(univalence=1),))))",
    ),
]
IDS = [cls.__name__ for cls, _, _ in CASES]
# the one class whose fields hold a dict
UNHASHABLE = {StateExpansion}


def test_every_value_class_is_listed():
    assert len({cls for cls, _, _ in CASES}) == len(CASES) == 15


def test_only_coupling_tree_writes_its_own_eq_and_hash():
    # every other value class compares and hashes its field tuple through _Value
    package = Path(__file__).resolve().parent.parent / "src" / "jcouple"
    classes = {}
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
    values, grown = {"_Value"}, True
    while grown:
        found = {
            name
            for name, node in classes.items()
            if any(isinstance(b, ast.Name) and b.id in values for b in node.bases)
        }
        grown, values = not found <= values, values | found
    own = {
        name
        for name in values - {"_Value"}
        for stmt in classes[name].body
        if isinstance(stmt, ast.FunctionDef) and stmt.name in ("__eq__", "__hash__")
    }
    assert len(values) == 16 and own == {"CouplingTree"}


@pytest.mark.parametrize("cls, fields, _", CASES, ids=IDS)
def test_positional_and_keyword_construction(cls, fields, _):
    by_position, by_name = cls(*fields.values()), cls(**fields)
    assert by_position == by_name
    for name, value in fields.items():
        assert getattr(by_position, name) is value
        assert getattr(by_name, name) is value


@pytest.mark.parametrize("cls, fields, _", CASES, ids=IDS)
def test_equality_holds_only_within_a_class(cls, fields, _):
    value = cls(**fields)
    for other_cls, other_fields, _ in CASES:
        if other_cls is not cls:
            other = other_cls(**other_fields)
            assert value.__eq__(other) is NotImplemented
            assert value != other
    assert value.__eq__(tuple(fields.values())) is NotImplemented


def test_a_halfint_is_not_its_int():
    assert HalfInt(1) != 1
    assert 1 != HalfInt(1)
    assert HalfInt(2) != Fraction(1)


@pytest.mark.parametrize("cls, fields, _", CASES, ids=IDS)
def test_equal_values_hash_equal(cls, fields, _):
    a, b = cls(**fields), cls(*fields.values())
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_repr_is_the_dataclass_text(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, _", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, _):
    value = cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, fields[name])
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) is fields[name]
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("cls, fields, _", CASES, ids=IDS)
def test_copies_and_pickles_are_equal(cls, fields, _):
    value = cls(**fields)
    for twin in (
        copy.copy(value),
        copy.deepcopy(value),
        pickle.loads(pickle.dumps(value)),
    ):
        assert type(twin) is cls
        assert twin == value
        assert repr(twin) == repr(value)


def test_halfint_order():
    values = [H(3), H(-1), H(0), H(2)]
    assert sorted(values) == [H(-1), H(0), H(2), H(3)]
    assert max(values) == H(3) and min(values) == H(-1)
    assert H(1) < H(2) <= H(2) and H(3) > H(2) >= H(2)
    assert not H(2) < H(2)
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(H(1), 1)
        with pytest.raises(TypeError):
            compare(1, H(1))
    with pytest.raises(TypeError):
        sorted([H(1), 0])
