import random

import pytest

from jcouple.numerics import DomainError
from jcouple.particles import Leaf, Node, is_fermion, particle_from_json

F = Leaf(-1)
B = Leaf(1)


class TestLeaf:
    @pytest.mark.parametrize("univalence", [True, 1.0, -1.0])
    def test_non_integer_univalence_rejected(self, univalence):
        # each compares equal to +-1, so only the type check refuses it
        with pytest.raises(DomainError, match="leaf univalence must be"):
            Leaf(univalence)


class TestNode:
    @pytest.mark.parametrize("child", ["x", -1, None, (F, F), "y" * 1000])
    def test_non_particle_child_rejected(self, child):
        # built, such a node would fail later inside is_fermion with an AttributeError
        with pytest.raises(DomainError, match="subparticle must be a Leaf or a Node") as raised:
            Node((F, child))
        assert "\n" not in str(raised.value) and len(str(raised.value)) < 200


class TestFermionQ:
    def test_fermion_leaf(self):
        assert is_fermion(F)

    def test_two_fermions_make_a_boson(self):
        assert not is_fermion(Node((F, F)))

    def test_nested_recursion(self):
        # inner triple is a fermion; with one more fermion leaf the count is even
        assert not is_fermion(Node((Node((F, F, F)), B, F)))

    def test_from_json(self):
        assert not is_fermion(particle_from_json([[-1, -1, -1], -1]))
        assert is_fermion(particle_from_json(-1))
        with pytest.raises(DomainError):
            particle_from_json([[2], -1])

    def test_helium_decompositions_agree(self):
        proton = Node((F, F, F))  # two up quarks, one down
        neutron = Node((F, F, F))
        he4_nucleon = Node((F, F, F, F, F, F))  # 2p + 2n + 2e as bare fermions
        he4_quark_flat = Node(tuple([F] * 2 + [F] * 12))  # 2e + 12 quarks
        he4_quark_nested = Node((proton, proton, neutron, neutron, F, F))
        assert not is_fermion(he4_nucleon)
        assert not is_fermion(he4_quark_flat)
        assert not is_fermion(he4_quark_nested)

        he3_nucleon = Node((F, F, F, F, F))  # 2p + 1n + 2e
        he3_quark_flat = Node(tuple([F] * 2 + [F] * 9))  # 2e + 5u + 4d
        he3_quark_nested = Node((proton, proton, neutron, F, F))
        assert is_fermion(he3_nucleon)
        assert is_fermion(he3_quark_flat)
        assert is_fermion(he3_quark_nested)

    def test_adding_one_fermion_child_flips(self):
        rng = random.Random(42)

        def random_tree(depth):
            if depth == 0 or rng.random() < 0.4:
                return Leaf(rng.choice([-1, 1]))
            width = rng.randrange(1, 6)
            return Node(tuple(random_tree(depth - 1) for _ in range(width)))

        for _ in range(200):
            tree = random_tree(4)
            if isinstance(tree, Leaf):
                tree = Node((tree,))
            grown = Node(tree.children + (F,))
            assert is_fermion(grown) != is_fermion(tree)

    def test_walks_match_recursive_definitions(self):
        """The stack walks against the recursive definitions, kept here, on random input."""

        def build(obj):
            if isinstance(obj, bool):
                raise DomainError(f"invalid particle atom {obj!r}")
            if isinstance(obj, int):
                return Leaf(obj)
            if isinstance(obj, (list, tuple)):
                return Node(tuple(build(child) for child in obj))
            raise DomainError(f"invalid particle description {obj!r}")

        def fermion(p):
            if isinstance(p, Leaf):
                return p.univalence == -1
            return sum(1 for child in p.children if fermion(child)) % 2 == 1

        def outcome(walk, obj):
            try:
                return walk(obj)
            except DomainError as exc:
                return str(exc)

        rng = random.Random(7)
        atoms = [-1, 1, -1, 1, 2, True, "x", None]

        def random_json(depth):
            if depth == 0 or rng.random() < 0.35:
                return rng.choice(atoms) if rng.random() < 0.2 else rng.choice([-1, 1])
            return [random_json(depth - 1) for _ in range(rng.randrange(0, 5))]

        errors = 0
        for _ in range(500):
            obj = random_json(5)
            expected = outcome(build, obj)
            assert outcome(particle_from_json, obj) == expected
            if isinstance(expected, str):
                errors += 1
            else:
                assert is_fermion(expected) == fermion(expected)
        assert 0 < errors < 500  # both valid trees and each error path are drawn
