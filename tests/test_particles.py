import random
from fractions import Fraction

import pytest

from jcouple.numerics import DomainError, PhasedSurdSum
from jcouple.particles import (
    Leaf,
    Node,
    Permutation,
    antisymmetrize,
    exchange,
    is_fermion,
    particle_from_json,
    signature,
    symmetrize,
)

F = Leaf(-1)
B = Leaf(1)


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


class TestPermutations:
    def test_identity_signature(self):
        assert signature(Permutation((1, 2, 3))) == 1

    def test_transposition_signature(self):
        assert signature(Permutation((2, 1, 3))) == -1

    def test_three_cycle_signature(self):
        assert signature(Permutation((2, 3, 1))) == 1

    def test_not_a_permutation(self):
        with pytest.raises(DomainError):
            Permutation((1, 1, 3))

    def test_signature_multiplicative(self):
        import itertools

        for a in itertools.permutations((1, 2, 3)):
            for b in itertools.permutations((1, 2, 3)):
                composed = Permutation(tuple(a[b[i] - 1] for i in range(3)))
                assert signature(composed) == signature(Permutation(a)) * signature(
                    Permutation(b)
                )


class TestExchange:
    def test_outer_swap(self):
        assert exchange(["a", "b", "c"], (1, 3)) == ["c", "b", "a"]

    def test_involution(self):
        args = ["a", "b", "c", "d"]
        assert exchange(exchange(args, (2, 4)), (2, 4)) == args

    def test_pair(self):
        assert exchange(["a", "b"], (1, 2)) == ["b", "a"]

    def test_bad_indices(self):
        with pytest.raises(DomainError):
            exchange(["a", "b"], (1, 3))
        with pytest.raises(DomainError):
            exchange(["a", "b"], (2, 2))


def _sum_of(q):
    return PhasedSurdSum({1: Fraction(q)})


class TestSymmetrize:
    def test_symmetric_table_is_fixed(self):
        table = {key: _sum_of(7) for key in [("x", "y"), ("y", "x")]}
        assert symmetrize(table, ["x", "y"]) == _sum_of(7)

    def test_antisymmetric_table_symmetrizes_to_zero(self):
        table = {("x", "y"): _sum_of(3), ("y", "x"): _sum_of(-3)}
        assert symmetrize(table, ["x", "y"]).is_zero

    def test_antisymmetrize_product_form(self):
        g = {"x": Fraction(2), "y": Fraction(5)}
        h = {"x": Fraction(3), "y": Fraction(7)}
        table = {
            (a, b): _sum_of(g[a] * h[b]) for a in ("x", "y") for b in ("x", "y")
        }
        expected = _sum_of(Fraction(g["x"] * h["y"] - g["y"] * h["x"], 2))
        assert antisymmetrize(table, ["x", "y"]) == expected

    def test_missing_entry(self):
        with pytest.raises(DomainError):
            symmetrize({("x", "y"): _sum_of(1)}, ["x", "y"])

    def test_invariance_under_precomposition(self):
        import itertools

        rng = random.Random(7)
        args = ["p", "q", "r", "s"]
        table = {
            key: _sum_of(Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)))
            for key in itertools.permutations(args)
        }
        sym = symmetrize(table, args)
        anti = antisymmetrize(table, args)
        for perm in itertools.permutations(range(1, 5)):
            p = Permutation(perm)
            permuted = p.apply(args)
            assert symmetrize(table, permuted) == sym
            expected = anti if signature(p) == 1 else -anti
            assert antisymmetrize(table, permuted) == expected
