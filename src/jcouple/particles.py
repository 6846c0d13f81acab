"""Recursive boson/fermion classification and symmetric-group helpers."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

from .numerics import DomainError, short_repr


@dataclass(frozen=True)
class Leaf:
    """A basic particle carrying its univalence: -1 fermion, +1 boson."""

    univalence: int

    def __post_init__(self) -> None:
        if self.univalence not in (-1, 1):
            raise DomainError(f"leaf univalence must be +-1, got {short_repr(self.univalence)}")


@dataclass(frozen=True)
class Node:
    """A compound particle; children are its subparticles."""

    children: tuple["ParticleTree", ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise DomainError("a compound particle needs at least one subparticle")


ParticleTree = Union[Leaf, Node]


def _atom(obj) -> Leaf:
    if isinstance(obj, bool):
        raise DomainError(f"invalid particle atom {short_repr(obj)}")
    if isinstance(obj, int):
        return Leaf(obj)
    raise DomainError(f"invalid particle description {short_repr(obj)}")


def particle_from_json(obj) -> ParticleTree:
    """Nested arrays with +-1 atoms, e.g. [[-1,-1,-1],-1], into a ParticleTree.

    Walks with an explicit stack, so any nesting depth that the JSON parser
    accepts is built; errors are raised in the order a depth-first walk meets them.
    """
    if not isinstance(obj, (list, tuple)):
        return _atom(obj)
    # one frame per open array: its children still to read, and the subtrees built
    stack: list[tuple[Iterator, list[ParticleTree]]] = [(iter(obj), [])]
    while True:
        pending, built = stack[-1]
        for child in pending:
            if isinstance(child, (list, tuple)):
                stack.append((iter(child), []))
                break
            built.append(_atom(child))
        else:
            stack.pop()
            node = Node(tuple(built))
            if not stack:
                return node
            stack[-1][1].append(node)


def is_fermion(p: ParticleTree) -> bool:
    """A compound is a fermion iff it contains an odd number of fermions.

    Parity composes, so this is the parity of the fermion leaves anywhere in
    the tree; they are counted with an explicit stack, at any depth.
    """
    fermions = 0
    stack = [p]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            fermions += node.univalence == -1
        else:
            stack.extend(node.children)
    return fermions % 2 == 1


# ---------------------------------------------------------------------------
# symmetric group


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} given by its image tuple (1-based)."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.image)
        if sorted(self.image) != list(range(1, n + 1)):
            raise DomainError(f"not a permutation of 1..{n}: {self.image}")

    def apply(self, args: Sequence) -> list:
        return [args[i - 1] for i in self.image]


def signature(perm: Permutation) -> int:
    """(-1) to the number of inversions."""
    inversions = sum(
        1
        for a, b in itertools.combinations(perm.image, 2)
        if a > b
    )
    return -1 if inversions % 2 else 1


def all_permutations(n: int) -> list[Permutation]:
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def exchange(args: Sequence, pair: tuple[int, int]) -> list:
    """Swap the (1-based) entries at the two given distinct positions."""
    i, k = pair
    n = len(args)
    if not (1 <= i <= n and 1 <= k <= n):
        raise DomainError(f"indices {pair} out of range 1..{n}")
    if i == k:
        raise DomainError("exchange needs two distinct positions")
    out = list(args)
    out[i - 1], out[k - 1] = out[k - 1], out[i - 1]
    return out


def symmetrize(table, args: Sequence):
    """(1/n!) sum of table values over all permutations of args.

    The table must hold an entry for every permuted tuple; values need exact
    + and * Fraction (PhasedSurdSum or Fraction both qualify).
    """
    return _average(table, args, signed=False)


def antisymmetrize(table, args: Sequence):
    """Like symmetrize, with each term weighted by the permutation signature."""
    return _average(table, args, signed=True)


def _average(table, args: Sequence, signed: bool):
    n = len(args)
    total = None
    for perm in all_permutations(n):
        key = tuple(perm.apply(args))
        try:
            value = table[key]
        except KeyError as exc:
            raise DomainError(f"table has no entry for {key}") from exc
        if signed and signature(perm) < 0:
            value = -value
        total = value if total is None else total + value
    return total * Fraction(1, math.factorial(n))
