"""Boson/fermion classification of particles built from nested subparticles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .numerics import DomainError, short_repr


@dataclass(frozen=True)
class Leaf:
    """A basic particle carrying its univalence: -1 fermion, +1 boson."""

    univalence: int

    def __post_init__(self) -> None:
        u = self.univalence
        # True and 1.0 compare equal to 1, so the type is checked too
        if isinstance(u, bool) or not isinstance(u, int) or u not in (-1, 1):
            raise DomainError(f"leaf univalence must be +-1, got {short_repr(u)}")


@dataclass(frozen=True)
class Node:
    """A compound particle; children are its subparticles."""

    children: tuple["ParticleTree", ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise DomainError("a compound particle needs at least one subparticle")
        for child in self.children:
            if not isinstance(child, (Leaf, Node)):
                raise DomainError(f"a subparticle must be a Leaf or a Node, got {short_repr(child)}")


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
