"""Sequential coupling of n momenta and coupling-scheme combinatorics.

The sequential scheme j1+j2=j12, j12+j3=j123, ... gets exact coefficient
evaluation; arbitrary binary pairing schemes are enumerated structurally
(leaf-labeled trees with unordered children, (2n-3)!! of them), counted,
listed as streamed JSON text, decoded one at a time from their index, and
exported as DOT diagrams.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from .numerics import DomainError, HalfInt, Surd, check_momentum_pair, short_repr, short_str
from .wigner import _cg_signed_square, allowed_j

TreeShape = Union[int, tuple]


def jmax(js: Sequence[HalfInt]) -> HalfInt:
    """Largest total momentum: the plain sum."""
    if len(js) < 2:
        raise DomainError("jmax needs at least two momenta")
    total = 0
    for j in js:
        if j.twice < 0:
            raise DomainError(f"momentum must be nonnegative, got {j}")
        total += j.twice
    return HalfInt(total)


def jmin(js: Sequence[HalfInt]) -> HalfInt:
    """Smallest total momentum, by the prefix recursion min |i - j_n|."""
    if len(js) < 2:
        raise DomainError("jmin needs at least two momenta")
    if any(j.twice < 0 for j in js):
        raise DomainError("momenta must be nonnegative")
    lo = abs(js[0].twice - js[1].twice)
    hi = js[0].twice + js[1].twice
    for j in js[2:]:
        t = j.twice
        if t < lo:
            lo, hi = lo - t, hi + t
        elif t > hi:
            lo, hi = t - hi, hi + t
        else:
            # nearest ladder point to t inside [lo, hi]; offsets step by 2
            lo, hi = (t - lo) % 2, hi + t
    return HalfInt(lo)


@dataclass(frozen=True)
class CouplingChain:
    """A sequential coupling scheme: js, the intermediates j12, j123, ..., and total j.

    The degenerate single-momentum chain (n=1, no coefficients) is allowed so
    time-reversal checks can treat one bare momentum uniformly.
    """

    js: tuple[HalfInt, ...]
    intermediates: tuple[HalfInt, ...]
    total_j: HalfInt

    def __post_init__(self) -> None:
        n = len(self.js)
        if n < 1:
            raise DomainError("a chain needs at least one momentum")
        if any(j.twice < 0 for j in self.js):
            raise DomainError("momenta must be nonnegative")
        if len(self.intermediates) != max(0, n - 2):
            raise DomainError(
                f"expected {max(0, n - 2)} intermediates for n={n}, got {len(self.intermediates)}"
            )
        for partial, (prev, j_new) in zip(
            self.partial_totals()[1:], zip(self.partial_totals(), self.js[1:])
        ):
            if partial not in allowed_j(prev, j_new):
                raise DomainError(
                    f"{short_str(partial)} not an allowed coupling of "
                    f"{short_str(prev)} and {short_str(j_new)}"
                )
        if n == 1 and self.total_j != self.js[0]:
            raise DomainError("single-momentum chain must have total_j = j1")

    @property
    def n(self) -> int:
        return len(self.js)

    def partial_totals(self) -> tuple[HalfInt, ...]:
        """j1, j12, j123, ..., total_j (length n)."""
        if self.n == 1:
            return (self.total_j,)
        return (self.js[0],) + self.intermediates + (self.total_j,)

    def to_json_dict(self) -> dict:
        return {
            "js": [str(j) for j in self.js],
            "intermediates": [str(j) for j in self.intermediates],
            "j": str(self.total_j),
        }


def enumerate_chains(
    js: Sequence[HalfInt], total_j: Optional[HalfInt] = None
) -> list[CouplingChain]:
    """Every valid intermediate sequence for js, optionally filtered by total."""
    if len(js) < 2:
        raise DomainError("chain enumeration needs at least two momenta")
    js = tuple(js)
    # (intermediates so far, partial total), extended one momentum at a time in order
    prefixes = [((), j12) for j12 in allowed_j(js[0], js[1])]
    for j in js[2:]:
        prefixes = [
            (inter + (partial,), nxt) for inter, partial in prefixes for nxt in allowed_j(partial, j)
        ]
    return [
        CouplingChain(js, inter, partial)
        for inter, partial in prefixes
        if total_j is None or partial == total_j
    ]


def _chain_signed_square(
    tjs: Sequence[int], partials: Sequence[int], tms: Sequence[int]
) -> Fraction:
    """sign(C) * C**2 of the chain product at twice-projections tms, whose total m is sum(tms)/2.

    tjs and partials are the chain's twice-momenta and twice-partial totals.
    No argument is checked here: callers check every (j, m) pair first.
    """
    value = Fraction(1)
    t_run = tms[0]
    for k in range(1, len(tjs)):
        t_next = t_run + tms[k]
        if abs(t_next) > partials[k]:
            return Fraction(0)
        value *= _cg_signed_square(partials[k - 1], t_run, tjs[k], tms[k], partials[k], t_next)
        if not value:
            return value
        t_run = t_next
    return value


def _twices(chain: CouplingChain) -> tuple[list[int], list[int]]:
    return [j.twice for j in chain.js], [j.twice for j in chain.partial_totals()]


def _amplitudes(
    tjs: Sequence[int], partials: Sequence[int], ttotal: int
) -> dict[tuple[int, ...], Fraction]:
    """{twice ms: signed square} of the coupled state at twice total m, nonzero entries only.

    A walk along the chain that extends every live prefix one step at a time,
    in itertools.product order: step k draws only the twice m_k whose running
    sum t_next keeps |t_next| <= partials[k] and can still reach ttotal with
    the momenta after it, and the last projection is ttotal minus the running
    sum.  Each prefix's product is multiplied once and shared by all of its
    suffixes; a zero drops the prefix's whole subtree.  No argument is checked
    here: callers check the total (j, m) first, which makes every drawn
    (j_k, m_k) valid.
    """
    n = len(tjs)
    rest = [0] * (n + 1)  # rest[k]: twice the largest |m| the momenta k.. can sum to
    for k in range(n - 1, -1, -1):
        rest[k] = rest[k + 1] + tjs[k]
    kernel = _cg_signed_square
    # (tms[:k], its sum, the product of steps 1..k-1) for every live prefix after k steps
    live: list[tuple[tuple[int, ...], int, Fraction]] = [((), 0, Fraction(1))]
    for k in range(n - 1):
        grown = []
        for prefix, t_run, value in live:
            # every bound has the parity of t_next, so the steps of 2 hit each allowed value
            lo = max(t_run - tjs[k], -partials[k], ttotal - rest[k + 1])
            hi = min(t_run + tjs[k], partials[k], ttotal + rest[k + 1])
            for t_next in range(lo, hi + 1, 2):
                tm = t_next - t_run
                step = value
                if k:
                    step *= kernel(partials[k - 1], t_run, tjs[k], tm, partials[k], t_next)
                if step:
                    grown.append((prefix + (tm,), t_next, step))
        live = grown
    k = n - 1
    out: dict[tuple[int, ...], Fraction] = {}
    for prefix, t_run, value in live:
        tm = ttotal - t_run
        if k:
            value *= kernel(partials[k - 1], t_run, tjs[k], tm, partials[k], ttotal)
        if value:
            out[prefix + (tm,)] = value
    return out


def _state_amplitudes(
    chain: CouplingChain, total_m: HalfInt
) -> dict[tuple[int, ...], Fraction]:
    """_amplitudes of |chain, total_m>, after the one check of the total (j, m)."""
    check_momentum_pair(chain.total_j, total_m, "total (j, m)")
    return _amplitudes(*_twices(chain), total_m.twice)


def generalized_coupling_coefficient(
    chain: CouplingChain, ms: Sequence[HalfInt], total_m: HalfInt
) -> Surd:
    """Product of the n-1 coefficients along the chain; zero if sum(ms) != total_m."""
    if len(ms) != chain.n:
        raise DomainError(f"expected {chain.n} projections, got {len(ms)}")
    for j, m in zip(chain.js, ms):
        check_momentum_pair(j, m, "(j_k, m_k)")
    tms = [m.twice for m in ms]
    if sum(tms) != total_m.twice:
        return Surd.zero()
    return Surd.from_signed_square(_chain_signed_square(*_twices(chain), tms))


@dataclass(frozen=True)
class StateExpansion:
    """Product-basis amplitudes of one coupled state |chain, total_j, total_m>."""

    chain: CouplingChain
    total_m: HalfInt
    amplitudes: dict[tuple[HalfInt, ...], Surd]

    def norm_square(self) -> Fraction:
        return sum((a.radicand for a in self.amplitudes.values()), Fraction(0))


def expand_coupled_state(chain: CouplingChain, total_m: HalfInt) -> StateExpansion:
    """All nonzero amplitudes over projection tuples with sum(ms) = total_m, in product order."""
    amplitudes = {
        tuple(map(HalfInt, tms)): Surd.from_signed_square(value)
        for tms, value in _state_amplitudes(chain, total_m).items()
    }
    return StateExpansion(chain, total_m, amplitudes)


# ---------------------------------------------------------------------------
# coupling trees


def _min_leaf(shape: TreeShape) -> int:
    if isinstance(shape, int):
        return shape
    return min(_min_leaf(shape[0]), _min_leaf(shape[1]))


def _leaves(shape: TreeShape) -> list[int]:
    if isinstance(shape, int):
        return [shape]
    return _leaves(shape[0]) + _leaves(shape[1])


def _canonical(shape: TreeShape) -> TreeShape:
    if isinstance(shape, int):
        return shape
    left, right = _canonical(shape[0]), _canonical(shape[1])
    if _min_leaf(left) > _min_leaf(right):
        left, right = right, left
    return (left, right)


@dataclass(frozen=True)
class CouplingTree:
    """Rooted binary coupling scheme: n labeled leaves, unordered children."""

    shape: TreeShape

    @classmethod
    def from_nested(cls, obj) -> CouplingTree:
        def build(node) -> TreeShape:
            if isinstance(node, int):
                return node
            if isinstance(node, (list, tuple)) and len(node) == 2:
                return (build(node[0]), build(node[1]))
            raise DomainError(f"tree nodes must be leaf labels or pairs, got {node!r}")

        tree = cls(_canonical(build(obj)))
        labels = sorted(tree.leaves())
        if labels != list(range(1, len(labels) + 1)):
            raise DomainError(f"leaves must be labeled 1..n, got {labels}")
        return tree

    def leaves(self) -> list[int]:
        return _leaves(self.shape)

    @property
    def n(self) -> int:
        return len(self.leaves())

    def to_nested(self):
        def walk(shape: TreeShape):
            if isinstance(shape, int):
                return shape
            return [walk(shape[0]), walk(shape[1])]

        return walk(self.shape)


def _insertions(shape: TreeShape, leaf: int) -> Iterator[TreeShape]:
    # new leaf carries the largest label, so appending it on the right keeps
    # every generated shape in canonical (min-leaf-first) form
    yield (shape, leaf)
    if not isinstance(shape, int):
        left, right = shape
        for grown in _insertions(left, leaf):
            yield (grown, right)
        for grown in _insertions(right, leaf):
            yield (left, grown)


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _check_guard(n: int, max_leaves: int) -> None:
    if n < 2:
        raise DomainError("coupling needs at least two momenta")
    if n > max_leaves:
        raise DomainError(
            f"n={n} exceeds the enumeration guard ({max_leaves}); "
            "raise the guard explicitly to proceed"
        )


def count_coupling_trees(n: int, max_leaves: int = 10) -> int:
    """(2n-3)!!, the number of pairing schemes of n momenta, without building any."""
    _check_guard(n, max_leaves)
    return double_factorial(2 * n - 3)


def enumerate_coupling_trees(n: int, max_leaves: int = 10) -> list[CouplingTree]:
    """All (2n-3)!! pairing schemes of n labeled momenta, sequential chain first."""
    _check_guard(n, max_leaves)
    shapes: list[TreeShape] = [(1, 2)]
    for leaf in range(3, n + 1):
        shapes = [grown for shape in shapes for grown in _insertions(shape, leaf)]
    return [CouplingTree(shape) for shape in shapes]


def coupling_trees_json(n: int, max_leaves: int = 10) -> Iterator[str]:
    """json.dumps([t.shape for t in enumerate_coupling_trees(n)]), written in chunks.

    Builds no tree and holds O(n^2) state, so the listing streams at any n the
    guard admits.  The guard is checked here, before the first chunk.
    """
    _check_guard(n, max_leaves)
    return _listing_chunks(n)


def _grown_spans(spans: list[tuple[int, int]], i: int, leaf: int) -> list[tuple[int, int]]:
    """Node spans of the text after leaf is spliced in above node i (see _listing_chunks)."""
    a, b = spans[i]
    shift = len(f"[, {leaf}]")
    j = i + 1
    while j < len(spans) and spans[j][0] < b:  # node i's descendants
        j += 1
    return (
        [(s, e + shift if e > b else e) for s, e in spans[:i]]  # ancestors grow
        + [(a, b + shift)]  # the new pair
        + [(s + 1, e + 1) for s, e in spans[i:j]]  # node i's subtree, its left child
        + [(b + 3, b + shift - 1)]  # the leaf, its right child, after ", "
        + [(s + shift, e + shift) for s, e in spans[j:]]
    )


def _listing_chunks(n: int) -> Iterator[str]:
    # A tree is held as its JSON text plus the (start, end) span of every node
    # in pre-order.  _insertions puts the new leaf above each node in pre-order
    # (root, then the left subtree's nodes, then the right's), always as the
    # right child, so the trees grown from one text are "[" + text[a:b] + ", leaf]"
    # spliced in at each span, in the enumeration's order.  The walk is depth
    # first; each chunk is the children of one tree with n-1 leaves.
    def walk(text: str, spans: list[tuple[int, int]], leaf: int) -> Iterator[str]:
        if leaf == n:
            yield ", ".join([f"{text[:a]}[{text[a:b]}, {leaf}]{text[b:]}" for a, b in spans])
            return
        for i, (a, b) in enumerate(spans):
            grown = f"{text[:a]}[{text[a:b]}, {leaf}]{text[b:]}"
            yield from walk(grown, _grown_spans(spans, i, leaf), leaf + 1)

    separator = "["
    for chunk in walk("1", [(0, 1)], 2):
        yield separator + chunk
        separator = ", "
    yield "]"


def coupling_tree(n: int, index: int, max_leaves: int = 10) -> CouplingTree:
    """enumerate_coupling_trees(n)[index], built alone.

    The enumeration order is a mixed-radix number: leaf k has 2k-3 insertion
    positions and the last leaf is the least significant digit.
    """
    count = count_coupling_trees(n, max_leaves)
    if not 0 <= index < count:
        raise DomainError(f"scheme index {index} out of range 0..{count - 1}")
    digits = []
    for leaf in range(n, 2, -1):
        index, digit = divmod(index, 2 * leaf - 3)
        digits.append(digit)
    shape: TreeShape = (1, 2)
    for leaf, digit in zip(range(3, n + 1), reversed(digits)):
        shape = next(itertools.islice(_insertions(shape, leaf), digit, None))
    return CouplingTree(shape)


def export_dot(tree: CouplingTree, j_labels: Sequence[str]) -> str:
    """Deterministic DOT digraph; one box per pairing vertex, labels j...m... per edge."""
    if len(j_labels) != tree.n:
        raise DomainError(f"expected {tree.n} labels, got {len(j_labels)}")
    for label in j_labels:
        # labels land inside DOT quoted strings, which these would end or escape
        if '"' in label or "\\" in label or "".join(label.splitlines()) != label:
            raise DomainError(
                f"label {short_repr(label)} may not contain a double quote, a backslash "
                "or a line break"
            )
    label_of = dict(zip(sorted(tree.leaves()), j_labels))
    boxes: list[str] = []
    edges: list[tuple[str, str, str]] = []

    def walk(shape: TreeShape) -> tuple[str, str]:
        """Returns (node id, concatenated leaf label) of the subtree."""
        if isinstance(shape, int):
            return f"in{shape}", label_of[shape]
        left_id, left_label = walk(shape[0])
        right_id, right_label = walk(shape[1])
        box = f"cg{len(boxes) + 1}"
        boxes.append(box)
        edges.append((left_id, box, left_label))
        edges.append((right_id, box, right_label))
        return box, left_label + right_label

    root_id, root_label = walk(tree.shape)
    edges.append((root_id, "out", root_label))
    lines = ["digraph coupling {", "    rankdir=LR;"]
    for leaf in sorted(tree.leaves()):
        lines.append(f'    in{leaf} [shape=point, label=""];')
    for box in boxes:
        lines.append(f'    {box} [shape=box, label=""];')
    lines.append('    out [shape=point, label=""];')
    for src, dst, label in edges:
        lines.append(f'    {src} -> {dst} [label="j{label}m{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
