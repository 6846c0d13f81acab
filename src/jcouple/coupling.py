"""Sequential coupling of n momenta and coupling-scheme combinatorics.

The sequential scheme j1+j2=j12, j12+j3=j123, ... gets exact coefficient
evaluation; arbitrary binary pairing schemes are enumerated structurally
(leaf-labeled trees with unordered children, (2n-3)!! of them), counted,
listed as streamed JSON text, decoded one at a time from their index, and
exported as DOT diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterator, Optional, Sequence, Union

from .numerics import DomainError, HalfInt, Surd, check_momenta, check_momentum_pair
from .numerics import short_repr, short_str
from .wigner import _cg_signed_square, _ladder

TreeShape = Union[int, tuple]


def jmax(js: Sequence[HalfInt]) -> HalfInt:
    """Largest total momentum: the plain sum."""
    if len(js) < 2:
        raise DomainError("jmax needs at least two momenta")
    check_momenta(js)
    total = 0
    for j in js:
        total += j.twice
    return HalfInt(total)


def jmin(js: Sequence[HalfInt]) -> HalfInt:
    """Smallest total momentum, by the prefix recursion min |i - j_n|."""
    if len(js) < 2:
        raise DomainError("jmin needs at least two momenta")
    check_momenta(js)
    lo = hi = js[0].twice  # the totals so far are the ladder lo, lo+1, ..., hi
    for j in js[1:]:
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
        check_momenta(self.js)
        if len(self.intermediates) != max(0, n - 2):
            raise DomainError(
                f"expected {max(0, n - 2)} intermediates for n={n}, got {len(self.intermediates)}"
            )
        totals = self.partial_totals()
        for k in range(1, n):
            if totals[k].twice not in _ladder(totals[k - 1].twice, self.js[k].twice):
                raise DomainError(
                    f"{short_str(totals[k])} not an allowed coupling of "
                    f"{short_str(totals[k - 1])} and {short_str(self.js[k])}"
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
    """Every valid intermediate sequence for js, optionally filtered by total.

    The chains are the HalfInt view of _chain_partials, the walk verify runs.
    """
    if len(js) < 2:
        raise DomainError("chain enumeration needs at least two momenta")
    js = tuple(js)
    check_momenta(js)
    return [
        CouplingChain(js, tuple(map(HalfInt, p[1:-1])), HalfInt(p[-1]))
        for p in _chain_partials([j.twice for j in js])
        if total_j is None or p[-1] == total_j.twice
    ]


def _chain_partials(tjs: Sequence[int]) -> list[tuple[int, ...]]:
    """The twice partial totals (j1, j12, j123, ..., J) of every chain of twice momenta tjs.

    The prefixes are extended one momentum at a time over the ladder, so the
    chains come in enumerate_chains's order.  No argument is checked here.
    """
    prefixes = [(tjs[0],)]
    for t in tjs[1:]:
        prefixes = [p + (s,) for p in prefixes for s in _ladder(p[-1], t)]
    return prefixes


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
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """(twice ms, signed square) of each nonzero amplitude of the coupled state at twice total m.

    A depth-first walk along the chain on an explicit stack of range
    iterators, in itertools.product order: level k draws only the running
    sums t_next whose |t_next| <= partials[k] and that can still reach
    ttotal with the momenta after it, and the last projection is ttotal
    minus the running sum.  Each level keeps the product of its steps as
    an unreduced (numerator, denominator) pair of the kernel's values,
    shared by all of its suffixes; a zero step drops the prefix's whole
    subtree, and one Fraction is built per amplitude kept.  An invalid
    total (j, m) yields nothing.  No other argument is checked here: a
    valid total makes every drawn (j_k, m_k) valid.
    """
    n = len(tjs)
    top = partials[-1]
    if abs(ttotal) > top or (top - ttotal) % 2:
        return
    if n == 1:
        yield (ttotal,), Fraction(1)
        return
    rest = [0] * (n + 1)  # rest[k]: twice the largest |m| the momenta k.. can sum to
    for k in range(n - 1, -1, -1):
        rest[k] = rest[k + 1] + tjs[k]

    def draws(k: int, t_run: int) -> Iterator[int]:
        # every bound has the parity of t_next, so the steps of 2 hit each allowed value
        lo = max(t_run - tjs[k], -partials[k], ttotal - rest[k + 1])
        hi = min(t_run + tjs[k], partials[k], ttotal + rest[k + 1])
        return iter(range(lo, hi + 1, 2))

    kernel = _cg_signed_square
    last = n - 1
    tms = [0] * n  # the twice m_k of the path
    # one frame per level of the path: the running sums left to draw, the
    # running sum before the level and the product of steps 1..k-1
    stack = [(draws(0, 0), 0, 1, 1)]
    while stack:
        k = len(stack) - 1
        sums, t_run, num, den = stack[-1]
        for t_next in sums:
            tm = t_next - t_run
            if k:
                step = kernel(partials[k - 1], t_run, tjs[k], tm, partials[k], t_next)
                p, q = step.as_integer_ratio()
                if not p:
                    continue
                p, q = num * p, den * q
            else:
                p, q = num, den
            tms[k] = tm
            if k < last - 1:
                stack.append((draws(k + 1, t_next), t_next, p, q))
                break
            # the last projection is what the running sum leaves of ttotal
            tm = ttotal - t_next
            step = kernel(partials[k], t_next, tjs[last], tm, top, ttotal)
            p_last, q_last = step.as_integer_ratio()
            if p_last:
                tms[last] = tm
                yield tuple(tms), Fraction(p * p_last, q * q_last)
        else:
            stack.pop()


def _state_amplitudes(
    chain: CouplingChain, total_m: HalfInt
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """The walk of |chain, total_m>, returned after the one check of the total (j, m)."""
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
        for tms, value in _state_amplitudes(chain, total_m)
    }
    return StateExpansion(chain, total_m, amplitudes)


# ---------------------------------------------------------------------------
# coupling trees


def _fold(shape, leaf, pair):
    """leaf(node) at each leaf, pair(left's value, right's value) at each two-item tuple or list.

    The callbacks run in post-order off an explicit stack, so no depth
    recurses: the first loop lists each node before its right subtree and
    that before its left, which is the post-order reversed.  A pair object
    met twice is refused: a tree has distinct leaves, so its pairs are
    distinct objects, and a cyclic list would otherwise be walked forever.
    """
    order = []
    pushed = set()  # ids of the pairs met so far; each stays alive inside shape
    stack = [shape]
    while stack:
        node = stack.pop()
        is_pair = isinstance(node, (tuple, list)) and len(node) == 2
        order.append((node, is_pair))
        if is_pair:
            if id(node) in pushed:
                raise DomainError(f"tree nodes must not repeat, got {short_repr(node)} twice")
            pushed.add(id(node))
            stack += node
    values = []
    for node, is_pair in reversed(order):
        if is_pair:
            values[-2:] = [pair(*values[-2:])]
        else:
            values.append(leaf(node))
    return values.pop()


def _canonical(obj) -> TreeShape:
    """obj as a shape with the smaller smallest leaf first in each pair, in one O(n) fold."""

    def leaf(node) -> tuple[int, int]:
        if not isinstance(node, int):
            raise DomainError(f"tree nodes must be leaf labels or pairs, got {short_repr(node)}")
        return node, node

    def pair(left: tuple, right: tuple) -> tuple:
        if left[1] > right[1]:
            left, right = right, left
        return (left[0], right[0]), left[1]

    return _fold(obj, leaf, pair)[0]


@dataclass(frozen=True, eq=False, repr=False)
class CouplingTree:
    """Rooted binary coupling scheme: n labeled leaves, unordered children.

    ==, hash and repr work from the shape's tuple text, rendered by one fold,
    so they reach any depth; CPython compares and prints nested tuples
    recursively.
    """

    shape: TreeShape

    def _text(self) -> str:
        """repr(self.shape), without recursion."""
        return _fold(self.shape, repr, lambda left, right: f"({left}, {right})")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._text() == other._text()

    def __hash__(self) -> int:
        return hash(self._text())

    def __repr__(self) -> str:
        return f"CouplingTree(shape={self._text()})"

    @classmethod
    def from_nested(cls, obj) -> CouplingTree:
        tree = cls(_canonical(obj))
        labels = sorted(tree.leaves())
        if labels != list(range(1, len(labels) + 1)):
            raise DomainError(f"leaves must be labeled 1..n, got {short_str(labels)}")
        return tree

    def leaves(self) -> list[int]:
        out: list[int] = []
        _fold(self.shape, out.append, lambda left, right: None)
        return out

    @property
    def n(self) -> int:
        return len(self.leaves())

    def to_nested(self):
        return _fold(self.shape, lambda leaf: leaf, lambda left, right: [left, right])


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

    Builds no tree and holds O(n^2) state besides a bounded memo, so the
    listing streams at any n the guard admits.  Each chunk is one
    str.translate of a template that holds up to about a thousand schemes
    (see _listing_chunks).  The guard is checked here, before the first chunk.
    """
    _check_guard(n, max_leaves)
    return _listing_chunks(n)


# characters of skeletons and templates one listing keeps before it drops them all
_LISTING_MEMO_CHARS = 1 << 21
# schemes a template may hold once it is lifted above the (n-1)-leaf trees
_LISTING_LIFT_SCHEMES = 1024
# the 112 ASCII characters a template may write for a label digit: none of the
# listing's own "[], " and digits, and none of a "%s" field
_LABEL_MARKS = "".join(chr(c) for c in range(128) if chr(c) not in "[], 0123456789%s")


def _grown_spans(spans: list[tuple[int, int]], i: int, leaf: str) -> list[tuple[int, int]]:
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
    # A tree is held as its skeleton, its JSON text with %s at each leaf, plus
    # its leaf labels in text order.  _insertions puts the new leaf above each
    # node in pre-order (root, then the left subtree's nodes, then the right's),
    # always as the right child, so the skeletons grown from one skeleton are
    # "[" + s[a:b] + ", %s]" spliced in at each node span (a, b), in the
    # enumeration's order, and the new label follows the labels left of b.
    #
    # Each chunk is every scheme grown from one tree with `level` leaves: its
    # skeleton's template, translated by a table made from its labels.  A
    # template writes the leaf at text position p as `width` marks,
    # _LABEL_MARKS[p * width:(p + 1) * width], one per digit of the widest
    # label it marks; a shorter label maps its leading marks to None.  So each
    # mark maps to one ASCII character or to none, and CPython translates on
    # its one-byte path.  The pool has marks for 112 // width positions; the
    # positions past them stay %s fields, filled by one % (only n >= 58).
    #
    # The template of an (n-1)-leaf skeleton is its 2n-3 children with the
    # literal n spliced in.  `level` is the smallest leaf count whose trees
    # have at most _LISTING_LIFT_SCHEMES schemes grown from them (15 chunks of
    # 693 at n=7; n >= 19 stays at n-1, so no lifted template has a %s field).
    # Below n-1 leaves a template is lifted: its children's templates joined,
    # each translated from the child's marks to the parent's (the positions
    # past the new leaf move down one, and the new leaf's marks become its
    # literal label), bottom up over an explicit stack.  Many trees share a
    # skeleton (at n=8, 10,395 trees with seven leaves share 132), so the memo
    # maps a skeleton to its template, or above `level` to its spans and child
    # skeletons, until the text it holds passes _LISTING_MEMO_CHARS and it is
    # dropped whole.  The walk is depth first, one frame per leaf count down
    # to `level`: a skeleton, its labels, the next span to grow at and its
    # memo value, which the frame keeps when the memo is dropped.
    width = len(str(n - 1))  # the widest label a template marks is n-1
    marked = len(_LABEL_MARKS) // width
    fields = tuple(_LABEL_MARKS[p * width : (p + 1) * width] for p in range(min(n - 1, marked)))
    fields += ("%s",) * (n - 1 - len(fields))
    marks = [ord(mark) for mark in _LABEL_MARKS[: marked * width]]
    digits = {str(v): (None,) * (width - len(str(v))) + tuple(str(v)) for v in range(1, n)}
    level, schemes = n - 1, 2 * n - 3
    while level > 1 and schemes * (2 * level - 3) <= _LISTING_LIFT_SCHEMES:
        level -= 1
        schemes *= 2 * level - 1

    def lifted(m: int, k: int) -> dict[int, Optional[int]]:
        """Child marks to parent marks, for leaf m+1 grown at position k of an m-leaf skeleton."""
        label = str(m + 1)
        cut = k * width + width - len(label)  # position k's marks from here spell the label
        return str.maketrans(
            _LABEL_MARKS[(k + 1) * width : (m + 1) * width] + _LABEL_MARKS[cut : (k + 1) * width],
            _LABEL_MARKS[k * width : m * width] + label,
            _LABEL_MARKS[k * width : cut],
        )

    lifts = [[lifted(m, k) for k in range(m + 1)] for m in range(level, n - 1)]
    memo: dict[str, Union[str, tuple]] = {}
    stored = 0

    def keep(skeleton: str, value: Union[str, tuple], size: int) -> Union[str, tuple]:
        nonlocal stored
        memo[skeleton] = value
        stored += len(skeleton) + size
        if stored > _LISTING_MEMO_CHARS:
            memo.clear()
            stored = 0
        return value

    def moved(skeleton: str, offset: int) -> int:
        """Where offset in skeleton falls once its %s fields are filled from fields."""
        return offset + (width - 2) * min(skeleton.count("%", 0, offset), marked)

    def template_of(skeleton: str, spans: list[tuple[int, int]]) -> str:
        # a frame is a skeleton, its spans, the table that lifts its template
        # into its parent's marks, and the lifted templates of its children so far
        stack = [(skeleton, spans, None, [])]
        while True:
            skeleton, spans, lift, parts = stack[-1]
            if len(spans) < 2 * n - 3 and len(parts) < len(spans):
                a, b = spans[len(parts)]
                child = f"{skeleton[:a]}[{skeleton[a:b]}, %s]{skeleton[b:]}"
                table = lifts[len(spans) // 2 + 1 - level][skeleton.count("%", 0, b)]
                template = memo.get(child)
                if template is None:
                    stack.append((child, _grown_spans(spans, len(parts), "%s"), table, []))
                else:
                    parts.append(template.translate(table))
                continue
            if parts:
                template = ", ".join(parts)
            else:
                # an (n-1)-leaf skeleton: its children are schemes, spliced into
                # its marked text at spans that move by each mark's extra width
                text = skeleton % fields
                if width != 2:
                    spans = [(moved(skeleton, a), moved(skeleton, b)) for a, b in spans]
                template = ", ".join([f"{text[:a]}[{text[a:b]}, {n}]{text[b:]}" for a, b in spans])
            keep(skeleton, template, len(template))
            stack.pop()
            if not stack:
                return template
            stack[-1][3].append(template.translate(lift))

    def value_of(skeleton: str, spans: list[tuple[int, int]]) -> Union[str, tuple]:
        if len(spans) == 2 * level - 1:
            return template_of(skeleton, spans)
        # the child skeletons are built as the walk first reaches each, and counted now
        size = len(spans) * (len(skeleton) + len("[, %s]"))
        return keep(skeleton, (spans, [None] * len(spans)), size)

    frames = [["%s", ("1",), 0, value_of("%s", [(0, 2)])]]
    separator = "["
    while frames:
        skeleton, labels, i, value = frame = frames[-1]
        if type(value) is str:
            table = dict(zip(marks, chain.from_iterable(map(digits.__getitem__, labels))))
            # one expression each, so no filled copy of a large template outlives its use
            if len(labels) > marked:
                yield separator + (value % (labels[marked:] * schemes)).translate(table)
            else:
                yield separator + value.translate(table)
            separator = ", "
            frames.pop()
            continue
        spans, kids = value
        if i == len(spans):
            frames.pop()
            continue
        frame[2] = i + 1
        kid = kids[i]
        if kid is None:
            a, b = spans[i]
            kid = kids[i] = (
                f"{skeleton[:a]}[{skeleton[a:b]}, %s]{skeleton[b:]}",
                skeleton.count("%", 0, b),
            )
        child, k = kid
        grown = memo.get(child)
        if grown is None:
            grown = value_of(child, _grown_spans(spans, i, "%s"))
        frames.append([child, labels[:k] + (str(len(labels) + 1),) + labels[k:], 0, grown])
    yield "]"


def coupling_tree(n: int, index: int, max_leaves: int = 10) -> CouplingTree:
    """enumerate_coupling_trees(n)[index], built alone.

    The enumeration order is a mixed-radix number: leaf k has 2k-3 insertion
    positions and the last leaf is the least significant digit.  Digit i puts
    leaf k above the tree's i-th node in pre-order, as _insertions does; the
    tree is held as its pre-order node list, so each leaf costs O(n) and no
    step recurses.
    """
    count = count_coupling_trees(n, max_leaves)
    if not 0 <= index < count:
        # the bound is named past 60 digits; past the int-to-str limit str() would raise
        last = str(count - 1) if count <= 10**60 else "(2n-3)!!-1, too many digits to print"
        raise DomainError(f"scheme index {short_str(index)} out of range 0..{last}")
    digits = []
    for leaf in range(n, 1, -1):
        index, digit = divmod(index, 2 * leaf - 3)
        digits.append(digit)
    order: list[Optional[int]] = [1]  # pre-order: a leaf label, or None for a pair
    for leaf, digit in zip(range(2, n + 1), reversed(digits)):
        end, open_nodes = digit, 1  # scan node digit's subtree to its end
        while open_nodes:
            open_nodes += 1 if order[end] is None else -1
            end += 1
        order.insert(end, leaf)  # the new pair's right child, after the subtree
        order.insert(digit, None)  # the new pair, in the subtree's place
    stack: list[TreeShape] = []
    for node in reversed(order):
        stack.append(node if node is not None else (stack.pop(), stack.pop()))
    (shape,) = stack
    return CouplingTree(shape)


def export_dot(tree: CouplingTree, j_labels: Sequence[str]) -> str:
    """Deterministic DOT digraph; one box per pairing vertex, labels j...m... per edge."""
    leaves = sorted(tree.leaves())
    if len(j_labels) != len(leaves):
        raise DomainError(f"expected {len(leaves)} labels, got {len(j_labels)}")
    for label in j_labels:
        # labels land inside DOT quoted strings, which these would end or escape
        if '"' in label or "\\" in label or "".join(label.splitlines()) != label:
            raise DomainError(
                f"label {short_repr(label)} may not contain a double quote, a backslash "
                "or a line break"
            )
    label_of = dict(zip(leaves, j_labels))
    boxes: list[str] = []
    edges: list[tuple[str, str, str]] = []

    def pair(left: tuple[str, str], right: tuple[str, str]) -> tuple[str, str]:
        # each subtree folds to (node id, concatenated leaf label); boxes number in post-order
        box = f"cg{len(boxes) + 1}"
        boxes.append(box)
        edges.extend([(left[0], box, left[1]), (right[0], box, right[1])])
        return box, left[1] + right[1]

    root_id, root_label = _fold(tree.shape, lambda leaf: (f"in{leaf}", label_of[leaf]), pair)
    edges.append((root_id, "out", root_label))
    lines = ["digraph coupling {", "    rankdir=LR;"]
    for leaf in leaves:
        lines.append(f'    in{leaf} [shape=point, label=""];')
    for box in boxes:
        lines.append(f'    {box} [shape=box, label=""];')
    lines.append('    out [shape=point, label=""];')
    for src, dst, label in edges:
        lines.append(f'    {src} -> {dst} [label="j{label}m{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
