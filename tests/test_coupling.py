import gc
import itertools
import json
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcouple import coupling
from jcouple.coupling import (
    CouplingChain,
    CouplingTree,
    count_coupling_trees,
    coupling_tree,
    coupling_trees_json,
    double_factorial,
    enumerate_chains,
    enumerate_coupling_trees,
    expand_coupled_state,
    export_dot,
    generalized_coupling_coefficient,
    jmax,
    jmin,
)
from jcouple.numerics import (
    DomainError,
    HalfInt,
    PhasedSurdSum,
    Surd,
    halfint_range,
    parse_halfint,
    projection_range,
)
from jcouple.wigner import CgArgs, _ladder, _totals, cg

from oracles import brute_force_totals

H = parse_halfint


def _chain(js, intermediates, total):
    return CouplingChain(
        tuple(H(j) for j in js), tuple(H(i) for i in intermediates), H(total)
    )


def _js_tuples(n, tmax):
    values = [HalfInt(t) for t in range(tmax + 1)]
    return itertools.product(values, repeat=n)


class TestJminJmax:
    def test_two_halves(self):
        assert jmax([H("1/2"), H("1/2")]) == H("1")
        assert jmin([H("1/2"), H("1/2")]) == H("0")

    def test_sum(self):
        assert jmax([H("1"), H("2"), H("3")]) == H("6")

    def test_recursion_with_gap(self):
        assert jmin([H("1"), H("2"), H("4")]) == H("1")

    def test_three_halves(self):
        assert jmax([H("1/2"), H("1/2"), H("1/2")]) == H("3/2")
        assert jmin([H("1/2"), H("1/2"), H("1/2")]) == H("1/2")

    def test_too_few_rejected(self):
        with pytest.raises(DomainError):
            jmin([H("1")])
        with pytest.raises(DomainError):
            jmax([])

    def test_matches_brute_force(self):
        for n in (2, 3, 4):
            for js in _js_tuples(n, 3):
                totals = brute_force_totals(js)
                assert jmin(js).twice == min(totals)
                assert jmax(js).twice == max(totals)


class TestTotals:
    """The closed-form ladder of n momenta against every chain's total, not just its ends."""

    def test_matches_every_chain_total(self):
        for n in range(1, 7):
            for tjs in itertools.product(range(5), repeat=n):
                reached = sorted({p[-1] for p in coupling._chain_partials(tjs)})
                assert list(_totals(tjs)) == reached, tjs

    def test_two_momenta_is_the_ladder(self):
        for a in range(41):
            for b in range(41):
                assert _totals((a, b)) == _ladder(a, b)


class TestEnumerateChains:
    def test_three_halves(self):
        chains = enumerate_chains([H("1/2")] * 3)
        listed = {(c.intermediates, c.total_j) for c in chains}
        assert listed == {
            ((H("0"),), H("1/2")),
            ((H("1"),), H("1/2")),
            ((H("1"),), H("3/2")),
        }

    def test_pair_matches_allowed_j(self):
        chains = enumerate_chains([H("1"), H("3/2")])
        assert [c.total_j for c in chains] == [H("1/2"), H("3/2"), H("5/2")]
        assert all(c.intermediates == () for c in chains)

    def test_total_filter(self):
        chains = enumerate_chains([H("1/2")] * 3, total_j=H("3/2"))
        assert len(chains) == 1
        assert chains[0].intermediates == (H("1"),)

    def test_unreachable_total_is_empty(self):
        assert enumerate_chains([H("1/2"), H("1/2")], total_j=H("5")) == []

    def test_totals_cover_unit_ladder(self):
        for n in (2, 3, 4):
            for js in _js_tuples(n, 3):
                totals = {c.total_j.twice for c in enumerate_chains(js)}
                lo, hi = jmin(js).twice, jmax(js).twice
                assert totals == set(range(lo, hi + 1, 2))

    def test_invalid_chain_rejected(self):
        with pytest.raises(DomainError):
            _chain(["1/2", "1/2"], [], "2")
        with pytest.raises(DomainError):
            _chain(["1/2", "1/2", "1/2"], ["1/2"], "1/2")

    def test_single_momentum_chain(self):
        chain = _chain(["1/2"], [], "1/2")
        assert chain.partial_totals() == (H("1/2"),)
        with pytest.raises(DomainError):
            _chain(["1/2"], [], "3/2")


def _reference_chains(js):
    """Chain enumeration as a prefix walk over allowed totals lists of HalfInt values."""

    def allowed(a, b):
        return list(halfint_range(abs(a - b), a + b))

    prefixes = [((), j12) for j12 in allowed(js[0], js[1])]
    for j in js[2:]:
        prefixes = [(inter + (p,), nxt) for inter, p in prefixes for nxt in allowed(p, j)]
    return [CouplingChain(tuple(js), inter, p) for inter, p in prefixes]


class TestEnumerationReference:
    """enumerate_chains walks the ladder on twice integers; the reference walks HalfInt lists.

    Every js with 2 <= n <= 5 and 2j <= 3, unfiltered and filtered by every
    total from 0 to one step past jmax; the lists match chain for chain, in
    order.
    """

    def test_matches_the_prefix_walk(self):
        compared = 0
        for n in (2, 3, 4, 5):
            for js in _js_tuples(n, 3):
                expected = _reference_chains(js)
                assert enumerate_chains(js) == expected
                for t in range(sum(j.twice for j in js) + 2):
                    total = HalfInt(t)
                    assert enumerate_chains(js, total) == [
                        c for c in expected if c.total_j == total
                    ]
                compared += len(expected)
        assert compared > 10_000


class TestOffLadderRefusal:
    """A partial total off the ladder of its two momenta is refused with the same text."""

    @pytest.mark.parametrize(
        "js, intermediates, total, message",
        [
            (["1", "1"], [], "3", "3 not an allowed coupling of 1 and 1"),
            (["1", "1"], [], "1/2", "1/2 not an allowed coupling of 1 and 1"),
            (["2", "1/2"], [], "1/2", "1/2 not an allowed coupling of 2 and 1/2"),
            (["2", "1/2", "1"], ["5/2"], "9/2", "9/2 not an allowed coupling of 5/2 and 1"),
            (["1", "1", "1"], ["-1"], "1", "-1 not an allowed coupling of 1 and 1"),
        ],
        ids=["above", "parity", "below", "last-step", "negative-intermediate"],
    )
    def test_refusal_text(self, js, intermediates, total, message):
        with pytest.raises(DomainError) as info:
            _chain(js, intermediates, total)
        assert str(info.value) == message

    def test_echo_is_cut(self):
        digits = "7" * 4000
        with pytest.raises(DomainError) as info:
            _chain(["1", "1", "1"], [digits], "1")
        echo = f"{'7' * 60}... (4000 characters)"
        assert str(info.value) == f"{echo} not an allowed coupling of 1 and 1"


class TestChainPartsAreHalfInt:
    """An intermediate or a total that is not a HalfInt is refused by its type, in one line.

    Each raised an AttributeError on .twice before.  The check is by type
    only, so a negative intermediate keeps the coupling text above.
    """

    @pytest.mark.parametrize(
        "intermediates, total, message",
        [
            ((), 2, "total_j must be a HalfInt, got 2"),
            ((), 1.0, "total_j must be a HalfInt, got 1.0"),
            ((H("1"), 2), H("1"), "intermediate must be a HalfInt, got 2"),
            ((H("1"), "1"), H("1"), "intermediate must be a HalfInt, got '1'"),
        ],
        ids=["int-total", "float-total", "int-intermediate", "str-intermediate"],
    )
    def test_refusal_text(self, intermediates, total, message):
        js = (H("1"),) * (len(intermediates) + 2)
        with pytest.raises(DomainError) as info:
            CouplingChain(js, intermediates, total)
        assert str(info.value) == message

    def test_single_momentum_chain(self):
        with pytest.raises(DomainError) as info:
            CouplingChain((H("1"),), (), 1)
        assert str(info.value) == "total_j must be a HalfInt, got 1"


class TestGeneralizedCoefficient:
    def test_single_factor(self):
        value = generalized_coupling_coefficient(
            _chain(["1/2", "1/2"], [], "0"), (H("1/2"), H("-1/2")), H("0")
        )
        assert value == Surd(1, Fraction(1, 2))

    def test_stretched_product(self):
        value = generalized_coupling_coefficient(
            _chain(["1/2", "1/2", "1/2"], ["1"], "3/2"),
            (H("1/2"), H("1/2"), H("1/2")),
            H("3/2"),
        )
        assert value == Surd.one()

    def test_projection_sum_mismatch_is_zero(self):
        value = generalized_coupling_coefficient(
            _chain(["1/2", "1/2"], [], "1"), (H("1/2"), H("1/2")), H("0")
        )
        assert value.is_zero

    def test_out_of_range_projection_rejected(self):
        with pytest.raises(DomainError):
            generalized_coupling_coefficient(
                _chain(["1/2", "1/2"], [], "1"), (H("3/2"), H("-1/2")), H("1")
            )

    def test_matches_expansion_amplitudes(self):
        for js in _js_tuples(3, 2):
            for chain in enumerate_chains(js):
                for m in projection_range(chain.total_j):
                    expansion = expand_coupled_state(chain, m)
                    for ms, amp in expansion.amplitudes.items():
                        assert generalized_coupling_coefficient(chain, ms, m) == amp


def _chain_reference(chain, ms, total_m):
    """The chain product as one checked cg(CgArgs(...)) per step, on HalfInt and Surd values."""
    if sum(m.twice for m in ms) != total_m.twice:
        return Surd.zero()
    partials = chain.partial_totals()
    value = Surd.one()
    m_run = ms[0]
    for k in range(1, chain.n):
        m_next = m_run + ms[k]
        if abs(m_next.twice) > partials[k].twice:
            return Surd.zero()
        value = value * cg(CgArgs(partials[k - 1], m_run, chain.js[k], ms[k], partials[k], m_next))
        m_run = m_next
    return value


class TestChainProductReference:
    """The integer chain product against the per-step reference, exactly.

    Every chain with n <= 4 and every j <= 1, every total m, and every
    projection tuple, the zeros and the sum mismatches included.
    """

    def _chains(self):
        for n in (1, 2, 3, 4):
            for js in _js_tuples(n, 2):
                yield from [CouplingChain(js, (), js[0])] if n == 1 else enumerate_chains(js)

    def test_coefficient_and_expansion_match(self):
        evaluated = nonzero = 0
        for chain in self._chains():
            tuples = list(itertools.product(*(list(projection_range(j)) for j in chain.js)))
            for m in projection_range(chain.total_j):
                expected = {}
                for ms in tuples:
                    reference = _chain_reference(chain, ms, m)
                    assert generalized_coupling_coefficient(chain, ms, m) == reference
                    evaluated += 1
                    if not reference.is_zero:
                        expected[ms] = reference
                amplitudes = expand_coupled_state(chain, m).amplitudes
                assert amplitudes == expected
                assert list(amplitudes) == list(expected)  # product order
                nonzero += len(expected)
        assert evaluated == 41370 and 0 < nonzero < evaluated

    @pytest.mark.parametrize(
        "ms, message",
        [
            (("1/2",), "expected 2 projections, got 1"),
            (("1/2", "1/2", "1/2"), "expected 2 projections, got 3"),
            (("3/2", "-1/2"), "(j_k, m_k): |m|=3/2 exceeds j=1/2"),
            (("1/2", "-3/2"), "(j_k, m_k): |m|=3/2 exceeds j=1"),
            (("0", "1/2"), "(j_k, m_k): m=0 not reachable from -j=-1/2 in unit steps"),
            (("1/2", "1/2"), "(j_k, m_k): m=1/2 not reachable from -j=-1 in unit steps"),
        ],
    )
    def test_boundary_messages(self, ms, message):
        chain = _chain(["1/2", "1"], [], "3/2")
        with pytest.raises(DomainError) as info:
            generalized_coupling_coefficient(chain, tuple(H(m) for m in ms), H("1/2"))
        assert str(info.value) == message


def _product_then_filter(chain, total_m):
    """The expansion as a loop over every projection tuple, filtered by its sum."""
    tjs, partials = coupling._twices(chain)
    amplitudes = {}
    for tms in itertools.product(*(range(-t, t + 1, 2) for t in tjs)):
        if sum(tms) != total_m.twice:
            continue
        value = coupling._chain_signed_square(tjs, partials, tms)
        if value:
            amplitudes[tuple(map(HalfInt, tms))] = Surd.from_signed_square(value)
    return amplitudes


@st.composite
def _random_chains(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    twices = st.integers(min_value=0, max_value=4)
    js = draw(st.lists(twices.map(HalfInt), min_size=n, max_size=n))
    return draw(st.sampled_from(enumerate_chains(js)))


def _minimal_calls(kernel, tjs, partials, ttotal):
    """Kernel arguments of a walk that evaluates each (step, prefix) once and nothing else.

    The prefixes are those of the tuples that sum to ttotal, cut at the first
    step past its partial total and below the first zero factor.
    """
    expected, seen = Counter(), set()
    for tms in itertools.product(*(range(-t, t + 1, 2) for t in tjs)):
        if sum(tms) != ttotal:
            continue
        value, t_run = Fraction(1), tms[0]
        for k in range(1, len(tjs)):
            t_next = t_run + tms[k]
            if abs(t_next) > partials[k]:
                break
            args = (partials[k - 1], t_run, tjs[k], tms[k], partials[k], t_next)
            if tms[: k + 1] not in seen:
                seen.add(tms[: k + 1])
                expected[args] += 1
            value *= kernel(*args)
            if not value:
                break
            t_run = t_next
    return expected


class TestPrunedWalk:
    """The expansion's walk: its output against the loop it replaced, and its kernel calls.

    The calls show the pruning and the prefix sharing, which equal output
    cannot: a walk without them returns the same amplitudes.
    """

    @settings(max_examples=100, deadline=None)
    @given(_random_chains())
    def test_matches_product_then_filter(self, chain):
        for m in projection_range(chain.total_j):
            amplitudes = expand_coupled_state(chain, m).amplitudes
            expected = _product_then_filter(chain, m)
            assert amplitudes == expected
            assert list(amplitudes) == list(expected)  # product order

    def test_kernel_calls_are_pruned_and_shared(self, monkeypatch):
        kernel = coupling._cg_signed_square
        calls = []

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(coupling, "_cg_signed_square", counting)
        total_calls = 0
        for chain in TestChainProductReference()._chains():
            tjs, partials = coupling._twices(chain)
            rest = [sum(tjs[k + 1 :]) for k in range(chain.n)]
            for m in projection_range(chain.total_j):
                calls.clear()
                expand_coupled_state(chain, m)
                for a, t_run, b, tm, c, t_next in calls:
                    assert abs(t_next) <= c  # within its partial total
                    steps = [
                        k
                        for k in range(1, chain.n)
                        if (partials[k - 1], tjs[k], partials[k]) == (a, b, c)
                    ]
                    assert any(abs(m.twice - t_next) <= rest[k] for k in steps)  # can reach m
                # exactly one call per (step, prefix) that a reachable tuple passes through
                assert Counter(calls) == _minimal_calls(kernel, tjs, partials, m.twice)
                total_calls += len(calls)
        assert total_calls > 0


def _walk_by_total(tjs, partials):
    """{twice total m: [(twice ms, signed square) of each nonzero chain product]}.

    Each list is in product order.
    """
    by_total = {}
    for tms in itertools.product(*(range(-t, t + 1, 2) for t in tjs)):
        value = coupling._chain_signed_square(tjs, partials, tms)
        if value:
            by_total.setdefault(sum(tms), []).append((tms, value))
    return by_total


class TestWalkAgainstBruteForce:
    """The depth-first walk against every projection tuple, on twice integers.

    Every total is tried, from past -(sum of js) to past +(sum of js) in
    unit steps, so the totals that no tuple reaches (out of range, or of the
    wrong parity) must yield nothing.
    """

    def _check(self, tjs, partials, ttotal, by_total):
        walked = list(coupling._amplitudes(tjs, partials, ttotal))
        assert walked == by_total.get(ttotal, [])
        return len(walked)

    def test_every_small_chain(self):
        kept = 0
        for chain in TestChainProductReference()._chains():  # n <= 4, every j <= 1
            tjs, partials = coupling._twices(chain)
            by_total = _walk_by_total(tjs, partials)
            top = sum(tjs)
            for ttotal in range(-top - 3, top + 4):
                kept += self._check(tjs, partials, ttotal, by_total)
        assert kept > 0

    def test_seeded_random_chains(self):
        rng = random.Random(20071019)
        for _ in range(300):
            n = rng.randint(1, 5)
            js = tuple(HalfInt(rng.randint(0, 5)) for _ in range(n))
            chain = CouplingChain(js, (), js[0]) if n == 1 else rng.choice(enumerate_chains(js))
            tjs, partials = coupling._twices(chain)
            top = sum(tjs)
            ttotal = rng.randint(-top - 2, top + 2)
            self._check(tjs, partials, ttotal, _walk_by_total(tjs, partials))

    def test_total_is_checked_before_the_walk_starts(self):
        with pytest.raises(DomainError, match="total"):
            coupling._state_amplitudes(_chain(["1/2", "1/2"], [], "1"), H("3/2"))


class TestExpansion:
    def test_triplet_zero(self):
        expansion = expand_coupled_state(_chain(["1/2", "1/2"], [], "1"), H("0"))
        root_half = Surd(1, Fraction(1, 2))
        assert expansion.amplitudes == {
            (H("1/2"), H("-1/2")): root_half,
            (H("-1/2"), H("1/2")): root_half,
        }

    def test_stretched(self):
        expansion = expand_coupled_state(_chain(["1/2", "1/2"], [], "1"), H("1"))
        assert expansion.amplitudes == {(H("1/2"), H("1/2")): Surd.one()}

    def test_out_of_range_projection_rejected(self):
        with pytest.raises(DomainError):
            expand_coupled_state(_chain(["1/2", "1/2"], [], "1"), H("2"))
        with pytest.raises(DomainError):
            expand_coupled_state(_chain(["1/2", "1/2"], [], "1"), H("1/2"))

    def test_normalization(self):
        for js in _js_tuples(3, 2):
            for chain in enumerate_chains(js):
                for m in projection_range(chain.total_j):
                    assert expand_coupled_state(chain, m).norm_square() == 1

    def test_orthonormal_family(self):
        for js in ([H("1/2"), H("1/2")], [H("1/2"), H("1")], [H("1/2")] * 3):
            states = [
                (chain, m)
                for chain in enumerate_chains(js)
                for m in projection_range(chain.total_j)
            ]
            expansions = {key: expand_coupled_state(*key) for key in states}
            for a, b in itertools.combinations_with_replacement(states, 2):
                acc = PhasedSurdSum.zero()
                ea, eb = expansions[a], expansions[b]
                for ms, amp in ea.amplitudes.items():
                    other = eb.amplitudes.get(ms)
                    if other is not None:
                        acc = acc + (amp * other).to_sum()
                if a == b:
                    assert acc == PhasedSurdSum({1: Fraction(1)})
                else:
                    assert acc.is_zero


class TestCouplingTrees:
    def test_counts(self):
        assert len(enumerate_coupling_trees(2)) == 1
        assert len(enumerate_coupling_trees(3)) == 3
        assert len(enumerate_coupling_trees(4)) == 15

    def test_counts_match_double_factorial(self):
        for n in range(2, 8):
            trees = enumerate_coupling_trees(n)
            assert len(trees) == double_factorial(2 * n - 3)
            assert len({t.shape for t in trees}) == len(trees)

    def test_sequential_first(self):
        assert enumerate_coupling_trees(4)[0].shape == (((1, 2), 3), 4)

    def test_unordered_children(self):
        assert CouplingTree.from_nested([3, [2, 1]]) == CouplingTree.from_nested(
            [[1, 2], 3]
        )

    def test_guard(self):
        with pytest.raises(DomainError):
            enumerate_coupling_trees(11)
        with pytest.raises(DomainError):
            enumerate_coupling_trees(1)
        with pytest.raises(DomainError):
            enumerate_coupling_trees(5, max_leaves=4)

    def test_bad_labels_rejected(self):
        with pytest.raises(DomainError):
            CouplingTree.from_nested([[1, 2], 4])


class TestTreeIdentity:
    """==, hash and repr of CouplingTree, from the shape's tuple text rendered by one fold.

    The dataclass versions compared and printed the nested tuple, which
    CPython does recursively, so both raised RecursionError on a 1200-leaf
    chain.
    """

    def test_repr_is_the_dataclass_repr(self):
        for n in range(2, 7):
            for tree in enumerate_coupling_trees(n):
                assert repr(tree) == f"CouplingTree(shape={tree.shape!r})"

    def test_equality_agrees_with_tuple_equality(self):
        trees = enumerate_coupling_trees(5)
        decoded = [coupling_tree(5, k) for k in range(len(trees))]  # equal, distinct objects
        for a in trees:
            for b in decoded:
                assert (a == b) is (a.shape == b.shape)
                assert (a != b) is (a.shape != b.shape)
                if a == b:
                    assert hash(a) == hash(b)
        assert trees[0] != trees[0].shape

    def test_twelve_hundred_leaves(self):
        n = 1200
        chain = coupling_tree(n, 0, max_leaves=n)
        assert chain == coupling_tree(n, 0, max_leaves=n)
        assert hash(chain) == hash(coupling_tree(n, 0, max_leaves=n))
        assert chain != coupling_tree(n, 1, max_leaves=n)
        text = "(" * (n - 1) + "1, 2)" + "".join(f", {leaf})" for leaf in range(3, n + 1))
        assert repr(chain) == f"CouplingTree(shape={text})"


def _shuffled(nested, rng):
    """nested with each pair's children swapped at random, each pair a list or a tuple."""
    if isinstance(nested, int):
        return nested
    left, right = _shuffled(nested[0], rng), _shuffled(nested[1], rng)
    if rng.random() < 0.5:
        left, right = right, left
    return rng.choice([list, tuple])([left, right])


@st.composite
def _indexed_schemes(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    return n, draw(st.integers(min_value=0, max_value=count_coupling_trees(n) - 1))


class TestNestedRoundTrip:
    """from_nested orders each pair by smallest leaf, on trees of any depth.

    to_nested, from_nested and the ordering each recursed once per tree
    level, so a 1200-leaf scheme could not be written out and read back; the
    ordering also took the smallest leaf of every subtree afresh, O(n^2) on a
    chain.
    """

    @settings(max_examples=100, deadline=None)
    @given(_indexed_schemes(), st.randoms(use_true_random=False))
    def test_shuffled_children_give_back_the_scheme(self, scheme, rng):
        tree = coupling_tree(*scheme)
        assert CouplingTree.from_nested(_shuffled(tree.to_nested(), rng)) == tree

    @pytest.mark.parametrize("last", [False, True], ids=["first", "last"])
    def test_twelve_hundred_leaves(self, last):
        n = 1200
        tree = coupling_tree(n, count_coupling_trees(n, max_leaves=n) - 1 if last else 0, n)
        labels = [str(leaf) for leaf in range(1, n + 1)]
        back = CouplingTree.from_nested(tree.to_nested())
        assert back == tree
        assert export_dot(back, labels) == export_dot(tree, labels)

    def test_long_chain_is_read_in_linear_time(self):
        nested = 1
        for leaf in range(2, 20_001):
            nested = [nested, leaf]
        start = time.perf_counter()
        tree = CouplingTree.from_nested(nested)
        assert time.perf_counter() - start < 2.0
        assert tree.n == 20_000

    def test_malformed_node_is_echoed_short(self):
        with pytest.raises(DomainError, match=r"pairs, got \[1, 2, 3\]$"):
            CouplingTree.from_nested([[1, [1, 2, 3]], 2])
        with pytest.raises(DomainError) as info:
            CouplingTree.from_nested([1, "x" * 100_000])
        assert len(str(info.value)) < 200
        with pytest.raises(DomainError) as info:
            CouplingTree.from_nested([1, list(range(3, 100_000))[::-1]])
        assert len(str(info.value)) < 200


# reads a cyclic nested list as a tree under a 256 MB address-space cap, so a
# walk that never ends stops with this child's MemoryError, not the test run's
CYCLIC_CHILD = """
import resource
from jcouple.coupling import CouplingTree
from jcouple.numerics import DomainError
resource.setrlimit(resource.RLIMIT_AS, (256 << 20, resource.getrlimit(resource.RLIMIT_AS)[1]))
a = [1]
a.append(a)
try:
    CouplingTree.from_nested(a)
except DomainError as exc:
    print(exc)
"""


class TestRepeatedNode:
    """A pair object met twice in one walk is refused with a short echo.

    A tree's leaves are distinct, so none of its pairs is one object twice;
    a list that contains itself would otherwise be walked until memory ran out.
    """

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="caps RLIMIT_AS")
    def test_cyclic_list_is_refused(self):
        run = subprocess.run(
            [sys.executable, "-c", CYCLIC_CHILD], capture_output=True, text=True, timeout=60
        )
        assert run.returncode == 0, run.stderr[-300:]
        assert run.stdout == "tree nodes must not repeat, got [1, [...]] twice\n"

    def test_shared_pair_is_refused(self):
        pair = [1, 2]
        with pytest.raises(DomainError, match=r"^tree nodes must not repeat, got \[1, 2\] twice$"):
            CouplingTree.from_nested([pair, pair])

    def test_deep_shared_pair_is_echoed_without_recursion(self):
        deep = [1, 2]
        for leaf in range(3, 1300):
            deep = [deep, leaf]
        with pytest.raises(DomainError, match=r"got <list nested too deeply to print> twice$"):
            CouplingTree.from_nested([deep, deep])
        # the malformed-node echo went through the same repr (a RecursionError before)
        with pytest.raises(DomainError, match=r"pairs, got <list nested too deeply to print>$"):
            CouplingTree.from_nested([1, [deep, 3, 4]])

    def test_equal_but_distinct_pairs_keep_the_label_message(self):
        # two list objects with the same items: only the labels are wrong
        message = r"^leaves must be labeled 1\.\.n, got \[1, 1, 2, 2\]$"
        with pytest.raises(DomainError, match=message):
            CouplingTree.from_nested([[1, 2], [1, 2]])


class TestCouplingTreeIndex:
    def test_decodes_every_index(self):
        for n in range(2, 8):
            trees = enumerate_coupling_trees(n)
            assert [coupling_tree(n, k) for k in range(len(trees))] == trees

    def test_decodes_strided_indices_n8(self):
        trees = enumerate_coupling_trees(8)
        assert count_coupling_trees(8) == len(trees)
        for k in [*range(0, len(trees), 997), len(trees) - 1]:
            assert coupling_tree(8, k) == trees[k]

    def test_count_matches_enumeration(self):
        for n in range(2, 8):
            assert count_coupling_trees(n) == len(enumerate_coupling_trees(n))

    def test_guard(self):
        for bad in (
            lambda: coupling_tree(1, 0),
            lambda: coupling_tree(11, 0),
            lambda: coupling_tree(5, 0, max_leaves=4),
            lambda: count_coupling_trees(1),
            lambda: count_coupling_trees(11),
            lambda: count_coupling_trees(5, max_leaves=4),
            # the listing checks the guard when called, before its first chunk
            lambda: coupling_trees_json(1),
            lambda: coupling_trees_json(11),
            lambda: coupling_trees_json(5, max_leaves=4),
        ):
            with pytest.raises(DomainError, match="at least two momenta|enumeration guard"):
                bad()

    def test_index_out_of_range(self):
        for n, k in ((2, 1), (3, -1), (3, 3), (8, 135135)):
            with pytest.raises(DomainError, match=f"scheme index {k} out of range"):
                coupling_tree(n, k)


class TestCouplingTreesJson:
    def test_matches_json_of_enumeration(self):
        for n in range(2, 9):
            expected = json.dumps([t.shape for t in enumerate_coupling_trees(n)])
            assert "".join(coupling_trees_json(n)) == expected


def _reference_spans(spans, i, leaf):
    """Node spans of the text after leaf is spliced in above node i."""
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


def _reference_listing(n):
    """The listing as text spliced at node spans, one f-string per tree.

    A tree is its JSON text plus the (start, end) span of every node in
    pre-order; its children are "[" + text[a:b] + ", leaf]" spliced in at each
    span.  Each chunk is the children of one tree with n-1 leaves.
    """
    frames = [["1", [(0, 1)], 0]]
    separator = "["
    while frames:
        text, spans, i = frame = frames[-1]
        leaf = len(frames) + 1
        if leaf == n:
            chunk = ", ".join([f"{text[:a]}[{text[a:b]}, {leaf}]{text[b:]}" for a, b in spans])
            yield separator + chunk
            separator = ", "
        if leaf == n or i == len(spans):
            frames.pop()
        else:
            frame[2] = i + 1
            a, b = spans[i]
            grown = f"{text[:a]}[{text[a:b]}, {leaf}]{text[b:]}"
            frames.append([grown, _reference_spans(spans, i, leaf), 0])
    yield "]"


def _text_difference(new_chunks, old_chunks, size=None):
    """Offset where the texts of two chunk streams first differ, or None if they agree.

    Only the first size characters are compared when size is given.  The
    chunks may split the text anywhere; a stream that ends early differs
    where it ends.
    """
    streams = [iter(new_chunks), iter(old_chunks)]
    held = ["", ""]  # text read from each stream and not yet compared
    offset = 0
    while size is None or offset < size:
        held = [text or next(stream, "") for text, stream in zip(held, streams)]
        if held == ["", ""]:
            return None
        step = min(map(len, held))
        if size is not None:
            step = min(step, size - offset)
        new, old = held[0][:step], held[1][:step]
        if step == 0 or new != old:
            return offset + next((i for i, (a, b) in enumerate(zip(new, old)) if a != b), step)
        held = [text[step:] for text in held]
        offset += step
    return None


# streams the n=60 listing until it has written LISTED characters (0: none),
# then prints the child's own peak RSS in KiB (Linux)
LISTING_HWM_CHILD = """
import sys
from jcouple.coupling import coupling_trees_json
listed, budget = 0, int(sys.argv[1])
if budget:
    for chunk in coupling_trees_json(60, max_leaves=60):
        listed += len(chunk)
        if listed >= budget:
            break
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


class TestListingReference:
    """The translated-template listing against the span-splicing walk, compared as text.

    Chunk boundaries are the listing's own choice, so the joined texts are
    compared: every listing for n <= 9, and for larger n as many characters
    as the first 200 reference chunks hold.  The larger n sit on both sides
    of each edge of the template design: label marks one digit wide, then
    two (10/11); the last n with lifted templates, then none (18/19); the
    last n whose labels all have marks, then %s fields past the mark pool
    (57/58, and 60); marks two digits wide, then three (100/101).
    """

    def test_matches_reference(self):
        for n in range(2, 10):
            assert _text_difference(coupling._listing_chunks(n), _reference_listing(n)) is None, n

    @pytest.mark.parametrize("n", [10, 11, 12, 18, 19, 57, 58, 60, 100, 101])
    def test_two_digit_labels_match_reference(self, n):
        size = sum(map(len, itertools.islice(_reference_listing(n), 200)))
        new = coupling_trees_json(n, max_leaves=n)
        assert _text_difference(new, _reference_listing(n), size) is None

    def test_difference_is_found_across_chunk_boundaries(self):
        assert _text_difference(["[1, ", "2]"], ["[1", ", 2]"]) is None
        assert _text_difference(["[1, ", "3]"], ["[1", ", 2]"]) == 4
        assert _text_difference(["[1, 2]"], ["[1, 2]", ", "]) == 6
        assert _text_difference(["[1, 3]"], ["[1, 2]", ", "], size=4) is None

    def test_listing_leaves_nothing_for_the_cycle_collector(self):
        # a template builder that called itself as a closure put each call's
        # memo in a reference cycle: about 186 KB a call waited for the collector
        list(coupling_trees_json(7))
        enabled, tracing = gc.isenabled(), tracemalloc.is_tracing()
        gc.disable()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                for _chunk in coupling_trees_json(7):
                    pass
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
            if enabled:
                gc.enable()
        assert grown < 64 * 1024

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_memo_stays_within_its_budget(self):
        # with no budget the memo peaked about 54 MB above the import floor
        # (Python 3.11, x86-64), since the first 100 MB reuse most skeletons
        # (+2 MB) and 300 MB read +18 MB; with it the listing stays about 2 MB
        # above the floor, as the span-splicing walk did
        def peak_kib(listed):
            run = subprocess.run(
                [sys.executable, "-c", LISTING_HWM_CHILD, str(listed)],
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert run.returncode == 0, run.stderr[-300:]
            return int(run.stdout)

        assert peak_kib(400_000_000) - peak_kib(0) < 16 * 1024


class TestExportDot:
    def test_pair_diagram(self):
        text = export_dot(enumerate_coupling_trees(2)[0], ["1", "2"])
        edges = [line for line in text.splitlines() if "->" in line]
        assert len(edges) == 3
        assert 'in1 -> cg1 [label="j1m1"]' in text
        assert 'in2 -> cg1 [label="j2m2"]' in text
        assert 'cg1 -> out [label="j12m12"]' in text

    def test_sequential_triple(self):
        text = export_dot(enumerate_coupling_trees(3)[0], ["1", "2", "3"])
        edges = [line for line in text.splitlines() if "->" in line]
        boxes = [line for line in text.splitlines() if "shape=box" in line]
        assert len(edges) == 5
        assert len(boxes) == 2
        assert 'cg2 -> out [label="j123m123"]' in text

    def test_deterministic(self):
        tree = enumerate_coupling_trees(4)[7]
        labels = ["a", "b", "c", "d"]
        assert export_dot(tree, labels) == export_dot(tree, labels)

    def test_label_count_mismatch(self):
        with pytest.raises(DomainError):
            export_dot(enumerate_coupling_trees(3)[0], ["1", "2"])
