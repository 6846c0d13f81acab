import itertools
from collections import Counter
from fractions import Fraction

import pytest

from jcouple import coupling, timerev
from jcouple.cli import main
from jcouple.coupling import (
    CouplingChain,
    StateExpansion,
    enumerate_chains,
    expand_coupled_state,
    generalized_coupling_coefficient,
)
from jcouple.numerics import (
    DomainError,
    GaussianRational,
    HalfInt,
    PhasedSurdSum,
    Surd,
    parse_halfint,
    projection_range,
)
from jcouple.timerev import (
    apply_time_reversal,
    audit_first_symmetry,
    audit_second_symmetry,
    check_compatibility,
    coupled_univalence,
    first_symmetry_audits,
    kramers_overlap,
    overlap_audits,
    t_squared_sign,
)

H = parse_halfint

I_UNIT = GaussianRational(Fraction(0), Fraction(1))


def _chain(js, intermediates, total):
    return CouplingChain(
        tuple(H(j) for j in js), tuple(H(i) for i in intermediates), H(total)
    )


def _js_tuples(n, tmax):
    values = [HalfInt(t) for t in range(tmax + 1)]
    return itertools.product(values, repeat=n)


def _t_power(m):
    """k in T|j,m> = i^k |j,-m>, read off the single-momentum chain with j = |m|."""
    j = abs(m)
    k, _ = apply_time_reversal(expand_coupled_state(CouplingChain((j,), (), j), m))
    return k


class TestPhases:
    def test_zero_projection(self):
        assert _t_power(H("0")) == 0

    def test_half_projection_gives_i(self):
        assert _t_power(H("1/2")) == 1
        chain = _chain(["1/2"], [], "1/2")
        reversed_state = apply_time_reversal(expand_coupled_state(chain, H("1/2")))
        assert reversed_state == (1, {(H("-1/2"),): Surd.one()})

    def test_minus_one_projection(self):
        assert _t_power(H("-1")) == 2

    def test_square_is_univalence_of_projection(self):
        for twice in range(-8, 9):
            k = _t_power(HalfInt(twice))
            expected = 0 if twice % 2 == 0 else 2
            assert (k + k) % 4 == expected

    def test_fourth_power_is_one(self):
        for twice in range(-8, 9):
            k = _t_power(HalfInt(twice))
            assert 0 <= k < 4
            assert (4 * k) % 4 == 0


class TestUnivalence:
    def test_t_squared_sign(self):
        assert t_squared_sign(H("1")) == 1
        assert t_squared_sign(H("1/2")) == -1
        assert t_squared_sign(H("0")) == 1

    def test_coupled_examples(self):
        assert coupled_univalence([H("1/2"), H("1/2")]) == 1
        assert coupled_univalence([H("1/2"), H("1")]) == -1
        assert coupled_univalence([]) == 1

    def test_matches_total_univalence_exhaustively(self):
        for n in (2, 3, 4):
            for js in _js_tuples(n, 3):
                for chain in enumerate_chains(js):
                    assert coupled_univalence(js) == t_squared_sign(chain.total_j)


class TestCompatibility:
    def test_examples(self):
        assert check_compatibility([H("1/2"), H("1/2")], H("1"))
        assert check_compatibility([H("1/2"), H("1")], H("3/2"))

    def test_inadmissible_total_rejected(self):
        with pytest.raises(DomainError):
            check_compatibility([H("1/2"), H("1")], H("1"))

    @pytest.mark.parametrize("js", [[], [H("1")]], ids=["none", "one"])
    def test_fewer_than_two_momenta_refused_in_its_own_words(self, js):
        with pytest.raises(DomainError) as info:
            check_compatibility(js, H("1"))
        assert str(info.value) == "compatibility needs at least two momenta"

    def test_holds_exhaustively(self):
        from jcouple.coupling import jmax, jmin
        from jcouple.numerics import halfint_range

        for n in (2, 3, 4):
            for js in _js_tuples(n, 3):
                for j in halfint_range(jmin(js), jmax(js)):
                    assert check_compatibility(js, j)


class TestApplyTimeReversal:
    def test_stretched_pair(self):
        k, amplitudes = apply_time_reversal(
            expand_coupled_state(_chain(["1/2", "1/2"], [], "1"), H("1"))
        )
        assert k == 2
        assert amplitudes == {(H("-1/2"), H("-1/2")): Surd.one()}

    def test_singlet_phases_trivial(self):
        k, amplitudes = apply_time_reversal(
            expand_coupled_state(_chain(["1/2", "1/2"], [], "0"), H("0"))
        )
        assert len(amplitudes) == 2
        assert k == 0

    def test_double_reversal_is_univalence_scalar(self):
        for js in _js_tuples(3, 3):
            univalence = 1 if sum(j.twice for j in js) % 2 == 0 else -1
            expected_phase = 0 if univalence == 1 else 2
            for chain in enumerate_chains(js):
                for m in projection_range(chain.total_j):
                    expansion = expand_coupled_state(chain, m)
                    k, once = apply_time_reversal(expansion)
                    k_again, twice = apply_time_reversal(StateExpansion(chain, -m, once))
                    assert twice == expansion.amplitudes
                    # T is antilinear: T(i^k phi) = i^(-k) T phi
                    assert (k_again - k) % 4 == expected_phase


class TestFirstSymmetry:
    def test_stretched_agrees(self):
        audit = audit_first_symmetry(
            _chain(["1/2", "1/2"], [], "1"), (H("1/2"), H("1/2")), H("1")
        )
        assert audit.lhs == Surd.one()
        assert audit.rhs == Surd.one()
        assert audit.ratio == 1
        assert audit.verdict == "agree"

    def test_singlet_diverges(self):
        audit = audit_first_symmetry(
            _chain(["1/2", "1/2"], [], "0"), (H("1/2"), H("-1/2")), H("0")
        )
        assert audit.lhs == Surd(1, Fraction(1, 2))
        assert audit.rhs == Surd(-1, Fraction(1, 2))
        assert audit.ratio == -1
        assert audit.verdict == "diverge"

    def test_ratio_is_telescoped_triangle_phase(self):
        # whenever defined, rhs/lhs = (-1)^(sum js - total j)
        for n in (2, 3):
            for js in _js_tuples(n, 2):
                for chain in enumerate_chains(js):
                    exponent = (sum(j.twice for j in js) - chain.total_j.twice) // 2
                    expected = -1 if exponent % 2 else 1
                    for ms in itertools.product(*(projection_range(j) for j in js)):
                        total = HalfInt(sum(m.twice for m in ms))
                        if abs(total.twice) > chain.total_j.twice:
                            continue
                        audit = audit_first_symmetry(chain, ms, total)
                        if audit.ratio is not None:
                            assert audit.ratio == expected


def _first_symmetry_reference(chain):
    """The per-record loop: audit_first_symmetry at each kept ms, both sides evaluated afresh."""
    for ms in itertools.product(*(list(projection_range(j)) for j in chain.js)):
        total = sum(m.twice for m in ms)
        if abs(total) > chain.total_j.twice:
            continue
        audit = audit_first_symmetry(chain, ms, HalfInt(total))
        yield tuple(m.twice for m in ms), total, audit


def _audit_rows(records):
    return [
        (tms, total, audit.lhs, audit.rhs, audit.ratio, audit.verdict)
        for tms, total, audit in records
    ]


class TestFirstSymmetryAudits:
    """The paired walk against the per-record loop: n <= 4 with j <= 1, n = 3 with j <= 3/2."""

    def _chains(self):
        for j in (H("0"), H("1/2"), H("1")):
            yield CouplingChain((j,), (), j)
        for n, tmax in ((2, 2), (3, 2), (4, 2), (3, 3)):
            for js in _js_tuples(n, tmax):
                yield from enumerate_chains(js)

    def test_matches_per_record_audits(self):
        records = diverging = 0
        for chain in self._chains():
            rows = _audit_rows(first_symmetry_audits(*coupling._twices(chain)))
            assert rows == _audit_rows(_first_symmetry_reference(chain))
            records += len(rows)
            diverging += sum(row[5] == "diverge" for row in rows)
        assert records > 10_000 and 0 < diverging < records

    def test_each_visited_tuple_is_evaluated_once(self, monkeypatch):
        calls = Counter()
        evaluate = timerev._chain_signed_square

        def counting(tjs, partials, tms):
            calls[tuple(tms)] += 1
            return evaluate(tjs, partials, tms)

        monkeypatch.setattr(timerev, "_chain_signed_square", counting)
        for chain in self._chains():
            calls.clear()
            visited = [tms for tms, _, _ in first_symmetry_audits(*coupling._twices(chain))]
            # the |sum| cut is symmetric, so the flipped tuples are the visited ones again
            assert set(calls) == set(visited)
            assert set(calls.values()) <= {1}

    def test_magnitude_mismatch_is_an_error(self):
        with pytest.raises(DomainError, match="flip changed the magnitude"):
            timerev._first_symmetry(Surd(1, Fraction(1, 2)), Surd(1, Fraction(1, 3)))


class TestSecondSymmetry:
    def test_same_state_disjoint_support(self):
        value = audit_second_symmetry(_chain(["1/2", "1"], [], "1/2"), H("1/2"), "same-state")
        assert value.is_zero

    def test_paper_literal_gives_i(self):
        value = audit_second_symmetry(
            _chain(["1/2", "1"], [], "1/2"), H("1/2"), "paper-literal"
        )
        assert value == PhasedSurdSum({1: I_UNIT})

    def test_three_momentum_same_state(self):
        value = audit_second_symmetry(
            _chain(["1/2", "1/2", "1/2"], ["1"], "1/2"), H("1/2"), "same-state"
        )
        assert value.is_zero

    def test_integral_total_rejected(self):
        with pytest.raises(DomainError):
            audit_second_symmetry(_chain(["1/2", "1/2"], [], "1"), H("0"), "same-state")

    def test_same_state_zero_on_grid(self):
        for js in _js_tuples(2, 2):
            for chain in enumerate_chains(js):
                if not chain.total_j.is_half_odd:
                    continue
                for m in projection_range(chain.total_j):
                    assert audit_second_symmetry(chain, m, "same-state").is_zero


class TestKramersOverlap:
    def test_single_half_momentum(self):
        assert kramers_overlap(_chain(["1/2"], [], "1/2"), H("1/2")).is_zero

    def test_three_halves_chain(self):
        value = kramers_overlap(_chain(["1/2", "1/2", "1/2"], ["1"], "1/2"), H("1/2"))
        assert value.is_zero

    def test_integral_total_need_not_vanish(self):
        value = kramers_overlap(_chain(["1/2", "1/2"], [], "1"), H("0"))
        assert value == PhasedSurdSum({1: Fraction(1)})

    def test_empty_for_half_odd_totals(self):
        for n in (1, 2, 3):
            for js in _js_tuples(n, 3):
                chains = (
                    [CouplingChain(js, (), js[0])]
                    if n == 1
                    else enumerate_chains(js)
                )
                for chain in chains:
                    if not chain.total_j.is_half_odd:
                        continue
                    for m in projection_range(chain.total_j):
                        assert kramers_overlap(chain, m).is_zero


def _second_symmetry_reference(chain, total_m, interpretation):
    """The audit as a loop over every projection tuple, coefficient by coefficient."""
    second_total = -total_m if interpretation == "paper-literal" else total_m
    acc = PhasedSurdSum.zero()
    for ms in itertools.product(*(list(projection_range(j)) for j in chain.js)):
        first = generalized_coupling_coefficient(chain, ms, total_m)
        if first.is_zero:
            continue
        second = generalized_coupling_coefficient(chain, [-m for m in ms], second_total)
        if second.is_zero:
            continue
        acc = acc + (first * second).to_sum().times_i_pow(-sum(m.twice for m in ms))
    return acc


def _kramers_reference(chain, total_m):
    """<psi|T psi> with T psi built term by term and the bra amplitudes looked up.

    T maps amp * |ms> to amp * i^(2 * sum ms) |-ms>: each factor flips and
    contributes i^(2 m_k), and amp is real.
    """
    expansion = expand_coupled_state(chain, total_m)
    acc = PhasedSurdSum.zero()
    for ms, amp in expansion.amplitudes.items():
        bra_amp = expansion.amplitudes.get(tuple(-m for m in ms))
        if bra_amp is None:
            continue
        acc = acc + (bra_amp * amp).to_sum().times_i_pow(sum(m.twice for m in ms))
    return acc


class TestFlipOverlapReference:
    """Both audits against their termwise definitions, n=2..3 and every j <= 3/2."""

    def _chains(self):
        for n in (2, 3):
            for js in _js_tuples(n, 3):
                yield from enumerate_chains(js)

    def test_second_symmetry_matches_reference(self):
        nonzero = 0
        for chain in self._chains():
            if not chain.total_j.is_half_odd:
                continue
            for m in projection_range(chain.total_j):
                for interpretation in ("paper-literal", "same-state"):
                    value = audit_second_symmetry(chain, m, interpretation)
                    assert value == _second_symmetry_reference(chain, m, interpretation)
                    nonzero += not value.is_zero
        assert nonzero > 0  # the paper-literal sums that do not vanish are covered

    def test_kramers_matches_reference(self):
        nonzero = 0
        for chain in self._chains():
            for m in projection_range(chain.total_j):
                value = kramers_overlap(chain, m)
                assert value == _kramers_reference(chain, m)
                nonzero += not value.is_zero
        assert nonzero > 0  # integral totals at m=0

    @pytest.mark.parametrize("m", ["3/2", "-3/2", "1", "0"])
    def test_invalid_total_projection_rejected(self, m):
        chain = _chain(["1/2", "1"], [], "1/2")
        for interpretation in ("paper-literal", "same-state"):
            with pytest.raises(DomainError):
                audit_second_symmetry(chain, H(m), interpretation)
        with pytest.raises(DomainError):
            kramers_overlap(chain, H(m))


def _dot_reference(bra, ket):
    """The contraction as one Surd and one to_sum per matching pair, added one by one."""
    acc = PhasedSurdSum.zero()
    for tms, v in bra.items():
        w = ket.get(tms)
        if w is not None:
            acc = acc + Surd.from_signed_square(v * w).to_sum()
    return acc


class TestContraction:
    """The integer contraction against the per-pair surd sum, and the per-chain audits.

    Every chain with n <= 3 and every j <= 3/2 (n = 1 included), at every m:
    the contractions of both interpretations and of Kramers, and the
    per-chain audits of the chains whose total j is half-odd.
    """

    def _chains(self):
        for n in (1, 2, 3):
            for js in _js_tuples(n, 3):
                yield from [CouplingChain(js, (), js[0])] if n == 1 else enumerate_chains(js)

    def _pairs(self, chain):
        """(bra, ket) of every contraction the audits of the chain make."""
        tjs, partials = coupling._twices(chain)
        top = chain.total_j.twice
        tables = {
            tm: dict(coupling._amplitudes(tjs, partials, tm)) for tm in range(-top, top + 1, 2)
        }
        for tm, table in tables.items():
            for tpartner in (tm, -tm):  # same-state and Kramers, paper-literal
                yield table, timerev._reversed(tables[tpartner], tpartner)[1]

    def test_matches_per_pair_surd_sum(self):
        contractions = nonzero = 0
        for chain in self._chains():
            for bra, ket in self._pairs(chain):
                value = timerev._dot(bra, ket)
                assert value == _dot_reference(bra, ket)
                contractions += 1
                nonzero += not value.is_zero
        assert contractions > 1000 and nonzero > 0

    def test_cancelled_root_is_dropped(self):
        # sqrt(1/4) - sqrt(1/4) on sqrt(1) cancels; 2 * sqrt(1/2) = sqrt(2) stays
        bra = {(1,): Fraction(1, 2), (-1,): Fraction(1, 2), (3,): Fraction(2)}
        ket = {(1,): Fraction(1, 2), (-1,): Fraction(-1, 2), (3,): Fraction(1), (5,): Fraction(1)}
        value = timerev._dot(bra, ket)
        assert value == _dot_reference(bra, ket) == PhasedSurdSum({2: Fraction(1)})
        assert [r for r, _ in value.items()] == [2]
        assert timerev._dot({(1,): Fraction(1, 3)}, {(1,): Fraction(-1, 3)}) == PhasedSurdSum(
            {1: Fraction(-1, 3)}
        )

    def test_chain_audits_match_the_per_m_audits(self):
        for chain in self._chains():
            if not chain.total_j.is_half_odd:
                continue
            ms = list(projection_range(chain.total_j))
            for interpretation in ("paper-literal", "same-state"):
                expected = [(m, audit_second_symmetry(chain, m, interpretation)) for m in ms]
                assert list(overlap_audits(*coupling._twices(chain), interpretation)) == expected
            expected = [(m, kramers_overlap(chain, m)) for m in ms]
            assert list(overlap_audits(*coupling._twices(chain), "kramers")) == expected

    def test_chain_audit_refuses_an_integral_total(self):
        chain = _chain(["1/2", "1/2"], [], "1")
        with pytest.raises(DomainError, match="not half-odd"):
            next(overlap_audits(*coupling._twices(chain), "paper-literal"))
        with pytest.raises(DomainError, match="unknown interpretation"):
            next(overlap_audits(*coupling._twices(_chain(["1/2"], [], "1/2")), "literal"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["--prop", "second-sym", "--grid", "n=3,jmax=3/2"],
            ["--prop", "second-sym", "--grid", "n=3,jmax=3/2", "--interpretation", "same-state"],
            ["--prop", "kramers", "--grid", "n=3,jmax=3/2"],
        ],
    )
    def test_verify_walks_each_table_once(self, monkeypatch, capsys, argv):
        calls = Counter()
        walk = timerev._amplitudes

        def counting(tjs, partials, ttotal):
            calls[tuple(tjs), tuple(partials), ttotal] += 1
            return walk(tjs, partials, ttotal)

        monkeypatch.setattr(timerev, "_amplitudes", counting)
        assert main(["verify", *argv]) == 0
        records = capsys.readouterr().out.count("\n")
        # one table per record, each (chain, m) of a half-odd total once
        assert len(calls) == records > 0
        assert set(calls.values()) == {1}
