import functools
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from jcouple.coupling import enumerate_chains
from jcouple.numerics import (
    DomainError,
    HalfInt,
    PhasedSurdSum,
    Surd,
    check_momentum_pair,
    factorial_factorized,
    parse_halfint,
)
from jcouple.wigner import (
    CgArgs,
    ReggeAuditEntry,
    RSymbol,
    _ladder,
    _orbit_arguments,
    _radical_prefactor,
    _selection_ok,
    cg,
    cg_normalization_sum,
    regge_orbit_audit,
    regge_symbol,
    three_j,
)

from oracles import oracle_cg, oracle_cg_table

H = parse_halfint


def _args(j1, m1, j2, m2, j, m):
    return CgArgs(H(j1), H(m1), H(j2), H(m2), H(j), H(m))


def _grid_args(tmax):
    """All well-formed CgArgs with j1, j2 <= tmax/2 and j in the triangle range."""
    for tj1, tj2 in itertools.product(range(tmax + 1), repeat=2):
        for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
            for tm1 in range(-tj1, tj1 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    for tm in range(-tj, tj + 1, 2):
                        yield CgArgs(
                            HalfInt(tj1),
                            HalfInt(tm1),
                            HalfInt(tj2),
                            HalfInt(tm2),
                            HalfInt(tj),
                            HalfInt(tm),
                        )


class TestSelection:
    def test_singlet_channel_exists(self):
        assert _selection_ok(*_args("1/2", "1/2", "1/2", "-1/2", "0", "0").twices())

    def test_projection_mismatch(self):
        assert not _selection_ok(*_args("1/2", "1/2", "1/2", "1/2", "1", "0").twices())

    def test_triangle_violation(self):
        # (1/2 x 1) only reaches totals 1/2 and 3/2, so j = 0 has no channel
        assert 0 not in _ladder(1, 2)
        assert H("0") not in [chain.total_j for chain in enumerate_chains([H("1/2"), H("1")])]
        assert not _selection_ok(*_args("1/2", "1/2", "1", "0", "0", "0").twices())
        # projection sum fine, triangle violated
        assert not _selection_ok(*_args("1", "1", "1", "1", "3", "2").twices())

    def test_nonzero_implies_selection(self):
        for args in _grid_args(4):
            if not cg(args).is_zero:
                assert _selection_ok(*args.twices())

    def test_malformed_args_rejected(self):
        with pytest.raises(DomainError):
            _args("1/2", "3/2", "1", "0", "1", "0")
        with pytest.raises(DomainError):
            _args("1", "1/2", "1", "0", "1", "0")


class TestAllowedJ:
    """The allowed totals of two momenta: the kernel's twice ladder, and enumerate_chains's list."""

    @staticmethod
    def _totals(j1, j2):
        ladder = [HalfInt(t) for t in _ladder(j1.twice, j2.twice)]
        assert [chain.total_j for chain in enumerate_chains([j1, j2])] == ladder
        return ladder

    def test_two_halves(self):
        assert self._totals(H("1/2"), H("1/2")) == [H("0"), H("1")]

    def test_mixed(self):
        assert self._totals(H("1"), H("3/2")) == [H("1/2"), H("3/2"), H("5/2")]

    def test_coupling_with_zero(self):
        assert self._totals(H("7/2"), H("0")) == [H("7/2")]

    def test_length(self):
        for tj1, tj2 in itertools.product(range(6), repeat=2):
            assert len(self._totals(HalfInt(tj1), HalfInt(tj2))) == min(tj1, tj2) + 1


class TestCg:
    def test_singlet_value(self):
        assert cg(_args("1/2", "1/2", "1/2", "-1/2", "0", "0")) == Surd(1, Fraction(1, 2))

    def test_stretched_is_plus_one(self):
        for tj1, tj2 in itertools.product(range(5), repeat=2):
            args = CgArgs(
                HalfInt(tj1),
                HalfInt(tj1),
                HalfInt(tj2),
                HalfInt(tj2),
                HalfInt(tj1 + tj2),
                HalfInt(tj1 + tj2),
            )
            assert cg(args) == Surd.one()

    def test_half_with_one(self):
        # Condon-Shortley fixes the largest-m1 coefficient of each top state
        # positive, so <1/2 1/2 1 0 | 1/2 1/2> comes out +sqrt(1/3)
        value = cg(_args("1/2", "1/2", "1", "0", "1/2", "1/2"))
        assert value == Surd(1, Fraction(1, 3))
        assert value == oracle_cg(H("1/2"), H("1/2"), H("1"), H("0"), H("1/2"), H("1/2"))

    def test_out_of_selection_is_zero_not_error(self):
        assert cg(_args("1/2", "1/2", "1/2", "1/2", "1", "0")).is_zero

    def test_matches_oracle_up_to_three_halves(self):
        for args in _grid_args(3):
            assert cg(args) == oracle_cg(
                args.j1, args.m1, args.j2, args.m2, args.j, args.m
            ), f"mismatch at {args}"


class TestRadicalPrefactorReference:
    """The binomial-form prefactor against the prime-factorized form it replaced.

    The reference merges the prime exponents of the ten factorials of the
    closed Racah form and multiplies them out, as the kernel once did.
    """

    @staticmethod
    def _factorized(tj1, tm1, tj2, tm2, tj, tm, factorized):
        plus = [
            (tj1 + tj2 - tj) // 2,
            (tj + tj1 - tj2) // 2,
            (tj - tj1 + tj2) // 2,
            (tj + tm) // 2,
            (tj - tm) // 2,
            (tj1 + tm1) // 2,
            (tj1 - tm1) // 2,
            (tj2 + tm2) // 2,
            (tj2 - tm2) // 2,
        ]
        minus = [(tj1 + tj2 + tj) // 2 + 1]
        exponents = {}
        for n in plus:
            for p, e in factorized(n).exponents:
                exponents[p] = exponents.get(p, 0) + e
        for n in minus:
            for p, e in factorized(n).exponents:
                exponents[p] = exponents.get(p, 0) - e
        num, den = tj + 1, 1
        for p, e in exponents.items():
            if e > 0:
                num *= p**e
            elif e < 0:
                den *= p**-e
        return Fraction(num, den)

    @staticmethod
    def _random_tuple(rng, tmax):
        """A valid twice-tuple with every momentum at most tmax/2."""
        while True:
            tj1, tj2 = rng.randrange(tmax + 1), rng.randrange(tmax + 1)
            tj = rng.randrange(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
            tm1 = rng.randrange(-tj1, tj1 + 1, 2)
            tm2 = rng.randrange(-tj2, tj2 + 1, 2)
            if tj <= tmax and abs(tm1 + tm2) <= tj:
                return tj1, tm1, tj2, tm2, tj, tm1 + tm2

    def test_equals_factorized_form(self):
        start = time.perf_counter()
        factorized = functools.cache(factorial_factorized)
        small = [t for t in (a.twices() for a in _grid_args(6)) if t[4] <= 6 and _selection_ok(*t)]
        rng = random.Random(400)
        large = [self._random_tuple(rng, 800) for _ in range(300)]
        assert max(t[4] for t in large) > 600
        for t in small + large:
            assert Fraction(*_radical_prefactor(*t)) == self._factorized(*t, factorized), t
        assert time.perf_counter() - start < 2.0


class TestCoefficientReference:
    """cg and three_j against the combine and the validated Surds they replaced.

    The reference kernel is the Racah sum with its Fraction combine,
    sign * total * total * prefactor; its cg is a validated Surd of that
    signed square, and its 3j applies the phase and the 1/(2j3+1) scale to
    that Surd and validates the result.
    """

    @staticmethod
    def _signed_square(tj1, tm1, tj2, tm2, tj, tm):
        if tm != tm1 + tm2 or tj not in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
            return Fraction(0)
        f = math.factorial
        total = Fraction(0)
        for k in range(
            max(0, -(tj - tj2 + tm1) // 2, -(tj - tj1 - tm2) // 2),
            min((tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2) + 1,
        ):
            den = (
                f(k)
                * f((tj1 + tj2 - tj) // 2 - k)
                * f((tj1 - tm1) // 2 - k)
                * f((tj2 + tm2) // 2 - k)
                * f((tj - tj2 + tm1) // 2 + k)
                * f((tj - tj1 - tm2) // 2 + k)
            )
            total += Fraction((-1) ** k, den)
        if total == 0:
            return Fraction(0)
        a, b, c = (tj1 + tj2 - tj) // 2, (tj + tj1 - tj2) // 2, (tj - tj1 + tj2) // 2
        num = tj + 1
        for tj_, tm_ in ((tj, tm), (tj1, tm1), (tj2, tm2)):
            num *= f((tj_ + tm_) // 2) * f((tj_ - tm_) // 2)
        prefactor = Fraction(num, (a + b + c + 1) * math.comb(a + b + c, a) * math.comb(b + c, b))
        sign = 1 if total > 0 else -1
        return sign * total * total * prefactor

    @classmethod
    def _cg(cls, tj1, tm1, tj2, tm2, tj, tm):
        return Surd.from_signed_square(cls._signed_square(tj1, tm1, tj2, tm2, tj, tm))

    @classmethod
    def _three_j(cls, tj1, tm1, tj2, tm2, tj3, tm3):
        value = cls._cg(tj1, tm1, tj2, tm2, tj3, -tm3)
        sign = -value.sign if (tj1 - tj2 - tm3) % 4 else value.sign
        return Surd(sign, value.radicand / (tj3 + 1))

    @staticmethod
    def _assert_same(value, reference, what):
        assert value.sign == reference.sign, what
        assert value.radicand == reference.radicand, what
        assert type(value.radicand) is Fraction, what

    def test_matches_reference_route(self):
        start = time.perf_counter()
        # every tuple of valid (j, m) pairs with momenta <= 3, selection-rule zeros included
        pairs = [(tj, tm) for tj in range(7) for tm in range(-tj, tj + 1, 2)]
        small = [(*p1, *p2, *p3) for p1, p2, p3 in itertools.product(pairs, repeat=3)]
        rng = random.Random(2016)
        large = [TestRadicalPrefactorReference._random_tuple(rng, 400) for _ in range(300)]
        assert max(max(t[::2]) for t in large) > 350
        kinds = {"selection": 0, "racah": 0, "nonzero": 0}
        for t in small + large:
            args = tuple(map(HalfInt, t))
            reference = self._cg(*t)
            self._assert_same(cg(CgArgs(*args)), reference, ("cg", t))
            mirrored = (*t[:5], -t[5])
            self._assert_same(three_j(*args[:5], -args[5]), self._three_j(*mirrored), ("3j", t))
            if not _selection_ok(*t):
                kinds["selection"] += 1
            else:
                kinds["racah" if reference.is_zero else "nonzero"] += 1
        assert len(small) == 21952
        # <1 0 1 0|1 0> passes the selection rule, but its Racah sum vanishes
        racah_zero = (2, 0, 2, 0, 2, 0)
        assert racah_zero in small and _selection_ok(*racah_zero)
        assert self._signed_square(*racah_zero) == 0
        assert min(kinds.values()) >= 40, kinds
        assert time.perf_counter() - start < 6.0


class TestNormalization:
    def test_spec_values(self):
        assert cg_normalization_sum(H("1/2"), H("1/2"), H("1/2"), H("-1/2")) == 1
        assert cg_normalization_sum(H("1"), H("1"), H("1"), H("0")) == 1

    def test_coupling_with_zero_single_term(self):
        assert cg_normalization_sum(H("5/2"), H("3/2"), H("0"), H("0")) == 1

    def test_exhaustive_small_grid(self):
        for tj1, tj2 in itertools.product(range(4), repeat=2):
            for tm1 in range(-tj1, tj1 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    assert (
                        cg_normalization_sum(
                            HalfInt(tj1), HalfInt(tm1), HalfInt(tj2), HalfInt(tm2)
                        )
                        == 1
                    )

    def test_random_larger_momenta(self):
        import random

        rng = random.Random(99)
        for _ in range(25):
            tj1, tj2 = rng.randrange(17), rng.randrange(17)
            tm1 = rng.choice(range(-tj1, tj1 + 1, 2)) if tj1 else 0
            tm2 = rng.choice(range(-tj2, tj2 + 1, 2)) if tj2 else 0
            value = cg_normalization_sum(
                HalfInt(tj1), HalfInt(tm1), HalfInt(tj2), HalfInt(tm2)
            )
            assert value == 1


class TestOrthogonality:
    def test_coupled_states_orthonormal(self):
        for tj1, tj2 in itertools.product(range(5), repeat=2):
            j1, j2 = HalfInt(tj1), HalfInt(tj2)
            states = [
                (j, HalfInt(tm))
                for j in map(HalfInt, _ladder(tj1, tj2))
                for tm in range(-j.twice, j.twice + 1, 2)
            ]
            for (ja, ma), (jb, mb) in itertools.combinations_with_replacement(states, 2):
                # sum over the shared product basis (m1, m2)
                acc = PhasedSurdSum.zero()
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        m1, m2 = HalfInt(tm1), HalfInt(tm2)
                        ca = cg(CgArgs(j1, m1, j2, m2, ja, ma))
                        if ca.is_zero:
                            continue
                        cb = cg(CgArgs(j1, m1, j2, m2, jb, mb))
                        acc = acc + (ca * cb).to_sum()
                if (ja, ma) == (jb, mb):
                    assert acc == PhasedSurdSum({1: Fraction(1)})
                else:
                    assert acc.is_zero


class TestThreeJ:
    def test_basic_value(self):
        assert three_j(H("1/2"), H("1/2"), H("1/2"), H("-1/2"), H("0"), H("0")) == Surd(
            1, Fraction(1, 2)
        )

    def test_stretched_value(self):
        # cg oracle gives <1 1 1 1|2 2> = 1; the defining equation then
        # scales by 1/sqrt(5) with an even phase
        assert oracle_cg(H("1"), H("1"), H("1"), H("1"), H("2"), H("2")) == Surd.one()
        assert three_j(H("1"), H("1"), H("1"), H("1"), H("2"), H("-2")) == Surd(
            1, Fraction(1, 5)
        )

    def test_projection_sum_rule(self):
        assert three_j(H("1"), H("1"), H("1"), H("0"), H("2"), H("0")).is_zero

    def test_odd_total_vanishes_at_zero_projections(self):
        assert three_j(H("1"), H("0"), H("1"), H("0"), H("1"), H("0")).is_zero

    def test_matches_defining_equation_on_grid(self):
        for tj1, tj2 in itertools.product(range(4), repeat=2):
            table = oracle_cg_table(tj1, tj2)
            for (tj, tm, tm1, tm2), value in table.items():
                symbol = three_j(
                    HalfInt(tj1),
                    HalfInt(tm1),
                    HalfInt(tj2),
                    HalfInt(tm2),
                    HalfInt(tj),
                    HalfInt(-tm),
                )
                # m3 = -m, so the phase exponent j1 - j2 - m3 is j1 - j2 + m
                exponent = (tj1 - tj2 + tm) // 2
                phase = -1 if exponent % 2 else 1
                expected = Surd(phase * value.sign, value.radicand / (tj + 1))
                assert symbol == expected


class TestReggeSymbol:
    def test_substitution_half_half_zero(self):
        rs = regge_symbol(H("1/2"), H("1/2"), H("1/2"), H("-1/2"), H("0"), H("0"))
        assert rs.rows == ((0, 0, 1), (1, 0, 0), (0, 1, 0))

    def test_substitution_one_one_two(self):
        rs = regge_symbol(H("1"), H("0"), H("1"), H("0"), H("2"), H("0"))
        assert rs.rows[0] == (2, 2, 0)
        assert rs.rows[1] == (1, 1, 2)
        assert rs.rows[2] == (1, 1, 2)

    def test_magic_sum(self):
        rs = regge_symbol(H("1"), H("1"), H("1"), H("-1"), H("2"), H("0"))
        assert rs.magic_sum == 4
        for row in rs.rows:
            assert sum(row) == 4
        for col in zip(*rs.rows):
            assert sum(col) == 4

    def test_rejects_non_triangle(self):
        with pytest.raises(DomainError):
            regge_symbol(H("1/2"), H("1/2"), H("1"), H("-1/2"), H("3"), H("0"))

    def test_rejects_unbalanced_projections(self):
        with pytest.raises(DomainError):
            regge_symbol(H("1"), H("1"), H("1"), H("0"), H("2"), H("0"))


class TestReggeOrbitAudit:
    def test_even_row_permutation_agrees(self):
        entries = {e.transform: e for e in regge_orbit_audit(
            H("1"), H("1"), H("1"), H("-1"), H("2"), H("0")
        )}
        for name in ("rows:231", "rows:312", "cols:231", "cols:312", "transpose"):
            assert entries[name].actual == 1
            assert entries[name].agrees

    def test_odd_row_permutation_on_odd_total(self):
        # a+b+c = 1 here, so the evaluated multiplier matches the epsilon claim
        entries = {e.transform: e for e in regge_orbit_audit(
            H("1/2"), H("1/2"), H("1/2"), H("-1/2"), H("0"), H("0")
        )}
        assert entries["rows:213"].actual == -1
        assert entries["rows:213"].claimed == -1
        assert entries["rows:213"].agrees

    def test_odd_row_permutation_on_even_total_diverges(self):
        # a+b+c = 4: the evaluated multiplier is +1 but the claim is epsilon = -1
        entries = {e.transform: e for e in regge_orbit_audit(
            H("1"), H("1"), H("1"), H("1"), H("2"), H("-2")
        )}
        assert entries["rows:213"].actual == 1
        assert entries["rows:213"].claimed == -1
        assert not entries["rows:213"].agrees

    def test_twelve_transforms(self):
        entries = regge_orbit_audit(H("1"), H("1"), H("1"), H("-1"), H("2"), H("0"))
        assert len(entries) == 12
        assert len({e.transform for e in entries}) == 12

    def test_zero_base_rejected(self):
        with pytest.raises(DomainError):
            regge_orbit_audit(H("1"), H("0"), H("1"), H("0"), H("1"), H("0"))


class TestReggeReference:
    """three_j, regge_symbol and the orbit audit against the route they replaced.

    The reference builds the square from HalfInt sums, and evaluates each
    transform as an RSymbol read back to HalfInt arguments and a three_j of
    two Surds.  Refusals are compared by their text.
    """

    _EVEN = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    _ODD = ((0, 2, 1), (1, 0, 2), (2, 1, 0))

    @staticmethod
    @functools.cache  # a transform's arguments recur as other tuples and their transforms
    def _three_j(j1, m1, j2, m2, j3, m3):
        value = cg(CgArgs(j1, m1, j2, m2, j3, -m3))
        if value.is_zero:
            return Surd.zero()
        phase = -1 if ((j1.twice - j2.twice - m3.twice) // 2) % 2 else 1
        return Surd(phase * value.sign, value.radicand / (j3.twice + 1))

    @staticmethod
    def _regge_symbol(a, alpha, b, beta, c, gamma):
        check_momentum_pair(a, alpha, "(a, alpha)")
        check_momentum_pair(b, beta, "(b, beta)")
        check_momentum_pair(c, gamma, "(c, gamma)")
        if (alpha + beta + gamma).twice != 0:
            raise DomainError("projections must sum to zero")
        rows = []
        for row in (
            (-a + b + c, a - b + c, a + b - c),
            (a + alpha, b + beta, c + gamma),
            (a - alpha, b - beta, c - gamma),
        ):
            for entry in row:
                if entry.twice % 2 or entry.twice < 0:
                    raise DomainError(f"{c} not an allowed coupling of {a} and {b}")
            rows.append(tuple(entry.twice // 2 for entry in row))
        return RSymbol(tuple(rows))

    @classmethod
    def _squares(cls, rs):
        """(name, claimed, RSymbol) of each of the 12 transforms, in the audit's order."""
        out = [("identity", 1, rs)]
        for kind in ("rows", "cols"):
            for perm in sorted(cls._EVEN + cls._ODD)[1:]:
                sign = 1 if perm in cls._EVEN else -1
                name = f"{kind}:" + "".join(str(i + 1) for i in perm)
                if kind == "rows":
                    rows = tuple(rs.rows[i] for i in perm)
                else:
                    rows = tuple(tuple(row[i] for i in perm) for row in rs.rows)
                out.append((name, sign, RSymbol(rows)))
        out.append(("transpose", 1, RSymbol(tuple(zip(*rs.rows)))))
        return out

    @staticmethod
    def _arguments(square):
        """Twice (j1, m1, j2, m2, j3, m3): column i holds j_i +/- m_i in rows 2, 3."""
        return tuple(
            x
            for i in range(3)
            for x in (square.rows[1][i] + square.rows[2][i], square.rows[1][i] - square.rows[2][i])
        )

    @classmethod
    def _audit(cls, *args):
        """The audit's entries, each with the arguments its transform was evaluated on.

        The square's refusal comes first, then the zero base's.
        """
        symbol = cls._regge_symbol(*args)
        base = cls._three_j(*args)
        if base.is_zero:
            raise DomainError("orbit audit needs a nonzero base 3j value")
        entries = []
        for name, claimed, square in cls._squares(symbol):
            arguments = cls._arguments(square)
            value = cls._three_j(*map(HalfInt, arguments))
            if value.radicand != base.radicand:
                raise DomainError(f"transform {name} changed the magnitude: {value} vs {base}")
            entries.append((ReggeAuditEntry(name, claimed, value.sign * base.sign), arguments))
        return entries

    @staticmethod
    def _outcome(f, args):
        try:
            return f(*args)
        except DomainError as exc:
            return f"refused: {exc}"

    @staticmethod
    def _tuples():
        """Every tuple of valid pairs with 2j <= 8 and m1 + m2 + m3 = 0.

        Those with 2j <= 4 come again with m3 off by 1/2 and by 1, for the
        refusals of the third (j, m) pair and of the projection sum.
        """
        pairs = [(tj, tm) for tj in range(9) for tm in range(-tj, tj + 1, 2)]
        balanced = [
            (tj1, tm1, tj2, tm2, tj3, tm3)
            for (tj1, tm1), (tj2, tm2), (tj3, tm3) in itertools.product(pairs, repeat=3)
            if tm1 + tm2 + tm3 == 0
        ]
        assert len(balanced) == 5339
        small = [t for t in balanced if max(t[::2]) <= 4]
        for shift, tuples in ((0, balanced), (1, small), (2, small)):
            for *rest, tm3 in tuples:
                yield tuple(map(HalfInt, (*rest, tm3 + shift)))

    def test_matches_reference_route(self):
        start = time.perf_counter()
        refusals = set()
        audited = 0
        for args in self._tuples():
            assert self._outcome(three_j, args) == self._outcome(self._three_j, args), args
            symbol = self._outcome(regge_symbol, args)
            assert symbol == self._outcome(self._regge_symbol, args), args
            audit = self._outcome(regge_orbit_audit, args)
            reference = self._outcome(self._audit, args)
            if isinstance(reference, str):
                assert audit == reference, args
                refusals.add(reference)
                continue
            audited += 1
            assert audit == [entry for entry, _ in reference], args
            # each transform reads the square it names: a row permutation is not a column one
            assert list(_orbit_arguments(symbol.rows)) == [
                (e.transform, e.claimed, a) for e, a in reference
            ], args
        assert audited == 4338
        # zero bases, triangle entries and each (j, m) check of the third pair
        assert len(refusals) > 10, refusals
        assert time.perf_counter() - start < 6.0
