import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jcouple.coupling import (
    CouplingChain,
    enumerate_chains,
    expand_coupled_state,
    generalized_coupling_coefficient,
    jmax,
    jmin,
)
from jcouple.kepler import (
    Statistics,
    degeneracy_enumerated,
    degeneracy_paper,
    energy_level,
)
from jcouple.numerics import (
    DomainError,
    GaussianRational,
    HalfInt,
    PhasedSurdSum,
    Surd,
    check_momenta,
    check_momentum_pair,
    factorial_factorized,
    halfint_range,
    parse_halfint,
    projection_range,
    squarefree_decomposition,
)
from jcouple.timerev import (
    audit_second_symmetry,
    check_compatibility,
    coupled_univalence,
    t_squared_sign,
)
from jcouple.wigner import CgArgs, RSymbol, cg, cg_normalization_sum, regge_symbol, three_j


NEGATIVE = parse_halfint("-1/2")
# a negative momentum after a valid one and before another negative one
MOMENTA = (parse_halfint("1"), NEGATIVE, parse_halfint("-2"))
ONE, HALF = parse_halfint("1"), parse_halfint("1/2")


def _unchecked_chain(js, total_j):
    """A chain built past CouplingChain's own check, so the function under test must refuse it."""
    chain = object.__new__(CouplingChain)
    object.__setattr__(chain, "js", js)
    object.__setattr__(chain, "intermediates", ())
    object.__setattr__(chain, "total_j", total_j)
    return chain


class TestOneNonnegativityRule:
    """Every public function that takes momenta refuses a negative one in the same words.

    The text is check_momenta's, naming the first negative momentum.
    """

    @pytest.mark.parametrize(
        "call",
        [
            lambda: jmax(MOMENTA),
            lambda: jmin(MOMENTA),
            lambda: CouplingChain(MOMENTA, (parse_halfint("1"),), parse_halfint("0")),
            lambda: enumerate_chains(MOMENTA),
            lambda: coupled_univalence(MOMENTA),
            lambda: t_squared_sign(NEGATIVE),
            lambda: list(projection_range(NEGATIVE)),
            lambda: energy_level(NEGATIVE),
            lambda: degeneracy_paper(MOMENTA, Statistics.BOSON0),
            lambda: degeneracy_enumerated(MOMENTA, Statistics.FERMION_HALF),
            # the (j, m) pair checks: the first pair's momentum is the negative one
            lambda: cg(CgArgs(NEGATIVE, HALF, HALF, HALF, ONE, ONE)),
            lambda: three_j(NEGATIVE, HALF, HALF, HALF, ONE, -ONE),
            lambda: regge_symbol(NEGATIVE, HALF, HALF, HALF, ONE, -ONE),
            lambda: cg_normalization_sum(NEGATIVE, HALF, HALF, HALF),
            lambda: expand_coupled_state(_unchecked_chain((ONE, HALF), NEGATIVE), HALF),
            lambda: generalized_coupling_coefficient(
                _unchecked_chain((ONE, NEGATIVE), HALF), (ONE, HALF), HALF
            ),
            # the total is checked by the same rule as the momenta
            lambda: check_compatibility((ONE, HALF), NEGATIVE),
        ],
        ids=[
            "jmax", "jmin", "CouplingChain", "enumerate_chains", "coupled_univalence",
            "t_squared_sign", "projection_range", "energy_level", "degeneracy_paper",
            "degeneracy_enumerated", "cg", "three_j", "regge_symbol",
            "cg_normalization_sum", "expand_coupled_state", "generalized_coupling_coefficient",
            "check_compatibility-total",
        ],
    )
    def test_message(self, call):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == "momentum must be nonnegative, got -1/2"

    def test_echo_is_cut(self):
        with pytest.raises(DomainError) as info:
            jmax([parse_halfint("1"), parse_halfint("-" + "9" * 4000)])
        assert str(info.value) == (
            f"momentum must be nonnegative, got -{'9' * 59}... (4001 characters)"
        )


class TestMomentumIsHalfInt:
    """check_momenta refuses a momentum that is not a HalfInt in one line, naming it.

    Each of these raised an AttributeError on .twice before.
    """

    @pytest.mark.parametrize(
        "call, text",
        [
            (lambda: jmin([1, 2]), "momentum must be a HalfInt, got 1"),
            (lambda: t_squared_sign(1), "momentum must be a HalfInt, got 1"),
            (lambda: coupled_univalence([0.5, 1.5]), "momentum must be a HalfInt, got 0.5"),
            (lambda: enumerate_chains([1, 2]), "momentum must be a HalfInt, got 1"),
            (lambda: CouplingChain((1, 1), (), 2), "momentum must be a HalfInt, got 1"),
            (lambda: list(projection_range(2)), "momentum must be a HalfInt, got 2"),
            (
                lambda: degeneracy_paper([1], Statistics.BOSON0),
                "momentum must be a HalfInt, got 1",
            ),
            (lambda: check_compatibility([ONE, ONE], 2), "momentum must be a HalfInt, got 2"),
            (lambda: check_momenta([ONE, "1/2"]), "momentum must be a HalfInt, got '1/2'"),
        ],
        ids=["jmin", "t_squared_sign", "coupled_univalence", "enumerate_chains",
             "CouplingChain", "projection_range", "degeneracy_paper", "check_compatibility-total",
             "check_momenta-str"],
    )
    def test_message(self, call, text):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == text


class TestMomentumPairIsHalfInt:
    """The one (j, m) rule refuses a j or an m that is not a HalfInt, naming the pair."""

    @pytest.mark.parametrize(
        "call, text",
        [
            (
                lambda: CgArgs(1, 0, 1, 0, 1, 0),
                "(j1, m1) must be a pair of HalfInt values, got (1, 0)",
            ),
            (
                lambda: cg(CgArgs(ONE, ONE, ONE, 0.0, ONE, ONE)),
                "(j2, m2) must be a pair of HalfInt values, got (HalfInt(twice=2), 0.0)",
            ),
            (
                lambda: three_j(ONE, ONE, ONE, -ONE, ONE, 0.5),
                "(j, m) must be a pair of HalfInt values, got (HalfInt(twice=2), 0.5)",
            ),
            (
                lambda: three_j(ONE, ONE, ONE, -ONE, ONE, "0"),
                "(j, m) must be a pair of HalfInt values, got (HalfInt(twice=2), '0')",
            ),
            (
                lambda: regge_symbol(ONE, ONE, ONE, -ONE, True, ONE),
                "(c, gamma) must be a pair of HalfInt values, got (True, HalfInt(twice=2))",
            ),
            (
                lambda: cg_normalization_sum(Fraction(1), ONE, ONE, ONE),
                "(j1, m1) must be a pair of HalfInt values, got (Fraction(1, 1), HalfInt(twice=2))",
            ),
            (
                lambda: generalized_coupling_coefficient(
                    CouplingChain((ONE, ONE), (), ONE), (ONE, "0"), ONE
                ),
                "(j_k, m_k) must be a pair of HalfInt values, got (HalfInt(twice=2), '0')",
            ),
            (
                lambda: generalized_coupling_coefficient(
                    CouplingChain((ONE, ONE), (), ONE), (ONE, -ONE), 0
                ),
                "total_m must be a HalfInt, got 0",
            ),
        ],
        ids=["CgArgs-int", "cg-float", "three_j-float", "three_j-str", "regge_symbol-bool",
             "cg_normalization_sum-Fraction", "generalized_coupling_coefficient-str",
             "generalized_coupling_coefficient-total_m-int"],
    )
    def test_message(self, call, text):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == text


# twice a momentum of 4,401 digits: past the interpreter's int-to-str digit limit
BIG = 2 * 10**4400
ZERO = parse_halfint("0")


class TestBoundedEcho:
    """An error that echoes a value is a short DomainError, whatever the value."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: check_momenta([HalfInt(-BIG - 1)]),
            lambda: check_momentum_pair(ONE, HalfInt(BIG), "(j, m)"),
            lambda: CouplingChain((ONE, ONE), (), HalfInt(BIG)),
            lambda: regge_symbol(ONE, ZERO, ONE, ZERO, HalfInt(BIG), ZERO),
            lambda: HalfInt("x" * 10**5),
            lambda: HalfInt(Fraction(BIG, 3)),
            lambda: Surd(BIG, Fraction(1)),
            lambda: Surd(1, Fraction(-BIG)),
            lambda: Surd.sqrt(-BIG),
            lambda: squarefree_decomposition(-BIG),
            lambda: list(halfint_range(ZERO, HalfInt(BIG + 1))),
            lambda: PhasedSurdSum({-BIG: 1}),
            lambda: factorial_factorized(-BIG),
            lambda: RSymbol(((-BIG, 0, 0), (0, 0, 0), (0, 0, 0))),
            lambda: RSymbol(((BIG, 0, 0), (0, 0, 0), (0, 0, 0))),
            lambda: check_compatibility((ONE, ONE), HalfInt(BIG)),
            lambda: check_compatibility((ONE, HalfInt(BIG)), ZERO),
            lambda: audit_second_symmetry(CouplingChain((HALF,), (), HALF), HALF, "x" * 10**5),
            lambda: audit_second_symmetry(
                CouplingChain((HalfInt(BIG),), (), HalfInt(BIG)), ZERO, "same-state"
            ),
        ],
        ids=[
            "check_momenta", "check_momentum_pair", "CouplingChain", "regge_symbol",
            "HalfInt-long", "HalfInt-digits", "Surd-sign", "Surd-radicand", "Surd.sqrt",
            "squarefree_decomposition", "halfint_range", "PhasedSurdSum", "factorial_factorized",
            "RSymbol-entries", "RSymbol-sums", "check_compatibility-total",
            "check_compatibility-js", "second-sym-interpretation", "second-sym-total",
        ],
    )
    def test_short_domain_error(self, call):
        with pytest.raises(DomainError) as info:
            call()
        assert len(str(info.value)) <= 200


class TestParseHalfInt:
    def test_half_odd(self):
        assert parse_halfint("3/2").twice == 3

    def test_integer(self):
        assert parse_halfint("2").twice == 4

    def test_decimal_forms(self):
        assert parse_halfint("-0.5").twice == -1
        assert parse_halfint("1.5").twice == 3

    def test_rejects_thirds(self):
        with pytest.raises(DomainError):
            parse_halfint("5/3")

    @pytest.mark.parametrize("text", ["1e1000000000", "1.5e-999999999", "2E0", "1.e1"])
    def test_refuses_exponent_notation_at_once(self, text):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="exponent notation"):
            parse_halfint(text)
        assert time.perf_counter() - start < 1.0

    def test_rejects_garbage(self):
        with pytest.raises(DomainError):
            parse_halfint("spin")

    @given(st.integers(min_value=-200, max_value=200))
    def test_round_trip(self, twice):
        h = HalfInt(twice)
        assert parse_halfint(str(h)) == h

    def test_canonical_text(self):
        assert str(HalfInt(4)) == "2"
        assert str(HalfInt(3)) == "3/2"
        assert str(HalfInt(-1)) == "-1/2"


class TestHalfIntClosure:
    def test_closure_table_exhaustive(self):
        # the seven closure rules, over all pairs with twice in [0, 40]
        def even_nat(h):
            return h.is_integral and (h.twice // 2) % 2 == 0

        def odd_nat(h):
            return h.is_integral and (h.twice // 2) % 2 == 1

        grid = [HalfInt(t) for t in range(41)]
        for x in grid:
            for y in grid:
                s, d = x + y, abs(x - y)
                if even_nat(x) and even_nat(y):
                    assert even_nat(s)
                if even_nat(x) and odd_nat(y):
                    assert odd_nat(s)
                if odd_nat(x) and odd_nat(y):
                    assert even_nat(s)
                if x.is_integral and y.is_half_odd:
                    assert s.is_half_odd and d.is_half_odd
                if x.is_half_odd and y.is_half_odd:
                    assert s.is_integral and d.is_integral


class TestRanges:
    def test_projection_range(self):
        assert [m.twice for m in projection_range(HalfInt(3))] == [-3, -1, 1, 3]

    def test_projection_range_rejects_negative(self):
        with pytest.raises(DomainError):
            list(projection_range(HalfInt(-1)))

    def test_halfint_range(self):
        assert [h.twice for h in halfint_range(HalfInt(1), HalfInt(5))] == [1, 3, 5]

    def test_halfint_range_rejects_offset_parity(self):
        with pytest.raises(DomainError):
            list(halfint_range(HalfInt(0), HalfInt(3)))

    def test_empty_range(self):
        assert list(halfint_range(HalfInt(4), HalfInt(2))) == []


def _random_surd(rng):
    sign = rng.choice([-1, 1])
    num = rng.randrange(0, 30)
    den = rng.randrange(1, 30)
    if num == 0:
        return Surd.zero()
    return Surd(sign, Fraction(num, den))


class TestSurd:
    def test_square_of_half(self):
        assert Surd.sqrt(Fraction(1, 2)) * Surd.sqrt(Fraction(1, 2)) == Surd(
            1, Fraction(1, 4)
        )

    def test_reciprocal_radicands(self):
        a = Surd(-1, Fraction(2, 3))
        b = Surd(1, Fraction(3, 2))
        assert a * b == Surd(-1, Fraction(1))

    def test_absorbing_zero(self):
        assert Surd.zero() * Surd.sqrt(5) == Surd.zero()

    def test_sign_invariant(self):
        with pytest.raises(DomainError):
            Surd(0, Fraction(5))
        with pytest.raises(DomainError):
            Surd(1, Fraction(0))

    @pytest.mark.parametrize("sign", [1.0, -1.0, 0.0, True, False, "1", None])
    def test_sign_is_an_int(self, sign):
        # 1.0 and True compare equal to 1, and a JSON dict would carry them as given
        radicand = Fraction(2) if sign else Fraction(0)
        with pytest.raises(DomainError, match=r"sign must be -1, 0 or \+1, got "):
            Surd(sign, radicand)

    def test_from_signed_square(self):
        assert Surd.from_signed_square(Fraction(-1, 3)) == Surd(-1, Fraction(1, 3))
        assert Surd.from_signed_square(0).is_zero

    @pytest.mark.parametrize("q", [0.1, 1.0, -0.5, True, False, "1", None])
    def test_no_float_or_bool_enters_a_surd(self, q):
        # Fraction(0.1) is the float's binary value, 3602879701896397/36028797018963968
        with pytest.raises(DomainError, match=r"^radicand must be an int or a Fraction, got "):
            Surd.sqrt(q)
        with pytest.raises(DomainError, match=r"^signed square must be an int or a Fraction, got "):
            Surd.from_signed_square(q)

    def test_ints_become_fractions(self):
        for value in (Surd.sqrt(2), Surd.from_signed_square(-2)):
            assert type(value.radicand) is Fraction
        assert Surd.sqrt(2) == Surd(1, Fraction(2))
        assert Surd.from_signed_square(-2) == Surd(-1, Fraction(2))

    def test_mul_associative_commutative_random(self):
        rng = random.Random(20260810)
        for _ in range(1000):
            a, b, c = (_random_surd(rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a

    def test_json_dict(self):
        assert Surd(-1, Fraction(4, 9)).to_json_dict() == {
            "sign": -1,
            "num": "4",
            "den": "9",
        }


class TestSurdToSum:
    def test_rationalizes_denominator(self):
        assert Surd.sqrt(Fraction(1, 2)).to_sum() == PhasedSurdSum({2: Fraction(1, 2)})

    def test_perfect_square(self):
        assert (-Surd.sqrt(Fraction(4, 9))).to_sum() == PhasedSurdSum(
            {1: Fraction(-2, 3)}
        )

    def test_extracts_square_factor(self):
        assert Surd.sqrt(8).to_sum() == PhasedSurdSum({2: Fraction(2)})

    def test_zero(self):
        assert Surd.zero().to_sum().is_zero


def _gauss(re_n, re_d, im_n, im_d):
    return GaussianRational(Fraction(re_n, re_d), Fraction(im_n, im_d))


_sums = st.builds(
    lambda pairs: PhasedSurdSum({r: _gauss(a, b, c, d) for r, (a, b, c, d) in pairs.items()}),
    st.dictionaries(
        st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15]),
        st.tuples(
            st.integers(-6, 6),
            st.integers(1, 5),
            st.integers(-6, 6),
            st.integers(1, 5),
        ),
        max_size=4,
    ),
)


class TestGaussianRational:
    @pytest.mark.parametrize("part", [0.5, 1.0, True, False, "1", None, complex(1)])
    def test_parts_are_ints_or_fractions(self, part):
        for re, im, name in ((part, 0, "re"), (Fraction(0), part, "im")):
            with pytest.raises(DomainError, match=f"^{name} must be an int or a Fraction, got "):
                GaussianRational(re, im)

    def test_ints_and_fractions_are_kept_as_given(self):
        value = GaussianRational(1, Fraction(-1, 2))
        assert (value.re, type(value.re)) == (1, int)
        assert (value.im, type(value.im)) == (Fraction(-1, 2), Fraction)

    def test_no_float_enters_an_exact_sum(self):
        with pytest.raises(DomainError):
            PhasedSurdSum({2: GaussianRational(0.5, 0)})

    @pytest.mark.parametrize("q", [0.1, 1.0, True, False, "1", None])
    def test_no_float_or_bool_enters_through_from_rational(self, q):
        calls = (
            GaussianRational.from_rational,
            GaussianRational.coerce,
            lambda x: PhasedSurdSum({2: x}),
            PhasedSurdSum({2: Fraction(1)}).scaled,
        )
        for call in calls:
            with pytest.raises(DomainError, match=r"^re must be an int or a Fraction, got "):
                call(q)

    def test_from_rational_makes_fractions(self):
        for q in (3, Fraction(-1, 2)):
            value = GaussianRational.from_rational(q)
            assert (value.re, type(value.re), value.im) == (q, Fraction, 0)


class TestPhasedSurdSum:
    def test_squarefree_keys_enforced(self):
        # a float or bool key would pass the squarefree test and fail later, in a gcd
        for key in (4, 0, 2.0, True, "x"):
            with pytest.raises(DomainError):
                PhasedSurdSum({key: Fraction(1)})

    def test_zero_is_empty(self):
        assert PhasedSurdSum({2: Fraction(0)}).is_zero

    @given(_sums, _sums, _sums)
    def test_addition_associative(self, x, y, z):
        assert (x + y) + z == x + (y + z)

    @given(_sums, _sums, _sums)
    def test_distributive(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(_sums, _sums)
    def test_multiplication_commutative(self, x, y):
        assert x * y == y * x

    def test_surd_plus_negation_cancels(self):
        s = Surd(-1, Fraction(8, 3))
        assert (s.to_sum() + (-s).to_sum()).is_zero

    def test_key_product_stays_squarefree(self):
        x = PhasedSurdSum({6: Fraction(1)})
        y = PhasedSurdSum({10: Fraction(1)})
        # sqrt(6)*sqrt(10) = 2*sqrt(15)
        assert x * y == PhasedSurdSum({15: Fraction(2)})

    def test_i_powers_cycle(self):
        x = PhasedSurdSum({2: _gauss(1, 2, 1, 3)})
        assert x.times_i_pow(4) == x
        assert x.times_i_pow(1).times_i_pow(3) == x
        assert x.times_i_pow(2) == -x


class TestFactorizedFactorial:
    def test_zero_is_empty(self):
        assert factorial_factorized(0).exponents == ()

    def test_four(self):
        assert factorial_factorized(4).as_dict() == {2: 3, 3: 1}

    def test_legendre_exponent_of_two(self):
        assert factorial_factorized(10).exponent(2) == 8

    def test_reconstruction_up_to_30(self):
        import math

        for n in range(31):
            assert factorial_factorized(n).value() == math.factorial(n)

    def test_squarefree_decomposition(self):
        assert squarefree_decomposition(1) == (1, 1)
        assert squarefree_decomposition(8) == (2, 2)
        assert squarefree_decomposition(36) == (6, 1)
        assert squarefree_decomposition(45) == (3, 5)
