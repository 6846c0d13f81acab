"""Symbolic time-reversal on coupled momenta, and exact proposition audits.

The antiunitary operator acts by T|j,m> = i^(2m) |j,-m> on a single momentum
and termwise on product states.  On a coupled state, whose amplitudes are
real, that action is one flip of every projection tuple and one power of i,
never a matrix.  `_reversed` is the only code that applies it:
`apply_time_reversal` returns it on a `StateExpansion`, and both overlap
audits contract a state with it on the chain's twice-integer amplitudes.
The projection flip in the first-symmetry audit is an identity between
coefficients, not T acting on a state.  The audit operations
return exact values and agree/diverge verdicts instead of asserting the
claimed identities, since exact evaluation is the whole point.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from operator import neg
from typing import Iterator, Literal, Optional, Sequence

from .coupling import (
    CouplingChain,
    StateExpansion,
    _amplitudes,
    _chain_signed_square,
    _state_amplitudes,
    generalized_coupling_coefficient,
)
from .numerics import (
    DomainError,
    GaussianRational,
    HalfInt,
    PhasedSurdSum,
    Surd,
    _Value,
    check_momenta,
    short_repr,
    short_str,
)
from .wigner import _totals


def t_squared_sign(j: HalfInt) -> int:
    """(-1)^(2j): +1 on integral j, -1 on half-odd j (the univalence)."""
    check_momenta((j,))
    return -1 if j.twice % 2 else 1


def coupled_univalence(js: Sequence[HalfInt]) -> int:
    """Univalence of any total momentum coupled from js: the parity of twice their sum."""
    check_momenta(js)
    return -1 if sum(j.twice for j in js) % 2 else 1


def check_compatibility(js: Sequence[HalfInt], j: HalfInt) -> bool:
    """Truth of (-1)^(2(sum js - j)) = 1 for an admissible total j of two or more momenta."""
    if len(js) < 2:
        raise DomainError("compatibility needs at least two momenta")
    check_momenta((*js, j))
    tjs = [x.twice for x in js]
    if j.twice not in _totals(tjs):
        shown = short_str([short_str(x) for x in js])
        raise DomainError(f"total {short_str(j)} is not admissible for {shown}")
    return (sum(tjs) - j.twice) % 2 == 0


def _reversed(amplitudes: dict, ttotal: int) -> tuple[int, dict]:
    """T of a state with real amplitudes and total twice-m ttotal, as (k, flipped).

    T psi = i^k * sum of flipped[ms] |ms>.  T sends the term at ms to -ms
    with the phase i^(2 * sum ms).  Every tuple of the support sums to the
    total m, so the power is the same for every term and is returned once,
    as k = ttotal mod 4.  Real amplitudes are left as they are by
    antilinearity.  The keys are tuples of twice-integers or of HalfInt.
    """
    return ttotal % 4, {tuple(map(neg, ms)): amp for ms, amp in amplitudes.items()}


def apply_time_reversal(
    expansion: StateExpansion,
) -> tuple[int, dict[tuple[HalfInt, ...], Surd]]:
    """T of a coupled state as (k, amplitudes): T psi = i^k * sum of amplitudes[ms] |ms>."""
    return _reversed(expansion.amplitudes, expansion.total_m.twice)


class FirstSymmetryAudit(_Value):
    """Coefficient product lhs at (ms, m) vs rhs at (-ms, -m), and their sign ratio (None at 0)."""

    __slots__ = ("lhs", "rhs", "ratio")

    @property
    def verdict(self) -> str:
        """Against the claimed ratio +1, i.e. lhs = rhs with no extra phase."""
        return "agree" if self.lhs == self.rhs else "diverge"


def _first_symmetry(lhs: Surd, rhs: Surd) -> tuple[Optional[int], str]:
    """FirstSymmetryAudit's ratio and verdict of two evaluated sides; a changed magnitude raises."""
    if lhs.is_zero:
        return None, "agree" if rhs.is_zero else "diverge"
    if rhs.radicand != lhs.radicand:
        raise DomainError(f"flip changed the magnitude: {lhs} vs {rhs}")
    ratio = lhs.sign * rhs.sign
    return ratio, "agree" if ratio == 1 else "diverge"


def audit_first_symmetry(
    chain: CouplingChain, ms: Sequence[HalfInt], total_m: HalfInt
) -> FirstSymmetryAudit:
    """Exact both-sides evaluation of the projection-flip identity."""
    lhs = generalized_coupling_coefficient(chain, ms, total_m)
    rhs = generalized_coupling_coefficient(chain, [-m for m in ms], -total_m)
    return FirstSymmetryAudit(lhs, rhs, _first_symmetry(lhs, rhs)[0])


def first_symmetry_audits(
    tjs: Sequence[int], partials: Sequence[int]
) -> Iterator[tuple[tuple[int, ...], int, Optional[int], str]]:
    """The first-symmetry audit at every projection tuple of a chain, in product order.

    tjs and partials are the chain's twice-momenta and twice-partial totals,
    as coupling._twices gives them; they are not checked here.  Yields
    (twice ms, twice total m, ratio, verdict) for each tuple with
    |sum ms| <= J, the ratio and verdict of audit_first_symmetry(chain, ms,
    sum ms); no audit object is built.  Each side is the chain product at
    its own tuple, evaluated once per distinct tuple, so the records at ms
    and -ms share their two values; neither side is inferred from the other.
    """
    top = partials[-1]
    values: dict[tuple[int, ...], Surd] = {}  # twice ms -> chain product

    def value(tms: tuple[int, ...]) -> Surd:
        out = values.get(tms)
        if out is None:
            out = values[tms] = Surd.from_signed_square(_chain_signed_square(tjs, partials, tms))
        return out

    # every tuple drawn from the projection ranges is a valid set of (j_k, m_k),
    # and the |sum| cut keeps -ms exactly when it keeps ms
    for tms in itertools.product(*(range(-t, t + 1, 2) for t in tjs)):
        total = sum(tms)
        if abs(total) > top:
            continue
        ratio, verdict = _first_symmetry(value(tms), value(tuple(-t for t in tms)))
        yield tms, total, ratio, verdict


def _dot(
    bra: dict[tuple[int, ...], Fraction], ket: dict[tuple[int, ...], Fraction]
) -> PhasedSurdSum:
    """Sum over ms of bra(ms) * ket(ms), on {twice ms: signed square} amplitudes.

    Both are real, so that is the overlap <bra|ket>; tuples missing from ket
    add 0, and neither holds a zero, as the walk yields none.  Every pair
    the audits match is a projection-flip pair, C(ms; m) against
    C(-ms; -m), and the flip keeps the magnitude: a pair of signed squares
    v and w with |v| = |w| is the rational v * sign(w), so the sum lands on
    sqrt(1) only.  A pair whose magnitudes differ raises.
    """
    num, den = 0, 1
    for tms, v in bra.items():
        w = ket.get(tms)
        if w is not None:
            # both in lowest terms, so equal magnitudes are equal integers
            p, q = v.as_integer_ratio()
            wp, wq = w.as_integer_ratio()
            if wq != q or abs(wp) != abs(p):
                lhs, rhs = Surd.from_signed_square(v), Surd.from_signed_square(w)
                raise DomainError(f"flip changed the magnitude: {lhs} vs {rhs}")
            if wp < 0:
                p = -p
            # over the least common denominator, so the integers stay as small as the sums
            d = den // gcd(den, q) * q
            num, den = num * (d // den) + p * (d // q), d
    if not num:
        return PhasedSurdSum._raw({})
    return PhasedSurdSum._raw({1: GaussianRational(Fraction(num, den), Fraction(0))})


Interpretation = Literal["paper-literal", "same-state"]


def _check_second_symmetry(ttotal: int, interpretation: Interpretation) -> None:
    """Refuses an unknown interpretation, then a total j = ttotal / 2 that is not half-odd."""
    if interpretation not in ("paper-literal", "same-state"):
        raise DomainError(f"unknown interpretation {short_repr(interpretation)}")
    if not ttotal % 2:
        raise DomainError(f"total momentum {short_str(HalfInt(ttotal))} is not half-odd")


def _second_symmetry(ket: dict, partner: dict, ttotal: int, tpartner: int) -> PhasedSurdSum:
    """The second-symmetry sum of the tables at twice total m ttotal and at its partner's."""
    # C(-ms; m') is the reversed partner's amplitude at ms; the audit keeps
    # its own phase i^(-2m), not T's
    _, flipped = _reversed(partner, tpartner)
    return _dot(ket, flipped).times_i_pow(-ttotal)


def _kramers(psi: dict, ttotal: int) -> PhasedSurdSum:
    """<psi|T psi> of the table psi at twice total m ttotal."""
    k, tpsi = _reversed(psi, ttotal)
    return _dot(psi, tpsi).times_i_pow(k)


def audit_second_symmetry(
    chain: CouplingChain, total_m: HalfInt, interpretation: Interpretation
) -> PhasedSurdSum:
    """The phased double-product sum over all projections, for half-odd total j.

    Sums C(ms; m) * C(-ms; m') * i^(-2m) over ms.  Under "same-state" the
    second coefficient chain carries the upper projection m' = +m (the
    reading forced by the only-nonzero-addends step), and the sum is zero
    term by term.  Under "paper-literal" it carries m' = -m as printed, and
    the value is reported as computed.
    """
    _check_second_symmetry(chain.total_j.twice, interpretation)
    partner_m = -total_m if interpretation == "paper-literal" else total_m
    ket = dict(_state_amplitudes(chain, total_m))
    partner = ket if partner_m == total_m else dict(_state_amplitudes(chain, partner_m))
    return _second_symmetry(ket, partner, total_m.twice, partner_m.twice)


def kramers_overlap(chain: CouplingChain, total_m: HalfInt) -> PhasedSurdSum:
    """<psi|T psi> contracted entirely in the product basis.

    T psi has amplitude i^(2m) psi(-ms) at ms, and the amplitudes are real,
    so the overlap is i^(2m) * sum over ms of psi(ms) * psi(-ms).  Whenever
    the coupled univalence is -1 (half-odd total j) the supports of psi and
    T psi are disjoint projection tuples and the sum is exactly empty.
    """
    return _kramers(dict(_state_amplitudes(chain, total_m)), total_m.twice)


def overlap_audits(
    tjs: Sequence[int],
    partials: Sequence[int],
    kind: Literal["kramers", "paper-literal", "same-state"],
) -> Iterator[tuple[int, PhasedSurdSum]]:
    """(twice m, value) at every projection m of a chain's total j, ascending.

    tjs and partials are the chain's twice-momenta and twice-partial totals,
    as coupling._twices gives them; only kind and the total's parity are
    checked here.  The value equals kramers_overlap(chain, m) for kind
    "kramers", and audit_second_symmetry(chain, m, kind) for an
    interpretation.  The amplitude table at each m is walked at most once,
    so paper-literal, which pairs the tables at m and -m, builds each table
    once, not twice.
    """
    top = partials[-1]
    if kind != "kramers":
        _check_second_symmetry(top, kind)
    tables: dict[int, dict[tuple[int, ...], Fraction]] = {}  # twice m -> the walk's table

    def table(ttotal: int) -> dict[tuple[int, ...], Fraction]:
        out = tables.get(ttotal)
        if out is None:
            out = tables[ttotal] = dict(_amplitudes(tjs, partials, ttotal))
        return out

    for tm in range(-top, top + 1, 2):
        if kind == "kramers":
            yield tm, _kramers(table(tm), tm)
        else:
            tpartner = -tm if kind == "paper-literal" else tm
            yield tm, _second_symmetry(table(tm), table(tpartner), tm, tpartner)
