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
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import neg
from typing import Iterator, Literal, Sequence

from .coupling import (
    CouplingChain,
    StateExpansion,
    _amplitudes,
    _chain_signed_square,
    _state_amplitudes,
    generalized_coupling_coefficient,
    jmax,
    jmin,
)
from .numerics import (
    DomainError,
    GaussianRational,
    HalfInt,
    PhasedSurdSum,
    Surd,
    check_momenta,
    short_repr,
    short_str,
    squarefree_decomposition,
)


def t_squared_sign(j: HalfInt) -> int:
    """(-1)^(2j): +1 on integral j, -1 on half-odd j (the univalence)."""
    check_momenta((j,))
    return -1 if j.twice % 2 else 1


def coupled_univalence(js: Sequence[HalfInt]) -> int:
    """Univalence of any total momentum coupled from js: parity of the half-odd count."""
    check_momenta(js)
    return -1 if sum(1 for j in js if j.is_half_odd) % 2 else 1


def check_compatibility(js: Sequence[HalfInt], j: HalfInt) -> bool:
    """Truth of (-1)^(2(sum js - j)) = 1 for an admissible total j of two or more momenta."""
    if len(js) < 2:
        raise DomainError("compatibility needs at least two momenta")
    lo, hi = jmin(js), jmax(js)
    if not (lo.twice <= j.twice <= hi.twice) or (j.twice - lo.twice) % 2:
        shown = short_str([short_str(x) for x in js])
        raise DomainError(f"total {short_str(j)} is not admissible for {shown}")
    exponent = sum(x.twice for x in js) - j.twice
    return exponent % 2 == 0


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


@dataclass(frozen=True)
class FirstSymmetryAudit:
    """Coefficient product at (ms, m) vs the product at (-ms, -m)."""

    lhs: Surd
    rhs: Surd
    ratio: int | None

    @property
    def verdict(self) -> str:
        """Against the claimed ratio +1, i.e. lhs = rhs with no extra phase."""
        return "agree" if self.lhs == self.rhs else "diverge"


def _first_symmetry(lhs: Surd, rhs: Surd) -> FirstSymmetryAudit:
    """The audit of two evaluated sides: no ratio on a zero lhs, else one magnitude or an error."""
    if lhs.is_zero:
        return FirstSymmetryAudit(lhs, rhs, None)
    if rhs.radicand != lhs.radicand:
        raise DomainError(f"flip changed the magnitude: {lhs} vs {rhs}")
    return FirstSymmetryAudit(lhs, rhs, lhs.sign * rhs.sign)


def audit_first_symmetry(
    chain: CouplingChain, ms: Sequence[HalfInt], total_m: HalfInt
) -> FirstSymmetryAudit:
    """Exact both-sides evaluation of the projection-flip identity."""
    lhs = generalized_coupling_coefficient(chain, ms, total_m)
    rhs = generalized_coupling_coefficient(chain, [-m for m in ms], -total_m)
    return _first_symmetry(lhs, rhs)


def first_symmetry_audits(
    tjs: Sequence[int], partials: Sequence[int]
) -> Iterator[tuple[tuple[int, ...], int, FirstSymmetryAudit]]:
    """The first-symmetry audit at every projection tuple of a chain, in product order.

    tjs and partials are the chain's twice-momenta and twice-partial totals,
    as coupling._twices gives them; they are not checked here.  Yields
    (twice ms, twice total m, audit) for each tuple with |sum ms| <= J; the
    audit equals audit_first_symmetry(chain, ms, sum ms).  Each side is the
    chain product at its own tuple, evaluated once per distinct tuple, so
    the records at ms and -ms share their two values; neither side is
    inferred from the other.
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
        yield tms, total, _first_symmetry(value(tms), value(tuple(-t for t in tms)))


def _dot(
    bra: dict[tuple[int, ...], Fraction], ket: dict[tuple[int, ...], Fraction]
) -> PhasedSurdSum:
    """Sum over ms of bra(ms) * ket(ms), on {twice ms: signed square} amplitudes.

    Both are real, so that is the overlap <bra|ket>; tuples missing from ket
    add 0, and neither holds a zero, as the walk yields none.  A pair whose
    signed squares multiply to p / q (not reduced) is the value
    sign(p) * sqrt(|p| / q) = sign(p) * s * sqrt(r) / q, with |p| * q =
    s**2 * r and r squarefree, so it adds sign(p) * s / q to the
    coefficient of sqrt(r); one PhasedSurdSum is built from the
    coefficients that do not cancel.
    """
    coefficients: dict[int, tuple[int, int]] = {}  # r -> (numerator, denominator)
    for tms, v in bra.items():
        w = ket.get(tms)
        if w is not None:
            p, q = v.as_integer_ratio()
            wp, wq = w.as_integer_ratio()
            p *= wp
            q *= wq
            s, r = squarefree_decomposition(abs(p) * q)
            if p < 0:
                s = -s
            acc = coefficients.get(r)
            if acc is None:
                coefficients[r] = s, q
            else:
                # over the least common denominator, so the integers stay as small as the sums
                a, b = acc
                d = b // gcd(b, q) * q
                coefficients[r] = a * (d // b) + s * (d // q), d
    zero = Fraction(0)
    return PhasedSurdSum._raw(
        {r: GaussianRational(Fraction(a, b), zero) for r, (a, b) in coefficients.items() if a}
    )


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
) -> Iterator[tuple[HalfInt, PhasedSurdSum]]:
    """(m, value) at every projection m of a chain's total j, ascending.

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
        m = HalfInt(tm)
        if kind == "kramers":
            yield m, _kramers(table(tm), tm)
        else:
            tpartner = -tm if kind == "paper-literal" else tm
            yield m, _second_symmetry(table(tm), table(tpartner), tm, tpartner)
