"""Symbolic time-reversal on coupled momenta, and exact proposition audits.

The antiunitary operator acts by T|j,m> = i^(2m) |j,-m> on a single momentum
and termwise on product states.  On a coupled state, whose amplitudes are
real, that action is one flip of every projection tuple and one power of i,
never a matrix.  `_reversed` is the only code that applies it, and
`apply_time_reversal` returns it on a `StateExpansion`.  Both overlap
audits sum C(ms; m) * C(-ms; m') over ms without building a state: a
sequentially coupled state is a matrix product state whose bond index is
the running projection, so `_flip_sums` contracts each chain left to right
in one pass, for every m at once.  The projection flip in the
first-symmetry audit is an identity between coefficients, not T acting on
a state.  The audit operations return exact values and agree/diverge
verdicts instead of asserting the claimed identities, since exact
evaluation is the whole point.
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
    _chain_signed_square,
    _twices,
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
    check_momentum_pair,
    short_repr,
    short_str,
)
from .wigner import _cg_signed_square, _totals


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


def _flip_sums(tjs: Sequence[int], partials: Sequence[int]) -> dict[int, tuple[int, int]]:
    """{twice M: (num, den)} of f_n(M), the sum over ms of total M of C(ms; M) * C(-ms; -M).

    One left-to-right pass over the running projection, from f_1(M) = 1:

      f_k(M) = sum over m of f_(k-1)(M - m) * C_k(M - m, m -> M) * C_k(-(M - m), -m -> -M)

    Each step reads both values v, w of its flip pair.  The flip keeps the
    magnitude, so v * w is the rational v * sign(w), and a changed magnitude
    raises.  Each f_k(M) is one integer pair over the least common
    denominator.  tjs and partials are as coupling._twices gives them, unchecked.
    """
    sums = {t: (1, 1) for t in range(-tjs[0], tjs[0] + 1, 2)}
    for ta, tb, tc in zip(partials, tjs[1:], partials[1:]):
        level = {}
        for t_next in range(-tc, tc + 1, 2):
            num, den = 0, 1
            for t_run in range(max(-ta, t_next - tb), min(ta, t_next + tb) + 1, 2):
                a, b = sums[t_run]
                v = _cg_signed_square(ta, t_run, tb, t_next - t_run, tc, t_next)
                w = _cg_signed_square(ta, -t_run, tb, t_run - t_next, tc, -t_next)
                if not (a and v and w):
                    continue
                # both in lowest terms, so equal magnitudes are equal integers
                p, q = v.as_integer_ratio()
                wp, wq = w.as_integer_ratio()
                if wq != q or abs(wp) != abs(p):
                    lhs, rhs = Surd.from_signed_square(v), Surd.from_signed_square(w)
                    raise DomainError(f"flip changed the magnitude: {lhs} vs {rhs}")
                p, q = (a * p if wp > 0 else -a * p), b * q
                d = den // gcd(den, q) * q
                num, den = num * (d // den) + p * (d // q), d
            g = gcd(num, den)
            level[t_next] = num // g, den // g
        sums = level
    return sums


Interpretation = Literal["paper-literal", "same-state"]


def _check_second_symmetry(ttotal: int, interpretation: Interpretation) -> None:
    """Refuses an unknown interpretation, then a total j = ttotal / 2 that is not half-odd."""
    if interpretation not in ("paper-literal", "same-state"):
        raise DomainError(f"unknown interpretation {short_repr(interpretation)}")
    if not ttotal % 2:
        raise DomainError(f"total momentum {short_str(HalfInt(ttotal))} is not half-odd")


Kind = Literal["kramers", "paper-literal", "same-state"]


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
    check_momentum_pair(chain.total_j, total_m, "total (j, m)")
    return dict(overlap_audits(*_twices(chain), interpretation))[total_m.twice]


def kramers_overlap(chain: CouplingChain, total_m: HalfInt) -> PhasedSurdSum:
    """<psi|T psi> contracted entirely in the product basis.

    T psi has amplitude i^(2m) psi(-ms) at ms, and the amplitudes are real,
    so the overlap is i^(2m) * sum over ms of psi(ms) * psi(-ms).  Whenever
    the coupled univalence is -1 (half-odd total j) the supports of psi and
    T psi are disjoint projection tuples and the sum is exactly empty.
    """
    check_momentum_pair(chain.total_j, total_m, "total (j, m)")
    return dict(overlap_audits(*_twices(chain), "kramers"))[total_m.twice]


def overlap_audits(
    tjs: Sequence[int], partials: Sequence[int], kind: Kind
) -> Iterator[tuple[int, PhasedSurdSum]]:
    """(twice m, value) at every projection m of a chain's total j, ascending.

    tjs and partials are the chain's twice-momenta and twice-partial totals,
    as coupling._twices gives them; only kind and the total's parity are
    checked here.  The value equals kramers_overlap(chain, m) for kind
    "kramers", and audit_second_symmetry(chain, m, kind) for an
    interpretation.  The chain is contracted once, for every m: the sum of
    C(ms; m) * C(-ms; m') is f_n(m) when the partner's total m' is -m, the
    total of -ms, and empty otherwise.  m' is -m for paper-literal and m
    for same-state and Kramers, so only paper-literal and Kramers at m = 0
    read f_n.  The phase is T's i^(2m) for Kramers and the audit's own
    i^(-2m) for an interpretation.
    """
    top = partials[-1]
    if kind != "kramers":
        _check_second_symmetry(top, kind)
    sums = _flip_sums(tjs, partials)
    for tm in range(-top, top + 1, 2):
        num, den = sums[tm] if kind == "paper-literal" or not tm else (0, 1)
        terms = {}
        if num:
            value = GaussianRational(Fraction(num, den), Fraction(0))
            terms[1] = value.times_i_pow(tm if kind == "kramers" else -tm)
        yield tm, PhasedSurdSum._raw(terms)
