"""Symbolic time-reversal on coupled momenta, and exact proposition audits.

The antiunitary operator acts by T|j,m> = i^(2m) |j,-m> on a single momentum
and termwise on product states; it is represented by its action (phase map,
projection flip, conjugation), never as a matrix.  The audit operations
return exact values and agree/diverge verdicts instead of asserting the
claimed identities, since exact evaluation is the whole point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from .coupling import (
    CouplingChain,
    StateExpansion,
    expand_coupled_state,
    generalized_coupling_coefficient,
    jmax,
    jmin,
)
from .numerics import DomainError, HalfInt, PhasedSurdSum, Surd


@dataclass(frozen=True)
class PhaseI:
    """A power of i, stored as the exponent k mod 4."""

    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", self.k % 4)

    def __mul__(self, other: PhaseI) -> PhaseI:
        return PhaseI(self.k + other.k)

    def conjugate(self) -> PhaseI:
        return PhaseI(-self.k)

    @property
    def is_real(self) -> bool:
        return self.k % 2 == 0

    def real_sign(self) -> int:
        if not self.is_real:
            raise DomainError(f"i^{self.k} is not real")
        return 1 if self.k == 0 else -1

    def __str__(self) -> str:
        return ("1", "i", "-1", "-i")[self.k]


def t_phase(m: HalfInt) -> PhaseI:
    """The phase i^(2m) picked up by |j,m> under time reversal."""
    return PhaseI(m.twice)


def t_squared_sign(j: HalfInt) -> int:
    """(-1)^(2j): +1 on integral j, -1 on half-odd j (the univalence)."""
    if j.twice < 0:
        raise DomainError(f"momentum must be nonnegative, got {j}")
    return -1 if j.twice % 2 else 1


def coupled_univalence(js: Sequence[HalfInt]) -> int:
    """Univalence of any total momentum coupled from js: parity of the half-odd count."""
    if any(j.twice < 0 for j in js):
        raise DomainError("momenta must be nonnegative")
    return -1 if sum(1 for j in js if j.is_half_odd) % 2 else 1


def check_compatibility(js: Sequence[HalfInt], j: HalfInt) -> bool:
    """Truth of (-1)^(2(sum js - j)) = 1 for an admissible total j."""
    lo, hi = jmin(js), jmax(js)
    if not (lo.twice <= j.twice <= hi.twice) or (j.twice - lo.twice) % 2:
        raise DomainError(f"total {j} is not admissible for {[str(x) for x in js]}")
    exponent = sum(x.twice for x in js) - j.twice
    return exponent % 2 == 0


@dataclass(frozen=True)
class TStateTerm:
    """One term phase * magnitude * |(j1,m1), ..., (jn,mn)> of a reversed state."""

    jms: tuple[tuple[HalfInt, HalfInt], ...]
    phase: PhaseI
    magnitude: Surd

    @property
    def projections(self) -> tuple[HalfInt, ...]:
        return tuple(m for _, m in self.jms)


def expansion_terms(expansion: StateExpansion) -> list[TStateTerm]:
    """The expansion rewritten as unit-phase terms, sorted by projection tuple."""
    js = expansion.chain.js
    terms = []
    for ms in sorted(expansion.amplitudes, key=lambda t: tuple(m.twice for m in t)):
        terms.append(TStateTerm(tuple(zip(js, ms)), PhaseI(0), expansion.amplitudes[ms]))
    return terms


def time_reverse_terms(terms: Sequence[TStateTerm]) -> list[TStateTerm]:
    """Apply T termwise: conjugate the phase, flip projections, multiply i^(2*sum m)."""
    out = []
    for term in terms:
        flipped = tuple((j, -m) for j, m in term.jms)
        phase = term.phase.conjugate() * PhaseI(sum(m.twice for _, m in term.jms))
        out.append(TStateTerm(flipped, phase, term.magnitude))
    return out


def apply_time_reversal(expansion: StateExpansion) -> list[TStateTerm]:
    """T of a coupled state, expanded in the product basis.

    Amplitudes are real surds, so conjugation under antilinearity is the
    identity on the magnitudes; only the i^(2*sum m) prefactors appear.
    """
    return time_reverse_terms(expansion_terms(expansion))


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


def audit_first_symmetry(
    chain: CouplingChain, ms: Sequence[HalfInt], total_m: HalfInt
) -> FirstSymmetryAudit:
    """Exact both-sides evaluation of the projection-flip identity."""
    lhs = generalized_coupling_coefficient(chain, ms, total_m)
    rhs = generalized_coupling_coefficient(chain, [-m for m in ms], -total_m)
    if lhs.is_zero:
        return FirstSymmetryAudit(lhs, rhs, None)
    if rhs.radicand != lhs.radicand:
        raise DomainError(f"flip changed the magnitude: {lhs} vs {rhs}")
    return FirstSymmetryAudit(lhs, rhs, lhs.sign * rhs.sign)


def _flip_overlap(ket: StateExpansion, partner: StateExpansion, k: int) -> PhasedSurdSum:
    """i^k * sum over ms of ket(ms) * partner(-ms); tuples -ms missing from partner add nothing.

    The phase is the same for every term (each tuple in a support sums to
    its state's total m), so it is applied once to the sum.
    """
    acc = PhasedSurdSum.zero()
    for ms, amp in ket.amplitudes.items():
        other = partner.amplitudes.get(tuple(-m for m in ms))
        if other is not None:
            acc = acc + (amp * other).to_sum()
    return acc.times_i_pow(k)


Interpretation = Literal["paper-literal", "same-state"]


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
    if interpretation not in ("paper-literal", "same-state"):
        raise DomainError(f"unknown interpretation {interpretation!r}")
    if not chain.total_j.is_half_odd:
        raise DomainError(f"total momentum {chain.total_j} is not half-odd")
    ket = expand_coupled_state(chain, total_m)
    partner = expand_coupled_state(chain, -total_m) if interpretation == "paper-literal" else ket
    return _flip_overlap(ket, partner, -total_m.twice)


def kramers_overlap(chain: CouplingChain, total_m: HalfInt) -> PhasedSurdSum:
    """<psi|T psi> contracted entirely in the product basis.

    T psi has amplitude i^(2m) psi(ms) on -ms, and the amplitudes are real,
    so the overlap is i^(2m) * sum over ms of psi(-ms) * psi(ms).  Whenever
    the coupled univalence is -1 (half-odd total j) the supports of psi and
    T psi are disjoint projection tuples and the sum is exactly empty.
    """
    expansion = expand_coupled_state(chain, total_m)
    return _flip_overlap(expansion, expansion, total_m.twice)
