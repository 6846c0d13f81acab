"""Exact Clebsch-Gordan coefficients, Wigner 3j symbols and Regge symmetries.

Values use the Condon-Shortley convention: every coefficient is a real surd
and the stretched coefficient <j1 j1 j2 j2|j1+j2, j1+j2> equals +1.  The
closed Racah form is evaluated in exact integer arithmetic: the Racah sum as
a ``Fraction`` and the radical prefactor from factorials and binomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .numerics import DomainError, HalfInt, Surd, check_momenta, check_momentum_pair, twice_text


@dataclass(frozen=True)
class CgArgs:
    """Arguments of a single coefficient <j1 m1 j2 m2 | j m>."""

    j1: HalfInt
    m1: HalfInt
    j2: HalfInt
    m2: HalfInt
    j: HalfInt
    m: HalfInt

    def __post_init__(self) -> None:
        check_momentum_pair(self.j1, self.m1, "(j1, m1)")
        check_momentum_pair(self.j2, self.m2, "(j2, m2)")
        check_momentum_pair(self.j, self.m, "(j, m)")

    def twices(self) -> tuple[int, int, int, int, int, int]:
        return (
            self.j1.twice,
            self.m1.twice,
            self.j2.twice,
            self.m2.twice,
            self.j.twice,
            self.m.twice,
        )


def _ladder(ta: int, tb: int) -> range:
    """The one coupling ladder: twice |a-b|, |a-b|+1, ..., a+b, for momenta twice ta and tb."""
    return range(abs(ta - tb), ta + tb + 1, 2)


def allowed_j(j1: HalfInt, j2: HalfInt) -> list[HalfInt]:
    """The total momenta |j1-j2|, |j1-j2|+1, ..., j1+j2."""
    check_momenta((j1, j2))
    return [HalfInt(t) for t in _ladder(j1.twice, j2.twice)]


def _selection_ok(tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int) -> bool:
    """m = m1+m2 and j on the ladder of j1 and j2, on twice-arguments."""
    return tm == tm1 + tm2 and tj in _ladder(tj1, tj2)


def _radical_prefactor(tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int) -> Fraction:
    # (2j+1) (j+m)! (j-m)! (j1+m1)! (j1-m1)! (j2+m2)! (j2-m2)! a! b! c! / (a+b+c+1)!
    # with a = j1+j2-j, b = j+j1-j2, c = j-j1+j2; the triangle part is taken as
    # a! b! c! / (a+b+c+1)! = 1 / ((a+b+c+1) C(a+b+c, a) C(b+c, b))
    a = (tj1 + tj2 - tj) // 2
    b = (tj + tj1 - tj2) // 2
    c = (tj - tj1 + tj2) // 2
    num = tj + 1
    for tj_, tm_ in ((tj, tm), (tj1, tm1), (tj2, tm2)):
        num *= math.factorial((tj_ + tm_) // 2) * math.factorial((tj_ - tm_) // 2)
    den = (a + b + c + 1) * math.comb(a + b + c, a) * math.comb(b + c, b)
    return Fraction(num, den)


@lru_cache(maxsize=None)
def _cg_signed_square(tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int) -> Fraction:
    """sign(C) * C**2 for the coefficient with the given twice-arguments."""
    if not _selection_ok(tj1, tm1, tj2, tm2, tj, tm):
        return Fraction(0)
    # Racah sum over k; every factorial argument below is a plain integer
    kmin = max(0, -(tj - tj2 + tm1) // 2, -(tj - tj1 - tm2) // 2)
    kmax = min((tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    if kmin > kmax:
        return Fraction(0)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        den = (
            math.factorial(k)
            * math.factorial((tj1 + tj2 - tj) // 2 - k)
            * math.factorial((tj1 - tm1) // 2 - k)
            * math.factorial((tj2 + tm2) // 2 - k)
            * math.factorial((tj - tj2 + tm1) // 2 + k)
            * math.factorial((tj - tj1 - tm2) // 2 + k)
        )
        total += Fraction((-1) ** k, den)
    if total == 0:
        return Fraction(0)
    sign = 1 if total > 0 else -1
    return sign * total * total * _radical_prefactor(tj1, tm1, tj2, tm2, tj, tm)


def cg(args: CgArgs) -> Surd:
    """Exact coefficient; zero (not an error) outside the selection rules."""
    return Surd.from_signed_square(_cg_signed_square(*args.twices()))


def cg_normalization_sum(j1: HalfInt, m1: HalfInt, j2: HalfInt, m2: HalfInt) -> Fraction:
    """Sum over all total (j, m) of |C|^2; equals 1 exactly."""
    check_momentum_pair(j1, m1, "(j1, m1)")
    check_momentum_pair(j2, m2, "(j2, m2)")
    total = Fraction(0)
    for j in allowed_j(j1, j2):
        for tm in range(-j.twice, j.twice + 1, 2):
            total += abs(_cg_signed_square(j1.twice, m1.twice, j2.twice, m2.twice, j.twice, tm))
    return total


def _three_j_from_cg(
    sign: int, radicand: Fraction, tj1: int, tj2: int, tj3: int, tm3: int
) -> tuple[int, Fraction]:
    """(sign, radicand) of a 3j symbol from those of C = <j1 m1 j2 m2|j3, -m3>, unchecked.

    The one place a 3j symbol's phase and scale are applied, on twice-arguments.
    Where C is nonzero, j1-j2-m3 = (j1+m1)+(j2+m2)-2j2 is an integer.
    """
    return (-sign if (tj1 - tj2 - tm3) % 4 else sign), radicand / (tj3 + 1)


def three_j(j1: HalfInt, m1: HalfInt, j2: HalfInt, m2: HalfInt, j3: HalfInt, m3: HalfInt) -> Surd:
    """Wigner 3j symbol (j1 j2 j3; m1 m2 m3) = (-1)^(j1-j2-m3)/sqrt(2j3+1) * <j1 m1 j2 m2|j3, -m3>.

    The phase exponent carries -m3: that is the convention under which the
    full Regge orbit behaves (even permutations and transposition invariant,
    odd permutations scaled by the univalence of j1+j2+j3).
    """
    value = cg(CgArgs(j1, m1, j2, m2, j3, -m3))
    return Surd(
        *_three_j_from_cg(value.sign, value.radicand, j1.twice, j2.twice, j3.twice, m3.twice)
    )


# ---------------------------------------------------------------------------
# Regge magic squares


@dataclass(frozen=True)
class RSymbol:
    """3x3 magic square of nonnegative integers encoding a 3j symbol.

    Column i holds j_i + m_i and j_i - m_i in rows 2 and 3.
    """

    rows: tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]

    def __post_init__(self) -> None:
        if len(self.rows) != 3 or any(len(r) != 3 for r in self.rows):
            raise DomainError("R-symbol needs a 3x3 matrix")
        entries = [x for row in self.rows for x in row]
        if any(not isinstance(x, int) or x < 0 for x in entries):
            raise DomainError(f"R-symbol entries must be nonnegative integers: {self.rows}")
        sums = [sum(r) for r in self.rows] + [sum(col) for col in zip(*self.rows)]
        if len(set(sums)) != 1:
            raise DomainError(f"row/column sums differ: {sums}")

    @property
    def magic_sum(self) -> int:
        return sum(self.rows[0])


def regge_symbol(
    a: HalfInt, alpha: HalfInt, b: HalfInt, beta: HalfInt, c: HalfInt, gamma: HalfInt
) -> RSymbol:
    """Magic square of (a b c; alpha beta gamma); rejects non-triangle input."""
    check_momentum_pair(a, alpha, "(a, alpha)")
    check_momentum_pair(b, beta, "(b, beta)")
    check_momentum_pair(c, gamma, "(c, gamma)")
    tjs, tms = (a.twice, b.twice, c.twice), (alpha.twice, beta.twice, gamma.twice)
    if sum(tms):
        raise DomainError("projections must sum to zero")
    rows = []
    for row in (
        tuple(sum(tjs) - 2 * tj for tj in tjs),
        tuple(tj + tm for tj, tm in zip(tjs, tms)),
        tuple(tj - tm for tj, tm in zip(tjs, tms)),
    ):
        for t in row:
            if t % 2 or t < 0:
                raise DomainError(
                    f"entry {twice_text(t)} is not a nonnegative integer; triangle rule violated"
                )
        rows.append(tuple(t // 2 for t in row))
    return RSymbol(tuple(rows))


@dataclass(frozen=True)
class ReggeAuditEntry:
    """One orbit element: the claimed epsilon multiplier vs the evaluated one."""

    transform: str
    claimed: int
    actual: int

    @property
    def agrees(self) -> bool:
        return self.claimed == self.actual


_IDENTITY = (0, 1, 2)
# the other five permutations of three, in lexicographic order, with their signs
_PERMUTATIONS = (((0, 2, 1), -1), ((1, 0, 2), -1), ((1, 2, 0), 1), ((2, 0, 1), 1), ((2, 1, 0), -1))
# each audited element: (name, claimed multiplier, row permutation, column permutation, transpose)
_ORBIT = (
    ("identity", 1, _IDENTITY, _IDENTITY, False),
    *((f"rows:{p[0] + 1}{p[1] + 1}{p[2] + 1}", s, p, _IDENTITY, False) for p, s in _PERMUTATIONS),
    *((f"cols:{p[0] + 1}{p[1] + 1}{p[2] + 1}", s, _IDENTITY, p, False) for p, s in _PERMUTATIONS),
    ("transpose", 1, _IDENTITY, _IDENTITY, True),
)


def _orbit_arguments(
    rows: tuple[tuple[int, ...], ...]
) -> Iterator[tuple[str, int, tuple[int, ...]]]:
    """(name, claimed multiplier, twice 3j arguments) of each audited transform of a square."""
    for name, claimed, row_perm, col_perm, transpose in _ORBIT:
        square = [[rows[r][c] for c in col_perm] for r in row_perm]
        if transpose:
            square = list(zip(*square))
        yield name, claimed, tuple(x for p, q in zip(square[1], square[2]) for x in (p + q, p - q))


def regge_orbit_audit(
    a: HalfInt, alpha: HalfInt, b: HalfInt, beta: HalfInt, c: HalfInt, gamma: HalfInt
) -> list[ReggeAuditEntry]:
    """Evaluate the 12 representative orbit transforms against the epsilon rule.

    The multiplier of each transformed 3j relative to the base is computed by
    exact evaluation on both sides; nothing is assumed about which symmetry
    rule is correct.  Each transform permutes the base's one square as plain
    integers and is evaluated on the twice-arguments read off its columns.
    """
    base = three_j(a, alpha, b, beta, c, gamma)
    if base.is_zero:
        raise DomainError("orbit audit needs a nonzero base 3j value")
    entries = []
    square = regge_symbol(a, alpha, b, beta, c, gamma).rows
    for name, claimed, (tj1, tm1, tj2, tm2, tj3, tm3) in _orbit_arguments(square):
        value = _cg_signed_square(tj1, tm1, tj2, tm2, tj3, -tm3)
        sign, radicand = _three_j_from_cg(1 if value > 0 else -1, abs(value), tj1, tj2, tj3, tm3)
        if radicand != base.radicand:
            changed = Surd.from_signed_square(sign * radicand)
            raise DomainError(f"transform {name} changed the magnitude: {changed} vs {base}")
        entries.append(ReggeAuditEntry(name, claimed, sign * base.sign))
    return entries
