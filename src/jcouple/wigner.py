"""Exact Clebsch-Gordan coefficients, Wigner 3j symbols and Regge symmetries.

Values use the Condon-Shortley convention: every coefficient is a real surd
and the stretched coefficient <j1 j1 j2 j2|j1+j2, j1+j2> equals +1.  The
closed Racah form is evaluated in exact integer arithmetic: the Racah sum as
a ``Fraction`` and the radical prefactor as an integer numerator and
denominator from factorials and binomials, combined into the signed square
as one ``Fraction`` at the end.  That value is in lowest terms, so ``cg``
wraps it in a ``Surd`` through the trusted ``Surd._raw``, and ``three_j``
scales that ``cg`` value by one ``Fraction`` division into one more trusted
``Surd``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from .numerics import DomainError, HalfInt, Surd, _set, _Value, check_momentum_pair, short_str


class CgArgs(_Value):
    """Arguments of a single coefficient <j1 m1 j2 m2 | j m>."""

    __slots__ = ("j1", "m1", "j2", "m2", "j", "m")

    def __init__(
        self, j1: HalfInt, m1: HalfInt, j2: HalfInt, m2: HalfInt, j: HalfInt, m: HalfInt
    ) -> None:
        check_momentum_pair(j1, m1, "(j1, m1)")
        check_momentum_pair(j2, m2, "(j2, m2)")
        check_momentum_pair(j, m, "(j, m)")
        _set(self, "j1", j1)
        _set(self, "m1", m1)
        _set(self, "j2", j2)
        _set(self, "m2", m2)
        _set(self, "j", j)
        _set(self, "m", m)

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


def _totals(tjs: Sequence[int]) -> range:
    """The n-momentum ladder: the twice totals that momenta of twice values tjs couple to.

    With S the sum of tjs, twice J runs from max(2 max(tjs) - S, S mod 2) to
    S in steps of 2.  For two momenta this is _ladder, which the kernel keeps
    for its speed.  tjs must be nonempty.
    """
    total = sum(tjs)
    return range(max(2 * max(tjs) - total, total % 2), total + 1, 2)


def _selection_ok(tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int) -> bool:
    """m = m1+m2 and j on the ladder of j1 and j2, on twice-arguments."""
    return tm == tm1 + tm2 and tj in _ladder(tj1, tj2)


def _radical_prefactor(
    tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int
) -> tuple[int, int]:
    # numerator and denominator, not in lowest terms, of
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
    return num, den


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
    p, q = total.numerator, total.denominator
    if not p:
        return Fraction(0)
    # sign(total) * total**2 * prefactor, reduced once
    num, den = _radical_prefactor(tj1, tm1, tj2, tm2, tj, tm)
    return Fraction((p if p > 0 else -p) * p * num, q * q * den)


def cg(args: CgArgs) -> Surd:
    """Exact coefficient; zero (not an error) outside the selection rules."""
    value = _cg_signed_square(*args.twices())
    # the kernel's Fraction is already in lowest terms, so the Surd needs no check
    sign = (value.numerator > 0) - (value.numerator < 0)
    return Surd._raw(sign, -value if sign < 0 else value)


def cg_normalization_sum(j1: HalfInt, m1: HalfInt, j2: HalfInt, m2: HalfInt) -> Fraction:
    """Sum over all total (j, m) of |C|^2; equals 1 exactly."""
    check_momentum_pair(j1, m1, "(j1, m1)")
    check_momentum_pair(j2, m2, "(j2, m2)")
    total = Fraction(0)
    for tj in _ladder(j1.twice, j2.twice):
        for tm in range(-tj, tj + 1, 2):
            total += abs(_cg_signed_square(j1.twice, m1.twice, j2.twice, m2.twice, tj, tm))
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
    if type(m3) is not HalfInt:  # refused as given, before it is negated
        check_momentum_pair(j3, m3, "(j, m)")
    value = cg(CgArgs(j1, m1, j2, m2, j3, -m3))
    return Surd._raw(
        *_three_j_from_cg(value.sign, value.radicand, j1.twice, j2.twice, j3.twice, m3.twice)
    )


# ---------------------------------------------------------------------------
# Regge magic squares


class RSymbol(_Value):
    """3x3 magic square of nonnegative integers encoding a 3j symbol.

    Column i holds j_i + m_i and j_i - m_i in rows 2 and 3.
    """

    __slots__ = ("rows",)

    def __init__(
        self, rows: tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]
    ) -> None:
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise DomainError("R-symbol needs a 3x3 matrix")
        entries = [x for row in rows for x in row]
        if any(not isinstance(x, int) or x < 0 for x in entries):
            raise DomainError(f"R-symbol entries must be nonnegative integers: {short_str(rows)}")
        sums = [sum(r) for r in rows] + [sum(col) for col in zip(*rows)]
        if len(set(sums)) != 1:
            raise DomainError(f"row/column sums differ: {short_str(sums)}")
        _set(self, "rows", rows)

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
    # on the ladder, every entry of the first row is a nonnegative integer
    if c.twice not in _ladder(a.twice, b.twice):
        raise DomainError(
            f"{short_str(c)} not an allowed coupling of {short_str(a)} and {short_str(b)}"
        )
    rows = (
        tuple((sum(tjs) - 2 * tj) // 2 for tj in tjs),
        tuple((tj + tm) // 2 for tj, tm in zip(tjs, tms)),
        tuple((tj - tm) // 2 for tj, tm in zip(tjs, tms)),
    )
    return RSymbol(rows)


class ReggeAuditEntry(_Value):
    """One orbit element, its transform: the claimed epsilon multiplier vs the actual one."""

    __slots__ = ("transform", "claimed", "actual")

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
    rule is correct.  Each transform permutes, as plain integers, the one
    square regge_symbol checked; the first, the identity, gives the base.
    """
    square = regge_symbol(a, alpha, b, beta, c, gamma).rows
    entries = []
    for name, claimed, (tj1, tm1, tj2, tm2, tj3, tm3) in _orbit_arguments(square):
        value = _cg_signed_square(tj1, tm1, tj2, tm2, tj3, -tm3)
        sign, radicand = _three_j_from_cg(1 if value > 0 else -1, abs(value), tj1, tj2, tj3, tm3)
        if not entries:  # _ORBIT's first element, the identity: the base
            if not radicand:
                raise DomainError("orbit audit needs a nonzero base 3j value")
            base = Surd._raw(sign, radicand)
        elif radicand != base.radicand:
            changed = Surd.from_signed_square(sign * radicand)
            raise DomainError(f"transform {name} changed the magnitude: {changed} vs {base}")
        entries.append(ReggeAuditEntry(name, claimed, sign * base.sign))
    return entries
