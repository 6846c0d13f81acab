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

from .numerics import (
    DomainError,
    HalfInt,
    Surd,
    check_momentum_pair,
    halfint_range,
)


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


def allowed_j(j1: HalfInt, j2: HalfInt) -> list[HalfInt]:
    """The total momenta |j1-j2|, |j1-j2|+1, ..., j1+j2."""
    if j1.twice < 0 or j2.twice < 0:
        raise DomainError("momenta must be nonnegative")
    return list(halfint_range(abs(j1 - j2), j1 + j2))


def _selection_ok(tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int) -> bool:
    """m = m1+m2 and j in the unit-step ladder |j1-j2|..j1+j2, on twice-arguments."""
    return tm == tm1 + tm2 and abs(tj1 - tj2) <= tj <= tj1 + tj2 and (tj1 + tj2 - tj) % 2 == 0


def cg_selection_ok(args: CgArgs) -> bool:
    """True iff m = m1+m2 and j sits in the unit-step ladder |j1-j2|..j1+j2."""
    return _selection_ok(*args.twices())


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


def three_j(j1: HalfInt, m1: HalfInt, j2: HalfInt, m2: HalfInt, j3: HalfInt, m3: HalfInt) -> Surd:
    """Wigner 3j symbol (j1 j2 j3; m1 m2 m3) = (-1)^(j1-j2-m3)/sqrt(2j3+1) * <j1 m1 j2 m2|j3, -m3>.

    The phase exponent carries -m3: that is the convention under which the
    full Regge orbit behaves (even permutations and transposition invariant,
    odd permutations scaled by the univalence of j1+j2+j3).
    """
    value = cg(CgArgs(j1, m1, j2, m2, j3, -m3))
    if value.is_zero:
        return Surd.zero()
    phase_twice = j1.twice - j2.twice - m3.twice
    if phase_twice % 2:
        raise DomainError(
            "nonzero coefficient with half-odd phase exponent j1-j2-m3: "
            f"({j1} {j2} {j3}; {m1} {m2} {m3})"
        )
    phase = -1 if (phase_twice // 2) % 2 else 1
    return Surd(phase * value.sign, value.radicand / (j3.twice + 1))


# ---------------------------------------------------------------------------
# Regge magic squares


@dataclass(frozen=True)
class RSymbol:
    """3x3 magic square of nonnegative integers encoding a 3j symbol."""

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

    def to_three_j_args(self) -> tuple[HalfInt, ...]:
        """Recover (j1, m1, j2, m2, j3, m3): column i holds j_i +/- m_i in rows 2, 3."""
        args: list[HalfInt] = []
        for i in range(3):
            args.append(HalfInt(self.rows[1][i] + self.rows[2][i]))
            args.append(HalfInt(self.rows[1][i] - self.rows[2][i]))
        return tuple(args)


def regge_symbol(
    a: HalfInt, alpha: HalfInt, b: HalfInt, beta: HalfInt, c: HalfInt, gamma: HalfInt
) -> RSymbol:
    """Magic square of (a b c; alpha beta gamma); rejects non-triangle input."""
    check_momentum_pair(a, alpha, "(a, alpha)")
    check_momentum_pair(b, beta, "(b, beta)")
    check_momentum_pair(c, gamma, "(c, gamma)")
    if (alpha + beta + gamma).twice != 0:
        raise DomainError("projections must sum to zero")
    first = (-a + b + c, a - b + c, a + b - c)
    second = (a + alpha, b + beta, c + gamma)
    third = (a - alpha, b - beta, c - gamma)
    rows = []
    for row in (first, second, third):
        ints = []
        for entry in row:
            if entry.twice % 2 or entry.twice < 0:
                raise DomainError(
                    f"entry {entry} is not a nonnegative integer; triangle rule violated"
                )
            ints.append(entry.twice // 2)
        rows.append(tuple(ints))
    return RSymbol(tuple(rows))


_EVEN_PERMS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
_ODD_PERMS = ((0, 2, 1), (1, 0, 2), (2, 1, 0))


def _perm_sign(perm: tuple[int, int, int]) -> int:
    return 1 if perm in _EVEN_PERMS else -1


@dataclass(frozen=True)
class ReggeAuditEntry:
    """One orbit element: the claimed epsilon multiplier vs the evaluated one."""

    transform: str
    claimed: int
    actual: int

    @property
    def agrees(self) -> bool:
        return self.claimed == self.actual


def _transformed_squares(rs: RSymbol) -> list[tuple[str, int, RSymbol]]:
    out: list[tuple[str, int, RSymbol]] = [("identity", 1, rs)]
    for perm in sorted(_EVEN_PERMS + _ODD_PERMS):
        if perm == (0, 1, 2):
            continue
        name = "".join(str(i + 1) for i in perm)
        out.append((f"rows:{name}", _perm_sign(perm), RSymbol(tuple(rs.rows[i] for i in perm))))
    for perm in sorted(_EVEN_PERMS + _ODD_PERMS):
        if perm == (0, 1, 2):
            continue
        name = "".join(str(i + 1) for i in perm)
        cols = tuple(tuple(row[i] for i in perm) for row in rs.rows)
        out.append((f"cols:{name}", _perm_sign(perm), RSymbol(cols)))
    transposed = tuple(tuple(rs.rows[j][i] for j in range(3)) for i in range(3))
    out.append(("transpose", 1, RSymbol(transposed)))
    return out


def regge_orbit_audit(
    a: HalfInt, alpha: HalfInt, b: HalfInt, beta: HalfInt, c: HalfInt, gamma: HalfInt
) -> list[ReggeAuditEntry]:
    """Evaluate the 12 representative orbit transforms against the epsilon rule.

    The multiplier of each transformed 3j relative to the base is computed by
    exact evaluation on both sides; nothing is assumed about which symmetry
    rule is correct.
    """
    base = three_j(a, alpha, b, beta, c, gamma)
    if base.is_zero:
        raise DomainError("orbit audit needs a nonzero base 3j value")
    rs = regge_symbol(a, alpha, b, beta, c, gamma)
    entries = []
    for name, claimed, square in _transformed_squares(rs):
        value = three_j(*square.to_three_j_args())
        if value.radicand != base.radicand:
            raise DomainError(
                f"transform {name} changed the magnitude: {value} vs {base}"
            )
        entries.append(ReggeAuditEntry(name, claimed, value.sign * base.sign))
    return entries
