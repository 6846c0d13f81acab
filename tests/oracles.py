"""Independent exact oracles the test-suite checks the library against.

The coupling-coefficient oracle never touches the closed-form evaluation
path: it builds the total-J-squared matrix over a rationally-scaled product
basis (where every entry is an exact Fraction), reads each top state off the
one-dimensional kernel, fixes its sign by making the largest-m1 component
positive, and walks down in m with the exact lowering action.

The operator oracle works in the same scaled basis, |m>' = J-**(j-m) |j,j>
per momentum, on which J- lowers with coefficient 1, J+ raises with
``_raise`` and Jz is diagonal.  It builds the Cartesian J_x, J_y, J_z of
each factor of a product of momenta as sparse matrices of exact Gaussian
rationals.  A Kepler level at momentum j is the product of the two spin-j
factors of the hidden SO(4) = SU(2) x SU(2), J_(1) and J_(2), with L =
J_(1) + J_(2) and the scaled Runge-Lenz vector A' = J_(1) - J_(2).  The
scale is real and positive, so complex conjugation in this basis is
conjugation in the standard one, and an antiunitary T = U K is the matrix
U of its unitary part together with entrywise conjugation.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from jcouple.numerics import HalfInt, Surd


def _norm_square(tj: int, tm: int) -> Fraction:
    # squared norm of the lowering-ladder state J-**(j-m) |j,j>
    return Fraction(math.factorial(tj), math.factorial((tj + tm) // 2)) * math.factorial(
        (tj - tm) // 2
    )


def _raise(tj: int, tm: int) -> Fraction:
    # J+ |m>' = (j - m)(j + m + 1) |m+1>' in the scaled basis, as J- |m+1>' = |m>'
    return Fraction((tj - tm) * (tj + tm + 2), 4)


def _block(tj1: int, tj2: int, tm: int) -> list[tuple[int, int]]:
    return [
        (tm1, tm - tm1)
        for tm1 in range(-tj1, tj1 + 1, 2)
        if abs(tm - tm1) <= tj2
    ]


def _j_squared_block(tj1: int, tj2: int, tm: int) -> list[list[Fraction]]:
    basis = _block(tj1, tj2, tm)
    index = {state: i for i, state in enumerate(basis)}
    size = len(basis)
    rows = [[Fraction(0)] * size for _ in range(size)]
    for col, (tm1, tm2) in enumerate(basis):
        diag = Fraction(tj1 * (tj1 + 2) + tj2 * (tj2 + 2) + 2 * tm1 * tm2, 4)
        rows[col][col] += diag
        raise_1 = _raise(tj1, tm1)
        if raise_1 and (tm1 + 2, tm2 - 2) in index:
            rows[index[(tm1 + 2, tm2 - 2)]][col] += raise_1
        raise_2 = _raise(tj2, tm2)
        if raise_2 and (tm1 - 2, tm2 + 2) in index:
            rows[index[(tm1 - 2, tm2 + 2)]][col] += raise_2
    return rows


def _row_reduce(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """The reduced row echelon form of a square matrix and its pivot columns, by exact Gauss-Jordan."""
    n = len(rows)
    a = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, n) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(n):
            if i != r and a[i][c] != 0:
                factor = a[i][c]
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def fraction_kernel(rows: list[list[Fraction]]) -> list[Fraction]:
    """Basis vector of a one-dimensional kernel, by exact Gauss-Jordan."""
    n = len(rows)
    a, pivots = _row_reduce(rows)
    free = [c for c in range(n) if c not in pivots]
    assert len(free) == 1, f"kernel dimension {len(free)}, expected 1"
    v = [Fraction(0)] * n
    v[free[0]] = Fraction(1)
    for row_idx, c in enumerate(pivots):
        v[c] = -a[row_idx][free[0]]
    return v


@lru_cache(maxsize=None)
def oracle_cg_table(tj1: int, tj2: int) -> dict[tuple[int, int, int, int], Surd]:
    """Every coefficient <j1 m1 j2 m2 | j m> for the given pair, exactly."""
    table: dict[tuple[int, int, int, int], Surd] = {}
    for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        eigen = Fraction(tj * (tj + 2), 4)
        basis = _block(tj1, tj2, tj)
        shifted = [
            [entry - (eigen if i == col else 0) for col, entry in enumerate(row)]
            for i, row in enumerate(_j_squared_block(tj1, tj2, tj))
        ]
        kernel = fraction_kernel(shifted)
        components = dict(zip(basis, kernel))
        top_tm1 = max(tm1 for tm1, _ in basis)
        if components[(top_tm1, tj - top_tm1)] < 0:
            components = {state: -x for state, x in components.items()}
        for tm in range(tj, -tj - 1, -2):
            total = Fraction(0)
            for (tm1, tm2), x in components.items():
                total += x * x * _norm_square(tj1, tm1) * _norm_square(tj2, tm2)
            for (tm1, tm2), x in components.items():
                if x == 0:
                    continue
                signed_square = (
                    (1 if x > 0 else -1)
                    * x
                    * x
                    * _norm_square(tj1, tm1)
                    * _norm_square(tj2, tm2)
                    / total
                )
                table[(tj, tm, tm1, tm2)] = Surd.from_signed_square(signed_square)
            lowered: dict[tuple[int, int], Fraction] = {}
            for (tm1, tm2), x in components.items():
                if tm1 - 2 >= -tj1:
                    lowered[(tm1 - 2, tm2)] = lowered.get((tm1 - 2, tm2), Fraction(0)) + x
                if tm2 - 2 >= -tj2:
                    lowered[(tm1, tm2 - 2)] = lowered.get((tm1, tm2 - 2), Fraction(0)) + x
            components = {s: x for s, x in lowered.items() if x != 0}
    return table


def oracle_cg(j1: HalfInt, m1: HalfInt, j2: HalfInt, m2: HalfInt, j: HalfInt, m: HalfInt) -> Surd:
    """Oracle value; exact zero outside the table's support."""
    return oracle_cg_table(j1.twice, j2.twice).get(
        (j.twice, m.twice, m1.twice, m2.twice), Surd.zero()
    )


def brute_force_totals(js) -> set[int]:
    """All reachable total momenta (as twice-values) by composing pair ranges."""
    totals = {js[0].twice}
    for j in js[1:]:
        totals = {
            t
            for partial in totals
            for t in range(abs(partial - j.twice), partial + j.twice + 1, 2)
        }
    return totals


def flip_phase(tjs, partials) -> int:
    """(-1)^(sum j - J) of a chain of twice momenta tjs and twice partial totals partials.

    The product over the coupling steps of each step's projection-flip sign
    (-1)^(J_(k-1) + j_k - J_k), which telescopes.  By column orthonormality
    every paper-literal second-symmetry record is this phase times i^(-2m),
    and the Kramers overlap of an integral total at m = 0 is this phase.
    """
    return -1 if (sum(tjs) - partials[-1]) % 4 else 1


# ---------------------------------------------------------------------------
# exact operators on products of momenta

_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i**k as (re, im)


class Operator:
    """A sparse matrix {(row ket, column ket): (re, im)} of exact Gaussian rationals, no zero entry."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict) -> None:
        self.entries = {key: v for key, v in entries.items() if v != (0, 0)}

    def __add__(self, other: Operator) -> Operator:
        out = dict(self.entries)
        for key, (re, im) in other.entries.items():
            a, b = out.get(key, (0, 0))
            out[key] = (a + re, b + im)
        return Operator(out)

    def __sub__(self, other: Operator) -> Operator:
        return self + other.scaled(-1)

    def scaled(self, re, im=0) -> Operator:
        """(re + i im) times this operator."""
        return Operator(
            {key: (a * re - b * im, a * im + b * re) for key, (a, b) in self.entries.items()}
        )

    def __matmul__(self, other: Operator) -> Operator:
        by_row: dict = {}
        for (mid, col), v in other.entries.items():
            by_row.setdefault(mid, []).append((col, v))
        out: dict = {}
        for (row, mid), (a, b) in self.entries.items():
            for col, (c, d) in by_row.get(mid, ()):
                re, im = out.get((row, col), (0, 0))
                out[(row, col)] = (re + a * c - b * d, im + a * d + b * c)
        return Operator(out)

    def conjugate(self) -> Operator:
        """The entrywise complex conjugate, K A K for the conjugation K of this basis."""
        return Operator({key: (a, -b) for key, (a, b) in self.entries.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Operator) and self.entries == other.entries


def commutator(a: Operator, b: Operator) -> Operator:
    return a @ b - b @ a


def product_kets(tjs: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The scaled product basis of momenta with twice values tjs, as tuples of twice m."""
    return list(itertools.product(*(range(-t, t + 1, 2) for t in tjs)))


def identity(kets: list[tuple[int, ...]]) -> Operator:
    return Operator({(ket, ket): (1, 0) for ket in kets})


def factor_operators(tjs: tuple[int, ...], f: int) -> tuple[Operator, Operator, Operator]:
    """(J_x, J_y, J_z) of factor f of the product of momenta tjs, on the scaled basis.

    J_x = (J+ + J-)/2 and J_y = (J+ - J-)/(2i), from the same ladder as the
    J-squared oracle; every entry is a Fraction or i times one.
    """
    tj = tjs[f]
    up, down, z = {}, {}, {}
    for ket in product_kets(tjs):
        tm = ket[f]
        z[(ket, ket)] = (Fraction(tm, 2), 0)
        if tm < tj:
            up[(ket[:f] + (tm + 2,) + ket[f + 1 :], ket)] = (_raise(tj, tm), 0)
        if tm > -tj:
            down[(ket[:f] + (tm - 2,) + ket[f + 1 :], ket)] = (Fraction(1), 0)
    ladder_up, ladder_down = Operator(up), Operator(down)
    return (
        (ladder_up + ladder_down).scaled(Fraction(1, 2)),
        (ladder_up - ladder_down).scaled(0, Fraction(-1, 2)),
        Operator(z),
    )


def level_operators(tj: int) -> tuple[tuple[Operator, ...], tuple[Operator, ...]]:
    """(J_(1), J_(2)) on the Kepler level (j, j), each as (x, y, z) components."""
    return factor_operators((tj, tj), 0), factor_operators((tj, tj), 1)


def _flip_ratio(tj: int, tm: int) -> Fraction:
    # N_m / N_-m for |m>' = N_m |m>, from _norm_square: (j - m)! / (j + m)!
    return Fraction(math.factorial((tj - tm) // 2), math.factorial((tj + tm) // 2))


def level_time_reversal(tj: int, swap: bool) -> Operator:
    """U of an antiunitary T = U K on the level (j, j), on the scaled basis.

    In the standard basis U|m1 m2> = i^(2(m1+m2)) |-m1, -m2>, T reversing
    each factor within itself, or i^(2(m1+m2)) |-m2, -m1> with swap, T
    exchanging the factors.
    """
    entries = {}
    for tm1, tm2 in product_kets((tj, tj)):
        scale = _flip_ratio(tj, tm1) * _flip_ratio(tj, tm2)
        re, im = _I_POWERS[(tm1 + tm2) % 4]
        target = (-tm2, -tm1) if swap else (-tm1, -tm2)
        entries[(target, (tm1, tm2))] = (re * scale, im * scale)
    return Operator(entries)


def reversal_sends(u: Operator, a: Operator, image: Operator) -> bool:
    """Whether T A T^-1 = image for T = U K, i.e. U conj(A) = image U."""
    return u @ a.conjugate() == image @ u


def nullity(a: Operator, kets: list[tuple[int, ...]]) -> int:
    """Dimension of the kernel of a real operator on the given basis."""
    index = {ket: i for i, ket in enumerate(kets)}
    rows = [[Fraction(0)] * len(kets) for _ in kets]
    for (row, col), (re, im) in a.entries.items():
        assert im == 0, "not a real operator"
        rows[index[row]][index[col]] = Fraction(re)
    return len(kets) - len(_row_reduce(rows)[1])
