"""The Kepler worked example: exact spectra, degeneracy audits, Kramers verdicts.

One particle's bound level at momentum j carries the hidden SO(4) =
SU(2) x SU(2) symmetry: its kets are |j m1>|j m2>, one projection for each
factor J_(1,2) = (L +- M')/2, so the level holds (2j+1)^2 of them.  This
module counts those kets and builds no operator; the su(2)+su(2)
commutation relations are checked on exact J_(1), J_(2) matrices by the
operator oracle in tests/oracles.py.  Degeneracies come in two flavors that
are both first-class: the closed-form counts as printed, and a direct
enumeration of basis kets; they disagree away from j=1/2 at Z=1 and the
divergence is reported, not reconciled.
"""

from __future__ import annotations

import itertools
import math
import sys
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Sequence, TypeVar

from .numerics import (
    DomainError,
    HalfInt,
    _Value,
    check_momenta,
    check_table_size,
    short_str,
)

T = TypeVar("T")


class Statistics(Enum):
    BOSON0 = "boson0"
    FERMION_HALF = "fermionHalf"


class KramersVerdict(Enum):
    GUARANTEED_DOUBLE = "guaranteed_double"
    NOT_INFERABLE = "not_inferable"


def energy_level(j: HalfInt) -> Fraction:
    """Single-particle bound energy -j^2 / (2j+1)^2, exactly as printed.

    The spectrum walk sums these on twice integers; this and the two
    degeneracy functions below are the reference it is tested against.
    """
    check_momenta((j,))
    t = j.twice
    return Fraction(-t * t, 4 * (t + 1) ** 2)


def _check_js(js: Sequence[HalfInt]) -> None:
    if not js:
        raise DomainError("need at least one momentum")
    check_momenta(js)


def degeneracy_paper(js: Sequence[HalfInt], statistics: Statistics) -> int:
    """The closed-form count as printed: 2*prod(2j+1), plus 2Z for fermions."""
    _check_js(js)
    prod = 1
    for j in js:
        prod *= j.twice + 1
    if statistics is Statistics.FERMION_HALF:
        return 2 * len(js) + 2 * prod
    return 2 * prod


def degeneracy_enumerated(js: Sequence[HalfInt], statistics: Statistics) -> int:
    """Direct count of basis kets: both projection families free, spins free."""
    _check_js(js)
    count = 1
    for j in js:
        count *= (j.twice + 1) ** 2
    if statistics is Statistics.FERMION_HALF:
        count *= 2 ** len(js)
    return count


def kramers_applicability(z: int, statistics: Statistics) -> KramersVerdict:
    """Whether double time-reversal symmetry forces even degeneracy.

    Spin-0 bosons always square to +1 on the relevant kets; spin-1/2 fermions
    square to (-1)^Z, so only odd Z yields the guarantee.
    """
    if z < 1:
        raise DomainError("need at least one particle")
    if statistics is Statistics.FERMION_HALF and z % 2 == 1:
        return KramersVerdict.GUARANTEED_DOUBLE
    return KramersVerdict.NOT_INFERABLE


class KeplerLevel(_Value):
    """One j-tuple js with its exact energy, both degeneracy counts and its statistics."""

    __slots__ = ("js", "energy", "degeneracy_paper", "degeneracy_enumerated", "statistics")

    @property
    def diverges(self) -> bool:
        return self.degeneracy_paper != self.degeneracy_enumerated


class MergedKeplerLevel(_Value):
    """Levels of equal energy pooled, with their js_tuples; a view over the per-tuple list."""

    __slots__ = ("energy", "degeneracy_paper", "degeneracy_enumerated", "js_tuples")


def _spectrum_walk(
    z: int, j_cut: HalfInt, statistics: Statistics, make: Callable[[int, int, int, int], T]
) -> Iterator[tuple[tuple[int, ...], T]]:
    """Every tuple of twice values, all at most 2 j_cut, in lexicographic order, with its record.

    The energy and both counts are symmetric in the tuple, so they are
    evaluated once per sorted tuple: ``make(energy_num, energy_den,
    deg_paper, deg_enum)`` runs once per such multiset, with the energy as a
    reduced fraction, and its result, which must not be None, is yielded
    with every ordering.  It is kept only for a multiset of two or more
    distinct values: one of a single value has just one ordering, so at
    z=1 nothing is kept.  The arguments and the guard are checked here,
    before the first tuple.
    """
    if z < 1:
        raise DomainError("need at least one particle")
    if j_cut.twice < 0:
        raise DomainError(f"cutoff must be nonnegative, got {short_str(j_cut)}")
    check_table_size(z, j_cut.twice + 1, "spectrum")  # z per level, (2jcut+1)**z levels
    return _walk(z, j_cut.twice, statistics is Statistics.FERMION_HALF, make)


def _walk(
    z: int, twice_cut: int, fermion: bool, make: Callable[[int, int, int, int], T]
) -> Iterator[tuple[tuple[int, ...], T]]:
    levels = range(twice_cut + 1)
    if z == 1:
        # each value is a multiset of its own, with one ordering: nothing is kept
        for t in levels:
            yield (t,), make(*_multiset_fields((t,), fermion))
        return
    records: dict[tuple[int, ...], T] = {}
    for ts in itertools.product(levels, repeat=z):
        key = tuple(sorted(ts))
        record = records.get(key)
        if record is None:
            record = make(*_multiset_fields(key, fermion))
            if key[0] != key[-1]:  # a multiset of one value has only this ordering
                records[key] = record
        yield ts, record


def _multiset_fields(key: tuple[int, ...], fermion: bool) -> tuple[int, int, int, int]:
    """(energy num, energy den, deg_paper, deg_enum) of a multiset of twice values.

    The energy is the sum of -t^2 / (4 (t+1)^2) over the twice values t,
    accumulated over the lcm of the denominators, so the denominator stays
    bounded by the distinct values and not by their number, and reduced
    with one gcd at the end.  j=0 adds no energy and a factor 1 to both
    counts, so it is skipped.  ``energy_level``, ``degeneracy_paper`` and
    ``degeneracy_enumerated`` are the reference these values are tested
    against.
    """
    num, den, prod = 0, 1, 1  # prod is prod(2j+1)
    for t in key:
        if t:
            n = t + 1
            d = 4 * n * n
            g = math.gcd(den, d)
            num = num * (d // g) - t * t * (den // g)
            den = den // g * d
            prod *= n
    g = math.gcd(num, den)
    if fermion:
        z = len(key)
        return num // g, den // g, 2 * prod + 2 * z, prod * prod << z
    return num // g, den // g, 2 * prod, prod * prod


def _check_count_digits(z: int, j_cut: HalfInt, fermion: bool) -> None:
    """Refuses a spectrum whose counts pass the interpreter's int-to-str digit limit.

    Every count kepler prints, per level or summed over a merged group, is at
    most that count summed over all levels.  With n = 2 jcut + 1 the sums of
    _multiset_fields' counts are 2 (1 + ... + n)^z, plus 2z n^z for fermions,
    and (1^2 + ... + n^2)^z, times 2^z for fermions.  At the default limit of
    4300 digits the first refusal is the fermion count 2^z at jcut=0 and z=14285.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    n = j_cut.twice + 1
    paper = 2 * (n * (n + 1) // 2) ** z + (2 * z * n**z if fermion else 0)
    enum = (n * (n + 1) * (2 * n + 1) // 6) ** z << (z if fermion else 0)
    count = max(paper, enum)
    # under 2**(3 limit) < 10**limit the power need not be formed
    if limit and count.bit_length() > 3 * limit and count >= 10**limit:
        raise DomainError(
            f"number out of range, too many digits: the degeneracy counts at z={z}, jcut={j_cut}"
        )


def spectrum(z: int, j_cut: HalfInt, statistics: Statistics) -> list[KeplerLevel]:
    """One level per j-tuple with all j <= j_cut, in lexicographic tuple order.

    The walk runs on twice values; the HalfInt momenta and the Fraction
    energies are built here.
    """
    walk = _spectrum_walk(
        z, j_cut, statistics, lambda num, den, *counts: (Fraction(num, den), *counts)
    )
    values = [HalfInt(t) for t in range(j_cut.twice + 1)]
    return [
        KeplerLevel(tuple([values[t] for t in ts]), *fields, statistics) for ts, fields in walk
    ]


def merge_spectrum(levels: Sequence[KeplerLevel]) -> list[MergedKeplerLevel]:
    """Pool equal energies, summing both counts; sorted by ascending energy."""
    groups: dict[Fraction, list[KeplerLevel]] = {}
    for level in levels:
        groups.setdefault(level.energy, []).append(level)
    merged = []
    for energy in sorted(groups):
        bunch = groups[energy]
        merged.append(
            MergedKeplerLevel(
                energy,
                sum(l.degeneracy_paper for l in bunch),
                sum(l.degeneracy_enumerated for l in bunch),
                tuple(l.js for l in bunch),
            )
        )
    return merged
