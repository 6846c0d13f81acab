import csv
import io
import itertools
import json
import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcouple.cli import main
from jcouple.kepler import (
    KeplerLevel,
    KramersVerdict,
    Statistics,
    _check_count_digits,
    _spectrum_walk,
    degeneracy_enumerated,
    degeneracy_paper,
    energy_level,
    kramers_applicability,
    merge_spectrum,
    spectrum,
)
from jcouple.numerics import DomainError, HalfInt, parse_halfint

from oracles import (
    identity,
    level_operators,
    level_time_reversal,
    product_kets,
    reversal_sends,
)

H = parse_halfint


class TestEnergy:
    def test_values(self):
        assert energy_level(H("1/2")) == Fraction(-1, 16)
        assert energy_level(H("1")) == Fraction(-1, 9)
        assert energy_level(H("0")) == 0

    def test_strictly_decreasing(self):
        previous = None
        for twice in range(41):
            value = energy_level(HalfInt(twice))
            if previous is not None:
                assert value < previous
            previous = value


class TestDegeneracies:
    def test_paper_formulas(self):
        assert degeneracy_paper((H("1/2"),), Statistics.BOSON0) == 4
        assert degeneracy_paper((H("1/2"),), Statistics.FERMION_HALF) == 6
        assert degeneracy_paper((H("1/2"), H("1")), Statistics.BOSON0) == 12

    def test_enumerated_counts(self):
        assert degeneracy_enumerated((H("1/2"),), Statistics.BOSON0) == 4
        assert degeneracy_enumerated((H("1"),), Statistics.BOSON0) == 9
        assert degeneracy_enumerated((H("1/2"),), Statistics.FERMION_HALF) == 8

    def test_coincidence_only_at_z_one(self):
        for z in (1, 2, 3):
            js = tuple([H("1/2")] * z)
            paper = degeneracy_paper(js, Statistics.BOSON0)
            enum = degeneracy_enumerated(js, Statistics.BOSON0)
            assert (paper == enum) == (z == 1)


class TestSpectrum:
    def test_counts_past_the_digit_limit_are_built(self):
        # the digit bound belongs to the kepler command, which refuses this request
        (level,) = spectrum(14285, H("0"), Statistics.FERMION_HALF)
        assert level.degeneracy_enumerated == 2**14285
        with pytest.raises(DomainError, match="too many digits"):
            _check_count_digits(14285, H("0"), True)

    def test_z1_boson_levels(self):
        levels = spectrum(1, H("1"), Statistics.BOSON0)
        assert [level.energy for level in levels] == [
            Fraction(0),
            Fraction(-1, 16),
            Fraction(-1, 9),
        ]

    def test_z2_pair_energy(self):
        levels = spectrum(2, H("1/2"), Statistics.BOSON0)
        by_tuple = {level.js: level for level in levels}
        assert by_tuple[(H("1/2"), H("1/2"))].energy == Fraction(-1, 8)

    def test_divergence_flags(self):
        boson = {level.js: level for level in spectrum(1, H("1"), Statistics.BOSON0)}
        assert not boson[(H("1/2"),)].diverges
        assert boson[(H("1"),)].diverges
        fermion = {level.js: level for level in spectrum(1, H("1/2"), Statistics.FERMION_HALF)}
        assert fermion[(H("1/2"),)].degeneracy_paper == 6
        assert fermion[(H("1/2"),)].degeneracy_enumerated == 8
        assert fermion[(H("1/2"),)].diverges

    def test_merged_energies_unique(self):
        levels = spectrum(2, H("3/2"), Statistics.BOSON0)
        merged = merge_spectrum(levels)
        energies = [m.energy for m in merged]
        assert len(energies) == len(set(energies))
        assert sum(m.degeneracy_paper for m in merged) == sum(
            level.degeneracy_paper for level in levels
        )

    def test_guard(self):
        with pytest.raises(DomainError):
            spectrum(1, HalfInt(2 * 10**6), Statistics.BOSON0)

    def test_guard_counts_levels_built(self):
        # 20 * 2**20 entries; a guard on z * (2jcut+1) = 40 would build 1M levels
        start = time.perf_counter()
        with pytest.raises(DomainError, match="enumeration guard"):
            spectrum(20, H("1/2"), Statistics.BOSON0)
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=30, deadline=None)
    @given(
        z=st.integers(min_value=1, max_value=4),
        twice_cut=st.integers(min_value=0, max_value=4),
        statistics=st.sampled_from(list(Statistics)),
    )
    def test_guard_product_counts_entries(self, z, twice_cut, statistics):
        levels = spectrum(z, HalfInt(twice_cut), statistics)
        assert z * (twice_cut + 1) ** z == sum(len(level.js) for level in levels)


def reference_spectrum(z, j_cut, statistics):
    """spectrum() as a per-tuple loop: every tuple evaluates its own energy and counts."""
    values = [HalfInt(t) for t in range(0, j_cut.twice + 1)]
    energies = [energy_level(j) for j in values]
    return [
        KeplerLevel(
            js,
            sum((energies[j.twice] for j in js), Fraction(0)),
            degeneracy_paper(js, statistics),
            degeneracy_enumerated(js, statistics),
            statistics,
        )
        for js in itertools.product(values, repeat=z)
    ]


def _energy(value):
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _names(js):
    return [str(j) for j in js]


def _kepler_argv(z, twice_cut, statistics):
    stats = "boson" if statistics is Statistics.BOSON0 else "fermion"
    return ["kepler", "--z", str(z), "--jcut", str(HalfInt(twice_cut)), "--stats", stats]


AGREEMENT = pytest.mark.parametrize(
    "z, twice_cut, statistics",
    [
        (z, twice_cut, statistics)
        for z in (1, 2, 3)
        for twice_cut in range(6)
        for statistics in Statistics
    ]
    + [(4, twice_cut, statistics) for twice_cut in range(4) for statistics in Statistics],
)


def walked_tuples(walk):
    """The walk's (tuple, record) pairs: each prefix followed by every last value of its row."""
    return [(prefix + (t,), record) for prefix, row in walk for t, record in enumerate(row)]


class TestStreamedSpectrum:
    """The once-per-multiset walk agrees with a per-tuple loop, and the streamed
    CLI text with spectrum() and merge_spectrum().  z=2 and z=3 at 2 jcut=5
    have multisets of equal energy, e.g. {0, 5/2} and {1/2, 1}."""

    @AGREEMENT
    def test_spectrum_matches_per_tuple_loop(self, z, twice_cut, statistics):
        j_cut = HalfInt(twice_cut)
        assert spectrum(z, j_cut, statistics) == reference_spectrum(z, j_cut, statistics)

    @AGREEMENT
    def test_json_matches_spectrum(self, capsys, z, twice_cut, statistics):
        assert main(_kepler_argv(z, twice_cut, statistics)) == 0
        payload = json.loads(capsys.readouterr().out)
        levels = spectrum(z, HalfInt(twice_cut), statistics)
        assert payload["levels"] == [
            {
                "js": _names(level.js),
                "energy": _energy(level.energy),
                "approx": float(level.energy),
                "deg_paper": level.degeneracy_paper,
                "deg_enum": level.degeneracy_enumerated,
                "diverges": level.diverges,
            }
            for level in levels
        ]
        assert payload["merged"] == [
            {
                "energy": _energy(m.energy),
                "approx": float(m.energy),
                "deg_paper": m.degeneracy_paper,
                "deg_enum": m.degeneracy_enumerated,
                "tuples": [_names(js) for js in m.js_tuples],
            }
            for m in merge_spectrum(levels)
        ]

    @AGREEMENT
    def test_csv_matches_spectrum(self, capsys, z, twice_cut, statistics):
        assert main([*_kepler_argv(z, twice_cut, statistics), "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        verdict = kramers_applicability(z, statistics).value
        header = ["j_tuple", "energy_num", "energy_den", "deg_paper", "deg_enum", "kramers"]
        assert rows[0] == header
        assert rows[1:] == [
            [
                ";".join(_names(level.js)),
                str(level.energy.numerator),
                str(level.energy.denominator),
                str(level.degeneracy_paper),
                str(level.degeneracy_enumerated),
                verdict,
            ]
            for level in spectrum(z, HalfInt(twice_cut), statistics)
        ]


class TestOncePerMultiset:
    """The walk calls make once per multiset of j values, with its sorted
    tuple, and hands its result to every ordering: C(2 jcut + z, z) calls
    over (2 jcut + 1)^z tuples, yielded in lexicographic order, and the keys
    come in the order of itertools.combinations_with_replacement, also at
    z = 5 and 6, where each record is five and six one-value steps below the
    tree's root."""

    @pytest.mark.parametrize(
        "z, twice_cut, statistics",
        [
            (z, twice_cut, statistics)
            for z in (1, 2, 3, 4)
            for twice_cut in range(5)
            for statistics in Statistics
        ]
        + [
            (z, twice_cut, statistics)
            for z in (5, 6)
            for twice_cut in range(4)
            for statistics in Statistics
        ],
    )
    def test_make_runs_once_per_multiset(self, z, twice_cut, statistics):
        j_cut = HalfInt(twice_cut)
        made = []

        def make(num, den, paper, enum, key):
            made.append((num, den, paper, enum, key))
            return made[-1]

        walk = walked_tuples(_spectrum_walk(z, j_cut, statistics, make))
        assert len(made) == math.comb(twice_cut + z, z)
        keys = itertools.combinations_with_replacement(range(twice_cut + 1), z)
        assert [record[4] for record in made] == list(keys)
        assert len(walk) == (twice_cut + 1) ** z
        assert [js for js, _ in walk] == list(itertools.product(range(twice_cut + 1), repeat=z))
        by_multiset = {}
        for js, record in walk:
            assert by_multiset.setdefault(tuple(sorted(js)), record) is record
        assert len(by_multiset) == len(made)
        assert all(record[4] == key for key, record in by_multiset.items())
        assert spectrum(z, j_cut, statistics) == reference_spectrum(z, j_cut, statistics)

    def test_one_particle_walk_keeps_no_record(self):
        # a multiset of one value has one ordering, so its record is not kept,
        # and the levels stream: keeping all 100,000 records peaked about 30 MB,
        # and itertools.product's copy of range(100,000) about 4 MB
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            for _, row in _spectrum_walk(1, HalfInt(99_999), Statistics.BOSON0, lambda *f: f):
                for _ in row:
                    pass
            walk = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert walk < 1 << 20


class TestIntegerWalk:
    """The walk's integer energy and counts against the HalfInt/Fraction reference
    functions, on every multiset with z <= 4 and 2 jcut <= 7, and with z = 5, 6
    and 2 jcut <= 3, where a record's energy and counts are carried through
    five and six one-value steps: the energy is the reduced fraction of the
    summed energy_level values, the counts are degeneracy_paper and
    degeneracy_enumerated of the momenta, and the key is the sorted tuple."""

    @pytest.mark.parametrize(
        "z, twice_cut, statistics",
        [
            (z, twice_cut, statistics)
            for z in (1, 2, 3, 4)
            for twice_cut in range(8)
            for statistics in Statistics
        ]
        + [
            (z, twice_cut, statistics)
            for z in (5, 6)
            for twice_cut in range(4)
            for statistics in Statistics
        ],
    )
    def test_fields_match_reference(self, z, twice_cut, statistics):
        walk = _spectrum_walk(z, HalfInt(twice_cut), statistics, lambda *fields: fields)
        checked = set()
        for ts, (num, den, paper, enum, multiset) in walked_tuples(walk):
            key = tuple(sorted(ts))
            if key in checked:
                continue
            checked.add(key)
            js = tuple(HalfInt(t) for t in key)
            assert Fraction(num, den) == sum(map(energy_level, js), Fraction(0))
            assert den > 0 and math.gcd(num, den) == 1
            assert paper == degeneracy_paper(js, statistics)
            assert enum == degeneracy_enumerated(js, statistics)
            assert multiset == key
        assert len(checked) == math.comb(twice_cut + z, z)


class TestKramers:
    def test_applicability(self):
        assert (
            kramers_applicability(1, Statistics.FERMION_HALF)
            is KramersVerdict.GUARANTEED_DOUBLE
        )
        assert (
            kramers_applicability(2, Statistics.FERMION_HALF)
            is KramersVerdict.NOT_INFERABLE
        )
        assert kramers_applicability(3, Statistics.BOSON0) is KramersVerdict.NOT_INFERABLE

    def test_guaranteed_double_spectra_have_even_counts(self):
        for z in (1, 3):
            assert (
                kramers_applicability(z, Statistics.FERMION_HALF)
                is KramersVerdict.GUARANTEED_DOUBLE
            )
            for level in spectrum(z, H("3/2"), Statistics.FERMION_HALF):
                assert level.degeneracy_enumerated % 2 == 0


class TestLevelTimeReversal:
    """Antiunitaries T = U K on one level (j, j): L = J_(1) + J_(2), A' = J_(1) - J_(2)."""

    @pytest.mark.parametrize("swap", [False, True], ids=["per-factor", "swap"])
    @pytest.mark.parametrize("tj", range(5))
    def test_squares_to_one_and_reverses_l(self, tj, swap):
        u = level_time_reversal(tj, swap)
        assert u @ u.conjugate() == identity(product_kets((tj, tj)))
        for a, b in zip(*level_operators(tj)):
            assert reversal_sends(u, a + b, (a + b).scaled(-1))

    @pytest.mark.parametrize("tj", range(1, 5))
    def test_only_the_swap_keeps_a_prime_even(self, tj):
        swap, per_factor = (level_time_reversal(tj, s) for s in (True, False))
        for a, b in zip(*level_operators(tj)):
            # the swap sends J_(1) to -J_(2), as the Runge-Lenz vector must stay even
            assert reversal_sends(swap, a, b.scaled(-1))
            assert reversal_sends(swap, a - b, a - b)
            assert reversal_sends(per_factor, a - b, b - a)
            assert not reversal_sends(per_factor, a - b, a - b)
