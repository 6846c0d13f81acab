"""Acceptance gate: every criterion as one test, printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All value checks are exact (zero tolerance); the stated runtime
budgets are asserted as well.
"""

import itertools
import subprocess
import sys
import time
from fractions import Fraction

from jcouple.coupling import (
    CouplingChain,
    enumerate_chains,
    enumerate_coupling_trees,
    jmax,
    jmin,
)
from jcouple.kepler import (
    KramersVerdict,
    Statistics,
    degeneracy_enumerated,
    degeneracy_paper,
    energy_level,
    kramers_applicability,
    so4_split_check,
    spectrum,
)
from jcouple.numerics import (
    GaussianRational,
    HalfInt,
    PhasedSurdSum,
    Surd,
    halfint_range,
    parse_halfint,
    projection_range,
)
from jcouple.particles import Leaf, Node, is_fermion
from jcouple.timerev import (
    audit_first_symmetry,
    audit_second_symmetry,
    check_compatibility,
    coupled_univalence,
    kramers_overlap,
    t_squared_sign,
)
from jcouple.wigner import CgArgs, _ladder, cg, cg_normalization_sum, regge_orbit_audit, three_j

from oracles import brute_force_totals, oracle_cg_table

H = parse_halfint

ONE = PhasedSurdSum({1: Fraction(1)})


class _Criterion:
    """Times a criterion body and prints its verdict line."""

    def __init__(self, number, name, budget=None):
        self.number = number
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:02d} ({self.name}): {status} [{elapsed:.2f}s]")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.number} took {elapsed:.2f}s, budget {self.budget}s"
            )
        return False


def _js_tuples(n, tmax):
    values = [HalfInt(t) for t in range(tmax + 1)]
    return itertools.product(values, repeat=n)


def _chains_up_to(max_n, tmax, half_odd_total_only=False):
    for n in range(1, max_n + 1):
        for js in _js_tuples(n, tmax):
            chains = (
                [CouplingChain(js, (), js[0])] if n == 1 else enumerate_chains(js)
            )
            for chain in chains:
                if half_odd_total_only and not chain.total_j.is_half_odd:
                    continue
                yield chain


def test_criterion_01_cg_matches_oracle():
    with _Criterion(1, "cg equals the J^2-diagonalization oracle", budget=5.0):
        for tj1, tj2 in itertools.product(range(4), repeat=2):
            table = oracle_cg_table(tj1, tj2)
            j1, j2 = HalfInt(tj1), HalfInt(tj2)
            for j in map(HalfInt, _ladder(tj1, tj2)):
                for m in projection_range(j):
                    for m1 in projection_range(j1):
                        tm2 = m.twice - m1.twice
                        if abs(tm2) > tj2:
                            continue
                        args = CgArgs(j1, m1, j2, HalfInt(tm2), j, m)
                        expected = table.get(
                            (j.twice, m.twice, m1.twice, tm2), Surd.zero()
                        )
                        assert cg(args) == expected, args


def _generalized_norms(js):
    """Per fixed projection tuple: sum over intermediates, total j and m of |C|^2."""
    level = {(js[0].twice, m.twice): {(m.twice,): Fraction(1)} for m in projection_range(js[0])}
    for jk in js[1:]:
        grown = {}
        for (tjp, tmp), prefixes in level.items():
            jp, mp = HalfInt(tjp), HalfInt(tmp)
            for mk in projection_range(jk):
                tm_new = tmp + mk.twice
                for jn in map(HalfInt, _ladder(tjp, jk.twice)):
                    if abs(tm_new) > jn.twice:
                        continue
                    square = cg(CgArgs(jp, mp, jk, mk, jn, HalfInt(tm_new))).radicand
                    if square == 0:
                        continue
                    bucket = grown.setdefault((jn.twice, tm_new), {})
                    for prefix, weight in prefixes.items():
                        key = prefix + (mk.twice,)
                        bucket[key] = bucket.get(key, Fraction(0)) + weight * square
        level = grown
    totals = {}
    for prefixes in level.values():
        for prefix, weight in prefixes.items():
            totals[prefix] = totals.get(prefix, Fraction(0)) + weight
    return totals


def test_criterion_02_normalization():
    with _Criterion(2, "probability normalization, single and generalized", budget=30.0):
        for tj1, tj2 in itertools.product(range(5), repeat=2):
            for tm1 in range(-tj1, tj1 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    value = cg_normalization_sum(
                        HalfInt(tj1), HalfInt(tm1), HalfInt(tj2), HalfInt(tm2)
                    )
                    assert value == 1
        for n in (2, 3, 4):
            for js in _js_tuples(n, 3):
                totals = _generalized_norms(js)
                expected_keys = {
                    tuple(m.twice for m in ms)
                    for ms in itertools.product(*(projection_range(j) for j in js))
                }
                assert set(totals) == expected_keys
                assert all(value == 1 for value in totals.values())


def test_criterion_03_scheme_counts():
    with _Criterion(3, "coupling-scheme counts are (2n-3)!!", budget=5.0):
        assert [len(enumerate_coupling_trees(n)) for n in range(2, 7)] == [
            1,
            3,
            15,
            105,
            945,
        ]


def test_criterion_04_jmin_jmax_recursion():
    with _Criterion(4, "jmin/jmax match brute-force composition", budget=10.0):
        for n in (2, 3, 4):
            for js in _js_tuples(n, 5):
                totals = brute_force_totals(js)
                assert jmin(js).twice == min(totals)
                assert jmax(js).twice == max(totals)


def test_criterion_05_univalence_and_compatibility():
    with _Criterion(5, "univalence and compatibility over the grid", budget=10.0):
        for n in (2, 3, 4):
            for js in _js_tuples(n, 3):
                univalence = coupled_univalence(js)
                for j in halfint_range(jmin(js), jmax(js)):
                    assert univalence == t_squared_sign(j)
                    assert check_compatibility(js, j)


def test_criterion_06_kramers_orthogonality():
    with _Criterion(6, "Kramers overlap is the empty sum on half-odd totals", budget=30.0):
        for chain in _chains_up_to(3, 3, half_odd_total_only=True):
            for m in projection_range(chain.total_j):
                assert kramers_overlap(chain, m).is_zero


def test_criterion_07_first_symmetry_audit():
    with _Criterion(7, "first-symmetry ratio and its divergence from the claim"):
        singlet_diverged = False
        divergences = 0
        for chain in _chains_up_to(3, 3):
            exponent = (sum(j.twice for j in chain.js) - chain.total_j.twice) // 2
            expected = -1 if exponent % 2 else 1
            for ms in itertools.product(*(projection_range(j) for j in chain.js)):
                total = sum(m.twice for m in ms)
                if abs(total) > chain.total_j.twice:
                    continue
                audit = audit_first_symmetry(chain, ms, HalfInt(total))
                if audit.ratio is None:
                    assert audit.rhs.is_zero
                    continue
                assert audit.ratio == expected
                if audit.verdict == "diverge":
                    divergences += 1
                    if chain.js == (H("1/2"), H("1/2")) and chain.total_j == H("0"):
                        singlet_diverged = True
        assert divergences > 0
        assert singlet_diverged


def test_criterion_08_second_symmetry_audit():
    with _Criterion(8, "second-symmetry: same-state zero, paper-literal value i"):
        for chain in _chains_up_to(3, 3, half_odd_total_only=True):
            for m in projection_range(chain.total_j):
                assert audit_second_symmetry(chain, m, "same-state").is_zero
        value = audit_second_symmetry(
            CouplingChain((H("1/2"), H("1")), (), H("1/2")), H("1/2"), "paper-literal"
        )
        assert value == PhasedSurdSum({1: GaussianRational(Fraction(0), Fraction(1))})


def test_criterion_09_regge_audit():
    with _Criterion(9, "Regge orbit multipliers and the epsilon-rule divergence", budget=10.0):
        flagged = False
        for ta, tb, tc in itertools.product(range(5), repeat=3):
            if tc < abs(ta - tb) or tc > ta + tb or (ta + tb + tc) % 2:
                continue
            univalence = -1 if ((ta + tb + tc) // 2) % 2 else 1
            a, b, c = HalfInt(ta), HalfInt(tb), HalfInt(tc)
            for talpha in range(-ta, ta + 1, 2):
                for tbeta in range(-tb, tb + 1, 2):
                    tgamma = -talpha - tbeta
                    if abs(tgamma) > tc:
                        continue
                    alpha, beta, gamma = HalfInt(talpha), HalfInt(tbeta), HalfInt(tgamma)
                    if three_j(a, alpha, b, beta, c, gamma).is_zero:
                        continue
                    for entry in regge_orbit_audit(a, alpha, b, beta, c, gamma):
                        if entry.transform == "transpose" or entry.claimed == 1:
                            assert entry.actual == 1
                        else:
                            assert entry.actual == univalence
        entries = regge_orbit_audit(H("1"), H("1"), H("1"), H("1"), H("2"), H("-2"))
        flagged = any(not e.agrees for e in entries if e.claimed == -1)
        assert flagged


def test_criterion_10_so4_split():
    with _Criterion(10, "SO(4) split closes onto the compact commutator form", budget=5.0):
        for z in (1, 2, 3):
            report = so4_split_check(z)
            assert report.ok
            assert report.checked == 36 * z * z


def test_criterion_11_kepler_tables():
    with _Criterion(11, "Kepler energies and the degeneracy divergences", budget=5.0):
        assert energy_level(H("1/2")) == Fraction(-1, 16)
        assert energy_level(H("1")) == Fraction(-1, 9)
        half = (H("1/2"),)
        one = (H("1"),)
        assert degeneracy_paper(half, Statistics.BOSON0) == 4
        assert degeneracy_enumerated(half, Statistics.BOSON0) == 4
        boson = {level.js: level for level in spectrum(1, H("1"), Statistics.BOSON0)}
        assert not boson[half].diverges
        assert (boson[one].degeneracy_paper, boson[one].degeneracy_enumerated) == (6, 9)
        assert boson[one].diverges
        fermion = {
            level.js: level for level in spectrum(1, H("1/2"), Statistics.FERMION_HALF)
        }
        assert (
            fermion[half].degeneracy_paper,
            fermion[half].degeneracy_enumerated,
        ) == (6, 8)
        assert fermion[half].diverges


def test_criterion_12_kramers_applicability():
    with _Criterion(12, "Kramers applicability and even enumerated counts", budget=5.0):
        for z in (1, 3):
            verdict = kramers_applicability(z, Statistics.FERMION_HALF)
            assert verdict is KramersVerdict.GUARANTEED_DOUBLE
            for level in spectrum(z, H("3/2"), Statistics.FERMION_HALF):
                assert level.degeneracy_enumerated % 2 == 0
        assert (
            kramers_applicability(2, Statistics.FERMION_HALF)
            is KramersVerdict.NOT_INFERABLE
        )
        for z in (1, 2, 3):
            assert kramers_applicability(z, Statistics.BOSON0) is KramersVerdict.NOT_INFERABLE


def test_criterion_13_fermionq_decompositions():
    with _Criterion(13, "helium classification independent of decomposition", budget=1.0):
        F = Leaf(-1)
        he4 = [
            Node((F,) * 6),  # 2p + 2n + 2e
            Node((F,) * 14),  # 2e + 12 quarks
            Node((Node((F, F, F)), Node((F, F, F)), Node((F, F, F)), Node((F, F, F)), F, F)),
        ]
        he3 = [
            Node((F,) * 5),  # 2p + 1n + 2e
            Node((F,) * 11),  # 2e + 5u + 4d
            Node((Node((F, F, F)), Node((F, F, F)), Node((F, F, F)), F, F)),
        ]
        assert all(not is_fermion(p) for p in he4)
        assert all(is_fermion(p) for p in he3)


def test_criterion_14_cli_determinism():
    with _Criterion(14, "repeated CLI invocations are byte-identical"):
        fixed = [
            ["cg", "--j1", "1/2", "--m1", "1/2", "--j2", "1/2", "--m2", "-1/2", "--j", "0", "--m", "0"],
            ["schemes", "--n", "5", "--count-only"],
            ["kepler", "--z", "2", "--jcut", "1", "--stats", "fermion"],
            ["verify", "--prop", "first-sym", "--grid", "n=2,jmax=1"],
        ]
        for argv in fixed:
            first, second = (
                subprocess.run(
                    [sys.executable, "-m", "jcouple", *argv],
                    capture_output=True,
                    check=True,
                )
                for _ in range(2)
            )
            assert first.stdout == second.stdout
            assert first.stdout
