"""Third-party cross-checks against sympy, skipped when sympy is absent.

The in-repo oracle is the authority for the suite; these tests only guard
against a shared convention mistake by comparing exact values with an
independent ecosystem implementation on randomized inputs.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy import Rational, S, nsimplify, sqrt  # noqa: E402
from sympy.physics.quantum.cg import CG  # noqa: E402
from sympy.physics.wigner import wigner_3j  # noqa: E402

from jcouple.numerics import HalfInt  # noqa: E402
from jcouple.wigner import CgArgs, cg, regge_orbit_audit, three_j  # noqa: E402


def _as_sympy(surd):
    magnitude = sqrt(nsimplify(Rational(surd.radicand.numerator, surd.radicand.denominator)))
    return (1 if surd.sign >= 0 else -1) * magnitude


def _random_cg_args(rng, tmax):
    while True:
        tj1 = rng.randrange(tmax + 1)
        tj2 = rng.randrange(tmax + 1)
        tj = rng.choice(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2))
        tm1 = rng.choice(range(-tj1, tj1 + 1, 2))
        tm2 = rng.choice(range(-tj2, tj2 + 1, 2))
        tm = tm1 + tm2
        if abs(tm) <= tj:
            return tj1, tm1, tj2, tm2, tj, tm


def test_cg_matches_sympy_on_random_inputs():
    rng = random.Random(20260810)
    for _ in range(80):
        tj1, tm1, tj2, tm2, tj, tm = _random_cg_args(rng, 10)
        mine = cg(
            CgArgs(
                HalfInt(tj1), HalfInt(tm1), HalfInt(tj2), HalfInt(tm2), HalfInt(tj), HalfInt(tm)
            )
        )
        reference = CG(
            S(tj1) / 2, S(tm1) / 2, S(tj2) / 2, S(tm2) / 2, S(tj) / 2, S(tm) / 2
        ).doit()
        assert (reference - _as_sympy(mine)).simplify() == 0


def test_three_j_matches_sympy_on_random_inputs():
    rng = random.Random(7)
    for _ in range(80):
        tj1, tm1, tj2, tm2, tj, tm = _random_cg_args(rng, 8)
        mine = three_j(
            HalfInt(tj1), HalfInt(tm1), HalfInt(tj2), HalfInt(tm2), HalfInt(tj), HalfInt(-tm)
        )
        reference = wigner_3j(
            S(tj1) / 2, S(tj2) / 2, S(tj) / 2, S(tm1) / 2, S(tm2) / 2, S(-tm) / 2
        )
        assert (reference - _as_sympy(mine)).simplify() == 0


def _transformed(rows, transform):
    """The square an audit transform names: identity, transpose, rows:<perm> or cols:<perm>."""
    if transform == "identity":
        return rows
    if transform == "transpose":
        return [list(col) for col in zip(*rows)]
    kind, perm = transform.split(":")
    perm = [int(d) - 1 for d in perm]
    if kind == "rows":
        return [rows[i] for i in perm]
    return [[row[i] for i in perm] for row in rows]


def test_regge_audit_multipliers_match_sympy():
    """Each entry's multiplier times the base value is sympy's 3j of the transformed square."""
    rng = random.Random(24)
    checked = 0
    while checked < 40:
        tj1, tm1, tj2, tm2, tj, tm = _random_cg_args(rng, 6)
        if tj > 6:
            continue
        # (j1 j2 j3; m1 m2 m3) with m3 = -m; square entries are integers when it is nonzero
        a, b, c = S(tj1) / 2, S(tj2) / 2, S(tj) / 2
        alpha, beta, gamma = S(tm1) / 2, S(tm2) / 2, S(-tm) / 2
        base = wigner_3j(a, b, c, alpha, beta, gamma)
        if base == 0:
            continue
        checked += 1
        rows = [
            [-a + b + c, a - b + c, a + b - c],
            [a + alpha, b + beta, c + gamma],
            [a - alpha, b - beta, c - gamma],
        ]
        entries = regge_orbit_audit(
            HalfInt(tj1), HalfInt(tm1), HalfInt(tj2), HalfInt(tm2), HalfInt(tj), HalfInt(-tm)
        )
        assert len(entries) == 12
        for entry in entries:
            _, plus, minus = _transformed(rows, entry.transform)
            js = [(p + q) / 2 for p, q in zip(plus, minus)]
            ms = [(p - q) / 2 for p, q in zip(plus, minus)]
            assert wigner_3j(*js, *ms) == entry.actual * base, entry
