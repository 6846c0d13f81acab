"""Correctness gates, run outside the timed region.

Each check returns None when the output is right and a one-line reason when
it is wrong.  The references are independent of jcouple: recorded stdout
digests, closed-form counts, plain Fraction arithmetic and sympy.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected_digests.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED_PATH.read_text())


def check_digest(argv: list[str], text: str, expected: dict[str, str]) -> str | None:
    key = " ".join(argv)
    want = expected.get(key)
    if want is None:
        return f"no recorded digest for {key!r}"
    got = digest(text)
    if got != want:
        return f"stdout digest {got[:12]} != recorded {want[:12]} for {key!r}"
    return None


def double_factorial(n: int) -> int:
    out = 1
    for k in range(n, 1, -2):
        out *= k
    return out


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def check_schemes(argv: list[str], text: str) -> str | None:
    """schemes output holds (2n-3)!! trees, either as a count or as a JSON list."""
    want = double_factorial(2 * int(_flag(argv, "--n")) - 3)
    got = int(text) if "--count-only" in argv else len(json.loads(text))
    return None if got == want else f"{' '.join(argv)}: {got} schemes, expected {want}"


def _twice(text: str) -> int:
    return int(Fraction(text) * 2)


def expected_deg_enum(twices: list[int], fermion: bool) -> int:
    """prod (2j+1)^2, times 2^z for spin-1/2 fermions."""
    out = 1
    for t in twices:
        out *= (t + 1) ** 2
    return out * 2 ** len(twices) if fermion else out


def check_kepler(argv: list[str], text: str) -> str | None:
    """Every level's deg_enum, and the level count (2 jcut + 1)^z."""
    z, tcut = int(_flag(argv, "--z")), _twice(_flag(argv, "--jcut"))
    fermion = _flag(argv, "--stats") == "fermion"
    if _flag(argv, "--format") == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        levels = [([_twice(j) for j in r["j_tuple"].split(";")], int(r["deg_enum"])) for r in rows]
    else:
        payload = json.loads(text)
        levels = [([_twice(j) for j in lv["js"]], lv["deg_enum"]) for lv in payload["levels"]]
    if len(levels) != (tcut + 1) ** z:
        return f"{' '.join(argv)}: {len(levels)} levels, expected {(tcut + 1) ** z}"
    for twices, deg in levels:
        if deg != expected_deg_enum(twices, fermion):
            return f"{' '.join(argv)}: deg_enum {deg} for {twices}"
    return None


# ---------------------------------------------------------------------------
# radical arithmetic: terms are (r, re, im) with exact Fraction coefficients


def _squarefree(r: int) -> bool:
    from sympy import factorint

    return r >= 1 and all(e == 1 for e in factorint(r).values())


def check_to_sum(sign: int, radicand: Fraction, terms: list) -> str | None:
    """sign*sqrt(radicand) == c*sqrt(r): c^2 r == radicand, sign(c) == sign, r squarefree."""
    if sign == 0:
        return None if not terms else f"zero surd gave terms {terms}"
    if len(terms) != 1:
        return f"expected one term, got {len(terms)}"
    r, re, im = terms[0]
    if im != 0 or re * re * r != radicand or (re > 0) != (sign > 0):
        return f"{re}*sqrt({r}) != {sign}*sqrt({radicand})"
    if not _squarefree(r):
        return f"key {r} is not squarefree"
    return None


def product_terms(left: list, right: list) -> dict[int, tuple[Fraction, Fraction]]:
    """Reference product of two surd sums: sqrt(a) sqrt(b) = g sqrt(ab/g^2), g = gcd."""
    out: dict[int, tuple[Fraction, Fraction]] = {}
    for r1, a1, b1 in left:
        for r2, a2, b2 in right:
            g = math.gcd(r1, r2)
            key = (r1 // g) * (r2 // g)
            re, im = out.get(key, (Fraction(0), Fraction(0)))
            out[key] = (re + g * (a1 * a2 - b1 * b2), im + g * (a1 * b2 + b1 * a2))
    return {k: v for k, v in out.items() if v != (0, 0)}


def times_i_pow(terms: dict[int, tuple[Fraction, Fraction]], k: int) -> dict:
    out = {}
    for r, (re, im) in terms.items():
        for _ in range(k % 4):
            re, im = -im, re
        out[r] = (re, im)
    return out


def add_terms(total: dict, extra: dict) -> dict:
    out = dict(total)
    for r, (re, im) in extra.items():
        a, b = out.get(r, (Fraction(0), Fraction(0)))
        out[r] = (a + re, b + im)
    return {k: v for k, v in out.items() if v != (0, 0)}


def as_terms(mapping: dict) -> list:
    return sorted((r, re, im) for r, (re, im) in mapping.items())


# ---------------------------------------------------------------------------
# kernel cross-check against sympy


def sympy_signed_square(kind: str, twices: tuple[int, ...]) -> Fraction:
    """sign(C) * C^2 from sympy, for cg <j1 m1 j2 m2|j m> or the 3j symbol with m3 = -m."""
    from sympy import Rational
    from sympy.physics.wigner import clebsch_gordan, wigner_3j

    tj1, tm1, tj2, tm2, tj, tm = (Rational(t, 2) for t in twices)
    if kind == "cg":
        value = clebsch_gordan(tj1, tj2, tj, tm1, tm2, tm)
    else:
        value = wigner_3j(tj1, tj2, tj, tm1, tm2, -tm)
    square = value**2
    sign = -1 if value.is_negative else 1
    return sign * Fraction(int(square.p), int(square.q))


def check_kernel(kind: str, twices: tuple[int, ...], signed_square: Fraction) -> str | None:
    want = sympy_signed_square(kind, twices)
    if want != signed_square:
        return f"{kind}{twices}: signed square {signed_square} != sympy {want}"
    return None
