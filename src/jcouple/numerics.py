"""Exact scalar arithmetic underlying the coupling kernels.

Four value families live here: half-integers stored as twice their value,
quadratic surds ``sign * sqrt(p/q)``, finite sums of surds with
Gaussian-rational coefficients (a ``SparseSum``, the combination type that
kepler's Lie expressions share), and prime-factorized factorials.  Everything
is immutable, exact, and safe to share across threads; floats appear only in
the explicitly approximate conversions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Mapping, Union


class DomainError(ValueError):
    """A quantum-number or representation constraint was violated."""


def short_str(obj, render=str) -> str:
    """render(obj), str by default, cut at 60 characters; never raises, so errors may echo it."""
    try:
        text = render(obj)
    except ValueError:  # an int past the interpreter's int-to-str digit limit (4300 by default)
        return f"<{type(obj).__name__} with too many digits to print>"
    except RecursionError:  # repr recurses once per nesting level
        return f"<{type(obj).__name__} nested too deeply to print>"
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


def short_repr(obj) -> str:
    """repr(obj) cut at 60 characters, as short_str cuts str."""
    return short_str(obj, repr)


# ---------------------------------------------------------------------------
# half-integers


@dataclass(frozen=True, order=True)
class HalfInt:
    """Element of Z/2 stored losslessly as ``twice`` its value (j=3/2 <-> twice=3)."""

    twice: int

    def __post_init__(self) -> None:
        if not isinstance(self.twice, int) or isinstance(self.twice, bool):
            raise DomainError(f"twice must be an integer, got {short_repr(self.twice)}")

    @property
    def is_integral(self) -> bool:
        return self.twice % 2 == 0

    @property
    def is_half_odd(self) -> bool:
        return self.twice % 2 != 0

    def __add__(self, other: HalfInt) -> HalfInt:
        return HalfInt(self.twice + other.twice)

    def __sub__(self, other: HalfInt) -> HalfInt:
        return HalfInt(self.twice - other.twice)

    def __neg__(self) -> HalfInt:
        return HalfInt(-self.twice)

    def __abs__(self) -> HalfInt:
        return HalfInt(abs(self.twice))

    def __str__(self) -> str:
        return twice_text(self.twice)


def twice_text(twice: int) -> str:
    """The text of the half-integer twice/2, as str(HalfInt(twice)) prints it: "3/2", "-1"."""
    return f"{twice}/2" if twice % 2 else str(twice // 2)


def parse_halfint(text: str) -> HalfInt:
    """Parse "2", "3/2", "-1/2", "1.5" and friends into a HalfInt.

    Integers, p/q and decimals are accepted if the value has denominator 1 or 2
    in lowest terms.  Exponent notation is refused up front: ``Fraction`` would
    first build 10**exponent, which never ends for "1e1000000000".
    """
    if re.search(r"[eE][-+]?\d", text):
        raise DomainError(f"exponent notation is not accepted: {short_repr(text)}")
    try:
        q = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        if "integer string conversion" in str(exc):
            # a number past the interpreter's int-to-str digit limit (4300 by default)
            raise DomainError(f"number out of range, too many digits: {short_repr(text)}") from exc
        raise DomainError(f"cannot parse half-integer from {short_repr(text)}") from exc
    if q.denominator not in (1, 2):
        raise DomainError(
            f"{short_repr(text)} is not in N/2 (denominator {short_repr(q.denominator)})"
        )
    return HalfInt(q.numerator * (2 // q.denominator))


def halfint_range(lo: HalfInt, hi: HalfInt) -> Iterator[HalfInt]:
    """Values lo, lo+1, ..., hi in unit steps (empty when hi < lo)."""
    if (hi.twice - lo.twice) % 2:
        raise DomainError(f"range {short_str(lo)}..{short_str(hi)} does not step in units")
    for t in range(lo.twice, hi.twice + 1, 2):
        yield HalfInt(t)


def projection_range(j: HalfInt) -> Iterator[HalfInt]:
    """Projections -j, -j+1, ..., +j of a momentum j >= 0."""
    check_momenta((j,))
    for t in range(-j.twice, j.twice + 1, 2):
        yield HalfInt(t)


def check_momenta(js: Iterable[HalfInt]) -> None:
    """The one nonnegativity rule for momenta: the first negative j is refused."""
    for j in js:
        if j.twice < 0:
            raise DomainError(f"momentum must be nonnegative, got {short_str(j)}")


def check_momentum_pair(j: HalfInt, m: HalfInt, name: str) -> None:
    """The one (j, m) validity rule: j >= 0, |m| <= j, and j - m integral."""
    check_momenta((j,))
    if abs(m.twice) > j.twice:
        raise DomainError(f"{name}: |m|={short_str(abs(m))} exceeds j={short_str(j)}")
    if (j.twice + m.twice) % 2:
        raise DomainError(
            f"{name}: m={short_str(m)} not reachable from -j={short_str(-j)} in unit steps"
        )


def check_table_size(width: int, base: int, name: str) -> None:
    """The bound on kepler's and verify's tables: width * base**width entries, at most 10**6.

    The entries are counted one factor at a time, so a huge request stops
    before the power is formed; past the bound it is refused as "<name>
    request exceeds the enumeration guard".
    """
    rows = 1
    for _ in range(width):
        rows *= base
        if width * rows > 10**6:
            raise DomainError(f"{name} request exceeds the enumeration guard")


# ---------------------------------------------------------------------------
# quadratic surds


@dataclass(frozen=True)
class Surd:
    """Exact value ``sign * sqrt(radicand)`` with a nonnegative rational radicand."""

    sign: int
    radicand: Fraction

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise DomainError(f"sign must be -1, 0 or +1, got {short_repr(self.sign)}")
        if not isinstance(self.radicand, Fraction) or self.radicand < 0:
            shown = short_repr(self.radicand)
            raise DomainError(f"radicand must be a nonnegative Fraction, got {shown}")
        if (self.sign == 0) != (self.radicand == 0):
            raise DomainError("sign is zero exactly when the radicand is zero")

    @classmethod
    def zero(cls) -> Surd:
        return cls(0, Fraction(0))

    @classmethod
    def one(cls) -> Surd:
        return cls(1, Fraction(1))

    @classmethod
    def sqrt(cls, q: Union[Fraction, int]) -> Surd:
        """The nonnegative square root of q >= 0."""
        q = Fraction(q)
        if q < 0:
            raise DomainError(f"cannot take a real square root of {short_str(q)}")
        return cls(1 if q else 0, q)

    @classmethod
    def from_signed_square(cls, q: Union[Fraction, int]) -> Surd:
        """Build sign(q) * sqrt(|q|); the standard exact carrier for CG values."""
        q = Fraction(q)
        if q == 0:
            return cls.zero()
        return cls(1 if q > 0 else -1, abs(q))

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def signed_square(self) -> Fraction:
        """sign * radicand; faithful one-number encoding of the value."""
        return self.sign * self.radicand

    def __mul__(self, other: Surd) -> Surd:
        if self.sign == 0 or other.sign == 0:
            return Surd.zero()
        return Surd(self.sign * other.sign, self.radicand * other.radicand)

    def __neg__(self) -> Surd:
        if self.sign == 0:
            return self
        return Surd(-self.sign, self.radicand)

    def approx(self) -> float:
        return self.sign * math.sqrt(self.radicand)

    def to_sum(self) -> PhasedSurdSum:
        """Rewrite sign*sqrt(p/q) as coefficient * sqrt(squarefree part)."""
        if self.sign == 0:
            return PhasedSurdSum.zero()
        p, q = self.radicand.numerator, self.radicand.denominator
        s, r = squarefree_decomposition(p * q)
        coeff = Fraction(self.sign * s, q)
        return PhasedSurdSum._raw({r: GaussianRational.from_rational(coeff)})

    def to_json_dict(self) -> dict:
        return {
            "sign": self.sign,
            "num": str(self.radicand.numerator),
            "den": str(self.radicand.denominator),
        }

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        prefix = "-" if self.sign < 0 else ""
        return f"{prefix}sqrt({self.radicand})"


def squarefree_decomposition(n: int) -> tuple[int, int]:
    """Write n >= 1 as s*s*r with r squarefree; returns (s, r)."""
    if n < 1:
        raise DomainError(f"expected a positive integer, got {short_str(n)}")
    s, r = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                r *= d
        d += 1 if d == 2 else 2
    return s, r * n


# ---------------------------------------------------------------------------
# Gaussian rationals and phased surd sums


@dataclass(frozen=True)
class GaussianRational:
    """a + b*i with exact rational a, b."""

    re: Fraction
    im: Fraction

    @classmethod
    def from_rational(cls, q: Union[Fraction, int]) -> GaussianRational:
        return cls(Fraction(q), Fraction(0))

    @classmethod
    def coerce(cls, value: Union[GaussianRational, Fraction, int]) -> GaussianRational:
        if isinstance(value, GaussianRational):
            return value
        return cls.from_rational(value)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __add__(self, other: GaussianRational) -> GaussianRational:
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __neg__(self) -> GaussianRational:
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: GaussianRational) -> GaussianRational:
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def times_i_pow(self, k: int) -> GaussianRational:
        k %= 4
        if k == 0:
            return self
        if k == 1:
            return GaussianRational(-self.im, self.re)
        if k == 2:
            return -self
        return GaussianRational(self.im, -self.re)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        op = "+" if self.im > 0 else "-"
        return f"{self.re}{op}{abs(self.im)}*i"


def _is_squarefree(n: int) -> bool:
    return n >= 1 and squarefree_decomposition(n)[0] == 1


ScalarLike = Union["GaussianRational", Fraction, int]

_new = object.__new__


class SparseSum:
    """Finite sum of basis keys with nonzero Gaussian-rational coefficients.

    The additive arithmetic shared by surd sums and Lie expressions: the
    empty sum is the canonical exact zero, and every result drops the keys
    whose coefficients cancel.  Subclasses choose which keys are allowed
    (``_check_key``) and how a key prints (``_key_format``).
    """

    __slots__ = ("_terms",)

    _key_format = "{}"

    def __init__(self, terms: Mapping[Hashable, ScalarLike] | None = None) -> None:
        clean: dict[Hashable, GaussianRational] = {}
        for key, c in (terms or {}).items():
            self._check_key(key)
            c = GaussianRational.coerce(c)
            if not c.is_zero:
                clean[key] = c
        self._terms = clean

    @staticmethod
    def _check_key(key: Hashable) -> None:
        """Raise DomainError for a key outside the basis; any key is allowed here."""

    @classmethod
    def _raw(cls, terms: dict) -> SparseSum:
        # trusted constructor: keys valid, no zero coefficients
        out = _new(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls) -> SparseSum:
        return cls._raw({})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> tuple[tuple[Hashable, GaussianRational], ...]:
        return tuple(sorted(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self.items())

    def __add__(self, other: SparseSum) -> SparseSum:
        merged = dict(self._terms)
        for key, c in other._terms.items():
            s = merged.get(key)
            total = c if s is None else s + c
            if total.is_zero:
                merged.pop(key, None)
            else:
                merged[key] = total
        # _raw inlined: this sits on the audit hot path
        out = _new(type(self))
        out._terms = merged
        return out

    def __neg__(self) -> SparseSum:
        return self._raw({key: -c for key, c in self._terms.items()})

    def scaled(self, factor: ScalarLike) -> SparseSum:
        factor = GaussianRational.coerce(factor)
        if factor.is_zero:
            return self.zero()
        return self._raw({key: c * factor for key, c in self._terms.items()})

    def times_i_pow(self, k: int) -> SparseSum:
        if k % 4 == 0:
            return self
        return self._raw({key: c.times_i_pow(k) for key, c in self._terms.items()})

    def __repr__(self) -> str:
        name = type(self).__name__
        if not self._terms:
            return f"{name}(0)"
        parts = [f"({c})*" + self._key_format.format(key) for key, c in self.items()]
        return f"{name}(" + " + ".join(parts) + ")"


class PhasedSurdSum(SparseSum):
    """Finite exact sum over squarefree r >= 1 of c_r * sqrt(r).

    Coefficients c_r are Gaussian rationals, so the ring is closed under
    products, sums, and multiplication by integer powers of i.
    """

    __slots__ = ()

    _key_format = "sqrt({})"

    @staticmethod
    def _check_key(r: int) -> None:
        if not _is_squarefree(r):
            raise DomainError(f"key {short_str(r)} is not a squarefree positive integer")

    def __mul__(self, other: Union[PhasedSurdSum, ScalarLike]) -> PhasedSurdSum:
        if not isinstance(other, PhasedSurdSum):
            return self.scaled(other)
        out: dict[int, GaussianRational] = {}
        for r1, c1 in self._terms.items():
            for r2, c2 in other._terms.items():
                g = math.gcd(r1, r2)
                key = (r1 // g) * (r2 // g)
                coeff = (c1 * c2) * GaussianRational.from_rational(g)
                s = out.get(key)
                total = coeff if s is None else s + coeff
                if total.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = total
        return PhasedSurdSum._raw(out)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# factorials in prime-factorized form


@dataclass(frozen=True)
class FactorizedFactorial:
    """n! as ascending (prime, exponent) pairs; exponents via Legendre's formula."""

    n: int
    exponents: tuple[tuple[int, int], ...]

    def exponent(self, p: int) -> int:
        for prime, e in self.exponents:
            if prime == p:
                return e
        return 0

    def as_dict(self) -> dict[int, int]:
        return dict(self.exponents)

    def value(self) -> int:
        out = 1
        for p, e in self.exponents:
            out *= p**e
        return out


def _primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, n + 1) if sieve[p]]


def factorial_factorized(n: int) -> FactorizedFactorial:
    """Prime factorization of n!; exponent of p is sum_k floor(n / p**k)."""
    if n < 0:
        raise DomainError(f"factorial of a negative integer: {short_str(n)}")
    pairs = []
    for p in _primes_up_to(n):
        e, q = 0, n
        while q:
            q //= p
            e += q
        pairs.append((p, e))
    return FactorizedFactorial(n, tuple(pairs))
