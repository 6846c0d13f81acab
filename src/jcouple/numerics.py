"""Exact scalar arithmetic underlying the coupling kernels.

Four value families live here: half-integers stored as twice their value,
quadratic surds ``sign * sqrt(p/q)``, finite sums of surds with
Gaussian-rational coefficients (``PhasedSurdSum``, the one sparse
combination type), and prime-factorized factorials.  Everything
is immutable, exact, and safe to share across threads; floats appear only in
the explicitly approximate conversions.

The value classes of every module derive from ``_Value``, a slotted base
that refuses assignment; a module that defines them imports nothing for it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union


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
# immutable value classes

# each __init__ sets its fields with this, past _Value's refusing __setattr__
_set = object.__setattr__
# the trusted constructors (_raw) make an instance with this, past __init__'s checks
_new = object.__new__


class _Value:
    """Base of the immutable value classes, with the semantics of a frozen dataclass.

    A subclass lists its fields once, in ``__slots__``; ``__init__`` binds
    its arguments to them by position or keyword, and a missing, unknown or
    doubled field raises TypeError naming the class.  A subclass that checks
    its input writes its own ``__init__``, setting each field with ``_set``.
    Assignment and deletion raise AttributeError; ``==`` holds only between
    instances of one class, and compares and hashes the field tuple; repr is
    the dataclass text ``Name(field=value, ...)``; ``copy`` and ``pickle``
    rebuild a value through ``__init__``.  Only CouplingTree writes its own
    ``==`` and hash, on its shape's text.  The verify walks build no audit
    object per record: ``first_symmetry_audits`` yields plain (twice ms,
    twice total m, ratio, verdict) tuples and ``overlap_audits`` (twice m,
    PhasedSurdSum) pairs.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            # by position, then by keyword, into slot order
            cls = type(self).__qualname__
            if len(args) > len(names):
                raise TypeError(f"{cls}() takes {len(names)} fields, got {len(args)} by position")
            given = dict(zip(names, args))
            for name, value in kwargs.items():
                if name not in names:
                    raise TypeError(f"{cls}() has no field {name!r}")
                if name in given:
                    raise TypeError(f"{cls}() got field {name!r} twice")
                given[name] = value
            for name in names:
                if name not in given:
                    raise TypeError(f"{cls}() missing field {name!r}")
            args = [given[name] for name in names]
        for name, value in zip(names, args):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


# ---------------------------------------------------------------------------
# half-integers


class HalfInt(_Value):
    """Element of Z/2 stored losslessly as ``twice`` its value (j=3/2 <-> twice=3).

    Ordered by value; comparing with anything but a HalfInt raises TypeError.
    ``>`` and ``>=`` are ``<`` and ``<=`` reflected.
    """

    __slots__ = ("twice",)

    def __init__(self, twice: int) -> None:
        if not isinstance(twice, int) or isinstance(twice, bool):
            raise DomainError(f"twice must be an integer, got {short_repr(twice)}")
        _set(self, "twice", twice)

    def __lt__(self, other: HalfInt) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.twice < other.twice

    def __le__(self, other: HalfInt) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.twice <= other.twice

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
    first build 10**exponent, which never ends for "1e1000000000".  A plain
    ASCII integer p or p/2, signed or not, of at most 18 digits is read
    directly; any other text takes the ``Fraction`` route.
    """
    half = text.endswith("/2")
    p = text[:-2] if half else text
    digits = p[1:] if p[:1] in ("-", "+") else p
    if len(digits) <= 18 and digits.isascii() and digits.isdigit():
        return HalfInt(int(p) if half else 2 * int(p))
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
    """The one rule for momenta: the first j that is not a HalfInt, or is negative, is refused."""
    for j in js:
        if type(j) is not HalfInt:
            raise DomainError(f"momentum must be a HalfInt, got {short_repr(j)}")
        if j.twice < 0:
            raise DomainError(f"momentum must be nonnegative, got {short_str(j)}")


def check_momentum_pair(j: HalfInt, m: HalfInt, name: str) -> None:
    """The one (j, m) validity rule: both HalfInt, j >= 0, |m| <= j, and j - m integral."""
    if type(j) is not HalfInt or type(m) is not HalfInt:
        shown = f"({short_repr(j)}, {short_repr(m)})"
        raise DomainError(f"{name} must be a pair of HalfInt values, got {shown}")
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


def _check_exact(q: object, name: str) -> None:
    """Refuse q unless it is an int or a Fraction: a float's binary rounding is not exact."""
    if isinstance(q, bool) or not isinstance(q, (int, Fraction)):
        raise DomainError(f"{name} must be an int or a Fraction, got {short_repr(q)}")


def _exact(q: Union[Fraction, int], name: str) -> Fraction:
    """q, an int or a Fraction, as a Fraction."""
    if type(q) is Fraction:
        return q
    _check_exact(q, name)
    return Fraction(q)


class Surd(_Value):
    """Exact value ``sign * sqrt(radicand)`` with a nonnegative rational radicand."""

    __slots__ = ("sign", "radicand")

    def __init__(self, sign: int, radicand: Fraction) -> None:
        # True and 1.0 compare equal to 1, so the type is checked too
        if isinstance(sign, bool) or not isinstance(sign, int) or sign not in (-1, 0, 1):
            raise DomainError(f"sign must be -1, 0 or +1, got {short_repr(sign)}")
        # a Fraction's denominator is positive: its numerator carries its sign
        if not isinstance(radicand, Fraction) or radicand.numerator < 0:
            shown = short_repr(radicand)
            raise DomainError(f"radicand must be a nonnegative Fraction, got {shown}")
        if (sign == 0) != (radicand.numerator == 0):
            raise DomainError("sign is zero exactly when the radicand is zero")
        _set(self, "sign", sign)
        _set(self, "radicand", radicand)

    @classmethod
    def _raw(cls, sign: int, radicand: Fraction) -> Surd:
        # trusted constructor: sign in (-1, 0, 1), radicand a nonnegative Fraction, zero together
        out = _new(cls)
        _set(out, "sign", sign)
        _set(out, "radicand", radicand)
        return out

    @classmethod
    def zero(cls) -> Surd:
        return cls(0, Fraction(0))

    @classmethod
    def one(cls) -> Surd:
        return cls(1, Fraction(1))

    @classmethod
    def sqrt(cls, q: Union[Fraction, int]) -> Surd:
        """The nonnegative square root of q >= 0."""
        q = _exact(q, "radicand")
        if q < 0:
            raise DomainError(f"cannot take a real square root of {short_str(q)}")
        return cls(1 if q else 0, q)

    @classmethod
    def from_signed_square(cls, q: Union[Fraction, int]) -> Surd:
        """Build sign(q) * sqrt(|q|); the standard exact carrier for CG values."""
        q = _exact(q, "signed square")
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


class GaussianRational(_Value):
    """a + b*i with exact rational a, b, each an int or a Fraction."""

    __slots__ = ("re", "im")

    def __init__(self, re: Union[Fraction, int], im: Union[Fraction, int]) -> None:
        if type(re) is not Fraction or type(im) is not Fraction:
            _check_exact(re, "re")
            _check_exact(im, "im")
        _set(self, "re", re)
        _set(self, "im", im)

    @classmethod
    def from_rational(cls, q: Union[Fraction, int]) -> GaussianRational:
        return cls(_exact(q, "re"), Fraction(0))

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


ScalarLike = Union["GaussianRational", Fraction, int]


class PhasedSurdSum:
    """Finite exact sum over squarefree r >= 1 of c_r * sqrt(r).

    Coefficients c_r are Gaussian rationals, so the ring is closed under
    products, sums, and multiplication by integer powers of i.  The empty
    sum is the canonical exact zero, and every result drops the roots whose
    coefficients cancel.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, ScalarLike] | None = None) -> None:
        clean: dict[int, GaussianRational] = {}
        for r, c in (terms or {}).items():
            if type(r) is not int or r < 1 or squarefree_decomposition(r)[0] != 1:
                raise DomainError(f"key {short_str(r)} is not a squarefree positive integer")
            c = GaussianRational.coerce(c)
            if not c.is_zero:
                clean[r] = c
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict) -> PhasedSurdSum:
        # trusted constructor: keys squarefree, no zero coefficients
        out = _new(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls) -> PhasedSurdSum:
        return cls._raw({})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> tuple[tuple[int, GaussianRational], ...]:
        return tuple(sorted(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhasedSurdSum):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self.items())

    def __add__(self, other: PhasedSurdSum) -> PhasedSurdSum:
        merged = dict(self._terms)
        for r, c in other._terms.items():
            s = merged.get(r)
            total = c if s is None else s + c
            if total.is_zero:
                merged.pop(r, None)
            else:
                merged[r] = total
        return self._raw(merged)

    def __neg__(self) -> PhasedSurdSum:
        return self._raw({r: -c for r, c in self._terms.items()})

    def scaled(self, factor: ScalarLike) -> PhasedSurdSum:
        factor = GaussianRational.coerce(factor)
        if factor.is_zero:
            return self.zero()
        return self._raw({r: c * factor for r, c in self._terms.items()})

    def times_i_pow(self, k: int) -> PhasedSurdSum:
        if k % 4 == 0:
            return self
        return self._raw({r: c.times_i_pow(k) for r, c in self._terms.items()})

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

    def __repr__(self) -> str:
        if not self._terms:
            return "PhasedSurdSum(0)"
        parts = [f"({c})*sqrt({r})" for r, c in self.items()]
        return "PhasedSurdSum(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------
# factorials in prime-factorized form


class FactorizedFactorial(_Value):
    """n! as ascending (prime, exponent) pairs; exponents via Legendre's formula."""

    __slots__ = ("n", "exponents")

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
