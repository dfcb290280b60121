"""Exact arithmetic in the 2-power cyclotomic fields Q(zeta_n), n in {2, 4, ..., 64}.

An element of Q(zeta_n) is written in the power basis 1, zeta, ...,
zeta^(n/2 - 1) with integer numerators over one positive denominator,
(c_0 + c_1 zeta + ... ) / den, reduced so that den and the numerators share
no factor.  Reduction uses zeta^(n/2) = -1: x^(n/2) + 1 is the minimal
polynomial of a primitive n-th root of unity when n is a power of two, so
the quotient ring is a field and every nonzero element is invertible.
Arithmetic works on the integers and takes one gcd pass per result.

Levels index the tower: level m holds Q(zeta_{2^m}), so level 1 is Q itself
(zeta_2 = -1) and level 6 is Q(zeta_64), the largest field needed for the
eigenvalues of order-8 monomial matrices with order-8 phases.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

MIN_LEVEL = 1
MAX_LEVEL = 6

#: Root-of-unity orders representable in the tower.
SUPPORTED_ORDERS = tuple(2 ** m for m in range(MIN_LEVEL, MAX_LEVEL + 1))

RationalLike = Union[int, Fraction]


def degree_at(level: int) -> int:
    """Extension degree of Q(zeta_{2^level}) over Q, i.e. the coefficient length."""
    return 1 << (level - 1)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _lift(coeffs: Sequence, level: int) -> list:
    """Coefficients of a lower-level element written at `level`.

    The embedding Q(zeta_n) -> Q(zeta_{2n}) sends zeta_n to zeta_{2n}^2, so
    coefficients move to indices strided by 2**(level difference)."""
    vec = [0] * degree_at(level)
    vec[:: len(vec) // len(coeffs)] = coeffs
    return vec


class CyclotomicNumber:
    """Immutable element of Q(zeta_{2^level}): sum(num[i] * zeta^i) / den.

    Every number is stored at the smallest level that represents it, with
    den > 0 and gcd(den, *num) == 1, so equal values compare (and hash) by
    level, numerators and denominator alone and the hot loops stay at low
    degree.  Arithmetic lifts the lower operand's numerators to the common
    level and reduces modulo x^(n/2) + 1.
    """

    __slots__ = ("level", "num", "den")

    def __init__(self, level: int, coeffs: Iterable[RationalLike]):
        if not MIN_LEVEL <= level <= MAX_LEVEL:
            raise ValueError(f"level must be in [{MIN_LEVEL}, {MAX_LEVEL}], got {level}")
        vec = [_as_fraction(c) for c in coeffs]
        if len(vec) != degree_at(level):
            raise ValueError(
                f"level {level} needs {degree_at(level)} coefficients, got {len(vec)}"
            )
        den = lcm(*(c.denominator for c in vec))
        _store(self, level, [c.numerator * (den // c.denominator) for c in vec], den)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("CyclotomicNumber is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "CyclotomicNumber":
        return _raw(MIN_LEVEL, (0,), 1)

    @classmethod
    def one(cls) -> "CyclotomicNumber":
        return _raw(MIN_LEVEL, (1,), 1)

    @classmethod
    def from_rational(cls, value: RationalLike) -> "CyclotomicNumber":
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"expected int or Fraction, got {type(value).__name__}")
        # int.numerator turns a bool into a plain int
        return _raw(MIN_LEVEL, (value.numerator,), value.denominator)

    # -- representation helpers --------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(n, d) for n, d in self._pairs())

    def _pairs(self):
        """Each coefficient as (numerator, denominator) in lowest terms, the
        denominator positive: the pair Fraction would hold."""
        den = self.den
        for c in self.num:
            g = gcd(c, den)
            yield c // g, den // g

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.level == MIN_LEVEL and not self.num[0]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not CyclotomicNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        level, a, b = self.level, self.num, other.num
        if level != other.level:
            if level < other.level:
                level = other.level
                a = _lift(a, level)
            else:
                b = _lift(b, level)
        da, db = self.den, other.den
        if da == db:
            return _make(level, [x + y for x, y in zip(a, b)], da)
        return _make(level, [x * db + y * da for x, y in zip(a, b)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.level, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if other.__class__ is not CyclotomicNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        den = self.den * other.den
        if self.level == MIN_LEVEL or other.level == MIN_LEVEL:
            # a rational factor scales the other operand's numerators
            if self.level == MIN_LEVEL:
                scalar, vec, level = self.num[0], other.num, other.level
            else:
                scalar, vec, level = other.num[0], self.num, self.level
            return _make(level, [scalar * c for c in vec], den)
        level = max(self.level, other.level)
        a = self.num if self.level == level else _lift(self.num, level)
        b = other.num if other.level == level else _lift(other.num, level)
        d = len(a)
        full = [0] * (2 * d)
        b_terms = [(j, bj) for j, bj in enumerate(b) if bj]
        for i, ai in enumerate(a):
            if ai:
                for j, bj in b_terms:
                    full[i + j] += ai * bj
        # zeta^d = -1 folds the upper half back with a sign
        return _make(level, [x - y for x, y in zip(full[:d], full[d:])], den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse down the tower by the norm.

        With sigma the automorphism zeta -> -zeta (odd-index coefficients
        negated), a * sigma(a) is nonzero and fixed by sigma, so it lies one
        level down and 1/a = sigma(a) * (a * sigma(a))^-1, recursing to a
        rational reciprocal at level 1."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic inverse of zero")
        if self.level == MIN_LEVEL:
            n = self.num[0]
            return _raw(MIN_LEVEL, (self.den,), n) if n > 0 else _raw(MIN_LEVEL, (-self.den,), -n)
        conj = _raw(
            self.level, tuple(-c if i & 1 else c for i, c in enumerate(self.num)), self.den
        )
        return conj * (self * conj).inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent == 0:
            return CyclotomicNumber.one()
        base = self if exponent > 0 else self.inverse()
        # left-to-right binary powering: start from the base, square once per
        # remaining bit, so x**1 costs nothing and x**2 one multiplication
        result = base
        for bit in bin(abs(exponent))[3:]:
            result = result * result
            if bit == "1":
                result = result * base
        return result

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not CyclotomicNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.level == other.level and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.level, self.num, self.den))

    def sort_key(self):
        """Deterministic total order key (by minimal level, then the
        coefficients' (numerator, denominator) pairs)."""
        return (self.level, tuple(self._pairs()))

    # -- text form ----------------------------------------------------------

    def to_text(self) -> str:
        """Render as "[c0, c1, ...]@n" with rationals as "a/b" (or "a")."""
        body = ", ".join(str(n) if d == 1 else f"{n}/{d}" for n, d in self._pairs())
        return f"[{body}]@{1 << self.level}"

    @classmethod
    def from_text(cls, text: str) -> "CyclotomicNumber":
        """Read the form `to_text` writes; digits outside ASCII are refused."""
        text = text.strip()
        if not (text.isascii() and text.startswith("[") and "@" in text):
            raise ValueError(f"malformed cyclotomic literal: {text!r}")
        body, _, order = text.rpartition("@")
        body = body.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"malformed cyclotomic literal: {text!r}")
        inner = body[1:-1].strip()
        try:
            n = int(order)
            coeffs = [Fraction(part.strip()) for part in inner.split(",")] if inner else []
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"malformed cyclotomic literal: {text!r}") from None
        if n not in SUPPORTED_ORDERS:
            raise ValueError(f"unsupported root-of-unity order {n}")
        return cls(n.bit_length() - 1, coeffs)

    def __repr__(self):
        return f"CyclotomicNumber({self.to_text()})"

    __str__ = __repr__


# Arithmetic builds its results without __init__: the slot setters bypass
# the immutability guard, and _make normalizes what _raw stores as given.
_new = object.__new__
_set_level = CyclotomicNumber.level.__set__
_set_num = CyclotomicNumber.num.__set__
_set_den = CyclotomicNumber.den.__set__


def _raw(level: int, num: tuple, den: int) -> CyclotomicNumber:
    """A number from numerators already reduced and at their minimal level."""
    x = _new(CyclotomicNumber)
    _set_level(x, level)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _store(x: CyclotomicNumber, level: int, num: Sequence[int], den: int) -> CyclotomicNumber:
    """Store sum(num[i] zeta^i) / den in x at its minimal level, reduced."""
    # a value lies in the subfield exactly when every odd-index coefficient
    # vanishes
    while level > MIN_LEVEL and not any(num[1::2]):
        num = num[0::2]
        level -= 1
    g = gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    _set_level(x, level)
    _set_num(x, tuple(num))
    _set_den(x, den)
    return x


def _make(level: int, num: Sequence[int], den: int) -> CyclotomicNumber:
    return _store(_new(CyclotomicNumber), level, num, den)


def _coerce(value):
    if isinstance(value, CyclotomicNumber):
        return value
    if isinstance(value, (int, Fraction)):
        return CyclotomicNumber.from_rational(value)
    return NotImplemented


def as_cyclotomic(value) -> CyclotomicNumber:
    """An exact scalar as a field element: int and Fraction land at level 1."""
    lifted = _coerce(value)
    if lifted is NotImplemented:
        raise TypeError(f"expected an exact number, got {type(value).__name__}")
    return lifted


# -- roots of unity ---------------------------------------------------------

#: zeta_n^k by (n, k mod n), filled on first use; at most 126 entries.
_ROOTS: dict[tuple[int, int], CyclotomicNumber] = {}


def root_of_unity(n: int, k: int = 1) -> CyclotomicNumber:
    """zeta_n^k at the minimal sufficient level.

    Example: root_of_unity(8, 2) is the imaginary unit, root_of_unity(2, 1)
    is -1.  Only 2-power orders up to 64 are representable.
    """
    if n not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported root-of-unity order {n} (need one of {SUPPORTED_ORDERS})")
    e = k % n
    value = _ROOTS.get((n, e))
    if value is None:
        level = n.bit_length() - 1
        d = degree_at(level)
        num = [0] * d
        if e < d:
            num[e] = 1
        else:
            num[e - d] = -1
        value = _ROOTS[n, e] = _make(level, num, 1)
    return value


ZERO = CyclotomicNumber.zero()
ONE = CyclotomicNumber.one()
