"""Exact arithmetic in the 2-power cyclotomic fields Q(zeta_n), n in {2, 4, ..., 64}.

An element of Q(zeta_n) is stored as a coefficient vector over Fraction with
respect to the power basis 1, zeta, ..., zeta^(n/2 - 1).  Reduction uses
zeta^(n/2) = -1: x^(n/2) + 1 is the minimal polynomial of a primitive n-th
root of unity when n is a power of two, so the quotient ring is a field and
every nonzero element is invertible.

Levels index the tower: level m holds Q(zeta_{2^m}), so level 1 is Q itself
(zeta_2 = -1) and level 6 is Q(zeta_64), the largest field needed for the
eigenvalues of order-8 monomial matrices with order-8 phases.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

MIN_LEVEL = 1
MAX_LEVEL = 6

#: Root-of-unity orders representable in the tower.
SUPPORTED_ORDERS = tuple(2 ** m for m in range(MIN_LEVEL, MAX_LEVEL + 1))

RationalLike = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def degree_at(level: int) -> int:
    """Extension degree of Q(zeta_{2^level}) over Q, i.e. the coefficient length."""
    return 1 << (level - 1)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _lift(coeffs: tuple[Fraction, ...], level: int) -> list[Fraction]:
    """Coefficients of a lower-level element written at `level`.

    The embedding Q(zeta_n) -> Q(zeta_{2n}) sends zeta_n to zeta_{2n}^2, so
    coefficients move to indices strided by 2**(level difference)."""
    vec = [_ZERO] * degree_at(level)
    vec[:: len(vec) // len(coeffs)] = coeffs
    return vec


class CyclotomicNumber:
    """Immutable element of Q(zeta_{2^level}).

    Every number is stored at the smallest level that represents it, so
    equal values compare (and hash) by level and coefficients alone and the
    hot loops stay at low degree.  Arithmetic lifts the lower operand's
    coefficients to the common level and reduces modulo x^(n/2) + 1.
    """

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs: Iterable[RationalLike]):
        if not MIN_LEVEL <= level <= MAX_LEVEL:
            raise ValueError(f"level must be in [{MIN_LEVEL}, {MAX_LEVEL}], got {level}")
        vec = tuple(_as_fraction(c) for c in coeffs)
        if len(vec) != degree_at(level):
            raise ValueError(
                f"level {level} needs {degree_at(level)} coefficients, got {len(vec)}"
            )
        # Strip to the minimal level: a value lies in the subfield exactly
        # when every odd-index coefficient vanishes.
        while level > MIN_LEVEL and not any(vec[1::2]):
            vec = vec[0::2]
            level -= 1
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coeffs", vec)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("CyclotomicNumber is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "CyclotomicNumber":
        return cls(MIN_LEVEL, (_ZERO,))

    @classmethod
    def one(cls) -> "CyclotomicNumber":
        return cls(MIN_LEVEL, (_ONE,))

    @classmethod
    def from_rational(cls, value: RationalLike) -> "CyclotomicNumber":
        return cls(MIN_LEVEL, (_as_fraction(value),))

    # -- representation helpers --------------------------------------------

    def _common(self, other: "CyclotomicNumber"):
        """The larger level and both coefficient tuples written at it."""
        level = max(self.level, other.level)
        a = self.coeffs if self.level == level else _lift(self.coeffs, level)
        b = other.coeffs if other.level == level else _lift(other.coeffs, level)
        return level, a, b

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        level, a, b = self._common(other)
        return CyclotomicNumber(level, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.level, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        level, a, b = self._common(other)
        d = len(a)
        acc = [_ZERO] * d
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                k = i + j
                if k < d:
                    acc[k] += ai * bj
                else:
                    acc[k - d] -= ai * bj  # zeta^d = -1
        return CyclotomicNumber(level, acc)

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
            return CyclotomicNumber(MIN_LEVEL, (_ONE / self.coeffs[0],))
        conj = CyclotomicNumber(
            self.level, tuple(-c if i & 1 else c for i, c in enumerate(self.coeffs))
        )
        return conj * (self * conj).inverse()

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.level == other.level and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.level, self.coeffs))

    def sort_key(self):
        """Deterministic total order key (by minimal level, then coefficients)."""
        return (self.level, tuple((c.numerator, c.denominator) for c in self.coeffs))

    # -- text form ----------------------------------------------------------

    def to_text(self) -> str:
        """Render as "[c0, c1, ...]@n" with rationals as "a/b" (or "a")."""
        body = ", ".join(str(c) for c in self.coeffs)
        return f"[{body}]@{1 << self.level}"

    @classmethod
    def from_text(cls, text: str) -> "CyclotomicNumber":
        text = text.strip()
        if not (text.startswith("[") and "@" in text):
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


def root_of_unity(n: int, k: int = 1) -> CyclotomicNumber:
    """zeta_n^k at the minimal sufficient level.

    Example: root_of_unity(8, 2) is the imaginary unit, root_of_unity(2, 1)
    is -1.  Only 2-power orders up to 64 are representable.
    """
    if n not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported root-of-unity order {n} (need one of {SUPPORTED_ORDERS})")
    level = n.bit_length() - 1
    d = degree_at(level)
    e = k % n
    coeffs = [_ZERO] * d
    if e < d:
        coeffs[e] = _ONE
    else:
        coeffs[e - d] = -_ONE
    return CyclotomicNumber(level, coeffs)


ZERO = CyclotomicNumber.zero()
ONE = CyclotomicNumber.one()
