"""Sparse multivariate polynomials with CyclotomicNumber coefficients.

The parametric pencil lives in one flat ring x0..x7, y1..y3
(`PENCIL_VARIABLES`); `specialize` evaluates y1..y3 at a rational point and
returns the polynomial in x0..x7.

Monomials are exponent tuples keyed into a dict; the fixed term order is
graded reverse lexicographic with the variable order given by the tuple of
names (ascending significance left to right, as usual for grevlex keys).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .cyclotomic import CyclotomicNumber, as_cyclotomic, root_of_unity
from .linalg import MonomialMatrix

X_VARIABLES = tuple(f"x{i}" for i in range(8))
Y_VARIABLES = ("y1", "y2", "y3")
PENCIL_VARIABLES = X_VARIABLES + Y_VARIABLES


def grevlex_key(exponents: tuple[int, ...]):
    """Sort key realizing grevlex: compare total degree, then the reversed
    exponent tuple with signs flipped (ties break toward smaller exponents in
    the last differing variable)."""
    return (sum(exponents), tuple(-e for e in reversed(exponents)))


def monomial_text(variables: Sequence[str], exponents: Sequence[int]) -> str:
    """The monomial as its factors joined by "*", such as "x1*x7" or "x3^2";
    "" for the constant monomial."""
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(variables, exponents) if e)


def _add_term(terms: dict, exponents: tuple[int, ...], coeff: CyclotomicNumber) -> None:
    """Add coeff to the term at exponents, dropping the term if it is zero."""
    total = terms[exponents] + coeff if exponents in terms else coeff
    if total.is_zero():
        terms.pop(exponents, None)
    else:
        terms[exponents] = total


class Polynomial:
    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping | None = None):
        variables = tuple(variables)
        clean: dict[tuple[int, ...], CyclotomicNumber] = {}
        for exponents, coeff in (terms or {}).items():
            exponents = tuple(int(e) for e in exponents)
            if len(exponents) != len(variables):
                raise ValueError(
                    f"exponent tuple {exponents} does not match {len(variables)} variables"
                )
            if any(e < 0 for e in exponents):
                raise ValueError(f"negative exponent in {exponents}")
            _add_term(clean, exponents, as_cyclotomic(coeff))
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def _unchecked(cls, variables: tuple[str, ...], terms: dict) -> "Polynomial":
        """Wrap terms that already have matching exponent tuples and nonzero
        CyclotomicNumber coefficients, skipping the constructor's checks."""
        out = cls.__new__(cls)
        object.__setattr__(out, "variables", variables)
        object.__setattr__(out, "terms", terms)
        return out

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Sequence[str], coeff) -> "Polynomial":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): coeff})

    @classmethod
    def monomial(cls, variables: Sequence[str], exponents: Sequence[int], coeff=1) -> "Polynomial":
        return cls(tuple(variables), {tuple(exponents): coeff})

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the zero polynomial is reported as -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def sorted_exponents(self) -> list[tuple[int, ...]]:
        """Exponent tuples in descending grevlex order."""
        return sorted(self.terms, key=grevlex_key, reverse=True)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __repr__(self):
        return f"Polynomial({self.render()})"

    # -- ring operations -----------------------------------------------------

    def _check_same_ring(self, other: "Polynomial"):
        if self.variables != other.variables:
            raise ValueError(f"variable mismatch {self.variables} vs {other.variables}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_ring(other)
        terms = dict(self.terms)
        for exponents, coeff in other.terms.items():
            _add_term(terms, exponents, coeff)
        return Polynomial._unchecked(self.variables, terms)

    def __neg__(self):
        return Polynomial._unchecked(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.variables != other.variables:
            raise ValueError(f"variable mismatch {self.variables} vs {other.variables}")
        terms: dict[tuple[int, ...], CyclotomicNumber] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                _add_term(terms, tuple(i + j for i, j in zip(ea, eb)), ca * cb)
        return Polynomial._unchecked(self.variables, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor) -> "Polynomial":
        """Multiply every coefficient by a scalar."""
        factor = as_cyclotomic(factor)
        return Polynomial(self.variables, {e: c * factor for e, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(self.variables, 1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- calculus ------------------------------------------------------------

    def partial_derivative(self, index: int) -> "Polynomial":
        terms: dict[tuple[int, ...], CyclotomicNumber] = {}
        for exponents, coeff in self.terms.items():
            e = exponents[index]
            if e == 0:
                continue
            lowered = list(exponents)
            lowered[index] = e - 1
            terms[tuple(lowered)] = coeff * e
        return Polynomial(self.variables, terms)

    # -- substitution --------------------------------------------------------

    def substitute_linear(self, g: MonomialMatrix) -> "Polynomial":
        """Pullback under the monomial substitution x_j -> zeta^phases[j] x_perm[j].

        g moves the first g.size variables (x0..x7 of the pencil ring) and
        leaves the rest (y1..y3) fixed; the picked-up root of unity scales
        the coefficient.  Distinct exponents map to distinct exponents, and a
        root of unity times a nonzero coefficient is nonzero: nothing merges.
        """
        n = g.size
        if len(self.variables) < n:
            raise ValueError(f"substitution size {n} vs {len(self.variables)} variables")
        terms: dict[tuple[int, ...], CyclotomicNumber] = {}
        for exponents, coeff in self.terms.items():
            image = [0] * n
            phase = 0
            for j, e in enumerate(exponents[:n]):
                if e:
                    image[g.perm[j]] += e
                    phase += g.phases[j] * e
            phase %= g.N
            if phase:
                coeff = coeff * root_of_unity(g.N, phase)
            terms[tuple(image) + exponents[n:]] = coeff
        return Polynomial._unchecked(self.variables, terms)

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """General composition: replace variable i by images[i].

        All images must share one target ring.
        """
        if len(images) != len(self.variables):
            raise ValueError("need one image polynomial per variable")
        target = images[0].variables
        for img in images:
            if img.variables != target:
                raise ValueError("images live in different rings")
        result = Polynomial.zero(target)
        for exponents, coeff in self.terms.items():
            term = Polynomial.constant(target, coeff)
            for i, e in enumerate(exponents):
                if e:
                    term = term * images[i] ** e
            result = result + term
        return result

    # -- evaluation ----------------------------------------------------------

    def specialize(self, y: Sequence[Fraction | int]) -> "Polynomial":
        """Evaluate y1..y3 of a pencil-ring polynomial at a rational point;
        the result is the polynomial in x0..x7."""
        if self.variables != PENCIL_VARIABLES:
            raise ValueError("specialize needs a polynomial in x0..x7, y1..y3")
        point = [Fraction(v) for v in y]
        if len(point) != len(Y_VARIABLES):
            raise ValueError("parameter point needs exactly three values")
        n = len(X_VARIABLES)
        terms: dict[tuple[int, ...], CyclotomicNumber] = {}
        for exponents, coeff in self.terms.items():
            scale = Fraction(1)
            for v, e in zip(point, exponents[n:]):
                scale *= v ** e
            value = coeff * scale
            key = exponents[:n]
            terms[key] = terms[key] + value if key in terms else value
        return Polynomial(X_VARIABLES, terms)

    def evaluate(self, point: Sequence) -> CyclotomicNumber:
        """Value at a point with cyclotomic (or rational) coordinates."""
        coords = [as_cyclotomic(v) for v in point]
        if len(coords) != len(self.variables):
            raise ValueError("point length mismatch")
        total = CyclotomicNumber.zero()
        for exponents, coeff in self.terms.items():
            value = coeff
            for i, e in enumerate(exponents):
                if e:
                    value = value * coords[i] ** e
            total = total + value
        return total

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exponents in self.sorted_exponents():
            coeff_text = self.terms[exponents].to_text()
            factors = monomial_text(self.variables, exponents)
            parts.append(f"{coeff_text}*{factors}" if factors else coeff_text)
        return " + ".join(parts)
