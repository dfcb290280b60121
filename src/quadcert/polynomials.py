"""Sparse multivariate polynomials with exact coefficients.

Two coefficient modes share one class.  In specialized mode coefficients are
CyclotomicNumber.  In parametric mode the coefficients of an x-polynomial are
themselves Polynomials in the parameters y1, y2, y3 (with cyclotomic
coefficients one level down); `specialize` collapses the tower once a
parameter point is chosen.  Only specialized polynomials can be evaluated or
fed to the Groebner engine.

Monomials are exponent tuples keyed into a dict; the fixed term order is
graded reverse lexicographic with the variable order given by the tuple of
names (ascending significance left to right, as usual for grevlex keys).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence, Union

from .cyclotomic import CyclotomicNumber, root_of_unity
from .linalg import MonomialMatrix

X_VARIABLES = tuple(f"x{i}" for i in range(8))
Y_VARIABLES = ("y1", "y2", "y3")


def s_variables(count: int) -> tuple[str, ...]:
    return tuple(f"s{i}" for i in range(count))


def grevlex_key(exponents: tuple[int, ...]):
    """Sort key realizing grevlex: compare total degree, then the reversed
    exponent tuple with signs flipped (ties break toward smaller exponents in
    the last differing variable)."""
    return (sum(exponents), tuple(-e for e in reversed(exponents)))


Coefficient = Union[CyclotomicNumber, "Polynomial"]


def _coerce_coefficient(value) -> Coefficient:
    if isinstance(value, (CyclotomicNumber, Polynomial)):
        return value
    if isinstance(value, (int, Fraction)):
        return CyclotomicNumber.from_rational(value)
    raise TypeError(f"bad coefficient type {type(value).__name__}")


def _coeff_is_zero(c: Coefficient) -> bool:
    return c.is_zero()


class Polynomial:
    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], Coefficient] | None = None):
        variables = tuple(variables)
        clean: dict[tuple[int, ...], Coefficient] = {}
        for exponents, coeff in (terms or {}).items():
            exponents = tuple(int(e) for e in exponents)
            if len(exponents) != len(variables):
                raise ValueError(
                    f"exponent tuple {exponents} does not match {len(variables)} variables"
                )
            if any(e < 0 for e in exponents):
                raise ValueError(f"negative exponent in {exponents}")
            coeff = _coerce_coefficient(coeff)
            if not _coeff_is_zero(coeff):
                if exponents in clean:
                    total = clean[exponents] + coeff
                    if _coeff_is_zero(total):
                        del clean[exponents]
                    else:
                        clean[exponents] = total
                else:
                    clean[exponents] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Sequence[str], coeff) -> "Polynomial":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): coeff})

    @classmethod
    def variable(cls, variables: Sequence[str], index: int) -> "Polynomial":
        variables = tuple(variables)
        exponents = [0] * len(variables)
        exponents[index] = 1
        return cls(variables, {tuple(exponents): CyclotomicNumber.one()})

    @classmethod
    def monomial(cls, variables: Sequence[str], exponents: Sequence[int], coeff=1) -> "Polynomial":
        return cls(tuple(variables), {tuple(exponents): coeff})

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_parametric(self) -> bool:
        return any(isinstance(c, Polynomial) for c in self.terms.values())

    def coefficient(self, exponents: Sequence[int]) -> Coefficient:
        exponents = tuple(exponents)
        if exponents in self.terms:
            return self.terms[exponents]
        return CyclotomicNumber.zero()

    def total_degree(self) -> int:
        """Degree of the zero polynomial is reported as -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        if not self.terms:
            return True
        degrees = {sum(e) for e in self.terms}
        if len(degrees) != 1:
            return False
        return degree is None or degrees == {degree}

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
            if exponents in terms:
                total = terms[exponents] + coeff
                if _coeff_is_zero(total):
                    del terms[exponents]
                else:
                    terms[exponents] = total
            else:
                terms[exponents] = coeff
        out = Polynomial.__new__(Polynomial)
        object.__setattr__(out, "variables", self.variables)
        object.__setattr__(out, "terms", terms)
        return out

    def __neg__(self):
        out = Polynomial.__new__(Polynomial)
        object.__setattr__(out, "variables", self.variables)
        object.__setattr__(out, "terms", {e: -c for e, c in self.terms.items()})
        return out

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
        terms: dict[tuple[int, ...], Coefficient] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(i + j for i, j in zip(ea, eb))
                prod = ca * cb
                if key in terms:
                    total = terms[key] + prod
                    if _coeff_is_zero(total):
                        del terms[key]
                    else:
                        terms[key] = total
                elif not _coeff_is_zero(prod):
                    terms[key] = prod
        out = Polynomial.__new__(Polynomial)
        object.__setattr__(out, "variables", self.variables)
        object.__setattr__(out, "terms", terms)
        return out

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor) -> "Polynomial":
        """Multiply every coefficient by a scalar (or a coefficient-ring element)."""
        if isinstance(factor, (int, Fraction)):
            factor = CyclotomicNumber.from_rational(factor)
        return Polynomial(
            self.variables, {e: _coeff_mul(c, factor) for e, c in self.terms.items()}
        )

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
        terms: dict[tuple[int, ...], Coefficient] = {}
        for exponents, coeff in self.terms.items():
            e = exponents[index]
            if e == 0:
                continue
            lowered = list(exponents)
            lowered[index] = e - 1
            terms[tuple(lowered)] = _coeff_mul(coeff, CyclotomicNumber.from_rational(e))
        return Polynomial(self.variables, terms)

    # -- substitution --------------------------------------------------------

    def substitute_linear(self, g: MonomialMatrix) -> "Polynomial":
        """Pullback under the monomial substitution x_j -> zeta^phases[j] x_perm[j].

        Works in either coefficient mode; the picked-up root of unity scales
        the coefficient.
        """
        if len(self.variables) != g.size:
            raise ValueError(f"substitution size {g.size} vs {len(self.variables)} variables")
        terms: dict[tuple[int, ...], Coefficient] = {}
        for exponents, coeff in self.terms.items():
            image = [0] * g.size
            phase = 0
            for j, e in enumerate(exponents):
                if e:
                    image[g.perm[j]] += e
                    phase += g.phases[j] * e
            phase %= g.N
            if phase:
                coeff = _coeff_mul(coeff, root_of_unity(g.N, phase))
            key = tuple(image)
            if key in terms:
                total = terms[key] + coeff
                if _coeff_is_zero(total):
                    del terms[key]
                else:
                    terms[key] = total
            else:
                terms[key] = coeff
        return Polynomial(self.variables, terms)

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """General composition: replace variable i by images[i].

        All images must share one target ring.  Coefficients multiply through
        (a parametric coefficient requires the target ring to be the
        parameter ring itself, as when evaluating at a symbolic point).
        """
        if len(images) != len(self.variables):
            raise ValueError("need one image polynomial per variable")
        target = images[0].variables
        for img in images:
            if img.variables != target:
                raise ValueError("images live in different rings")
        result = Polynomial.zero(target)
        for exponents, coeff in self.terms.items():
            term = Polynomial.constant(target, 1)
            for i, e in enumerate(exponents):
                if e:
                    term = term * images[i] ** e
            if isinstance(coeff, Polynomial):
                if coeff.variables != target:
                    raise ValueError(
                        "parametric coefficient ring does not match substitution target"
                    )
                term = term * coeff
            else:
                term = term.scale(coeff)
            result = result + term
        return result

    # -- parameter handling --------------------------------------------------

    def specialize(self, y: Sequence[Fraction | int]) -> "Polynomial":
        """Collapse parametric coefficients at a concrete parameter point."""
        if not self.is_parametric():
            return self
        point = [CyclotomicNumber.from_rational(Fraction(v)) for v in y]
        terms = {}
        for exponents, coeff in self.terms.items():
            value = coeff.evaluate(point) if isinstance(coeff, Polynomial) else coeff
            if not value.is_zero():
                terms[exponents] = value
        return Polynomial(self.variables, terms)

    def evaluate(self, point: Sequence) -> CyclotomicNumber:
        """Value at a point with cyclotomic (or rational) coordinates.

        Parametric polynomials must be specialized first.
        """
        if self.is_parametric():
            raise ValueError("cannot evaluate a parametric polynomial; specialize first")
        coords = [
            v if isinstance(v, CyclotomicNumber) else CyclotomicNumber.from_rational(v)
            for v in point
        ]
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
            coeff = self.terms[exponents]
            if isinstance(coeff, Polynomial):
                coeff_text = f"({coeff.render()})"
            else:
                coeff_text = coeff.to_text()
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.variables, exponents)
                if e
            ]
            parts.append("*".join([coeff_text] + factors) if factors else coeff_text)
        return " + ".join(parts)


def _coeff_mul(coeff: Coefficient, factor) -> Coefficient:
    """coefficient * scalar, valid in both coefficient modes."""
    if isinstance(coeff, Polynomial):
        if isinstance(factor, Polynomial):
            return coeff * factor
        return coeff.scale(factor)
    return coeff * factor


# -- systems ----------------------------------------------------------------


def evaluate_at(p: Polynomial, point: Sequence, y: Sequence | None = None) -> CyclotomicNumber:
    """Evaluate p at a point, specializing parameters first when given."""
    if p.is_parametric():
        if y is None:
            raise ValueError("parametric polynomial needs a parameter point")
        p = p.specialize(y)
    return p.evaluate(point)

