"""Groebner bases over the cyclotomic coefficient field.

Everything here is deterministic: pair selection, divisor lookup and the
final ordering of the reduced basis depend only on the input list, never on
dict or set iteration order.  The engine is sized for the small restricted
systems this package produces (a handful of variables, quadratic
generators), so the classic Buchberger loop with the product and chain
criteria is enough; no attempt is made at F4-style batching.

Every emitted basis is post-verified: all S-polynomials of the reduced
basis reduce to zero against it, and so does every input generator.  A
failure raises instead of returning a bad basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .cyclotomic import CyclotomicNumber
from .polynomials import Polynomial, grevlex_key

#: Largest basis buchberger builds before giving up on a system.
MAX_BASIS = 200


def _exp_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _exp_sub(b: tuple[int, ...], a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(y - x for x, y in zip(a, b))


def _exp_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def _exp_disjoint(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def leading_term(p: Polynomial) -> tuple[tuple[int, ...], CyclotomicNumber]:
    """Grevlex-largest monomial and its coefficient; rejects zero."""
    if p.is_zero():
        raise ValueError("zero polynomial has no leading term")
    lm = max(p.terms, key=grevlex_key)
    return lm, p.terms[lm]


def _monomial_times(p: Polynomial, shift: tuple[int, ...], factor: CyclotomicNumber) -> Polynomial:
    terms = {}
    for e, c in p.terms.items():
        terms[tuple(i + j for i, j in zip(e, shift))] = c * factor
    return Polynomial._unchecked(p.variables, terms)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """Cancel the leading terms of f and g against their monomial lcm."""
    fm, fc = leading_term(f)
    gm, gc = leading_term(g)
    lcm = _exp_lcm(fm, gm)
    left = _monomial_times(f, _exp_sub(lcm, fm), fc.inverse())
    right = _monomial_times(g, _exp_sub(lcm, gm), gc.inverse())
    return left - right


def normal_form(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Fully reduced remainder of p under multivariate division by basis.

    Divisors are tried in list order, so the result is deterministic for a
    fixed basis list.  Against a Groebner basis the result is the canonical
    normal form and is zero exactly for ideal members.
    """
    divisors = [(b, *leading_term(b)) for b in basis if not b.is_zero()]
    work = dict(p.terms)
    remainder: dict[tuple[int, ...], CyclotomicNumber] = {}
    while work:
        lm = max(work, key=grevlex_key)
        lc = work.pop(lm)
        for b, bm, bc in divisors:
            if _exp_divides(bm, lm):
                factor = lc * bc.inverse()
                shift = _exp_sub(lm, bm)
                for e, c in b.terms.items():
                    if e == bm:
                        continue
                    key = tuple(i + j for i, j in zip(e, shift))
                    cur = work.get(key)
                    total = (cur - c * factor) if cur is not None else -(c * factor)
                    if total.is_zero():
                        work.pop(key, None)
                    else:
                        work[key] = total
                break
        else:
            remainder[lm] = lc
    return Polynomial._unchecked(p.variables, remainder)


def _interreduce(basis: list[Polynomial]) -> list[Polynomial]:
    """Minimalize, tail-reduce and normalize to the unique reduced basis."""
    ordered = sorted(basis, key=lambda b: grevlex_key(leading_term(b)[0]))
    kept: list[Polynomial] = []
    for p in ordered:
        lm = leading_term(p)[0]
        if not any(_exp_divides(leading_term(q)[0], lm) for q in kept):
            kept.append(p)
    changed = True
    while changed:
        changed = False
        for i, p in enumerate(kept):
            rest = kept[:i] + kept[i + 1 :]
            reduced = normal_form(p, rest)
            if reduced != p:
                kept[i] = reduced
                changed = True
    monic = []
    for p in kept:
        _, lc = leading_term(p)
        monic.append(p.scale(lc.inverse()))
    monic.sort(key=lambda b: grevlex_key(leading_term(b)[0]), reverse=True)
    return monic


@dataclass(frozen=True)
class GroebnerBasis:
    variables: tuple[str, ...]
    polys: tuple[Polynomial, ...]

    def normal_form(self, p: Polynomial) -> Polynomial:
        return normal_form(p, self.polys)

    def contains(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero()

    def is_trivial(self) -> bool:
        """Whether the ideal is the whole ring (basis reduces to {1})."""
        return len(self.polys) == 1 and self.polys[0].total_degree() == 0

    def leading_monomials(self) -> tuple[tuple[int, ...], ...]:
        return tuple(leading_term(p)[0] for p in self.polys)

    def pure_power_variables(self) -> frozenset[int]:
        """Variable indices i such that some leading monomial is x_i^k."""
        if self.is_trivial():
            return frozenset(range(len(self.variables)))
        found = set()
        for lm in self.leading_monomials():
            support = [i for i, e in enumerate(lm) if e]
            if len(support) == 1:
                found.add(support[0])
        return frozenset(found)

    def covers_all_variables(self) -> bool:
        return self.pure_power_variables() == frozenset(range(len(self.variables)))


def buchberger(generators: Iterable[Polynomial]) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal spanned by the generators.

    Pair selection is the normal strategy: smallest lcm in grevlex first,
    index pair as tie break.  Pairs with disjoint leading supports are
    dropped (product criterion), as are pairs covered by an already treated
    third element (chain criterion); the post-verification makes the
    result independent of any subtlety in those discards.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    variables = gens[0].variables
    for g in gens:
        if g.variables != variables:
            raise ValueError("generators live in different rings")

    basis: list[Polynomial] = []
    for g in gens:
        h = normal_form(g, basis)
        if not h.is_zero():
            basis.append(h)
    pending = {(i, j) for j in range(len(basis)) for i in range(j)}

    def treated(a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) not in pending

    while pending:
        lead = [leading_term(b)[0] for b in basis]
        i, j = min(
            pending, key=lambda ij: (grevlex_key(_exp_lcm(lead[ij[0]], lead[ij[1]])), ij)
        )
        pending.discard((i, j))
        if _exp_disjoint(lead[i], lead[j]):
            continue
        lcm = _exp_lcm(lead[i], lead[j])
        if any(
            k != i and k != j and _exp_divides(lead[k], lcm) and treated(i, k) and treated(j, k)
            for k in range(len(basis))
        ):
            continue
        h = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if h.is_zero():
            continue
        if len(basis) >= MAX_BASIS:
            raise RuntimeError(f"basis exceeded {MAX_BASIS} elements; system too large")
        m = len(basis)
        basis.append(h)
        pending.update((t, m) for t in range(m))

    reduced = _interreduce(basis)
    gb = GroebnerBasis(variables, tuple(reduced))
    _verify_basis(gb, gens)
    return gb


def _verify_basis(gb: GroebnerBasis, gens: Sequence[Polynomial]) -> None:
    polys = gb.polys
    for j in range(len(polys)):
        for i in range(j):
            if not normal_form(s_polynomial(polys[i], polys[j]), polys).is_zero():
                raise ArithmeticError(f"S-polynomial of basis elements {i},{j} does not reduce")
    for n, g in enumerate(gens):
        if not normal_form(g, polys).is_zero():
            raise ArithmeticError(f"input generator {n} does not reduce to zero")


def projective_zero_set_empty(system: Sequence[Polynomial]) -> bool:
    """Whether a homogeneous system has no projective solution over any
    extension field.

    True exactly when the quotient by the ideal is finite dimensional, which
    for a homogeneous ideal confines the affine zero set to the origin; the
    test is that every variable appears as a pure power among the leading
    monomials of the reduced basis.  All-zero systems come back False (the
    zero locus is the whole space).
    """
    polys = [p for p in system if not p.is_zero()]
    if not polys:
        return False
    for p in polys:
        if not p.is_homogeneous():
            raise ValueError("projective emptiness needs homogeneous polynomials")
    gb = buchberger(polys)
    if gb.is_trivial():
        return True
    return gb.covers_all_variables()
