"""Projective emptiness by one Macaulay-matrix rank, and Groebner bases over
the cyclotomic coefficient field.

`projective_zero_set_empty` decides emptiness of fixed-locus systems, each
restricted quadric given by its terms as they stand, by a rank taken mod
PRIME first: reduction mod PRIME is a ring homomorphism, so a maximal minor
nonzero mod PRIME is nonzero and full rank there proves full rank over
Q(zeta_64); otherwise the exact rank of the same matrix decides.

`buchberger` is only the tests' reference now, so its MAX_BASIS error cannot
be reached from the CLI.  It is deterministic (pair selection, divisor
lookup and basis order depend only on the input list), uses the product and
chain criteria, and post-verifies every basis: all S-polynomials and every
input generator reduce to zero against it, or it raises.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterable, NamedTuple, Sequence

from .cyclotomic import MAX_LEVEL, MIN_LEVEL, ZERO, CyclotomicNumber, degree_at
from .linalg import ExactMatrix
from .polynomials import Polynomial, grevlex_key

#: Largest basis buchberger builds before giving up on a system.
MAX_BASIS = 200

#: F_PRIME has a primitive 64th root of unity OMEGA (2^32 divides PRIME - 1);
#: as OMEGA^32 = -1, zeta_{2^L} -> OMEGA^(64 / 2^L) is a ring homomorphism
#: Z[zeta_64][1/den] -> F_PRIME for every den prime to PRIME.
PRIME = 2**64 - 2**32 + 1
OMEGA = pow(7, (PRIME - 1) // 64, PRIME)
if pow(OMEGA, 32, PRIME) != PRIME - 1:
    raise ArithmeticError("OMEGA is not a primitive 64th root of unity mod PRIME")
_OMEGA_POWERS = {  # the image of zeta_{2^L}^i, by level L
    L: [pow(OMEGA, (64 >> L) * i, PRIME) for i in range(degree_at(L))]
    for L in range(MIN_LEVEL, MAX_LEVEL + 1)
}


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


class GroebnerBasis(NamedTuple):
    variables: tuple[str, ...]
    polys: tuple[Polynomial, ...]

    def normal_form(self, p: Polynomial) -> Polynomial:
        return normal_form(p, self.polys)

    def contains(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero()

    def is_trivial(self) -> bool:
        """Whether the ideal is the whole ring (basis reduces to {1})."""
        return len(self.polys) == 1 and self.polys[0].total_degree() == 0


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


def _residue(c: CyclotomicNumber) -> int | None:
    """The image of c in F_PRIME, or None when PRIME divides its denominator."""
    if c.den % PRIME == 0:
        return None
    value = sum(n * w for n, w in zip(c.num, _OMEGA_POWERS[c.level]))
    return value * pow(c.den, -1, PRIME) % PRIME


def _full_rank_mod_prime(rows: list[dict[int, int]], ncols: int) -> bool:
    """Whether sparse rows over F_PRIME (column -> nonzero residue) span all
    ncols columns.  Each row is reduced against the pivot rows found so far,
    leftmost column first, and becomes a new pivot row if anything is left."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row and (c := min(row)) in pivots:
            f = row[c]
            for k, v in pivots[c].items():
                row[k] = (row.get(k, 0) - f * v) % PRIME
            row = {k: v for k, v in row.items() if v}
        if row:
            inv = pow(row[c], -1, PRIME)
            pivots[c] = {k: v * inv % PRIME for k, v in row.items()}
            if len(pivots) == ncols:
                return True
    return False


def projective_zero_set_empty(forms: Sequence, nvars: int) -> bool:
    """Whether quadratic forms in nvars coordinates, each given by its terms
    (a, b, c), a <= b, one per monomial c*s_a*s_b (as `restrict_terms`
    returns them), have no common projective zero over any extension field.

    k forms with k >= nvars have none exactly when their multiples of degree
    nvars + 1 span every monomial of that degree (Macaulay's bound for
    quadrics; Lazard 1983): the Macaulay matrix, one row per form times a
    monomial of degree nvars - 1 and one column per monomial, has full
    column rank.  Fewer forms always meet.
    """
    if len(forms) < nvars:
        return False
    # a monomial is its sorted tuple of coordinate indices, as the terms write s_a*s_b
    columns = {m: i for i, m in enumerate(combinations_with_replacement(range(nvars), nvars + 1))}
    shifts = list(combinations_with_replacement(range(nvars), nvars - 1))
    # row layout: the form and the column of each of its terms, shifted
    layout = [
        (k, [columns[tuple(sorted((*shift, a, b)))] for a, b, _ in f])
        for k, f in enumerate(forms)
        for shift in shifts
    ]
    # mod PRIME only full rank certifies; the exact rank decides the rest
    residues = [[_residue(c) for _, _, c in form] for form in forms]
    if not any(None in r for r in residues):
        rows = [{c: v for c, v in zip(cols, residues[k]) if v} for k, cols in layout]
        if _full_rank_mod_prime(rows, len(columns)):
            return True
    exact = [[ZERO] * len(columns) for _ in layout]
    for row, (k, cols) in zip(exact, layout):
        for c, (_, _, v) in zip(cols, forms[k]):
            row[c] = v
    return ExactMatrix(exact).rank() == len(columns)
