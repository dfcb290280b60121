"""Certifier for the order-64 monomial group actions on a pencil of
quadric complete intersections in P^7.

The variety is cut out by four quadrics in x0..x7 with coefficients in three
rational parameters y1, y2, y3; each is one polynomial in the flat ring x0..x7,
y1..y3 of x-degree 2, held at a triple as its coefficients (i, j, c), one per
monomial c*x_i*x_j, and restricted to a subspace as a form of the same kind.
Everything proved here is proved exactly.  Freeness is proved element by
element on each eigenspace, absence of a fixed point mod a 64-bit prime and
presence exactly: reduction mod the prime is a ring homomorphism, so a
restricted value or a Macaulay rank nonzero there is nonzero.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple, Sequence

from .cyclotomic import CyclotomicNumber, root_of_unity
from .groups import FiniteGroup, conjugacy_classes
from .linalg import EigenspaceComponent, ExactMatrix, MonomialMatrix
from .groebner import PRIME, _residue, projective_zero_set_empty
from .polynomials import PENCIL_VARIABLES, Polynomial, X_VARIABLES, monomial_text

MAX_SPECIALIZATION_HEIGHT = 97
#: Candidate triples draw_specializations screens before giving up.
MAX_DRAWS = 500


def _y_triple(y) -> tuple[Fraction, Fraction, Fraction]:
    values = tuple(Fraction(v) for v in y)
    if len(values) != 3:
        raise ValueError("parameter point needs exactly three values")
    return values


# -- the quadric system -------------------------------------------------------


class QuadricSystem:
    """Four quadrics in the flat ring x0..x7, y1..y3: every term has
    x-degree 2, and y1..y3 carry the parameters (absent for custom systems
    with constant coefficients).  `echelon` is the reduced echelon basis of
    their span, eliminated once over the monomials in descending order: per
    row its pivot monomial m_i, the row b_i and its transform row T_i, with
    b_i = sum_j T_ij q_j."""

    def __init__(self, quadrics: tuple[Polynomial, ...]):
        if len(quadrics) != 4:
            raise ValueError("need exactly 4 quadrics")
        for q in quadrics:
            if q.variables != PENCIL_VARIABLES:
                raise ValueError("quadrics must live in the x0..x7, y1..y3 ring")
            if any(sum(e[:8]) != 2 for e in q.terms):
                raise ValueError("every quadric term must have x-degree 2")
        monomials = sorted({e for q in quadrics for e in q.terms}, reverse=True)
        span = ExactMatrix([q.terms.get(m, 0) for m in monomials] for q in quadrics).rref()
        echelon = tuple(
            (monomials[c], Polynomial(PENCIL_VARIABLES, dict(zip(monomials, row))), t)
            for c, row, t in zip(span.pivots, span.reduced, span.transform)
        )
        object.__setattr__(self, "quadrics", quadrics)
        object.__setattr__(self, "echelon", echelon)
        # what is proved about this system lives exactly as long as it does
        object.__setattr__(self, "_invariance", {})
        object.__setattr__(self, "_context", {})

    def __setattr__(self, name, value):
        raise AttributeError("QuadricSystem is immutable")

    def invariance(self, g: MonomialMatrix) -> "InvarianceResult":
        """`check_ideal_invariance(g, self)`, proved once per element."""
        if g not in self._invariance:
            self._invariance[g] = check_ideal_invariance(g, self)
        return self._invariance[g]

    def context(self, y) -> "ODPContext":
        """`ODPContext.at(self, y)`, built once per parameter triple."""
        triple = _y_triple(y)
        if triple not in self._context:
            self._context[triple] = ODPContext.at(self, triple)
        return self._context[triple]

    def specialized(self, y) -> tuple[Polynomial, ...]:
        triple = _y_triple(y)
        return tuple(q.specialize(triple) for q in self.quadrics)

    @classmethod
    def from_records(cls, records: Sequence[Sequence[dict]]) -> "QuadricSystem":
        if not isinstance(records, list):
            raise ValueError("quadrics must be given as a list")
        quadrics = []
        for rows in records:
            if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
                raise ValueError("each quadric must be a list of term objects")
            terms: dict[tuple[int, ...], CyclotomicNumber] = {}
            for row in rows:
                for key in ("x_exponents", "y_exponents", "coefficient"):
                    if key not in row:
                        raise ValueError(f"a term row lacks the key {key!r}")
                x_exp, y_exp = row["x_exponents"], row["y_exponents"]
                if not (_int_list(x_exp, 8) and _int_list(y_exp, 3)):
                    raise ValueError("records need lists of 8 x-exponents and 3 y-exponents")
                coeff = CyclotomicNumber.from_text(str(row["coefficient"]))
                key = tuple(x_exp + y_exp)
                terms[key] = terms[key] + coeff if key in terms else coeff
            quadrics.append(Polynomial(PENCIL_VARIABLES, terms))
        return cls(tuple(quadrics))


def _int_list(value, length: int) -> bool:
    return (
        isinstance(value, list)
        and len(value) == length
        and all(type(v) is int for v in value)  # a bool is not an int
    )


def _pencil_monomial(x_indices, y_exponents=(0, 0, 0)) -> tuple[int, ...]:
    e = [0] * 8
    for i in x_indices:
        e[i % 8] += 1
    return tuple(e) + tuple(y_exponents)


def build_quadrics() -> QuadricSystem:
    """The standard pencil: quadric k (k = 0..3) is

        y1*y3*(x_k^2 + x_{k+4}^2)
        - y2^2*(x_{k+1}*x_{k+7} + x_{k+3}*x_{k+5})
        + (y1^2 + y3^2)*x_{k+2}*x_{k+6}

    with all x-indices mod 8.
    """
    quadrics = []
    for k in range(4):
        terms = {
            _pencil_monomial((k, k), (1, 0, 1)): 1,
            _pencil_monomial((k + 4, k + 4), (1, 0, 1)): 1,
            _pencil_monomial((k + 1, k + 7), (0, 2, 0)): -1,
            _pencil_monomial((k + 3, k + 5), (0, 2, 0)): -1,
            _pencil_monomial((k + 2, k + 6), (2, 0, 0)): 1,
            _pencil_monomial((k + 2, k + 6), (0, 0, 2)): 1,
        }
        quadrics.append(Polynomial(PENCIL_VARIABLES, terms))
    return QuadricSystem(tuple(quadrics))


def planted_control_system() -> QuadricSystem:
    """Negative control: the four antipodal coordinate products.  Its zero
    locus contains every coordinate point, so any element fixing one is
    caught by the freeness machinery."""
    return QuadricSystem(
        tuple(
            Polynomial.monomial(PENCIL_VARIABLES, _pencil_monomial((i, i + 4)))
            for i in range(4)
        )
    )


# -- base point and orbit -----------------------------------------------------


def base_point(y) -> tuple[CyclotomicNumber, ...]:
    """The distinguished singular point (0, y1, y2, y3, 0, -y3, -y2, -y1)."""
    y1, y2, y3 = (CyclotomicNumber.from_rational(v) for v in _y_triple(y))
    zero = CyclotomicNumber.zero()
    return (zero, y1, y2, y3, zero, -y3, -y2, -y1)


def projective_point_key(coords: Sequence[CyclotomicNumber]) -> tuple:
    """Canonical form under scaling: divide by the first nonzero coordinate.
    Equal keys exactly characterize proportional vectors."""
    pivot = next((c for c in coords if not c.is_zero()), None)
    if pivot is None:
        raise ValueError("projective point cannot be the zero vector")
    inv = pivot.inverse()
    return tuple((c * inv).sort_key() for c in coords)


class OrbitPoint(NamedTuple):
    coordinates: tuple[CyclotomicNumber, ...]
    group_element: MonomialMatrix
    key: tuple  # projective_point_key(coordinates)

    def render(self) -> str:
        return "(" + " : ".join(c.to_text() for c in self.coordinates) + ")"


def orbit_size(group: FiniteGroup, point: Sequence[CyclotomicNumber]) -> int:
    """The number of distinct projective points g.p, by the orbit-stabilizer
    theorem: the group order over the count of g with g.p proportional to p.
    If g.p is proportional to p, g's permutation maps p's zero coordinates
    onto themselves, so any other g is skipped unapplied.  Proportionality
    is tested by cross-multiplying against p's first nonzero coordinate, so
    no field inverse is taken."""
    k = next((i for i, c in enumerate(point) if not c.is_zero()), None)
    if k is None:
        raise ValueError("projective point cannot be the zero vector")
    zeros = [j for j, c in enumerate(point) if c.is_zero()]
    stabilizer = 0
    for g in group.elements:
        if not all(point[g.perm[j]].is_zero() for j in zeros):
            continue
        image = g.point_matrix().apply(point)
        if all(a * point[k] == b * image[k] for a, b in zip(image, point)):
            stabilizer += 1
    return group.order // stabilizer


def singular_orbit(system: QuadricSystem, group: FiniteGroup, y) -> list[OrbitPoint]:
    """Images of the base point under the inverse-transpose action of every
    group element, deduplicated projectively, in group discovery order."""
    origin = base_point(y)
    seen = {}
    out = []
    for g in group.elements:
        coords = tuple(g.point_matrix().apply(origin))
        key = projective_point_key(coords)
        if key not in seen:
            seen[key] = True
            out.append(OrbitPoint(coords, g, key))
    return out


# -- ordinary double point certification --------------------------------------


def quadric_terms(quadric: Polynomial) -> tuple[tuple[int, int, CyclotomicNumber], ...]:
    """A quadratic form's coefficients (i, j, c), i <= j, one per monomial
    c*x_i*x_j."""
    return tuple(
        (*(k for k, e in enumerate(m) for _ in range(e)), c) for m, c in quadric.terms.items()
    )


def restrict_terms(terms: Sequence, basis: Sequence[Sequence], prime: int | None = None) -> list:
    """The nonzero coefficients (a, b, c), a <= b, of the form q o B^T in one
    coordinate s_a per row B_a of basis, for q given by its terms: c*x_i*x_j
    gives c*B_a[i]*B_b[j] on s_a*s_b, and c*B_a[j]*B_b[i] too when a < b, as
    the rows are taken in both orders.  Terms at one position add.  With a
    prime, terms and basis hold residues (ints), and the sums are reduced."""
    nonzero = bool if prime else (lambda v: not v.is_zero())
    support = [[(a, v) for a, v in enumerate(column) if nonzero(v)] for column in zip(*basis)]
    sums: dict = {}
    for i, j, c in terms:
        for a, u in support[i]:
            for b, v in support[j]:
                key = (a, b) if a <= b else (b, a)
                sums[key] = sums[key] + c * u * v if key in sums else c * u * v
    sums = {key: total % prime for key, total in sums.items()} if prime else sums
    return [(a, b, total) for (a, b), total in sorted(sums.items()) if nonzero(total)]


def restrict_form(terms: Sequence, basis: Sequence[Sequence[CyclotomicNumber]]) -> ExactMatrix:
    """The Gram matrix B H B^T of the form q restricted to the span of the
    rows of basis, H the Hessian of q: each restricted term (a, b, c) puts
    2c at (a, a), or c at (a, b) and at (b, a)."""
    gram = [[CyclotomicNumber.zero()] * len(basis) for _ in basis]
    for a, b, c in restrict_terms(terms, basis):
        gram[a][b] = gram[b][a] = c + c if a == b else c
    return ExactMatrix(gram)


class ODPContext:
    """The pencil specialized at one parameter triple, held only as each
    quadric's coefficients (i, j, c), i <= j (`quadric_terms`), and their
    `residues` mod PRIME, None when PRIME divides a denominator.  Built once
    per triple by `QuadricSystem.context`; it keeps what is proved there, by
    point key and by element: `certificates`, `freeness`."""

    def __init__(self, terms: tuple[tuple[tuple[int, int, CyclotomicNumber], ...], ...]):
        object.__setattr__(self, "terms", terms)
        residues = tuple(tuple((i, j, _residue(c)) for i, j, c in q) for q in terms)
        known = all(r is not None for q in residues for *_, r in q)
        object.__setattr__(self, "residues", residues if known else None)
        object.__setattr__(self, "certificates", {})
        object.__setattr__(self, "freeness", {})

    def __setattr__(self, name, value):
        raise AttributeError("ODPContext is immutable")

    @classmethod
    def at(cls, system: QuadricSystem, y) -> "ODPContext":
        return cls(tuple(quadric_terms(q) for q in system.specialized(y)))

    def vanishes(self, point: Sequence[CyclotomicNumber]) -> bool:
        """Whether every quadric vanishes at p: q(p) is the sum of c*p_i*p_j
        over q's terms.  One pass marks p's zero coordinates, and every term
        at one of them is skipped."""
        live = [not v.is_zero() for v in point]
        for terms in self.terms:
            values = [c * point[i] * point[j] for i, j, c in terms if live[i] and live[j]]
            if values and not sum(values[1:], values[0]).is_zero():
                return False
        return True

    def jacobian(self, point: Sequence[CyclotomicNumber]) -> ExactMatrix:
        """The 4x8 Jacobian at p: a term c*x_i*x_j adds c*p_j at i and c*p_i at j."""
        rows = [[CyclotomicNumber.zero()] * len(point) for _ in self.terms]
        for row, terms in zip(rows, self.terms):
            for i, j, c in terms:
                if not point[j].is_zero():
                    row[i] = row[i] + (c + c if i == j else c) * point[j]
                if i < j and not point[i].is_zero():
                    row[j] = row[j] + c * point[i]
        return ExactMatrix(rows)

    def combination(self, coeffs) -> list[tuple[int, int, CyclotomicNumber]]:
        """The terms of sum_k coeffs[k] * q_k; terms at one position repeat."""
        scaled = [(c, terms) for c, terms in zip(coeffs, self.terms) if not c.is_zero()]
        return [(i, j, c * v) for c, terms in scaled for i, j, v in terms]


class ODPCertificate(NamedTuple):
    on_variety: bool
    jacobian_rank: int
    hessian_restricted_rank: int
    null_combination: tuple[CyclotomicNumber, ...] | None

    @property
    def passes(self) -> bool:
        return self.on_variety and self.jacobian_rank == 3 and self.hessian_restricted_rank == 4


def verify_odp(point: Sequence[CyclotomicNumber], context: ODPContext) -> ODPCertificate:
    """Exact ordinary-double-point certificate at one point.

    Steps: all four quadrics vanish (`context.vanishes`); the 4x8 Jacobian J has
    rank exactly 3; and the Hessian H of the combination c in J's left kernel,
    restricted to J's right kernel (which contains p), has rank exactly 4, i.e.
    the combination cuts a nondegenerate quadric cone transverse to the other
    three; this rank is the only use of a symmetric matrix (`restrict_form`).
    H*p = c*J(p) = 0 by construction.  The verdict depends only on the
    projective point, so one certificate serves every multiple of it.
    """
    if not context.vanishes(point):
        return ODPCertificate(False, -1, -1, None)

    # one elimination gives the rank, the tangent space and the combination
    elim = context.jacobian(point).rref()
    if elim.rank != 3:
        return ODPCertificate(True, elim.rank, -1, None)

    (combo,) = elim.left_kernel()
    restricted = restrict_form(context.combination(combo), elim.right_kernel())
    return ODPCertificate(True, 3, restricted.rank(), combo)


def check_orbit(
    group: FiniteGroup, system: QuadricSystem, y
) -> tuple[int, tuple[OrbitPoint, ODPCertificate] | None]:
    """The size (`orbit_size`) of the group's singular orbit at a triple,
    and the first certified orbit point whose certificate fails, with that
    certificate, or None.

    A group whose generators all pass `check_ideal_invariance` preserves the
    variety and maps ordinary double points to ordinary double points (README
    gives the argument), so only the base point is certified; a group with a
    failing generator certifies every point of `singular_orbit`.  The
    triple's context (`system.context`) keeps each projective point's
    certificate, for every group and every later call."""
    base = base_point(y)
    if all(system.invariance(g).ok for g in group.generators):
        points = [OrbitPoint(base, group.identity(), projective_point_key(base))]
    else:
        points = singular_orbit(system, group, y)
    size = orbit_size(group, base)
    context = system.context(y)
    for point in points:
        cert = context.certificates.get(point.key)
        if cert is None:
            cert = context.certificates[point.key] = verify_odp(point.coordinates, context)
        if not cert.passes:
            return size, (point, cert)
    return size, None


# -- ideal invariance ---------------------------------------------------------


class InvarianceResult(NamedTuple):
    ok: bool
    matrix: tuple[tuple[CyclotomicNumber, ...], ...] | None
    witness_monomial: tuple[int, ...] | None

    def witness_text(self) -> str | None:
        if self.witness_monomial is None:
            return None
        return monomial_text(X_VARIABLES, self.witness_monomial) or "1"


def check_ideal_invariance(g: MonomialMatrix, system: QuadricSystem) -> InvarianceResult:
    """Certify that pulling each quadric back through g lands in the span of
    the four quadrics, with scalar (y-independent) coefficients.

    The matching is an identity of polynomials in x and y, reduced against
    the echelon basis the system eliminated once (`QuadricSystem.echelon`).
    Each b_i is zero at every other pivot, so with c_i the coefficient of m_i
    in q_k o g, row k of the matrix is sum_i c_i T_i, and the residual
    q_k o g - sum_i c_i b_i = q_k o g - sum_j M_kj q_j must vanish.
    Otherwise the witness is the x-part of the residual's largest monomial:
    the residual is zero at every pivot and each b_i lives at or below m_i,
    so every combination of the quadrics leaves a monomial at or above it
    uncancelled.
    """
    matrix_rows = []
    for quadric in system.quadrics:
        residual = quadric.substitute_linear(g)
        row = [CyclotomicNumber.zero()] * 4
        for pivot, basis_row, combination in system.echelon:
            c = residual.terms.get(pivot)
            if c is not None:
                row = [r + c * t for r, t in zip(row, combination)]
                residual = residual - basis_row.scale(c)
        if not residual.is_zero():
            return InvarianceResult(False, None, max(residual.terms)[:8])
        matrix_rows.append(tuple(row))
    return InvarianceResult(True, tuple(matrix_rows), None)


# -- fixed loci and freeness --------------------------------------------------


def fixed_locus_components(g: MonomialMatrix) -> list[EigenspaceComponent]:
    """Candidate fixed-locus pieces of g on P^7: the projectivized
    eigenspaces of its inverse-transpose (point) matrix."""
    if g.is_identity():
        raise ValueError("identity fixes everything; no component analysis")
    return g.point_matrix().eigenspaces()


class ComponentOutcome(NamedTuple):
    eigenvalue: str
    multiplicity: int
    verdict: str  # "no-fixed-point" | "fixed-point" | "fixed-locus-no-witness"
    witness: tuple[str, ...] | None


class ElementOutcome(NamedTuple):
    element: dict
    components: tuple[ComponentOutcome, ...]

    @property
    def has_fixed_point(self) -> bool:
        return any(c.verdict != "no-fixed-point" for c in self.components)


class SpecializationOutcome(NamedTuple):
    elements: tuple[ElementOutcome, ...]


class FreenessReport(NamedTuple):
    group_name: str
    specializations: tuple[SpecializationOutcome, ...]

    @property
    def verdict(self) -> str:
        if any(e.has_fixed_point for s in self.specializations for e in s.elements):
            return "fixed-point-found"
        return "free"


def _component_witness_candidates(dimension: int):
    """Deterministic ladder of restricted-coordinate trial points: unit
    vectors, then two-coordinate root-of-unity mixes, then a fixed sample of
    small rationals."""
    one = CyclotomicNumber.one()
    zero = CyclotomicNumber.zero()
    for t in range(dimension):
        vec = [zero] * dimension
        vec[t] = one
        yield tuple(vec)
    for t1 in range(dimension):
        for t2 in range(t1 + 1, dimension):
            for k in range(8):
                vec = [zero] * dimension
                vec[t1] = one
                vec[t2] = root_of_unity(8, k)
                yield tuple(vec)
    rng = random.Random(0)
    for _ in range(200):
        vec = [CyclotomicNumber.from_rational(rng.randint(-3, 3)) for _ in range(dimension)]
        if any(not v.is_zero() for v in vec):
            yield tuple(vec)


def _examine_component(component: EigenspaceComponent, context: ODPContext) -> ComponentOutcome:
    """A component is free when its quadrics restricted mod PRIME leave a
    line's value or a larger eigenspace's Macaulay rank nonzero.  Otherwise a
    line is its own point, and a larger eigenspace is free when its live
    restricted forms have no common zero, else a ladder of its points hunts
    for a witness.  A component the ladder misses is `fixed-locus-no-witness`:
    it meets the variety by the exact Macaulay rank or, with fewer live forms
    than coordinates, by the dimension count, and then no rank is taken."""
    eigentext = component.eigenvalue.to_text()
    basis = component.basis
    dim = component.multiplicity
    images = [[0 if v.is_zero() else _residue(v) for v in row] for row in basis]  # OMEGA powers
    residues = (restrict_terms(terms, images, PRIME) for terms in context.residues or ())

    if dim == 1:
        vec = basis[0]
        if not any(residues) and context.vanishes(vec):
            witness = tuple(c.to_text() for c in vec)
            return ComponentOutcome(eigentext, 1, "fixed-point", witness)
        return ComponentOutcome(eigentext, 1, "no-fixed-point", None)

    residues = list(residues) if context.residues else None
    restricted = lambda: [r for terms in context.terms if (r := restrict_terms(terms, basis))]
    live = restricted if any(residues or ()) else restricted()  # restricted exactly only if needed
    if live and projective_zero_set_empty(live, dim, residues):
        return ComponentOutcome(eigentext, dim, "no-fixed-point", None)

    zero = CyclotomicNumber.zero()
    for candidate in _component_witness_candidates(dim):
        # never zero: basis rows are nonzero on disjoint cycles, candidates nonzero
        point = [sum((b[j] * c for b, c in zip(basis, candidate)), zero) for j in range(8)]
        if context.vanishes(point):
            witness = tuple(c.to_text() for c in point)
            return ComponentOutcome(eigentext, dim, "fixed-point", witness)
    return ComponentOutcome(eigentext, dim, "fixed-locus-no-witness", None)


def check_freeness(
    group: FiniteGroup,
    system: QuadricSystem,
    specializations: Sequence,
    scope: str = "involutions",
    group_name: str = "custom",
    screen: bool = True,
) -> FreenessReport:
    """Prove the group acts without fixed points on the variety, for each
    parameter specialization.

    scope "involutions" relies on the 2-group reduction (a fixed point of
    any element is a fixed point of one of its order-2 powers) and is
    rejected for groups with non-2-power element orders; scope "all"
    examines every non-identity element and doubles as a validation of the
    reduction.  With `screen` (the default) a triple failing the genericity
    screen is refused, before any element is examined, by a ValueError
    naming it and every reason.  Each triple has the system's context
    (`system.context`), which keeps each element's outcome there, so
    overlapping groups and repeated calls do not recompute.

    The group's generators are proved first (`system.invariance`); then an
    element with a conjugate already settled free is recorded free
    unexamined, its components counted off its eigenvalues.  The conjugators
    are every element the system has proved invariant, of the group's size
    and phase modulus, whatever group asked for the proof; README gives the
    argument, and why fixed points never transfer.  So the outcomes do not
    depend on the order of calls, only which elements get examined does.
    Only the classes of elements still unsettled at some triple are walked.
    """
    if scope not in ("involutions", "all"):
        raise ValueError(f"scope must be 'involutions' or 'all', not {scope!r}")
    orders = {g: k for g, k in group.element_orders.items() if k > 1}
    bad = [k for k in orders.values() if k & (k - 1)]
    if scope == "involutions" and bad:
        raise ValueError(f"involutions-only scope needs a 2-group; found element order {bad[0]}")
    for y in specializations if screen else ():
        if reasons := genericity_screen(y, system, group):
            text = ",".join(map(str, _y_triple(y)))
            raise ValueError(f"triple {text} fails the screen: {'; '.join(reasons)}")
    targets = [g for g, k in orders.items() if scope == "all" or k == 2]
    for h in group.generators:
        system.invariance(h)
    contexts = [system.context(y) for y in specializations]
    unsettled = [g for g in targets if any(g not in c.freeness for c in contexts)]
    one = group.identity()
    kind = type(one)  # recast, so that conjugates stay normalized like the group's elements
    conjugators = dict.fromkeys(
        kind(h.perm, h.phases, h.N)
        for h, proved in system._invariance.items()
        if proved.ok and h.size == one.size and h.N == one.N
    )
    classes = conjugacy_classes(unsettled, conjugators)

    for g in unsettled:
        # eigenspaces and eigenvalues do not depend on the triple: found once
        components = free = None
        for context in (c for c in contexts if g not in c.freeness):
            donors = (context.freeness.get(h) for h in classes[g])
            if any(d and all(o.verdict == "no-fixed-point" for o in d) for d in donors):
                if free is None:
                    free = tuple(
                        ComponentOutcome(value.to_text(), multiplicity, "no-fixed-point", None)
                        for value, multiplicity in g.point_matrix().eigenvalues()
                    )
                context.freeness[g] = free
                continue
            if components is None:
                components = fixed_locus_components(g)
            context.freeness[g] = tuple(_examine_component(c, context) for c in components)

    outcomes = (tuple(ElementOutcome(g.to_dict(), c.freeness[g]) for g in targets) for c in contexts)
    return FreenessReport(group_name, tuple(map(SpecializationOutcome, outcomes)))


# -- genericity ---------------------------------------------------------------


def genericity_screen(y, system: QuadricSystem, group: FiniteGroup) -> tuple[str, ...]:
    """Necessary conditions for a parameter choice to exhibit the generic
    picture: the reasons it fails, naming every violated condition, and no
    reasons when it passes.  The specialized pencil it reads stays with the
    system (`system.context`)."""
    y1, y2, y3 = _y_triple(y)
    reasons = []
    if y1 == 0 or y2 == 0 or y3 == 0:
        reasons.append(f"coordinate vanishes: y=({y1},{y2},{y3})")
    if y1 * y3 == y2 * y2 or y1 * y3 == -y2 * y2:
        reasons.append("y1*y3 = +/- y2^2 collapses coefficient ratios")
    if reasons:
        return tuple(reasons)

    base = base_point((y1, y2, y3))
    size = orbit_size(group, base)
    if size != group.order:
        reasons.append(f"orbit has {size} distinct points, expected {group.order}")

    rank = system.context((y1, y2, y3)).jacobian(base).rank()
    if rank != 3:
        reasons.append(f"jacobian rank at base point is {rank}, expected 3")
    return tuple(reasons)


def draw_specializations(
    count: int,
    seed: int,
    system: QuadricSystem,
    group: FiniteGroup,
) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Seeded random rational parameter triples passing the screen, with
    numerators and denominators bounded by 97.  Too few passing triples make
    the input unusable, a ValueError.  Each screened triple's specialized
    pencil stays with the system."""
    rng = random.Random(seed)
    out: list[tuple[Fraction, Fraction, Fraction]] = []
    for _ in range(MAX_DRAWS):
        if len(out) == count:
            break
        candidate = tuple(
            Fraction(
                rng.randint(1, MAX_SPECIALIZATION_HEIGHT) * rng.choice((1, -1)),
                rng.randint(1, MAX_SPECIALIZATION_HEIGHT),
            )
            for _ in range(3)
        )
        if candidate in out:
            continue
        if not genericity_screen(candidate, system, group):
            out.append(candidate)
    if len(out) < count:
        raise ValueError(f"{len(out)} of {MAX_DRAWS} drawn triples passed the screen, {count} needed")
    return out
