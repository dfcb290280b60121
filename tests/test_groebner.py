import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from quadcert import groebner
from quadcert.cyclotomic import (
    MAX_LEVEL,
    MIN_LEVEL,
    CyclotomicNumber,
    as_cyclotomic,
    degree_at,
    root_of_unity,
)
from quadcert.groebner import (
    OMEGA,
    PRIME,
    buchberger,
    leading_term,
    normal_form,
    projective_zero_set_empty,
    s_polynomial,
)
from quadcert.linalg import ExactMatrix, MonomialMatrix
from quadcert.polynomials import Polynomial
from quadcert.groups import standard_group
from quadcert.variety import (
    ODPContext,
    build_quadrics,
    fixed_locus_components,
    quadric_terms,
    restrict_terms,
)


def poly2(terms):
    return Polynomial(("x", "y"), terms)


X = poly2({(1, 0): 1})
Y = poly2({(0, 1): 1})


def s_variables(count):
    return tuple(f"s{i}" for i in range(count))


def form(*terms):
    """A quadratic form as its terms (a, b, c), one per monomial c*s_a*s_b."""
    return [(a, b, as_cyclotomic(c)) for a, b, c in terms]


def form_polynomial(terms, variables):
    """The form sum c*s_a*s_b of restricted terms (a, b, c)."""
    n = len(variables)
    monomials = {tuple((k == a) + (k == b) for k in range(n)): c for a, b, c in terms}
    return Polynomial(variables, monomials)


XX, XY, YY = form((0, 0, 1)), form((0, 1, 1)), form((1, 1, 1))


class TestDivision:
    def test_leading_term(self):
        p = X * Y + Y ** 2 + X  # grevlex: xy > y^2 > x
        lm, lc = leading_term(p)
        assert lm == (1, 1)
        assert lc == 1
        with pytest.raises(ValueError):
            leading_term(poly2({}))

    def test_normal_form_frozen(self):
        # x^2 y against {xy - 1}: one division step leaves x
        r = normal_form(X ** 2 * Y, [X * Y - poly2({(0, 0): 1})])
        assert r == X

    def test_normal_form_moves_irreducible_head(self):
        # y^2 + x against {x}: head y^2 is irreducible, tail x is not
        r = normal_form(Y ** 2 + X, [X])
        assert r == Y ** 2

    def test_s_polynomial_frozen(self):
        f = X ** 2 + Y ** 2
        g = X * Y
        assert s_polynomial(f, g) == Y ** 3

    def test_parametric_rejected(self):
        # coefficients are cyclotomic numbers only: a polynomial coefficient
        # is refused when the polynomial is built, before any Groebner call
        coeff = Polynomial.monomial(("y1",), (1,))
        with pytest.raises(TypeError):
            Polynomial(("x",), {(1,): coeff})


class TestBuchberger:
    def test_unit_ideal(self):
        one_var = Polynomial(("x",), {(2,): 1, (0,): 1})  # x^2 + 1
        line = Polynomial(("x",), {(1,): 1, (0,): -1})  # x - 1
        gb = buchberger([one_var, line])
        assert gb.is_trivial()
        assert gb.polys[0] == Polynomial.constant(("x",), 1)

    def test_already_a_basis(self):
        gb = buchberger([X - Y, Y ** 2])
        assert gb.polys == (Y ** 2, X - Y)

    def test_circle_meets_line(self):
        circle = X ** 2 + Y ** 2 - poly2({(0, 0): 1})
        diag = X - Y
        gb = buchberger([circle, diag])
        half = poly2({(0, 0): Fraction(1, 2)})
        assert gb.polys == (Y ** 2 - half, X - Y)
        assert gb.contains(circle)
        assert gb.contains(diag * (X + Y) + circle)

    def test_cyclotomic_coefficients(self):
        # x^2 + 1 splits over the field; neither factor is a member
        i_unit = root_of_unity(4, 1)
        p = Polynomial(("x",), {(2,): 1, (0,): 1})
        gb = buchberger([p])
        factor = Polynomial(("x",), {(1,): 1, (0,): -i_unit})
        assert not gb.contains(factor)
        assert gb.contains(p * factor)

    def test_reduced_basis_unique_under_shuffle(self):
        gens = [X ** 2 + X * Y, Y ** 2 - poly2({(0, 0): 1}), X * Y + Y]
        reference = buchberger(gens)
        rng = random.Random(7)
        for _ in range(6):
            shuffled = list(gens)
            rng.shuffle(shuffled)
            assert buchberger(shuffled).polys == reference.polys

    def test_input_validation(self):
        with pytest.raises(ValueError):
            buchberger([])
        with pytest.raises(ValueError):
            buchberger([poly2({})])
        with pytest.raises(ValueError):
            buchberger([X, Polynomial(("x",), {(1,): 1})])


class TestProjectiveEmptiness:
    def test_pure_powers(self):
        assert projective_zero_set_empty([XX, YY], 2)

    def test_single_cross_term(self):
        assert not projective_zero_set_empty([XY], 2)

    def test_needs_new_pure_power(self):
        # x^2 + y^2 and xy force y^3 into the leading ideal
        assert projective_zero_set_empty([form((0, 0, 1), (1, 1, 1)), XY], 2)

    def test_zero_system(self):
        assert not projective_zero_set_empty([[], []], 2)

    def test_restriction_shapes(self):
        # the pairwise-product system restricted two ways
        one, zero = CyclotomicNumber.one(), CyclotomicNumber.zero()
        pairs = [form((i, i + 4, 1)) for i in range(4)]
        # span of e0..e3: every product vanishes, locus is the whole subspace
        units = [[one if k == i else zero for k in range(8)] for i in range(4)]
        flat = [restrict_terms(p, units) for p in pairs]
        assert not projective_zero_set_empty(flat, 4)
        # span of e_i + e_{i+4}: products become squares, locus is empty
        sums = [[one if k % 4 == i else zero for k in range(8)] for i in range(4)]
        diag = [restrict_terms(p, sums) for p in pairs]
        assert projective_zero_set_empty(diag, 4)

    def test_invariant_under_monomial_change(self):
        rng = random.Random(11)
        svars = s_variables(4)
        for _ in range(8):
            terms = {}
            for _ in range(rng.randint(2, 4)):
                e = [0] * 4
                e[rng.randrange(4)] += 1
                e[rng.randrange(4)] += 1
                terms[tuple(e)] = rng.randint(-3, 3)
            base = [Polynomial(svars, terms), Polynomial(svars, {(2, 0, 0, 0): 1, (0, 0, 2, 0): rng.randint(-2, 2)})]
            base = [p for p in base if not p.is_zero()]
            if not base:
                continue
            perm = list(range(4))
            rng.shuffle(perm)
            g = MonomialMatrix(tuple(perm), tuple(rng.randrange(8) for _ in range(4)))
            moved = [quadric_terms(p.substitute_linear(g)) for p in base]
            base = [quadric_terms(p) for p in base]
            assert projective_zero_set_empty(moved, 4) == projective_zero_set_empty(base, 4)


class TestMacaulayEmptiness:
    """The Macaulay rank test: certified mod PRIME, decided exactly otherwise."""

    @pytest.fixture
    def exact_ranks(self, monkeypatch):
        calls = []
        rank = ExactMatrix.rank
        monkeypatch.setattr(ExactMatrix, "rank", lambda m: calls.append(m.cols) or rank(m))
        return calls

    def test_rational_certificate_needs_no_exact_rank(self, exact_ranks):
        assert projective_zero_set_empty([XX, YY], 2)
        assert exact_ranks == []

    def test_form_vanishing_mod_prime_falls_back(self, exact_ranks):
        # P*y^2 is zero mod P, so the rank there is deficient
        assert projective_zero_set_empty([XX, form((1, 1, PRIME))], 2)
        assert exact_ranks == [4]

    def test_denominator_divisible_by_prime_falls_back(self, exact_ranks):
        assert projective_zero_set_empty([form((0, 0, 1), (1, 1, Fraction(1, PRIME))), XY], 2)
        assert exact_ranks == [4]

    def test_common_rational_point_is_nonempty(self, exact_ranks):
        # three forms through (1 : 1), k > n
        forms = [form((0, 0, 1), (1, 1, -1)), form((0, 0, 1), (0, 1, -1)), form((0, 1, 1), (1, 1, -1))]
        assert not projective_zero_set_empty(forms, 2)
        assert exact_ranks == [4]

    def test_fewer_forms_than_variables_are_nonempty(self, exact_ranks):
        squares = [form((i, i, 1)) for i in range(2)]
        assert not projective_zero_set_empty(squares, 3)
        assert exact_ranks == []

    def test_matrix_matches_exponent_vector_construction(self, monkeypatch):
        # the rows handed to the mod-PRIME rank are the Macaulay matrix built
        # from exponent vectors, row for row and column for column, with
        # k*C(2d-2, d-1) rows and C(2d, d+1) columns
        given = []
        full_rank = groebner._full_rank_mod_prime

        def capture(rows, ncols):
            given.append(([dict(r) for r in rows], ncols))  # the rank reduces the rows in place
            return full_rank(rows, ncols)

        monkeypatch.setattr(groebner, "_full_rank_mod_prime", capture)
        rng = random.Random(28)
        shapes = {}
        for d in range(1, 6):
            for k in (d, d + 1):
                raw = [random_rational_terms(rng, d) for _ in range(k)]
                given.clear()
                projective_zero_set_empty([form(*terms) for terms in raw], d)
                ((rows, ncols),) = given
                assert rows == exponent_vector_rows(raw, d), (d, k)
                shapes[d, k] = len(rows), ncols
                assert shapes[d, k] == (k * comb(2 * d - 2, d - 1), comb(2 * d, d + 1))
        assert shapes[4, 4] == (80, 56)


def random_rational_terms(rng, nvars):
    """The terms (a, b, c), a <= b, of a random quadratic form with nonzero
    rational coefficients."""
    pairs = list(combinations_with_replacement(range(nvars), 2))
    chosen = rng.sample(pairs, rng.randint(1, len(pairs)))
    numerators = [-5, -3, -2, -1, 1, 2, 4]
    return [(a, b, Fraction(rng.choice(numerators), rng.randint(1, 6))) for a, b in chosen]


def exponent_vector_rows(raw, nvars):
    """The Macaulay matrix of the forms mod PRIME, as sparse rows: one row per
    form times an exponent vector of degree nvars - 1, and one column per
    exponent vector of degree nvars + 1, both enumerated as
    combinations_with_replacement gives their coordinates."""

    def exponent_vectors(degree):
        combos = combinations_with_replacement(range(nvars), degree)
        return [tuple(combo.count(i) for i in range(nvars)) for combo in combos]

    columns = {e: i for i, e in enumerate(exponent_vectors(nvars + 1))}
    rows = []
    for terms in raw:
        for shift in exponent_vectors(nvars - 1):
            row = {}
            for a, b, c in terms:
                e = list(shift)
                e[a] += 1
                e[b] += 1
                row[columns[tuple(e)]] = c.numerator * pow(c.denominator, -1, PRIME) % PRIME
            rows.append(row)
    return rows


@st.composite
def tower_pairs(draw):
    def number():
        level = draw(st.integers(1, MAX_LEVEL))
        coeffs = [
            Fraction(draw(st.integers(-50, 50)), draw(st.integers(1, 20)))
            for _ in range(degree_at(level))
        ]
        return CyclotomicNumber(level, coeffs)

    return number(), number()


@given(tower_pairs())
@settings(max_examples=60, deadline=None)
def test_reduction_mod_prime_is_a_ring_homomorphism(pair):
    # the certificate rests on this: sums and products, across levels, map
    # to sums and products in F_PRIME
    a, b = pair
    ra, rb = groebner._residue(a), groebner._residue(b)
    assert groebner._residue(a + b) == (ra + rb) % PRIME
    assert groebner._residue(a * b) == ra * rb % PRIME


def coefficients_at(level, denominators):
    """Strategy: the rational coefficients of a number written at `level`."""
    fractions = st.builds(Fraction, st.integers(-50, 50), st.sampled_from(denominators))
    return st.lists(fractions, min_size=degree_at(level), max_size=degree_at(level))


def residue_by_definition(coeffs, level):
    """sum c_i * zeta_{2^level}^i mod PRIME, each zeta sent to its OMEGA power."""
    step = 64 >> level
    return sum(
        c.numerator * pow(c.denominator, -1, PRIME) * pow(OMEGA, step * i, PRIME)
        for i, c in enumerate(coeffs)
    ) % PRIME


@pytest.mark.parametrize("level", range(MIN_LEVEL, MAX_LEVEL + 1))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_residue_is_a_ring_homomorphism_at_every_level(level, data):
    # every mod-PRIME verdict rests on this: at each level of the tower,
    # whatever level the number is stored at, the residue is the number's
    # image with zeta_{2^level} sent to OMEGA^(64 / 2^level), sums and
    # products map to sums and products, and the residue is None exactly
    # when PRIME divides the denominator
    coeffs = [data.draw(coefficients_at(level, [1, 2, 9, 97])) for _ in range(2)]
    a, b = (CyclotomicNumber(level, c) for c in coeffs)
    ra, rb = groebner._residue(a), groebner._residue(b)
    assert (ra, rb) == tuple(residue_by_definition(c, level) for c in coeffs)
    assert groebner._residue(a + b) == (ra + rb) % PRIME
    assert groebner._residue(a * b) == ra * rb % PRIME
    n, k = 1 << level, data.draw(st.integers(-200, 200))
    assert groebner._residue(root_of_unity(n, k)) == pow(OMEGA, 64 // n * k, PRIME)
    # a coefficient m/P with P dividing m cancels to an integer, so only the
    # reduced denominator decides
    raw = data.draw(coefficients_at(level, [1, 3, PRIME, 2 * PRIME]))
    raw = [c * PRIME if data.draw(st.booleans()) else c for c in raw]
    c = CyclotomicNumber(level, raw)
    unknown = any(f.denominator % PRIME == 0 for f in raw)
    assert (groebner._residue(c) is None) == unknown
    if not unknown:
        assert groebner._residue(c) == residue_by_definition(raw, level)


def buchberger_verdict(system: list[Polynomial]) -> bool:
    """Emptiness read off a reduced Groebner basis: the ideal is the whole
    ring, or every variable is a pure power among its leading monomials."""
    gb = buchberger(system)
    if gb.is_trivial():
        return True
    pure = set()
    for p in gb.polys:
        support = [i for i, e in enumerate(leading_term(p)[0]) if e]
        if len(support) == 1:
            pure.add(support[0])
    return len(pure) == len(gb.variables)


def test_macaulay_verdict_agrees_with_buchberger():
    # random quadrics of 1 to 2n terms (with Q(zeta_8) coefficients in a
    # third of the systems), k >= n, in 2 to 4 variables
    rng = random.Random(64)
    coefficient_pool = [root_of_unity(8, k) for k in range(8)]
    empty = nonempty = 0
    for trial in range(75):
        nvars = 2 + trial % 3
        variables = s_variables(nvars)
        system = []
        for _ in range(nvars + rng.randint(0, 1)):
            terms = {}
            for _ in range(rng.randint(1, 2 * nvars)):
                c = rng.randint(-2, 2)
                if trial % 3 == 0:
                    c = rng.choice(coefficient_pool) * c
                terms[rng.choice(monomials_of_degree(nvars, 2))] = c
            system.append(Polynomial(variables, terms))
        system = [p for p in system if not p.is_zero()]
        if len(system) < nvars:
            continue
        verdict = projective_zero_set_empty([quadric_terms(p) for p in system], nvars)
        assert verdict == buchberger_verdict(system), [p.render() for p in system]
        empty += verdict
        nonempty += not verdict
    assert empty + nonempty >= 50
    assert empty >= 10 and nonempty >= 10


def test_macaulay_verdict_on_restricted_pencils_agrees_with_buchberger():
    # the systems freeness sends: the stock pencil at (1, 2, 3) restricted to
    # every eigenspace of dimension 2 or more of a non-identity element of
    # G u G1 u G2 that leaves at least as many live forms as coordinates,
    # tested as the restricted terms stand and, as polynomials, by Buchberger
    context = ODPContext.at(build_quadrics(), (1, 2, 3))
    elements = dict.fromkeys(g for name in ("G", "G1", "G2") for g in standard_group(name).elements)
    tested = Counter()
    for g in elements:
        if g.is_identity():
            continue
        for component in fixed_locus_components(g):
            dim = component.multiplicity
            live = [r for terms in context.terms if (r := restrict_terms(terms, component.basis))]
            if dim < 2 or len(live) < dim:
                continue
            verdict = projective_zero_set_empty(live, dim)
            polys = [form_polynomial(r, s_variables(dim)) for r in live]
            assert verdict == buchberger_verdict(polys), g
            tested[dim, verdict] += 1
    # the groups act freely: 176 planes and 6 four-spaces, every one empty
    assert tested == {(2, True): 176, (4, True): 6}


# -- membership oracle agreement ---------------------------------------------
#
# For homogeneous ideals, degree-d membership is a finite linear algebra
# question: p lies in the ideal iff p is a rational span combination of
# monomial shifts of the generators at matching degree.  That span check
# (plain Fraction row reduction, no Groebner machinery) is an independent
# oracle for gb.contains on homogeneous rational inputs.


def as_fraction(c: CyclotomicNumber) -> Fraction:
    assert c.level == 1, "oracle only handles rational coefficients"
    return c.coeffs[0]


def monomials_of_degree(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out)


def span_contains(p: Polynomial, gens: list[Polynomial]) -> bool:
    degree = p.total_degree()
    nvars = len(p.variables)
    columns = []
    for g in gens:
        shift_deg = degree - g.total_degree()
        if shift_deg < 0:
            continue
        for m in monomials_of_degree(nvars, shift_deg):
            shifted = g * Polynomial.monomial(p.variables, m)
            columns.append(shifted)
    basis_monomials = monomials_of_degree(nvars, degree)
    index = {m: i for i, m in enumerate(basis_monomials)}
    rows = len(basis_monomials)
    matrix = [[Fraction(0)] * (len(columns) + 1) for _ in range(rows)]
    for j, col in enumerate(columns):
        for e, c in col.terms.items():
            matrix[index[e]][j] = as_fraction(c)
    for e, c in p.terms.items():
        matrix[index[e]][-1] = as_fraction(c)
    # rank(A) == rank(A|b) via one elimination pass
    pivot_row = 0
    ncols = len(columns)
    for col in range(ncols):
        sel = next((r for r in range(pivot_row, rows) if matrix[r][col]), None)
        if sel is None:
            continue
        matrix[pivot_row], matrix[sel] = matrix[sel], matrix[pivot_row]
        inv = 1 / matrix[pivot_row][col]
        matrix[pivot_row] = [v * inv for v in matrix[pivot_row]]
        for r in range(rows):
            if r != pivot_row and matrix[r][col]:
                f = matrix[r][col]
                matrix[r] = [a - f * b for a, b in zip(matrix[r], matrix[pivot_row])]
        pivot_row += 1
    return all(matrix[r][-1] == 0 for r in range(pivot_row, rows))


def random_homogeneous(rng, variables, degree, max_terms=4):
    terms = {}
    pool = monomials_of_degree(len(variables), degree)
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.choice(pool)] = Fraction(rng.randint(-4, 4))
    return Polynomial(variables, terms)


def test_membership_agrees_with_span_oracle():
    rng = random.Random(2026)
    variables = ("x", "y", "z")
    agree = members = non_members = 0
    while agree < 60:
        gens = [random_homogeneous(rng, variables, 2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        if rng.random() < 0.5:
            multipliers = [random_homogeneous(rng, variables, 1, 2) for _ in gens]
            candidate = Polynomial.zero(variables)
            for m, g in zip(multipliers, gens):
                candidate = candidate + m * g
        else:
            candidate = random_homogeneous(rng, variables, 3)
        if candidate.is_zero() or len({sum(e) for e in candidate.terms}) > 1:
            continue
        nf_zero = gb.contains(candidate)
        oracle = span_contains(candidate, gens)
        assert nf_zero == oracle, (
            f"membership disagreement: nf_zero={nf_zero} oracle={oracle} "
            f"candidate={candidate.render()} gens={[g.render() for g in gens]}"
        )
        agree += 1
        members += nf_zero
        non_members += not nf_zero
    assert members >= 10
    assert non_members >= 10


# -- randomized laws ---------------------------------------------------------

small_coeffs = st.integers(-3, 3)


@st.composite
def homogeneous_pairs(draw):
    pool = monomials_of_degree(2, 2)
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            terms[draw(st.sampled_from(pool))] = draw(small_coeffs)
        g = poly2(terms)
        if not g.is_zero():
            gens.append(g)
    mults = [poly2({draw(st.sampled_from(monomials_of_degree(2, 1))): draw(small_coeffs)}) for _ in gens]
    return gens, mults


@given(homogeneous_pairs())
@settings(max_examples=40, deadline=None)
def test_constructed_members_reduce_to_zero(data):
    gens, mults = data
    if not gens:
        return
    gb = buchberger(gens)
    member = Polynomial.zero(("x", "y"))
    for m, g in zip(mults, gens):
        member = member + m * g
    assert gb.contains(member)
    # normal form is idempotent and constant on ideal cosets
    probe = X ** 2 * Y + X
    nf = gb.normal_form(probe)
    assert gb.normal_form(nf) == nf
    assert gb.normal_form(probe + member) == nf
