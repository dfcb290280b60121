import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quadcert import groebner, variety
from quadcert.cyclotomic import CyclotomicNumber, degree_at, root_of_unity
from quadcert.groups import (
    closure,
    conjugacy_classes,
    make_sigma,
    make_sigma1,
    make_sigma2,
    make_sigma3,
    make_tau,
    standard_group,
)
from quadcert.linalg import ExactMatrix, MonomialMatrix
from quadcert.polynomials import (
    PENCIL_VARIABLES,
    Polynomial,
    X_VARIABLES,
    Y_VARIABLES,
    grevlex_key,
)
from quadcert.variety import (
    ComponentOutcome,
    InvarianceResult,
    ODPContext,
    QuadricSystem,
    base_point,
    build_quadrics,
    check_freeness,
    check_ideal_invariance,
    check_orbit,
    draw_specializations,
    fixed_locus_components,
    genericity_screen,
    orbit_size,
    planted_control_system,
    projective_point_key,
    quadric_terms,
    restrict_form,
    restrict_terms,
    singular_orbit,
    verify_odp,
)

Y123 = (Fraction(1), Fraction(2), Fraction(3))


def x_pair(i, j):
    e = [0] * 8
    e[i % 8] += 1
    e[j % 8] += 1
    return tuple(e)


def y_coefficient(q, x_exponents):
    """The y-polynomial multiplying one x-monomial of a pencil quadric."""
    return Polynomial(Y_VARIABLES, {e[8:]: c for e, c in q.terms.items() if e[:8] == x_exponents})


def s_variables(count):
    return tuple(f"s{i}" for i in range(count))


def form_polynomial(terms, variables):
    """The form sum c*s_a*s_b of restricted terms (a, b, c)."""
    n = len(variables)
    monomials = {tuple((k == a) + (k == b) for k in range(n)): c for a, b, c in terms}
    return Polynomial(variables, monomials)


def pencil_var(i):
    return Polynomial.monomial(PENCIL_VARIABLES, [int(k == i) for k in range(11)])


def matmul(a, b):
    """Dense product of two ExactMatrix values."""
    zero = CyclotomicNumber.zero()
    return ExactMatrix(
        [sum((x * y for x, y in zip(row, col)), zero) for col in zip(*b.entries)]
        for row in a.entries
    )


def quadric_records(system):
    """The custom-quadrics rows of a system, one per term: x-monomials in
    descending grevlex order, then y-monomials in descending lex order."""
    return [
        [
            {
                "x_exponents": list(e[:8]),
                "y_exponents": list(e[8:]),
                "coefficient": q.terms[e].to_text(),
            }
            for e in sorted(q.terms, key=lambda m: (grevlex_key(m[:8]), m[8:]), reverse=True)
        ]
        for q in system.quadrics
    ]


def base_point_images():
    """The base point (0, y1, y2, y3, 0, -y3, -y2, -y1) as pencil-ring
    images of x0..x7, with y1..y3 fixed."""
    zero = Polynomial.zero(PENCIL_VARIABLES)
    y1, y2, y3 = (pencil_var(8 + k) for k in range(3))
    return [zero, y1, y2, y3, zero, -y3, -y2, -y1, y1, y2, y3]


class TestQuadricSystem:
    def test_shape(self):
        system = build_quadrics()
        assert len(system.quadrics) == 4
        for q in system.quadrics:
            assert q.variables == PENCIL_VARIABLES
            assert len(q) == 6  # the mixed coefficient y1^2 + y3^2 is two terms
            assert all(sum(e[:8]) == 2 for e in q.terms)

    def test_landmark_coefficients(self):
        system = build_quadrics()
        landmarks = ((system.quadrics[0], x_pair(2, 6)), (system.quadrics[3], x_pair(5, 1)))
        for q, x_exponents in landmarks:
            assert q.terms[x_exponents + (2, 0, 0)] == 1
            assert q.terms[x_exponents + (0, 0, 2)] == 1
            assert x_exponents + (1, 0, 1) not in q.terms

    def test_context_needs_a_triple(self):
        with pytest.raises(ValueError, match="parameter point needs exactly three values"):
            build_quadrics().context((1, 2))

    def test_sign_pattern(self):
        square = Polynomial.monomial(Y_VARIABLES, (1, 0, 1))
        cross = -Polynomial.monomial(Y_VARIABLES, (0, 2, 0))
        mixed = Polynomial(Y_VARIABLES, {(2, 0, 0): 1, (0, 0, 2): 1})
        for k, q in enumerate(build_quadrics().quadrics):
            assert y_coefficient(q, x_pair(k, k)) == square
            assert y_coefficient(q, x_pair(k + 4, k + 4)) == square
            assert y_coefficient(q, x_pair(k + 1, k + 7)) == cross
            assert y_coefficient(q, x_pair(k + 3, k + 5)) == cross
            assert y_coefficient(q, x_pair(k + 2, k + 6)) == mixed

    def test_supports_disjoint(self):
        monomials = [frozenset(e[:8] for e in q.terms) for q in build_quadrics().quadrics]
        assert sum(len(m) for m in monomials) == 20
        assert len(frozenset.union(*monomials)) == 20

    def test_records_round_trip(self):
        for system in (build_quadrics(), planted_control_system()):
            again = QuadricSystem.from_records(quadric_records(system))
            assert again.quadrics == system.quadrics

    def test_records_one_row_per_term(self):
        records = quadric_records(build_quadrics())
        assert QuadricSystem.from_records(records).quadrics == build_quadrics().quadrics
        assert [len(rows) for rows in records] == [6, 6, 6, 6]
        # descending grevlex in x, then descending y: x0^2, x4^2, x3*x5,
        # x2*x6 (y1^2 before y3^2), x1*x7
        assert [(r["x_exponents"], r["y_exponents"]) for r in records[0]] == [
            (list(x_pair(0, 0)), [1, 0, 1]),
            (list(x_pair(4, 4)), [1, 0, 1]),
            (list(x_pair(3, 5)), [0, 2, 0]),
            (list(x_pair(2, 6)), [2, 0, 0]),
            (list(x_pair(2, 6)), [0, 0, 2]),
            (list(x_pair(1, 7)), [0, 2, 0]),
        ]

    def test_record_validation(self):
        with pytest.raises(ValueError):
            QuadricSystem.from_records([[], [], []])
        bad_row = [{"x_exponents": [1] * 7, "y_exponents": [0, 0, 0], "coefficient": "[1]@2"}]
        with pytest.raises(ValueError):
            QuadricSystem.from_records([bad_row, bad_row, bad_row, bad_row])
        with pytest.raises(ValueError, match="term objects"):
            QuadricSystem.from_records([[1], [], [], []])

    def test_rejects_inhomogeneous(self):
        linear = pencil_var(0)
        with pytest.raises(ValueError):
            QuadricSystem((linear, linear, linear, linear))
        # x-degree decides, not total degree: x0*y1 is linear in x
        mixed = pencil_var(0) ** 2 + pencil_var(0) * pencil_var(8)
        with pytest.raises(ValueError, match="x-degree 2"):
            QuadricSystem((mixed, mixed, mixed, mixed))
        # quadrics outside the pencil ring are rejected
        x_only = Polynomial.monomial(X_VARIABLES, x_pair(0, 0))
        with pytest.raises(ValueError, match="ring"):
            QuadricSystem((x_only, x_only, x_only, x_only))

    def test_exactly_four_quadrics(self):
        # every constructor rejects another count: invariance matrices are
        # 4x4 and the ODP ranks 3 and 4 count four quadrics
        stock = build_quadrics()
        records = quadric_records(stock)
        for quadrics, rows in (
            (stock.quadrics[:3], records[:3]),
            (stock.quadrics + (pencil_var(0) * pencil_var(1),), records + records[:1]),
        ):
            with pytest.raises(ValueError, match="exactly 4"):
                QuadricSystem(quadrics)
            with pytest.raises(ValueError, match="exactly 4"):
                QuadricSystem.from_records(rows)

    def test_systems_contexts_groups_and_records_are_immutable(self):
        # the memos rely on it: a reassigned `quadrics` would leave `echelon`
        # and the proved invariance verdicts stale
        system = build_quadrics()
        context = system.context(Y123)
        group = standard_group("G")
        for target, name in (
            (system, "quadrics"),
            (system, "echelon"),
            (context, "terms"),
            (context, "freeness"),
            (group, "elements"),
            (group, "element_set"),
            (ComponentOutcome("1", 1, "no-fixed-point", None), "verdict"),
            (system.invariance(make_tau()), "ok"),
        ):
            before = getattr(target, name)
            with pytest.raises(AttributeError):
                setattr(target, name, ())
            assert getattr(target, name) is before


def test_groups_and_variety_import_without_dataclasses():
    # what `bench/run.py`'s set-up probe imports; no record type needs the
    # dataclasses module, which takes milliseconds to import
    src = os.path.dirname(os.path.dirname(variety.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, quadcert.groups, quadcert.variety; print('dataclasses' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr


class TestBasePoint:
    def test_symbolic_membership(self):
        # every quadric vanishes at the base point as an identity in y
        images = base_point_images()
        assert all(q.substitute(images).is_zero() for q in build_quadrics().quadrics)

    def test_planted_control_does_not(self):
        images = base_point_images()
        assert not all(q.substitute(images).is_zero() for q in planted_control_system().quadrics)

    def test_specialized_membership(self):
        p = base_point(Y123)
        for q in build_quadrics().specialized(Y123):
            assert q.evaluate(p).is_zero()

    def test_symbolic_and_specialized_agree(self):
        y = (Fraction(5, 7), Fraction(-2, 3), Fraction(4))
        point = [Fraction(k) for k in range(8)] + list(y)  # x-values are irrelevant
        direct = base_point(y)
        for img, coord in zip(base_point_images(), direct):
            assert img.evaluate(point) == coord


def zeta8(k):
    return root_of_unity(8, k)


def assert_rows_by_evaluation(system, mat, matrix):
    """Each matrix row by plain evaluation at seeded (x, y):
    (q_k o g)(x, y) = q_k(x', y) = sum_j M_kj q_j(x, y), with
    x'_j = zeta^phases[j] * x_perm[j]."""
    rng = random.Random(31)
    for _ in range(3):
        point = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(11)]
        x, y = point[:8], point[8:]
        moved = [zeta8(mat.phases[j]) * x[mat.perm[j]] for j in range(8)]
        q_values = [q.evaluate(point) for q in system.quadrics]
        for q, row in zip(system.quadrics, matrix):
            expected = CyclotomicNumber.zero()
            for m, v in zip(row, q_values):
                expected = expected + m * v
            assert q.evaluate(moved + y) == expected


class TestInvariance:
    def test_identity(self):
        result = check_ideal_invariance(MonomialMatrix.identity(), build_quadrics())
        assert result.ok
        for i in range(4):
            for j in range(4):
                expected = 1 if i == j else 0
                assert result.matrix[i][j] == expected

    def test_diagonal_generator_matrix(self):
        result = check_ideal_invariance(make_tau(), build_quadrics())
        assert result.ok
        for i in range(4):
            for j in range(4):
                expected = zeta8(-2 * i) if i == j else CyclotomicNumber.zero()
                assert result.matrix[i][j] == expected

    def test_cycle_generator_matrices(self):
        system = build_quadrics()
        for mat, step in ((make_sigma(), 1), (make_sigma2(), 2)):
            result = check_ideal_invariance(mat, system)
            assert result.ok
            for i in range(4):
                for j in range(4):
                    expected = 1 if j == (i + step) % 4 else 0
                    assert result.matrix[i][j] == expected

    def test_remaining_generators(self):
        system = build_quadrics()
        first_row_image = {}
        for name, mat in (("s1", make_sigma1()), ("s3", make_sigma3())):
            result = check_ideal_invariance(mat, system)
            assert result.ok
            nonzero = [
                j for j in range(4) if not result.matrix[0][j].is_zero()
            ]
            first_row_image[name] = nonzero
        assert first_row_image["s1"] == [3]
        assert first_row_image["s3"] == [1]

    def test_negative_control(self):
        flip = MonomialMatrix(tuple(range(8)), (0, 0, 0, 0, 4, 4, 4, 4))
        result = check_ideal_invariance(flip, build_quadrics())
        assert not result.ok
        assert result.witness_monomial == x_pair(1, 7)
        assert result.witness_text() == "x1*x7"

    def test_all_group_elements_by_evaluation(self):
        # every distinct projective element of G, G1 and G2 passes, and each
        # matrix row is re-checked by plain evaluation at seeded (x, y)
        system = build_quadrics()
        elements = {g: None for name in ("G", "G1", "G2") for g in standard_group(name).elements}
        assert len(elements) == 128
        for mat in elements:
            result = check_ideal_invariance(mat, system)
            assert result.ok, mat
            assert_rows_by_evaluation(system, mat, result.matrix)

    def test_one_elimination_per_system(self, monkeypatch):
        # the system eliminates its span once, when it is built; checking the
        # 128 distinct elements of G u G1 u G2 against it eliminates nothing
        elements = {g: None for name in ("G", "G1", "G2") for g in standard_group(name).elements}
        assert len(elements) == 128
        eliminated = []
        rref = ExactMatrix.rref
        monkeypatch.setattr(
            ExactMatrix, "rref", lambda m, *a, **k: eliminated.append(m) or rref(m, *a, **k)
        )
        system = build_quadrics()
        for mat in elements:
            assert check_ideal_invariance(mat, system).ok, mat
        assert len(eliminated) == 1

    def test_reduction_against_mixed_echelon_rows(self):
        # the circulant q_k = x_k^2 + x_{k+1}^2 (indices mod 4) has rank 3,
        # and each of its echelon rows x0^2+x3^2, x1^2-x3^2, x2^2+x3^2 mixes
        # quadrics, so a reduction that subtracted the wrong row would show
        def square(k):
            return Polynomial.monomial(PENCIL_VARIABLES, x_pair(k, k) + (0, 0, 0))

        system = QuadricSystem(tuple(square(k) + square((k + 1) % 4) for k in range(4)))
        assert [(pivot, row) for pivot, row, _ in system.echelon] == [
            (x_pair(k, k) + (0, 0, 0), square(k) + square(3).scale(-1 if k == 1 else 1))
            for k in range(3)
        ]
        cycle = MonomialMatrix((1, 2, 3, 0, 4, 5, 6, 7), (0,) * 8)
        result = check_ideal_invariance(cycle, system)
        assert result.ok
        assert_rows_by_evaluation(system, cycle, result.matrix)
        # x0 <-> x1 pulls q1 back to x0^2 + x2^2, which leaves -2*x3^2
        swap = MonomialMatrix((1, 0, 2, 3, 4, 5, 6, 7), (0,) * 8)
        result = check_ideal_invariance(swap, system)
        assert not result.ok
        assert result.witness_monomial == x_pair(3, 3)
        assert result.witness_text() == "x3^2"

    def test_composition_is_antihomomorphism(self):
        # pullback composes in reverse: M(g*h) = M(h)*M(g), exactly
        system = build_quadrics()
        gens = [make_tau(), make_sigma(), make_sigma1(), make_sigma3()]
        rng = random.Random(17)

        def matrix_of(g):
            result = check_ideal_invariance(g, system)
            assert result.ok
            return ExactMatrix([list(row) for row in result.matrix])

        for _ in range(10):
            g, h = rng.choice(gens), rng.choice(gens)
            assert matrix_of(g * h) == matmul(matrix_of(h), matrix_of(g))


class TestOrbit:
    def test_sixty_four_distinct_points(self):
        orbit = singular_orbit(build_quadrics(), standard_group("G"), Y123)
        assert len(orbit) == 64
        keys = {projective_point_key(p.coordinates) for p in orbit}
        assert len(keys) == 64

    def test_base_point_is_first(self):
        orbit = singular_orbit(build_quadrics(), standard_group("G"), Y123)
        assert orbit[0].group_element.is_identity()
        assert orbit[0].coordinates == base_point(Y123)

    def test_orbit_is_stable(self):
        group = standard_group("G")
        orbit = singular_orbit(build_quadrics(), group, Y123)
        keys = {projective_point_key(p.coordinates) for p in orbit}
        mover = group.elements[13].point_matrix()
        for p in orbit:
            image = mover.apply(list(p.coordinates))
            assert projective_point_key(image) in keys

    def test_check_orbit_gives_size_and_first_failing_certificate(self):
        # every generator of G preserves both systems, so only the base point
        # is certified: an ordinary double point of the stock pencil, off the
        # planted control
        group = standard_group("G")
        assert check_orbit(group, build_quadrics(), Y123) == (64, None)
        size, (point, cert) = check_orbit(group, planted_control_system(), Y123)
        assert size == 64
        assert point.coordinates == base_point(Y123) and point.group_element.is_identity()
        assert cert == verify_odp(base_point(Y123), ODPContext.at(planted_control_system(), Y123))
        assert not cert.on_variety

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            projective_point_key([CyclotomicNumber.zero()] * 8)
        with pytest.raises(ValueError):
            orbit_size(standard_group("G"), [CyclotomicNumber.zero()] * 8)

    @pytest.mark.parametrize(
        "y",
        [(Fraction(3, 7), Fraction(-5, 11), Fraction(13, 2)), (1, 2, 1), (1, 1, 1)],
        ids=["generic", "degenerate-121", "degenerate-111"],
    )
    def test_orbit_size_by_stabilizer_counts_distinct_points(self, y):
        # (1,2,1) and (1,1,1) have a nontrivial stabilizer; the 512-element
        # probe group adds diag(1,1,1,1,-1,-1,-1,-1), which breaks invariance
        probe = closure(
            [make_tau(), make_sigma(), MonomialMatrix.diagonal((0, 0, 0, 0, 4, 4, 4, 4))]
        )
        system = build_quadrics()
        for group in (*(standard_group(n) for n in ("G", "G1", "G2")), probe):
            assert orbit_size(group, base_point(y)) == len(singular_orbit(system, group, y))

    def test_support_filter_keeps_the_stabilizer_count(self, monkeypatch):
        # orbit_size skips elements whose permutation moves a zero coordinate
        # onto a nonzero one; counting every element's image must agree
        def unfiltered(group, point):
            key = projective_point_key(point)
            fixing = [g for g in group.elements if projective_point_key(g.point_matrix().apply(point)) == key]
            return group.order // len(fixing)

        z = root_of_unity(8, 1)
        one = CyclotomicNumber.one()
        system = build_quadrics()
        seed_zero = draw_specializations(3, 0, system, standard_group("G"))
        points = [base_point(y) for y in (*seed_zero, (1, 2, 1), (1, 1, 1))]
        points += [
            [one] * 8,  # no zero coordinate, fixed by every permutation
            [z ** j for j in range(8)],
            [CyclotomicNumber.from_rational(j + 1) for j in range(8)],
            [one] + [CyclotomicNumber.zero()] * 7,
            [one, CyclotomicNumber.zero()] * 4,
        ]
        groups = [standard_group(n) for n in ("G", "G1", "G2")]
        for group in groups:
            for point in points:
                assert orbit_size(group, point) == unfiltered(group, point)

        # at the seed-0 base points only 16 of the 64 elements are applied
        applied = []
        original = MonomialMatrix.apply
        monkeypatch.setattr(MonomialMatrix, "apply", lambda g, p: applied.append(g) or original(g, p))
        for group in groups:
            for y in seed_zero:
                applied.clear()
                assert orbit_size(group, base_point(y)) == 64
                assert len(applied) == 16


def fraction_matrix_rank_by_minors(rows):
    """Rank via explicit minor determinants; independent of the rref path."""

    def det(sub):
        n = len(sub)
        if n == 1:
            return sub[0][0]
        total = Fraction(0)
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in sub[1:]]
            total += (-1) ** j * sub[0][j] * det(minor)
        return total

    m, n = len(rows), len(rows[0])
    for size in range(min(m, n), 0, -1):
        for rsel in combinations(range(m), size):
            for csel in combinations(range(n), size):
                sub = [[rows[r][c] for c in csel] for r in rsel]
                if det(sub) != 0:
                    return size
    return 0


class TestODP:
    def test_base_point_certificate(self):
        cert = verify_odp(base_point(Y123), ODPContext.at(build_quadrics(), Y123))
        assert cert.on_variety
        assert cert.jacobian_rank == 3
        assert cert.hessian_restricted_rank == 4
        assert cert.passes
        assert cert.null_combination is not None

    def test_jacobian_rank_against_minor_oracle(self):
        quadrics = build_quadrics().specialized(Y123)
        p = base_point(Y123)
        rows = []
        for q in quadrics:
            row = []
            for j in range(8):
                value = q.partial_derivative(j).evaluate(p)
                assert value.level == 1
                row.append(value.coeffs[0])
            rows.append(row)
        assert fraction_matrix_rank_by_minors(rows) == 3

    def test_null_combination_annihilates_jacobian(self):
        cert = verify_odp(base_point(Y123), ODPContext.at(build_quadrics(), Y123))
        quadrics = build_quadrics().specialized(Y123)
        p = base_point(Y123)
        for j in range(8):
            total = CyclotomicNumber.zero()
            for c, q in zip(cert.null_combination, quadrics):
                total = total + c * q.partial_derivative(j).evaluate(p)
            assert total.is_zero()

    def test_all_orbit_points_certify(self):
        system = build_quadrics()
        orbit = singular_orbit(system, standard_group("G"), Y123)
        context = ODPContext.at(system, Y123)
        for point in orbit:
            cert = verify_odp(point.coordinates, context)
            assert cert.passes, point.render()

    def test_off_variety_fails_fast(self):
        ones = tuple(CyclotomicNumber.one() for _ in range(8))
        cert = verify_odp(ones, ODPContext.at(build_quadrics(), Y123))
        assert not cert.on_variety
        assert not cert.passes
        assert cert.jacobian_rank == -1

    def test_certificate_is_equivariant(self):
        system = build_quadrics()
        group = standard_group("G")
        rng = random.Random(29)
        orbit = singular_orbit(system, group, Y123)
        context = ODPContext.at(system, Y123)
        for _ in range(5):
            p = rng.choice(orbit)
            g = rng.choice(group.elements)
            image = g.point_matrix().apply(list(p.coordinates))
            assert verify_odp(image, context).passes

    def test_second_specialization(self):
        y = (Fraction(2, 5), Fraction(1, 3), Fraction(-7, 4))
        system = build_quadrics()
        assert genericity_screen(y, system, standard_group("G")) == ()
        cert = verify_odp(base_point(y), ODPContext.at(system, y))
        assert cert.passes


    def test_jacobian_rank_branch_on_planted_control(self):
        # e0 lies on every x_i*x_{i+4}; the only nonzero gradient entry is
        # d(x0*x4)/dx4 = x0 = 1, so the Jacobian has rank 1 by hand
        e0 = [CyclotomicNumber.one()] + [CyclotomicNumber.zero()] * 7
        cert = verify_odp(e0, ODPContext.at(planted_control_system(), Y123))
        assert cert.on_variety
        assert cert.jacobian_rank == 1
        assert cert.hessian_restricted_rank == -1
        assert cert.null_combination is None
        assert not cert.passes


class TestRestriction:
    @pytest.mark.parametrize(
        "system", [build_quadrics(), planted_control_system()], ids=["stock", "planted"]
    )
    def test_gram_form_matches_substitution(self, system):
        # every eigenspace of dimension 2 or 4 of a non-identity element of
        # G u G1 u G2, at the first seed-0 triple: the form of B*H_k*B^T
        # equals q_k composed with x = sum_t s_t * B_t
        y = draw_specializations(1, 0, build_quadrics(), standard_group("G"))[0]
        context = ODPContext.at(system, y)
        elements = {g: None for name in ("G", "G1", "G2") for g in standard_group(name).elements}
        checked = 0
        for g in elements:
            if g.is_identity():
                continue
            for component in fixed_locus_components(g):
                dim = component.multiplicity
                if dim == 1:
                    continue
                svars = s_variables(dim)
                unit = [tuple(int(k == t) for k in range(dim)) for t in range(dim)]
                images = [
                    Polynomial(svars, {e: vec[j] for e, vec in zip(unit, component.basis)})
                    for j in range(8)
                ]
                for q, terms in zip(system.specialized(y), context.terms):
                    restricted = restrict_terms(terms, component.basis)
                    assert form_polynomial(restricted, svars) == q.substitute(images)
                    checked += 1
        assert checked == 4 * (176 + 6)  # 176 planes and 6 four-spaces

    def test_base_point_restricted_hessian_rank_by_minors(self):
        # the combination's Hessian restricted to the Jacobian kernel at the
        # base point, ranked by minor determinants instead of by rref
        context = ODPContext.at(build_quadrics(), Y123)
        p = base_point(Y123)
        cert = verify_odp(p, context)
        kernel = context.jacobian(p).right_kernel()
        images = matmul(context.jacobian(p), ExactMatrix(zip(*kernel)))
        assert all(v.is_zero() for row in images.entries for v in row)

        def rationals(rows):
            assert all(v.level == 1 for row in rows for v in row)
            return [[v.coeffs[0] for v in row] for row in rows]

        assert fraction_matrix_rank_by_minors(rationals(kernel)) == 5
        gram = restrict_form(context.combination(cert.null_combination), kernel)
        assert fraction_matrix_rank_by_minors(rationals(gram.entries)) == 4


@st.composite
def quadratic_forms(draw):
    """Quadratic forms in x0..x7 with coefficients in Q(zeta_2^m), m <= 4."""
    terms = {}
    for _ in range(draw(st.integers(1, 8))):
        i, j = draw(st.integers(0, 7)), draw(st.integers(0, 7))
        level = draw(st.integers(1, 4))
        coeffs = draw(
            st.lists(
                st.fractions(min_value=-3, max_value=3, max_denominator=4),
                min_size=degree_at(level),
                max_size=degree_at(level),
            )
        )
        terms[x_pair(i, j)] = CyclotomicNumber(level, coeffs)
    return Polynomial(X_VARIABLES, terms)


@given(quadratic_forms())
@settings(max_examples=60, deadline=None)
def test_hessian_from_terms_matches_second_derivatives(q):
    # the symmetric Hessian built from the terms, each monomial once with
    # i <= j, has the second derivatives as its nonzero entries
    zeros = [CyclotomicNumber.zero()] * 8
    second = {
        (j, k): q.partial_derivative(j).partial_derivative(k).evaluate(zeros)
        for j in range(8)
        for k in range(8)
    }
    terms = quadric_terms(q)
    assert all(i <= j for i, j, _ in terms)
    assert len({(i, j) for i, j, _ in terms}) == len(terms)
    hessian = {}
    for i, j, c in terms:
        hessian[i, j] = hessian[j, i] = c + c if i == j else c
    assert hessian == {
        position: v for position, v in second.items() if not v.is_zero()
    }


SCALARS = [
    CyclotomicNumber.zero(),
    CyclotomicNumber.one(),
    -CyclotomicNumber.one(),
    root_of_unity(8),
    root_of_unity(16, 3),
    CyclotomicNumber.from_rational(Fraction(1, 2)),
]


@given(
    st.lists(quadratic_forms(), min_size=3, max_size=3),
    st.lists(st.sampled_from(SCALARS), min_size=4, max_size=4),
    st.lists(st.lists(st.sampled_from(SCALARS), min_size=8, max_size=8), min_size=1, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_combination_restricts_linearly(forms, coeffs, basis):
    # the fourth quadric shares its monomials with the first two, so the
    # combined terms repeat positions, which restrict_form adds
    quadrics = (*forms, forms[0] + forms[1])
    context = ODPContext(tuple(quadric_terms(q) for q in quadrics))
    parts = [restrict_form(terms, basis) for terms in context.terms]
    k, zero = len(basis), CyclotomicNumber.zero()
    expected = [
        [sum((c * part.entries[a][b] for c, part in zip(coeffs, parts)), zero) for b in range(k)]
        for a in range(k)
    ]
    assert restrict_form(context.combination(coeffs), basis) == ExactMatrix(expected)


@given(quadratic_forms())
@settings(max_examples=60, deadline=None)
def test_restriction_to_unit_rows_gives_back_the_quadric(q):
    unit_rows = [[CyclotomicNumber(1, [int(i == j)]) for j in range(8)] for i in range(8)]
    assert form_polynomial(restrict_terms(quadric_terms(q), unit_rows), X_VARIABLES) == q


@given(
    quadratic_forms(),
    st.lists(st.lists(st.sampled_from(SCALARS), min_size=8, max_size=8), min_size=1, max_size=2)
    .flatmap(lambda rows: st.lists(st.sampled_from(rows), min_size=1, max_size=3)),
)
@settings(max_examples=60, deadline=None)
def test_restriction_matches_substitution_and_dense_gram(q, basis):
    # rows drawn from a pool of one or two repeat often, and their zero and
    # Q(zeta_8) entries let a product B_a[j]*B_b[i] with i < j survive, which
    # unit rows never do: the restricted terms are q o B^T, and the Gram
    # matrix is the dense B H B^T of the second derivatives
    k, terms = len(basis), quadric_terms(q)
    svars = s_variables(k)
    units = [tuple(int(t == a) for t in range(k)) for a in range(k)]
    images = [Polynomial(svars, {e: row[j] for e, row in zip(units, basis)}) for j in range(8)]
    assert form_polynomial(restrict_terms(terms, basis), svars) == q.substitute(images)
    zeros = [CyclotomicNumber.zero()] * 8
    hessian = ExactMatrix(
        [q.partial_derivative(i).partial_derivative(j).evaluate(zeros) for j in range(8)]
        for i in range(8)
    )
    dense = matmul(matmul(ExactMatrix(basis), hessian), ExactMatrix(zip(*basis)))
    assert restrict_form(terms, basis) == dense


@given(
    quadratic_forms(),
    st.lists(st.lists(st.sampled_from(SCALARS), min_size=8, max_size=8), min_size=1, max_size=2)
    .flatmap(lambda rows: st.lists(st.sampled_from(rows), min_size=1, max_size=3)),
)
@example(
    Polynomial(X_VARIABLES, {x_pair(0, 0): 1, x_pair(1, 1): -1}),
    [[SCALARS[1], SCALARS[1]] + [SCALARS[0]] * 6],
)
@settings(max_examples=60, deadline=None)
def test_restriction_commutes_with_reduction_mod_prime(q, basis):
    # every verdict mod PRIME restricts residues: the residues of q's terms
    # restricted to the residues of B are the residues of q o B^T, the ones
    # that vanish mod PRIME left out; x0^2 - x1^2 at (1, 1, 0, ...) cancels
    residue, terms = groebner._residue, quadric_terms(q)
    images = [[residue(v) for v in row] for row in basis]
    expected = [(a, b, r) for a, b, c in restrict_terms(terms, basis) if (r := residue(c))]
    reduced = [(i, j, residue(c)) for i, j, c in terms]
    assert restrict_terms(reduced, images, groebner.PRIME) == expected


def test_restriction_to_a_point_takes_two_products_per_term(monkeypatch):
    # the context holds the quadrics only as terms, one per monomial, 5 per
    # stock quadric, and their residues mod PRIME, beside its two memos; q(p)
    # at the all-ones point multiplies each coefficient by two coordinates
    context = ODPContext.at(build_quadrics(), Y123)
    assert list(vars(context)) == ["terms", "residues", "certificates", "freeness"]
    assert [len(terms) for terms in context.terms] == [5, 5, 5, 5]
    products = []
    multiply = CyclotomicNumber.__mul__

    def counted(a, b):
        products.append((a, b))
        return multiply(a, b)

    monkeypatch.setattr(CyclotomicNumber, "__mul__", counted)
    ones = (CyclotomicNumber.one(),) * 8
    assert restrict_terms(context.terms[0], (ones,)) != []
    assert len(products) == 10


RATIONAL_COORDINATES = [CyclotomicNumber.from_rational(v) for v in (0, 1, -1, 2, Fraction(-2, 3))]
ZETA8_COORDINATES = [
    CyclotomicNumber.zero(),
    CyclotomicNumber.one(),
    zeta8(1),
    zeta8(3),
    zeta8(2) + CyclotomicNumber.one(),
]


@given(
    st.lists(quadratic_forms(), min_size=4, max_size=4),
    st.sampled_from([RATIONAL_COORDINATES, ZETA8_COORDINATES]).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=8, max_size=8)
    ),
    st.lists(st.booleans(), min_size=4, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_vanishing_through_entries_matches_evaluation(forms, point, moved):
    # each form marked in `moved` loses a multiple of x_a^2 that puts the
    # point on it, so both verdicts occur, decided by its square terms
    a = next((i for i, v in enumerate(point) if not v.is_zero()), None)
    assume(a is not None)
    square = Polynomial.monomial(X_VARIABLES, x_pair(a, a))
    forms = [
        q - square.scale(q.evaluate(point) * (point[a] * point[a]).inverse()) if m else q
        for q, m in zip(forms, moved)
    ]
    for q in forms:
        assert ODPContext((quadric_terms(q),)).vanishes(point) == q.evaluate(point).is_zero()
    context = ODPContext(tuple(quadric_terms(q) for q in forms))
    assert context.vanishes(point) == all(q.evaluate(point).is_zero() for q in forms)


def test_vanishing_at_points_of_the_variety():
    # the stock pencil's base point and a Q(zeta_8) multiple of it, and every
    # coordinate point of the planted control, lie on the variety; the point
    # with all coordinates 1 lies on neither
    one, zero = CyclotomicNumber.one(), CyclotomicNumber.zero()
    units = [tuple(one if k == i else zero for k in range(8)) for i in range(8)]
    ones = (one,) * 8
    base = base_point(Y123)
    stock, planted = build_quadrics(), planted_control_system()
    cases = [
        (stock, base, True),
        (stock, tuple(zeta8(1) * c for c in base), True),
        (stock, ones, False),
        *((planted, unit, True) for unit in units),
        (planted, ones, False),
    ]
    for system, point, on in cases:
        assert all(q.evaluate(point).is_zero() for q in system.specialized(Y123)) is on
        assert ODPContext.at(system, Y123).vanishes(point) is on


def test_vanishing_reads_each_coordinate_once(monkeypatch):
    # one pass over the stock base point's 8 coordinates finds its zeros,
    # then each of the 4 quadrics tests its one sum: 12 zero tests in all
    context, point = ODPContext.at(build_quadrics(), Y123), base_point(Y123)
    tests = []
    is_zero = CyclotomicNumber.is_zero
    monkeypatch.setattr(CyclotomicNumber, "is_zero", lambda c: tests.append(c) or is_zero(c))
    assert context.vanishes(point)
    assert len(tests) == 12


def test_vanishing_never_evaluates_a_polynomial(monkeypatch):
    # the ODP certificate and G1's freeness outcomes come out the same with
    # Polynomial.evaluate disabled: every vanishing test reads the quadrics'
    # terms, and the ladder's witnesses on the planted control are found
    makers = (build_quadrics, planted_control_system)
    group = standard_group("G1")
    expected = [check_freeness(group, make(), [Y123], scope="all", screen=False) for make in makers]
    assert [report.verdict for report in expected] == ["free", "fixed-point-found"]

    def refuse(polynomial, point):
        raise AssertionError("Polynomial.evaluate called")

    monkeypatch.setattr(Polynomial, "evaluate", refuse)
    assert verify_odp(base_point(Y123), ODPContext.at(build_quadrics(), Y123)).passes
    for make, report in zip(makers, expected):
        assert check_freeness(group, make(), [Y123], scope="all", screen=False) == report


class TestFixedLoci:
    def test_diagonal_square(self):
        components = fixed_locus_components(make_tau() ** 4)
        assert [c.multiplicity for c in components] == [4, 4]
        by_value = {c.eigenvalue.to_text(): c for c in components}
        plus = by_value[CyclotomicNumber.one().to_text()]
        slots = [
            [j for j, v in enumerate(vec) if not v.is_zero()] for vec in plus.basis
        ]
        assert slots == [[0], [2], [4], [6]]

    def test_diagonal_generator_axes(self):
        components = fixed_locus_components(make_tau())
        assert len(components) == 8
        assert all(c.multiplicity == 1 for c in components)

    def test_antipodal_swap(self):
        components = fixed_locus_components(make_sigma() ** 4)
        assert [c.multiplicity for c in components] == [4, 4]
        for component in components:
            sign = component.eigenvalue
            for vec in component.basis:
                support = [j for j, v in enumerate(vec) if not v.is_zero()]
                assert len(support) == 2 and support[1] == support[0] + 4
                assert vec[support[1]] == sign.inverse()

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            fixed_locus_components(MonomialMatrix.identity())

    def test_multiplicities_always_sum_to_eight(self):
        group = standard_group("G1")
        for g in group.elements:
            if g.is_identity():
                continue
            components = fixed_locus_components(g)
            assert sum(c.multiplicity for c in components) == 8


class TestFreeness:
    def test_standard_groups_involution_scope(self, monkeypatch):
        system = build_quadrics()
        examined = record_direct_examinations(monkeypatch)
        for name in ("G", "G1", "G2"):
            report = check_freeness(
                standard_group(name), system, [Y123], scope="involutions", group_name=name
            )
            assert report.verdict == "free", name
            (outcome,) = report.specializations
            assert len(outcome.elements) == 3
        # the three groups share their involutions, and the system keeps each
        # outcome, so each involution is examined exactly once
        involutions = set(examined)
        assert len(involutions) == 3
        assert len(examined) == sum(len(fixed_locus_components(g)) for g in involutions)

    def test_planted_control_finds_witness(self):
        control = planted_control_system()
        flip = closure([make_tau() ** 4], names=("t4",))
        report = check_freeness(
            flip, control, [Y123], scope="involutions",
            group_name="control", screen=False,
        )
        assert report.verdict == "fixed-point-found"
        (outcome,) = report.specializations
        (element,) = outcome.elements
        assert all(c.verdict == "fixed-point" for c in element.components)
        # the +1 eigenspace is the even-coordinate span; its first trial
        # point is the coordinate point e0
        plus = next(
            c for c in element.components
            if c.eigenvalue == CyclotomicNumber.one().to_text()
        )
        parsed = [CyclotomicNumber.from_text(t) for t in plus.witness]
        support = [j for j, v in enumerate(parsed) if not v.is_zero()]
        assert support == [0]
        # re-verify the witness against the original system
        for q in control.specialized(Y123):
            assert q.evaluate(parsed).is_zero()

    def test_scope_agreement_on_quaternion_subgroup(self):
        system = build_quadrics()
        sub = standard_group("G2").subgroup(["s2", "s3"])
        involutions_report = check_freeness(
            sub, system, [Y123], scope="involutions", group_name="H", screen=False
        )
        all_report = check_freeness(
            sub, system, [Y123], scope="all", group_name="H", screen=False
        )
        assert involutions_report.verdict == all_report.verdict == "free"
        (outcome,) = all_report.specializations
        assert len(outcome.elements) == 7

    def test_cache_keyed_on_system_and_triple(self, monkeypatch):
        # the planted control's fixed points must not leak into the standard
        # pencil's verdict; on the same system, a repeated triple is not
        # examined again and another triple is examined afresh
        flip = closure([make_tau() ** 4])
        (element,) = flip.elements[1:]
        components = len(fixed_locus_components(element))
        standard = build_quadrics()
        examined = record_direct_examinations(monkeypatch)
        for system, verdict in (
            (planted_control_system(), "fixed-point-found"),
            (standard, "free"),
        ):
            report = check_freeness(flip, system, [(1, 2, 3)], scope="all", screen=False)
            assert report.verdict == verdict
        assert len(examined) == 2 * components
        check_freeness(flip, standard, [(1, 2, 3)], scope="all", screen=False)
        assert len(examined) == 2 * components
        check_freeness(flip, standard, [(3, 2, 1)], scope="all", screen=False)
        assert len(examined) == 3 * components

    def test_system_keeps_outcomes(self, monkeypatch):
        # a second call on the same system examines nothing; a system rebuilt
        # term by term is equal but keeps its own outcomes, so it examines again
        first = build_quadrics()
        second = QuadricSystem(
            tuple(Polynomial(PENCIL_VARIABLES, dict(q.terms)) for q in first.quadrics)
        )
        assert second.quadrics == first.quadrics and second is not first
        flip = closure([make_tau() ** 4])
        examined = record_direct_examinations(monkeypatch)
        first_report = check_freeness(flip, first, [Y123], scope="all", screen=False)
        once = len(examined)
        assert once > 0
        again = check_freeness(flip, first, [Y123], scope="all", screen=False)
        assert len(examined) == once
        assert again.specializations == first_report.specializations
        fresh = check_freeness(flip, second, [Y123], scope="all", screen=False)
        assert len(examined) == 2 * once
        assert fresh.specializations == first_report.specializations

    def test_equal_triples_share_one_context(self, monkeypatch):
        # (1, 2, 3) and its Fraction spelling are one triple: the second call
        # reads the outcomes the first left on that triple's context
        system = build_quadrics()
        flip = closure([make_tau() ** 4])
        examined = record_direct_examinations(monkeypatch)
        first = check_freeness(flip, system, [(1, 2, 3)], scope="all", screen=False)
        once = len(examined)
        assert once > 0
        again = check_freeness(flip, system, [Y123], scope="all", screen=False)
        assert len(examined) == once
        assert system.context((1, 2, 3)) is system.context(Y123)
        assert again.specializations == first.specializations

    def test_planted_control_decomposes_each_element_once(self, monkeypatch):
        # G, G1 and G2 on one planted-control system at one triple settle the
        # 127 distinct non-identity elements of G u G1 u G2.  An element with
        # a free conjugate settled first is counted off its eigenvalues, so
        # only the 73 examined directly are decomposed, each once
        examined = record_direct_examinations(monkeypatch)
        decomposed = record_decompositions(monkeypatch)
        control = planted_control_system()
        for name in ("G", "G1", "G2"):
            report = check_freeness(
                standard_group(name), control, [Y123], scope="all", group_name=name, screen=False
            )
            assert report.verdict == "fixed-point-found", name
        assert len(decomposed) == len(set(decomposed)) == 73
        assert set(decomposed) == set(examined)

    def test_eigenspaces_once_per_element(self, monkeypatch):
        # an element's eigenspaces do not depend on the triple, and the system
        # keeps what G already settled: of the 127 distinct non-identity
        # elements of G u G1 u G2, settled at three triples, only the ones
        # examined directly are decomposed, each once
        examined = record_direct_examinations(monkeypatch)
        decomposed = record_decompositions(monkeypatch)
        system = build_quadrics()
        groups = [standard_group(name) for name in ("G", "G1", "G2")]
        triples = draw_specializations(3, 0, system, groups[0])
        settled = set()
        for name, group in zip(("G", "G1", "G2"), groups):
            report = check_freeness(
                group, system, triples, scope="all", group_name=name, screen=False
            )
            assert report.verdict == "free", name
            for i, outcome in enumerate(report.specializations):
                settled.update((repr(e.element), i) for e in outcome.elements)
        assert len(decomposed) == len(set(decomposed)) == 73
        assert set(decomposed) == set(examined)
        assert len(settled) == 3 * 127

    def test_fixed_locus_without_witness(self):
        # the +1 eigenspace of diag(1,1,1,1,-1,-1,-1,-1) meets the variety in
        # (+-sqrt2 : 1 : 0 : 0): Groebner finds the locus nonempty, but no
        # trial point lies on it, so the component fails without coordinates
        flip = closure([MonomialMatrix.diagonal((0, 0, 0, 0, 4, 4, 4, 4))], names=("d",))

        def quadric(terms):
            return Polynomial(PENCIL_VARIABLES, {x_pair(i, j) + (0, 0, 0): c for i, j, c in terms})

        system = QuadricSystem((
            quadric([(0, 0, 1), (1, 1, -2), (4, 4, 1)]),
            quadric([(2, 2, 1), (5, 5, 1)]),
            quadric([(3, 3, 1), (6, 6, 1)]),
            quadric([(7, 7, 1)]),
        ))
        report = check_freeness(flip, system, [Y123], scope="all", screen=False)
        assert report.verdict == "fixed-point-found"
        (outcome,) = report.specializations
        (element,) = outcome.elements
        by_value = {c.eigenvalue: c for c in element.components}
        plus = by_value[CyclotomicNumber.one().to_text()]
        minus = by_value[(-CyclotomicNumber.one()).to_text()]
        assert (plus.multiplicity, minus.multiplicity) == (4, 4)
        assert (plus.verdict, plus.witness) == ("fixed-locus-no-witness", None)
        assert (minus.verdict, minus.witness) == ("no-fixed-point", None)

    def test_fixed_locus_without_witness_by_dimension_count(self, monkeypatch):
        # the transposition x0 <-> x1 fixes a 7-dimensional eigenspace, on
        # which the four stock quadrics leave 4 live forms in 7 coordinates:
        # they meet by the dimension count, with no rank taken, and no trial
        # point of the ladder lies on their common zeros
        swap = closure([MonomialMatrix((1, 0, 2, 3, 4, 5, 6, 7), (0,) * 8, 2)], names=("t",))
        ranks = []
        full_rank_mod_prime, exact_rank = groebner._full_rank_mod_prime, ExactMatrix.rank
        monkeypatch.setattr(
            groebner, "_full_rank_mod_prime", lambda *a: ranks.append(a) or full_rank_mod_prime(*a)
        )
        monkeypatch.setattr(ExactMatrix, "rank", lambda m: ranks.append(m) or exact_rank(m))
        report = check_freeness(swap, build_quadrics(), [Y123], scope="all", screen=False)
        assert report.verdict == "fixed-point-found"
        (outcome,) = report.specializations
        (element,) = outcome.elements
        by_value = {c.eigenvalue: c for c in element.components}
        plus = by_value[CyclotomicNumber.one().to_text()]
        minus = by_value[(-CyclotomicNumber.one()).to_text()]
        assert (plus.multiplicity, minus.multiplicity) == (7, 1)
        assert (plus.verdict, plus.witness) == ("fixed-locus-no-witness", None)
        assert (minus.verdict, minus.witness) == ("no-fixed-point", None)
        assert ranks == []
        (component,) = [c for c in fixed_locus_components(swap.elements[1]) if c.multiplicity == 7]
        context = ODPContext.at(build_quadrics(), Y123)
        assert [bool(restrict_terms(t, component.basis)) for t in context.terms] == [True] * 4

    def test_all_scope_builds_no_polynomial(self, monkeypatch):
        # with G's generators proved and the pencil held at (1, 2, 3), every
        # element's eigenspaces are restricted and ranked through the
        # quadrics' terms alone
        system, group = build_quadrics(), standard_group("G")
        for h in group.generators:
            system.invariance(h)
        system.context(Y123)
        built = []
        init, unchecked = Polynomial.__init__, Polynomial.__dict__["_unchecked"].__func__
        monkeypatch.setattr(Polynomial, "__init__", lambda p, *a: built.append(a) or init(p, *a))
        wrapped = classmethod(lambda cls, *a: built.append(a) or unchecked(cls, *a))
        monkeypatch.setattr(Polynomial, "_unchecked", wrapped)
        assert check_freeness(group, system, [Y123], scope="all").verdict == "free"
        assert built == []

    def test_involution_scope_needs_two_group(self):
        # S3 on the first three coordinates: involutions and order-3 elements
        swap = MonomialMatrix((1, 0, 2, 3, 4, 5, 6, 7), (0,) * 8)
        three_cycle = MonomialMatrix((1, 2, 0, 3, 4, 5, 6, 7), (0,) * 8)
        for gens in ([three_cycle], [swap, three_cycle]):
            group = closure(gens)
            message = "involutions-only scope needs a 2-group; found element order 3"
            with pytest.raises(ValueError, match=message):
                check_freeness(group, build_quadrics(), [Y123], scope="involutions")

    def test_bad_scope_rejected(self):
        with pytest.raises(ValueError):
            check_freeness(standard_group("G"), build_quadrics(), [Y123], scope="some")

    def test_non_generic_specialization_refused(self, monkeypatch):
        # the whole call is refused before any element is examined, even
        # when a passing triple comes first
        examined = record_direct_examinations(monkeypatch)
        for triples in ([(1, 0, 3)], [Y123, (1, 0, 3)]):
            with pytest.raises(ValueError, match=r"triple 1,0,3 .*coordinate vanishes"):
                check_freeness(standard_group("G"), build_quadrics(), triples)
        assert examined == []


class TestAbsenceModPrime:
    """Absence of a fixed point is proved mod PRIME first, presence exactly."""

    def test_verdicts_equal_the_exact_only_verdicts(self, monkeypatch):
        # at the three seed-0 triples, every eigenspace of the 127 non-identity
        # elements of G u G1 u G2, on the stock pencil and on the planted
        # control, gets the same outcome as when every residue is unknown and
        # each component takes the exact path; on the stock pencil, which the
        # groups act on freely, no component needs exact arithmetic at all
        stock, control = build_quadrics(), planted_control_system()
        triples = draw_specializations(3, 0, stock, standard_group("G"))
        elements = dict.fromkeys(
            g for name in ("G", "G1", "G2") for g in standard_group(name).elements
        )
        components = [fixed_locus_components(g) for g in elements if not g.is_identity()]
        assert len(components) == 127

        def outcomes(system):
            contexts = [ODPContext.at(system, y) for y in triples]
            examine = variety._examine_component
            return [examine(c, x) for x in contexts for found in components for c in found]

        exact = []
        vanishes, rank = ODPContext.vanishes, ExactMatrix.rank
        monkeypatch.setattr(ODPContext, "vanishes", lambda x, p: exact.append(p) or vanishes(x, p))
        monkeypatch.setattr(ExactMatrix, "rank", lambda m: exact.append(m) or rank(m))
        first = {"stock": outcomes(stock)}
        assert exact == []
        first["control"] = outcomes(control)
        assert exact != []
        assert {o.verdict for o in first["stock"]} == {"no-fixed-point"}
        assert "fixed-point" in {o.verdict for o in first["control"]}
        for module in (variety, groebner):
            monkeypatch.setattr(module, "_residue", lambda c: None)
        assert ODPContext.at(stock, triples[0]).residues is None
        assert {"stock": outcomes(stock), "control": outcomes(control)} == first

    @pytest.mark.parametrize(
        "coefficient, verdict", [(groebner.PRIME, "no-fixed-point"), (0, "fixed-point")]
    )
    def test_line_zero_mod_prime_reaches_the_exact_path(self, monkeypatch, coefficient, verdict):
        # the coordinate line e0 is an eigenspace of diag(1, -1, ..., -1); all
        # four quadrics are 0 mod PRIME there, and the first is PRIME*x0^2 + x1^2
        # or x1^2: only the exact value at e0 tells a free line from a fixed one
        flip = closure([MonomialMatrix.diagonal((0,) + (4,) * 7)], names=("d",))

        def quadric(terms):
            return Polynomial(PENCIL_VARIABLES, {x_pair(i, j) + (0, 0, 0): c for i, j, c in terms})

        system = QuadricSystem((
            quadric([(0, 0, coefficient), (1, 1, 1)]),
            quadric([(2, 2, 1)]),
            quadric([(3, 3, 1)]),
            quadric([(4, 4, 1)]),
        ))
        one, zero = CyclotomicNumber.one(), CyclotomicNumber.zero()
        e0 = (one,) + (zero,) * 7
        tested = []
        vanishes = ODPContext.vanishes
        monkeypatch.setattr(ODPContext, "vanishes", lambda x, p: tested.append(p) or vanishes(x, p))
        report = check_freeness(flip, system, [Y123], scope="all", screen=False)
        assert tuple(e0) in map(tuple, tested)
        (outcome,) = report.specializations
        (element,) = outcome.elements
        (line,) = [c for c in element.components if c.multiplicity == 1]
        assert line.eigenvalue == one.to_text()
        witness = tuple(c.to_text() for c in e0) if verdict == "fixed-point" else None
        assert (line.verdict, line.witness) == (verdict, witness)


def record_direct_examinations(monkeypatch):
    """Patch the freeness machinery to note which elements are examined: the
    returned list gains the element once per component examined, as
    check_freeness runs."""
    examined = []
    owner = {}
    components, examine = variety.fixed_locus_components, variety._examine_component

    def decompose(g):
        found = components(g)
        owner.update((id(c), g) for c in found)
        return found

    def examine_one(component, context):
        examined.append(owner[id(component)])
        return examine(component, context)

    monkeypatch.setattr(variety, "fixed_locus_components", decompose)
    monkeypatch.setattr(variety, "_examine_component", examine_one)
    return examined


def record_decompositions(monkeypatch):
    """Patch fixed_locus_components to note each element it decomposes; the
    returned list gains the element once per call."""
    decomposed = []
    decompose = variety.fixed_locus_components

    def noting(g):
        decomposed.append(g)
        return decompose(g)

    monkeypatch.setattr(variety, "fixed_locus_components", noting)
    return decomposed


class TestConjugacyTransfer:
    def test_transferred_outcomes_match_direct_examination(self, monkeypatch):
        # the cross-validation of the transfer: every non-identity element of
        # G u G1 u G2, examined directly at the first seed-0 triple, gets
        # exactly the outcome check_freeness reports for it.  On the first
        # system each group conjugates by the generators proved so far; on
        # the second all five are proved first, as the freeness layer does,
        # so G, which is abelian, transfers along G1's and G2's symmetries
        groups = [standard_group(name) for name in ("G", "G1", "G2")]
        y = draw_specializations(3, 0, build_quadrics(), groups[0])[0]
        examine = variety._examine_component
        context = ODPContext.at(build_quadrics(), y)
        direct = {}
        for prove_first in (False, True):
            system = build_quadrics()
            if prove_first:
                assert all(system.invariance(h).ok for group in groups for h in group.generators)
            with monkeypatch.context() as patch:
                examined = record_direct_examinations(patch)
                reported = []
                for group in groups:
                    report = check_freeness(group, system, [y], scope="all", screen=False)
                    assert report.verdict == "free"
                    (outcome,) = report.specializations
                    reported.extend(zip(group.elements[1:], outcome.elements))
            settled = {g for g, _ in reported}
            assert len(settled) == 127
            assert settled - set(examined)  # G1 and G2 have classes of 2 and 8 elements
            assert bool(set(groups[0].elements[1:]) - set(examined)) == prove_first
            for g, element in reported:
                assert element.element == g.to_dict()
                if g not in direct:
                    direct[g] = tuple(examine(c, context) for c in fixed_locus_components(g))
                assert element.components == direct[g]

    def test_failing_generator_never_conjugates(self, monkeypatch):
        # diag(1,1,1,1,-1,-1,-1,-1) does not preserve the pencil, so in the
        # group it generates with the coordinate cycle s only s conjugates:
        # freeness transfers along s, and every outcome is the one direct
        # examination gives
        s = MonomialMatrix((1, 2, 3, 4, 5, 6, 7, 0), (0,) * 8)
        probe = MonomialMatrix.diagonal((0, 0, 0, 0, 4, 4, 4, 4))
        group = closure([s, probe], names=("s", "d"))
        system = build_quadrics()
        involutions = [g for g in group.elements if not g.is_identity() and (g * g).is_identity()]
        examine = variety._examine_component
        conjugators = []
        monkeypatch.setattr(
            variety,
            "conjugacy_classes",
            lambda targets, hs: conjugators.extend(hs) or conjugacy_classes(targets, hs),
        )
        examined = record_direct_examinations(monkeypatch)
        report = check_freeness(group, system, [Y123], scope="involutions", screen=False)
        assert [system.invariance(g).ok for g in group.generators] == [True, False]
        assert conjugators == [group.generators[0]]
        assert set(involutions) - set(examined)
        assert len(examined) == 28 < sum(len(fixed_locus_components(g)) for g in involutions)
        context = ODPContext.at(system, Y123)
        (outcome,) = report.specializations
        for g, element in zip(involutions, outcome.elements):
            assert element.element == g.to_dict()
            assert element.components == tuple(
                examine(c, context) for c in fixed_locus_components(g)
            )

    def test_settled_classes_are_not_walked(self, monkeypatch):
        # a repeated call finds every target settled at its triple and walks
        # no class; a new triple leaves every target unsettled again
        walked = []
        monkeypatch.setattr(
            variety,
            "conjugacy_classes",
            lambda targets, hs: walked.append(list(targets)) or conjugacy_classes(targets, hs),
        )
        group, system = standard_group("G1"), build_quadrics()
        first = check_freeness(group, system, [Y123], scope="all", screen=False)
        again = check_freeness(group, system, [Y123], scope="all", screen=False)
        assert again.specializations == first.specializations
        check_freeness(group, system, [Y123, (3, 2, 1)], scope="all", screen=False)
        assert walked == [list(group.elements[1:]), [], list(group.elements[1:])]

    def test_each_class_walked_once_across_groups(self, monkeypatch):
        # with all five generators proved first, as the freeness layer does,
        # G, G1 and G2 at the seed-0 triples walk disjoint targets: the 127
        # non-identity elements of G u G1 u G2, each once, in 27 classes that
        # hold nothing else, so each is conjugated once by each conjugator
        walked = []

        def record(targets, hs):
            targets = list(targets)
            classes = conjugacy_classes(targets, hs)
            walked.append({g: classes[g] for g in targets})
            return classes

        monkeypatch.setattr(variety, "conjugacy_classes", record)
        groups = [standard_group(name) for name in ("G", "G1", "G2")]
        system = build_quadrics()
        assert all(system.invariance(h).ok for group in groups for h in group.generators)
        triples = draw_specializations(3, 0, system, groups[0])
        for group in groups:
            check_freeness(group, system, triples, scope="all", screen=False)
        assert [len(w) for w in walked] == [63, 32, 32]
        assert len(set().union(*walked)) == 127
        classes = [set(w.values()) for w in walked]
        assert [len(c) for c in classes] == [21, 4, 2]
        assert len(set().union(*classes)) == 27
        assert sum(len(c) for c in set().union(*classes)) == 127

    def test_invariant_memo_is_read_not_reproved(self, monkeypatch):
        # the system keeps its verdicts: a second call on it proves nothing,
        # and a fresh equal system proves each generator once itself
        calls = []
        original = variety.check_ideal_invariance
        monkeypatch.setattr(
            variety, "check_ideal_invariance", lambda *args: calls.append(1) or original(*args)
        )
        group = standard_group("G1")
        system = build_quadrics()
        check_freeness(group, system, [Y123], screen=False)
        assert len(calls) == len(group.generators)
        check_freeness(group, system, [Y123], screen=False)
        assert len(calls) == len(group.generators)
        check_freeness(group, build_quadrics(), [Y123], screen=False)
        assert len(calls) == 2 * len(group.generators)

    def test_memo_never_crosses_systems(self):
        # B is preserved by none of G2's generators, so it has proved no
        # symmetry and nothing may transfer there, even after the stock
        # system, which every generator preserves, ran first in the same
        # process
        def x(i, j, coeff=1):
            return Polynomial.monomial(PENCIL_VARIABLES, variety._pencil_monomial((i, j)), coeff)

        b = QuadricSystem((x(6, 6) - x(4, 6), x(4, 5), x(6, 7, 2), x(3, 4) + x(4, 4) - x(4, 6)))
        group = standard_group("G2")
        check_freeness(group, build_quadrics(), [Y123], scope="all", screen=False)
        report = check_freeness(group, b, [Y123], scope="all", screen=False)
        assert not all(b.invariance(g).ok for g in group.generators)
        context = ODPContext.at(b, Y123)
        direct = [
            tuple(variety._examine_component(c, context) for c in fixed_locus_components(g))
            for g in group.elements[1:]
        ]
        (outcome,) = report.specializations
        assert [e.components for e in outcome.elements] == direct
        assert sum(e.has_fixed_point for e in outcome.elements) == 35

    def test_fixed_points_never_transfer(self, monkeypatch):
        # every standard group preserves the planted control system, so free
        # elements transfer there; elements with a fixed point keep their own
        # examination and a witness that re-verifies by evaluation.  Each
        # group gets a fresh control system, which keeps its own outcomes: in
        # G1 and G2 the fixed-point elements come in classes of two, which a
        # shared system would have settled in G
        y = (Fraction(-5, 7), Fraction(3, 11), Fraction(13, 2))
        examine = variety._examine_component
        settled = []
        for name in ("G", "G1", "G2"):
            group = standard_group(name)
            control = planted_control_system()
            assert all(check_ideal_invariance(g, control).ok for g in group.generators)
            with monkeypatch.context() as patch:
                examined = record_direct_examinations(patch)
                report = check_freeness(group, control, [y], scope="all", screen=False)
            assert report.verdict == "fixed-point-found"
            (outcome,) = report.specializations
            settled.extend(
                (g, element.components, g in examined)
                for g, element in zip(group.elements[1:], outcome.elements)
            )
        context = ODPContext.at(control, y)
        quadrics = control.specialized(y)
        fixed = 0
        transferred = 0
        for g, outcomes, was_examined in settled:
            if not was_examined:
                transferred += 1
                direct = tuple(examine(c, context) for c in fixed_locus_components(g))
                assert outcomes == direct
                assert all(c.verdict == "no-fixed-point" for c in outcomes)
                continue
            for c in outcomes:
                if c.verdict == "fixed-point":
                    fixed += 1
                    point = [CyclotomicNumber.from_text(t) for t in c.witness]
                    assert all(q.evaluate(point).is_zero() for q in quadrics)
                    eigenvalue = CyclotomicNumber.from_text(c.eigenvalue)
                    assert g.point_matrix().apply(point) == tuple(eigenvalue * v for v in point)
        assert fixed and transferred

    def test_failing_element_never_conjugates(self):
        # on the planted control, the swap of x1 and x4 fails invariance but
        # conjugates sigma^4, which is free there, onto g, which has a fixed
        # point; <sigma^4, g> is abelian and both generators pass, so g keeps
        # its own examination and its fixed point
        control = planted_control_system()
        swap = MonomialMatrix((0, 4, 2, 3, 1, 5, 6, 7), (0,) * 8)
        s4 = make_sigma() ** 4
        g = swap * s4 * swap.inverse()
        group = closure([s4, g], names=("s4", "g"))
        assert all(control.invariance(h).ok for h in group.generators)
        assert not control.invariance(swap).ok
        assert g in conjugacy_classes([s4], [swap])[s4]
        report = check_freeness(group, control, [Y123], scope="all", screen=False)
        (outcome,) = report.specializations
        by_element = dict(zip(group.elements[1:], outcome.elements))
        assert not by_element[s4].has_fixed_point and by_element[g].has_fixed_point
        context = ODPContext.at(control, Y123)
        for h, element in by_element.items():
            direct = tuple(variety._examine_component(c, context) for c in fixed_locus_components(h))
            assert element.components == direct

    @pytest.mark.parametrize(
        "make_system", [build_quadrics, planted_control_system], ids=["stock", "planted"]
    )
    def test_outcomes_do_not_depend_on_call_order(self, monkeypatch, make_system):
        # each group conjugates by every symmetry proved before it runs, so
        # which elements are examined depends on the order of the calls;
        # the outcomes do not
        groups = {name: standard_group(name) for name in ("G", "G1", "G2")}
        outcomes, examined_sets = [], set()
        for order in permutations(groups):
            system = make_system()
            with monkeypatch.context() as patch:
                examined = record_direct_examinations(patch)
                reports = {
                    name: check_freeness(groups[name], system, [Y123], scope="all", screen=False)
                    for name in order
                }
            outcomes.append({name: r.specializations for name, r in reports.items()})
            examined_sets.add(frozenset(examined))
        assert all(o == outcomes[0] for o in outcomes)
        assert len(examined_sets) > 1

    def test_conjugators_share_the_phase_modulus(self):
        # G2 written at N = 16, on a system that has proved the N = 8
        # generators of G, G1 and G2: its classes are walked with its own
        # N = 16 generators only, since a product across moduli is undefined,
        # and every outcome is the N = 8 group's
        system = build_quadrics()
        groups = [standard_group(name) for name in ("G", "G1", "G2")]
        assert all(system.invariance(h).ok for group in groups for h in group.generators)
        g2 = groups[2]
        sixteen = closure(
            [MonomialMatrix(h.perm, [2 * p for p in h.phases], 16) for h in g2.generators],
            names=g2.names,
        )
        report = check_freeness(sixteen, system, [Y123], scope="all", screen=False)
        assert report.verdict == "free"
        eight = check_freeness(g2, system, [Y123], scope="all", screen=False)
        (wide,) = report.specializations
        (narrow,) = eight.specializations
        assert [e.components for e in wide.elements] == [e.components for e in narrow.elements]


class TestGenericityScreen:
    def test_reference_point_passes(self):
        assert genericity_screen(Y123, build_quadrics(), standard_group("G")) == ()

    def test_zero_coordinate_fails(self):
        reasons = genericity_screen((1, 0, 3), build_quadrics(), standard_group("G"))
        assert any("vanishes" in r for r in reasons)
        assert genericity_screen((0, 1, 0), build_quadrics(), standard_group("G"))

    def test_vanishing_coordinates_give_one_reason(self):
        # y1^2 + y3^2 vanishes over Q only when y1 = y3 = 0, which the
        # coordinate condition already names
        assert genericity_screen((0, 2, 0), build_quadrics(), standard_group("G")) == (
            "coordinate vanishes: y=(0,2,0)",
        )

    def test_coefficient_collision_fails(self):
        reasons = genericity_screen((1, 1, 1), build_quadrics(), standard_group("G"))
        assert any("collapses" in r for r in reasons)
        assert genericity_screen((1, 2, -4), build_quadrics(), standard_group("G"))

    def test_draws_skip_a_repeated_candidate(self, monkeypatch):
        # a candidate drawn again is dropped unscreened: A, A, B gives [A, B]
        # from two screens
        class Scripted:
            def __init__(self, seed):
                # numerator, then denominator, of each coordinate in turn
                self.values = iter([1, 1, 2, 1, 3, 1] * 2 + [2, 1, 3, 1, 5, 1])

            def randint(self, low, high):
                return next(self.values)

            def choice(self, signs):
                return signs[0]

        screened = []
        screen = variety.genericity_screen
        monkeypatch.setattr(variety.random, "Random", Scripted)
        monkeypatch.setattr(
            variety, "genericity_screen", lambda y, *rest: screened.append(y) or screen(y, *rest)
        )
        drawn = draw_specializations(2, 0, build_quadrics(), standard_group("G"))
        assert drawn == [(1, 2, 3), (2, 3, 5)]
        assert screened == drawn

    def test_draws_are_deterministic_and_generic(self):
        system = build_quadrics()
        group = standard_group("G")
        first = draw_specializations(3, 11, system, group)
        second = draw_specializations(3, 11, system, group)
        assert first == second
        assert len(set(first)) == 3
        for y in first:
            assert genericity_screen(y, system, group) == ()
            for v in y:
                assert abs(v.numerator) <= 97 and v.denominator <= 97
        different = draw_specializations(3, 12, system, group)
        assert different != first
