import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadcert.cyclotomic import SUPPORTED_ORDERS, CyclotomicNumber, root_of_unity
from quadcert.linalg import MonomialMatrix
from quadcert.polynomials import (
    PENCIL_VARIABLES,
    X_VARIABLES,
    Polynomial,
    grevlex_key,
)
from quadcert.variety import ODPContext, QuadricSystem, build_quadrics

ONE = CyclotomicNumber.one()


def zeta(n, k=1):
    return root_of_unity(n, k)


def var(variables, i):
    """The i-th variable of a ring, as a polynomial."""
    return Polynomial.monomial(variables, [int(k == i) for k in range(len(variables))])


def xvar(i):
    return var(X_VARIABLES, i)


def pvar(name):
    """A variable of the pencil ring x0..x7, y1..y3, by name."""
    return var(PENCIL_VARIABLES, PENCIL_VARIABLES.index(name))


def tau():
    return MonomialMatrix.diagonal(tuple(-i % 8 for i in range(8)))


def sigma():
    return MonomialMatrix(tuple((i + 1) % 8 for i in range(8)), (0,) * 8)


def sigma1():
    return MonomialMatrix(tuple((5 * i + 7) % 8 for i in range(8)), (0,) * 8)


class TestConstruction:
    def test_zero_prune(self):
        p = Polynomial(("a", "b"), {(1, 0): 0, (0, 1): 2})
        assert len(p) == 1
        assert not p.is_zero()
        assert Polynomial.zero(("a",)).is_zero()

    def test_duplicate_keys_merge(self):
        p = Polynomial(("a",), {(1,): 2}) + Polynomial(("a",), {(1,): -2})
        assert p.is_zero()

    def test_validation(self):
        with pytest.raises(ValueError):
            Polynomial(("a", "b"), {(1,): 1})
        with pytest.raises(ValueError):
            Polynomial(("a",), {(-1,): 1})
        with pytest.raises(TypeError):
            Polynomial(("a",), {(1,): 1.5})

    def test_grevlex_order(self):
        # x0^2 > x0*x1 > x1^2 > x0 > x1 > 1 in two variables
        exps = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]
        assert sorted(exps, key=grevlex_key, reverse=True) == exps


class TestArithmetic:
    def test_difference_of_squares(self):
        p = (xvar(0) + xvar(4)) * (xvar(0) - xvar(4))
        expected = xvar(0) ** 2 - xvar(4) ** 2
        assert p == expected

    def test_scalar_paths(self):
        p = xvar(2)
        assert 2 * p == p + p
        assert p * Fraction(1, 2) == p.scale(Fraction(1, 2))
        assert p.scale(zeta(8)) == p * zeta(8)

    def test_ring_mismatch(self):
        with pytest.raises(ValueError):
            var(("a",), 0) + var(("b",), 0)
        with pytest.raises(ValueError):
            var(("a",), 0) * var(("a", "b"), 0)

    def test_degree_and_homogeneity(self):
        q = xvar(0) * xvar(1) + xvar(3) ** 2
        assert q.total_degree() == 2
        assert {sum(e) for e in q.terms} == {2}
        assert {sum(e) for e in (q + xvar(5)).terms} == {1, 2}
        assert not Polynomial.zero(X_VARIABLES).terms
        assert Polynomial.zero(X_VARIABLES).total_degree() == -1

    def test_pow(self):
        p = xvar(0) + xvar(1)
        assert p ** 2 == p * p
        assert p ** 0 == Polynomial.constant(X_VARIABLES, 1)
        with pytest.raises(ValueError):
            p ** -1


class TestCalculus:
    def test_partial_derivative(self):
        q = xvar(0) ** 2 + xvar(4) ** 2
        assert q.partial_derivative(0) == 2 * xvar(0)
        assert q.partial_derivative(3).is_zero()
        cross = xvar(1) * xvar(7)
        assert cross.partial_derivative(1) == xvar(7)

    def test_euler_identity(self):
        # sum_j x_j dq/dx_j = 2q for any homogeneous quadric
        rng = random.Random(5)
        for _ in range(10):
            terms = {}
            for _ in range(4):
                i, j = rng.randrange(8), rng.randrange(8)
                e = [0] * 8
                e[i] += 1
                e[j] += 1
                terms[tuple(e)] = rng.randint(-3, 3)
            q = Polynomial(X_VARIABLES, terms)
            total = Polynomial.zero(X_VARIABLES)
            for j in range(8):
                total = total + xvar(j) * q.partial_derivative(j)
            assert total == 2 * q

    def test_jacobian_small(self):
        # gradients by hand: (2*x0 - x1, -x0), (x1, x0), (x3, x2), 10*x7
        x0, x1, x2, x3, x7 = (pvar(f"x{i}") for i in (0, 1, 2, 3, 7))
        system = QuadricSystem((x0 ** 2 - x0 * x1, x0 * x1, x2 * x3, 5 * x7 ** 2))
        point = [CyclotomicNumber.from_rational(v) for v in (2, 3, 1, 4, 0, 0, 0, 1)]
        m = ODPContext.at(system, (1, 1, 1)).jacobian(point)
        expected = [
            [1, -2, 0, 0, 0, 0, 0, 0],
            [3, 2, 0, 0, 0, 0, 0, 0],
            [0, 0, 4, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 10],
        ]
        assert [list(row) for row in m.entries] == expected


class TestSubstitution:
    def test_identity(self):
        q = xvar(0) * xvar(3) + xvar(5) ** 2
        assert q.substitute_linear(MonomialMatrix.identity()) == q

    def test_tau_on_balanced_monomial(self):
        # x1*x7 picks up zeta^-(1+7) = 1 under tau
        q = xvar(1) * xvar(7)
        assert q.substitute_linear(tau()) == q
        # x1*x2 picks up zeta^-3
        p = xvar(1) * xvar(2)
        assert p.substitute_linear(tau()) == p * zeta(8, -3)

    def test_sigma_shifts(self):
        q = xvar(0) ** 2 + xvar(4) ** 2
        assert q.substitute_linear(sigma()) == xvar(1) ** 2 + xvar(5) ** 2

    def test_composition_convention(self):
        # substitute(p, g*h) applies h's rule first:
        # substitute(p, g*h) == substitute(substitute(p, h), g)
        rng = random.Random(23)
        gens = [tau(), sigma(), sigma1()]
        for _ in range(40):
            g, h = rng.choice(gens), rng.choice(gens)
            terms = {}
            for _ in range(3):
                e = [0] * 8
                e[rng.randrange(8)] += 1
                e[rng.randrange(8)] += 1
                terms[tuple(e)] = rng.choice([1, -2, zeta(8, rng.randrange(8))])
            p = Polynomial(X_VARIABLES, terms)
            assert p.substitute_linear(g * h) == p.substitute_linear(h).substitute_linear(g)

    def test_point_action_contract(self):
        # substitute(q, g) evaluated at p equals q at point_matrix(g^-1).p;
        # 100 random (g, q, p) samples.
        rng = random.Random(41)
        gens = [tau(), sigma(), sigma1()]
        pool = [CyclotomicNumber.from_rational(k) for k in (-2, -1, 0, 1, 2, 3)] + [zeta(8, 3)]
        for _ in range(100):
            g = rng.choice(gens)
            for _ in range(rng.randint(0, 2)):
                g = g * rng.choice(gens)
            terms = {}
            for _ in range(rng.randint(1, 3)):
                e = [0] * 8
                for _ in range(rng.randint(1, 2)):
                    e[rng.randrange(8)] += 1
                terms[tuple(e)] = rng.randint(-2, 3)
            q = Polynomial(X_VARIABLES, terms)
            point = [rng.choice(pool) for _ in range(8)]
            moved = g.inverse().point_matrix().apply(point)
            assert q.substitute_linear(g).evaluate(point) == q.evaluate(moved)

    def test_linear_substitution_leaves_y_fixed(self):
        q = pvar("y1") * pvar("x0") * pvar("x1") - pvar("y3") ** 2 * pvar("x7") ** 2
        moved = pvar("y1") * pvar("x1") * pvar("x2") - pvar("y3") ** 2 * pvar("x0") ** 2
        assert q.substitute_linear(sigma()) == moved

    def test_general_substitution(self):
        # restrict x0^2 + x2*x6 to the plane x = s0*e0 + s1*(e2+e6)
        svars = ("s0", "s1")
        s0 = var(svars, 0)
        s1 = var(svars, 1)
        zero = Polynomial.zero(svars)
        images = [s0, zero, s1, zero, zero, zero, s1, zero]
        q = xvar(0) ** 2 + xvar(2) * xvar(6)
        assert q.substitute(images) == s0 ** 2 + s1 ** 2


class TestParametric:
    def make_parametric(self):
        # (y1*y3) * x0^2 - (y2^2) * x1*x7 in the flat pencil ring
        y1, y2, y3 = pvar("y1"), pvar("y2"), pvar("y3")
        return y1 * y3 * pvar("x0") ** 2 - y2 ** 2 * pvar("x1") * pvar("x7")

    def test_specialize_values(self):
        q = self.make_parametric().specialize((1, 2, 3))
        assert q.variables == X_VARIABLES
        assert q.terms[(2, 0, 0, 0, 0, 0, 0, 0)] == 3
        assert q.terms[(0, 1, 0, 0, 0, 0, 0, 1)] == -4

    def test_specialize_can_kill_terms(self):
        q = self.make_parametric().specialize((1, 0, 3))
        assert len(q) == 1

    def test_evaluate_requires_specialization(self):
        # a pencil polynomial needs all eleven coordinates; its
        # specialization takes the eight x-coordinates
        q = self.make_parametric()
        point = [1, 1, 0, 0, 0, 0, 0, 1]
        with pytest.raises(ValueError):
            q.evaluate(point)
        assert q.specialize((1, 2, 3)).evaluate(point) == 3 - 4
        assert q.evaluate(point + [1, 2, 3]) == 3 - 4

    def test_substitute_into_parameter_ring(self):
        # symbolic evaluation: x0 -> y1, x1 -> y2, x7 -> y2, other x -> 0
        q = self.make_parametric()
        y1, y2, y3 = pvar("y1"), pvar("y2"), pvar("y3")
        zero = Polynomial.zero(PENCIL_VARIABLES)
        images = [y1, y2, zero, zero, zero, zero, zero, y2, y1, y2, y3]
        # (y1*y3)*y1^2 - y2^2*(y2*y2)
        assert q.substitute(images) == y1 ** 3 * y3 - y2 ** 4

    def test_specialize_rejects_other_rings(self):
        with pytest.raises(ValueError):
            xvar(0).specialize((1, 2, 3))
        with pytest.raises(ValueError):
            self.make_parametric().specialize((1, 2))


class TestRender:
    def test_constant_and_zero(self):
        assert Polynomial.zero(("a",)).render() == "0"
        assert Polynomial.constant(("a",), Fraction(3, 2)).render() == "[3/2]@2"

    def test_descending_terms(self):
        p = xvar(1) + xvar(0) ** 2
        assert p.render() == "[1]@2*x0^2 + [1]@2*x1"

    def test_parametric_render(self):
        q = pvar("y1") * pvar("y3") * pvar("x0") ** 2
        assert q.render() == "[1]@2*x0^2*y1*y3"


@st.composite
def pencil_points(draw):
    """(x, y): x in Q(zeta_8)^8, y a rational triple."""
    small = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    x = [
        CyclotomicNumber(3, draw(st.lists(small, min_size=4, max_size=4)))
        for _ in range(8)
    ]
    return x, [draw(small) for _ in range(3)]


@given(pencil_points())
@settings(max_examples=40, deadline=None)
def test_specialize_then_evaluate_matches_flat_evaluate(point):
    x, y = point
    for q in build_quadrics().quadrics:
        assert q.specialize(y).evaluate(x) == q.evaluate(x + y)


@st.composite
def pencil_pullbacks(draw):
    """(g, p): a monomial substitution of random phase order N and a pencil-ring
    polynomial with y in its terms and coefficients across the tower."""
    N = draw(st.sampled_from(SUPPORTED_ORDERS))
    perm = draw(st.permutations(range(8)))
    g = MonomialMatrix(perm, draw(st.lists(st.integers(0, N - 1), min_size=8, max_size=8)), N)
    exponents = st.tuples(*[st.integers(0, 2)] * 11)
    coefficient = st.one_of(
        st.integers(-3, 3),
        st.builds(root_of_unity, st.sampled_from(SUPPORTED_ORDERS), st.integers(0, 63)),
    )
    terms = draw(st.dictionaries(exponents, coefficient, min_size=1, max_size=8))
    return g, Polynomial(PENCIL_VARIABLES, terms)


@given(pencil_pullbacks())
@settings(max_examples=80, deadline=None)
def test_pullback_terms_need_no_merging(case):
    # distinct exponents pull back to distinct exponents, each coefficient
    # times a root of unity: the unchecked result is the validated one
    g, p = case
    result = p.substitute_linear(g)
    assert len(result) == len(p)
    assert not any(c.is_zero() for c in result.terms.values())
    assert result == Polynomial(PENCIL_VARIABLES, result.terms)


# -- randomized ring laws ----------------------------------------------------

coeffs = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda k: root_of_unity(8, k), st.integers(0, 7)),
)


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        e = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        terms[e] = draw(coeffs)
    return Polynomial(("a", "b"), terms)


@given(polys(), polys(), polys())
@settings(max_examples=120)
def test_poly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p - p).is_zero()


@given(polys(), polys())
@settings(max_examples=60)
def test_degree_bounds(p, q):
    if not p.is_zero() and not q.is_zero():
        assert (p * q).total_degree() == p.total_degree() + q.total_degree()
    s = p + q
    if not s.is_zero():
        assert s.total_degree() <= max(p.total_degree(), q.total_degree())
