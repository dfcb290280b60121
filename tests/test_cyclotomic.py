import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from quadcert.cyclotomic import (
    MAX_LEVEL,
    MIN_LEVEL,
    SUPPORTED_ORDERS,
    CyclotomicNumber,
    _lift,
    degree_at,
    root_of_unity,
)

ZETA8 = root_of_unity(8)


def zeta(n, k=1):
    return root_of_unity(n, k)


class TestBasics:
    def test_rational_embedding(self):
        assert CyclotomicNumber.from_rational(3).level == 1
        assert CyclotomicNumber.from_rational(Fraction(3, 2)).coeffs == (Fraction(3, 2),)

    def test_zero_one(self):
        assert CyclotomicNumber.zero().is_zero()
        assert not CyclotomicNumber.one().is_zero()
        assert CyclotomicNumber.one() == Fraction(1)
        assert CyclotomicNumber.one().coeffs == (Fraction(1),)

    def test_coefficient_length_enforced(self):
        with pytest.raises(ValueError):
            CyclotomicNumber(3, (1, 2))
        with pytest.raises(ValueError):
            CyclotomicNumber(0, (1,))
        with pytest.raises(ValueError):
            CyclotomicNumber(7, [0] * 64)

    def test_minimal_poly_relation(self):
        # zeta_n^(n/2) = -1 and zeta_n^n = 1 at every level.
        for n in SUPPORTED_ORDERS:
            z = zeta(n)
            assert z ** (n // 2) == -1
            assert z ** n == 1

    def test_primitive_order(self):
        for n in SUPPORTED_ORDERS:
            z = zeta(n)
            for k in range(1, n):
                assert z ** k != 1
            assert z ** n == 1


class TestRootOfUnity:
    def test_trivial_exponents(self):
        assert zeta(8, 0) == 1
        assert zeta(8, 4) == -1
        assert zeta(8, 8) == 1
        assert zeta(2, 1) == -1

    def test_negative_exponent_wraps(self):
        assert zeta(8, -1) == zeta(8, 7)

    def test_minimal_level(self):
        # zeta_64^8 is a primitive 8th root, stored at level 3 not 6.
        assert zeta(64, 8) == ZETA8
        assert zeta(64, 8).level == 3
        assert zeta(64, 32) == -1
        assert zeta(64, 32).level == 1

    def test_unsupported_order(self):
        for n in (0, 1, 3, 6, 128):
            with pytest.raises(ValueError):
                root_of_unity(n)


class TestArithmetic:
    def test_add_cancellation(self):
        # zeta_8^2 + zeta_8^6 = i + (-i) = 0
        assert (zeta(8, 2) + zeta(8, 6)).is_zero()

    def test_mul_inverse_pair(self):
        assert ZETA8 * zeta(8, 7) == 1

    def test_reduction_wraps_sign(self):
        # zeta_8 * zeta_8^4 = zeta_8^5 = -zeta_8
        assert ZETA8 * zeta(8, 4) == -ZETA8

    def test_difference_of_squares(self):
        one = CyclotomicNumber.one()
        assert (one + ZETA8) * (one - ZETA8) == one - zeta(8, 2)

    def test_mixed_level_arithmetic(self):
        # i lives at level 2, zeta_8 at level 3; i = zeta_8^2.
        i = zeta(4, 1)
        assert i * i == -1
        assert ZETA8 * ZETA8 == i
        assert (ZETA8 + i) - i == ZETA8

    def test_scalar_coercion(self):
        assert 2 * ZETA8 == ZETA8 + ZETA8
        assert Fraction(1, 2) * (ZETA8 + ZETA8) == ZETA8
        assert (1 + ZETA8) - 1 == ZETA8

    def test_pow_negative(self):
        assert ZETA8 ** -1 == zeta(8, 7)
        assert ZETA8 ** -3 == zeta(8, 5)


class TestInverse:
    def test_rational_inverse(self):
        assert CyclotomicNumber.from_rational(2).inverse() == Fraction(1, 2)

    def test_root_inverse(self):
        assert ZETA8.inverse() == zeta(8, 7)

    def test_one_plus_i_inverse_frozen(self):
        # (1 + zeta_8^2)^-1 = (1 - zeta_8^2) / 2, worked by hand from
        # (1 + i)(1 - i) = 2.
        a = CyclotomicNumber.one() + zeta(8, 2)
        expected = (CyclotomicNumber.one() - zeta(8, 2)) * Fraction(1, 2)
        assert a.inverse() == expected
        assert a * a.inverse() == 1

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            CyclotomicNumber.zero().inverse()
        with pytest.raises(ZeroDivisionError):
            (ZETA8 - ZETA8).inverse()

    def test_division(self):
        assert zeta(8, 3) * ZETA8.inverse() == zeta(8, 2)


def promote(x, level):
    """`x` written at `level` via `_lift`; the constructor stores it minimal."""
    return CyclotomicNumber(level, _lift(x.coeffs, level))


class TestPromotion:
    def test_promote_stride(self):
        # zeta_8 -> zeta_64^8: index 1 moves to index 8 of 32
        up = _lift(ZETA8.coeffs, 6)
        assert len(up) == 32
        assert up[8] == 1
        assert sum(1 for c in up if c) == 1

    def test_promote_round_trip(self):
        assert promote(ZETA8, 6).level == 3
        assert promote(ZETA8, 6) == ZETA8
        assert hash(promote(ZETA8, 6)) == hash(ZETA8)

    def test_promote_respects_arithmetic(self):
        a = 1 + zeta(8, 3)
        b = zeta(16, 5)
        assert promote(a, 5) * b == a * b
        assert promote(a, 6) + promote(b, 6) == a + b


class TestText:
    def test_render(self):
        assert ZETA8.to_text() == "[0, 1, 0, 0]@8"
        assert CyclotomicNumber.from_rational(Fraction(-3, 2)).to_text() == "[-3/2]@2"

    def test_round_trip(self):
        for value in (ZETA8, zeta(64, 13) + Fraction(2, 7), CyclotomicNumber.zero()):
            assert CyclotomicNumber.from_text(value.to_text()) == value

    def test_parse_demotes(self):
        assert CyclotomicNumber.from_text("[0, 0, 1, 0]@8") == zeta(4, 1)

    def test_malformed(self):
        for text in ("", "[1, 2]", "1@8", "[1]@3", "[1, x]@4"):
            with pytest.raises(ValueError):
                CyclotomicNumber.from_text(text)

    def test_unclosed_bracket(self):
        with pytest.raises(ValueError, match=r"malformed cyclotomic literal: '\[1@2'"):
            CyclotomicNumber.from_text("[1@2")

    def test_ascii_digits_only(self):
        # Fraction and int read other scripts' digits: this was 1/3 at order 2
        assert CyclotomicNumber.from_text("[1, 1/2]@4") == 1 + zeta(4, 1) * Fraction(1, 2)
        with pytest.raises(ValueError, match="malformed cyclotomic literal"):
            CyclotomicNumber.from_text("[١/٣]@٢")


# -- randomized field-axiom checks ------------------------------------------

small_fractions = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@st.composite
def cyclotomics(draw, max_level=4):
    level = draw(st.integers(MIN_LEVEL, max_level))
    coeffs = draw(
        st.lists(small_fractions, min_size=degree_at(level), max_size=degree_at(level))
    )
    return CyclotomicNumber(level, coeffs)


@given(cyclotomics(), cyclotomics(), cyclotomics())
@settings(max_examples=150)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + CyclotomicNumber.zero() == a
    assert a * CyclotomicNumber.one() == a
    assert (a - a).is_zero()


@given(cyclotomics())
@settings(max_examples=150)
def test_inverse_axiom(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == 1


def test_inverse_top_of_tower():
    # the norm recursion runs from Q(zeta_64) and Q(zeta_32) down to Q
    rng = random.Random(5)
    for level in (MAX_LEVEL, MAX_LEVEL - 1):
        for _ in range(3):
            a = CyclotomicNumber(
                level, [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(degree_at(level))]
            )
            assert a * a.inverse() == 1
            assert a.inverse().level == a.level


@given(cyclotomics(max_level=3), st.integers(4, MAX_LEVEL))
@settings(max_examples=80)
def test_promotion_is_field_homomorphism(a, level):
    b = promote(a, level)
    assert b == a
    assert b * b == a * a
    assert b + b == a + a


@st.composite
def lifted_cyclotomics(draw):
    """A number of a drawn level, its coefficients written at a drawn level
    at or above it."""
    level = draw(st.integers(MIN_LEVEL, MAX_LEVEL))
    written = draw(st.integers(level, MAX_LEVEL))
    coeffs = draw(
        st.lists(small_fractions, min_size=degree_at(level), max_size=degree_at(level))
    )
    return CyclotomicNumber(written, _lift(tuple(coeffs), written))


def is_minimal(x):
    return x.level == MIN_LEVEL or any(x.coeffs[1::2])


@given(lifted_cyclotomics(), lifted_cyclotomics())
@settings(max_examples=60, deadline=None)
def test_mixed_level_results_are_minimal(a, b):
    results = [a, b, a + b, a - b, b - a, a * b, -a, (a + b) - b]
    if not b.is_zero():
        results += [b.inverse(), a * b * b.inverse()]
    for r in results:
        assert is_minimal(r)
    for r in results:
        for s in results:
            if r == s:
                assert hash(r) == hash(s)
                assert r.sort_key() == s.sort_key()


@given(cyclotomics(), cyclotomics())
@settings(max_examples=100)
def test_equality_matches_subtraction(a, b):
    assert (a == b) == (a - b).is_zero()


@given(cyclotomics(), st.integers(-3, 6))
@settings(max_examples=100, deadline=None)
def test_pow_matches_repeated_product(a, k):
    # over Q(zeta_16): x**k is the k-fold product, and the |k|-fold product
    # of the inverse for k < 0
    if k < 0 and a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a ** k
        return
    factor = a if k >= 0 else a.inverse()
    expected = CyclotomicNumber.one()
    for _ in range(abs(k)):
        expected = expected * factor
    assert a ** k == expected


def test_pow_multiplication_count(monkeypatch):
    # left-to-right powering: no multiplication for x**1, one for x**2, and
    # one square per bit after the leading one plus one product per set bit
    calls = []
    original = CyclotomicNumber.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(CyclotomicNumber, "__mul__", counting_mul)
    x = zeta(16, 3)
    for k, expected in ((1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3)):
        calls.clear()
        x ** k
        assert len(calls) == expected, k


# -- the stored form: integer numerators over one reduced denominator -------

wide_fractions = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-60, max_value=60, max_denominator=12),
)


@st.composite
def sparse_lifted_cyclotomics(draw):
    """A number of a drawn level in 1..6, often with zero coefficients,
    written at a drawn level at or above it."""
    level = draw(st.integers(MIN_LEVEL, MAX_LEVEL))
    written = draw(st.integers(level, MAX_LEVEL))
    coeffs = draw(st.lists(wide_fractions, min_size=degree_at(level), max_size=degree_at(level)))
    return CyclotomicNumber(written, _lift(tuple(coeffs), written))


def assert_stored_form(x):
    assert isinstance(x.den, int) and x.den > 0
    assert all(isinstance(c, int) for c in x.num)
    assert len(x.num) == degree_at(x.level)
    assert gcd(x.den, *x.num) == 1
    assert is_minimal(x)


@given(sparse_lifted_cyclotomics(), sparse_lifted_cyclotomics())
@settings(max_examples=60, deadline=None)
def test_results_are_reduced_and_minimal(a, b):
    results = [a, b, a + b, a - b, a * b, -a, b * Fraction(2, 3), 3 * a]
    if not a.is_zero():
        results.append(a.inverse())
    for r in results:
        assert_stored_form(r)


@given(
    st.integers(MIN_LEVEL, MAX_LEVEL),
    st.data(),
    st.integers(1, 30),
)
@settings(max_examples=60, deadline=None)
def test_one_value_one_form(level, data, den):
    # the same value from ints, from Fractions, through its text form and
    # written at a higher level compares, hashes and sorts as one value
    nums = data.draw(
        st.lists(st.integers(-40, 40), min_size=degree_at(level), max_size=degree_at(level))
    )
    higher = data.draw(st.integers(level, MAX_LEVEL))
    forms = [
        CyclotomicNumber(level, nums) * Fraction(1, den),
        CyclotomicNumber(level, [Fraction(n, den) for n in nums]),
        CyclotomicNumber(higher, _lift([Fraction(n, den) for n in nums], higher)),
        CyclotomicNumber(higher, _lift(nums, higher))
        * CyclotomicNumber.from_rational(den).inverse(),
    ]
    forms.append(CyclotomicNumber.from_text(forms[1].to_text()))
    for x in forms:
        assert_stored_form(x)
        assert x == forms[0]
        assert hash(x) == hash(forms[0])
        assert x.sort_key() == forms[0].sort_key()
        assert x.coeffs == forms[1].coeffs


def reference_sort_key(x):
    return (x.level, tuple((c.numerator, c.denominator) for c in x.coeffs))


@given(sparse_lifted_cyclotomics(), sparse_lifted_cyclotomics())
@settings(max_examples=60, deadline=None)
def test_sort_key_matches_fraction_order(a, b):
    assert (a.sort_key() < b.sort_key()) == (reference_sort_key(a) < reference_sort_key(b))
    assert (a.sort_key() == b.sort_key()) == (reference_sort_key(a) == reference_sort_key(b))
