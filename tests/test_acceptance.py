"""The ten headline certifications, one test per criterion, each printing a
single PASS/FAIL line (visible under -s) and asserting its runtime bound.

Run with: pytest tests/test_acceptance.py -v -s
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from quadcert.cyclotomic import CyclotomicNumber, degree_at, root_of_unity
from quadcert.groebner import buchberger
from quadcert.groups import (
    closure,
    involution_localization,
    involutions,
    is_abelian,
    localization_subgroup_words,
    make_sigma,
    make_sigma1,
    make_sigma2,
    make_sigma3,
    make_tau,
    order_spectrum,
    standard_group,
)
from quadcert.linalg import MonomialMatrix
from quadcert.polynomials import Polynomial
from quadcert.reporting import VerificationConfig, render_report
from quadcert.reporting import run as run_campaign
from quadcert.variety import (
    ODPContext,
    build_quadrics,
    check_freeness,
    check_ideal_invariance,
    draw_specializations,
    planted_control_system,
    singular_orbit,
    verify_odp,
)


@contextmanager
def criterion(number, label, bound=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if bound is not None and elapsed >= bound:
            raise AssertionError(f"took {elapsed:.1f}s, bound {bound}s")
    except BaseException:
        print(f"\n[criterion {number}] FAIL  {label}")
        raise
    print(f"\n[criterion {number}] PASS  {label}  ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def system():
    return build_quadrics()


@pytest.fixture(scope="module")
def groups():
    return {name: standard_group(name) for name in ("G", "G1", "G2")}


@pytest.fixture(scope="module")
def triples(system, groups):
    return draw_specializations(3, 2026, system, groups["G"])


def test_criterion_01_group_orders_and_types(groups):
    with criterion(1, "three projective groups of order 64, one abelian", bound=10.0):
        for name, group in groups.items():
            assert group.order == 64, f"{name} has order {group.order}"
        assert is_abelian(groups["G"])
        assert not is_abelian(groups["G1"])
        assert not is_abelian(groups["G2"])


def test_criterion_02_quaternion_spectrum():
    with criterion(2, "order spectrum {1:1, 2:1, 4:6} for the 8-element subgroup"):
        subgroup = closure([make_sigma2(), make_sigma3()], names=("s2", "s3"))
        assert order_spectrum(subgroup) == {1: 1, 2: 1, 4: 6}


def test_criterion_03_central_extension_accounting():
    with criterion(3, "linear closure 512 = 64 * 8 with scalar center of order 8"):
        linear = closure([make_tau(), make_sigma()], projective=False, names=("t", "s"))
        assert linear.order == 512
        identity_perm = tuple(range(8))
        scalars = [
            g
            for g in linear.elements
            if g.perm == identity_perm and len(set(g.phases)) == 1
        ]
        assert len(scalars) == 8
        assert linear.order == 64 * len(scalars)


def test_criterion_04_involution_localization(groups):
    with criterion(4, "exactly 3 involutions, all inside a subgroup of G"):
        for name in ("G1", "G2"):
            group = groups[name]
            assert len(involutions(group)) == 3
            cert = involution_localization(
                group, localization_subgroup_words(name), groups["G"]
            )
            assert cert.involution_count == 3
            assert cert.all_in_subgroup, cert.outside_subgroup_witness
            assert cert.subgroup_contained_in_ambient, cert.outside_ambient_witness


def test_criterion_05_ideal_invariance(system):
    with criterion(5, "all five generators preserve the ideal; control fails", bound=5.0):
        presets = {
            "t": make_tau(),
            "s": make_sigma(),
            "s1": make_sigma1(),
            "s2": make_sigma2(),
            "s3": make_sigma3(),
        }
        results = {name: check_ideal_invariance(g, system) for name, g in presets.items()}
        assert all(r.ok for r in results.values())
        expected_t = tuple(
            tuple(
                root_of_unity(8, -2 * i) if i == j else CyclotomicNumber.zero()
                for j in range(4)
            )
            for i in range(4)
        )
        assert results["t"].matrix == expected_t
        expected_s = tuple(
            tuple(
                CyclotomicNumber.one() if j == (i + 1) % 4 else CyclotomicNumber.zero()
                for j in range(4)
            )
            for i in range(4)
        )
        assert results["s"].matrix == expected_s
        control = MonomialMatrix.diagonal((0, 0, 0, 0, 4, 4, 4, 4))
        failed = check_ideal_invariance(control, system)
        assert not failed.ok
        assert failed.witness_text() == "x1*x7"


def test_criterion_06_singular_orbit(system, groups, triples):
    for y in triples:
        label = ",".join(str(c) for c in y)
        with criterion(6, f"64 ordinary double points at y=({label})", bound=60.0):
            orbit = singular_orbit(system, groups["G"], y)
            assert len(orbit) == 64  # pairwise non-proportional by construction
            context = ODPContext.at(system, y)
            for point in orbit:
                cert = verify_odp(point.coordinates, context)
                assert cert.on_variety
                assert cert.jacobian_rank == 3
                assert cert.hessian_restricted_rank == 4


def test_criterion_07_freeness(system, groups, triples):
    with criterion(7, "free action, involutions scope and full scope agree", bound=600.0):
        for name, group in groups.items():
            narrow = check_freeness(
                group,
                system,
                triples,
                scope="involutions",
                group_name=name,
            )
            assert narrow.verdict == "free", f"{name}: {narrow.verdict}"
            full = check_freeness(
                group,
                system,
                triples,
                scope="all",
                group_name=name,
            )
            assert full.verdict == narrow.verdict == "free"
            for outcome in full.specializations:
                assert len(outcome.elements) == 63


def test_criterion_08_planted_control():
    with criterion(8, "planted degenerate system yields a verified fixed point"):
        control = planted_control_system()
        flip = closure([make_tau() ** 4], names=("t4",))
        report = check_freeness(
            flip, control, [(Fraction(1), Fraction(2), Fraction(3))],
            scope="involutions", group_name="control", screen=False,
        )
        assert report.verdict == "fixed-point-found"
        (outcome,) = report.specializations
        (element,) = outcome.elements
        fixed = [c for c in element.components if c.verdict == "fixed-point"]
        assert fixed
        witnesses = {c.witness for c in fixed}
        expected = tuple(
            CyclotomicNumber.one().to_text() if i == 0 else CyclotomicNumber.zero().to_text()
            for i in range(8)
        )
        assert expected in witnesses  # the (1:0:...:0) point
        for witness in witnesses:
            coords = tuple(CyclotomicNumber.from_text(t) for t in witness)
            assert any(not c.is_zero() for c in coords)
            for q in control.specialized((Fraction(1), Fraction(2), Fraction(3))):
                assert q.evaluate(coords).is_zero()


def _random_cyclotomic(rng, level):
    coeffs = [Fraction(0)] * degree_at(level)
    for _ in range(rng.randint(1, 4)):
        coeffs[rng.randrange(len(coeffs))] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return CyclotomicNumber(level, coeffs)


def _monomials_of_degree(nvars, degree):
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out)


def _span_contains(p, gens):
    """Degree-matched linear algebra membership test for homogeneous ideals,
    independent of the basis machinery."""
    degree = p.total_degree()
    nvars = len(p.variables)
    columns = []
    for g in gens:
        shift = degree - g.total_degree()
        if shift < 0:
            continue
        for m in _monomials_of_degree(nvars, shift):
            columns.append(g * Polynomial.monomial(p.variables, m))
    basis = _monomials_of_degree(nvars, degree)
    index = {m: i for i, m in enumerate(basis)}
    matrix = [[Fraction(0)] * (len(columns) + 1) for _ in basis]
    for j, col in enumerate(columns):
        for e, c in col.terms.items():
            assert c.level == 1
            matrix[index[e]][j] = c.coeffs[0]
    for e, c in p.terms.items():
        assert c.level == 1
        matrix[index[e]][-1] = c.coeffs[0]
    pivot_row = 0
    for col in range(len(columns)):
        sel = next((r for r in range(pivot_row, len(basis)) if matrix[r][col]), None)
        if sel is None:
            continue
        matrix[pivot_row], matrix[sel] = matrix[sel], matrix[pivot_row]
        inv = 1 / matrix[pivot_row][col]
        matrix[pivot_row] = [v * inv for v in matrix[pivot_row]]
        for r in range(len(basis)):
            if r != pivot_row and matrix[r][col]:
                f = matrix[r][col]
                matrix[r] = [a - f * b for a, b in zip(matrix[r], matrix[pivot_row])]
        pivot_row += 1
    return all(matrix[r][-1] == 0 for r in range(pivot_row, len(basis)))


def _random_homogeneous(rng, variables, degree, max_terms=4):
    terms = {}
    pool = _monomials_of_degree(len(variables), degree)
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.choice(pool)] = Fraction(rng.randint(-4, 4))
    return Polynomial(variables, terms)


def test_criterion_09_property_suites():
    with criterion(9, "field axioms, basis post-checks, membership oracle agreement"):
        rng = random.Random(90125)
        one = CyclotomicNumber.one()
        for level in range(1, 7):
            for _ in range(1000):
                a = _random_cyclotomic(rng, level)
                b = _random_cyclotomic(rng, level)
                c = _random_cyclotomic(rng, level)
                assert (a + b) + c == a + (b + c)
                assert a + b == b + a
                assert a * b == b * a
                assert a * (b + c) == a * b + a * c
                assert (a * b) * c == a * (b * c)
                if not a.is_zero():
                    assert a * a.inverse() == one

        variables = ("x", "y", "z")
        ideals = members = non_members = 0
        while ideals < 50:
            degree = rng.choice((2, 3))
            gens = [
                _random_homogeneous(rng, variables, degree)
                for _ in range(rng.randint(1, 2))
            ]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            # buchberger re-reduces every S-polynomial of the emitted basis
            gb = buchberger(gens)
            if rng.random() < 0.5:
                candidate = Polynomial.zero(variables)
                for g in gens:
                    candidate = candidate + g * _random_homogeneous(rng, variables, 1, 2)
            else:
                candidate = _random_homogeneous(rng, variables, degree)
            if candidate.is_zero():
                continue
            via_basis = gb.contains(candidate)
            via_span = _span_contains(candidate, gens)
            assert via_basis == via_span, (
                f"disagreement on {candidate.render()} "
                f"over {[g.render() for g in gens]}"
            )
            ideals += 1
            members += via_basis
            non_members += not via_basis
        assert members >= 10
        assert non_members >= 10


def test_criterion_10_determinism():
    with criterion(10, "identical config and seed give byte-identical reports"):
        config = VerificationConfig(
            checks=("groups", "invariance", "orbit", "freeness"),
            group="G",
            specializations=1,
            seed=7,
            canonical=True,
        )
        first = render_report(run_campaign(config), "json")
        second = render_report(run_campaign(config), "json")
        assert first == second
        payload = json.loads(first)
        assert payload["overall"] == "pass"
        assert all(rec["timing"] == 0.0 for rec in payload["checks"])
