import random
from collections import Counter
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from quadcert import groups
from quadcert.groups import (
    CLAIM_KEYS,
    GROUP_NAMES,
    OPTIONAL_CLAIM_KEYS,
    ProjectiveElement,
    _normality_witness,
    certify_structure,
    closure,
    conjugacy_classes,
    conjugation_exponent,
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
    standard_claims,
    standard_generators,
    standard_group,
)
from quadcert.cyclotomic import SUPPORTED_ORDERS
from quadcert.linalg import MonomialMatrix


def random_matrix(rng):
    perm = list(range(8))
    rng.shuffle(perm)
    return MonomialMatrix(tuple(perm), tuple(rng.randrange(8) for _ in range(8)))


def normalized(g):
    return ProjectiveElement(g.perm, g.phases, g.N)


def element_order(g):
    """Reference for FiniteGroup.element_orders: multiply by g until the
    identity comes back."""
    power, k = g, 1
    while not power.is_identity():
        power, k = power * g, k + 1
    return k


def abelian_by_all_pairs(group):
    """Reference for is_abelian: both products of every element pair."""
    return all(
        a * b == b * a for i, a in enumerate(group.elements) for b in group.elements[i + 1 :]
    )


def normal_by_all_elements(group, sub):
    """Reference for _normality_witness: conjugate every subgroup element by
    every group element."""
    return all(g * n * g.inverse() in sub for g in group.elements for n in sub.elements)


def affine(a, b):
    """The coordinate permutation j -> a*j + b mod 8."""
    return MonomialMatrix(tuple((a * j + b) % 8 for j in range(8)), (0,) * 8)


class TestNormalization:
    def test_scalar_absorption(self):
        zeta_8 = ProjectiveElement(tuple(range(8)), (1,) * 8)  # the scalar zeta_8
        assert zeta_8 == ProjectiveElement.identity()
        assert zeta_8.is_identity()

    def test_commutator_is_scalar(self):
        # tau*sigma and sigma*tau differ by one global phase unit
        t, s = make_tau(), make_sigma()
        assert t * s != s * t
        diff = {(a - b) % 8 for a, b in zip((t * s).phases, (s * t).phases)}
        assert len(diff) == 1
        assert normalized(t * s) == normalized(s * t)

    def test_normalized_rep_has_zero_first_phase(self):
        rng = random.Random(3)
        for _ in range(30):
            g = normalized(random_matrix(rng))
            assert g.phases[0] == 0
            assert normalized(g) == g

    def test_projective_arithmetic(self):
        t = normalized(make_tau())
        assert (t * t.inverse()).is_identity()
        assert t ** 8 == ProjectiveElement.identity()

    def test_products_inverses_powers_stay_normalized(self):
        rng = random.Random(4)
        for _ in range(30):
            g, h = normalized(random_matrix(rng)), normalized(random_matrix(rng))
            for x in (g * h, g.inverse(), g ** 3, g ** -2, g ** 0):
                assert type(x) is ProjectiveElement
                assert x.phases[0] == 0


@st.composite
def monomial_pairs(draw):
    """Two elements of one size and one phase order N, any N of the tower."""
    N = draw(st.sampled_from(SUPPORTED_ORDERS))
    size = draw(st.integers(1, 8))

    def element():
        phases = draw(st.lists(st.integers(-2 * N, 2 * N), min_size=size, max_size=size))
        return MonomialMatrix(draw(st.permutations(range(size))), phases, N)

    return element(), element()


@given(monomial_pairs())
@settings(max_examples=60, deadline=None)
def test_derived_elements_equal_validated_products(pair):
    # products, inverses, point matrices and conjugates are built without
    # validation; each equals what the validating constructor builds from
    # the same data, and acts on the basis as the maps it composes
    h, g = pair
    N = g.N
    basis = [tuple(int(i == k) for i in range(g.size)) for k in range(g.size)]
    validated = lambda m: type(m)(m.perm, m.phases, m.N)
    product, inverse, point = h * g, h.inverse(), g.point_matrix()
    for x in (product, inverse, point):
        assert type(x) is MonomialMatrix and x == validated(x)
        assert all(0 <= p < N for p in x.phases)
    assert point == MonomialMatrix(g.perm, [-p for p in g.phases], N)
    assert (h * g).point_matrix() == h.point_matrix() * point
    assert (h * inverse).is_identity() and (inverse * h).is_identity()
    for e in basis:
        assert product.apply(e) == h.apply(g.apply(e))
    # the kernel's conjugate, unnormalized and normalized
    conjugated = MonomialMatrix(*groups.conjugate(h, g), N)
    assert conjugated == h * g * inverse
    for e in basis:
        assert conjugated.apply(h.apply(e)) == h.apply(g.apply(e))
    hp, gp = normalized(h), normalized(g)
    assert ProjectiveElement._unchecked(*groups.conjugate(hp, gp), N) == normalized(conjugated)
    assert normalized(conjugated) == hp * gp * hp.inverse()
    assert (hp * gp).phases[0] == 0 and hp * gp == normalized(product)


@given(st.integers(0, 7), st.integers(0, 1000))
@settings(max_examples=80)
def test_normalize_kills_any_scalar(phase, seed):
    g = random_matrix(random.Random(seed))
    scaled = MonomialMatrix(g.perm, tuple(p + phase for p in g.phases))  # zeta_8^phase * g
    assert normalized(scaled) == normalized(g)


class TestPresets:
    def test_frozen_serializations(self):
        assert make_tau().to_dict() == {
            "perm": list(range(8)),
            "phases": [0, 7, 6, 5, 4, 3, 2, 1],
            "N": 8,
        }
        assert make_sigma().to_dict()["perm"] == [1, 2, 3, 4, 5, 6, 7, 0]
        assert make_sigma1().to_dict()["perm"] == [7, 4, 1, 6, 3, 0, 5, 2]
        assert make_sigma2().to_dict()["perm"] == [2, 3, 4, 5, 6, 7, 0, 1]
        assert make_sigma3().to_dict()["perm"] == [1, 4, 7, 2, 5, 0, 3, 6]
        for mat in (make_sigma(), make_sigma1(), make_sigma2(), make_sigma3()):
            assert mat.to_dict()["phases"] == [0] * 8

    def test_generator_orders(self):
        for mat in (make_tau(), make_sigma(), make_sigma1()):
            assert element_order(mat) == 8
        assert element_order(make_sigma2()) == 4
        assert element_order(make_sigma3()) == 4


class TestClosure:
    def test_single_generator(self):
        g = closure([make_tau()])
        assert g.order == 8

    def test_three_standard_groups(self):
        for name in ("G", "G1", "G2"):
            assert standard_group(name).order == 64

    def test_abelianness(self):
        assert is_abelian(standard_group("G"))
        assert not is_abelian(standard_group("G1"))
        assert not is_abelian(standard_group("G2"))

    @pytest.mark.parametrize(
        "preset", [standard_generators, standard_claims, localization_subgroup_words]
    )
    def test_unknown_group_name(self, preset):
        with pytest.raises(ValueError, match=r"unknown group name 'G3'; expected one of"):
            preset("G3")

    def test_generator_order_independence(self):
        names, gens = standard_generators("G2")
        forward = closure(gens, names=names)
        backward = closure(list(reversed(gens)), names=tuple(reversed(names)))
        assert forward.element_set == backward.element_set

    def test_inverse_generators_same_closure(self):
        _, gens = standard_generators("G1")
        direct = closure(gens)
        inverted = closure([g.inverse() for g in gens])
        assert direct.element_set == inverted.element_set

    def test_cap_raises(self, monkeypatch):
        monkeypatch.setattr(groups, "DEFAULT_CLOSURE_CAP", 10)
        with pytest.raises(RuntimeError):
            closure([make_tau(), make_sigma()])

    def test_linear_closure_and_scalar_center(self):
        linear = closure([make_tau(), make_sigma()], projective=False)
        assert linear.order == 512
        scalars = [
            g
            for g in linear.elements
            if g.perm == tuple(range(8)) and len(set(g.phases)) == 1
        ]
        assert len(scalars) == 8
        projective = standard_group("G")
        assert linear.order == projective.order * len(scalars)

    def test_validation(self):
        with pytest.raises(ValueError):
            closure([])
        with pytest.raises(ValueError):
            closure([make_tau(), MonomialMatrix.identity(4, 8)])
        with pytest.raises(ValueError):
            closure([make_tau()], names=("a", "b"))


class TestSpectra:
    def test_abelian_group_spectrum(self):
        # independent model: orders in Z/8 x Z/8 via lcm of component orders
        expected = Counter(
            lcm(8 // gcd(a, 8), 8 // gcd(b, 8)) for a in range(8) for b in range(8)
        )
        assert order_spectrum(standard_group("G")) == dict(expected)

    def test_quaternion_subgroup_spectrum(self):
        g2 = standard_group("G2")
        sub = g2.subgroup(["s2", "s3"])
        assert sub.order == 8
        assert order_spectrum(sub) == {1: 1, 2: 1, 4: 6}

    def test_quaternion_spectrum_against_affine_oracle(self):
        # the same subgroup as plain affine maps j -> a*j + b mod 8
        def compose(f, g):
            return ((f[0] * g[0]) % 8, (f[0] * g[1] + f[1]) % 8)

        gens = [(1, 2), (3, 1)]
        seen = {(1, 0)}
        frontier = [(1, 0)]
        while frontier:
            nxt = []
            for f in frontier:
                for g in gens:
                    h = compose(f, g)
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt

        def affine_order(f):
            k, acc = 1, f
            while acc != (1, 0):
                acc = compose(acc, f)
                k += 1
            return k

        oracle = Counter(affine_order(f) for f in seen)
        assert dict(oracle) == {1: 1, 2: 1, 4: 6}
        sub = standard_group("G2").subgroup(["s2", "s3"])
        assert order_spectrum(sub) == dict(oracle)


class TestRelations:
    def test_word_evaluation(self):
        g = standard_group("G1")
        assert g.evaluate_word("identity").is_identity()
        assert g.evaluate_word("t^8").is_identity()
        assert g.evaluate_word("t t^-1").is_identity()
        with pytest.raises(ValueError):
            g.evaluate_word("bogus")
        with pytest.raises(ValueError):
            g.verify_relation("t = t = t")

    def test_unique_conjugation_exponent(self):
        g = standard_group("G1")
        holding = [
            a for a in (1, 3, 5, 7) if g.verify_relation(f"s1 t s1^-1 = t^{a}")
        ]
        assert holding == [5]
        t, s1 = g.evaluate_word("t"), g.evaluate_word("s1")
        assert conjugation_exponent(s1, t, g.identity()) == 5

    def test_conjugate_outside_the_powers(self):
        # t s1 t^-1 is not a power of s1: the walk through s1's powers
        # comes back to the identity and reports no exponent
        g = standard_group("G1")
        t, s1 = g.evaluate_word("t"), g.evaluate_word("s1")
        powers = [s1 ** a for a in range(element_order(s1))]
        assert t * s1 * t.inverse() not in powers
        assert conjugation_exponent(t, s1, g.identity()) is None
        results = certify_structure(
            g, [{"type": "semidirect_exponent", "normal_generator": "s1", "conjugator": "t"}]
        )
        assert results == ("conjugate is not a power of the normal generator",)

    def test_quaternion_relation(self):
        g2 = standard_group("G2")
        assert g2.verify_relation("s3 s2 s3^-1 = s2^-1")
        assert g2.verify_relation("s2^2 = s3^2")

    def test_commuting_in_projective_group_only(self):
        g = standard_group("G")
        assert g.verify_relation("s t = t s")
        linear = closure([make_tau(), make_sigma()], projective=False, names=("t", "s"))
        assert not linear.verify_relation("s t = t s")


class TestCertification:
    def test_standard_claims_all_pass(self):
        for name in ("G", "G1", "G2"):
            group = standard_group(name)
            results = certify_structure(group, standard_claims(name))
            failing = [w for w in results if w is not None]
            assert not failing, failing
            assert group.order == 64
            assert sum(order_spectrum(group).values()) == 64

    def test_failures_reported_not_raised(self):
        group = standard_group("G")
        results = certify_structure(
            group,
            [
                {"type": "order", "value": 63},
                {"type": "abelian", "value": False},
                {"type": "mystery"},
            ],
        )
        assert all(w is not None for w in results)
        assert "actual order 64" in results[0]
        assert results[2] == "unknown claim type 'mystery'"

    def test_semidirect_exponent_recorded(self):
        # G1's standard claims state the conjugation exponent, so a wrong
        # stated exponent fails with the one found
        (claim,) = [c for c in standard_claims("G1") if c["type"] == "semidirect_exponent"]
        assert claim == {
            "type": "semidirect_exponent",
            "normal_generator": "t",
            "conjugator": "s1",
            "value": 5,
        }
        group = standard_group("G1")
        assert certify_structure(group, [claim]) == (None,)
        assert certify_structure(group, [{**claim, "value": 3}]) == ("exponent found 5",)

    # one valid claim of each type on a standard group; a type missing here
    # fails its parametrized case, so the table and the checker cannot drift
    VALID = {
        "order": ("G", {"value": 64}),
        "abelian": ("G1", {"value": False}),
        "relation": ("G2", {"relation": "s2^2 = s3^2"}),
        "spectrum": ("G1", {"value": {1: 1, 2: 3, 4: 12, 8: 48}}),
        "spectrum_of_subgroup": ("G2", {"subgroup": ["s2", "s3"], "value": {1: 1, 2: 1, 4: 6}}),
        "normal_subgroup": ("G1", {"subgroup": ["t"]}),
        "quotient_order": ("G1", {"subgroup": ["t"], "value": 8}),
        "semidirect_exponent": ("G1", {"normal_generator": "t", "conjugator": "s1", "value": 5}),
    }

    @pytest.mark.parametrize("kind", sorted(CLAIM_KEYS))
    def test_every_claim_type_is_checked(self, kind):
        name, fields = self.VALID[kind]
        allowed = {*CLAIM_KEYS[kind], *OPTIONAL_CLAIM_KEYS.get(kind, {})}
        assert set(CLAIM_KEYS[kind]) <= set(fields) <= allowed
        (witness,) = certify_structure(standard_group(name), [{"type": kind, **fields}])
        # a claim of another type fails with "unknown claim type"
        assert witness is None, witness

    def test_normal_subgroup_with_witness(self):
        group = standard_group("G1")
        # <s1> is not normal in G1
        results = certify_structure(group, [{"type": "normal_subgroup", "subgroup": ["s1"]}])
        assert results[0] is not None
        assert "leaves the subgroup" in results[0]


class TestConjugacyClasses:
    @pytest.mark.parametrize(
        "name, sizes",
        [("G", {1: 63}), ("G1", {1: 15, 2: 24}), ("G2", {1: 3, 2: 14, 8: 4})],
        ids=["G", "G1", "G2"],
    )
    def test_classes_match_conjugation_by_every_element(self, name, sizes):
        group = standard_group(name)
        targets = group.elements[1:]
        classes = conjugacy_classes(targets, group.generators)
        for g in targets:
            assert classes[g] == {h * g * h.inverse() for h in group.elements}
        # classes partition the non-identity elements
        distinct = set(classes[g] for g in targets)
        assert dict(Counter(len(c) for c in distinct)) == sizes
        assert sum(len(c) for c in distinct) == len(targets)

    def test_classes_under_conjugators_outside_the_group(self):
        # conjugating by the five generators of G, G1 and G2, which generate
        # a group of order 256, walks the same classes as conjugating by each
        # of its elements, without closing it: the 127 non-identity elements
        # of G u G1 u G2 fall into 27 of them
        groups = [standard_group(name) for name in GROUP_NAMES]
        conjugators = list(dict.fromkeys(h for group in groups for h in group.generators))
        overgroup = closure(conjugators)
        assert len(conjugators) == 5 and overgroup.order == 256
        targets = list(dict.fromkeys(g for group in groups for g in group.elements[1:]))
        classes = conjugacy_classes(targets, conjugators)
        for g in targets:
            assert classes[g] == {h * g * h.inverse() for h in overgroup.elements}
        assert len(targets) == 127
        assert len({classes[g] for g in targets}) == 27

    def test_each_involution_is_its_own_class(self):
        # why the involutions-only campaign never transfers a freeness verdict
        for name in ("G", "G1", "G2"):
            group = standard_group(name)
            classes = conjugacy_classes(involutions(group), group.generators)
            assert all(classes[g] == {g} for g in involutions(group))


class TestInvolutions:
    def test_each_group_has_exactly_three(self):
        for name in ("G", "G1", "G2"):
            assert len(involutions(standard_group(name))) == 3

    def test_shared_involution_set(self):
        # all three groups contain the same three order-2 elements
        sets = [frozenset(involutions(standard_group(n))) for n in ("G", "G1", "G2")]
        assert sets[0] == sets[1] == sets[2]
        expected = {
            normalized(make_tau() ** 4),
            normalized(make_sigma() ** 4),
            normalized(make_tau() ** 4 * make_sigma() ** 4),
        }
        assert sets[0] == expected

    def test_localization_certificates(self):
        ambient = standard_group("G")
        for name in ("G", "G1", "G2"):
            group = standard_group(name)
            cert = involution_localization(group, localization_subgroup_words(name), ambient)
            assert cert.involution_count == 3
            assert cert.all_in_subgroup
            assert cert.subgroup_contained_in_ambient
            assert group.subgroup(localization_subgroup_words(name)).order == 16

    def test_localization_failure_has_witness(self):
        group = standard_group("G1")
        ambient = closure([make_tau()], names=("t",))
        cert = involution_localization(group, ["t"], ambient)
        assert not cert.all_in_subgroup
        assert "outside subgroup" in cert.outside_subgroup_witness


class TestGeneratorClaims:
    # is_abelian and _normality_witness read the generators only; the
    # all-pairs and all-elements loops stay here as their cross-validation
    CUSTOM = {
        # a period-2 diagonal commutes with the double step
        "commuting": closure([MonomialMatrix.diagonal((0, 4) * 4), make_sigma2()]),
        # j -> 5j+7 and j -> 3j+1 compose to 7j+4 one way and 7j+6 the other
        "noncommuting": closure([make_sigma1(), make_sigma3()]),
        "affine": closure([affine(3, 0), affine(1, 2), make_tau()]),
    }

    @pytest.mark.parametrize("name", ["G", "G1", "G2", "commuting", "noncommuting", "affine"])
    def test_abelian_verdict_agrees_with_all_pairs(self, name):
        group = self.CUSTOM[name] if name in self.CUSTOM else standard_group(name)
        assert is_abelian(group) == abelian_by_all_pairs(group)

    def test_custom_verdicts(self):
        assert is_abelian(self.CUSTOM["commuting"])
        assert not is_abelian(self.CUSTOM["noncommuting"])

    @pytest.mark.parametrize(
        "name, words, normal",
        [
            ("G", ["t"], True),
            ("G1", ["t"], True),
            ("G2", ["t"], True),
            ("G1", ["s1"], False),
            ("G2", ["s2", "s3"], False),
            ("G2", ["t", "s2^2"], True),
            ("G1", ["t^2", "s1^4"], True),
        ],
    )
    def test_normality_verdict_agrees_with_all_elements(self, name, words, normal):
        group = standard_group(name)
        sub = group.subgroup(words)
        assert normal_by_all_elements(group, sub) is normal
        assert (_normality_witness(group, sub) is None) is normal

    def test_normality_in_custom_groups(self):
        for group in self.CUSTOM.values():
            for g in group.generators:
                sub = closure([g], names=("g",))
                # the subgroup must sit inside the group for the claim to be one
                assert all(n in group for n in sub.elements)
                assert (_normality_witness(group, sub) is None) == normal_by_all_elements(group, sub)

    def test_failing_witness_names_a_generator_pair(self):
        group = standard_group("G1")
        sub = group.subgroup(["s1"])
        witness = _normality_witness(group, sub)
        named = [
            (g, n)
            for g in group.generators
            for n in sub.generators
            if witness == f"conjugate of {n.to_dict()} by {g.to_dict()} leaves the subgroup"
        ]
        assert len(named) == 1
        ((g, n),) = named
        # the named conjugate re-verifies with one conjugation
        assert g * n * g.inverse() not in sub
        results = certify_structure(group, [{"type": "normal_subgroup", "subgroup": ["s1"]}])
        assert results == (witness,)


class TestOrderTable:
    @pytest.mark.parametrize("name", ["G", "G1", "G2"])
    def test_table_matches_element_order(self, name):
        group = standard_group(name)
        table = group.element_orders
        assert list(table) == list(group.elements)
        assert table == {g: element_order(g) for g in group.elements}

    @pytest.mark.parametrize("name", ["G", "G1", "G2"])
    def test_spectrum_and_involutions_unchanged(self, name):
        group = standard_group(name)
        assert order_spectrum(group) == dict(sorted(Counter(map(element_order, group.elements)).items()))
        assert involutions(group) == tuple(g for g in group.elements if element_order(g) == 2)

    def test_built_on_first_use_and_kept(self):
        group = standard_group("G1")
        assert "element_orders" not in vars(group)  # closure does not pay for it
        table = group.element_orders
        assert group.element_orders is table
        assert order_spectrum(group) == {1: 1, 2: 3, 4: 12, 8: 48}
        assert standard_group("G1").element_orders is not table  # one table per group
