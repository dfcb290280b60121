import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadcert.cyclotomic import SUPPORTED_ORDERS, CyclotomicNumber, root_of_unity
from quadcert.groups import ProjectiveElement
from quadcert.linalg import EigenspaceComponent, ExactMatrix, MonomialMatrix
from quadcert.reporting import load_custom_group

ZERO = CyclotomicNumber.zero()
ONE = CyclotomicNumber.one()


def zeta(n, k=1):
    return root_of_unity(n, k)


def matmul(a, b):
    """Dense product of two ExactMatrix values, the reference for structural
    products."""
    return ExactMatrix(
        [sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b.entries)]
        for row in a.entries
    )


def matvec(m, v):
    """The dense product of an ExactMatrix with a vector."""
    return tuple(sum((a * x for a, x in zip(row, v)), ZERO) for row in m.entries)


def transpose(m):
    return ExactMatrix(zip(*m.entries))


def dense(g):
    """The monomial matrix g written out densely: column j holds
    zeta_N^phases[j] in row perm[j]."""
    entries = [[ZERO] * g.size for _ in range(g.size)]
    for j in range(g.size):
        entries[g.perm[j]][j] = zeta(g.N, g.phases[j])
    return ExactMatrix(entries)


def tau():
    # x_i -> zeta_8^-i x_i
    return MonomialMatrix.diagonal(tuple(-i % 8 for i in range(8)))


def sigma():
    # 8-cycle x_i -> x_{i+1}
    return MonomialMatrix(tuple((i + 1) % 8 for i in range(8)), (0,) * 8)


def sigma1():
    # cycle (0 7 2 1 4 3 6 5), the affine map i -> 5i+7 on Z/8
    return MonomialMatrix(tuple((5 * i + 7) % 8 for i in range(8)), (0,) * 8)


class TestExactMatrix:
    def test_identity_rank(self):
        identity = ExactMatrix([[1 if i == j else 0 for j in range(8)] for i in range(8)])
        assert identity.rank() == 8
        assert identity.right_kernel() == []

    def test_zero_kernel(self):
        m = ExactMatrix([[0] * 4 for _ in range(3)])
        assert m.rank() == 0
        kernel = m.right_kernel()
        assert len(kernel) == 4

    def test_dependent_rows_frozen(self):
        # second row is zeta_8^7 times the first, so rank 1.
        m = ExactMatrix([[ONE, zeta(8)], [zeta(8, 7), ONE]])
        assert m.rank() == 1
        kernel = m.right_kernel()
        assert len(kernel) == 1
        v = kernel[0]
        assert all(x.is_zero() for x in matvec(m, v))
        # kernel direction is (-zeta_8, 1) up to scale
        assert v[0] * ONE == -zeta(8) * v[1]

    def test_matmul_identity(self):
        # the dense product the structural tests compare against
        m = ExactMatrix([[ONE, zeta(8, 3)], [ZERO, zeta(4)]])
        identity = ExactMatrix([[ONE, ZERO], [ZERO, ONE]])
        assert matmul(m, identity) == m
        assert matmul(identity, m) == m

    def test_transpose_involution(self):
        m = ExactMatrix([[1, 2, 3], [4, 5, 6]])
        assert transpose(transpose(m)) == m
        assert transpose(m).rows == 3

    def test_rank_nullity_random(self):
        rng = random.Random(7)
        pool = [ZERO, ONE, -ONE, zeta(8), zeta(8, 3), zeta(4), CyclotomicNumber.from_rational(Fraction(1, 2))]
        for _ in range(25):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = ExactMatrix([[rng.choice(pool) for _ in range(cols)] for _ in range(rows)])
            kernel = m.right_kernel()
            assert m.rank() + len(kernel) == cols
            for v in kernel:
                assert all(x.is_zero() for x in matvec(m, v))
            assert m.rank() == transpose(m).rank()

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            ExactMatrix([[1, 2], [3]])
        with pytest.raises(ValueError):
            ExactMatrix([])


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
zeta8_entries = st.one_of(
    st.just(ZERO),
    st.lists(small_fractions, min_size=4, max_size=4).map(lambda c: CyclotomicNumber(3, c)),
)


@st.composite
def zeta8_matrices(draw):
    """Small matrices over Q(zeta_8) whose last row is a combination of the
    others, so both kernels are often nontrivial."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    m = [[draw(zeta8_entries) for _ in range(cols)] for _ in range(rows)]
    scalars = [draw(zeta8_entries) for _ in range(rows)]
    m.append([sum((s * row[j] for s, row in zip(scalars, m)), ZERO) for j in range(cols)])
    return ExactMatrix(m)


@given(zeta8_matrices())
@settings(max_examples=60, deadline=None)
def test_elimination_properties(m):
    elim = m.rref()
    assert matmul(ExactMatrix(elim.transform), m) == ExactMatrix(elim.reduced)
    assert ExactMatrix(elim.transform).rank() == m.rows  # T is invertible
    assert m.rref(transform=False).reduced == elim.reduced
    for i, c in enumerate(elim.pivots):
        assert [row[c] for row in elim.reduced] == [ONE if k == i else ZERO for k in range(m.rows)]
    assert all(v.is_zero() for row in elim.reduced[elim.rank :] for v in row)
    left = m.left_kernel()
    assert len(left) == m.rows - m.rank()
    for w in left:
        assert all(v.is_zero() for v in matvec(transpose(m), w))
    right = m.right_kernel()
    assert len(right) == m.cols - m.rank()
    for v in right:
        assert all(x.is_zero() for x in matvec(m, v))


class TestMonomialBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            MonomialMatrix((0, 0, 1, 2, 3, 4, 5, 6), (0,) * 8)
        with pytest.raises(ValueError):
            MonomialMatrix(tuple(range(8)), (0,) * 8, N=12)
        with pytest.raises(ValueError):
            MonomialMatrix(tuple(range(8)), (0,) * 7)

    def test_phases_reduced_mod_n(self):
        m = MonomialMatrix(tuple(range(8)), (8, 9, -1, 0, 0, 0, 0, 0))
        assert m.phases == (0, 1, 7, 0, 0, 0, 0, 0)

    def test_identity(self):
        e = MonomialMatrix.identity()
        assert e.is_identity()
        assert e * tau() == tau()
        assert tau() * e == tau()

    def test_compose_diagonal(self):
        t2 = tau() * tau()
        assert t2.perm == tuple(range(8))
        assert t2.phases == tuple(-2 * i % 8 for i in range(8))

    def test_compose_against_hand_table(self):
        # sigma1 squared must be the affine map i -> i+2, composed by hand.
        s1 = sigma1()
        table = [s1.perm[s1.perm[j]] for j in range(8)]
        assert (s1 * s1).perm == tuple(table) == tuple((i + 2) % 8 for i in range(8))

    def test_compose_mixed(self):
        # (tau * sigma)(x_j) = tau(x_{j+1}) = zeta^-(j+1) x_{j+1}
        ts = tau() * sigma()
        assert ts.perm == sigma().perm
        assert ts.phases == tuple(-(j + 1) % 8 for j in range(8))
        # (sigma * tau)(x_j) = zeta^-j x_{j+1}
        st = sigma() * tau()
        assert st.phases == tuple(-j % 8 for j in range(8))

    def test_inverse(self):
        for g in (tau(), sigma(), sigma1(), tau() * sigma1()):
            assert (g * g.inverse()).is_identity()
            assert (g.inverse() * g).is_identity()
        assert sigma().inverse().perm == tuple((i - 1) % 8 for i in range(8))
        assert tau().inverse().phases == tuple(i % 8 for i in range(8))

    def test_pow(self):
        s = sigma()
        assert (s ** 8).is_identity()
        assert s ** 3 == s * s * s
        assert s ** -1 == s.inverse()
        assert (tau() ** 0).is_identity()

    def test_mismatched_phase_order(self):
        a = MonomialMatrix(tuple(range(8)), (0,) * 8, N=8)
        b = MonomialMatrix(tuple(range(8)), (0,) * 8, N=4)
        with pytest.raises(ValueError):
            a * b

    def test_serialization_round_trip(self, tmp_path):
        # a generator record of a custom group file reads back the matrix
        # (as a group element, up to a scalar)
        g = tau() * sigma1()
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"generators": [g.to_dict()]}))
        expected = ProjectiveElement(g.perm, g.phases, g.N)
        assert load_custom_group(str(path)).group.generators == (expected,)
        path.write_text(json.dumps({"generators": [{"perm": [0]}]}))
        with pytest.raises(ValueError):
            load_custom_group(str(path))


class TestPointAction:
    def test_point_matrix_of_tau(self):
        # diagonal substitution with exponents -i transforms points with +i.
        pm = tau().point_matrix()
        assert pm.perm == tuple(range(8))
        assert pm.phases == tuple(i % 8 for i in range(8))

    def test_point_matrix_homomorphism(self):
        rng = random.Random(3)
        gens = [tau(), sigma(), sigma1()]
        for _ in range(50):
            g = gens[rng.randrange(3)]
            h = gens[rng.randrange(3)]
            w = g * h if rng.random() < 0.5 else (g * h * g.inverse())
            assert (w * g).point_matrix() == w.point_matrix() * g.point_matrix()

    def test_apply_matches_dense(self):
        rng = random.Random(11)
        pool = [ZERO, ONE, zeta(8, 5), CyclotomicNumber.from_rational(2)]
        for g in (tau(), sigma(), sigma1(), sigma() * tau()):
            p = [rng.choice(pool) for _ in range(8)]
            assert g.apply(p) == matvec(dense(g), p)

    def test_apply_composes_as_matrices(self):
        p = [CyclotomicNumber.from_rational(k) for k in (0, 1, 2, 3, 0, -3, -2, -1)]
        g, h = sigma1(), tau()
        assert (g * h).apply(p) == g.apply(h.apply(p))
        assert dense(g * h) == matmul(dense(g), dense(h))


class TestEigenspaces:
    def test_diagonal(self):
        comps = tau().eigenspaces()
        assert len(comps) == 8
        assert all(c.multiplicity == 1 for c in comps)
        values = {c.eigenvalue for c in comps}
        assert values == {zeta(8, -i) for i in range(8)}

    def test_eight_cycle(self):
        # sigma has the eight 8th roots of unity, eigenvector v_j = lambda^-j.
        comps = sigma().eigenspaces()
        assert len(comps) == 8
        for comp in comps:
            lam = comp.eigenvalue
            assert lam ** 8 == 1
            (vec,) = comp.basis
            assert vec == tuple(lam ** -j for j in range(8))

    def test_involution_multiplicities(self):
        s4 = sigma() ** 4
        comps = s4.eigenspaces()
        assert sorted(c.multiplicity for c in comps) == [4, 4]
        assert {c.eigenvalue for c in comps} == {ONE, -ONE}
        t4 = tau() ** 4
        comps = t4.eigenspaces()
        assert sorted(c.multiplicity for c in comps) == [4, 4]

    def test_reconstruction_random_words(self):
        rng = random.Random(19)
        gens = [tau(), sigma(), sigma1(),
                MonomialMatrix(tuple((i + 2) % 8 for i in range(8)), (0,) * 8),
                MonomialMatrix(tuple((3 * i + 1) % 8 for i in range(8)), (0,) * 8)]
        for _ in range(30):
            g = MonomialMatrix.identity()
            for _ in range(rng.randint(1, 5)):
                g = g * rng.choice(gens)
            matrix = dense(g)
            comps = g.eigenspaces()
            assert sum(c.multiplicity for c in comps) == 8
            seen = set()
            for comp in comps:
                assert comp.eigenvalue not in seen
                seen.add(comp.eigenvalue)
                for vec in comp.basis:
                    image = matvec(matrix, vec)
                    assert image == tuple(comp.eigenvalue * v for v in vec)

    def test_eigenvalues_are_the_eigenspaces_counted(self):
        # counted off the cycles, in the same order, for every t^a s^b and
        # t^a s1^b: the elements of G and G1
        for s in (sigma(), sigma1()):
            for a in range(8):
                for b in range(8):
                    g = tau() ** a * s ** b
                    expected = [(c.eigenvalue, c.multiplicity) for c in g.eigenspaces()]
                    assert g.eigenvalues() == expected

    def test_exponent_walk_across_phase_orders(self):
        # every phase order N, with random permutations whose cycle lengths L
        # keep N*L <= 64: each basis vector is an exact eigenvector and equals
        # the product recurrence v[c_{t+1}] = v[c_t] * lambda^-1 *
        # zeta_N^phases[c_t] from v[c_0] = 1, c_0 the cycle's smallest element
        rng = random.Random(34)
        for N in SUPPORTED_ORDERS:
            lengths = [L for L in (1, 2, 4, 8) if N * L <= 64]
            for _ in range(12):
                coords = rng.sample(range(8), 8)
                perm = [0] * 8
                while coords:
                    L = rng.choice([L for L in lengths if L <= len(coords)])
                    cycle, coords = coords[:L], coords[L:]
                    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                        perm[a] = b
                g = MonomialMatrix(perm, [rng.randrange(N) for _ in range(8)], N)
                matrix = dense(g)
                comps = g.eigenspaces()
                assert sum(c.multiplicity for c in comps) == 8
                for comp in comps:
                    lam_inv = comp.eigenvalue.inverse()
                    for vec in comp.basis:
                        assert matvec(matrix, vec) == tuple(comp.eigenvalue * v for v in vec)
                        start = min(j for j, v in enumerate(vec) if not v.is_zero())
                        expected = [ZERO] * 8
                        acc, c = ONE, start
                        while expected[c].is_zero():
                            expected[c] = acc
                            acc = acc * lam_inv * zeta(N, g.phases[c])
                            c = g.perm[c]
                        assert vec == tuple(expected)

    def test_unsupported_cycle_length(self):
        three_cycle = MonomialMatrix((1, 2, 0, 3, 4, 5, 6, 7), (0,) * 8)
        with pytest.raises(ValueError):
            three_cycle.eigenspaces()
        with pytest.raises(ValueError):
            three_cycle.eigenvalues()

    def test_component_record(self):
        comp = EigenspaceComponent(ONE, ((ONE, ZERO),))
        assert comp.multiplicity == 1
