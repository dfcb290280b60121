"""Exact linear algebra over the cyclotomic tower, and monomial matrices.

A monomial matrix is stored structurally as a permutation plus phase
exponents; products, inverses and eigen-decompositions never materialize a
dense matrix.  Dense ExactMatrix is reserved for rank/kernel computations on
Jacobians and Hessians, where exact Gaussian elimination is the whole point.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .cyclotomic import (
    ONE,
    SUPPORTED_ORDERS,
    ZERO,
    CyclotomicNumber,
    as_cyclotomic,
    root_of_unity,
)


class ExactMatrix:
    """Dense matrix of CyclotomicNumber entries with exact elimination."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple(tuple(as_cyclotomic(v) for v in row) for row in entries)
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows")
        self.rows = len(rows)
        self.cols = width
        self.entries = rows

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"

    def rref(self, transform: bool = True) -> "Elimination":
        """Gauss-Jordan elimination to reduced row echelon form R.  With
        transform, each row also carries its row of T, starting from the
        identity, so that T*M = R; rank and right_kernel skip it."""
        n = self.cols
        width = self.rows if transform else 0
        work = [
            list(row) + [ONE if j == i else ZERO for j in range(width)]
            for i, row in enumerate(self.entries)
        ]
        pivots = []
        r = 0
        for c in range(n):
            pivot_row = None
            for i in range(r, self.rows):
                if not work[i][c].is_zero():
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            work[r], work[pivot_row] = work[pivot_row], work[r]
            inv = work[r][c].inverse()
            work[r] = [v if v.is_zero() else v * inv for v in work[r]]
            for i in range(self.rows):
                if i == r or work[i][c].is_zero():
                    continue
                factor = work[i][c]
                work[i] = [a if b.is_zero() else a - factor * b for a, b in zip(work[i], work[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return Elimination(
            tuple(tuple(row[:n]) for row in work),
            tuple(pivots),
            tuple(tuple(row[n:]) for row in work) if transform else None,
        )

    def rank(self) -> int:
        return self.rref(transform=False).rank

    def right_kernel(self) -> list[tuple]:
        return self.rref(transform=False).right_kernel()

    def left_kernel(self) -> list[tuple]:
        return self.rref().left_kernel()


class Elimination(NamedTuple):
    """One elimination of a matrix M: the reduced row echelon form R, its
    pivot columns, and the invertible transform T with T*M = R (None when
    the elimination did not record it)."""

    reduced: tuple[tuple[CyclotomicNumber, ...], ...]
    pivots: tuple[int, ...]
    transform: tuple[tuple[CyclotomicNumber, ...], ...] | None

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def right_kernel(self) -> list[tuple]:
        """Basis of {v : M v = 0}, one vector per free column."""
        cols = len(self.reduced[0])
        basis = []
        for free in range(cols):
            if free in self.pivots:
                continue
            vec = [ZERO] * cols
            vec[free] = ONE
            for i, pc in enumerate(self.pivots):
                vec[pc] = -self.reduced[i][free]
            basis.append(tuple(vec))
        return basis

    def left_kernel(self) -> list[tuple]:
        """Basis of {w : w M = 0}: the rows of T past the rank, whose rows of
        R are zero."""
        return list(self.transform[self.rank :])


# -- monomial matrices -------------------------------------------------------


class EigenspaceComponent(NamedTuple):
    """One eigenvalue of a monomial matrix with a basis for its eigenspace."""

    eigenvalue: CyclotomicNumber
    basis: tuple[tuple[CyclotomicNumber, ...], ...]

    @property
    def multiplicity(self) -> int:
        return len(self.basis)


class MonomialMatrix:
    """Permutation-with-phases transformation on `size` coordinates.

    Substitution reading (pullback on polynomials):
        x_j  ->  zeta_N^phases[j] * x_perm[j]
    Matrix reading (action on column vectors, used by apply/eigenspaces):
        e_j  ->  zeta_N^phases[j] * e_perm[j]
    The product g * h composes substitutions with h applied first, which in
    the matrix reading is the ordinary matrix product.  Products, inverses
    and powers are built as type(self) through `_unchecked`, so a
    subclass's normalization (`_set`) holds.
    """

    __slots__ = ("size", "perm", "phases", "N")

    def __init__(self, perm: Sequence[int], phases: Sequence[int], N: int = 8):
        perm, phases = tuple(perm), tuple(phases)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"perm must be a permutation of 0..{len(perm) - 1}, got {perm}")
        if N not in SUPPORTED_ORDERS:
            raise ValueError(f"phase order N={N} not in supported tower {SUPPORTED_ORDERS}")
        if len(phases) != len(perm):
            raise ValueError("phases length must match perm length")
        self._set(perm, phases, N)

    @classmethod
    def _unchecked(cls, perm: tuple[int, ...], phases: Sequence[int], N: int):
        """A product, inverse, conjugate or point matrix of valid elements, unvalidated."""
        return object.__new__(cls)._set(perm, phases, N)

    def _set(self, perm: tuple[int, ...], phases: Sequence[int], N: int):
        """Store the fields, the phases reduced mod N; a subclass normalizes here."""
        object.__setattr__(self, "size", len(perm))
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "phases", tuple(p % N for p in phases))
        object.__setattr__(self, "N", N)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("MonomialMatrix is immutable")

    @classmethod
    def identity(cls, size: int = 8, N: int = 8) -> "MonomialMatrix":
        return cls(tuple(range(size)), (0,) * size, N)

    @classmethod
    def diagonal(cls, phases: Sequence[int], N: int = 8) -> "MonomialMatrix":
        return cls(tuple(range(len(tuple(phases)))), phases, N)

    def is_identity(self) -> bool:
        return self.perm == tuple(range(self.size)) and not any(self.phases)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialMatrix)
            and self.size == other.size
            and self.N == other.N
            and self.perm == other.perm
            and self.phases == other.phases
        )

    def __hash__(self):
        return hash((self.size, self.N, self.perm, self.phases))

    def __repr__(self):
        return f"{type(self).__name__}(perm={self.perm}, phases={self.phases}, N={self.N})"

    def _check_compatible(self, other: "MonomialMatrix"):
        if self.size != other.size:
            raise ValueError(f"size mismatch {self.size} vs {other.size}")
        if self.N != other.N:
            raise ValueError(f"phase order mismatch N={self.N} vs N={other.N}")

    def __mul__(self, other):
        """(g * h)(x_j) = g applied to h(x_j): perm composes, h's phase picks
        up g's phase at the permuted index."""
        if not isinstance(other, MonomialMatrix):
            return NotImplemented
        self._check_compatible(other)
        perm = tuple(self.perm[i] for i in other.perm)
        phases = [p + self.phases[i] for p, i in zip(other.phases, other.perm)]
        return type(self)._unchecked(perm, phases, self.N)

    def inverse(self) -> "MonomialMatrix":
        inv_perm = [0] * self.size
        for j, image in enumerate(self.perm):
            inv_perm[image] = j
        return type(self)._unchecked(tuple(inv_perm), [-self.phases[i] for i in inv_perm], self.N)

    def __pow__(self, exponent: int) -> "MonomialMatrix":
        base = self if exponent >= 0 else self.inverse()
        exponent = abs(exponent)
        result = type(self).identity(self.size, self.N)
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- point action --------------------------------------------------------

    def point_matrix(self) -> "MonomialMatrix":
        """The matrix moving point coordinates when this substitution acts on
        projective space: same permutation, negated phases (the
        inverse-transpose of the substitution matrix).  g -> g.point_matrix()
        is a group homomorphism."""
        return MonomialMatrix._unchecked(self.perm, [-p for p in self.phases], self.N)

    def apply(self, point: Sequence) -> tuple:
        """Matrix reading applied to a coordinate vector."""
        vec = [as_cyclotomic(v) for v in point]
        if len(vec) != self.size:
            raise ValueError("point length mismatch")
        out = [ZERO] * self.size
        for j, v in enumerate(vec):
            if v.is_zero():
                continue
            out[self.perm[j]] = root_of_unity(self.N, self.phases[j]) * v
        return tuple(out)

    # -- spectral data -------------------------------------------------------

    def cycles(self) -> list[list[int]]:
        """Permutation cycles, each starting at its smallest element, sorted."""
        seen = [False] * self.size
        out = []
        for start in range(self.size):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            j = self.perm[start]
            while j != start:
                cycle.append(j)
                seen[j] = True
                j = self.perm[j]
            out.append(cycle)
        return out

    def _cycle_eigenvalues(self):
        """The eigenvalues each cycle contributes, as (cycle, order, k) for
        zeta_order^k: a cycle of length L with total phase k0 gives
        zeta_{N*L}^(k0 + N*t), t = 0..L-1, each with one eigenvector
        supported on the cycle."""
        for cycle in self.cycles():
            length = len(cycle)
            total = sum(self.phases[c] for c in cycle) % self.N
            order = self.N * length
            if order not in SUPPORTED_ORDERS:
                raise ValueError(
                    f"eigenvalues of order {order} exceed the 2-power tower "
                    f"(cycle length {length}, phase order {self.N})"
                )
            for t in range(length):
                yield cycle, order, total + self.N * t

    def eigenvalues(self) -> list[tuple[CyclotomicNumber, int]]:
        """(eigenvalue, multiplicity) pairs in the order of `eigenspaces`,
        counted off the cycles without building eigenvectors."""
        counts = Counter(root_of_unity(order, k) for _, order, k in self._cycle_eigenvalues())
        return sorted(counts.items(), key=lambda item: item[0].sort_key())

    def eigenspaces(self) -> list[EigenspaceComponent]:
        """Exact eigen-decomposition, components merged by eigenvalue, in
        the order of `eigenvalues`.

        The eigenvector of eigenvalue zeta_order^k on a cycle c_0, c_1, ...
        has v[c_0] = 1 and v[c_{t+1}] = v[c_t] * zeta_order^-k *
        zeta_N^phases[c_t]: each coordinate is a root of unity, its exponent
        walked as an integer.  Multiplicities over the merged components
        always sum to `size`.
        """
        by_eigenvalue: dict[CyclotomicNumber, list[tuple]] = {}
        for cycle, order, k in self._cycle_eigenvalues():
            coords = [ZERO] * self.size
            e = 0
            for c in cycle:
                coords[c] = root_of_unity(order, e)
                e += self.phases[c] * (order // self.N) - k
            by_eigenvalue.setdefault(root_of_unity(order, k), []).append(tuple(coords))
        components = [
            EigenspaceComponent(lam, tuple(vectors))
            for lam, vectors in sorted(by_eigenvalue.items(), key=lambda item: item[0].sort_key())
        ]
        assert sum(c.multiplicity for c in components) == self.size
        return components

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {"perm": list(self.perm), "phases": list(self.phases), "N": self.N}
