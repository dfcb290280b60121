"""Finite monomial matrix groups, taken modulo scalars.

A monomial matrix times a root of unity acts identically on projective
space, so group elements here are scalar-normalized representatives:
every phase vector is shifted to put 0 in slot 0.  Closures are computed
by breadth-first search over products with the generators, which keeps
element discovery order (and hence every downstream report) a pure
function of the generator list.

The five preset generators and the three standard groups built from them
are order-8 monomial matrices on eight coordinates:

    tau      diagonal, phase exponent -i at slot i
    sigma    the step-by-one coordinate cycle i -> i+1
    sigma1   the cycle i -> 5i+7
    sigma2   the double-step cycle i -> i+2
    sigma3   the cycle i -> 3i+1

    G  = <tau, sigma>          abelian of order 64
    G1 = <tau, sigma1>         nonabelian of order 64
    G2 = <tau, sigma2, sigma3> nonabelian of order 64
"""

from __future__ import annotations

import re
from collections import Counter, deque
from functools import cached_property
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from .linalg import MonomialMatrix

DEFAULT_CLOSURE_CAP = 10000

GROUP_NAMES = ("G", "G1", "G2")

#: Words are tokens NAME or NAME^k.  A generator name has GENERATOR_NAME's
#: form and is not one of IDENTITY_WORDS, which spell the identity.
GENERATOR_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
IDENTITY_WORDS = frozenset({"identity", "e", "1"})
_TOKEN = re.compile(rf"({GENERATOR_NAME.pattern})(?:\^(-?\d+))?")


class ProjectiveElement(MonomialMatrix):
    """A monomial matrix up to scalar: the phases are shifted to put 0 in
    slot 0, which absorbs exactly the root-of-unity scalars.  Every element,
    given or derived, is normalized as it is stored."""

    __slots__ = ()

    def _set(self, perm: tuple[int, ...], phases: Sequence[int], N: int):
        return super()._set(perm, [p - phases[0] for p in phases], N)


class FiniteGroup:
    """Closure of a generator list, elements kept in BFS discovery order."""

    def __init__(
        self,
        projective: bool,
        names: tuple[str, ...],
        generators: tuple[MonomialMatrix, ...],
        elements: tuple[MonomialMatrix, ...],
    ):
        object.__setattr__(self, "projective", projective)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "element_set", frozenset(elements))

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGroup is immutable")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: MonomialMatrix) -> bool:
        return g in self.element_set

    def identity(self) -> MonomialMatrix:
        return self.elements[0]

    @cached_property
    def element_orders(self) -> dict[MonomialMatrix, int]:
        """Each element's order, in element order.  One walk through the
        powers of g, of order k, settles every power: g^j has order
        k / gcd(j, k).  Built on first use and kept on the group, so it
        lives exactly as long as the group."""
        found: dict[MonomialMatrix, int] = {}
        for g in self.elements:
            if g not in found:
                powers = [g]
                while not powers[-1].is_identity():
                    powers.append(powers[-1] * g)
                k = len(powers)
                for j, p in enumerate(powers, 1):
                    found.setdefault(p, k // gcd(j, k))
        return {g: found[g] for g in self.elements}

    def evaluate_word(self, word: str) -> MonomialMatrix:
        """Evaluate a whitespace-separated word like "s1 t s1^-1" left to right."""
        named = dict(zip(self.names, self.generators))
        result = self.identity()
        for token in word.split():
            if token in IDENTITY_WORDS:
                continue
            match = _TOKEN.fullmatch(token)
            if not match:
                raise ValueError(f"bad word token {token!r}")
            name, exponent = match.groups()
            if name not in named:
                raise ValueError(f"unknown generator {name!r}")
            result = result * named[name] ** int(exponent or 1)
        return result

    def verify_relation(self, relation: str) -> bool:
        """Check an equation "word = word"; comparison is projective whenever
        the elements themselves are."""
        sides = relation.split("=")
        if len(sides) != 2:
            raise ValueError(f"relation needs exactly one '=': {relation!r}")
        return self.evaluate_word(sides[0]) == self.evaluate_word(sides[1])

    def subgroup(self, words: Sequence[str]) -> "FiniteGroup":
        """Closure of word values inside the same group, names kept as the
        word texts."""
        gens = [self.evaluate_word(w) for w in words]
        return closure(gens, projective=self.projective, names=tuple(words))


def conjugate(h: MonomialMatrix, g: MonomialMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The permutation and phases, not normalized, of h*g*h^-1: with
    i = h^-1.perm[j], that is j = h.perm[i], perm[j] = h.perm[g.perm[i]]
    and phases[j] = g.phases[i] + h.phases[g.perm[i]] - h.phases[i] mod N."""
    h._check_compatible(g)
    perm, phases = [0] * g.size, [0] * g.size
    for i, j in enumerate(h.perm):
        k = g.perm[i]
        perm[j], phases[j] = h.perm[k], (g.phases[i] + h.phases[k] - h.phases[i]) % g.N
    return tuple(perm), tuple(phases)


def centralizer_shift(h: MonomialMatrix, g: MonomialMatrix) -> int | None:
    """The d with h*g*h^-1 = zeta_N^d * g, or None when h centralizes no
    scalar multiple of g."""
    perm, phases = conjugate(h, g)
    shifts = {(p - q) % g.N for p, q in zip(phases, g.phases)}
    return shifts.pop() if perm == g.perm and len(shifts) == 1 else None


def conjugacy_classes(
    elements: Iterable[MonomialMatrix], conjugators: Sequence[MonomialMatrix]
) -> dict:
    """Map each given element, and each of its conjugates h*g*h^-1, to its
    class under the group the conjugators generate.  A class is walked once,
    by conjugating with the conjugators until nothing new appears; that group
    is never closed.  Conjugates are built as the element's own type."""
    classes: dict[MonomialMatrix, frozenset] = {}
    for g in elements:
        if g not in classes:
            members, frontier = {g}, [g]
            while frontier:
                c = frontier.pop()
                for h in conjugators:
                    if (d := type(c)._unchecked(*conjugate(h, c), c.N)) not in members:
                        members.add(d)
                        frontier.append(d)
            classes.update(dict.fromkeys(members, frozenset(members)))
    return classes


def closure(
    generators: Sequence[MonomialMatrix],
    projective: bool = True,
    names: Sequence[str] | None = None,
) -> FiniteGroup:
    """Breadth-first closure of the generators under composition.

    Finite groups are closed under multiplication alone, so no explicit
    inverses are needed.  DEFAULT_CLOSURE_CAP bounds the element count and
    raising past it signals a non-finite configuration (typically a wrong
    phase modulus).
    """
    kind = ProjectiveElement if projective else MonomialMatrix
    gens = [kind(m.perm, m.phases, m.N) for m in generators]
    if not gens:
        raise ValueError("need at least one generator")
    size, N = gens[0].size, gens[0].N
    for g in gens:
        if g.size != size or g.N != N:
            raise ValueError("generators must share size and phase modulus")
    if names is None:
        names = tuple(f"g{i}" for i in range(len(gens)))
    names = tuple(names)
    if len(names) != len(gens):
        raise ValueError("one name per generator")

    ident = kind.identity(size, N)
    seen = {ident}
    ordered = [ident]
    queue = deque([ident])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = x * g
            if y not in seen:
                if len(seen) >= DEFAULT_CLOSURE_CAP:
                    raise RuntimeError(f"closure exceeded cap of {DEFAULT_CLOSURE_CAP} elements")
                seen.add(y)
                ordered.append(y)
                queue.append(y)
    return FiniteGroup(projective, names, tuple(gens), tuple(ordered))


def order_spectrum(group: FiniteGroup) -> dict[int, int]:
    counts = Counter(group.element_orders.values())
    spectrum = dict(sorted(counts.items()))
    assert sum(spectrum.values()) == group.order
    assert spectrum.get(1) == 1
    return spectrum


def is_abelian(group: FiniteGroup) -> bool:
    """Decided by the generators: every element is a product of generators,
    so if they commute pairwise, so do any two elements."""
    gens = group.generators
    return all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1 :])


def involutions(group: FiniteGroup) -> tuple[MonomialMatrix, ...]:
    return tuple(g for g, k in group.element_orders.items() if k == 2)


def conjugation_exponent(g: MonomialMatrix, t: MonomialMatrix, identity: MonomialMatrix) -> int | None:
    """The exponent a with g t g^-1 = t^a, if one exists: the powers of t
    are walked until they return to the identity."""
    conj = type(t)._unchecked(*conjugate(g, t), t.N)
    power, a = identity, 0
    while conj != power:
        power, a = power * t, a + 1
        if power == identity:
            return None
    return a


# -- structure certification --------------------------------------------------


def _normality_witness(group: FiniteGroup, sub: FiniteGroup) -> str | None:
    """First conjugate g n g^-1, over the group's generators g and the
    subgroup's generators n, that leaves the subgroup N, or None.

    These generators decide normality.  If every g n g^-1 lies in N,
    conjugation by g maps N into N, and being injective on a finite set it
    maps N onto N.  g^-1 is a power of g, so conjugation by it preserves N
    too, and so does conjugation by any product of generators: every group
    element.  A failing witness names one generator pair."""
    for g in group.generators:
        for n in sub.generators:
            if type(n)._unchecked(*conjugate(g, n), n.N) not in sub:
                return f"conjugate of {n.to_dict()} by {g.to_dict()} leaves the subgroup"
    return None


#: The keys certify_structure reads from each claim type, with the type of
#: each value: a word is a str, a subgroup a list of words, a spectrum maps
#: orders (digit strings in a file) to counts.  OPTIONAL_CLAIM_KEYS may be left out.
CLAIM_KEYS = {
    "order": {"value": int},
    "abelian": {"value": bool},
    "relation": {"relation": str},
    "spectrum": {"value": dict[str, int]},
    "spectrum_of_subgroup": {"subgroup": list[str], "value": dict[str, int]},
    "normal_subgroup": {"subgroup": list[str]},
    "quotient_order": {"subgroup": list[str], "value": int},
    "semidirect_exponent": {"normal_generator": str, "conjugator": str},
}
OPTIONAL_CLAIM_KEYS = {"semidirect_exponent": {"value": int}}


def certify_structure(group: FiniteGroup, claims: Sequence[dict]) -> tuple[str | None, ...]:
    """Check a list of tagged claim records against the group: for each
    claim, in order, the witness of its failure, or None when it holds.

    Claim types are those of CLAIM_KEYS (custom group files with any other
    type are rejected on loading); a claim of another type fails.
    Failures are reported with witnesses, never raised.
    """
    return tuple(_claim_witness(group, claim) for claim in claims)


def _claim_witness(group: FiniteGroup, claim: dict) -> str | None:
    kind = claim.get("type")
    if kind == "order":
        return None if group.order == claim["value"] else f"actual order {group.order}"
    if kind == "abelian":
        abelian = is_abelian(group)
        if abelian == claim["value"]:
            return None
        return f"group is {'abelian' if abelian else 'nonabelian'}"
    if kind == "relation":
        text = claim["relation"]
        return None if group.verify_relation(text) else f"sides differ: {text}"
    if kind in ("spectrum", "spectrum_of_subgroup"):
        sub = group.subgroup(claim["subgroup"]) if kind == "spectrum_of_subgroup" else group
        actual = order_spectrum(sub)
        return None if actual == claim["value"] else f"actual spectrum {actual}"
    if kind == "normal_subgroup":
        return _normality_witness(group, group.subgroup(claim["subgroup"]))
    if kind == "quotient_order":
        quotient = group.order // group.subgroup(claim["subgroup"]).order  # exact, by Lagrange
        return None if quotient == claim["value"] else f"actual quotient order {quotient}"
    if kind == "semidirect_exponent":
        # an exponent realizing the extension must exist, and equal a stated value
        t = group.evaluate_word(claim["normal_generator"])
        g = group.evaluate_word(claim["conjugator"])
        found = conjugation_exponent(g, t, group.identity())
        if found is None:
            return "conjugate is not a power of the normal generator"
        return None if claim.get("value", found) == found else f"exponent found {found}"
    return f"unknown claim type {kind!r}"


class InvolutionCertificate(NamedTuple):
    involution_count: int
    all_in_subgroup: bool
    subgroup_contained_in_ambient: bool
    outside_subgroup_witness: str | None
    outside_ambient_witness: str | None


def involution_localization(
    group: FiniteGroup, subgroup_words: Sequence[str], ambient: FiniteGroup
) -> InvolutionCertificate:
    """Certify that every order-2 element of the group lies in the subgroup
    generated by the given words, and that this subgroup sits inside the
    ambient group."""
    sub = group.subgroup(subgroup_words)
    invs = involutions(group)
    outside_sub = [g for g in invs if g not in sub]
    outside_amb = [g for g in sub.elements if g not in ambient]
    return InvolutionCertificate(
        involution_count=len(invs),
        all_in_subgroup=not outside_sub,
        subgroup_contained_in_ambient=not outside_amb,
        outside_subgroup_witness=(
            f"involution outside subgroup: {outside_sub[0].to_dict()}" if outside_sub else None
        ),
        outside_ambient_witness=(
            f"subgroup element outside ambient: {outside_amb[0].to_dict()}" if outside_amb else None
        ),
    )


# -- presets ------------------------------------------------------------------


def make_tau() -> MonomialMatrix:
    return MonomialMatrix.diagonal(tuple(-i % 8 for i in range(8)))


def make_sigma() -> MonomialMatrix:
    return MonomialMatrix(tuple((i + 1) % 8 for i in range(8)), (0,) * 8)


def make_sigma1() -> MonomialMatrix:
    return MonomialMatrix(tuple((5 * i + 7) % 8 for i in range(8)), (0,) * 8)


def make_sigma2() -> MonomialMatrix:
    return MonomialMatrix(tuple((i + 2) % 8 for i in range(8)), (0,) * 8)


def make_sigma3() -> MonomialMatrix:
    return MonomialMatrix(tuple((3 * i + 1) % 8 for i in range(8)), (0,) * 8)


def standard_generators(name: str) -> tuple[tuple[str, ...], tuple[MonomialMatrix, ...]]:
    if name == "G":
        return ("t", "s"), (make_tau(), make_sigma())
    if name == "G1":
        return ("t", "s1"), (make_tau(), make_sigma1())
    if name == "G2":
        return ("t", "s2", "s3"), (make_tau(), make_sigma2(), make_sigma3())
    raise ValueError(f"unknown group name {name!r}; expected one of {GROUP_NAMES}")


def standard_group(name: str) -> FiniteGroup:
    names, gens = standard_generators(name)
    return closure(gens, names=names)


def standard_claims(name: str) -> list[dict]:
    """The structural facts each standard group is certified against."""
    if name == "G":
        return [
            {"type": "order", "value": 64},
            {"type": "abelian", "value": True},
            {"type": "relation", "relation": "t^8 = identity"},
            {"type": "relation", "relation": "s^8 = identity"},
            {"type": "relation", "relation": "s t = t s"},
        ]
    if name == "G1":
        return [
            {"type": "order", "value": 64},
            {"type": "abelian", "value": False},
            {"type": "normal_subgroup", "subgroup": ["t"]},
            {"type": "quotient_order", "subgroup": ["t"], "value": 8},
            {
                "type": "semidirect_exponent",
                "normal_generator": "t",
                "conjugator": "s1",
                "value": 5,
            },
            {"type": "relation", "relation": "s1^8 = identity"},
        ]
    if name == "G2":
        return [
            {"type": "order", "value": 64},
            {"type": "abelian", "value": False},
            {"type": "normal_subgroup", "subgroup": ["t"]},
            {
                "type": "spectrum_of_subgroup",
                "subgroup": ["s2", "s3"],
                "value": {1: 1, 2: 1, 4: 6},
            },
            {"type": "relation", "relation": "s3 s2 s3^-1 = s2^-1"},
        ]
    raise ValueError(f"unknown group name {name!r}; expected one of {GROUP_NAMES}")


def localization_subgroup_words(name: str) -> tuple[str, ...]:
    """Generator words for the subgroup that is claimed to hold every
    involution of the named group."""
    if name == "G":
        return ("t", "s^4")
    if name == "G1":
        return ("t", "s1^4")
    if name == "G2":
        return ("t", "s2^2")
    raise ValueError(f"unknown group name {name!r}; expected one of {GROUP_NAMES}")
