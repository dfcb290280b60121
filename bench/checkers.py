"""Independent checkers for the quadcert benchmark.

Nothing here imports quadcert.  Rationals are `fractions.Fraction`; elements
of Q(zeta_2^m) are `Cyc` values, a power-basis vector of Fractions reduced by
x^(2^(m-1)) + 1.  The groups are rebuilt from the generator definitions in
the README, the pencil from its defining formula.

Run `python3 bench/checkers.py` for the self-test: every checker must reject
a planted wrong output.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

MAX_HEIGHT = 97


# -- Q(zeta_2^m) ---------------------------------------------------------------


class Cyc:
    """Element of Q(zeta_{2d}) as d coefficients of 1, zeta, ..., zeta^(d-1),
    d a power of two; zeta^d = -1."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = tuple(Fraction(v) for v in coeffs)

    @classmethod
    def rational(cls, value) -> "Cyc":
        return cls((value,))

    @classmethod
    def zeta(cls, n: int, k: int) -> "Cyc":
        """zeta_n^k for n a power of two."""
        d = max(n // 2, 1)
        e = k % n
        coeffs = [0] * d
        if e < d:
            coeffs[e] = 1
        else:
            coeffs[e - d] = -1
        return cls(coeffs)

    @classmethod
    def parse(cls, text: str) -> "Cyc":
        """Read the "[c0, c1, ...]@n" text form."""
        m = re.fullmatch(r"\s*\[([^\]]*)\]@(\d+)\s*", text)
        if not m:
            raise ValueError(f"malformed cyclotomic text {text!r}")
        n = int(m.group(2))
        if n < 2 or n & (n - 1):
            raise ValueError(f"order {n} is not a power of two")
        parts = [p for p in m.group(1).split(",") if p.strip()]
        if len(parts) != n // 2:
            raise ValueError(f"{text!r}: order {n} needs {n // 2} coefficients")
        return cls(Fraction(p.strip()) for p in parts)

    def lift(self, d: int) -> tuple:
        stride = d // len(self.c)
        out = [Fraction(0)] * d
        for i, v in enumerate(self.c):
            out[i * stride] = v
        return tuple(out)

    def _pair(self, other):
        d = max(len(self.c), len(other.c))
        return d, self.lift(d), other.lift(d)

    def __add__(self, other: "Cyc") -> "Cyc":
        _, a, b = self._pair(other)
        return Cyc(x + y for x, y in zip(a, b))

    def __neg__(self) -> "Cyc":
        return Cyc(-v for v in self.c)

    def __sub__(self, other: "Cyc") -> "Cyc":
        return self + (-other)

    def __mul__(self, other: "Cyc") -> "Cyc":
        d, a, b = self._pair(other)
        acc = [Fraction(0)] * d
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        if i + j < d:
                            acc[i + j] += x * y
                        else:
                            acc[i + j - d] -= x * y
        return Cyc(acc)

    def is_zero(self) -> bool:
        return not any(self.c)

    def __eq__(self, other) -> bool:
        return isinstance(other, Cyc) and (self - other).is_zero()

    __hash__ = None

    def inverse(self) -> "Cyc":
        """Through the tower: a * a(-zeta) lies in the subfield Q(zeta^2)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        d = len(self.c)
        if d == 1:
            return Cyc((1 / self.c[0],))
        conj = Cyc(-v if i % 2 else v for i, v in enumerate(self.c))
        norm = (self * conj).c
        half = Cyc(norm[0::2]).inverse()
        return conj * Cyc(half.lift(d // 2)[i // 2] if i % 2 == 0 else 0 for i in range(d))


ZERO = Cyc.rational(0)


# -- exact linear algebra -------------------------------------------------------


def echelon(rows, is_zero, inverse):
    """Row-reduce a list of rows in place; returns the pivot columns."""
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if not is_zero(rows[i][c])), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = inverse(rows[r][c])
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def q_echelon(rows):
    return echelon(rows, lambda v: v == 0, lambda v: 1 / v)


def q_rank(matrix) -> int:
    return len(q_echelon([list(map(Fraction, row)) for row in matrix]))


def q_right_kernel(matrix):
    rows = [list(map(Fraction, row)) for row in matrix]
    pivots = q_echelon(rows)
    ncols = len(matrix[0])
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][free]
        basis.append(vec)
    return basis


def transpose(m):
    return [list(col) for col in zip(*m)]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# -- the monomial groups --------------------------------------------------------

# generator = (perm, phases) with N = 8: e_j -> zeta_8^phases[j] e_perm[j]
GENERATORS = {
    "t": (tuple(range(8)), tuple(-i % 8 for i in range(8))),
    "s": (tuple((i + 1) % 8 for i in range(8)), (0,) * 8),
    "s1": (tuple((5 * i + 7) % 8 for i in range(8)), (0,) * 8),
    "s2": (tuple((i + 2) % 8 for i in range(8)), (0,) * 8),
    "s3": (tuple((3 * i + 1) % 8 for i in range(8)), (0,) * 8),
}
GROUP_GENERATORS = {"G": ("t", "s"), "G1": ("t", "s1"), "G2": ("t", "s2", "s3")}
ABELIAN = {"G": True, "G1": False, "G2": False}


def compose(g, h):
    """g after h, in the matrix reading."""
    (gp, gph), (hp, hph) = g, h
    return (
        tuple(gp[hp[j]] for j in range(8)),
        tuple((hph[j] + gph[hp[j]]) % 8 for j in range(8)),
    )


def projective(g):
    perm, ph = g
    return perm, tuple((p - ph[0]) % 8 for p in ph)


def closure(names):
    gens = [projective(GENERATORS[n]) for n in names]
    ident = (tuple(range(8)), (0,) * 8)
    seen = {ident}
    order = [ident]
    for x in order:
        for g in gens:
            y = projective(compose(x, g))
            if y not in seen:
                seen.add(y)
                order.append(y)
    return order


def standard_groups():
    return {name: closure(gens) for name, gens in GROUP_GENERATORS.items()}


def union_elements(groups) -> list:
    out, seen = [], set()
    for elements in groups.values():
        for g in elements:
            if g not in seen:
                seen.add(g)
                out.append(g)
    return out


def check_group(name: str, elements) -> list[str]:
    errors = []
    if len(set(elements)) != 64:
        errors.append(f"{name}: {len(set(elements))} projective elements, expected 64")
    abelian = all(
        projective(compose(a, b)) == projective(compose(b, a)) for a in elements for b in elements
    )
    if abelian != ABELIAN[name]:
        errors.append(f"{name}: abelian={abelian}, expected {ABELIAN[name]}")
    return errors


# -- the pencil -----------------------------------------------------------------


def pencil():
    """Quadric k as [((i, j), {y-exponents: Fraction})], i <= j:
    y1*y3*(x_k^2 + x_{k+4}^2) - y2^2*(x_{k+1}x_{k+7} + x_{k+3}x_{k+5})
    + (y1^2 + y3^2)*x_{k+2}x_{k+6}."""
    square = {(1, 0, 1): Fraction(1)}
    cross = {(0, 2, 0): Fraction(-1)}
    mixed = {(2, 0, 0): Fraction(1), (0, 0, 2): Fraction(1)}
    out = []
    for k in range(4):
        pairs = [(k, k, square), (k + 4, k + 4, square), (k + 1, k + 7, cross),
                 (k + 3, k + 5, cross), (k + 2, k + 6, mixed)]
        out.append([(tuple(sorted((i % 8, j % 8))), dict(c)) for i, j, c in pairs])
    return out


def planted():
    """The planted control: x_i * x_{i+4}, i = 0..3."""
    return [[((i, i + 4), {(0, 0, 0): Fraction(1)})] for i in range(4)]


def y_value(ypoly, y) -> Fraction:
    total = Fraction(0)
    for (a, b, c), coeff in ypoly.items():
        total += coeff * y[0] ** a * y[1] ** b * y[2] ** c
    return total


def quadric_matrices(system, y):
    """Symmetric rational A_k with q_k(x) = x^T A_k x."""
    mats = []
    for q in system:
        a = [[Fraction(0)] * 8 for _ in range(8)]
        for (i, j), ypoly in q:
            v = y_value(ypoly, y)
            if i == j:
                a[i][i] += v
            else:
                a[i][j] += v / 2
                a[j][i] += v / 2
        mats.append(a)
    return mats


def evaluate(system, y, x):
    """Values of the quadrics at Cyc coordinates x."""
    out = []
    for q in system:
        total = ZERO
        for (i, j), ypoly in q:
            total = total + Cyc.rational(y_value(ypoly, y)) * x[i] * x[j]
        out.append(total)
    return out


# -- per-triple checks ----------------------------------------------------------


def base_point(y):
    y1, y2, y3 = y
    return [Fraction(0), y1, y2, y3, Fraction(0), -y3, -y2, -y1]


def screen_errors(y) -> list[str]:
    y1, y2, y3 = y
    errors = []
    if 0 in (y1, y2, y3):
        errors.append(f"zero coordinate in {y}")
    if y1 * y3 in (y2 * y2, -y2 * y2):
        errors.append(f"y1*y3 = +/- y2^2 at {y}")
    if any(abs(v.numerator) > MAX_HEIGHT or v.denominator > MAX_HEIGHT for v in y):
        errors.append(f"height above {MAX_HEIGHT} at {y}")
    return errors


def orbit_classes(y, elements) -> int:
    """Projective classes of the base point's images under the point action
    e_j -> zeta_8^(-phases[j]) e_perm[j], coordinates as (rational, k) for
    r * zeta_8^k."""
    p = base_point(y)
    classes = set()
    for perm, ph in elements:
        img = [None] * 8
        for j in range(8):
            img[perm[j]] = (p[j], -ph[j] % 8)
        r0, k0 = next(c for c in img if c[0] != 0)
        key = []
        for r, k in img:
            if r == 0:
                key.append(None)
                continue
            r, k = r / r0, (k - k0) % 8
            if r < 0:
                r, k = -r, (k + 4) % 8
            key.append((r, k))
        classes.add(tuple(key))
    return len(classes)


def odp_errors(y, point=None) -> list[str]:
    """The base point (or a given rational point) is an ordinary double point:
    on all quadrics, Jacobian rank 3, kernel-combination Hessian restricted
    to the Jacobian kernel of rank 4."""
    p = base_point(y) if point is None else [Fraction(v) for v in point]
    mats = quadric_matrices(pencil(), y)
    values = [sum(p[i] * a[i][j] * p[j] for i in range(8) for j in range(8)) for a in mats]
    if any(values):
        return [f"point not on the variety at y={y}: {values}"]
    jac = [[2 * sum(a[i][j] * p[j] for j in range(8)) for i in range(8)] for a in mats]
    rank = q_rank(jac)
    if rank != 3:
        return [f"jacobian rank {rank} at y={y}, expected 3"]
    (lam,) = q_right_kernel(transpose(jac))
    hess = [[2 * sum(lam[k] * mats[k][i][j] for k in range(4)) for j in range(8)] for i in range(8)]
    basis = transpose(q_right_kernel(jac))  # 8 x 5
    restricted = matmul(matmul(transpose(basis), hess), basis)
    h_rank = q_rank(restricted)
    if h_rank != 4:
        return [f"restricted hessian rank {h_rank} at y={y}, expected 4"]
    return []


# -- ideal invariance -----------------------------------------------------------


def pullback(q, g):
    """Coefficients of q(zeta^ph[0] x_perm[0], ...) keyed by ((a, b), y-exponents)."""
    perm, ph = g
    out = {}
    for (i, j), ypoly in q:
        mono = tuple(sorted((perm[i], perm[j])))
        phase = Cyc.zeta(8, ph[i] + ph[j])
        for ym, c in ypoly.items():
            key = (mono, ym)
            out[key] = out.get(key, ZERO) + phase * Cyc.rational(c)
    return out


def span_solution(system, g):
    """For each k the exact coefficients M_k with q_k o g = sum_j M_kj q_j,
    or None when some pullback leaves the span (as a polynomial identity in
    x and y)."""
    columns = [{(mono, ym): Cyc.rational(c) for mono, yp in q for ym, c in yp.items()} for q in system]
    solution = []
    for q in system:
        target = pullback(q, g)
        keys = sorted(set(target).union(*columns))
        rows = [[col.get(key, ZERO) for col in columns] + [target.get(key, ZERO)] for key in keys]
        pivots = echelon(rows, Cyc.is_zero, Cyc.inverse)
        if 4 in pivots:
            return None
        row = [ZERO] * 4
        for r, pc in enumerate(pivots):
            row[pc] = rows[r][4]
        solution.append(row)
    return solution


MONOMIAL_WITNESS = re.compile(r"x[0-7](\^2|\*x[0-7])")


def invariance_errors(system, g, result) -> list[str]:
    """result: {"ok": bool, "matrix": [[text]] | None, "witness": text | None}.

    The verdict is recomputed exactly; a passing verdict must come with the
    unique matrix M of q_k o g = sum_j M_kj q_j, compared entry by entry."""
    truth = span_solution(system, g)
    if result["ok"] != (truth is not None):
        return [f"verdict {result['ok']} for {g}, exact expansion says {truth is not None}"]
    if result["ok"]:
        if not result.get("matrix") or len(result["matrix"]) != 4:
            return [f"passing verdict for {g} without a 4x4 matrix"]
        matrix = [[Cyc.parse(t) for t in row] for row in result["matrix"]]
        if any(len(row) != 4 or any(not (a == b) for a, b in zip(row, want))
               for row, want in zip(matrix, truth)):
            return [f"matrix for {g} differs from the exact solution"]
        return []
    witness = result.get("witness") or ""
    if not MONOMIAL_WITNESS.fullmatch(witness):
        return [f"failing verdict for {g} with witness {witness!r}, not a quadratic monomial"]
    return []


# -- fixed points ---------------------------------------------------------------


def witness_errors(element: dict, eigenvalue: str, witness, system, y=(1, 1, 1)) -> list[str]:
    """A fixed-point witness: nonzero, on the quadrics, and an eigenvector of
    the element's point matrix e_j -> zeta_N^(-phases[j]) e_perm[j]."""
    perm, ph, n = element["perm"], element["phases"], element["N"]
    v = [Cyc.parse(t) for t in witness]
    lam = Cyc.parse(eigenvalue)
    if len(v) != 8 or all(c.is_zero() for c in v):
        return [f"witness {witness} is not a nonzero point of P^7"]
    if any(not val.is_zero() for val in evaluate(system, y, v)):
        return [f"witness {witness} is off the variety"]
    image = [ZERO] * 8
    for j in range(8):
        image[perm[j]] = Cyc.zeta(n, -ph[j]) * v[j]
    if any(not (image[j] == lam * v[j]) for j in range(8)):
        return [f"witness {witness} is not a {eigenvalue}-eigenvector of {element}"]
    return []


# -- reports --------------------------------------------------------------------

TRIPLE_IN_TARGET = re.compile(r"^(G|G1|G2) @ \(([^)]*)\)$")


def campaign_failures(report, seed: int, groups) -> tuple[int, list[str]]:
    """Failed operations among the 20 records of `quadcert all --group all
    --specializations 3 --seed S --canonical`, and why.  A record fails when
    it is missing, does not pass, or its own checker disagrees."""
    errors = []
    config = report.get("config", {})
    if config.get("seed") != seed or config.get("specializations") != 3 or not config.get("canonical"):
        errors.append(f"config does not echo the run: {config}")
    orbit_targets = {}
    for r in report.get("checks", []):
        m = TRIPLE_IN_TARGET.match(r["target"]) if r["id"] == "orbit" else None
        if m:
            orbit_targets[r["target"]] = (m.group(1), tuple(Fraction(v) for v in m.group(2).split(",")))
    triples = sorted({y for _, y in orbit_targets.values()})
    if len(triples) != 3:
        errors.append(f"{len(triples)} distinct triples, expected 3")
    triple_why = {y: screen_errors(y) or odp_errors(y) for y in triples}
    expected = (
        [("groups", g) for g in GROUP_GENERATORS]
        + [("invariance", n) for n in GENERATORS]
        + [("orbit", t) for t in orbit_targets]
        + [("freeness", f"{g}[involutions]") for g in GROUP_GENERATORS]
    )
    by_key = {(r["id"], r["target"]): r for r in report.get("checks", [])}
    failed = 20 - min(len(expected), 20)  # orbit records that never appeared
    for key in expected:
        r = by_key.get(key)
        why = []
        if r is None:
            why.append("missing")
        elif r["verdict"] != "pass" or r["witnesses"] or r["timing"] != 0.0:
            why.append(f"verdict {r['verdict']} {r['witnesses']} timing {r['timing']}")
        elif key[0] == "groups":
            why += check_group(key[1], groups[key[1]])
        elif key[0] == "invariance":
            if span_solution(pencil(), GENERATORS[key[1]]) is None:
                why.append("generator does not preserve the ideal")
        elif key[0] == "orbit":
            name, y = orbit_targets[key[1]]
            why += triple_why[y]
            n = orbit_classes(y, groups[name])
            if n != 64:
                why.append(f"{n} orbit classes, expected 64")
        if why:
            failed += 1
            errors.append(f"{key}: {'; '.join(why)}")
    if len(by_key) != 20 or report.get("overall") != "pass":
        errors.append(f"{len(by_key)} records, overall {report.get('overall')}")
    return min(failed, 20), errors


def crossval_failures(report, seed: int) -> tuple[int, list[str]]:
    """Failed operations among the 3 records of `quadcert freeness --group all
    --scope all --specializations 3 --seed S --canonical`."""
    errors = []
    config = report.get("config", {})
    if config.get("seed") != seed or config.get("scope") != "all" or not config.get("canonical"):
        errors.append(f"config does not echo the run: {config}")
    by_key = {(r["id"], r["target"]): r for r in report.get("checks", [])}
    failed = 0
    for g in GROUP_GENERATORS:
        r = by_key.get(("freeness", f"{g}[all]"))
        if r is None or r["verdict"] != "pass" or r["witnesses"] or r["timing"] != 0.0:
            failed += 1
            errors.append(f"freeness {g}[all]: {r}")
    if len(by_key) != 3 or report.get("overall") != "pass":
        errors.append(f"{len(by_key)} records, overall {report.get('overall')}")
    return failed, errors


def sweep_op_errors(op) -> list[str]:
    """One sweep operation as written by bench/sweep.py."""
    if op.get("error"):
        return [f"{op['kind']} crashed: {op['error']}"]
    if op["kind"] in ("group", "signed", "stock"):
        g = (tuple(op["perm"]), tuple(op["phases"]))
        errors = invariance_errors(pencil(), g, op)
        if op["kind"] == "group" and not op["ok"]:
            errors.append(f"group element {g} fails invariance")
        if op["kind"] == "stock" and op.get("witness") != "x1*x7":
            errors.append(f"stock flip witness {op.get('witness')!r}, expected 'x1*x7'")
        return errors
    if op["kind"] == "planted":
        errors = []
        if op["verdict"] != "fixed-point-found" or not op["fixed"]:
            errors.append(f"planted control on {op['group']}: verdict {op['verdict']}")
        for f in op["fixed"]:
            errors += witness_errors(f["element"], f["eigenvalue"], f["witness"], planted())
        return errors
    return [f"unknown operation kind {op['kind']!r}"]


# -- self-test ------------------------------------------------------------------


def selftest() -> list[str]:
    """Plant one wrong output per checker; return the checkers that accepted it."""
    groups = standard_groups()
    good_y = (Fraction(-25, 3), Fraction(-17, 26), Fraction(-39, 46))
    flip = ((0, 1, 2, 3, 4, 5, 6, 7), (0, 0, 0, 0, 4, 4, 4, 4))
    t_matrix = [[f"[{'1' if i == j else '0'}]@2" for j in range(4)] for i in range(4)]
    ok_t = {"ok": True, "matrix": [[("[0, 0, 0, 0]@8" if i != j else
                                      {0: "[1]@2", 1: "[0, -1]@4", 2: "[-1]@2", 3: "[0, 1]@4"}[i]) for j in range(4)] for i in range(4)]}
    witness_ok = ["[1]@2"] + ["[0]@2"] * 7
    elem_t4 = {"perm": list(range(8)), "phases": [0, 4, 0, 4, 0, 4, 0, 4], "N": 8}
    cases = {
        "accepts a good triple": not screen_errors(good_y) and not odp_errors(good_y)
        and all(orbit_classes(good_y, els) == 64 for els in groups.values()),
        "rejects a triple on the bad locus": bool(screen_errors((Fraction(2), Fraction(2), Fraction(2)))),
        "rejects a triple above the height bound": bool(screen_errors((Fraction(98), Fraction(1), Fraction(3)))),
        "rejects a point off the variety": bool(odp_errors(good_y, [1, 0, 0, 0, 0, 0, 0, 0])),
        "rejects a short orbit": orbit_classes((Fraction(1), Fraction(2), Fraction(1)), groups["G"]) != 64,
        "rejects a wrong group order": bool(check_group("G", groups["G"][:32])),
        "rejects a wrong abelian claim": bool(check_group("G1", groups["G"])),
        "accepts the true t matrix": not invariance_errors(pencil(), GENERATORS["t"], ok_t),
        "rejects a wrong invariance matrix": bool(
            invariance_errors(pencil(), GENERATORS["t"], {"ok": True, "matrix": t_matrix})),
        "rejects a flipped verdict": bool(
            invariance_errors(pencil(), flip, {"ok": True, "matrix": t_matrix})),
        "rejects a flipped failing verdict": bool(invariance_errors(
            pencil(), ((0, 1, 2, 3, 4, 5, 6, 7), (0, 4, 0, 4, 0, 4, 0, 4)),
            {"ok": False, "witness": "x1*x7"})),
        "rejects a wrong stock witness": bool(sweep_op_errors(
            {"kind": "stock", "perm": flip[0], "phases": flip[1], "ok": False, "witness": "x0^2"})),
        "accepts a true fixed point": not witness_errors(elem_t4, "[1]@2", witness_ok, planted()),
        "rejects a witness off the variety": bool(
            witness_errors(elem_t4, "[1]@2", ["[1]@2"] * 8, planted())),
        "rejects a non-eigenvector witness": bool(
            witness_errors(elem_t4, "[-1]@2", witness_ok, planted())),
        "rejects a zero witness": bool(witness_errors(elem_t4, "[1]@2", ["[0]@2"] * 8, planted())),
        "rejects a failed campaign record": bool(campaign_failures(
            {"config": {"seed": 0, "specializations": 3, "canonical": True}, "overall": "fail",
             "checks": [{"id": "groups", "target": "G", "verdict": "fail", "witnesses": [],
                         "timing": 0.0}]}, 0, groups)[0]),
        "rejects a failed crossval record": bool(crossval_failures(
            {"config": {"seed": 0, "scope": "all", "canonical": True}, "overall": "pass",
             "checks": [{"id": "freeness", "target": "G[all]", "verdict": "inconclusive",
                         "witnesses": [], "timing": 0.0}]}, 0)[0]),
    }
    return [name for name, held in cases.items() if not held]


if __name__ == "__main__":
    failures = selftest()
    for name in failures:
        print(f"self-test FAILED: checker {name.split(' ', 1)[1]!r} did not hold")
    print("self-test:", "fail" if failures else "pass")
    sys.exit(1 if failures else 0)
