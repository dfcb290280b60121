"""The `sweep` workload: one in-process run of quadcert's public checks on
inputs where about half of the right answers are certified failures.

    python3 bench/sweep.py --seed S --out PATH

One operation per check call, in this order:
  - check_ideal_invariance on the 128 distinct projective elements of
    G u G1 u G2 (each should pass with a 4x4 matrix);
  - check_ideal_invariance on SIGNED seeded signed permutation matrices and
    the stock flip diag(1,1,1,1,-1,-1,-1,-1) (most should fail, with a
    witness monomial);
  - check_freeness(scope="all", screen=False) of G, G1 and G2 on the planted
    control system at a seeded triple (each should find fixed points).

The group elements come from the benchmark's own closure, so quadcert only
receives the generated inputs.  Results go to PATH as JSON for the checkers.
"""

from __future__ import annotations

import argparse
import json
import random
import traceback
from fractions import Fraction

from checkers import standard_groups, union_elements

SIGNED = 127
STOCK_FLIP = ((0, 1, 2, 3, 4, 5, 6, 7), (0, 0, 0, 0, 4, 4, 4, 4))


def make_inputs(seed: int):
    rng = random.Random(seed)
    signed = []
    while len(signed) < SIGNED:
        g = (tuple(rng.sample(range(8), 8)), tuple(rng.choice((0, 4)) for _ in range(8)))
        if g not in signed and g != STOCK_FLIP:
            signed.append(g)
    y = tuple(Fraction(rng.randint(1, 97) * rng.choice((1, -1)), rng.randint(1, 97)) for _ in range(3))
    return union_elements(standard_groups()), signed, y


def run(seed: int) -> list[dict]:
    from quadcert.groups import standard_group
    from quadcert.linalg import MonomialMatrix
    from quadcert.variety import (
        build_quadrics,
        check_freeness,
        check_ideal_invariance,
        planted_control_system,
    )

    elements, signed, y = make_inputs(seed)
    system = build_quadrics()
    ops = []
    jobs = [("group", g) for g in elements] + [("signed", g) for g in signed] + [("stock", STOCK_FLIP)]
    for kind, (perm, phases) in jobs:
        op = {"kind": kind, "perm": list(perm), "phases": list(phases), "error": None}
        try:
            result = check_ideal_invariance(MonomialMatrix(perm, phases, 8), system)
            op["ok"] = result.ok
            op["witness"] = result.witness_text()
            op["matrix"] = (
                [[c.to_text() for c in row] for row in result.matrix] if result.matrix else None
            )
        except Exception:  # a crash is a failed operation, recorded and counted
            op["error"] = traceback.format_exc(limit=3)
        ops.append(op)
    control = planted_control_system()
    for name in ("G", "G1", "G2"):
        op = {"kind": "planted", "group": name, "y": [str(v) for v in y], "error": None}
        try:
            report = check_freeness(
                standard_group(name), control, [y], scope="all", group_name=name, screen=False
            )
            op["verdict"] = report.verdict
            op["fixed"] = [
                {"element": e.element, "eigenvalue": c.eigenvalue, "witness": list(c.witness)}
                for spec in report.specializations
                for e in spec.elements
                for c in e.components
                if c.verdict == "fixed-point"
            ]
        except Exception:  # a crash is a failed operation, recorded and counted
            op["error"] = traceback.format_exc(limit=3)
        ops.append(op)
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    ops = run(args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "ops": ops}, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
