#!/usr/bin/env python3
"""Demonstrate that the certifier actually rejects things.

Two deliberately broken inputs: a diagonal sign flip that does not preserve
the quadric ideal, and a degenerate product system on which the order-2
diagonal element visibly fixes a point.  Both failures come with witnesses
that this script re-checks by plain evaluation.
"""

import sys
from fractions import Fraction

from quadcert.cyclotomic import CyclotomicNumber
from quadcert.groups import closure, make_tau
from quadcert.linalg import MonomialMatrix
from quadcert.variety import (
    build_quadrics,
    check_freeness,
    check_ideal_invariance,
    planted_control_system,
)


def main() -> int:
    system = build_quadrics()
    flip = MonomialMatrix.diagonal((0, 0, 0, 0, 4, 4, 4, 4))
    result = check_ideal_invariance(flip, system)
    print("control 1: diag(1,1,1,1,-1,-1,-1,-1) against the standard system")
    print(f"  invariant: {result.ok}")
    print(f"  witness monomial: {result.witness_text()}")
    assert not result.ok

    control = planted_control_system()
    y = (Fraction(1), Fraction(2), Fraction(3))
    group = closure([make_tau() ** 4], names=("t4",))
    report = check_freeness(
        group, control, [y], scope="involutions", group_name="control", screen=False
    )
    print("\ncontrol 2: product system x0*x4, x1*x5, x2*x6, x3*x7")
    print(f"  verdict: {report.verdict}")
    for element in report.specializations[0].elements:
        for comp in element.components:
            if comp.verdict != "fixed-point":
                continue
            coords = tuple(CyclotomicNumber.from_text(t) for t in comp.witness)
            values = [q.evaluate(coords) for q in control.specialized(y)]
            rendered = ", ".join(comp.witness)
            print(f"  fixed point in eigenvalue-{comp.eigenvalue} component: ({rendered})")
            print(f"  re-evaluated on all four quadrics: {[v.is_zero() for v in values]}")
            assert all(v.is_zero() for v in values)
    assert report.verdict == "fixed-point-found"
    print("\nboth controls fail exactly as they should")
    return 0


if __name__ == "__main__":
    sys.exit(main())
