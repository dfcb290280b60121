#!/usr/bin/env python3
"""Print the singular orbit at one parameter triple: every point with its
generating group element, Jacobian rank, and restricted Hessian rank."""

import argparse
import sys
from fractions import Fraction

from quadcert.groups import standard_group
from quadcert.variety import (
    build_quadrics,
    genericity_screen,
    singular_orbit,
    verify_odp,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--y", default="1,2,3", metavar="a/b,c/d,e/f")
    parser.add_argument("--group", choices=("G", "G1", "G2"), default="G")
    args = parser.parse_args(argv)

    y = tuple(Fraction(part) for part in args.y.split(","))
    if len(y) != 3:
        parser.error("--y needs three comma-separated rationals")
    system = build_quadrics()
    group = standard_group(args.group)
    reasons = genericity_screen(y, system, group)
    if reasons:
        print(f"y={args.y} fails the genericity screen: {'; '.join(reasons)}")
        return 2

    orbit = singular_orbit(system, group, y)
    context = system.context(y)
    print(f"orbit of the distinguished point under {args.group} at y=({args.y})")
    print(f"{len(orbit)} pairwise non-proportional points\n")
    all_pass = True
    for i, point in enumerate(orbit):
        cert = verify_odp(point.coordinates, context)
        all_pass &= cert.passes
        element = point.group_element.to_dict()
        print(
            f"{i:2d}  jac rank {cert.jacobian_rank}  hess rank "
            f"{cert.hessian_restricted_rank}  perm {element['perm']} "
            f"phases {element['phases']}"
        )
    print(f"\nall ordinary double points: {all_pass}")
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
