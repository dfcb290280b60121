"""Command-line entry point.

Subcommands select which checks run; flags select the group, the parameter
triples, and where the JSON report goes.  A config file can carry the same
fields as the flags, with explicit flags taking precedence.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import reporting
from .reporting import CHECK_IDS, GROUP_CHOICES, VerificationConfig, render_report

_SUBCOMMANDS = (
    ("groups", "certify group orders, structure claims, and involution localization"),
    ("invariance", "certify that each generator maps the quadric ideal to itself"),
    ("orbit", "certify the singular orbit: 64 distinct points, all ordinary double points"),
    ("freeness", "certify that no non-identity element fixes a point of the variety"),
    ("all", "run every check in dependency order"),
)

# the config file's shape (`reporting.check_shape`), every key optional: the
# flag names with the flags' value types; each key is also the flag's dest and
# the VerificationConfig field it sets, and the subcommand itself is not a key
_CONFIG_KEYS = {
    "group": str,
    "y": list[str],
    "specializations": int,
    "seed": int,
    "scope": str,
    "json": str | None,
    "custom_group": str | None,
    "custom_quadrics": str | None,
    "canonical": bool,
}

def parse_triple(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated rationals, got {text!r}")
    if not text.isascii():  # Fraction would read other scripts' digits
        raise ValueError(f"bad rational in {text!r}: numbers are written in ASCII digits")
    try:
        return tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational in {text!r}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadcert",
        description="Exact certification of monomial group actions on an "
        "intersection of four quadrics in P^7.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--group", choices=GROUP_CHOICES, default=None)
        p.add_argument(
            "--y",
            action="append",
            metavar="a/b,c/d,e/f",
            help="explicit parameter triple; repeatable",
        )
        p.add_argument("--specializations", type=int, default=None, metavar="N")
        p.add_argument("--seed", type=int, default=None, metavar="S")
        p.add_argument("--scope", choices=("involutions", "all"), default=None)
        p.add_argument("--json", default=None, metavar="PATH", help="write the JSON report here")
        p.add_argument("--custom-group", default=None, metavar="PATH")
        p.add_argument("--custom-quadrics", default=None, metavar="PATH")
        p.add_argument(
            "--canonical",
            action="store_const",
            const=True,
            default=None,
            help="zero out timings so identical runs serialize identically",
        )
        p.add_argument("--config", default=None, metavar="PATH", help="JSON config file")
    return parser


def assemble_config(args: argparse.Namespace) -> VerificationConfig:
    """Merge precedence: explicit flag, then config file, then the
    defaults of VerificationConfig."""
    shape = {f"{k}?": v for k, v in _CONFIG_KEYS.items()}
    values = reporting.read_input(args.config, shape, "config", dict) if args.config else {}
    flags = {k: getattr(args, k) for k in _CONFIG_KEYS if getattr(args, k) is not None}
    checks = CHECK_IDS if args.command == "all" else (args.command,)
    try:
        return _config(checks, values | flags)
    except ValueError as exc:
        _config(checks, flags)  # a refusal of the flags and defaults alone names no file
        raise ValueError(f"{args.config}: {exc}") from None


def _config(checks: tuple[str, ...], values: dict) -> VerificationConfig:
    if "y" in values:
        values = values | {"y": tuple(parse_triple(t) for t in values["y"])}
    return VerificationConfig(checks, **values)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = assemble_config(args)
    except (OSError, ValueError) as exc:
        print(f"quadcert: bad configuration: {exc}", file=sys.stderr)
        return 2
    try:
        report = reporting.run(config)
    except (OSError, ValueError) as exc:
        print(f"quadcert: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash is never a verdict: 1 means a certified failure
        print(f"quadcert: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.__excepthook__(type(exc), exc, exc.__traceback__)
        return 3
    print(render_report(report, "text"), end="")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
