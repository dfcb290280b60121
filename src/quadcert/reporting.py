"""Campaign orchestration: run selected checks against a group selection and
emit a machine-readable report with per-check verdicts and witnesses."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, get_args, get_origin

from . import __version__
from .groups import (
    CLAIM_KEYS,
    GENERATOR_NAME,
    IDENTITY_WORDS,
    OPTIONAL_CLAIM_KEYS,
    FiniteGroup,
    certify_structure,
    closure,
    involution_localization,
    localization_subgroup_words,
    standard_claims,
    standard_generators,
    standard_group,
)
from .linalg import MonomialMatrix
from .variety import (
    QuadricSystem,
    build_quadrics,
    check_freeness,
    check_orbit,
    draw_specializations,
    genericity_screen,
)

CHECK_IDS = ("groups", "invariance", "orbit", "freeness")
GROUP_CHOICES = ("G", "G1", "G2", "all", "custom")


def _render_triple(y) -> str:
    return ",".join(str(Fraction(c)) for c in y)


@dataclass(frozen=True)
class VerificationConfig:
    """Everything a campaign needs; the report echoes it back verbatim so a
    reader can reproduce the run."""

    checks: tuple[str, ...]
    group: str = "all"
    y_triples: tuple[tuple[Fraction, Fraction, Fraction], ...] = ()
    specializations: int = 3
    seed: int = 0
    scope: str = "involutions"
    output_path: str | None = None
    custom_group_path: str | None = None
    custom_quadrics_path: str | None = None
    canonical: bool = False

    def __post_init__(self):
        bad = [c for c in self.checks if c not in CHECK_IDS]
        if bad:
            raise ValueError(f"unknown check ids {bad}; expected among {CHECK_IDS}")
        if self.group not in GROUP_CHOICES:
            raise ValueError(f"group must be one of {GROUP_CHOICES}, not {self.group!r}")
        if (self.group == "custom") != bool(self.custom_group_path):
            raise ValueError("group 'custom' and a custom group file must be given together")
        if self.scope not in ("involutions", "all"):
            raise ValueError(f"scope must be 'involutions' or 'all', not {self.scope!r}")
        if not self.y_triples and self.specializations < 1:
            raise ValueError("need at least one specialization when no explicit triples given")
        for y in self.y_triples:
            if len(y) != 3:
                raise ValueError(f"parameter triple needs 3 entries, got {y!r}")

    def to_dict(self) -> dict:
        return {
            "checks": list(self.checks),
            "group": self.group,
            "y": [_render_triple(y) for y in self.y_triples],
            "specializations": self.specializations,
            "seed": self.seed,
            "scope": self.scope,
            "custom_group": self.custom_group_path,
            "custom_quadrics": self.custom_quadrics_path,
            "canonical": self.canonical,
        }


class CheckRecord(NamedTuple):
    check_id: str
    target: str
    witnesses: tuple[str, ...] = ()
    timing: float = 0.0
    inconclusive: bool = False

    @property
    def verdict(self) -> str:
        """A record needing a triple the screen rejected is inconclusive;
        otherwise it fails exactly when it carries witnesses."""
        if self.inconclusive:
            return "inconclusive"
        return "fail" if self.witnesses else "pass"

    def to_dict(self, canonical: bool = False) -> dict:
        return {
            "id": self.check_id,
            "target": self.target,
            "verdict": self.verdict,
            "witnesses": list(self.witnesses),
            "timing": 0.0 if canonical else round(self.timing, 6),
        }


class VerificationReport(NamedTuple):
    version: str
    config: VerificationConfig
    checks: tuple[CheckRecord, ...]

    @property
    def overall(self) -> str:
        # fail dominates inconclusive dominates pass; empty list is a pass
        verdicts = {r.verdict for r in self.checks}
        if "fail" in verdicts:
            return "fail"
        if "inconclusive" in verdicts:
            return "inconclusive"
        return "pass"

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "inconclusive": 2}[self.overall]

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "config": self.config.to_dict(),
            "checks": [r.to_dict(canonical=self.config.canonical) for r in self.checks],
            "overall": self.overall,
        }


def render_report(report: VerificationReport, format: str = "json") -> str:
    if format == "json":
        return json.dumps(report.to_dict(), indent=2) + "\n"
    if format == "text":
        lines = [f"verification report (tool version {report.version})"]
        lines.append(f"{'check':<12} {'target':<34} {'verdict':<13} {'time':>9}")
        lines.append("-" * 70)
        for r in report.checks:
            timing = r.to_dict(report.config.canonical)["timing"]
            lines.append(f"{r.check_id:<12} {r.target:<34} {r.verdict:<13} {timing:>8.2f}s")
            for w in r.witnesses:
                lines.append(f"    {w}")
        lines.append("-" * 70)
        lines.append(f"overall: {report.overall}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"format must be 'json' or 'text', not {format!r}")


def write_report(report: VerificationReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_report(report, "json"))


# -- custom input files -------------------------------------------------------


class GroupSelection(NamedTuple):
    """One group to run checks against, with its certification claims; its
    named generators are `group.names` and `group.generators`."""

    label: str
    group: FiniteGroup
    claims: tuple[dict, ...]
    localization_words: tuple[str, ...] | None


_TYPE_NAMES = {
    int: "an integer",
    bool: "true or false",
    str: "a string",
    str | None: "a string or null",
    dict: "an object mapping orders to counts",
    list[str]: "a list of words",
}


def _has_type(value, expected) -> bool:
    """isinstance for the value types of CLAIM_KEYS: list[T] checks every
    item, and a bool is not an int."""
    if get_origin(expected) is list:
        (item,) = get_args(expected)
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    if expected is int and isinstance(value, bool):
        return False
    return isinstance(value, expected)


def load_custom_group(path: str) -> GroupSelection:
    """Read a group description: generator matrices plus optional claims.

    Expected shape: {"name": str?, "generators": [{"name": str?, "perm": [..],
    "phases": [..], "N": int}, ..], "claims": [..]?, "localization": [word, ..]?}.
    Claim records take the built-in groups' tagged format, and any other key
    is refused; spectrum values arrive with string keys and become ints.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return _custom_group(data)
    except (RuntimeError, ValueError) as exc:
        # the element cap, generators of different phase moduli, or any
        # other defect: the input is unusable, not a failed check
        raise ValueError(f"{path}: {exc}") from None


def _custom_group(data) -> GroupSelection:
    if not isinstance(data, dict):
        raise ValueError("custom group must be a JSON object")
    if unknown := set(data) - {"name", "generators", "claims", "localization"}:
        raise ValueError(f"unknown top-level key {min(unknown)!r}")
    raw_gens = data.get("generators")
    if not raw_gens:
        raise ValueError("no generators")
    if not isinstance(raw_gens, list) or not all(isinstance(rec, dict) for rec in raw_gens):
        raise ValueError("generators must be a list of objects")
    names = []
    matrices = []
    for i, rec in enumerate(raw_gens):
        if unknown := set(rec) - {"name", "perm", "phases", "N"}:
            raise ValueError(f"generators[{i}] has the unknown key {min(unknown)!r}")
        name = rec.get("name", f"g{i}")
        if not (isinstance(name, str) and GENERATOR_NAME.fullmatch(name)) or name in IDENTITY_WORDS:
            raise ValueError(
                f"generator name {name!r} must match {GENERATOR_NAME.pattern}"
                f" and not be one of {sorted(IDENTITY_WORDS)}"
            )
        names.append(name)
        matrices.append(MonomialMatrix.from_dict(rec))
        if matrices[-1].size != 8:
            raise ValueError(f"generator {name!r} must permute 8 coordinates")
    if len(set(names)) != len(names):
        raise ValueError("duplicate generator names")
    raw_claims = data.get("claims", [])
    if not isinstance(raw_claims, list) or not all(isinstance(c, dict) for c in raw_claims):
        raise ValueError("claims must be a list of objects")
    claims = []
    for claim in raw_claims:
        claim = dict(claim)
        kind = claim.get("type")
        if not isinstance(kind, str) or kind not in CLAIM_KEYS:
            raise ValueError(f"unknown claim type {kind!r}")
        keys = {**CLAIM_KEYS[kind], **OPTIONAL_CLAIM_KEYS.get(kind, {})}
        if unknown := set(claim) - {"type", *keys}:
            raise ValueError(f"{kind} claim has the unknown key {min(unknown)!r}")
        for key in CLAIM_KEYS[kind]:
            if key not in claim:
                raise ValueError(f"{kind} claim lacks the key {key!r}")
        for key, expected in keys.items():
            if key in claim and not _has_type(claim[key], expected):
                raise ValueError(f"{kind} claim value of {key!r} must be {_TYPE_NAMES[expected]}")
        if "subgroup" in keys and not claim["subgroup"]:
            raise ValueError(f"{kind} claim value of 'subgroup' must name at least one word")
        if kind in ("spectrum", "spectrum_of_subgroup"):
            value = claim["value"]
            if not all(str(k).isdigit() and _has_type(v, int) for k, v in value.items()):
                raise ValueError(f"{kind} claim value must map orders to counts")
            claim["value"] = {int(k): v for k, v in value.items()}
        claims.append(claim)
    words = data.get("localization")
    if words is not None and not (
        isinstance(words, list) and words and all(isinstance(w, str) for w in words)
    ):
        raise ValueError("localization must be a non-empty list of words")
    if words and matrices[0].N != 8:  # G's modulus: elements with another N never compare equal
        raise ValueError(f"localization needs phase modulus N = 8, not N = {matrices[0].N}")
    label = data.get("name", "custom")
    if not isinstance(label, str):
        raise ValueError("name must be a string")
    group = closure(matrices, projective=True, names=tuple(names))
    # every word is evaluated here, so no subcommand meets a bad one later
    checked = list(words or ())
    for claim in claims:
        if claim["type"] == "relation":
            group.verify_relation(claim["relation"])  # one '=', both sides
        checked += claim.get("subgroup", [])
        checked += [claim[k] for k in ("normal_generator", "conjugator") if k in claim]
    for word in checked:
        group.evaluate_word(word)
    return GroupSelection(
        label=label,
        group=group,
        claims=tuple(claims),
        localization_words=tuple(words) if words else None,
    )


def load_custom_quadrics(path: str) -> QuadricSystem:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data.get("quadrics", data)
    try:
        return QuadricSystem.from_records(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _standard_selection(name: str) -> GroupSelection:
    return GroupSelection(
        label=name,
        group=standard_group(name),
        claims=tuple(standard_claims(name)),
        localization_words=localization_subgroup_words(name),
    )


def resolve_selections(config: VerificationConfig) -> list[GroupSelection]:
    if config.group == "custom":
        return [load_custom_group(config.custom_group_path)]
    if config.group == "all":
        return [_standard_selection(n) for n in ("G", "G1", "G2")]
    return [_standard_selection(config.group)]


def resolve_system(config: VerificationConfig) -> QuadricSystem:
    if config.custom_quadrics_path:
        return load_custom_quadrics(config.custom_quadrics_path)
    return build_quadrics()


# -- the individual checks ----------------------------------------------------


def _groups_records(selections: Sequence[GroupSelection]) -> list[CheckRecord]:
    # the involution containment target is always the first standard group,
    # taken from a selection with G's generators, which closes to G itself
    generators = standard_generators("G")[1]
    ambient = next((s.group for s in selections if s.group.generators == generators), None)
    if ambient is None:
        ambient = standard_group("G")
    records = []
    for sel in selections:
        start = time.perf_counter()
        results = zip(sel.claims, certify_structure(sel.group, sel.claims))
        witnesses = [f"claim {c['type']} failed: {w}" for c, w in results if w is not None]
        if sel.localization_words is not None:
            loc = involution_localization(sel.group, sel.localization_words, ambient)
            witnesses += filter(None, (loc.outside_subgroup_witness, loc.outside_ambient_witness))
        timing = time.perf_counter() - start
        records.append(CheckRecord("groups", sel.label, tuple(witnesses), timing))
    return records


def _invariance_records(
    selections: Sequence[GroupSelection], system: QuadricSystem
) -> list[CheckRecord]:
    """One record per distinct generator name; shared generators (t) run
    once.  Each verdict stays with the system (`system.invariance`), for the
    orbit and freeness layers."""
    seen: set[str] = set()
    records = []
    for sel in selections:
        for name, matrix in zip(sel.group.names, sel.group.generators):
            if name in seen:
                continue
            seen.add(name)
            start = time.perf_counter()
            result = system.invariance(matrix)
            witnesses = () if result.ok else (f"uncancelled monomial {result.witness_text()}",)
            records.append(CheckRecord("invariance", name, witnesses, time.perf_counter() - start))
    return records


def _orbit_records(
    selections: Sequence[GroupSelection], system: QuadricSystem, screened: Sequence
) -> list[CheckRecord]:
    """One record per (group, triple), in that order; `screened` pairs each
    triple with its screen reasons, and a screened-out triple's record is
    inconclusive.  Any other triple's record fails when `check_orbit` counts
    the wrong orbit size or returns a failing certificate."""
    records = []
    for sel in selections:
        for y, reasons in screened:
            start = time.perf_counter()
            witnesses = [f"screen: {r}" for r in reasons]
            if not reasons:
                size, failure = check_orbit(sel.group, system, y)
                if size != sel.group.order:
                    witnesses.append(f"{size} distinct orbit points, expected {sel.group.order}")
                if failure:
                    point, cert = failure
                    witnesses.append(
                        f"point {point.render()}: on_variety={cert.on_variety} "
                        f"jacobian_rank={cert.jacobian_rank} "
                        f"hessian_rank={cert.hessian_restricted_rank}"
                    )
            target, timing = f"{sel.label} @ ({_render_triple(y)})", time.perf_counter() - start
            records.append(CheckRecord("orbit", target, tuple(witnesses), timing, bool(reasons)))
    return records


def _freeness_records(
    selections: Sequence[GroupSelection], system: QuadricSystem, screened: Sequence, scope: str
) -> list[CheckRecord]:
    """One record per group.  Triples were screened once by
    `_resolve_triples`: the ones that passed are examined without a second
    screen, and each screened-out one makes the record inconclusive.  The
    groups overlap in involutions; each triple's context keeps each
    element's outcome, so a shared element is examined once.  Every
    selection's generators are proved first (`system.invariance`), so each
    group's conjugacy transfer conjugates by the symmetries of all of them."""
    for sel in selections:
        for g in sel.group.generators:
            system.invariance(g)
    records = []
    passed = [y for y, reasons in screened if not reasons]
    inconclusive = len(passed) < len(screened)  # even with a fixed point found
    for sel in selections:
        start = time.perf_counter()
        report = check_freeness(
            sel.group, system, passed, scope=scope, group_name=sel.label, screen=False
        )
        outcomes = iter(report.specializations)
        witnesses = []
        for y, reasons in screened:
            label = _render_triple(y)
            if reasons:
                witnesses.append(f"({label}) inconclusive: {'; '.join(reasons)}")
                continue
            for element in next(outcomes).elements:
                for comp in element.components:
                    if comp.verdict == "no-fixed-point":
                        continue
                    found = (
                        f"fixed point ({', '.join(comp.witness)})"
                        if comp.verdict == "fixed-point"
                        else "nonempty fixed locus, no rational witness found"
                    )
                    witnesses.append(
                        f"({label}) element {element.element} "
                        f"eigenvalue {comp.eigenvalue}: {found}"
                    )
        target, timing = f"{sel.label}[{scope}]", time.perf_counter() - start
        records.append(CheckRecord("freeness", target, tuple(witnesses), timing, inconclusive))
    return records


# -- the orchestrator ---------------------------------------------------------


def _resolve_triples(
    config: VerificationConfig, system: QuadricSystem, screen_group: FiniteGroup
) -> list[tuple]:
    """(triple, screen reasons) pairs.  Explicit triples are screened but
    kept (a failing one becomes an inconclusive record downstream, never a
    silent skip); with no explicit triples, seeded drawing only returns
    screened ones, with no reasons."""
    if config.y_triples:
        triples = [tuple(Fraction(c) for c in y) for y in config.y_triples]
        return [(y, genericity_screen(y, system, screen_group)) for y in triples]
    drawn = draw_specializations(config.specializations, config.seed, system, screen_group)
    return [(y, ()) for y in drawn]


def run(config: VerificationConfig) -> VerificationReport:
    """Execute the selected checks in dependency order and assemble the
    report.  Raises on unreadable input files; the CLI maps that to exit 2."""
    selected = [c for c in CHECK_IDS if c in config.checks]
    selections = resolve_selections(config)
    system = resolve_system(config)
    records: list[CheckRecord] = []
    screened: list | None = None
    for check in selected:
        if check in ("orbit", "freeness") and screened is None:
            screened = _resolve_triples(config, system, selections[0].group)
        if check == "groups":
            records.extend(_groups_records(selections))
        elif check == "invariance":
            records.extend(_invariance_records(selections, system))
        elif check == "orbit":
            records.extend(_orbit_records(selections, system, screened))
        else:
            records.extend(_freeness_records(selections, system, screened, config.scope))
    report = VerificationReport(version=__version__, config=config, checks=tuple(records))
    if config.output_path:
        write_report(report, config.output_path)
    return report
