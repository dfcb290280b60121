"""Traced child process: wraps quadcert's public functions from outside,
runs one workload in-process, and writes spans and counts.

    python3 bench/tracer.py SPANS_PATH {quadcert,sweep} ARGS...   # as bench/measured.py

Timed functions record a span (name, start, end, parent) in memory; counted
functions only bump a counter, because a span around millions of small calls
costs more than the calls do.  Each wrapper is installed on the defining
module or class and on every quadcert module that imported the name.  Nothing
inside quadcert changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

from measured import entry

# (module, attribute or Class.method, metric prefix)
TIMED = [
    ("reporting", "_resolve_triples", "reporting.draw"),
    ("reporting", "_groups_records", "reporting.groups"),
    ("reporting", "_invariance_records", "reporting.invariance"),
    ("reporting", "_orbit_records", "reporting.orbit"),
    ("reporting", "_freeness_records", "reporting.freeness"),
    ("variety", "genericity_screen", "variety.genericity_screen"),
    ("variety", "verify_odp", "variety.verify_odp"),
    ("variety", "singular_orbit", "variety.singular_orbit"),
    ("variety", "check_freeness", "variety.check_freeness"),
    ("variety", "check_ideal_invariance", "variety.check_ideal_invariance"),
    ("groups", "closure", "groups.closure"),
    ("groups", "certify_structure", "groups.certify_structure"),
    ("groups", "involution_localization", "groups.involution_localization"),
    ("groebner", "projective_zero_set_empty", "groebner.projective_zero_set_empty"),
    ("groebner", "buchberger", "groebner.buchberger"),
    ("linalg", "ExactMatrix.rank", "linalg.rank"),
    ("linalg", "ExactMatrix.rref", "linalg.rref"),
    ("linalg", "ExactMatrix.right_kernel", "linalg.right_kernel"),
    ("linalg", "ExactMatrix.left_kernel", "linalg.left_kernel"),
    ("linalg", "MonomialMatrix.eigenspaces", "linalg.eigenspaces"),
    ("polynomials", "Polynomial.substitute", "polynomials.substitute"),
    ("polynomials", "Polynomial.substitute_linear", "polynomials.substitute_linear"),
]
COUNTED = [
    ("variety", "fixed_locus_components", "variety.fixed_locus_components"),
    ("polynomials", "Polynomial.specialize", "polynomials.specialize"),
    ("polynomials", "Polynomial.partial_derivative", "polynomials.partial_derivative"),
    ("groebner", "normal_form", "groebner.normal_form"),
    ("cyclotomic", "CyclotomicNumber.__init__", "cyclotomic.new"),
    ("cyclotomic", "CyclotomicNumber.inverse", "cyclotomic.inverse"),
    ("cyclotomic", "CyclotomicNumber.__add__", "cyclotomic.add"),
    ("cyclotomic", "CyclotomicNumber.__radd__", "cyclotomic.add"),
]
LEVELED = [  # counted per field level, the larger operand level
    ("cyclotomic", "CyclotomicNumber.__mul__", "cyclotomic.mul"),
    ("cyclotomic", "CyclotomicNumber.__rmul__", "cyclotomic.mul"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name index, start ns, end ns, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.by_caller: Counter = Counter()
        self.gauges: dict[str, int] = {}

    def timed(self, name, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [nid, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        key = name + ".calls"
        if name.startswith("cyclotomic."):

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        # rarer calls are also attributed to the innermost timed caller
        by_caller, spans, stack, names = self.by_caller, self.spans, self.stack, self.names

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            by_caller[f"{key} in {names[spans[stack[-1]][0]] if stack else '-'}"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def leveled(self, name, fn):
        counts = self.counts
        keys = [f"{name}.level{m}.calls" for m in range(7)]

        @functools.wraps(fn)
        def wrapper(a, b):
            counts[keys[max(a.level, getattr(b, "level", 1))]] += 1
            return fn(a, b)

        return wrapper

    def observe_freeness(self, report):
        # one cache lookup per (element, specialization) pair examined
        self.counts["variety.freeness_lookups"] += sum(len(s.elements) for s in report.specializations)

    def observe_basis(self, gb):
        self.gauges["groebner.basis_len.max"] = max(
            self.gauges.get("groebner.basis_len.max", 0), len(gb.polys)
        )

    def install(self):
        import importlib

        modules = {
            name: importlib.import_module(f"quadcert.{name}")
            for name in ("cyclotomic", "linalg", "polynomials", "groebner", "groups", "variety",
                         "reporting", "cli")
        }
        observers = {
            "variety.check_freeness": self.observe_freeness,
            "groebner.buchberger": self.observe_basis,
        }
        plan = (
            [(m, a, lambda n, f: self.timed(n, f, observers.get(n))) for m, a, n in TIMED]
            + [(m, a, self.counted) for m, a, _ in COUNTED]
            + [(m, a, self.leveled) for m, a, _ in LEVELED]
        )
        names = [n for _, _, n in TIMED + COUNTED + LEVELED]
        for (module, attr, make), name in zip(plan, names):
            owner = modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                setattr(owner, attr, make(name, owner.__dict__[attr]))
                continue
            original = getattr(owner, attr)
            wrapper = make(name, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self, path, wall_ns):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "counts_by_caller": dict(sorted(self.by_caller.items())),
                    "gauges": self.gauges,
                    "wall_ns": wall_ns,
                },
                fh,
            )


def main(argv) -> int:
    spans_path, kind, args = argv[0], argv[1], argv[2:]
    start = time.perf_counter_ns()
    tracer = Tracer()
    tracer.install()
    code = entry(kind)(args)
    tracer.dump(spans_path, time.perf_counter_ns() - start)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
