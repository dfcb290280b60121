"""The quadcert benchmark.

    python3 bench/run.py --workload {campaign,crossval,sweep} --seed N --seconds S --trace {0,1}

Each round of a workload is one fresh child process, measured from outside
(wall clock around the child, CPU time from wait4); the child writes its own
peak RSS (bench/measured.py).  Rounds
repeat until the next one would end past --seconds; at least one runs.
Every output is checked by bench/checkers.py, which shares no code with
quadcert.  With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of traced rounds
(bench/tracer.py), and untraced rounds give the tracing overhead.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checkers  # noqa: E402
from tracer import COUNTED, LEVELED, TIMED  # noqa: E402

WORKLOADS = ("campaign", "crossval", "sweep")
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0  # a run must end within 180 s
OPS_PER_ROUND = {"campaign": 20, "crossval": 3, "sweep": 128 + 127 + 1 + 3}
SETUP_CODE = (
    "from quadcert.groups import standard_group\n"
    "from quadcert.variety import build_quadrics\n"
    "for name in ('G', 'G1', 'G2'):\n"
    "    standard_group(name)\n"
    "build_quadrics()\n"
)
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYERS = ("reporting", "variety", "groups", "groebner", "linalg", "polynomials")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for _, _, name in TIMED:
        if name.startswith("reporting."):
            units[f"{name}.s"] = "s"
        else:
            units[f"{name}.calls"] = "count"
            units[f"{name}.s"] = "s"
    for _, _, name in COUNTED:
        units[f"{name}.calls"] = "count"
    units["variety.freeness_cache_hit_ratio"] = "ratio"
    units["groebner.basis_len.max"] = "count"
    units["cyclotomic.mul.calls"] = "count"
    for level in range(1, 7):
        units[f"cyclotomic.mul.level{level}.calls"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


# -- child processes ------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # children load the bytecode compile_sources() wrote and write none, so
    # no figure depends on the environment or on which round compiled first
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(argv, deadline: float, stderr_path: Path) -> dict:
    """Run one child to completion; wall clock from spawn to reap and CPU
    time of that child alone.  Killed at the deadline."""
    with open(stderr_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                                stderr=err)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(deadline - start, 1.0))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "exit": proc.returncode,
    }


def workload_argv(workload: str, seed: int, out: Path) -> tuple[str, list[str]]:
    """(kind, arguments) of one round; kind is what bench/tracer.py runs."""
    if workload == "campaign":
        return "quadcert", ["all", "--group", "all", "--specializations", "3", "--seed", str(seed),
                            "--canonical", "--json", str(out)]
    if workload == "crossval":
        return "quadcert", ["freeness", "--group", "all", "--scope", "all", "--specializations",
                            "3", "--seed", str(seed), "--canonical", "--json", str(out)]
    return "sweep", ["--seed", str(seed), "--out", str(out)]


def round_argv(kind: str, args: list[str], spans: Path | None, peak: Path) -> list[str]:
    if spans is not None:
        return [sys.executable, str(BENCH / "tracer.py"), str(spans), kind] + args
    return [sys.executable, str(BENCH / "measured.py"), str(peak), kind] + args


# -- checking -------------------------------------------------------------------


class Checker:
    """Checks each distinct output once; identical outputs (same SHA-256)
    reuse the verdict.  A round whose process exited non-zero failed all its
    operations, whatever its report says: it may have crashed after writing
    it."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.groups = checkers.standard_groups()
        self.verdicts: dict[str, tuple[int, list[str]]] = {}

    def check(self, path: Path, exit_code: int) -> tuple[str | None, int, list[str]]:
        """(output hash, failed operations, reasons) for one round."""
        total = OPS_PER_ROUND[self.workload]
        try:
            data = path.read_bytes()
            doc = json.loads(data)
        except (OSError, ValueError) as exc:
            return None, total, [f"no readable output (exit {exit_code}): {exc}"]
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self.verdicts:
            self.verdicts[digest] = self._check(doc)
        failed, errors = self.verdicts[digest]
        if exit_code != 0:
            return digest, total, errors + [f"exit code {exit_code}, expected 0"]
        return digest, failed, errors

    def _check(self, doc) -> tuple[int, list[str]]:
        if self.workload == "campaign":
            failed, errors = checkers.campaign_failures(doc, self.seed, self.groups)
        elif self.workload == "crossval":
            failed, errors = checkers.crossval_failures(doc, self.seed)
        else:
            failed, errors = self._check_sweep(doc)
        return failed, errors

    def _check_sweep(self, doc) -> tuple[int, list[str]]:
        from sweep import SIGNED, make_inputs

        elements, signed, _ = make_inputs(self.seed)
        expected = [("group", g) for g in elements] + [("signed", g) for g in signed]
        ops = doc.get("ops", [])
        errors = []
        failed = OPS_PER_ROUND["sweep"] - len(ops)
        if failed or len(signed) != SIGNED:
            errors.append(f"{len(ops)} operations reported, expected {OPS_PER_ROUND['sweep']}")
        for i, op in enumerate(ops):
            why = checkers.sweep_op_errors(op)
            ran_on = (op["kind"], (tuple(op.get("perm", ())), tuple(op.get("phases", ()))))
            if i < len(expected) and ran_on != expected[i]:
                why.append(f"operation {i} ran on the wrong input")
            if why:
                failed += 1
                errors += why
        return failed, errors


def exit_code_selftest() -> list[str]:
    """The names of the exit-code rules that did not hold on a passing
    crossval report, seen first from a clean exit and then from a crash."""
    report = {
        "config": {"seed": 0, "scope": "all", "canonical": True},
        "overall": "pass",
        "checks": [{"id": "freeness", "target": f"{g}[all]", "verdict": "pass", "witnesses": [],
                    "timing": 0.0} for g in checkers.GROUP_GENERATORS],
    }
    path = OUT / "selftest-report.json"
    path.write_text(json.dumps(report))
    checker = Checker("crossval", 0)
    cases = {
        "accepts a clean exit": checker.check(path, 0)[1] == 0,
        "rejects a crash after a passing report": checker.check(path, 1)[1] == OPS_PER_ROUND["crossval"],
    }
    path.unlink()
    return [name for name, held in cases.items() if not held]


# -- traced rounds --------------------------------------------------------------


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics from one traced round's spans and counts."""
    names, spans, counts = doc["names"], doc["spans"], dict(doc["counts"])
    durations = [(end - start) / 1e9 for _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[i]
    out = {name: 0.0 if unit == "s" else 0 for name, unit in per_layer_units().items()}
    for i, (nid, _, _, parent) in enumerate(spans):
        name = names[nid]
        out[f"{name.split('.', 1)[0]}.self_s"] += durations[i] - child_time[i]
        if f"{name}.calls" in out:
            out[f"{name}.calls"] += 1
        # nested calls of the same function are already inside the outer span
        p = parent
        while p >= 0 and names[spans[p][0]] != name:
            p = spans[p][3]
        if p < 0:
            out[f"{name}.s"] += durations[i]
    for key, value in counts.items():
        if key in out:
            out[key] = value
    mul = [k for k in counts if k.startswith("cyclotomic.mul.level")]
    out["cyclotomic.mul.calls"] = sum(counts[k] for k in mul)
    misses = counts.get("variety.fixed_locus_components.calls", 0)
    lookups = counts.get("variety.freeness_lookups", 0)
    out["variety.freeness_cache_hit_ratio"] = 1.0 - misses / lookups if lookups else 0.0
    out["groebner.basis_len.max"] = doc["gauges"].get("groebner.basis_len.max", 0)
    out["trace.spans"] = len(spans)
    return out


def exact_counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if per_layer_units()[k] == "count" or k.endswith("ratio")}


# -- the run --------------------------------------------------------------------


def compile_sources(deadline: float) -> None:
    """Byte-compile quadcert and the benchmark (compileall writes bytecode
    whatever PYTHONDONTWRITEBYTECODE says)."""
    argv = [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "quadcert"), str(BENCH)]
    result = run_child(argv, deadline, OUT / "compile.stderr")
    if result["exit"] != 0:
        raise RuntimeError(f"compileall exited {result['exit']}; see {OUT / 'compile.stderr'}")


def setup_sample(deadline: float) -> float:
    """Wall time of a fresh interpreter importing quadcert and building the
    three standard groups and the pencil."""
    result = run_child([sys.executable, "-c", SETUP_CODE], deadline, OUT / "setup.stderr")
    if result["exit"] != 0:
        raise RuntimeError(f"set-up probe exited {result['exit']}; see {OUT / 'setup.stderr'}")
    return result["wall_s"]


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    problems = [f"checker self-test failed: {name}"
                for name in checkers.selftest() + exit_code_selftest()]
    compile_sources(deadline)
    setup_sample(deadline)  # warms the file cache; not counted
    setup = []  # one sample before each round, so slow spells hit both alike
    checker = Checker(workload, seed)
    kind, _ = workload_argv(workload, seed, OUT)
    rounds = []  # dicts with the round's measurements
    plan = ["plain", "traced", "traced"] if trace else []
    while True:
        mode = plan.pop(0) if plan else "plain"
        setup.append(setup_sample(deadline))
        stem = f"{workload}-{seed}-{len(rounds)}"
        out = OUT / f"{stem}.json"
        out.unlink(missing_ok=True)
        spans = OUT / f"{stem}.spans.json" if mode == "traced" else None
        peak = OUT / f"{stem}.peak"
        peak.unlink(missing_ok=True)
        _, args = workload_argv(workload, seed, out)
        result = run_child(round_argv(kind, args, spans, peak), deadline, OUT / f"{stem}.stderr")
        result["mode"] = mode
        if spans is None:
            try:
                result["peak_rss_mb"] = float(peak.read_text())
            except (OSError, ValueError) as exc:
                problems.append(f"round {stem} left no peak RSS: {exc}")
        result["hash"], result["failed"], result["errors"] = checker.check(out, result["exit"])
        if spans is not None:
            try:
                doc = json.loads(spans.read_text())
                result["layers"] = layer_metrics(doc)
                result["by_caller"] = doc["counts_by_caller"]
            except (OSError, ValueError) as exc:
                problems.append(f"traced round {stem} left no spans: {exc}")
        rounds.append(result)
        elapsed = time.perf_counter() - start
        next_round = result["wall_s"] + setup[-1]
        if not plan and (trace or elapsed + next_round > seconds or elapsed > RUN_LIMIT_S / 2):
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(deadline))

    hashes = {r["hash"] for r in rounds}
    if len(hashes) != 1 or None in hashes:
        problems.append(f"rounds of one seed produced different outputs: {sorted(map(str, hashes))}")
    errors = sorted({e for r in rounds for e in r["errors"]})
    plain = [r for r in rounds if r["mode"] == "plain"]
    if trace:
        traced = [r["layers"] for r in rounds if "layers" in r]
        if len(traced) == 2 and exact_counts(traced[0]) != exact_counts(traced[1]):
            problems.append("traced counts differ between two traced rounds")
        metrics = {}
        for name, unit in per_layer_units().items():
            values = [t[name] for t in traced] or [0]
            value = statistics.median(values) if unit == "s" else values[0]
            metrics[name] = {"value": value, "unit": unit}
        traced_wall = [r["wall_s"] for r in rounds if r["mode"] == "traced"]
        metrics["trace.overhead_s"]["value"] = (
            statistics.median(traced_wall) - statistics.median(r["wall_s"] for r in plain)
        )
    else:
        metrics = {
            name: {"value": statistics.median(r[name] for r in plain if name in r), "unit": unit}
            for name, unit in END_TO_END.items()
            if name != "setup_s"
        }
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        metrics = {name: metrics[name] for name in END_TO_END}
    detail = {
        "workload": workload,
        "seed": seed,
        "rounds": [{k: r.get(k) for k in ("mode", "wall_s", "cpu_s", "peak_rss_mb", "exit", "failed")}
                   for r in rounds],
        "output_sha256": sorted(map(str, hashes)),
        "setup_samples_s": setup,
        "counts_by_caller": next((r["by_caller"] for r in rounds if "by_caller" in r), {}),
        "errors": errors[:20],
        "problems": problems,
    }
    return {
        "detail": detail,
        "result": {
            "correct": not problems,
            "attempted": OPS_PER_ROUND[workload] * len(rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="quadcert benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "quadcert" / "cli.py").is_file():
        print(f"bench: no quadcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in outcome["detail"]["errors"] + outcome["detail"]["problems"]:
        print(f"bench: {line}", file=sys.stderr)
    print("detail " + json.dumps(outcome["detail"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
