"""Steadiness of the quadcert benchmark: run each workload once per seed,
then print the median and quartiles of every end-to-end metric and the
spread (q3 - q1) / median beside the bound in BENCHMARK.json.

    python3 bench/steady.py --seeds 0-9 --save bench/results/set-a.json
    python3 bench/steady.py --compare bench/results/set-a.json bench/results/set-b.json

After the seeds, the first seed runs twice more with --trace 1: its output
must hash the same as the untraced run, and the traced counts must repeat
exactly.  The saved file records the commit, a digest of the sources, the
Python version and nproc; --compare also requires the digests to agree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import exact_counts  # noqa: E402


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    detail = next((json.loads(line[7:]) for line in lines if line.startswith("detail ")), {})
    return {"result": json.loads(lines[-1]), "detail": detail}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def commit() -> str:
    """HEAD, with "+dirty" when the working tree differs from it."""
    try:
        head, status = (
            subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True,
                           check=True).stdout.strip()
            for cmd in (["rev-parse", "HEAD"], ["status", "--porcelain"])
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+dirty" if status else "")


def sources_digest() -> str:
    """SHA-256 over quadcert's sources, the benchmark's code and BENCHMARK.json,
    so that two saved sets show whether they measured the same tree."""
    digest = hashlib.sha256()
    paths = [ROOT / "BENCHMARK.json", *(ROOT / "src").rglob("*.py"), *BENCH.glob("*.py")]
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure(seeds) -> dict:
    spec = load_spec()
    seconds = spec["run_seconds"]
    figures = {
        "commit": commit(),
        "sources_sha256": sources_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(bench_run(workload, seed, seconds, 0))
            r = runs[-1]["result"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                + f", attempted={r['attempted']}, failed={r['failed']}, correct={r['correct']}",
                flush=True)
        traced = [bench_run(workload, seeds[0], seconds, 1) for _ in range(2)]
        hashes = {h for run in runs[:1] + traced for h in run["detail"]["output_sha256"]}
        counts = [exact_counts({k: v["value"] for k, v in t["result"]["metrics"].items()})
                  for t in traced]
        metrics = {}
        for name in bounds:
            s = summary([run["result"]["metrics"][name]["value"] for run in runs])
            s["bound"] = bounds[name]
            metrics[name] = s
        figures["workloads"][workload] = {
            "seeds": seeds,
            "metrics": metrics,
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "all_correct": all(r["result"]["correct"] for r in runs + traced),
            "deterministic_output": len(hashes) == 1,
            "traced_counts_repeat": counts[0] == counts[1],
            "traced_overhead_s": [t["result"]["metrics"]["trace.overhead_s"]["value"] for t in traced],
            "traced_layers": {k: v["value"] for k, v in traced[0]["result"]["metrics"].items()},
            "traced_counts_by_caller": traced[0]["detail"].get("counts_by_caller", {}),
        }
    return figures


def report(figures: dict) -> None:
    print(f"commit {figures['commit']}  sources {figures['sources_sha256'][:12]}  python {figures['python']}  nproc {figures['nproc']}  "
          f"run_seconds {figures['run_seconds']}")
    print(f"{'workload':<9} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} "
          f"{'bound':>6}  steady")
    for workload, w in figures["workloads"].items():
        for name, s in w["metrics"].items():
            steady = "yes" if s["spread"] <= s["bound"] / 3 else "NO"
            if name == "setup_s":
                steady = "n/a"  # only its median shift is bounded
            print(f"{workload:<9} {name:<12} {s['median']:>10.4f} {s['q1']:>10.4f} {s['q3']:>10.4f} "
                  f"{s['spread']:>7.3f} {s['bound']:>6.2f}  {steady}")
        print(f"{workload:<9} failed {w['failed']}/{w['attempted']}, all correct {w['all_correct']}, "
              f"deterministic output {w['deterministic_output']}, traced counts repeat "
              f"{w['traced_counts_repeat']}, trace overhead {w['traced_overhead_s']}")


def compare(path_a: str, path_b: str) -> bool:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    ok = a["sources_sha256"] == b["sources_sha256"]
    print(f"sources {a['sources_sha256'][:12]} vs {b['sources_sha256'][:12]} "
          f"{'same' if ok else 'DIFFERENT'}")
    for workload, wa in a["workloads"].items():
        wb = b["workloads"][workload]
        for name, sa in wa["metrics"].items():
            shift = (wb["metrics"][name]["median"] - sa["median"]) / sa["median"]
            good = abs(shift) <= sa["bound"]
            ok &= good
            print(f"{workload:<9} {name:<12} {sa['median']:>10.4f} -> {wb['metrics'][name]['median']:>10.4f} "
                  f"shift {shift:+.3f} bound {sa['bound']:.2f} {'ok' if good else 'APART'}")
        same_share = wa["failed"] * wb["attempted"] == wb["failed"] * wa["attempted"]
        ok &= same_share
        print(f"{workload:<9} failed share {wa['failed']}/{wa['attempted']} vs "
              f"{wb['failed']}/{wb['attempted']} {'same' if same_share else 'DIFFERENT'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="'0-9' or '0,3,5'")
    parser.add_argument("--save", default=None, metavar="PATH")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1
    figures = measure(parse_seeds(args.seeds))
    report(figures)
    if args.save:
        Path(args.save).parent.mkdir(parents=True, exist_ok=True)
        Path(args.save).write_text(json.dumps(figures, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
