"""Untraced child process: runs one workload round in-process and writes its
peak resident memory in MB.

    python3 bench/measured.py PEAK_PATH quadcert ARGS...   # quadcert.cli.main(ARGS)
    python3 bench/measured.py PEAK_PATH sweep ARGS...      # sweep.main(ARGS)

The peak is VmHWM from /proc/self/status, the high-water mark of this
process's own address space.  The ru_maxrss that wait4 returns cannot serve:
Linux carries the parent's peak across fork and exec into the child's, so it
would report the larger of the benchmark's memory and the workload's.
"""

from __future__ import annotations

import sys
from pathlib import Path


def entry(kind: str):
    """The main function of a workload kind; it takes the argument list."""
    if kind == "quadcert":
        from quadcert.cli import main
    elif kind == "sweep":
        from sweep import main
    else:
        raise SystemExit(f"unknown workload kind {kind!r}")
    return main


def peak_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv) -> int:
    peak_path, kind, args = argv[0], argv[1], argv[2:]
    try:
        return entry(kind)(args)
    finally:
        Path(peak_path).write_text(f"{peak_mb()!r}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
