"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload desk-lp --seed 0 --seconds 30 --trace 0

Run from the repository root.  pclopt is imported from ``src/`` next to this
directory, never from an installed copy; without it the run exits 2 before
printing a result.  stdout carries human-readable lines (machine facts and
every metric by name and unit) and, as its last line, one JSON object with
the keys correct, attempted, failed and metrics: the gated end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
End-to-end times are in reference seconds (see ``speed.py``); the
wall-clock values are printed beside them.
A full report is written to ``perfbench/out/run-<workload>-s<seed>-t<trace>.json``,
and the spans of a traced run to ``perfbench/out/spans-<workload>-s<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("desk-lp", "large-budget", "evaluate-simulate")
# one process, one client: BLAS and OpenMP get one thread each
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def import_pclopt() -> None:
    """Put ``src/`` first on the path and import the benchmark's modules.
    Raises ImportError when ``src/`` lacks pclopt."""
    src = ROOT / "src"
    if not (src / "pclopt" / "__init__.py").is_file():
        raise ImportError(f"no pclopt sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import pclopt
    import workloads  # noqa: F401  (imports numpy, scipy and every pclopt module)
    if Path(pclopt.__file__).resolve().parent != (src / "pclopt").resolve():
        raise ImportError(f"pclopt resolved to {pclopt.__file__}, not {src}")


# each import runs in a fresh interpreter, which prints its seconds
IMPORT_REPS = 5
_TIMED_IMPORT = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import {}\n"
    "print(time.perf_counter() - t0)\n"
)


def _time_import(modules: str) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED_IMPORT.format(modules), str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return float(proc.stdout)


def import_runs() -> list[tuple[float, float]]:
    """IMPORT_REPS pairs of (pclopt, dependency) import seconds, each pair
    timed back to back; see ``speed.import_to_reference``."""
    import speed

    return [(_time_import("pclopt.bench, pclopt.cli"), _time_import(speed.DEPENDENCIES))
            for _ in range(IMPORT_REPS)]


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in THREAD_ENV:
        os.environ[name] = "1"
    try:
        import_pclopt()
    except ImportError as exc:
        print(f"perfbench: cannot import pclopt from this checkout: {exc}", file=sys.stderr)
        return 2
    import workloads

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    report = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        OUT_DIR / f"work-{tag}-{os.getpid()}",
        import_runs=import_runs(),
        spans_path=OUT_DIR / f"spans-{args.workload}-s{args.seed}.jsonl" if args.trace else None,
    )
    facts = machine_facts(args.seed)
    with open(OUT_DIR / f"run-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump({"machine": facts, "seconds": args.seconds, **report.to_dict()}, handle, indent=1)
    print("machine " + json.dumps(facts))
    for line in workloads.format_report(report):
        print(line)
    print(json.dumps(workloads.result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
