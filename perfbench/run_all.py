"""Run every workload untraced and then traced, each in its own fresh process.

    python3 perfbench/run_all.py --seed 0 --seconds 30 --out perfbench/results/BENCH_0001.json

Prints each run's metrics by name and unit, then the tracing overhead: the
difference in ``ops_per_s`` between the traced and the untraced run of a
workload.  With ``--out`` it also writes one result file holding both runs
of every workload, their machine facts and the overheads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, OUT_DIR, WORKLOAD_NAMES


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in a child process; returns its full report."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.run(command, capture_output=True, text=True, check=False)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} (trace {int(trace)}) exited {proc.returncode}")
    with open(OUT_DIR / f"run-{workload}-s{seed}-t{int(trace)}.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", help="result file to write")
    args = parser.parse_args(argv)

    results = {}
    for workload in WORKLOAD_NAMES:
        untraced = run_one(workload, args.seed, args.seconds, trace=False)
        traced = run_one(workload, args.seed, args.seconds, trace=True)
        plain_rate = untraced["end_to_end"]["ops_per_s"]
        traced_rate = traced["end_to_end"]["ops_per_s"]
        results[workload] = {
            "untraced": untraced,
            "traced": traced,
            "tracing_overhead": {
                "ops_per_s_untraced": plain_rate,
                "ops_per_s_traced": traced_rate,
                "ops_per_s_difference": plain_rate - traced_rate,
                "share_of_untraced": (plain_rate - traced_rate) / plain_rate,
            },
        }

    print("tracing overhead (ops_per_s untraced -> traced):")
    for workload, result in results.items():
        o = result["tracing_overhead"]
        print(f"  {workload:<18} {o['ops_per_s_untraced']:.4g} -> {o['ops_per_s_traced']:.4g} "
              f"ops/s  ({100 * o['share_of_untraced']:+.1f}% of untraced)")
    if args.out:
        first = next(iter(results.values()))["untraced"]
        document = {"machine": first["machine"], "seed": args.seed,
                    "seconds": args.seconds, "workloads": results}
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
