"""The benchmark's workloads, its timed closed loop, and its metrics.

One client in one process runs ops back to back: the next op starts when
the previous one returns.  Solves go through ``pclopt.bench.run_experiment``
and the retailer's read side through ``pclopt.cli.dispatch``, the entry
points users call.  Every op's outputs are kept and checked after the timed
window closes, so checking costs no timed wall time.

Each workload derives all of its instances from the run's seed through
``derive_seed``.  The timed loop runs until ``seconds`` have passed and at
least ``quality_ops`` ops are done; the deterministic metrics (solution
quality and, in a traced run, every per-layer metric) are taken over the
first ``quality_ops`` ops only, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import statistics
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

import pclopt.bench
import pclopt.cli
from pclopt.bench import METHODS, GeneratorConfig, derive_seed, generate_instance
from pclopt.heuristics import greedy

import checks
import speed
import tracing

BETA = 0.1

# Desk-scale cells of DESK_GRID whose LP-mode solve stays under ~0.2 s.  The
# other cells (n = 50 at kappa >= 0.04, all of n = 100) take 0.4-18 s per
# solve with a coefficient of variation of 0.4-0.9 across instances, so a
# run window holds too few of them for a steady rate across seeds.
DESK_LP_GRID = [(20, 0.02), (20, 0.04), (20, 0.06), (50, 0.02)]
DESK_NODE_BUDGET = 50_000
# production scale: n > 150 selects majorant-mode B&B, which stops on budget
LARGE_GRID = [(400, 0.04), (1000, 0.04)]
LARGE_NODE_BUDGET = 2000
EVALUATE_SIZES = (100, 1000)
EVALUATE_KAPPA = 0.04
SIMULATE_TRIALS = 1_000_000
# set-ups per run; setup_s takes their median
SETUP_REPS = 5

# (name, unit); all eight are printed, the GATED ones go into the result
# line because they are defined and nonzero on every workload
E2E_METRICS = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_s_p50", "s"),
    ("failed_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("gap_pct_mean", "%"),
    ("budget_hit_frac", "ratio"),
    ("grasp_gap_pct_mean", "%"),
]
GATED = ("setup_s", "ops_per_s", "op_s_p50", "peak_rss_mb")


class SolveWorkload:
    """Each op is one run_experiment call over ``grid``, one instance per cell."""

    def __init__(self, name, grid, node_budget, quality_ops, milp_check):
        self.name = name
        self.grid = grid
        self.node_budget = node_budget
        self.quality_ops = quality_ops
        self.milp_check = milp_check

    def _solve(self, grid, master_seed, log_path):
        rows = pclopt.bench.run_experiment(
            grid, 1, METHODS, master_seed, beta=BETA,
            node_budget=self.node_budget, log_path=log_path, jobs=1,
        )
        with open(log_path, encoding="utf-8") as handle:
            return rows, handle.read()

    def setup(self, work_dir: Path, seed: int):
        # warm-up: the first LP solve pays scipy's lazy imports
        self._solve([(20, 0.02)], derive_seed(seed, self.name, "warm-up"),
                    work_dir / "warm-up.jsonl")
        return {"seed": seed, "log": work_dir / "ops.jsonl"}

    def op(self, state, index):
        return self._solve(self.grid, derive_seed(state["seed"], self.name, index), state["log"])

    def check(self, state, output):
        rows, log_text = output
        records = [json.loads(line) for line in log_text.splitlines()]
        cells = [(r["n"], r["kappa"]) for r in records]
        if cells != [tuple(c) for c in self.grid] or len(rows) != len(self.grid):
            return [f"expected one record and row per cell of {self.grid}, got {cells}"], []
        problems = []
        for record in records:
            problems += checks.check_solve_record(record, BETA)
            if self.milp_check:
                instance = generate_instance(GeneratorConfig(
                    n=record["n"], kappa=record["kappa"], seed=record["seed"], beta=BETA))
                problems += checks.check_against_milp(record, instance)
        return problems, records


class EvaluateSimulateWorkload:
    """Each op is `pclopt evaluate` then `pclopt simulate` on every instance file."""

    name = "evaluate-simulate"
    quality_ops = 4

    def setup(self, work_dir: Path, seed: int):
        files = []
        for n in EVALUATE_SIZES:
            instance = generate_instance(GeneratorConfig(
                n=n, kappa=EVALUATE_KAPPA, seed=derive_seed(seed, self.name, n), beta=BETA))
            best = greedy(instance)
            paths = {key: work_dir / f"{key}-{n}.json"
                     for key in ("instance", "prices", "assortment")}
            documents = {
                "instance": instance.to_dict(),
                "prices": [best.price] * n,
                "assortment": best.assortment.tolist(),
            }
            for key, path in paths.items():
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(documents[key], handle)
            files.append({"n": n, "a_value": best.a_value, **{k: str(p) for k, p in paths.items()}})
        state = {"seed": seed, "files": files}
        self._run(files[0], derive_seed(seed, self.name, "warm-up"))
        return state

    @staticmethod
    def _dispatch(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pclopt.cli.dispatch(argv)
        return code, out.getvalue(), err.getvalue()

    def _run(self, f, simulate_seed):
        common = ["--instance", f["instance"], "--prices", f["prices"],
                  "--assortment", f["assortment"]]
        evaluate = self._dispatch(["evaluate"] + common)
        simulate = self._dispatch(["simulate"] + common + [
            "--trials", str(SIMULATE_TRIALS), "--seed", str(simulate_seed)])
        return evaluate, simulate

    def op(self, state, index):
        return [self._run(f, derive_seed(state["seed"], self.name, index, f["n"]))
                for f in state["files"]]

    def check(self, state, output):
        problems = []
        for f, (evaluate, simulate) in zip(state["files"], output):
            results = []
            for command, (code, out, err) in (("evaluate", evaluate), ("simulate", simulate)):
                if code != 0 or err:
                    problems.append(f"{command} n={f['n']} exited {code}: {err.strip()}")
                    break
                results.append(json.loads(out))
            else:
                problems += checks.check_evaluate(results[0], f["a_value"], BETA)
                problems += checks.check_simulate(results[1], results[0], SIMULATE_TRIALS)
        return problems, []


WORKLOADS = {
    "desk-lp": SolveWorkload("desk-lp", DESK_LP_GRID, DESK_NODE_BUDGET,
                             quality_ops=16, milp_check=True),
    "large-budget": SolveWorkload("large-budget", LARGE_GRID, LARGE_NODE_BUDGET,
                                  quality_ops=2, milp_check=False),
    "evaluate-simulate": EvaluateSimulateWorkload(),
}


@dataclass
class RunReport:
    workload: str
    seed: int
    trace: bool
    attempted: int
    failed: int
    failures: list
    end_to_end: dict  # name -> value, None where the workload runs no exact solve
    quality_ops: int
    wall: dict  # setup_s, ops_per_s and op_s_p50 in wall-clock seconds
    setup_runs_s: list
    op_durations_s: list
    probes_s: list
    setup_probes_s: list
    import_runs_s: list
    per_layer: dict | None = None
    self_time: list | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _quality(records: list[dict]) -> dict:
    """Solution-quality metrics over the exact solves of the quality sample."""
    if not records:
        return {"gap_pct_mean": None, "budget_hit_frac": None, "grasp_gap_pct_mean": None}
    gaps = []
    for r in records:
        if r["exact_status"] == "optimal":
            gaps.append(0.0)
        else:
            best_bound = min(r["lp_bound"], r["majorant_bound"])
            gaps.append(100.0 * (best_bound - r["exact_a_value"]) / r["exact_a_value"])
    return {
        "gap_pct_mean": statistics.fmean(gaps),
        "budget_hit_frac": sum(r["exact_status"] != "optimal" for r in records) / len(records),
        "grasp_gap_pct_mean": statistics.fmean(r["gap_grasp_pct"] for r in records),
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: Path,
    *,
    import_runs: Sequence[tuple[float, float]] = (),
    quality_ops: int | None = None,
    spans_path: Path | None = None,
) -> RunReport:
    """Set up SETUP_REPS times, run the timed closed loop, check every op.

    ``setup_s`` is the import time plus the median set-up time.  The import
    time comes from ``import_runs``, pairs of (pclopt, dependency) import
    seconds from fresh interpreters (see ``speed.import_to_reference``); it
    is 0 without them.  A speed probe runs before each set-up and each op,
    and after the last op; the end-to-end times are in reference seconds
    (see ``speed``), with the wall-clock values kept in ``RunReport.wall``.
    Scratch files live in ``work_dir``, which is removed at the end.
    """
    workload = WORKLOADS[name]
    probe = speed.SpeedProbe()
    quality_ops = workload.quality_ops if quality_ops is None else quality_ops
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_runs, setup_probes = [], []
        for _ in range(SETUP_REPS):
            setup_probes.append(probe.sample())
            t0 = time.perf_counter()
            state = workload.setup(work_dir, seed)
            setup_runs.append(time.perf_counter() - t0)

        tracer = tracing.Tracer() if trace else None
        outputs, durations, probes, errors = [], [], [], {}
        if tracer is not None:
            tracer.install()
        try:
            start = end = time.perf_counter()
            while len(outputs) < quality_ops or end - start < seconds:
                probes.append(probe.sample())
                index = len(outputs)
                span = contextlib.nullcontext()
                if tracer is not None:
                    tracer.op = index
                    span = tracer.span("op")
                t0 = time.perf_counter()
                try:
                    with span:
                        outputs.append(workload.op(state, index))
                except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                    outputs.append(None)
                    errors[index] = f"op raised {exc!r}"
                end = time.perf_counter()
                durations.append(end - t0)
            probes.append(probe.sample())
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures, quality_records = [], []
        for index, output in enumerate(outputs):
            if index in errors:
                problems, records = [errors[index]], []
            else:
                try:
                    problems, records = workload.check(state, output)
                except (KeyError, TypeError, ValueError) as exc:
                    problems, records = [f"malformed output: {exc!r}"], []
                except RuntimeError as exc:  # an oracle that cannot confirm fails the op
                    problems, records = [f"check failed to run: {exc!r}"], []
            if problems:
                failures.append({"op": index, "problems": problems})
            if index < quality_ops:
                quality_records += records
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(outputs)
    ref_durations = speed.to_reference(durations, probes)
    ref_setup = speed.to_reference(setup_runs, setup_probes)
    import_ref = speed.import_to_reference(import_runs) if import_runs else 0.0
    import_wall = statistics.median(p for p, _ in import_runs) if import_runs else 0.0
    end_to_end = {
        "setup_s": import_ref + statistics.median(ref_setup),
        "ops_per_s": attempted / sum(ref_durations),
        "op_s_p50": statistics.median(ref_durations),
        "failed_frac": len(failures) / attempted,
        "peak_rss_mb": peak_rss_mb,
        **_quality(quality_records),
    }
    report = RunReport(
        workload=name, seed=seed, trace=trace, attempted=attempted,
        failed=len(failures), failures=failures[:10], end_to_end=end_to_end,
        quality_ops=quality_ops,
        wall={
            "setup_s": import_wall + statistics.median(setup_runs),
            "ops_per_s": attempted / sum(durations),
            "op_s_p50": statistics.median(durations),
        },
        setup_probes_s=setup_probes, import_runs_s=list(import_runs),
        setup_runs_s=setup_runs, op_durations_s=durations, probes_s=probes,
    )
    if tracer is not None:
        report.per_layer = tracing.layer_metrics(tracer, quality_ops)
        report.self_time = tracing.self_time_summary(tracer, quality_ops)
        if spans_path is not None:
            tracer.write(spans_path)
    return report


def result_line(report: RunReport) -> dict:
    """The final JSON line: gated end-to-end metrics, or per-layer when traced."""
    if report.trace:
        metrics = {name: {"value": report.per_layer[name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS}
    else:
        units = dict(E2E_METRICS)
        metrics = {name: {"value": report.end_to_end[name], "unit": units[name]}
                   for name in GATED}
    return {
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }


def format_report(report: RunReport) -> list[str]:
    """Human-readable lines: every end-to-end metric by name and unit, and
    in a traced run the per-layer metrics and the self-time summary."""
    lines = [f"workload {report.workload}  seed {report.seed}  "
             f"{'traced' if report.trace else 'untraced'}  "
             f"ops {report.attempted}  failed {report.failed}"]
    for name, unit in E2E_METRICS:
        value = report.end_to_end[name]
        text = "n/a (no exact solve)" if value is None else f"{value:.6g} {unit}"
        note = ""
        if name == "op_s_p50":
            note = f"  (n={len(report.op_durations_s)} ops)"
        elif name in ("gap_pct_mean", "budget_hit_frac", "grasp_gap_pct_mean") and value is not None:
            note = f"  (first {report.quality_ops} ops)"
        lines.append(f"  {name:<20} {text}{note}")
    wall = report.wall
    lines.append(f"  wall clock: setup_s {wall['setup_s']:.6g} s, ops_per_s "
                 f"{wall['ops_per_s']:.6g} ops/s, op_s_p50 {wall['op_s_p50']:.6g} s; "
                 f"speed probe median {1e3 * statistics.median(report.probes_s):.4g} ms "
                 f"(reference {1e3 * speed.REFERENCE_S:g} ms)")
    for failure in report.failures:
        lines.append(f"  FAILED op {failure['op']}: {'; '.join(failure['problems'])}")
    if report.per_layer is not None:
        lines.append(f"  per-layer metrics, per op over the first {report.quality_ops} ops:")
        for name, unit in tracing.LAYER_METRICS:
            lines.append(f"    {name:<30} {report.per_layer[name]:.6g} {unit}")
        lines.append("  self time by span (calls, total s, self s):")
        for span_name, calls, total, own in report.self_time:
            lines.append(f"    {span_name:<24} {calls:>8} {total:>10.4f} {own:>10.4f}")
    return lines

