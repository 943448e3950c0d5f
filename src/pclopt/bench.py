"""Seeded instance generation, batch experiments, and report rendering.

Instances are drawn per combination (n, kappa): theta_i = exp(alpha_i)
uniform on (0, 5], weights uniform on [1, 10], gamma_ij uniform on
[0.1, 1] per unordered pair, capacity C = kappa * sum(w), beta fixed
(0.1 by default).  Instance seeds derive from the master seed through a
stable SHA-256 hash, so any (combo, index) cell is independently
reproducible.

``run_experiment`` runs the requested methods over a grid, optionally
persists one JSON line per instance for auditability, and aggregates
average/maximum runtimes and upper-bound gaps per combination.  GRASP
and the root LP run once per instance, and both also start
branch-and-bound.
``emit_report`` renders the rows as csv, markdown, or json; csv and
markdown end with an Average row whose runtime cells are dashed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .exact import BranchBoundConfig, branch_and_bound, knapsack_majorant_bound, lp_relaxation
from .heuristics import GraspConfig, grasp, greedy
from .instance import Instance, pair_count
from .pricing import lambert_w0, price_for_a  # noqa: F401 -- the tracer patches lambert_w0

METHODS = ("exact", "lp-bound", "greedy", "grasp")

# published large-scale reference values (n = 400..1000, 300 instances);
# recorded in reports for context, never asserted at desk scale
REFERENCE_GAP_TARGETS = {
    "mip_gap_avg_pct": 0.03,
    "heuristic_gap_avg_pct": 0.18,
    "heuristic_gap_worst_pct": 0.46,
    "grasp_gap_avg_pct": 0.16,
    "grasp_gap_worst_pct": 0.31,
}

DESK_GRID = [(n, kappa) for n in (20, 50, 100) for kappa in (0.02, 0.04, 0.06)]
FULL_SCALE_GRID = [
    (n, kappa) for n in (400, 600, 800, 1000) for kappa in (0.02, 0.04, 0.06)
]

# largest n an exact solve may run without a node or time budget (the desk
# grid stops at n = 100); the search's node count grows exponentially in n
_UNBUDGETED_EXACT_MAX_N = 150


@dataclass
class GeneratorConfig:
    n: int
    kappa: float
    seed: int
    beta: float = 0.1
    integer_weights: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("kappa must lie strictly between 0 and 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.beta <= 0:
            raise ValueError("beta must be positive")


def generate_instance(config: GeneratorConfig) -> Instance:
    """Random instance for the given configuration, deterministic per seed.

    theta is drawn as 5 * (1 - u) with u in [0, 1), which keeps the left
    endpoint open: theta is never exactly zero.
    """
    rng = np.random.default_rng(config.seed)
    theta = 5.0 * (1.0 - rng.random(config.n))
    if config.integer_weights:
        weights = rng.integers(1, 11, config.n).astype(float)
    else:
        weights = rng.uniform(1.0, 10.0, config.n)
    gamma = rng.uniform(0.1, 1.0, pair_count(config.n))
    return Instance(
        n=config.n,
        alpha=np.log(theta),
        weights=weights,
        capacity=config.kappa * float(weights.sum()),
        beta=config.beta,
        gamma_upper=gamma,
    )


def derive_seed(master_seed: int, *parts) -> int:
    """Stable sub-seed from the master seed and any hashable labels."""
    text = "|".join([repr(int(master_seed))] + [repr(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def compute_gap(reference_obj: float, method_obj: float) -> float:
    """Optimality gap (1 - method/reference) * 100, clamped at 0 from below."""
    if reference_obj <= 0:
        raise ValueError("gap reference must be positive")
    if method_obj > reference_obj + 1e-8:
        raise ValueError(
            f"method objective {method_obj} exceeds its reference bound {reference_obj}"
        )
    return max(0.0, (1.0 - method_obj / reference_obj) * 100.0)


@dataclass
class ExperimentRow:
    """One report row: a parameter combination with runtime and gap stats."""

    n: int
    kappa: float
    instance_count: int
    exact_time_avg: float | None = None
    exact_time_max: float | None = None
    ub_time_avg: float | None = None
    ub_time_max: float | None = None
    greedy_time_avg: float | None = None
    greedy_time_max: float | None = None
    grasp_time_avg: float | None = None
    grasp_time_max: float | None = None
    exact_gap_avg: float | None = None
    exact_gap_max: float | None = None
    greedy_gap_avg: float | None = None
    greedy_gap_max: float | None = None
    grasp_gap_avg: float | None = None
    grasp_gap_max: float | None = None
    exact_budget_hits: int = 0

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentRow":
        return cls(**data)


def _solve_one(task):
    """Run the requested methods on one generated instance; returns the log
    record.  One root LP serves both ``lp-bound`` and ``exact``, and its
    simplex iterations are recorded for either;
    ``exact_time_s`` times the search alone, from the GRASP answer and
    that LP."""
    cell, index, master_seed, methods, grasp_config, bb_config = task
    n, kappa = cell.n, cell.kappa
    seed = derive_seed(master_seed, n, kappa, index)
    instance = generate_instance(replace(cell, seed=seed))
    record = {
        "n": n,
        "kappa": kappa,
        "instance_index": index,
        "seed": seed,
        "majorant_bound": knapsack_majorant_bound(instance),
    }
    if "lp-bound" in methods or "exact" in methods:
        t0 = time.perf_counter()
        lp = lp_relaxation(instance)
        lp_time_s = time.perf_counter() - t0
        record["lp_iterations"] = lp.simplex_iterations
    if "lp-bound" in methods:
        record["lp_time_s"] = lp_time_s
        record["lp_bound"] = lp.objective_value
        record["revenue_upper_bound"] = price_for_a(lp.objective_value, instance.beta)[1]
    if "greedy" in methods:
        t0 = time.perf_counter()
        result = greedy(instance)
        record["greedy_time_s"] = time.perf_counter() - t0
        record["greedy_a_value"] = result.a_value
        record["greedy_revenue"] = result.revenue
    if "grasp" in methods or "exact" in methods:
        grasp_seed = derive_seed(master_seed, n, kappa, index, "grasp")
        t0 = time.perf_counter()
        grasp_result = grasp(instance, replace(grasp_config, seed=grasp_seed))
        record["grasp_time_s"] = time.perf_counter() - t0
    if "grasp" in methods:
        record["grasp_a_value"] = grasp_result.a_value
        record["grasp_revenue"] = grasp_result.revenue
    if "exact" in methods:
        t0 = time.perf_counter()
        result = branch_and_bound(instance, bb_config, grasp_result.assortment, lp)
        record["exact_time_s"] = time.perf_counter() - t0
        record["exact_a_value"] = result.a_value
        record["exact_revenue"] = result.revenue
        record["exact_status"] = result.status
        record["exact_nodes"] = result.stats.nodes
        record["exact_upper_bound"] = result.upper_bound
        record["exact_fixed_in"] = result.stats.fixed_in
        record["exact_fixed_out"] = result.stats.fixed_out
        record["exact_refixed_in"] = result.stats.refixed_in
        record["exact_refixed_out"] = result.stats.refixed_out
    if "revenue_upper_bound" in record:
        ub = record["revenue_upper_bound"]
        for method in ("exact", "greedy", "grasp"):
            key = f"{method}_revenue"
            if key in record and ub > 0:
                record[f"gap_{method}_pct"] = compute_gap(ub, record[key])
    return record


# the report's column stems: each is the mean and maximum of one record key,
# shown when its method was requested (GRASP's time is also recorded when
# it only seeds exact); a time stem prints to 0.1, a gap stem to 0.01
_COLUMNS = (
    ("exact_time", "exact_time_s", "exact"),
    ("ub_time", "lp_time_s", "lp-bound"),
    ("greedy_time", "greedy_time_s", "greedy"),
    ("grasp_time", "grasp_time_s", "grasp"),
    ("exact_gap", "gap_exact_pct", "exact"),
    ("greedy_gap", "gap_greedy_pct", "greedy"),
    ("grasp_gap", "gap_grasp_pct", "grasp"),
)


def _aggregate(n, kappa, records, methods) -> ExperimentRow:
    row = ExperimentRow(n=n, kappa=kappa, instance_count=len(records))
    for stem, key, method in _COLUMNS:
        values = [r[key] for r in records if key in r]
        if method in methods and values:
            setattr(row, f"{stem}_avg", float(np.mean(values)))
            setattr(row, f"{stem}_max", float(np.max(values)))
    if "exact" in methods:
        row.exact_budget_hits = sum(
            1 for r in records if r.get("exact_status") not in (None, "optimal")
        )
    return row


def run_experiment(
    grid,
    instances_per_combo: int,
    methods,
    master_seed: int,
    *,
    beta: float = 0.1,
    integer_weights: bool = False,
    grasp_rcl_max: int = 5,
    node_budget: int | None = 50_000,
    time_budget_s: float | None = None,
    log_path=None,
    jobs: int = 1,
    progress=None,
) -> list[ExperimentRow]:
    """Run every requested method over the grid and aggregate per combination.

    All objective values are fully determined by the master seed; only the
    recorded wall times vary between runs.  With an empty method set nothing
    is generated and no rows are produced.  Exact solves that exhaust their
    budget are recorded with their non-optimal status and counted in the
    row's ``exact_budget_hits``, never silently treated as optimal.  The
    whole request is checked before the first instance: an unknown method,
    a bad cell or solver setting, or fewer than one instance per combo
    raises ValueError.

    ``progress``, if given, is called as progress(row) after each combo.
    Instances are independent, so ``jobs`` > 1 solves them in parallel;
    records are still reduced in instance order, keeping output identical.
    """
    methods = frozenset(methods)
    unknown = methods - set(METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    if "exact" in methods and node_budget is None and time_budget_s is None:
        if any(n > _UNBUDGETED_EXACT_MAX_N for n, _ in grid):
            raise ValueError(
                "exact solves on large instances require a node or time budget"
            )
    if instances_per_combo < 1:
        raise ValueError("at least one instance per combo is required")
    # bad cells and solver settings are refused before any instance is generated
    cells = []
    for n, kappa in grid:
        try:
            cells.append(GeneratorConfig(n, kappa, 0, beta, integer_weights))
        except ValueError as exc:  # named as the grid entry n:kappa
            raise ValueError(f"grid entry {n}:{kappa:g}: {exc}") from exc
    grasp_config = GraspConfig(grasp_rcl_max)
    bb_config = BranchBoundConfig(node_budget=node_budget, time_budget_s=time_budget_s)
    if not methods:
        return []

    pool = None
    if jobs > 1:
        # imported here: concurrent.futures.process costs a serial run 18 ms of start-up
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=jobs)
    rows = []
    records = []
    try:
        for cell in cells:
            tasks = [(cell, index, master_seed, methods, grasp_config, bb_config)
                     for index in range(instances_per_combo)]
            if pool is not None:
                combo_records = list(pool.map(_solve_one, tasks, chunksize=1))
            else:
                combo_records = [_solve_one(task) for task in tasks]
            records.extend(combo_records)
            row = _aggregate(cell.n, cell.kappa, combo_records, methods)
            rows.append(row)
            if progress is not None:
                progress(row)
    finally:
        if pool is not None:
            pool.shutdown()

    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    return rows


_CSV_COLUMNS = [(f"{stem}_{stat}", "%.1f" if "time" in stem else "%.2f")
                for stem, _, _ in _COLUMNS for stat in ("avg", "max")]
_HEADER = ["combo"] + [name for name, _ in _CSV_COLUMNS]


def _formatted_cells(row: ExperimentRow) -> list[str]:
    cells = [f"({row.n}, {row.kappa:g})"]
    for name, fmt in _CSV_COLUMNS:
        value = getattr(row, name)
        cells.append("----" if value is None else fmt % value)
    return cells


def _average_cells(rows: list[ExperimentRow]) -> list[str]:
    """Column-wise means of the gap columns; runtime cells stay dashed."""
    cells = ["Average"]
    for name, fmt in _CSV_COLUMNS:
        if "time" in name:
            cells.append("----")
            continue
        values = [getattr(r, name) for r in rows if getattr(r, name) is not None]
        cells.append(fmt % float(np.mean(values)) if values else "----")
    return cells


def _reference_footer() -> str:
    parts = " ".join(f"{k}={v}" for k, v in REFERENCE_GAP_TARGETS.items())
    return f"# reference gap targets at production scale (n=400-1000): {parts}"


def emit_report(rows: list[ExperimentRow], format: str = "csv") -> str:
    """Render experiment rows as csv, markdown, or json.

    csv and markdown refuse empty input; json renders an empty list.  The
    json document round-trips through ``ExperimentRow.from_dict``.
    """
    if format == "json":
        return json.dumps([row.to_dict() for row in rows], indent=2)
    if format not in ("csv", "markdown"):
        raise ValueError(f"unknown report format: {format!r}")
    if not rows:
        raise ValueError(f"cannot render a {format} report from zero rows")

    table = [_HEADER] + [_formatted_cells(r) for r in rows] + [_average_cells(rows)]
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerows(table)
        buffer.write(_reference_footer() + "\n")
        return buffer.getvalue()

    widths = [max(len(line[i]) for line in table) for i in range(len(_HEADER))]
    lines = []
    for index, cells in enumerate(table):
        padded = [cell.ljust(widths[i]) for i, cell in enumerate(cells)]
        lines.append("| " + " | ".join(padded) + " |")
        if index == 0:
            lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    lines.append("")
    lines.append(_reference_footer())
    return "\n".join(lines) + "\n"
