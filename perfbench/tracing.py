"""Span tracing for the traced benchmark run, installed from outside the library.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces the
public functions that one pclopt module calls in another (for example
``pclopt.exact.linprog`` or ``pclopt.bench.grasp``) with wrappers that
record a span per call, and ``Tracer.uninstall`` puts the originals back.
Spans stay in memory and are written out once, when the run ends.

Each span records its name, start, end, parent span and op id.  Calls are
synchronous and single-threaded, so spans nest strictly and a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field

import pclopt.bench
import pclopt.cli
import pclopt.exact
import pclopt.heuristics
import pclopt.pricing
from pclopt.instance import Instance
from pclopt.objective import LinearizedCoefficients


@dataclass
class Span:
    name: str
    op: int
    parent: int  # index of the parent span, -1 at the top
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _solve_attrs(args, kwargs, result):
    return {"nodes": result.stats.nodes, "lp_solves": result.stats.lp_solves}


def _heuristic_attrs(args, kwargs, result):
    # GRASP and greedy run on the same Instance object within one solve
    return {"instance": id(args[0]), "a_value": result.a_value}


def _simulate_attrs(args, kwargs, result):
    return {"trials": args[4] if len(args) > 4 else kwargs["trials"]}


# (span name, owner, attribute, attrs-from-result); owners are modules,
# or classes for methods and classmethods shared by every module
_TARGETS = [
    ("bench.run_experiment", pclopt.bench, "run_experiment", None),
    ("bench.generate_instance", pclopt.bench, "generate_instance", None),
    ("exact.majorant", pclopt.bench, "knapsack_majorant_bound", None),
    ("exact.root_lp", pclopt.bench, "lp_relaxation", None),
    ("exact.bnb", pclopt.bench, "branch_and_bound", _solve_attrs),
    ("exact.linprog", pclopt.exact, "linprog", None),
    ("heuristics.greedy", pclopt.bench, "greedy", _heuristic_attrs),
    ("heuristics.greedy", pclopt.exact, "greedy", _heuristic_attrs),
    ("heuristics.grasp", pclopt.bench, "grasp", _heuristic_attrs),
    ("heuristics.grasp", pclopt.exact, "grasp", _heuristic_attrs),
    ("objective.coeffs", LinearizedCoefficients, "from_instance", None),
    ("objective.mu_matrix", LinearizedCoefficients, "mu_matrix", None),
    ("objective.a_value", pclopt.exact, "a_value", None),
    ("objective.a_value", pclopt.heuristics, "a_value", None),
    ("objective.a_value", pclopt.pricing, "a_value", None),
    ("pricing.price", pclopt.exact, "optimal_uniform_price", None),
    ("pricing.price", pclopt.heuristics, "optimal_uniform_price", None),
    ("pricing.lambert", pclopt.pricing, "lambert_w0", None),
    ("pricing.lambert", pclopt.bench, "lambert_w0", None),
    ("cli.dispatch", pclopt.cli, "dispatch", None),
    ("instance.from_dict", Instance, "from_dict", None),
    ("choice.probs", pclopt.cli, "choice_probabilities", None),
    ("choice.revenue", pclopt.cli, "expected_revenue", None),
    ("choice.simulate", pclopt.cli, "simulate_choice", _simulate_attrs),
]


class Tracer:
    """In-memory span recorder; ``op`` tags every span opened meanwhile."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.op, parent, time.perf_counter()))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, func, attrs_of):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(index)
            if attrs_of is not None:
                self.spans[index].attrs = attrs_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name, owner, attr, attrs_of in _TARGETS:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, attrs_of))
            else:
                wrapped = self._wrap(name, raw, attrs_of)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write(self, path) -> None:
        """Write every span as one JSON line, with its self time."""
        self_times = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for index, s in enumerate(self.spans):
                record = {
                    "id": index, "name": s.name, "op": s.op, "parent": s.parent,
                    "start": s.start, "end": s.end, "self_s": self_times[index],
                }
                if s.attrs:
                    record["attrs"] = s.attrs
                handle.write(json.dumps(record) + "\n")

    def self_times(self) -> list[float]:
        self_s = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                self_s[s.parent] -= s.end - s.start
        return self_s


# Per-layer metrics of the traced run: (name, unit).  Times and counts are
# per op, averaged over the ops of the run's quality sample.
LAYER_METRICS = [
    ("exact.linprog_calls", "count/op"),
    ("exact.linprog_s", "s/op"),
    ("exact.lp_solves", "count/op"),
    ("exact.root_lp_s", "s/op"),
    ("exact.root_lp_self_s", "s/op"),
    ("exact.bnb_s", "s/op"),
    ("exact.bnb_self_s", "s/op"),
    ("exact.nodes", "count/op"),
    ("exact.self_s_per_node", "s"),
    ("exact.majorant_s", "s/op"),
    ("objective.coeffs_calls", "count/op"),
    ("objective.coeffs_s", "s/op"),
    ("objective.mu_matrix_s", "s/op"),
    ("objective.a_value_calls", "count/op"),
    ("objective.a_value_s", "s/op"),
    ("heuristics.greedy_s", "s/op"),
    ("heuristics.grasp_s", "s/op"),
    ("heuristics.grasp_win_frac", "ratio"),
    ("instance.from_dict_s", "s/op"),
    ("cli.dispatch_s", "s/op"),
    ("cli.self_s", "s/op"),
    ("choice.probs_s", "s/op"),
    ("choice.revenue_s", "s/op"),
    ("choice.simulate_s", "s/op"),
    ("choice.simulate_trials_per_s", "1/s"),
    ("pricing.price_s", "s/op"),
    ("pricing.lambert_calls", "count/op"),
    ("pricing.lambert_s", "s/op"),
    ("bench.generate_s", "s/op"),
    ("bench.experiment_self_s", "s/op"),
]


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ops 0 .. ops-1.

    A layer that did not run reports 0.  ``grasp_win_frac`` compares each
    GRASP call with the latest greedy call on the same instance.
    """
    self_times = tracer.self_times()
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    nodes = lp_solves = trials = grasp_calls = grasp_wins = 0
    greedy_a: dict[int, float] = {}
    for index, s in enumerate(tracer.spans):
        if not 0 <= s.op < ops:
            continue
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        self_total[s.name] = self_total.get(s.name, 0.0) + self_times[index]
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.name == "exact.bnb":
            nodes += s.attrs["nodes"]
            lp_solves += s.attrs["lp_solves"]
        elif s.name == "choice.simulate":
            trials += s.attrs["trials"]
        elif s.name == "heuristics.greedy":
            greedy_a[s.attrs["instance"]] = s.attrs["a_value"]
        elif s.name == "heuristics.grasp":
            greedy = greedy_a.get(s.attrs["instance"])
            if greedy is not None:
                grasp_calls += 1
                grasp_wins += s.attrs["a_value"] > greedy

    def t(name):
        return total.get(name, 0.0) / ops

    def own(name):
        return self_total.get(name, 0.0) / ops

    def n(name):
        return calls.get(name, 0) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "exact.linprog_calls": n("exact.linprog"),
        "exact.linprog_s": t("exact.linprog"),
        "exact.lp_solves": lp_solves / ops,
        "exact.root_lp_s": t("exact.root_lp"),
        "exact.root_lp_self_s": own("exact.root_lp"),
        "exact.bnb_s": t("exact.bnb"),
        "exact.bnb_self_s": own("exact.bnb"),
        "exact.nodes": nodes / ops,
        "exact.self_s_per_node": ratio(self_total.get("exact.bnb", 0.0), nodes),
        "exact.majorant_s": t("exact.majorant"),
        "objective.coeffs_calls": n("objective.coeffs"),
        "objective.coeffs_s": t("objective.coeffs"),
        "objective.mu_matrix_s": t("objective.mu_matrix"),
        "objective.a_value_calls": n("objective.a_value"),
        "objective.a_value_s": t("objective.a_value"),
        "heuristics.greedy_s": t("heuristics.greedy"),
        "heuristics.grasp_s": t("heuristics.grasp"),
        "heuristics.grasp_win_frac": ratio(grasp_wins, grasp_calls),
        "instance.from_dict_s": t("instance.from_dict"),
        "cli.dispatch_s": t("cli.dispatch"),
        "cli.self_s": own("cli.dispatch"),
        "choice.probs_s": t("choice.probs"),
        "choice.revenue_s": t("choice.revenue"),
        "choice.simulate_s": t("choice.simulate"),
        "choice.simulate_trials_per_s": ratio(trials, total.get("choice.simulate", 0.0)),
        "pricing.price_s": t("pricing.price"),
        "pricing.lambert_calls": n("pricing.lambert"),
        "pricing.lambert_s": t("pricing.lambert"),
        "bench.generate_s": t("bench.generate_instance"),
        "bench.experiment_self_s": own("bench.run_experiment"),
    }
    return {name: values[name] for name, _ in LAYER_METRICS}


def self_time_summary(tracer: Tracer, ops: int) -> list[tuple[str, int, float, float]]:
    """(span name, calls, total s, self s) per span name over ops 0 .. ops-1,
    largest self time first."""
    self_times = tracer.self_times()
    rows: dict[str, list] = {}
    for index, s in enumerate(tracer.spans):
        if 0 <= s.op < ops:
            row = rows.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.end - s.start
            row[2] += self_times[index]
    ordered = sorted(rows.items(), key=lambda item: -item[1][2])
    return [(name, c, tot, own) for name, (c, tot, own) in ordered]

