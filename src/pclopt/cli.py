"""Command-line entry point.

Subcommands: generate (random instance), solve (exact / brute-force /
greedy / grasp / lp-bound), evaluate (choice probabilities and revenue),
simulate (empirical choice frequencies), bench (experiment grid).

stdout carries data (JSON, or csv/markdown for bench reports); progress
goes to stderr.  Failures exit nonzero after printing a machine-readable
error object {"code", "message", "path"} to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .bench import (
    DESK_GRID,
    METHODS,
    FULL_SCALE_GRID,
    GeneratorConfig,
    emit_report,
    generate_instance,
    run_experiment,
)
from .choice import choice_probabilities, expected_revenue, simulate_choice
from .exact import (BranchBoundConfig, InstanceTooLarge, branch_and_bound,
                    brute_force_oracle, lp_bound_answer)
from .heuristics import GraspConfig, grasp, greedy
from .instance import Instance, ValidationError, validate_assortment, validate_prices


class CliError(Exception):
    def __init__(self, code: str, message: str, path: str | None = None, exit_code: int = 2):
        super().__init__(message)
        self.code = code
        self.path = path
        self.exit_code = exit_code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError("bad-arguments", message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pclopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="generate a random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--integer-weights", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("solve", help="solve an instance with one method")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", required=True,
                   choices=["exact", "brute-force", "greedy", "grasp", "lp-bound"])
    p.add_argument("--rcl-max", type=int, default=5)
    p.add_argument("--max-iter", type=int, default=80)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-seconds", type=float, default=None)
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--out")

    p = sub.add_parser("evaluate", help="choice probabilities and expected revenue")
    p.add_argument("--instance", required=True)
    p.add_argument("--prices", required=True)
    p.add_argument("--assortment", required=True)

    p = sub.add_parser("simulate", help="empirical choice frequencies")
    p.add_argument("--instance", required=True)
    p.add_argument("--prices", required=True)
    p.add_argument("--assortment", required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bench", help="run an experiment grid and emit a report")
    p.add_argument("--grid", help="comma-separated n:kappa pairs, e.g. 20:0.02,50:0.04")
    p.add_argument("--full-scale-grid", action="store_true",
                   help="use the production-scale grid (n=400..1000)")
    p.add_argument("--instances", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--methods", default=",".join(METHODS))
    p.add_argument("--format", choices=["csv", "json", "markdown"], default="csv")
    p.add_argument("--out")
    p.add_argument("--log", help="per-instance JSON-lines log path "
                                 "(defaults to <out>.jsonl when --out is set)")
    p.add_argument("--budget-seconds", type=float, default=None)
    p.add_argument("--node-budget", type=int, default=50_000)
    p.add_argument("--integer-weights", action="store_true")
    p.add_argument("--rcl-max", type=int, default=5)
    p.add_argument("--max-iter", type=int, default=80)
    p.add_argument("--jobs", type=int, default=1)
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _dump(payload: dict, out_path: str | None, indent: int | None = 2) -> None:
    _emit(json.dumps(payload, indent=indent) + ("\n" if out_path else ""), out_path)


def _load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise CliError("io-error", f"cannot read instance file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError("invalid-json", f"instance file is not valid JSON: {exc}") from exc
    return Instance.from_dict(data)


def _load_vector(argument: str, name: str):
    """Vector flags accept inline JSON ('[1,0,1]') or a path to a JSON file."""
    text = argument
    if not argument.lstrip().startswith("["):
        try:
            with open(argument, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise CliError("io-error", f"cannot read {name} file: {exc}", name) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError("invalid-json", f"{name} is not valid JSON: {exc}", name) from exc


def _cmd_generate(args) -> int:
    try:
        config = GeneratorConfig(
            n=args.n, kappa=args.kappa, seed=args.seed, beta=args.beta,
            integer_weights=args.integer_weights,
        )
    except ValueError as exc:
        raise CliError("bad-arguments", str(exc)) from exc
    instance = generate_instance(config)
    # compact: at n = 1000 an indented file is 12.1 MB instead of 10.1 MB,
    # and dumps in 0.69 s instead of 0.43 s
    _dump(instance.to_dict(), args.out, indent=None)
    return 0


def _cmd_solve(args) -> int:
    # bad solver flags are refused, whatever the method, before any work
    grasp_config = GraspConfig(args.rcl_max, args.max_iter, args.seed)
    bb_config = BranchBoundConfig(args.node_budget, args.budget_seconds)
    instance = _load_instance(args.instance)
    t0 = time.perf_counter()
    try:
        if args.method == "greedy":
            result = greedy(instance)
        elif args.method == "brute-force":
            result = brute_force_oracle(instance)
        elif args.method == "lp-bound":
            result = lp_bound_answer(instance)
        else:  # grasp, and exact, whose search starts from the GRASP answer and solves the root LP
            result = grasp(instance, grasp_config)
            if args.method == "exact":
                result = branch_and_bound(instance, bb_config, result.assortment)
    except InstanceTooLarge as exc:
        raise CliError("instance-too-large", str(exc)) from exc
    except ValueError as exc:  # flags and instance were accepted: a solver's own check
        raise CliError("solver-failed", str(exc), exit_code=1) from exc
    result.stats.wall_time_s = time.perf_counter() - t0
    _dump(result.to_dict(), args.out)
    return 0


def _cmd_evaluate(args) -> int:
    instance = _load_instance(args.instance)
    prices = validate_prices(instance, _load_vector(args.prices, "prices"))
    assortment = validate_assortment(instance, _load_vector(args.assortment, "assortment"))
    dist = choice_probabilities(instance, prices, assortment)
    _dump(
        {
            "product_probs": dist.product_probs.tolist(),
            "no_purchase": dist.no_purchase,
            "expected_revenue": expected_revenue(instance, prices, assortment),
        },
        None,
    )
    return 0


def _cmd_simulate(args) -> int:
    instance = _load_instance(args.instance)
    prices = validate_prices(instance, _load_vector(args.prices, "prices"))
    assortment = validate_assortment(instance, _load_vector(args.assortment, "assortment"))
    dist = simulate_choice(instance, prices, assortment, args.seed, args.trials)
    _dump(
        {
            "product_freqs": dist.product_probs.tolist(),
            "no_purchase_freq": dist.no_purchase,
            "trials": args.trials,
        },
        None,
    )
    return 0


def _parse_grid(text: str) -> list[tuple[int, float]]:
    grid = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            n_text, kappa_text = token.split(":")
            grid.append((int(n_text), float(kappa_text)))
        except ValueError as exc:
            raise CliError(
                "bad-arguments", f"grid entries must look like n:kappa, got {token!r}"
            ) from exc
    if not grid:
        raise CliError("bad-arguments", "grid is empty")
    return grid


def _cmd_bench(args) -> int:
    if args.grid and args.full_scale_grid:
        raise CliError("bad-arguments", "--grid and --full-scale-grid are mutually exclusive")
    if args.full_scale_grid:
        grid = FULL_SCALE_GRID
    elif args.grid:
        grid = _parse_grid(args.grid)
    else:
        grid = DESK_GRID
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise CliError("bad-arguments", f"unknown methods: {sorted(unknown)}")
    log_path = args.log
    if log_path is None and args.out:
        log_path = os.path.splitext(args.out)[0] + ".jsonl"

    def progress(row):
        print(
            f"combo ({row.n}, {row.kappa:g}): {row.instance_count} instances done",
            file=sys.stderr,
        )

    rows = run_experiment(
        grid,
        args.instances,
        methods,
        args.seed,
        integer_weights=args.integer_weights,
        grasp_rcl_max=args.rcl_max,
        grasp_max_iter=args.max_iter,
        node_budget=args.node_budget,
        time_budget_s=args.budget_seconds,
        log_path=log_path,
        jobs=args.jobs,
        progress=progress,
    )
    if not rows:
        raise CliError("bad-arguments", "no methods requested, nothing to report")
    _emit(emit_report(rows, args.format), args.out)
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "simulate": _cmd_simulate,
    "bench": _cmd_bench,
}


def dispatch(argv) -> int:
    """Parse argv, run the subcommand, and return the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except CliError as exc:
        return _fail(exc.code, str(exc), exc.path, exc.exit_code)
    except ValidationError as exc:
        return _fail("invalid-instance", str(exc), exc.path, 2)
    except ValueError as exc:
        return _fail("bad-arguments", str(exc), None, 2)
    except (RuntimeError, OverflowError) as exc:  # a solver gave up, or A overflowed
        return _fail("solver-failed", str(exc), None, 1)


def _fail(code: str, message: str, path: str | None, exit_code: int) -> int:
    """Print the error envelope to stderr and return the exit code."""
    print(json.dumps({"code": code, "message": message, "path": path}), file=sys.stderr)
    return exit_code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
