import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pclopt.bench
import pclopt.cli
import pclopt.exact
from pclopt import (
    Instance,
    SolveResult,
    branch_and_bound,
    brute_force_oracle,
    grasp,
    greedy,
    is_feasible,
    lp_bound_answer,
)
from pclopt.cli import dispatch

from conftest import (EXTREME_CHOICE_CASES, past_prefix_instance, rounding_capacity_instance,
                      small_utility_instance)


def run_cli(argv, capsys):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, capsys, n=10, kappa=0.3, seed=7):
    path = tmp_path / "instance.json"
    code, out, _ = run_cli(
        ["generate", "--n", str(n), "--kappa", str(kappa), "--seed", str(seed),
         "--out", str(path)],
        capsys,
    )
    assert code == 0
    return path


def test_generate_is_byte_deterministic(capsys):
    argv = ["generate", "--n", "20", "--kappa", "0.04", "--seed", "7"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["n"] == 20
    assert len(data["gamma_upper"]) == 190
    # compact JSON: one line, the document json.dumps gives without indent
    assert out1 == json.dumps(data) + "\n"


def test_generate_rejects_bad_kappa(capsys):
    code, out, err = run_cli(["generate", "--n", "5", "--kappa", "1.5"], capsys)
    assert code == 2
    assert out == ""
    envelope = json.loads(err)
    assert envelope["code"] == "bad-arguments"
    assert "kappa" in envelope["message"]


def test_unknown_flag_produces_error_envelope(capsys):
    code, _, err = run_cli(["generate", "--n", "5", "--frobnicate"], capsys)
    assert code == 2
    assert json.loads(err)["code"] == "bad-arguments"


def test_solve_rejects_the_deleted_lp_bounding_flag(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, n=6)
    code, out, err = run_cli(
        ["solve", "--instance", str(path), "--method", "exact", "--bound-mode", "lp"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["code"] == "bad-arguments"


def test_solve_grasp_dominates_greedy(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, n=14, kappa=0.3)
    code, out_greedy, _ = run_cli(
        ["solve", "--instance", str(path), "--method", "greedy"], capsys
    )
    assert code == 0
    code, out_grasp, _ = run_cli(
        ["solve", "--instance", str(path), "--method", "grasp", "--seed", "1"], capsys
    )
    assert code == 0
    greedy_payload = json.loads(out_greedy)
    grasp_payload = json.loads(out_grasp)
    assert greedy_payload["status"] == grasp_payload["status"] == "heuristic"
    assert grasp_payload["revenue"] >= greedy_payload["revenue"] - 1e-12
    assert set(greedy_payload) == {
        "assortment", "a_value", "price", "revenue", "upper_bound", "status", "stats",
    }


def test_solve_exact_matches_brute_force_end_to_end(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, n=12, kappa=0.25)
    code, out_exact, _ = run_cli(
        ["solve", "--instance", str(path), "--method", "exact"], capsys
    )
    assert code == 0
    code, out_brute, _ = run_cli(
        ["solve", "--instance", str(path), "--method", "brute-force"], capsys
    )
    assert code == 0
    exact = json.loads(out_exact)
    brute = json.loads(out_brute)
    assert exact["assortment"] == brute["assortment"]
    assert exact["a_value"] == brute["a_value"]
    assert exact["status"] == brute["status"] == "optimal"


def test_solve_lp_bound_dominates_exact(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, n=10)
    code, out_bound, _ = run_cli(
        ["solve", "--instance", str(path), "--method", "lp-bound"], capsys
    )
    assert code == 0
    bound = json.loads(out_bound)
    assert bound["status"] == "bound-only"
    assert bound["assortment"] is None
    code, out_exact, _ = run_cli(
        ["solve", "--instance", str(path), "--method", "exact"], capsys
    )
    exact = json.loads(out_exact)
    assert bound["upper_bound"] >= exact["a_value"] - 1e-8
    assert bound["revenue"] >= exact["revenue"] - 1e-8


def test_solve_lp_bound_reports_every_lp_solve(tmp_path, capsys, monkeypatch):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(past_prefix_instance().to_dict()))
    calls = []
    solve_highs = pclopt.exact._solve_highs

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_highs(*args, **kwargs)

    monkeypatch.setattr(pclopt.exact, "_solve_highs", counting)
    code, out, _ = run_cli(
        ["solve", "--instance", str(path), "--method", "lp-bound"], capsys
    )
    assert code == 0
    assert len(calls) > 1  # rows are generated lazily over several solves
    assert json.loads(out)["stats"]["lp_solves"] == len(calls)


def test_solve_lp_bound_holds_at_small_utilities(tmp_path, capsys):
    # every mu is above -1e-129 here; the LP bound must still cover the optimum
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(small_utility_instance().to_dict()))
    code, out, _ = run_cli(["solve", "--instance", str(path), "--method", "brute-force"], capsys)
    assert code == 0
    optimum = json.loads(out)["a_value"]
    code, out, _ = run_cli(["solve", "--instance", str(path), "--method", "lp-bound"], capsys)
    assert code == 0
    assert json.loads(out)["upper_bound"] >= optimum


@pytest.mark.parametrize(
    "flag, value",
    [("--node-budget", "-5"), ("--budget-seconds", "-1"), ("--budget-seconds", "nan"),
     ("--budget-seconds", "inf")],
)
def test_solve_rejects_a_bad_budget(tmp_path, capsys, flag, value):
    path = write_instance(tmp_path, capsys, n=6)
    code, out, err = run_cli(
        ["solve", "--instance", str(path), "--method", "exact", flag, value], capsys
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["code"] == "bad-arguments"


def _refuse_work(*args, **kwargs):
    raise AssertionError("work started before the arguments were checked")


@pytest.mark.parametrize(
    "flags",
    [["--method", "exact", "--node-budget", "-5"],
     ["--method", "exact", "--budget-seconds", "nan"],
     ["--method", "grasp", "--rcl-max", "0"],
     ["--method", "greedy", "--node-budget", "-5"]],
    ids=["exact-node-budget", "exact-budget-seconds", "grasp-rcl-max", "greedy-node-budget"],
)
def test_solve_refuses_a_bad_config_before_solving(tmp_path, capsys, monkeypatch, flags):
    path = write_instance(tmp_path, capsys, n=6)
    for solver in ("grasp", "greedy", "branch_and_bound"):
        monkeypatch.setattr(pclopt.cli, solver, _refuse_work)
    code, out, err = run_cli(["solve", "--instance", str(path), *flags], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["code"] == "bad-arguments"


# GRASP's local search runs to a local optimum, so its old trial count
# --max-iter is refused as an unknown flag, whatever its value
@pytest.mark.parametrize(
    "flags",
    [["--node-budget", "-5"], ["--budget-seconds", "-1"], ["--rcl-max", "0"],
     ["--max-iter", "80"]],
    ids=["node-budget", "budget-seconds", "rcl-max", "max-iter"],
)
def test_bench_refuses_a_bad_config_before_generating(capsys, monkeypatch, flags):
    monkeypatch.setattr(pclopt.bench, "generate_instance", _refuse_work)
    monkeypatch.setattr(pclopt.bench, "grasp", _refuse_work)
    code, out, err = run_cli(
        ["bench", "--grid", "6:0.2", "--instances", "1", *flags], capsys
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["code"] == "bad-arguments"


@pytest.mark.parametrize(
    "flags, named",
    [(["--grid", "6:0.2,1:0.5", "--instances", "2"], "1:0.5"),
     (["--grid", "6:0.2,8:1.5", "--instances", "2"], "8:1.5"),
     (["--grid", "6:0.2", "--instances", "0"], "instance"),
     (["--grid", "6:0.2", "--instances", "-2"], "instance")],
    ids=["late-bad-n", "late-bad-kappa", "zero-instances", "negative-instances"],
)
def test_bench_refuses_a_bad_request_with_one_envelope_and_no_progress(
        capsys, monkeypatch, flags, named):
    monkeypatch.setattr(pclopt.bench, "generate_instance", _refuse_work)
    code, out, err = run_cli(["bench", *flags], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    envelope = json.loads(err)
    assert envelope["code"] == "bad-arguments"
    # the message names what was typed, not a Python parameter
    assert named in envelope["message"] and "instances_per_combo" not in envelope["message"]


def test_solve_takes_a_zero_budget(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, n=6)
    code, out, _ = run_cli(
        ["solve", "--instance", str(path), "--method", "exact", "--node-budget", "0",
         "--budget-seconds", "0"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["stats"]["nodes"] == 0


@pytest.mark.parametrize(
    "method, solver",
    [
        ("exact", branch_and_bound),
        ("brute-force", brute_force_oracle),
        ("greedy", greedy),
        ("grasp", grasp),
        ("lp-bound", lp_bound_answer),
    ],
)
def test_solve_prints_the_library_answer(tmp_path, capsys, method, solver):
    path = write_instance(tmp_path, capsys, n=12, kappa=0.25)
    instance = Instance.from_dict(json.loads(path.read_text()))
    if method == "exact":  # the CLI starts the search from the GRASP answer
        result = solver(instance, incumbent=grasp(instance).assortment)
    else:
        result = solver(instance)
    assert isinstance(result, SolveResult)
    code, out, _ = run_cli(["solve", "--instance", str(path), "--method", method], capsys)
    assert code == 0
    printed, expected = json.loads(out), result.to_dict()
    assert printed["stats"].pop("wall_time_s") > 0.0
    expected["stats"].pop("wall_time_s")
    assert printed == expected


def test_python_dash_m_runs_the_cli(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, n=12, kappa=0.25)
    argv = ["solve", "--instance", str(path), "--method", "exact"]
    # the interpreter imports the pclopt this test imported
    package_root = os.path.dirname(os.path.dirname(pclopt.cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "pclopt.cli", *argv], capture_output=True,
                         text=True, env=env, timeout=120)
    code, out, _ = run_cli(argv, capsys)
    assert (run.returncode, run.stderr) == (code, "") == (0, "")
    printed, expected = json.loads(run.stdout), json.loads(out)
    assert printed["stats"].pop("wall_time_s") > 0.0
    expected["stats"].pop("wall_time_s")
    assert printed == expected


def write_huge_instance(tmp_path, alpha=705.0):
    # theta = exp(705): A(x) ~ 1e307, near the top of the float range
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "n": 5, "alpha": [alpha] * 5, "weights": [1, 2, 3, 4, 5], "capacity": 6,
        "beta": 0.1, "gamma_upper": [0.5] * 10,
    }))
    return path


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [-700.0, -300.0, 42.0, 300.0, 705.0])
def test_lp_bound_is_at_least_the_optimum(tmp_path, capsys, alpha):
    # LP costs 4 exp(alpha), from 4e-304 to 7e306: unscaled, HiGHS gave up from alpha = 42
    # and returned a bound below the optimum at alpha = -300
    path = write_huge_instance(tmp_path, alpha=alpha)
    code, out, err = run_cli(["solve", "--instance", str(path), "--method", "lp-bound"], capsys)
    assert code == 0 and err == ""
    bound = json.loads(out)["upper_bound"]
    _, out, _ = run_cli(["solve", "--instance", str(path), "--method", "brute-force"], capsys)
    optimum = json.loads(out)["a_value"]
    assert math.isfinite(bound)
    assert bound >= optimum * (1.0 - 1e-12)


def test_exact_revenue_at_a_tiny_a_solves_the_price_equation(tmp_path, capsys):
    # A = 3.14e-7: a Lambert-W start value returned unchanged priced this 5.8e-8 too high
    path = write_huge_instance(tmp_path, alpha=-17.3)
    code, out, _ = run_cli(["solve", "--instance", str(path), "--method", "exact"], capsys)
    assert code == 0
    result = json.loads(out)
    w, y = 0.1 * result["revenue"], result["a_value"] / math.e
    assert y < 4e-7
    assert abs(w * math.exp(w) - y) <= 1e-13 * y


@pytest.mark.parametrize("method", ["exact", "greedy", "brute-force"])
def test_overflowing_alpha_gets_a_finite_answer(tmp_path, capsys, method):
    path = write_huge_instance(tmp_path)
    code, out, _ = run_cli(["solve", "--instance", str(path), "--method", method], capsys)
    assert code == 0
    payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"printed {name}"))
    assert payload["a_value"] > 1e306
    assert math.isfinite(payload["price"]) and math.isfinite(payload["revenue"])
    assert payload["price"] == pytest.approx(payload["revenue"] + 10.0, rel=1e-12)


@pytest.mark.parametrize("method", ["exact", "greedy", "brute-force"])
def test_largest_finite_alpha_keeps_its_answer(tmp_path, capsys, method):
    # at alpha = 707 the best A is 1.14e308, just below the float maximum
    path = write_huge_instance(tmp_path, alpha=707.0)
    code, out, _ = run_cli(["solve", "--instance", str(path), "--method", method], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["assortment"] == [1, 1, 1, 0, 0]
    assert payload["a_value"] == 1.1392279815175453e308
    assert payload["price"] == 7027.729495479501


@pytest.mark.filterwarnings("error")
def test_exact_and_lp_bound_answer_where_the_lp_objective_at_x_overflows(tmp_path, capsys):
    # at alpha = 707.3 the best A is 1.54e308: the LP's (n-1) theta @ x
    # overflows, but its dual bound does not
    path = write_huge_instance(tmp_path, alpha=707.3)
    code, out, err = run_cli(["solve", "--instance", str(path), "--method", "exact"], capsys)
    assert code == 0 and err == ""
    exact = json.loads(out)
    assert (exact["status"], exact["assortment"]) == ("optimal", [1, 1, 1, 0, 0])
    code, out, err = run_cli(["solve", "--instance", str(path), "--method", "lp-bound"], capsys)
    assert code == 0 and err == ""
    assert exact["a_value"] <= json.loads(out)["upper_bound"] < math.inf


@pytest.mark.filterwarnings("error")  # a numpy overflow warning fails the test
@pytest.mark.parametrize("alpha", [708.0, 710.0])
@pytest.mark.parametrize("method", ["exact", "brute-force", "greedy", "grasp", "lp-bound"])
def test_overflow_is_one_solver_failed_envelope(tmp_path, capsys, method, alpha):
    # at 708 the best A overflows to inf; at 710 theta = exp(alpha) does
    path = write_huge_instance(tmp_path, alpha=alpha)
    code, out, err = run_cli(["solve", "--instance", str(path), "--method", method], capsys)
    assert code == 1
    assert out == ""
    envelope = json.loads(err)
    assert envelope["code"] == "solver-failed"
    assert "overflow" in envelope["message"]


def write_rounding_instance(tmp_path, scale=1.0):
    path = tmp_path / "rounding.json"
    path.write_text(json.dumps(rounding_capacity_instance(scale).to_dict()))
    return path


@pytest.mark.parametrize("method", ["exact", "brute-force", "greedy", "grasp"])
def test_every_method_answers_within_the_capacity(tmp_path, capsys, method):
    # GRASP used to offer products 1-4, whose running load rounds to C but
    # whose dot exceeds it, and exact refused that answer as its incumbent
    path = write_rounding_instance(tmp_path)
    code, out, err = run_cli(["solve", "--instance", str(path), "--method", method], capsys)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["assortment"] == [1, 0, 1, 1, 1, 0, 0]
    assert payload["a_value"] == 45.327144368777496


@pytest.mark.parametrize("scale", [1e-300, 1e-9, 1e15, 1e300])
def test_lp_bound_does_not_depend_on_the_weight_scale(tmp_path, capsys, scale):
    # unscaled, HiGHS refused weights from 1e15 and dropped the capacity row at 1e-9
    path = write_rounding_instance(tmp_path, scale)
    code, out, err = run_cli(["solve", "--instance", str(path), "--method", "lp-bound"], capsys)
    assert code == 0, err
    assert json.loads(out)["upper_bound"] == pytest.approx(46.733131848155935, rel=1e-12)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(2, 8), exponent=st.integers(-300, 300), below=st.booleans(),
       seed=st.integers(0, 2**32))
def test_every_weight_scale_gets_a_feasible_proved_answer(tmp_path, capsys, n, exponent,
                                                         below, seed):
    # weights from 1e-302 to 4e302; C either a subset's weight in decimal,
    # which float sums round either side of, or below the smallest weight
    rng = np.random.default_rng(seed)
    cents = rng.integers(1, 400, n)
    scale = 10.0 ** exponent
    subset = (rng.random(n) < 0.5) | (cents == cents.max())
    capacity = (cents.min() / 2 if below else cents[subset].sum()) / 100 * scale
    inst = Instance(n=n, alpha=rng.uniform(-2.0, 2.0, n), weights=cents / 100 * scale,
                    capacity=capacity, beta=0.1,
                    gamma_upper=rng.uniform(0.05, 1.0, n * (n - 1) // 2))
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(inst.to_dict()))
    answers = {}
    for method in ("exact", "brute-force", "greedy", "grasp", "lp-bound"):
        code, out, err = run_cli(["solve", "--instance", str(path), "--method", method], capsys)
        assert code == 0 and err == "", (method, err)
        answers[method] = json.loads(out)
    for method in ("exact", "brute-force", "greedy", "grasp"):
        assert is_feasible(inst, answers[method]["assortment"])
    optimum = answers["brute-force"]["a_value"]
    assert answers["exact"]["a_value"] == pytest.approx(optimum, rel=1e-12, abs=0.0)
    assert answers["lp-bound"]["upper_bound"] >= optimum * (1 - 1e-12)


def test_solve_budget_exhaustion_is_not_an_error(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, n=16, kappa=0.4)
    code, out, _ = run_cli(
        ["solve", "--instance", str(path), "--method", "exact",
         "--node-budget", "1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["status"] == "feasible"


def test_solve_stops_on_the_time_budget_alone(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, n=16, kappa=0.4)
    code, out, _ = run_cli(
        ["solve", "--instance", str(path), "--method", "exact", "--budget-seconds", "0"],
        capsys,
    )
    assert code == 0
    result = json.loads(out)
    assert result["status"] == "feasible" and result["stats"]["nodes"] == 0
    _, out, _ = run_cli(["solve", "--instance", str(path), "--method", "lp-bound"], capsys)
    assert result["a_value"] <= result["upper_bound"] <= json.loads(out)["upper_bound"]


def test_solve_brute_force_guard(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, n=24)
    code, _, err = run_cli(
        ["solve", "--instance", str(path), "--method", "brute-force"], capsys
    )
    assert code == 2
    assert json.loads(err)["code"] == "instance-too-large"


def test_solve_malformed_instance(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 3, "alpha": [0, 0, 0], "weights": [1, -1, 1], '
                    '"capacity": 2, "beta": 0.1, "gamma_upper": [0.5, 0.5, 0.5]}')
    code, _, err = run_cli(
        ["solve", "--instance", str(path), "--method", "greedy"], capsys
    )
    assert code == 2
    envelope = json.loads(err)
    assert envelope["code"] == "invalid-instance"
    assert envelope["path"] == "weights[1]"


# one field of a valid n = 4 instance made invalid, as (field, how)
_SCALAR_FIELDS = ("n", "capacity", "beta")
_ARRAY_FIELDS = ("alpha", "weights", "gamma_upper")
_WRONG_TYPES = ("4", True, None, {"value": 4}, [])


@st.composite
def _broken_instance(draw):
    data = Instance(n=4, alpha=[0.1, -0.2, 0.3, 0.0], weights=[1.0, 2.0, 1.5, 0.5],
                    capacity=2.0, beta=0.1, gamma_upper=[0.5] * 6).to_dict()
    how = draw(st.sampled_from(["wrong type", "dropped", "wrong length", "negative weight",
                                "nonpositive gamma"]))
    if how == "wrong type":
        field = draw(st.sampled_from(_SCALAR_FIELDS + _ARRAY_FIELDS))
        # a number where an array belongs, a list where a number does
        extra = (2.5,) if field == "n" else (1.0,) if field in _ARRAY_FIELDS else ([1.0],)
        data[field] = draw(st.sampled_from(_WRONG_TYPES + extra + (["1"] * 4,)))
    elif how == "dropped":
        field = draw(st.sampled_from(_SCALAR_FIELDS + _ARRAY_FIELDS))
        del data[field]
    elif how == "wrong length":
        field = draw(st.sampled_from(_ARRAY_FIELDS))
        data[field] = data[field][:-1] if draw(st.booleans()) else data[field] + [0.5]
    else:
        field = "weights" if how == "negative weight" else "gamma_upper"
        k = draw(st.integers(0, len(data[field]) - 1))
        data[field][k] = -draw(st.floats(1e-300 if field == "weights" else 0.0, 1e300))
    return field, data


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(broken=_broken_instance(), command=st.sampled_from(["solve", "evaluate"]))
def test_an_invalid_instance_is_one_envelope(tmp_path, capsys, broken, command):
    field, data = broken
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    argv = (["solve", "--instance", str(path), "--method", "greedy"] if command == "solve" else
            ["evaluate", "--instance", str(path), "--prices", "[5, 5, 5, 5]",
             "--assortment", "[1, 0, 1, 0]"])
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == "" and "Traceback" not in err, (code, out, err)
    lines = err.splitlines()
    assert len(lines) == 1, err
    envelope = json.loads(lines[0])
    assert envelope["code"] == "invalid-instance", envelope
    assert envelope["path"] == field or envelope["path"].startswith(field + "["), envelope


def test_evaluate_inline_and_file_vectors(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, n=4)
    instance = json.loads(path.read_text())
    prices = "[5, 5, 5, 5]"
    assortment = "[1, 1, 0, 1]"
    code, out, _ = run_cli(
        ["evaluate", "--instance", str(path), "--prices", prices,
         "--assortment", assortment],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    total = sum(payload["product_probs"]) + payload["no_purchase"]
    assert total == pytest.approx(1.0, abs=1e-10)
    assert payload["expected_revenue"] == pytest.approx(
        5.0 * sum(payload["product_probs"]), rel=1e-12
    )
    assert payload["product_probs"][2] == 0.0

    prices_file = tmp_path / "prices.json"
    prices_file.write_text(prices)
    code, out2, _ = run_cli(
        ["evaluate", "--instance", str(path), "--prices", str(prices_file),
         "--assortment", assortment],
        capsys,
    )
    assert code == 0
    assert json.loads(out2) == payload
    assert instance["n"] == 4


def write_three_product_instance(tmp_path, alpha, gamma):
    path = tmp_path / "three.json"
    path.write_text(json.dumps({
        "n": 3, "alpha": alpha, "weights": [1, 1, 1], "capacity": 3,
        "beta": 0.1, "gamma_upper": [gamma] * 3,
    }))
    return path


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha, gamma, x, expected_q, expected_q0", EXTREME_CHOICE_CASES)
def test_evaluate_extreme_utilities_and_gammas(tmp_path, capsys, alpha, gamma, x,
                                               expected_q, expected_q0):
    path = write_three_product_instance(tmp_path, alpha, gamma)
    code, out, err = run_cli(
        ["evaluate", "--instance", str(path), "--prices", "[0, 0, 0]",
         "--assortment", json.dumps(x)],
        capsys,
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["product_probs"] == pytest.approx(expected_q, abs=1e-12)
    assert payload["no_purchase"] == pytest.approx(expected_q0, abs=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha, gamma, x, expected_q, expected_q0", EXTREME_CHOICE_CASES)
def test_simulate_extreme_utilities_and_gammas(tmp_path, capsys, alpha, gamma, x,
                                               expected_q, expected_q0):
    path = write_three_product_instance(tmp_path, alpha, gamma)
    trials = 200_000
    code, out, err = run_cli(
        ["simulate", "--instance", str(path), "--prices", "[0, 0, 0]",
         "--assortment", json.dumps(x), "--trials", str(trials), "--seed", "4"],
        capsys,
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    freqs = payload["product_freqs"] + [payload["no_purchase_freq"]]
    bound = 4.0 * math.sqrt(0.25 / trials)
    for freq, q in zip(freqs, expected_q + [expected_q0]):
        # an outcome of probability below 1e-80 is never drawn
        assert freq == 0.0 if q == 0.0 else abs(freq - q) <= bound


def test_evaluate_rejects_bad_vector(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, n=3)
    code, _, err = run_cli(
        ["evaluate", "--instance", str(path), "--prices", "[1, 2]",
         "--assortment", "[1, 1, 0]"],
        capsys,
    )
    assert code == 2
    assert json.loads(err)["code"] == "invalid-instance"


# bad --prices / --assortment vectors for an n = 4 instance, as typed
_BAD_VECTORS = {
    "prices": ["[5, 5, 5]", "[5, -1, 5, 5]", "[5, NaN, 5, 5]", "[5, 1e400, 5, 5]",
               "[5, true, 5, 5]", '[5, "5", 5, 5]', "[[5, 5], [5, 5]]", "[[5], 5, 5, 5]",
               "[5, 5, 5"],
    "assortment": ["[1, 0, 1]", "[1, -1, 1, 0]", "[1, NaN, 1, 0]", "[1, 1e400, 1, 0]",
                   "[true, false, true, false]", '[1, "0", 1, 0]', "[[1, 0], [1, 0]]",
                   "[[1], 0, 1, 0]", "[1, 2, 1, 0]", "[1, 0.5, 1, 0]", "[1, 0, 1"],
}


@pytest.mark.parametrize("command", ["evaluate", "simulate"])
@pytest.mark.parametrize("field, vector", [
    (field, vector) for field, vectors in _BAD_VECTORS.items() for vector in vectors])
def test_a_bad_vector_is_one_envelope(tmp_path, capsys, command, field, vector):
    path = write_instance(tmp_path, capsys, n=4)
    flags = {"prices": "[5, 5, 5, 5]", "assortment": "[1, 0, 1, 0]", field: vector}
    code, out, err = run_cli([command, "--instance", str(path), "--prices", flags["prices"],
                              "--assortment", flags["assortment"]], capsys)
    assert code == 2 and out == "" and "Traceback" not in err, (code, out, err)
    lines = err.splitlines()
    assert len(lines) == 1, err
    envelope = json.loads(lines[0])
    assert envelope["path"] == field or envelope["path"].startswith(field + "["), envelope


def test_simulate_deterministic(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, n=5)
    argv = ["simulate", "--instance", str(path), "--prices", "[2,2,2,2,2]",
            "--assortment", "[1,1,1,0,0]", "--trials", "20000", "--seed", "3"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["trials"] == 20000
    assert sum(payload["product_freqs"]) + payload["no_purchase_freq"] == pytest.approx(1.0)


def test_simulate_a_trillion_trials(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, n=20)
    code, out, err = run_cli(
        ["simulate", "--instance", str(path), "--prices", json.dumps([2.0] * 20),
         "--assortment", json.dumps([1, 0] * 10), "--trials", "1000000000000"],
        capsys,
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["trials"] == 10**12
    assert sum(payload["product_freqs"]) + payload["no_purchase_freq"] == pytest.approx(
        1.0, abs=1e-9)


@pytest.mark.parametrize("trials", ["0", "100000000000000000000"])
def test_simulate_refuses_trials_outside_int64(tmp_path, capsys, trials):
    path = write_instance(tmp_path, capsys, n=3)
    code, out, err = run_cli(
        ["simulate", "--instance", str(path), "--prices", "[1, 1, 1]",
         "--assortment", "[1, 1, 0]", "--trials", trials],
        capsys,
    )
    assert code == 2 and out == ""
    assert json.loads(err)["code"] == "bad-arguments"


def test_solver_value_error_is_solver_failed(tmp_path, capsys, monkeypatch):
    # branch_and_bound refuses an incumbent over the capacity; here it comes
    # from GRASP, not from the user, so the arguments are not to blame
    path = write_instance(tmp_path, capsys)
    real_grasp = pclopt.cli.grasp

    def over_capacity(instance, config):
        result = real_grasp(instance, config)
        return dataclasses.replace(result, assortment=np.ones(instance.n, dtype=int))

    monkeypatch.setattr(pclopt.cli, "grasp", over_capacity)
    code, out, err = run_cli(["solve", "--instance", str(path), "--method", "exact"], capsys)
    assert code == 1 and out == ""
    envelope = json.loads(err)
    assert envelope["code"] == "solver-failed"
    assert "capacity" in envelope["message"]


def test_bench_writes_report_and_log(tmp_path, capsys):
    report_path = tmp_path / "report.csv"
    code, _, err = run_cli(
        ["bench", "--grid", "6:0.2,8:0.3", "--instances", "2", "--seed", "5",
         "--out", str(report_path)],
        capsys,
    )
    assert code == 0
    assert "instances done" in err  # progress on stderr
    report = report_path.read_text()
    assert report.splitlines()[0].startswith("combo,")
    assert '"(6, 0.2)"' in report and '"(8, 0.3)"' in report
    log_path = tmp_path / "report.jsonl"
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert len(records) == 4
    assert all("exact_a_value" in r for r in records)


def test_bench_json_to_stdout(capsys):
    code, out, _ = run_cli(
        ["bench", "--grid", "6:0.25", "--instances", "2", "--methods",
         "greedy,grasp,lp-bound", "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["grasp_gap_avg"] <= rows[0]["greedy_gap_avg"] + 1e-8
    assert rows[0]["exact_time_avg"] is None


def test_bench_rejects_unknown_method(capsys):
    code, _, err = run_cli(
        ["bench", "--grid", "6:0.2", "--methods", "cplex"], capsys
    )
    assert code == 2
    assert json.loads(err)["code"] == "bad-arguments"


def test_bench_rejects_bad_grid(capsys):
    code, _, err = run_cli(["bench", "--grid", "6x0.2"], capsys)
    assert code == 2
    assert json.loads(err)["code"] == "bad-arguments"


def test_no_subcommand_is_an_error(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 2
    assert json.loads(err)["code"] == "bad-arguments"


def test_subcommands_never_mutate_input_files(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, n=6)
    before = path.read_bytes()
    run_cli(["solve", "--instance", str(path), "--method", "exact"], capsys)
    run_cli(
        ["evaluate", "--instance", str(path), "--prices", "[1,1,1,1,1,1]",
         "--assortment", "[1,0,1,0,1,0]"],
        capsys,
    )
    assert path.read_bytes() == before
