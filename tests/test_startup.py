"""pclopt's start-up: ``import pclopt.cli`` loads HiGHS's extension module
from scipy's install, and no scipy.optimize, scipy.sparse or process pool.
Each check runs in a fresh interpreter, which imports the pclopt this test
imported."""

import json
import os
import subprocess
import sys

import pytest

import pclopt

HIGHS = "scipy.optimize._highspy._core"
# a small LP that scipy.optimize.linprog must still solve: max x0 + x1
# under x0 + 2 x1 <= 2, 0 <= x <= 1, optimum 1.5 at (1, 0.5)
_SOLVE_WITH_LINPROG = (
    "import scipy.optimize\n"
    "res = scipy.optimize.linprog([-1.0, -1.0], A_ub=[[1.0, 2.0]], b_ub=[2.0],"
    " bounds=(0, 1), method='highs')\n"
    "assert res.status == 0 and res.fun == -1.5, res\n"
)


def _run(code: str) -> dict:
    """Run code in a fresh interpreter; it prints one JSON object."""
    package_root = os.path.dirname(os.path.dirname(pclopt.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_importing_the_cli_loads_no_scipy_optimize_sparse_or_process_pool():
    loaded = _run(
        "import json, sys\n"
        "import pclopt.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert HIGHS in loaded
    for module in ("scipy.optimize", "scipy.sparse", "concurrent.futures.process"):
        assert module not in loaded


@pytest.mark.parametrize("first", ["pclopt", "scipy.optimize"])
def test_pclopt_and_scipy_optimize_share_one_highs_module(first):
    imports = ["import pclopt.cli\n", _SOLVE_WITH_LINPROG]
    if first == "scipy.optimize":
        imports.reverse()
    shared = _run(
        "import json, sys\n"
        + "".join(imports)
        + "import pclopt.exact\n"
        f"print(json.dumps(pclopt.exact.highs is sys.modules[{HIGHS!r}]))\n"
    )
    assert shared is True


def test_linprog_stays_reachable_by_name_and_is_imported_on_first_access():
    reached = _run(
        "import json, sys\n"
        "import pclopt.exact\n"
        "before = 'scipy.optimize' in sys.modules\n"
        "from scipy.optimize import linprog\n"
        "print(json.dumps([before, pclopt.exact.linprog is linprog]))\n"
    )
    assert reached == [False, True]


def test_a_missing_highs_module_raises_import_error(tmp_path):
    # a scipy install without the extension: the loader must say so
    fake = tmp_path / "scipy"
    fake.mkdir()
    (fake / "__init__.py").write_text("__version__ = '0.0'\n")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(tmp_path)!r})\n"
        "try:\n"
        "    import pclopt.exact\n"
        "except ImportError as exc:\n"
        "    import json; print(json.dumps(str(exc)))\n"
    )
    message = _run(code)
    assert "has no HiGHS extension module" in message
