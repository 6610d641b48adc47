"""Cross-validation of the built-in simplex against scipy's HiGHS."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.milp.backends import HAVE_SCIPY, default_backend, solve_lp
from repro.milp.status import SolveStatus

pytestmark = pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")


def _random_lp(rng, n_vars, n_constraints):
    c = rng.uniform(-1, 1, n_vars)
    a_ub = rng.uniform(-1, 1, (n_constraints, n_vars))
    # Make the all-zero point feasible so the LP is feasible by construction.
    b_ub = rng.uniform(0.5, 2.0, n_constraints)
    lower = rng.uniform(-3, -1, n_vars)
    upper = rng.uniform(1, 3, n_vars)
    return c, a_ub, b_ub, lower, upper


class TestBackendAgreement:
    def test_default_backend_prefers_scipy(self):
        assert default_backend() == "scipy"

    @pytest.mark.parametrize("seed", range(8))
    def test_random_feasible_lps_agree(self, seed):
        rng = np.random.default_rng(seed)
        c, a_ub, b_ub, lower, upper = _random_lp(rng, n_vars=6, n_constraints=8)
        own = solve_lp(c, a_ub, b_ub, None, None, lower, upper, backend="simplex")
        ref = solve_lp(c, a_ub, b_ub, None, None, lower, upper, backend="scipy")
        assert own.status is SolveStatus.OPTIMAL
        assert ref.status is SolveStatus.OPTIMAL
        assert own.objective == pytest.approx(ref.objective, abs=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_equality_lps_agree(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 5
        c = rng.uniform(-1, 1, n)
        a_eq = rng.uniform(-1, 1, (2, n))
        x0 = rng.uniform(-0.5, 0.5, n)  # known feasible interior point
        b_eq = a_eq @ x0
        lower = np.full(n, -2.0)
        upper = np.full(n, 2.0)
        own = solve_lp(c, None, None, a_eq, b_eq, lower, upper, backend="simplex")
        ref = solve_lp(c, None, None, a_eq, b_eq, lower, upper, backend="scipy")
        assert own.status is SolveStatus.OPTIMAL and ref.status is SolveStatus.OPTIMAL
        assert own.objective == pytest.approx(ref.objective, abs=1e-6)

    def test_infeasible_agreement(self):
        c = np.array([1.0])
        a_ub = np.array([[1.0], [-1.0]])
        b_ub = np.array([1.0, -3.0])
        own = solve_lp(c, a_ub, b_ub, None, None, np.array([0.0]), np.array([10.0]), backend="simplex")
        ref = solve_lp(c, a_ub, b_ub, None, None, np.array([0.0]), np.array([10.0]), backend="scipy")
        assert own.status is SolveStatus.INFEASIBLE
        assert ref.status is SolveStatus.INFEASIBLE

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            solve_lp(np.array([1.0]), None, None, None, None, np.array([0.0]), np.array([1.0]), backend="cplex")


class TestLazyScipyImport:
    def test_import_leaves_scipy_optimize_unloaded(self):
        # scipy.optimize is imported by the first scipy solve, not by the
        # module: a fresh interpreter that only imports it must not load it.
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "import sys, repro.milp.backends as b; "
            "print(b.HAVE_SCIPY, 'scipy.optimize' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["True", "False"]

    def test_first_scipy_solve_imports_linprog(self):
        result = solve_lp(
            np.array([1.0]), None, None, None, None, np.array([-1.0]), np.array([2.0]),
            backend="scipy",
        )
        assert result.status is SolveStatus.OPTIMAL
        assert result.x == pytest.approx([-1.0])
        assert "scipy.optimize" in sys.modules
