"""LP backends.

Two interchangeable LP engines solve the relaxations inside branch & bound:

* ``"simplex"`` — the built-in dense two-phase simplex
  (:mod:`repro.milp.simplex`), no dependencies beyond numpy;
* ``"scipy"`` — :func:`scipy.optimize.linprog` with the HiGHS method, used
  by default when scipy is importable (faster and numerically hardened).

Both receive the same array form of the problem and return an
:class:`~repro.milp.simplex.LpResult`; the test suite cross-validates them
on randomly generated LPs.
"""

from __future__ import annotations

import importlib.util
from typing import Optional

import numpy as np

from repro.milp.simplex import LpResult, solve_lp_arrays
from repro.milp.status import SolveStatus

#: Whether scipy is installed.  ``scipy.optimize`` itself is imported only
#: by the first scipy solve: the flow's concentration LPs normally run on
#: the built-in simplex, and the import costs a cold process ~0.2 s.
HAVE_SCIPY = importlib.util.find_spec("scipy") is not None


def default_backend() -> str:
    """Name of the preferred LP backend on this installation."""
    return "scipy" if HAVE_SCIPY else "simplex"


def solve_lp(
    c: np.ndarray,
    a_ub: Optional[np.ndarray],
    b_ub: Optional[np.ndarray],
    a_eq: Optional[np.ndarray],
    b_eq: Optional[np.ndarray],
    lower: np.ndarray,
    upper: np.ndarray,
    backend: str = "auto",
    max_iterations: int = 20000,
) -> LpResult:
    """Solve a bounded LP with the requested backend.

    ``backend`` is ``"auto"`` (scipy when available), ``"scipy"`` or
    ``"simplex"``.
    """
    if backend == "auto":
        backend = default_backend()
    if backend == "scipy":
        if not HAVE_SCIPY:
            raise RuntimeError("scipy backend requested but scipy is not installed")
        return _solve_with_scipy(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
    if backend == "simplex":
        return solve_lp_arrays(c, a_ub, b_ub, a_eq, b_eq, lower, upper, max_iterations)
    raise ValueError(f"unknown LP backend {backend!r}")


def _solve_with_scipy(c, a_ub, b_ub, a_eq, b_eq, lower, upper) -> LpResult:
    try:
        from scipy.optimize import linprog
    except ImportError as exc:  # pragma: no cover - scipy installed but broken
        raise RuntimeError("scipy backend requested but scipy.optimize failed to import") from exc

    bounds = list(zip(np.asarray(lower, dtype=float), np.asarray(upper, dtype=float), strict=True))
    result = linprog(
        c,
        A_ub=a_ub if a_ub is not None and np.size(a_ub) else None,
        b_ub=b_ub if b_ub is not None and np.size(b_ub) else None,
        A_eq=a_eq if a_eq is not None and np.size(a_eq) else None,
        b_eq=b_eq if b_eq is not None and np.size(b_eq) else None,
        bounds=bounds,
        method="highs",
    )
    iterations = int(getattr(result, "nit", 0) or 0)
    if result.status == 0:
        return LpResult(SolveStatus.OPTIMAL, x=np.asarray(result.x), objective=float(result.fun), iterations=iterations)
    if result.status == 2:
        return LpResult(SolveStatus.INFEASIBLE, iterations=iterations)
    if result.status == 3:
        return LpResult(SolveStatus.UNBOUNDED, iterations=iterations)
    return LpResult(SolveStatus.ERROR, iterations=iterations)
