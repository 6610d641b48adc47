"""Dense two-phase primal simplex.

Solves the linear program::

    minimise    c' x
    subject to  A_ub x <= b_ub
                A_eq x == b_eq
                lower <= x <= upper

All bounds must be finite (the callers in this package always have finite
tuning ranges / big-M bounds); the solver shifts each variable by its lower
bound, adds upper-bound rows and slack/artificial variables, and runs a
standard two-phase tableau simplex with Bland's anti-cycling rule.

The problems produced by the buffer-insertion flow have tens of variables,
so a dense tableau is adequate, but the solver runs hundreds of times per
flow.  Every step is therefore a whole-array numpy expression: the slack
and artificial columns are placed by indexing, Bland's entering and
leaving choices are masked reductions, and a pivot updates all affected
rows at once.  Each of these performs exactly the floating-point
operations of the textbook row-by-row loop, in the same pivot sequence,
so results are bitwise reproducible against it (``tests/milp`` keeps the
loop formulation as an oracle).  The scipy backend
(:mod:`repro.milp.backends`) can be selected for larger instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.milp.status import SolveStatus

_TOL = 1e-9


@dataclass
class LpResult:
    """Raw result of an LP solve on arrays (not yet mapped back to Vars)."""

    status: SolveStatus
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    iterations: int = 0


def solve_lp_arrays(
    c: np.ndarray,
    a_ub: Optional[np.ndarray],
    b_ub: Optional[np.ndarray],
    a_eq: Optional[np.ndarray],
    b_eq: Optional[np.ndarray],
    lower: np.ndarray,
    upper: np.ndarray,
    max_iterations: int = 20000,
) -> LpResult:
    """Solve a bounded LP given as dense arrays.  See module docstring."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if np.any(~np.isfinite(lower)) or np.any(~np.isfinite(upper)):
        raise ValueError("simplex backend requires finite variable bounds")
    if np.any(upper < lower - _TOL):
        return LpResult(SolveStatus.INFEASIBLE)

    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float).reshape(-1, n)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()

    # Shift variables so that y = x - lower >= 0.
    span = upper - lower
    b_ub_shift = b_ub - a_ub @ lower if a_ub.size else b_ub
    b_eq_shift = b_eq - a_eq @ lower if a_eq.size else b_eq
    objective_shift = float(c @ lower)

    # Upper bounds become explicit <= rows (every span is finite, see above).
    a_ub_full = np.vstack([a_ub, np.eye(n)])
    b_ub_full = np.concatenate([b_ub_shift, span])

    result = _two_phase_simplex(c, a_ub_full, b_ub_full, a_eq, b_eq_shift, max_iterations)
    if result.status.has_solution and result.x is not None:
        x = result.x[:n] + lower
        objective = float(c @ result.x[:n]) + objective_shift
        return LpResult(result.status, x=x, objective=objective, iterations=result.iterations)
    return result


def _two_phase_simplex(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    max_iterations: int,
) -> LpResult:
    """Two-phase simplex for ``min c'y, A_ub y <= b_ub, A_eq y = b_eq, y >= 0``."""
    n = c.shape[0]
    m_ub = a_ub.shape[0]
    m = m_ub + a_eq.shape[0]

    if m == 0:
        # Only bounds: minimise by setting y to 0 for non-negative costs.
        if np.any(c < -_TOL):  # pragma: no cover - callers always bound variables
            return LpResult(SolveStatus.UNBOUNDED)
        return LpResult(SolveStatus.OPTIMAL, x=np.zeros(n), objective=0.0, iterations=0)

    # Rows [A | slack | artificial | b] with b >= 0: rows with a negative
    # rhs are negated, which turns a <= row into a >= row.
    a = np.vstack([a_ub, a_eq])
    b = np.concatenate([b_ub, b_eq])
    flipped = b < 0
    a[flipped] *= -1.0
    b[flipped] *= -1.0

    # One slack column per inequality row: +1 for a <= row, -1 (surplus)
    # for a flipped one.  Equality rows and flipped rows get an artificial
    # column, because a surplus column cannot serve as an initial basis.
    ineq_rows = np.arange(m_ub)
    art_rows = np.flatnonzero(flipped | (np.arange(m) >= m_ub))
    n_slack, n_art = m_ub, art_rows.size
    total_cols = n + n_slack + n_art

    tableau = np.zeros((m, total_cols + 1))
    tableau[:, :n] = a
    tableau[ineq_rows, n + ineq_rows] = np.where(flipped[:m_ub], -1.0, 1.0)
    tableau[art_rows, n + n_slack + np.arange(n_art)] = 1.0
    tableau[:, -1] = b
    basis = n + np.arange(m)
    basis[art_rows] = n + n_slack + np.arange(n_art)
    iterations = 0

    # ------------------------------------------------------------------
    # Phase 1: minimise the sum of artificial variables.
    # ------------------------------------------------------------------
    if n_art:
        phase1_cost = np.zeros(total_cols)
        phase1_cost[n + n_slack:] = 1.0
        status, iterations = _run_simplex(tableau, basis, phase1_cost, max_iterations)
        if status is not SolveStatus.OPTIMAL:
            return LpResult(status, iterations=iterations)
        if _objective_value(tableau, basis, phase1_cost) > 1e-7:
            return LpResult(SolveStatus.INFEASIBLE, iterations=iterations)
        _drive_out_artificials(tableau, basis, n + n_slack)
        # An artificial still basic sits on a redundant row (a dependent
        # equality): the row is all zeros over the real columns, so drop it.
        kept = basis < n + n_slack
        if not np.all(kept):
            tableau, basis = tableau[kept], basis[kept]
        # Drop artificial columns.
        tableau = np.hstack([tableau[:, : n + n_slack], tableau[:, -1:]])
        total_cols = n + n_slack

    # ------------------------------------------------------------------
    # Phase 2: minimise the real objective.
    # ------------------------------------------------------------------
    cost = np.zeros(total_cols)
    cost[:n] = c
    status, iters2 = _run_simplex(tableau, basis, cost, max_iterations)
    iterations += iters2
    if status is not SolveStatus.OPTIMAL:
        return LpResult(status, iterations=iterations)

    y = np.zeros(total_cols)
    y[basis] = tableau[:, -1]
    objective = float(cost @ y)
    return LpResult(SolveStatus.OPTIMAL, x=y[:n], objective=objective, iterations=iterations)


def _objective_value(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> float:
    # Summed left to right, not as a dot product: the phase-1 infeasibility
    # test must round exactly like the row-by-row formulation.
    value = 0.0
    for term in (cost[basis] * tableau[:, -1]).tolist():
        value += term
    return value


def _drive_out_artificials(tableau: np.ndarray, basis: np.ndarray, n_real: int) -> None:
    """Pivot artificial variables out of the basis where possible.

    An artificial left basic marks a redundant row (no non-artificial
    column has a non-zero entry in it).
    """
    for i in np.flatnonzero(basis >= n_real).tolist():
        nonzero = np.flatnonzero(np.abs(tableau[i, :n_real]) > 1e-9)
        if nonzero.size:
            _pivot(tableau, i, int(nonzero[0]))
            basis[i] = nonzero[0]


def _run_simplex(
    tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray, max_iterations: int
) -> Tuple[SolveStatus, int]:
    """Run primal simplex pivots in place until optimality."""
    n_total = tableau.shape[1] - 1
    body = tableau[:, :n_total]
    rhs = tableau[:, -1]
    iterations = 0

    while iterations < max_iterations:
        iterations += 1
        # Reduced costs: r_j = c_j - c_B' B^-1 A_j  (computed from the tableau).
        reduced = cost[:n_total] - cost[basis] @ body
        # Bland's rule: smallest index with negative reduced cost.
        improving = reduced < -_TOL
        if not improving.any():
            return SolveStatus.OPTIMAL, iterations
        entering = int(improving.argmax())

        column = tableau[:, entering]
        positive = column > _TOL
        if not positive.any():
            return SolveStatus.UNBOUNDED, iterations
        ratios = rhs[positive] / column[positive]
        # Bland's rule on the leaving variable: among the minimum ratios pick
        # the row whose basic variable has the smallest index.
        rows = np.flatnonzero(positive)[ratios <= ratios.min() + _TOL]
        leaving = int(rows[basis[rows].argmin()])
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering

    return SolveStatus.ITERATION_LIMIT, iterations


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan pivot on (row, col)."""
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    update = np.abs(factors) > _TOL
    update[row] = False
    tableau[update] -= factors[update, None] * tableau[row]
