"""The concentration LP's direct arrays against the modelling front end.

``concentration_lp`` writes the arrays of the per-sample concentration LP
without building :class:`~repro.milp.model.Model` objects.  The reference
below builds the same LP term by term with ``Model``/``LinExpr`` and
converts it with ``Model.to_arrays``; both must agree bit for bit, signs
of zeros included, so the simplex sees the same problem either way.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.difference import REFERENCE, DifferenceConstraint
from repro.core.sample_solver import SampleProblem, concentration_lp
from repro.milp.expr import LinExpr
from repro.milp.model import Model


def _model_arrays(problem, support, constraints, targets):
    """The concentration LP built through the modelling front end."""
    model = Model("concentrate")
    x_vars = {}
    objective_terms = []
    for ff in sorted(support):
        x = model.add_var(f"x_{ff}", lb=float(problem.lower[ff]), ub=float(problem.upper[ff]))
        span = float(problem.upper[ff] - problem.lower[ff]) + abs(float(targets[ff])) + 1.0
        t = model.add_var(f"t_{ff}", lb=0.0, ub=span)
        x_vars[ff] = x
        target = float(targets[ff])
        model.add_constr(t >= x - target)
        model.add_constr(t >= target - x)
        objective_terms.append(t)
    for constraint in constraints:
        if constraint.u == REFERENCE:
            model.add_constr(-1.0 * x_vars[constraint.v] <= constraint.weight)
        elif constraint.v == REFERENCE:
            model.add_constr(1.0 * x_vars[constraint.u] <= constraint.weight)
        else:
            model.add_constr(x_vars[constraint.u] - x_vars[constraint.v] <= constraint.weight)
    model.set_objective(LinExpr.sum_of(objective_terms))
    return model.to_arrays()


#: Values that stress signed zeros as well as ordinary numbers.
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0]),
    st.integers(-8, 8).map(float),
    st.floats(-10, 10, allow_nan=False),
)


@st.composite
def concentration_problems(draw):
    n_ffs = draw(st.integers(2, 8))
    support = draw(st.sets(st.integers(0, n_ffs - 1), min_size=2, max_size=n_ffs))
    lower = np.array(draw(st.lists(st.sampled_from([0.0, -0.0, -2.0, -5.0, -7.5]),
                                   min_size=n_ffs, max_size=n_ffs)))
    upper = lower + np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 4.0, 6.25]),
                                           min_size=n_ffs, max_size=n_ffs)))
    problem = SampleProblem(
        setup_bound=np.zeros(1), hold_bound=np.zeros(1), lower=lower, upper=upper
    )
    targets = np.array(draw(st.lists(_VALUES, min_size=n_ffs, max_size=n_ffs)))
    ends = st.sampled_from(sorted(support) + [REFERENCE])
    constraints = []
    for _ in range(draw(st.integers(0, 12))):
        u, v = draw(ends), draw(ends)
        if u == REFERENCE and v == REFERENCE:
            continue
        constraints.append(DifferenceConstraint(u, v, draw(_VALUES)))
    return problem, support, constraints, targets


class TestConcentrationArrays:
    @given(concentration_problems())
    @settings(max_examples=200)
    def test_bitwise_equal_to_model_to_arrays(self, case):
        problem, support, constraints, targets = case
        direct = concentration_lp(problem, sorted(support), constraints, targets)
        reference = _model_arrays(problem, support, constraints, targets)
        assert reference["a_eq"] is None and reference["b_eq"] is None
        assert reference["integer_indices"] == [] and reference["objective_constant"] == 0.0
        for key in ("c", "a_ub", "b_ub", "lower", "upper"):
            got, want = direct[key], reference[key]
            assert got.dtype == want.dtype and got.shape == want.shape, key
            assert got.tobytes() == want.tobytes(), key

    def test_signed_zeros(self):
        # Zero weights and targets are where the front end leaves -0.0.
        problem = SampleProblem(
            setup_bound=np.zeros(1), hold_bound=np.zeros(1),
            lower=np.array([-2.0, -2.0]), upper=np.array([2.0, 2.0]),
        )
        constraints = [
            DifferenceConstraint(0, 1, 0.0),
            DifferenceConstraint(REFERENCE, 1, 0.0),
            DifferenceConstraint(0, REFERENCE, -0.0),
        ]
        targets = np.array([0.0, -0.0])
        direct = concentration_lp(problem, [0, 1], constraints, targets)
        assert np.signbit(direct["a_ub"][0, 2]) and np.signbit(direct["a_ub"][1, 3])
        assert list(np.signbit(direct["b_ub"])) == [False] * 4 + [True, False, True]
        reference = _model_arrays(problem, {0, 1}, constraints, targets)
        assert direct["a_ub"].tobytes() == reference["a_ub"].tobytes()
        assert direct["b_ub"].tobytes() == reference["b_ub"].tobytes()
