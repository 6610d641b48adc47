"""The numpy simplex against the reference loop simplex.

:mod:`repro.milp.simplex` writes Bland's rule and the Gauss–Jordan pivot
as whole-array expressions; :mod:`tests.milp.loop_simplex` is the same
algorithm written row by row.  Both must take the same pivots, so they
must agree on the status, the iteration count and every bit of ``x``.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.milp.simplex import solve_lp_arrays
from tests.milp import loop_simplex

#: Small integers make degenerate vertices and ratio-test ties common.
_COEF = st.integers(-2, 2).map(float)


@st.composite
def _rhs(draw, a, x0, slack):
    """``a @ x0 + slack`` (a feasible system), or a free rhs."""
    if a is None:
        return None
    if draw(st.booleans()):
        return a @ x0 + np.array(draw(st.lists(slack, min_size=len(a), max_size=len(a))))
    return np.array(draw(st.lists(st.integers(-3, 3).map(float), min_size=len(a),
                                  max_size=len(a))))


@st.composite
def tie_prone_lps(draw):
    """Bounded LPs with integer data, negative rhs and equality rows.

    Most systems are built around an integer point of the box, with zero
    slack on many rows: that makes degenerate vertices and ratio-test
    ties common.
    """
    n = draw(st.integers(1, 5))
    m_ub = draw(st.integers(0, 5))
    m_eq = draw(st.integers(0, 2))

    def matrix(rows):
        if rows == 0:
            return None
        return np.array(draw(st.lists(st.lists(_COEF, min_size=n, max_size=n),
                                      min_size=rows, max_size=rows)))

    c = np.array(draw(st.lists(_COEF, min_size=n, max_size=n)))
    lower = np.array(draw(st.lists(st.integers(-3, 0).map(float), min_size=n, max_size=n)))
    width = np.array(draw(st.lists(st.integers(0, 4).map(float), min_size=n, max_size=n)))
    x0 = np.floor(lower + width * draw(st.floats(0, 1)))
    a_ub, a_eq = matrix(m_ub), matrix(m_eq)
    b_ub = draw(_rhs(a_ub, x0, st.sampled_from([0.0, 0.0, 1.0, 2.0])))
    b_eq = draw(_rhs(a_eq, x0, st.just(0.0)))
    return c, a_ub, b_ub, a_eq, b_eq, lower, lower + width


@st.composite
def float_lps(draw):
    """Bounded LPs with general float data."""
    n = draw(st.integers(1, 5))
    m_ub = draw(st.integers(1, 5))
    m_eq = draw(st.integers(0, 1))
    floats = st.floats(-2, 2, allow_nan=False)

    def matrix(rows):
        return np.array(draw(st.lists(st.lists(floats, min_size=n, max_size=n),
                                      min_size=rows, max_size=rows)))

    c = np.array(draw(st.lists(floats, min_size=n, max_size=n)))
    lower = np.array(draw(st.lists(st.floats(-3, 0), min_size=n, max_size=n)))
    upper = lower + np.array(draw(st.lists(st.floats(0, 4), min_size=n, max_size=n)))
    x0 = lower + (upper - lower) * draw(st.floats(0, 1))
    a_ub = matrix(m_ub)
    a_eq = matrix(m_eq) if m_eq else None
    b_ub = draw(_rhs(a_ub, x0, st.floats(0, 1)))
    b_eq = draw(_rhs(a_eq, x0, st.just(0.0)))
    return c, a_ub, b_ub, a_eq, b_eq, lower, upper


def _assert_same_pivots(lp):
    try:
        old = loop_simplex.solve_lp_arrays(*lp)
    except IndexError:
        # The loop version crashes on dependent equality rows; the numpy
        # version drops them (covered in test_simplex.py).
        assume(False)
    new = solve_lp_arrays(*lp)
    assert new.status is old.status
    assert new.iterations == old.iterations
    if old.x is None:
        assert new.x is None
    else:
        assert new.x.tobytes() == old.x.tobytes()
        assert np.float64(new.objective).tobytes() == np.float64(old.objective).tobytes()


class TestSimplexMatchesLoopOracle:
    @given(tie_prone_lps())
    @settings(max_examples=200)
    def test_integer_lps_take_identical_pivots(self, lp):
        _assert_same_pivots(lp)

    @given(float_lps())
    @settings(max_examples=200)
    def test_float_lps_take_identical_pivots(self, lp):
        _assert_same_pivots(lp)

    def test_degenerate_ratio_tie(self):
        # Three rows tie in the first ratio test (all rhs 1, column ones).
        lp = (
            np.array([-1.0, -1.0, -1.0]),
            np.vstack([np.eye(3), np.ones((1, 3))]),
            np.ones(4),
            None,
            None,
            np.zeros(3),
            np.ones(3),
        )
        _assert_same_pivots(lp)
