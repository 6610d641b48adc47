"""``configure_sample`` against the per-edge reference loop.

The configurator precomputes its constraint scope and solver bounds once
and converts a chip's bounds with one vectorised divide and floor.  The
reference below rebuilds everything edge by edge for every chip; both
must return the same verdict and the same assignment, bit for bit.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.difference import REFERENCE, DifferenceConstraint, solve_difference_system
from repro.core.results import Buffer, BufferPlan
from repro.core.sample_solver import ConstraintTopology
from repro.tuning.configurator import PostSiliconConfigurator

_TOL = 1e-9


def _reference_configure(configurator, setup_bound, hold_bound):
    """Edge-by-edge configuration of one chip (the slow oracle)."""
    violated = np.where((setup_bound < -_TOL) | (hold_bound < -_TOL))[0]
    if violated.size == 0:
        return True, {}
    var_of_ff = configurator._var_of_ff
    launch, capture = configurator.topology.edge_launch, configurator.topology.edge_capture
    for k in violated:
        if int(launch[k]) not in var_of_ff and int(capture[k]) not in var_of_ff:
            return False, None
    step = configurator.step
    scale = step if step > 0 else 1.0
    constraints = []
    for k in sorted(set(configurator._scope) | {int(k) for k in violated}):
        i, j = int(launch[k]), int(capture[k])
        bs = float(setup_bound[k]) / scale
        bh = float(hold_bound[k]) / scale
        if step > 0:
            bs = math.floor(bs + 1e-9)
            bh = math.floor(bh + 1e-9)
        vi, vj = var_of_ff.get(i), var_of_ff.get(j)
        if vi is not None and vj is not None:
            if vi == vj:
                if bs < -_TOL or bh < -_TOL:
                    return False, None
                continue
            constraints.append(DifferenceConstraint(vi, vj, bs))
            constraints.append(DifferenceConstraint(vj, vi, bh))
        elif vi is not None:
            constraints.append(DifferenceConstraint(vi, REFERENCE, bs))
            constraints.append(DifferenceConstraint(REFERENCE, vi, bh))
        elif vj is not None:
            constraints.append(DifferenceConstraint(REFERENCE, vj, bs))
            constraints.append(DifferenceConstraint(vj, REFERENCE, bh))
        elif bs < -_TOL or bh < -_TOL:
            return False, None
    lower, upper = configurator._solver_bounds()
    variables = list(range(configurator.n_variables))
    assignment = solve_difference_system(
        variables, constraints, {v: lower[v] for v in variables}, {v: upper[v] for v in variables}
    )
    if assignment is None:
        return False, None
    return True, {
        configurator.topology.ff_names[ff]: float(assignment[var] * scale)
        for ff, var in var_of_ff.items()
    }


@st.composite
def chips(draw):
    n_ffs = draw(st.integers(2, 7))
    n_edges = draw(st.integers(1, 10))
    ends = st.integers(0, n_ffs - 1)
    launch = np.array(draw(st.lists(ends, min_size=n_edges, max_size=n_edges)))
    # Mostly distinct ends; an occasional self-loop edge stays possible.
    offset = np.array(draw(st.lists(st.sampled_from([1, 1, 2, n_ffs]), min_size=n_edges,
                                    max_size=n_edges)))
    capture = (launch + offset) % n_ffs
    topology = ConstraintTopology([f"ff{i}" for i in range(n_ffs)], launch, capture)
    step = draw(st.sampled_from([0.0, 0.5, 0.3]))
    buffered = sorted(draw(st.sets(ends, min_size=n_ffs - 2, max_size=n_ffs)))
    buffers = [
        Buffer(f"ff{i}", lower=-draw(st.sampled_from([0.0, 0.9, 3.0, 3.0])),
               upper=draw(st.sampled_from([0.0, 2.4, 3.0, 3.0])), step=step)
        for i in buffered
    ]
    groups = []
    if len(buffered) >= 2 and draw(st.booleans()):
        groups = [[f"ff{i}" for i in buffered[:2]]] + [[f"ff{i}"] for i in buffered[2:]]
    plan = BufferPlan(buffers=buffers, target_period=10.0, groups=groups)
    # Setup bounds are often violated, hold bounds seldom: most failing
    # chips can then be rescued, which exercises the assignment.
    setup_bound = st.one_of(st.floats(-1, 4), st.sampled_from([0.0, -0.0, -0.5, 2.0, 0.6]))
    hold_bound = st.one_of(st.floats(1, 6), st.sampled_from([-0.0, 3.0, -0.3]))
    setup = np.array(draw(st.lists(setup_bound, min_size=n_edges, max_size=n_edges)))
    hold = np.array(draw(st.lists(hold_bound, min_size=n_edges, max_size=n_edges)))
    return PostSiliconConfigurator(topology, plan, step=step), setup, hold


class TestConfiguratorMatchesReference:
    @given(chips())
    @settings(max_examples=300)
    def test_same_verdict_and_assignment(self, chip):
        configurator, setup, hold = chip
        ok, assignment = configurator.configure_sample(setup, hold)
        want_ok, want = _reference_configure(configurator, setup, hold)
        assert ok == want_ok
        if want is None:
            assert assignment is None
        else:
            assert list(assignment) == list(want)
            assert [np.float64(v).tobytes() for v in assignment.values()] == [
                np.float64(v).tobytes() for v in want.values()
            ]
