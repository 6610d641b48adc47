"""Array kernels vs the scalar oracle.

The Clark-kernel operations (stack/add/scale, ``clark_max_coeffs``, the
batched ``means + sens @ samples`` evaluation) must agree with the scalar
:class:`~repro.variation.canonical.CanonicalForm` oracle to ``1e-12``.
The cell-batched 3-D forms must additionally match a per-cell loop of
the 2-D kernel bit for bit (flattened reduction order), and the whole
level-ordered propagation sweep must agree with ``method="scalar"``.
"""

import numpy as np

from repro.variation.arrayforms import ArrayForms, clark_max_coeffs
from repro.variation.canonical import CanonicalForm

TOL = 1e-12


def _random_forms(rng, n=10, sources=4):
    return [
        CanonicalForm(
            rng.normal(10.0, 2.0), rng.normal(size=sources) * 0.5, abs(rng.normal()) * 0.3
        )
        for _ in range(n)
    ]


def _forms_close(form, oracle, tol=TOL):
    assert abs(form.mean - oracle.mean) <= tol
    assert np.max(np.abs(form.sensitivities - oracle.sensitivities)) <= tol
    assert abs(form.variance - oracle.variance) <= tol


class TestKernelOpsAgainstScalarOracle:
    def test_stack_roundtrip(self, rng):
        forms = _random_forms(rng)
        stacked = ArrayForms.from_forms(forms)
        for i, form in enumerate(forms):
            _forms_close(stacked.form(i), form, tol=0.0)

    def test_add_scale_negate(self, rng):
        forms_a = _random_forms(rng)
        forms_b = _random_forms(rng)
        a = ArrayForms.from_forms(forms_a)
        b = ArrayForms.from_forms(forms_b)
        summed = a.add(b)
        scaled = a.scale(1.7)
        negated = a.negate()
        for i, (fa, fb) in enumerate(zip(forms_a, forms_b, strict=True)):
            _forms_close(summed.form(i), fa + fb)
            _forms_close(scaled.form(i), fa * 1.7)
            _forms_close(negated.form(i), -fa)

    def test_clark_max_matches_oracle(self, rng):
        forms_a = _random_forms(rng)
        forms_b = _random_forms(rng)
        a = ArrayForms.from_forms(forms_a)
        b = ArrayForms.from_forms(forms_b)
        out = a.clark_max(b)
        for i, (fa, fb) in enumerate(zip(forms_a, forms_b, strict=True)):
            _forms_close(out.form(i), fa.max(fb))

    def test_clark_max_degenerate_branch(self):
        # Perfectly correlated equal-spread operands: theta == 0, the
        # kernel must pick the larger mean exactly.
        sens = np.array([0.5, -0.25, 0.0])
        fa = CanonicalForm(3.0, sens, 0.0)
        fb = CanonicalForm(2.0, sens.copy(), 0.0)
        a = ArrayForms.from_forms([fa, fb])
        b = ArrayForms.from_forms([fb, fa])
        out = a.clark_max(b)
        _forms_close(out.form(0), fa, tol=0.0)
        _forms_close(out.form(1), fa, tol=0.0)

    def test_batched_evaluation(self, rng):
        forms = _random_forms(rng, n=6)
        stacked = ArrayForms.from_forms(forms)
        samples = rng.normal(size=(4, 32))
        values = stacked.evaluate(samples)
        for i, form in enumerate(forms):
            expected = form.mean + form.sensitivities @ samples
            assert np.max(np.abs(values[i] - expected)) <= TOL

    def test_evaluation_with_independent_noise(self, rng):
        forms = _random_forms(rng, n=5)
        stacked = ArrayForms.from_forms(forms)
        samples = rng.normal(size=(4, 16))
        noise = rng.normal(size=(5, 16))
        values = stacked.evaluate(samples, noise)
        for i, form in enumerate(forms):
            expected = form.mean + form.sensitivities @ samples + form.independent * noise[i]
            assert np.max(np.abs(values[i] - expected)) <= TOL


class TestCellAxis:
    def test_stack_cells_shape_and_views(self, rng):
        cells = [ArrayForms.from_forms(_random_forms(rng)) for _ in range(3)]
        batched = ArrayForms.stack_cells(cells)
        assert batched.n_cells == 3
        assert batched.n_forms == cells[0].n_forms
        assert batched.n_sources == cells[0].n_sources
        for c, cell in enumerate(cells):
            np.testing.assert_array_equal(batched.cell(c).coeffs, cell.coeffs)

    def test_batched_clark_matches_per_cell(self, rng):
        cells_a = [ArrayForms.from_forms(_random_forms(rng)) for _ in range(4)]
        cells_b = [ArrayForms.from_forms(_random_forms(rng)) for _ in range(4)]
        batched = ArrayForms.stack_cells(cells_a).clark_max(ArrayForms.stack_cells(cells_b))
        for c, (a, b) in enumerate(zip(cells_a, cells_b, strict=True)):
            np.testing.assert_array_equal(batched.cell(c).coeffs, a.clark_max(b).coeffs)

    def test_batched_clark_vs_scalar_oracle(self, rng):
        forms_a = [_random_forms(rng, n=5) for _ in range(3)]
        forms_b = [_random_forms(rng, n=5) for _ in range(3)]
        batched = ArrayForms.stack_cells(
            [ArrayForms.from_forms(f) for f in forms_a]
        ).clark_max(ArrayForms.stack_cells([ArrayForms.from_forms(f) for f in forms_b]))
        for c in range(3):
            cell = batched.cell(c)
            for i, (fa, fb) in enumerate(zip(forms_a[c], forms_b[c], strict=True)):
                _forms_close(cell.form(i), fa.max(fb))

    def test_batched_kernel_leading_dims(self, rng):
        # Raw kernel entry point with arbitrary leading dims.
        a = rng.normal(size=(2, 3, 5, 6))
        b = rng.normal(size=(2, 3, 5, 6))
        a[..., -1] = np.abs(a[..., -1])
        b[..., -1] = np.abs(b[..., -1])
        out = clark_max_coeffs(a, b)
        for i in range(2):
            for j in range(3):
                np.testing.assert_array_equal(out[i, j], clark_max_coeffs(a[i, j], b[i, j]))

    def test_batched_evaluation_per_cell_samples(self, rng):
        cells = [ArrayForms.from_forms(_random_forms(rng, n=4)) for _ in range(3)]
        batched = ArrayForms.stack_cells(cells)
        shared = rng.normal(size=(3, 4, 20))
        values = batched.evaluate(shared)
        assert values.shape == (3, 4, 20)
        for c, cell in enumerate(cells):
            np.testing.assert_allclose(
                values[c], cell.evaluate(shared[c]), atol=TOL, rtol=0.0
            )


class TestPropagationSweep:
    def test_sweep_agrees_with_scalar_path(self, tiny_design):
        # Full level-ordered array sweep vs the scalar oracle.
        from repro.timing.graph import TimingGraph
        from repro.timing.propagate import all_ff_pair_delay_forms

        graph = TimingGraph(tiny_design)
        scalar = all_ff_pair_delay_forms(graph, method="scalar")
        swept = all_ff_pair_delay_forms(graph, method="array")
        assert set(swept) == set(scalar)
        for pair, (smax, smin) in scalar.items():
            amax, amin = swept[pair]
            _forms_close(amax, smax)
            _forms_close(amin, smin)
