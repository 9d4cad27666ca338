"""Orthogonality optimization and the break-angle indeterminacy sweep."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

from simpact import design
from simpact.design import (
    DesignProblem,
    billiards_orthogonality_problem,
    legtail_orthogonality_problem,
    solve_orthogonal,
    sweep_point,
    theta_sweep,
    xi_at_optimum,
)
from simpact.errors import DesignError, DimensionError
from simpact.models import BilliardsModel, LegTailModel
from simpact.uniqueness import verify_commutation


def random_legtail_start(rng, inertia=0.07):
    """Random double-contact pose that is not already orthogonal."""
    while True:
        r_a = np.array([rng.uniform(0.15, 0.6), rng.uniform(-0.6, -0.15)])
        r_b = np.array([rng.uniform(-0.6, -0.15), rng.uniform(-0.6, -0.15)])
        model = LegTailModel(1.0, inertia, r_a, r_b)
        try:
            q = model.double_contact_pose()
        except Exception:
            continue
        grads = model.gap_gradients(q)
        metric = model.metric_at(q)
        from simpact.metric import inner, norm

        value = inner(metric, grads[0], grads[1]) / (norm(metric, grads[0]) * norm(metric, grads[1]))
        if 1e-3 < abs(value) < 0.95:
            return model, q


class TestSolveOrthogonal:
    def test_billiards_converges_to_right_angle(self):
        model = BilliardsModel([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
        q0 = model.double_contact_configuration(math.pi / 3)
        result = solve_orthogonal(billiards_orthogonality_problem(model, q0))
        assert abs(result.inner_value) <= 1e-6
        assert model.contact_angle(result.q_opt) == pytest.approx(
            math.pi / 2, abs=1e-9
        )
        np.testing.assert_allclose(model.gaps(result.q_opt), 0.0, atol=1e-9 * 0.2)

    def test_orthogonal_start_returns_immediately(self):
        model = BilliardsModel([1.0, 2.0, 1.5], [0.1, 0.15, 0.12])
        q0 = model.double_contact_configuration(math.pi / 2)
        result = solve_orthogonal(billiards_orthogonality_problem(model, q0))
        assert result.iterations == 0
        np.testing.assert_array_equal(result.q_opt, q0)

    def test_legtail_random_starts(self, rng):
        for _ in range(5):
            model, q0 = random_legtail_start(rng)
            problem = legtail_orthogonality_problem(model, q0, tol_inner=1e-10)
            result = solve_orthogonal(problem)
            assert result.iterations <= 200
            assert abs(result.inner_value) <= 1e-10
            assert max(abs(result.residuals[0]), abs(result.residuals[1])) <= 1e-9

    def test_open_gaps_rejected(self):
        model = BilliardsModel([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
        q0 = model.double_contact_configuration(2.0)
        q0[0] += 0.1  # open gap a well beyond the loose tolerance
        with pytest.raises(DesignError):
            solve_orthogonal(billiards_orthogonality_problem(model, q0))

    def test_needs_three_free_variables(self):
        model = BilliardsModel([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
        q0 = model.double_contact_configuration(2.0)
        with pytest.raises(DimensionError):
            DesignProblem(
                model_factory=lambda p: model,
                q0=q0,
                params0=np.zeros(0),
                free_q=(0, 1),
            )

    def test_iteration_cap_enforced(self):
        model = BilliardsModel([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
        q0 = model.double_contact_configuration(math.pi / 3)
        problem = billiards_orthogonality_problem(model, q0)
        with mock.patch.object(design, "MAX_ITER", 1), pytest.raises(DesignError):
            solve_orthogonal(problem)

    def test_rank_collapse_rejected(self):
        # The residuals ignore every free parameter: the Jacobian is zero.
        model = BilliardsModel([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
        problem = DesignProblem(
            model_factory=lambda params: model,
            q0=model.double_contact_configuration(math.pi / 3),
            params0=np.zeros(3),
            free_q=(),
            free_params=(0, 1, 2),
        )
        with pytest.raises(DesignError, match="rank collapse"):
            solve_orthogonal(problem)

    def test_commutation_and_xi_at_optimum(self, rng):
        model, q0 = random_legtail_start(rng)
        problem = legtail_orthogonality_problem(model, q0, tol_inner=1e-10)
        result = solve_orthogonal(problem)
        opt_model = problem.model_factory(result.params_opt)
        grads = opt_model.gap_gradients(result.q_opt)
        metric = opt_model.metric_at(result.q_opt)
        report = verify_commutation(
            metric, grads[0], grads[1], samples=100, seed=11, tol=1e-8
        )
        assert report.commutes and report.orthogonal
        assert xi_at_optimum(opt_model, result.q_opt, samples=100, seed=2) < 1e-8

    def test_minimum_norm_solution(self, rng):
        # The pseudoinverse step sequence should land within ten percent
        # of the best displacement found by randomized multi-start. Each
        # start perturbs the free offsets ax and bx and closes both gaps
        # at the perturbed design's double-contact pose, so every one
        # must converge.
        model, q0 = random_legtail_start(rng)
        problem = legtail_orthogonality_problem(model, q0, tol_inner=1e-9)
        x0 = problem.pack(problem.q0, problem.params0)
        base = solve_orthogonal(problem)
        displacements = [base.displacement]
        free = list(problem.free_params)
        for _ in range(20):
            params = problem.params0.copy()
            params[free] += rng.normal(scale=0.02, size=len(free))
            q = problem.model_factory(params).double_contact_pose()
            res = solve_orthogonal(dataclasses.replace(problem, q0=q, params0=params))
            displacements.append(
                float(np.linalg.norm(problem.pack(res.q_opt, res.params_opt) - x0))
            )
        assert base.displacement <= 1.1 * min(displacements)


class TestThetaSweep:
    def test_zeros_and_interior(self):
        model = BilliardsModel([1.0, 1.0, 9.0], [0.1, 0.1, 0.3])
        assert sweep_point(model, math.pi / 2) < 1e-10
        assert sweep_point(model, math.pi) < 1e-10
        assert sweep_point(model, 2 * math.pi / 5) > 1e-3

    def test_equal_mass_interior_positive(self):
        model = BilliardsModel([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
        assert sweep_point(model, 2 * math.pi / 5) > 1e-3

    def test_curve_shape(self):
        model = BilliardsModel([1.0, 1.0, 9.0], [0.1, 0.1, 0.3])
        lo = model.min_break_angle() + 1e-3
        curve = theta_sweep(model, lo, math.pi, 60)
        assert curve.shape == (60, 2)
        assert curve[:, 1].max() > 1e-3
        assert curve[-1, 1] < 1e-8  # grazing end

    @pytest.mark.parametrize(
        "masses, radii",
        [([1.0, 1.0, 5.0], [0.1, 0.1, 0.2]), ([1.0, 1.0, 9.0], [0.1, 0.1, 0.3])],
    )
    def test_sweep_ending_at_grazing(self, masses, radii):
        # At theta = pi the cue momentum is tangent to both normals to
        # within 1e-16, so the two orders differ by rounding alone.
        model = BilliardsModel(masses, radii)
        curve = theta_sweep(model, model.min_break_angle(), math.pi, 40)
        assert np.all(np.isfinite(curve))
        assert curve[-1, 0] == math.pi
        assert curve[-1, 1] < 1e-15

    def test_below_contact_limit_rejected(self):
        model = BilliardsModel([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
        with pytest.raises(ValueError):
            theta_sweep(model, 0.1, math.pi, 10)
        with pytest.raises(ValueError):
            theta_sweep(model, 2.0, 3.5, 10)  # beyond pi
        with pytest.raises(ValueError):
            theta_sweep(model, 2.0, 2.0, 10)  # empty range
