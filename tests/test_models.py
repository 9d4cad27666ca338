"""Model library: gradients, builders, and the billiards closed form."""

import math

import numpy as np
import pytest

from simpact.errors import (
    DegenerateNormalsError,
    DimensionError,
    SimpactError,
    VerificationError,
)
from simpact.metric import inner, norm
from simpact.models import (
    BallModel,
    BilliardsModel,
    CradleModel,
    LegTailModel,
    _central_jacobian,
    billiards_build,
    billiards_pair_inner,
    validate_model,
)
from simpact.uniqueness import classify_pair


def legtail():
    return LegTailModel(
        mass=1.2, inertia=0.08, contact_a=(0.3, -0.25), contact_b=(-0.22, -0.25)
    )


class TestInterfaceSuite:
    def test_all_models_pass_gradient_checks(self, rng):
        cradle = CradleModel([1.0, 2.0, 0.5], [0.1, 0.15, 0.2])
        billiards = BilliardsModel([1.0, 2.0, 3.0], [0.1, 0.2, 0.15])
        ball = BallModel(0.7)
        body = legtail()
        # Keep billiards centers apart so gap gradients stay defined.
        base = np.array([0.0, 0.0, 2.0, 0.0, 1.0, 1.5])
        validate_model(cradle, [rng.standard_normal(3) * 2 for _ in range(1000)])
        validate_model(billiards, [base + rng.standard_normal(6) * 0.3 for _ in range(1000)])
        validate_model(ball, [rng.standard_normal(1) for _ in range(1000)])
        validate_model(body, [rng.standard_normal(3) for _ in range(1000)])

    def test_linear_gaps_are_declared_by_the_cradle_and_ball_only(self):
        assert CradleModel([1.0, 2.0], [0.1, 0.1]).linear_gaps
        assert BallModel(0.7).linear_gaps
        assert not BilliardsModel([1.0, 2.0, 3.0], [0.1, 0.2, 0.15]).linear_gaps
        assert not legtail().linear_gaps

    def test_validate_model_rejects_varying_gradients_declared_linear(self, rng):
        class LinearBilliards(BilliardsModel):
            linear_gaps = True

        base = np.array([0.0, 0.0, 2.0, 0.0, 1.0, 1.5])
        samples = [base + rng.standard_normal(6) * 0.3 for _ in range(5)]
        validate_model(BilliardsModel([1.0, 2.0, 3.0], [0.1, 0.2, 0.15]), samples)
        with pytest.raises(VerificationError, match="gap gradients .* declared linear"):
            validate_model(LinearBilliards([1.0, 2.0, 3.0], [0.1, 0.2, 0.15]), samples)

    def test_validate_model_rejects_gaps_that_are_not_g_q_plus_c(self, rng):
        # Constant gradients, as the cradle's, but gaps that bend away
        # from G q + c by far more than the finite-difference check sees.
        class BentCradle(CradleModel):
            def gaps(self, q):
                q = np.asarray(q, dtype=float)
                return super().gaps(q) + 1e-9 * q[1:] ** 2

        class UndeclaredBentCradle(BentCradle):
            linear_gaps = False

        samples = [rng.standard_normal(3) * 2 for _ in range(5)]
        validate_model(UndeclaredBentCradle([1.0, 2.0, 0.5], [0.1, 0.15, 0.2]), samples)
        with pytest.raises(VerificationError, match="differ from G q \\+ c .* declared linear"):
            validate_model(BentCradle([1.0, 2.0, 0.5], [0.1, 0.15, 0.2]), samples)

    def test_shipped_affine_potentials_have_exact_zero_hessians(self, rng):
        # A declared affine potential's Hessian is zero, not differenced;
        # the central differences of its bitwise-constant gradient, the
        # former default, were +0.0 entries too.
        models = [
            CradleModel([1.0, 2.0, 0.5], [0.1, 0.15, 0.2]),
            BilliardsModel([1.0, 2.0, 3.0], [0.1, 0.2, 0.15]),
            BallModel(0.7),
            legtail(),
        ]
        for model in models:
            assert model.affine_potential
            zeros = np.zeros((model.dim, model.dim)).tobytes()
            for q in 3.0 * rng.standard_normal((5, model.dim)):
                hess = model.potential_hessian(q)
                assert hess.shape == (model.dim, model.dim)
                assert hess.tobytes() == zeros
                fd = _central_jacobian(model.potential_gradient, q, 1e-6)
                assert np.ascontiguousarray(fd).tobytes() == zeros

    def test_central_jacobian_is_exact_on_a_quadratic(self, rng):
        # Central differences of a quadratic have no truncation error.
        # With dyadic points and steps no rounding is left either.
        def fun(x):
            return np.array([x[0] * x[1], x[1] ** 2 - 3.0 * x[0], 5.0])

        x = np.array([0.5, -1.25])
        expected = np.array([[x[1], x[0]], [-3.0, 2.0 * x[1]], [0.0, 0.0]])
        assert np.array_equal(_central_jacobian(fun, x, 2.0**-20), expected)
        # Elsewhere only the rounding of fun, divided by the step, remains.
        a = rng.standard_normal((2, 3, 3))
        b = rng.standard_normal((2, 3))
        for rel in (1e-6, 1e-7, 2e-7):
            x = 3.0 * rng.standard_normal(3)
            jac = _central_jacobian(lambda y: np.einsum("kij,i,j->k", a, y, y) + b @ y, x, rel)
            exact = np.einsum("kij,j->ki", a + a.transpose(0, 2, 1), x) + b
            size = np.abs(a).sum() * (np.abs(x).max() + 1.0) ** 2 + np.abs(b).sum() * np.abs(x).max()
            assert np.abs(jac - exact).max() <= np.finfo(float).eps * size / rel

    def test_spd_mass(self, rng):
        for model in (CradleModel([1, 1], [0.1, 0.1]), legtail(), BallModel(2.0)):
            for _ in range(20):
                model.metric_at(rng.standard_normal(model.dim))


class TestCradle:
    def test_normals(self):
        model = CradleModel([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
        q = model.touching_positions()
        np.testing.assert_array_equal(
            model.gap_gradients(q), [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]]
        )
        np.testing.assert_allclose(model.gaps(q), [0.0, 0.0], atol=1e-15)

    def test_equal_masses_adjacent_pairs_three_stage(self, rng):
        model = CradleModel([2.5] * 4, [0.1] * 4)
        q = rng.standard_normal(4)
        metric = model.metric_at(q)
        grads = model.gap_gradients(q)
        for i in range(2):
            cls = classify_pair(metric, grads[i], grads[i + 1])
            assert cls.kind == "three-stage"
            assert cls.inner_value == pytest.approx(-0.5, abs=1e-12)

    def test_build_errors(self):
        with pytest.raises(ValueError):
            CradleModel([1.0, -1.0], [0.1, 0.1])
        with pytest.raises(DimensionError):
            CradleModel([1.0, 1.0, 1.0], [0.1, 0.1])
        with pytest.raises(ValueError):
            CradleModel([1.0], [0.1])


class TestBilliards:
    def test_orthogonal_angle_zero_inner(self):
        model = billiards_build([1.0, 2.0, 1.5], [0.1, 0.12, 0.2])
        q = model.double_contact_configuration(math.pi / 2)
        assert billiards_pair_inner(model, q) == pytest.approx(0.0, abs=1e-15)

    def test_pi_third_unit_cue_mass(self):
        model = billiards_build([3.0, 5.0, 1.0], [0.1, 0.3, 0.2])
        q = model.double_contact_configuration(math.pi / 3)
        assert billiards_pair_inner(model, q) == pytest.approx(0.5, rel=1e-13)

    def test_radius_invariance(self):
        theta = 2.0
        small = billiards_build([1.0, 2.0, 4.0], [0.1, 0.2, 0.15])
        large = billiards_build([1.0, 2.0, 4.0], [0.2, 0.4, 0.3])
        qs = small.double_contact_configuration(theta)
        ql = large.double_contact_configuration(theta)
        assert billiards_pair_inner(small, qs) == pytest.approx(
            billiards_pair_inner(large, ql), rel=1e-13
        )

    def test_closed_form_over_grid(self):
        model = billiards_build([1.0, 2.0, 2.5], [0.1, 0.2, 0.15])
        lo = model.min_break_angle()
        for theta in np.linspace(lo + 1e-6, math.pi - 1e-6, 50):
            q = model.double_contact_configuration(theta)
            value = billiards_pair_inner(model, q)
            assert value == pytest.approx(
                math.cos(theta) / model.masses[2], rel=1e-12, abs=1e-13
            )

    def test_requires_closed_contacts(self):
        model = billiards_build([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
        q = model.double_contact_configuration(2.0)
        q[0] += 0.05  # open gap a
        with pytest.raises(SimpactError):
            billiards_pair_inner(model, q)

    def test_overlap_rejected_at_build(self):
        q_overlap = np.array([0.05, 0.0, 0.5, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            billiards_build([1.0, 1.0, 1.0], [0.1, 0.1, 0.1], q0=q_overlap)

    def test_min_break_angle_equal_radii(self):
        model = billiards_build([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
        assert model.min_break_angle() == pytest.approx(math.pi / 3, rel=1e-12)

    def test_min_break_angle_large_cue(self):
        # A cue three times the outer radii admits breaks near pi/6.
        model = billiards_build([1.0, 1.0, 9.0], [0.1, 0.1, 0.3])
        assert model.min_break_angle() < math.pi / 6 + 0.05

    def test_cue_momentum_along_bisector(self):
        model = billiards_build([1.0, 1.0, 2.0], [0.1, 0.1, 0.1])
        q = model.double_contact_configuration(1.2)
        p = model.cue_break_momentum(q, speed=3.0)
        # Only the cue moves, along +x in the canonical placement.
        np.testing.assert_allclose(p[:4], 0.0, atol=1e-15)
        np.testing.assert_allclose(p[4:], [2.0 * 3.0, 0.0], atol=1e-12)


class TestLegTail:
    def test_inner_varies_with_angle_and_design(self):
        model = legtail()
        values = []
        for theta in np.linspace(-0.5, 0.5, 11):
            q = np.array([0.0, 0.4, theta])
            metric = model.metric_at(q)
            grads = model.gap_gradients(q)
            scale = norm(metric, grads[0]) * norm(metric, grads[1])
            values.append(inner(metric, grads[0], grads[1]) / scale)
        assert np.std(values) > 1e-3  # genuinely configuration dependent

    def test_sign_change_exists(self):
        # Sweeping one contact offset changes the sign of the pair inner
        # product, so an orthogonal design exists in between.
        signs = []
        for ax in (0.05, 0.8):
            model = LegTailModel(1.0, 0.05, (ax, -0.3), (-0.4, -0.3))
            q = model.double_contact_pose()
            metric = model.metric_at(q)
            grads = model.gap_gradients(q)
            signs.append(np.sign(inner(metric, grads[0], grads[1])))
        assert signs[0] != signs[1]

    def test_double_contact_pose_closes_gaps(self):
        model = legtail()
        q = model.double_contact_pose()
        np.testing.assert_allclose(model.gaps(q), [0.0, 0.0], atol=1e-12)
        assert q[1] > 0.0

    def test_coincident_offsets_rejected(self):
        with pytest.raises(DegenerateNormalsError):
            LegTailModel(mass=1.0, inertia=0.1, contact_a=(0.1, -0.2), contact_b=(0.1, -0.2))

    def test_nonphysical_rejected(self):
        with pytest.raises(ValueError):
            LegTailModel(-1.0, 0.1, (0.1, -0.2), (-0.1, -0.2))
        with pytest.raises(ValueError):
            LegTailModel(1.0, 0.0, (0.1, -0.2), (-0.1, -0.2))


class TestBall:
    def test_gap_offset_by_radius(self):
        model = BallModel(1.0, radius=0.05)
        assert model.gaps(np.array([0.05]))[0] == pytest.approx(0.0)

    def test_potential_gradient(self):
        model = BallModel(2.0, gravity=9.81)
        np.testing.assert_allclose(model.potential_gradient(np.array([1.0])), [19.62])
