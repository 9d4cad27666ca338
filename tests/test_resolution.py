"""Reflection cascade, plastic projection, blending: examples and invariants."""

import math

import numpy as np
import pytest

from simpact.errors import DegenerateNormalsError, DimensionError
from simpact.metric import KineticMetric, inner, is_feasible, norm
from simpact.resolution import (
    CascadePolicy,
    CascadeStatus,
    ImpactKind,
    elastic_cascade,
    enumerate_outcomes,
    inelastic_resolve,
    plastic_resolve,
    reflect,
    two_contact_reflection_bound,
)

from conftest import (
    doubly_infeasible_momentum,
    pair_with_inner,
    random_metric,
    random_unit_covector,
)

CRADLE = KineticMetric(np.eye(3))
U = np.array([-1.0, 1.0, 0.0])
V = np.array([0.0, -1.0, 1.0])


class TestReflect:
    def test_cradle_swap(self):
        p_new, lam = reflect(CRADLE, [1.0, 0.0, 0.0], U)
        np.testing.assert_allclose(p_new, [0.0, 1.0, 0.0], atol=1e-15)
        assert lam == pytest.approx(1.0)

    def test_tangent_momentum_unchanged(self):
        p = np.array([1.0, 1.0, 1.0])  # orthogonal to U under the identity
        p_new, lam = reflect(CRADLE, p, U)
        np.testing.assert_allclose(p_new, p, atol=1e-15)
        assert lam == 0.0

    def test_flips_normal_inner(self, rng):
        for _ in range(500):
            n = rng.integers(2, 7)
            metric = random_metric(rng, n)
            p = rng.standard_normal(n)
            u = rng.standard_normal(n)
            p_new, _ = reflect(metric, p, u)
            before = inner(metric, p, u)
            assert inner(metric, p_new, u) == pytest.approx(
                -before, abs=1e-12 * max(1.0, abs(before))
            )

    def test_involution_bulk(self, rng):
        worst = 0.0
        for _ in range(10_000):
            n = rng.integers(2, 6)
            metric = random_metric(rng, n, spread=1.5)
            p = rng.standard_normal(n)
            u = rng.standard_normal(n)
            p1, _ = reflect(metric, p, u)
            p2, _ = reflect(metric, p1, u)
            scale = max(1.0, float(np.abs(p).max()))
            worst = max(worst, float(np.abs(p2 - p).max()) / scale)
        assert worst < 1e-11

    def test_scale_invariance(self, rng):
        metric = random_metric(rng, 4)
        p = rng.standard_normal(4)
        u = rng.standard_normal(4)
        reference, _ = reflect(metric, p, u)
        for alpha in (1e-6, 1.0, 1e6):
            scaled, _ = reflect(metric, p, alpha * u)
            np.testing.assert_allclose(scaled, reference, rtol=1e-10, atol=1e-12)

    def test_conformality(self, rng):
        for _ in range(1000):
            n = rng.integers(2, 6)
            metric = random_metric(rng, n)
            pa, pb = rng.standard_normal((2, n))
            w = rng.standard_normal(n)
            qa, _ = reflect(metric, pa, w)
            qb, _ = reflect(metric, pb, w)
            before = inner(metric, pa, pb)
            after = inner(metric, qa, qb)
            assert after == pytest.approx(before, abs=1e-10 * max(1.0, abs(before)))

    def test_norm_preserved(self, rng):
        metric = random_metric(rng, 5)
        p = rng.standard_normal(5)
        u = rng.standard_normal(5)
        p_new, _ = reflect(metric, p, u)
        assert norm(metric, p_new) == pytest.approx(norm(metric, p), rel=1e-12)

    def test_zero_normal_rejected(self):
        with pytest.raises(DimensionError):
            reflect(CRADLE, [1.0, 0.0, 0.0], np.zeros(3))


class TestReflectionBound:
    def test_cradle_value(self):
        # Unit inner product -1/2 puts the feasible half-angle at pi/6.
        assert two_contact_reflection_bound(CRADLE, U, V) == 6

    def test_orthogonal_value(self):
        # Half-angle pi/4: the guarantee is four reflections even though
        # an orthogonal pair always finishes in two.
        m = KineticMetric(np.eye(2))
        assert two_contact_reflection_bound(m, [1.0, 0.0], [0.0, 1.0]) == 4

    def test_parallel_rejected(self):
        with pytest.raises(DegenerateNormalsError):
            two_contact_reflection_bound(CRADLE, U, -2.0 * U)


class TestElasticCascade:
    def test_cradle_both_orders(self):
        p = np.array([1.0, 0.0, 0.0])
        for order in [(0, 1), (1, 0)]:
            out = elastic_cascade(CRADLE, p, [U, V], CascadePolicy.fixed(order))
            np.testing.assert_allclose(out.p_plus, [0.0, 0.0, 1.0], atol=1e-14)
            assert out.status is CascadeStatus.CONVERGED

    def test_feasible_momentum_untouched(self):
        p = np.array([0.0, 0.0, 2.0])
        out = elastic_cascade(CRADLE, p, [U, V])
        np.testing.assert_array_equal(out.p_plus, p)
        assert out.sequence == () and out.impulses == ()

    def test_half_negative_inner_needs_three(self, rng):
        # Unit normals at inner -1/2: a doubly infeasible momentum takes
        # exactly three reflections, comfortably inside the bound of 6.
        for _ in range(50):
            n = rng.integers(2, 6)
            metric = random_metric(rng, n)
            u, v = pair_with_inner(metric, rng, -0.5)
            # Exactly at the boundary pi/gamma = 6; round-off may push
            # the conservative ceiling one step up.
            assert two_contact_reflection_bound(metric, u, v) in (6, 7)
            p = doubly_infeasible_momentum(metric, rng, u, v)
            out = elastic_cascade(metric, p, [u, v])
            assert out.status is CascadeStatus.CONVERGED
            assert len(out.sequence) == 3
            # Brute-force oracle: no shorter alternating sequence works.
            for start in ((0, 1), (1, 0)):
                q = p.copy()
                normals = [u, v]
                for depth, idx in enumerate([start[0], start[1], start[0]]):
                    q, _ = reflect(metric, q, normals[idx])
                    feasible = is_feasible(metric, q, normals)
                    assert feasible == (depth == 2)

    def test_existence_bound_sample(self, rng):
        # Small-scale version of the randomized existence check.
        for _ in range(800):
            n = rng.integers(2, 9)
            metric = random_metric(rng, n)
            u = random_unit_covector(metric, rng)
            v = random_unit_covector(metric, rng)
            if abs(inner(metric, u, v)) > 1.0 - 1e-6:
                continue
            p = doubly_infeasible_momentum(metric, rng, u, v)
            bound = two_contact_reflection_bound(metric, u, v)
            out = elastic_cascade(metric, p, [u, v])
            assert out.status is CascadeStatus.CONVERGED
            assert len(out.sequence) <= bound
            assert is_feasible(metric, out.p_plus, [u, v])

    def test_no_consecutive_repeats_and_positive_impulses(self, rng):
        for _ in range(1000):
            n = rng.integers(2, 6)
            metric = random_metric(rng, n)
            u = random_unit_covector(metric, rng)
            v = random_unit_covector(metric, rng)
            if abs(inner(metric, u, v)) > 1.0 - 1e-6:
                continue
            p = doubly_infeasible_momentum(metric, rng, u, v)
            out = elastic_cascade(metric, p, [u, v])
            for a, b in zip(out.sequence, out.sequence[1:]):
                assert a != b
            assert all(lam > 0.0 for lam in out.impulses)

    def test_momentum_change_stays_in_span(self, rng):
        for _ in range(400):
            n = rng.integers(3, 7)
            metric = random_metric(rng, n)
            u = random_unit_covector(metric, rng)
            v = random_unit_covector(metric, rng)
            if abs(inner(metric, u, v)) > 1.0 - 1e-6:
                continue
            p = doubly_infeasible_momentum(metric, rng, u, v)
            out = elastic_cascade(metric, p, [u, v])
            applied = [(u, v)[i] for i in set(out.sequence)]
            leak = plastic_resolve(metric, out.p_plus - p, applied).p_plus
            assert norm(metric, leak) <= 1e-10 * max(1.0, norm(metric, p))

    def test_energy_conserved(self, rng):
        for _ in range(300):
            metric = random_metric(rng, 4)
            u = random_unit_covector(metric, rng)
            v = random_unit_covector(metric, rng)
            if abs(inner(metric, u, v)) > 1.0 - 1e-6:
                continue
            p = doubly_infeasible_momentum(metric, rng, u, v)
            out = elastic_cascade(metric, p, [u, v])
            assert norm(metric, out.p_plus) == pytest.approx(
                norm(metric, p), rel=1e-10
            )

    def test_angle_march(self, rng):
        # Alternating reflections rotate the bisector by a fixed angle:
        # its inner product with the original decays as cos(2 i gamma).
        for _ in range(200):
            n = rng.integers(2, 6)
            metric = random_metric(rng, n)
            c = rng.uniform(-0.95, 0.95)
            u, v = pair_with_inner(metric, rng, c)
            r0 = (u + v) / norm(metric, u + v)
            gamma = math.asin(min(1.0, norm(metric, np.asarray(u) + np.asarray(v)) / 2.0))
            steps = min(int(math.ceil(math.pi / gamma)), 25)
            r = r0.copy()
            for i in range(1, steps + 1):
                w = u if i % 2 == 1 else v
                r, _ = reflect(metric, r, w)
                expected = math.cos(2 * i * gamma)
                assert inner(metric, r, r0) == pytest.approx(expected, abs=1e-9)

    def test_feasibility_matches_span_component(self, rng):
        # Feasibility can be decided on the span component alone.
        for _ in range(500):
            n = rng.integers(3, 7)
            metric = random_metric(rng, n)
            u = random_unit_covector(metric, rng)
            v = random_unit_covector(metric, rng)
            if abs(inner(metric, u, v)) > 1.0 - 1e-6:
                continue
            p = rng.standard_normal(n)
            span_part = p - plastic_resolve(metric, p, [u, v]).p_plus
            assert is_feasible(metric, p, [u, v]) == is_feasible(
                metric, span_part, [u, v], tol=1e-12
            )

    def test_angle_criterion_on_span(self, rng):
        # For momenta inside the span, feasibility is the cone condition
        # on the inner product with the unit bisector.
        for _ in range(300):
            metric = random_metric(rng, 4)
            c = rng.uniform(-0.9, 0.9)
            u, v = pair_with_inner(metric, rng, c)
            bisector = np.asarray(u) + np.asarray(v)
            r0 = bisector / norm(metric, bisector)
            gamma = math.asin(min(1.0, norm(metric, bisector) / 2.0))
            coeffs = rng.standard_normal(2)
            p = coeffs[0] * np.asarray(u) + coeffs[1] * np.asarray(v)
            if norm(metric, p) < 1e-9:
                continue
            lhs = inner(metric, p, r0)
            rhs = norm(metric, p) * math.cos(gamma)
            cone = lhs >= rhs - 1e-11 * max(1.0, abs(rhs))
            assert cone == is_feasible(metric, p, [u, v], tol=1e-11)

    @pytest.mark.parametrize("c", [-0.9, -0.99, -0.999, -0.9999])
    def test_deep_wedge_converges_within_bound(self, rng, c):
        # Nearly opposed normals make a nearly closed wedge; every policy
        # still terminates, at about half the guaranteed reflection bound.
        for _ in range(10):
            metric = random_metric(rng, 5)
            u, v = pair_with_inner(metric, rng, c)
            p = doubly_infeasible_momentum(metric, rng, u, v)
            bound = two_contact_reflection_bound(metric, u, v)
            for policy in (
                CascadePolicy.most_violating(),
                CascadePolicy.least_violating(),
                CascadePolicy.fixed((0, 1)),
                CascadePolicy.fixed((1, 0)),
            ):
                out = elastic_cascade(metric, p, [u, v], policy)
                assert out.status is CascadeStatus.CONVERGED
                assert len(out.sequence) <= bound
                assert is_feasible(metric, out.p_plus, [u, v])

    def test_step_cap_status_for_many_normals(self):
        # Three normals engineered to chatter past a one-step cap.
        metric = KineticMetric(np.eye(3))
        normals = [
            np.array([1.0, 0.05, 0.0]),
            np.array([-0.9, 0.5, 0.1]),
            np.array([0.2, -0.8, 0.6]),
        ]
        p = -normals[0] - normals[1] - normals[2]
        policy = CascadePolicy.most_violating(max_steps=1)
        out = elastic_cascade(metric, p, normals, policy)
        assert out.status is CascadeStatus.STEP_CAP_EXCEEDED

    def test_fixed_policy_must_cover_indices(self):
        with pytest.raises(ValueError):
            elastic_cascade(CRADLE, [1.0, 0.0, 0.0], [U, V], CascadePolicy.fixed((0,)))

    def test_parallel_pair_rejected(self):
        with pytest.raises(DegenerateNormalsError):
            elastic_cascade(CRADLE, [1.0, 0.0, 0.0], [U, 3.0 * U])


class TestEnumeration:
    def test_cradle_single_outcome(self):
        res = enumerate_outcomes(CRADLE, [1.0, 0.3, -0.8], [U, V], depth_cap=12)
        assert len(res) == 1 and not res.truncated

    def test_orthogonal_single_outcome(self, rng):
        metric = random_metric(rng, 4)
        u, v = pair_with_inner(metric, rng, 0.0)
        p = doubly_infeasible_momentum(metric, rng, u, v)
        res = enumerate_outcomes(metric, p, [u, v], depth_cap=8)
        assert len(res) == 1

    def test_billiards_break_two_outcomes(self):
        from simpact.models import BilliardsModel

        model = BilliardsModel([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
        q = model.double_contact_configuration(math.pi / 3)
        metric = model.metric_at(q)
        grads = model.gap_gradients(q)
        p = model.cue_break_momentum(q, speed=1.0)
        res = enumerate_outcomes(metric, p, list(grads), depth_cap=16)
        assert len(res) == 2
        gap = norm(metric, res.outcomes[0].p_plus - res.outcomes[1].p_plus)
        assert gap > 1e-3 * norm(metric, p)

    def test_all_outcomes_feasible(self, rng):
        for _ in range(100):
            metric = random_metric(rng, 4)
            u = random_unit_covector(metric, rng)
            v = random_unit_covector(metric, rng)
            if abs(inner(metric, u, v)) > 1.0 - 1e-6:
                continue
            p = doubly_infeasible_momentum(metric, rng, u, v)
            res = enumerate_outcomes(metric, p, [u, v], depth_cap=40)
            assert res.outcomes
            for out in res.outcomes:
                assert is_feasible(metric, out.p_plus, [u, v])

    def test_truncation_flag(self):
        res = enumerate_outcomes(CRADLE, [1.0, 0.3, -0.8], [U, V], depth_cap=1)
        assert res.truncated and len(res) == 0


class TestPlastic:
    def test_cradle_example(self):
        out = plastic_resolve(CRADLE, [1.0, 0.0, 0.0], [U, V])
        np.testing.assert_allclose(out.p_plus, [1 / 3, 1 / 3, 1 / 3], atol=1e-14)
        assert out.kind is ImpactKind.PLASTIC

    def test_tangent_momentum_unchanged(self):
        p = np.array([1.0, 1.0, 1.0])
        out = plastic_resolve(CRADLE, p, [U, V])
        np.testing.assert_allclose(out.p_plus, p, atol=1e-14)

    def test_single_normal_full_absorption(self):
        m = KineticMetric(np.eye(1))
        out = plastic_resolve(m, [-3.0], [np.array([1.0])])
        np.testing.assert_allclose(out.p_plus, [0.0], atol=1e-15)

    def test_never_gains_energy(self, rng):
        for _ in range(500):
            n = rng.integers(2, 7)
            k = rng.integers(1, n)
            metric = random_metric(rng, n)
            normals = list(rng.standard_normal((k, n)))
            p = rng.standard_normal(n)
            out = plastic_resolve(metric, p, normals)
            assert norm(metric, out.p_plus) <= norm(metric, p) * (1 + 1e-12)
            for u in normals:
                assert abs(inner(metric, out.p_plus, u)) <= 1e-10 * max(
                    1.0, norm(metric, p) * norm(metric, u)
                )


class TestInelastic:
    def test_limits(self, rng):
        metric = random_metric(rng, 3)
        u = random_unit_covector(metric, rng)
        v = random_unit_covector(metric, rng)
        if abs(inner(metric, u, v)) > 0.99:
            v = random_unit_covector(metric, rng)
        p = doubly_infeasible_momentum(metric, rng, u, v)
        elastic = elastic_cascade(metric, p, [u, v])
        plastic = plastic_resolve(metric, p, [u, v])
        np.testing.assert_allclose(
            inelastic_resolve(metric, p, [u, v], 1.0).p_plus, elastic.p_plus, atol=1e-12
        )
        np.testing.assert_allclose(
            inelastic_resolve(metric, p, [u, v], 0.0).p_plus, plastic.p_plus, atol=1e-12
        )

    def test_cradle_blend(self):
        out = inelastic_resolve(CRADLE, [1.0, 0.0, 0.0], [U, V], 0.7)
        np.testing.assert_allclose(out.p_plus, [0.1, 0.1, 0.8], atol=1e-14)
        assert norm(CRADLE, out.p_plus) ** 2 == pytest.approx(0.66, abs=1e-14)
        assert out.restitution == 0.7

    def test_energy_split(self, rng):
        # |p+|^2 = R^2 |p_e|^2 + (1 - R^2) |p_p|^2.
        for _ in range(300):
            n = rng.integers(2, 6)
            metric = random_metric(rng, n)
            u = random_unit_covector(metric, rng)
            v = random_unit_covector(metric, rng)
            if abs(inner(metric, u, v)) > 1.0 - 1e-6:
                continue
            p = doubly_infeasible_momentum(metric, rng, u, v)
            r = rng.uniform(0.0, 1.0)
            out = inelastic_resolve(metric, p, [u, v], r)
            e_e = norm(metric, elastic_cascade(metric, p, [u, v]).p_plus) ** 2
            e_p = norm(metric, plastic_resolve(metric, p, [u, v]).p_plus) ** 2
            expected = r * r * e_e + (1 - r * r) * e_p
            assert norm(metric, out.p_plus) ** 2 == pytest.approx(
                expected, rel=1e-10
            )

    def test_plastic_and_elastic_components_align(self, rng):
        # The plastic outcome is the part of the elastic outcome that
        # survives projection, which is what makes the split exact.
        metric = random_metric(rng, 4)
        u = random_unit_covector(metric, rng)
        v = random_unit_covector(metric, rng)
        p = doubly_infeasible_momentum(metric, rng, u, v)
        p_e = elastic_cascade(metric, p, [u, v]).p_plus
        p_p = plastic_resolve(metric, p, [u, v]).p_plus
        assert inner(metric, p_p, p_e) == pytest.approx(
            norm(metric, p_p) ** 2, rel=1e-10
        )

    def test_restitution_range_checked(self):
        with pytest.raises(ValueError):
            inelastic_resolve(CRADLE, [1.0, 0.0, 0.0], [U, V], 1.2)
        with pytest.raises(ValueError):
            inelastic_resolve(CRADLE, [1.0, 0.0, 0.0], [U, V], -0.1)
