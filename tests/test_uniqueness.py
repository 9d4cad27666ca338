"""Uniqueness classification, commutation checks, and the xi measure."""

import itertools
import math

import numpy as np
import pytest

from simpact.errors import DegenerateNormalsError, VerificationError
from simpact.metric import KineticMetric, inner, norm
from simpact.models import BilliardsModel
from simpact.resolution import CascadePolicy, elastic_cascade
from simpact.uniqueness import (
    classify_pair,
    indeterminacy_xi,
    pairwise_xi,
    verify_commutation,
)

from conftest import (
    doubly_infeasible_momentum,
    metric_orthonormal_set,
    pair_with_inner,
    random_metric,
)

CRADLE = KineticMetric(np.eye(3))
U = np.array([-1.0, 1.0, 0.0])
V = np.array([0.0, -1.0, 1.0])


class TestClassifyPair:
    def test_cradle_three_stage(self):
        for mass in (0.5, 1.0, 4.0):
            metric = KineticMetric(mass * np.eye(3))
            cls = classify_pair(metric, U, V)
            assert cls.kind == "three-stage"
            assert cls.inner_value == pytest.approx(-0.5, abs=1e-12)
            assert cls.unique_outcome

    def test_orthogonal(self):
        metric = KineticMetric(np.eye(2))
        cls = classify_pair(metric, [1.0, 0.0], [0.0, 1.0])
        assert cls.kind == "orthogonal" and cls.inner_value == 0.0

    def test_billiards_pi_third_indeterminate(self):
        model = BilliardsModel([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
        q = model.double_contact_configuration(math.pi / 3)
        grads = model.gap_gradients(q)
        cls = classify_pair(model.metric_at(q), grads[0], grads[1])
        assert cls.kind == "indeterminate"
        # cos(pi/3)/m_c rescaled by the unit normalization of each normal.
        assert cls.inner_value == pytest.approx(0.25, abs=1e-12)

    def test_parallel_rejected(self):
        with pytest.raises(DegenerateNormalsError):
            classify_pair(CRADLE, U, -1.5 * U)

    def test_tolerance_window(self, rng):
        metric = random_metric(rng, 4)
        u, v = pair_with_inner(metric, rng, -0.5 + 5e-10)
        assert classify_pair(metric, u, v, tol=1e-9).kind == "three-stage"
        assert classify_pair(metric, u, v, tol=1e-12).kind == "indeterminate"


class TestXi:
    def test_cradle_zero_for_any_infeasible_momentum(self, rng):
        for _ in range(100):
            p = doubly_infeasible_momentum(CRADLE, rng, U / norm(CRADLE, U), V / norm(CRADLE, V))
            assert indeterminacy_xi(CRADLE, p, U, V) < 1e-12

    def test_billiards_orthogonal_angle_zero(self):
        model = BilliardsModel([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
        q = model.double_contact_configuration(math.pi / 2)
        grads = model.gap_gradients(q)
        p = model.cue_break_momentum(q, 1.0)
        assert indeterminacy_xi(model.metric_at(q), p, grads[0], grads[1]) < 1e-10

    def test_billiards_grazing_zero(self):
        model = BilliardsModel([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
        q = model.double_contact_configuration(math.pi - 1e-9)
        grads = model.gap_gradients(q)
        p = model.cue_break_momentum(q, 1.0)
        assert indeterminacy_xi(model.metric_at(q), p, grads[0], grads[1]) < 1e-8

    def test_scale_invariant(self, rng):
        metric = random_metric(rng, 4)
        u, v = pair_with_inner(metric, rng, 0.35)
        p = doubly_infeasible_momentum(metric, rng, u, v)
        base = indeterminacy_xi(metric, p, u, v)
        for scale in (1e-3, 7.0, 1e4):
            assert indeterminacy_xi(metric, scale * p, u, v) == pytest.approx(
                base, rel=1e-9
            )

    def test_positive_when_indeterminate(self, rng):
        metric = random_metric(rng, 4)
        u, v = pair_with_inner(metric, rng, 0.35)
        p = doubly_infeasible_momentum(metric, rng, u, v)
        assert indeterminacy_xi(metric, p, u, v) > 1e-6

    def test_pairwise_extension(self, rng):
        metric = random_metric(rng, 5)
        sets = metric_orthonormal_set(metric, rng, 3)
        p = -np.sum(sets, axis=0)
        mx, mean = pairwise_xi(metric, p, sets)
        assert mx < 1e-10 and mean < 1e-10


class TestCommutation:
    def test_orthogonal_pair_commutes(self, rng):
        metric = random_metric(rng, 4)
        u, v = pair_with_inner(metric, rng, 0.0)
        report = verify_commutation(metric, u, v, samples=200, seed=3)
        assert report.commutes and report.orthogonal
        assert report.max_two_step_gap < 1e-10

    def test_cradle_three_step_products_agree(self):
        report = verify_commutation(CRADLE, U, V, samples=200, seed=5)
        assert not report.commutes
        assert report.max_two_step_gap > 1e-6
        assert report.max_three_step_gap < 1e-10

    def test_generic_pair_does_not_commute(self, rng):
        metric = random_metric(rng, 4)
        u, v = pair_with_inner(metric, rng, 0.4)
        report = verify_commutation(metric, u, v, samples=200, seed=7)
        assert not report.commutes
        assert report.max_two_step_gap > 1e-6

    def test_inconsistency_raises(self, rng):
        # An inner product just inside the tolerance produces a residual
        # gap about four times larger, which breaks the iff and must be
        # reported rather than swallowed.
        metric = random_metric(rng, 3)
        u, v = pair_with_inner(metric, rng, 1e-12)
        with pytest.raises(VerificationError):
            verify_commutation(metric, u, v, samples=200, seed=1, tol=2e-12)


class TestThreeStage:
    def test_exit_identities(self, rng):
        # After the three-step resolution of a pair at inner -1/2, the
        # final inner products swap and negate the initial ones.
        for _ in range(200):
            n = rng.integers(2, 6)
            metric = random_metric(rng, n)
            u, v = pair_with_inner(metric, rng, -0.5)
            p = doubly_infeasible_momentum(metric, rng, u, v)
            out = elastic_cascade(metric, p, [u, v])
            assert len(out.sequence) == 3
            pf = out.p_plus
            scale = max(1.0, norm(metric, p))
            assert inner(metric, pf, u) == pytest.approx(
                -inner(metric, p, v), abs=1e-10 * scale
            )
            assert inner(metric, pf, v) == pytest.approx(
                -inner(metric, p, u), abs=1e-10 * scale
            )

    def test_both_orders_agree(self, rng):
        for _ in range(100):
            metric = random_metric(rng, 4)
            u, v = pair_with_inner(metric, rng, -0.5)
            p = doubly_infeasible_momentum(metric, rng, u, v)
            a = elastic_cascade(metric, p, [u, v], CascadePolicy.fixed((0, 1)))
            b = elastic_cascade(metric, p, [u, v], CascadePolicy.fixed((1, 0)))
            gap = norm(metric, a.p_plus - b.p_plus)
            assert gap <= 1e-10 * max(1.0, norm(metric, p))


class TestOrthogonalSets:
    @pytest.mark.parametrize("n_normals", [2, 3, 4, 5])
    def test_any_order_same_outcome(self, rng, n_normals):
        metric = random_metric(rng, max(n_normals, 5))
        normals = metric_orthonormal_set(metric, rng, n_normals)
        weights = rng.uniform(0.3, 1.5, size=n_normals)
        p = -sum(w * u for w, u in zip(weights, normals))
        reference = None
        for order in itertools.permutations(range(n_normals)):
            out = elastic_cascade(metric, p, normals, CascadePolicy.fixed(order))
            # Each normal fires exactly once.
            assert sorted(out.sequence) == list(range(n_normals))
            if reference is None:
                reference = out.p_plus
            else:
                assert norm(metric, out.p_plus - reference) <= 1e-10 * max(
                    1.0, norm(metric, p)
                )
