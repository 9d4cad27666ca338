"""Covector algebra: frozen examples, invariants, and error behavior.

The span/null projections are the plastic outcome: its ``p_plus`` is
the null part of ``p``, and ``p - p_plus`` (equally ``-impulses`` over
the normals) the span part.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simpact.errors import (
    DegenerateNormalsError,
    DimensionError,
    NotPositiveDefiniteError,
)
from simpact.metric import (
    DEADBAND,
    GRAM_RCOND,
    ContactFrame,
    KineticMetric,
    _check_gram,
    inner,
    is_feasible,
    norm,
)
from simpact.resolution import plastic_resolve

from conftest import pair_with_inner, random_metric, random_spd


def euclidean3():
    return KineticMetric(np.eye(3))


def dense_projector(mass, normals):
    """Independent oracle: explicit-inverse span projector."""
    w = np.linalg.inv(mass)
    u = np.asarray(normals, dtype=float)
    gram = u @ w @ u.T
    return lambda p: np.linalg.solve(gram, u @ w @ p) @ u


class TestConstruction:
    def test_rejects_negative_eigenvalue(self):
        bad = np.diag([1.0, -0.5, 2.0])
        with pytest.raises(NotPositiveDefiniteError):
            KineticMetric(bad)

    def test_rejects_asymmetric(self):
        bad = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            KineticMetric(bad)

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            KineticMetric(np.zeros((2, 2)))

    def test_mass_roundtrip(self, rng):
        for _ in range(50):
            n = rng.integers(1, 9)
            metric = random_metric(rng, n)
            v = rng.standard_normal(n)
            back = metric.dual(metric.mass @ v)
            assert np.abs(back - v).max() <= 1e-10 * max(1.0, np.abs(v).max())


class TestInnerAndNorm:
    def test_identity_example(self):
        m = euclidean3()
        assert inner(m, [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]) == pytest.approx(-1.0)

    def test_zero_bilinear(self, rng):
        m = random_metric(rng, 4)
        z = np.zeros(4)
        assert inner(m, z, z) == 0.0

    def test_cradle_unit_normals(self):
        for mass in (0.3, 1.0, 7.5):
            m = KineticMetric(mass * np.eye(3))
            u = np.array([-1.0, 1.0, 0.0])
            v = np.array([0.0, -1.0, 1.0])
            assert inner(m, u / norm(m, u), v / norm(m, v)) == pytest.approx(-0.5, abs=1e-14)

    def test_norm_examples(self):
        m = euclidean3()
        assert norm(m, [-1.0, 1.0, 0.0]) == pytest.approx(np.sqrt(2.0))
        assert norm(m, np.zeros(3)) == 0.0
        m1 = KineticMetric(np.array([[4.0]]))
        assert norm(m1, [2.0]) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            inner(euclidean3(), [1.0, 0.0], [1.0, 0.0, 0.0])

    def test_symmetry_bulk(self, rng):
        worst = 0.0
        for _ in range(10_000):
            n = rng.integers(2, 7)
            metric = random_metric(rng, n)
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            ab = inner(metric, a, b)
            ba = inner(metric, b, a)
            scale = max(abs(ab), abs(ba), 1.0)
            worst = max(worst, abs(ab - ba) / scale)
        assert worst < 1e-12

    def test_cauchy_schwarz(self, rng):
        for _ in range(2000):
            n = rng.integers(2, 7)
            metric = random_metric(rng, n)
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            lhs = inner(metric, a, b) ** 2
            rhs = norm(metric, a) ** 2 * norm(metric, b) ** 2
            assert lhs <= rhs + 1e-10 * max(1.0, rhs)

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=6, max_size=6
        ),
        scale=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_bilinearity(self, data, scale):
        metric = KineticMetric(np.diag([1.0, 2.0, 0.5]))
        a, b = np.array(data[:3]), np.array(data[3:])
        lhs = inner(metric, scale * a + b, b)
        rhs = scale * inner(metric, a, b) + inner(metric, b, b)
        assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))


class TestFeasibility:
    def test_examples(self):
        m = euclidean3()
        u = [-1.0, 1.0, 0.0]
        v = [0.0, -1.0, 1.0]
        assert not is_feasible(m, [1.0, 0.0, 0.0], [u])
        assert is_feasible(m, np.zeros(3), [u])
        assert is_feasible(m, [0.0, 0.0, 1.0], [u])
        assert is_feasible(m, [0.0, 0.0, 1.0], [v])

    def test_boundary_counts_as_feasible(self):
        m = euclidean3()
        # Inner product exactly zero: not directed into the manifold.
        assert is_feasible(m, [0.0, 0.0, 1.0], [[-1.0, 1.0, 0.0]])

    def test_deadband(self):
        m = KineticMetric(np.eye(2))
        p = [-1e-13, 1.0]
        u = [1.0, 0.0]
        assert not is_feasible(m, p, [u])
        assert is_feasible(m, p, [u], tol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        k=st.integers(0, 4),
        tol=st.sampled_from([0.0, DEADBAND]),
        zero_p=st.booleans(),
    )
    @example(seed=0, n=3, k=0, tol=0.0, zero_p=False)
    @example(seed=1, n=3, k=2, tol=0.0, zero_p=True)
    def test_matches_per_normal_inner_products(self, seed, n, k, tol, zero_p):
        # The zero momentum has an exactly zero inner product with every normal.
        rng = np.random.default_rng(seed)
        metric = random_metric(rng, n)
        normals = list(rng.standard_normal((k, n)))
        p = np.zeros(n) if zero_p else rng.standard_normal(n)
        expected = all(inner(metric, p, u) >= -tol for u in normals)
        assert is_feasible(metric, p, normals, tol) == expected


def project_null(metric, p, normals):
    """Null part of ``p``: the plastic outcome."""
    return plastic_resolve(metric, p, normals).p_plus


def project_span(metric, p, normals):
    """Span part of ``p``: the negated plastic impulses over the normals."""
    return -np.asarray(plastic_resolve(metric, p, normals).impulses) @ np.asarray(normals)


class TestProjections:
    def test_null_example(self):
        m = euclidean3()
        result = project_null(m, [1.0, 0.0, 0.0], [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
        np.testing.assert_allclose(result, [1 / 3, 1 / 3, 1 / 3], atol=1e-14)

    def test_span_example(self):
        m = euclidean3()
        result = project_span(m, [1.0, 0.0, 0.0], [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
        np.testing.assert_allclose(result, [2 / 3, -1 / 3, -1 / 3], atol=1e-14)

    def test_against_dense_oracle(self, rng):
        for _ in range(200):
            n = rng.integers(2, 7)
            k = rng.integers(1, n + 1)
            mass = random_spd(rng, n)
            metric = KineticMetric(mass)
            normals = rng.standard_normal((k, n))
            p = rng.standard_normal(n)
            oracle_span = dense_projector(mass, normals)(p)
            got = project_span(metric, p, list(normals))
            np.testing.assert_allclose(got, oracle_span, atol=1e-9, rtol=1e-9)
            rest = p - project_null(metric, p, list(normals))
            np.testing.assert_allclose(rest, oracle_span, atol=1e-9, rtol=1e-9)

    def test_idempotent_and_orthogonal(self, rng):
        for _ in range(300):
            n = rng.integers(2, 7)
            k = rng.integers(1, n)
            metric = random_metric(rng, n)
            normals = list(rng.standard_normal((k, n)))
            p = rng.standard_normal(n)
            nullpart = project_null(metric, p, normals)
            for u in normals:
                assert abs(inner(metric, nullpart, u)) <= 1e-10 * max(
                    norm(metric, p) * norm(metric, u), 1e-12
                )
            again = project_null(metric, nullpart, normals)
            np.testing.assert_allclose(again, nullpart, atol=1e-9 * max(1.0, norm(metric, p)))

    def test_decomposition(self, rng):
        for _ in range(300):
            n = rng.integers(2, 7)
            k = rng.integers(1, n)
            metric = random_metric(rng, n)
            normals = list(rng.standard_normal((k, n)))
            p = rng.standard_normal(n)
            q = rng.standard_normal(n)
            s = project_span(metric, p, normals)
            z = project_null(metric, p, normals)
            assert np.abs(s + z - p).max() <= 1e-12 * max(1.0, np.abs(p).max())
            assert abs(inner(metric, s, project_null(metric, q, normals))) <= 1e-9 * max(
                1.0, norm(metric, p) * norm(metric, q)
            )

    def test_p_in_null_space_unchanged(self):
        m = euclidean3()
        normals = [np.array([-1.0, 1.0, 0.0]), np.array([0.0, -1.0, 1.0])]
        p = np.array([1.0, 1.0, 1.0])  # orthogonal to both under the identity
        np.testing.assert_allclose(project_null(m, p, normals), p, atol=1e-14)

    def test_span_membership(self):
        m = euclidean3()
        u = np.array([0.5, -0.25, 1.0])
        np.testing.assert_allclose(project_span(m, 3.0 * u, [u]), 3.0 * u, atol=1e-13)
        np.testing.assert_allclose(project_null(m, 3.0 * u, [u]), 0.0, atol=1e-13)

    def test_degenerate_normals_named(self):
        m = euclidean3()
        u = np.array([1.0, 0.0, 0.0])
        with pytest.raises(DegenerateNormalsError) as err:
            project_null(m, np.ones(3), [u, np.array([0.0, 1.0, 0.0]), -2.0 * u])
        assert 0 in err.value.indices and 2 in err.value.indices


def eigh_dependent(gram):
    """The indices the eigenvalue test names for ``gram``, or None."""
    unit_gram = gram / np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
    eigvals, eigvecs = np.linalg.eigh(unit_gram)
    if eigvals[0] <= GRAM_RCOND * max(eigvals[-1], 1.0):
        vec = eigvecs[:, 0]
        return sorted(np.flatnonzero(np.abs(vec) > 1e-8 * np.abs(vec).max()).tolist())
    return None


def closed_form_dependent(gram):
    """The indices ``_check_gram`` names for ``gram``, or None."""
    try:
        _check_gram(gram)
    except DegenerateNormalsError as err:
        assert str(err) == (
            f"normals at indices {list(err.indices)} are linearly dependent under the metric"
        )
        return list(err.indices)
    return None


class TestPairGramCheck:
    """Two normals take the eigenvalue test in closed form."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("gap, dependent", [(1e-13, True), (1e-11, False), (0.0, True)])
    def test_near_parallel(self, rng, sign, gap, dependent):
        for _ in range(20):
            metric = random_metric(rng, int(rng.integers(2, 6)))
            u, v = pair_with_inner(metric, rng, sign * (1.0 - gap))
            gram = ContactFrame(metric, [rng.uniform(0.5, 2.0) * u, rng.uniform(0.5, 2.0) * v]).gram
            want = [0, 1] if dependent else None
            assert eigh_dependent(gram) == want
            assert closed_form_dependent(gram) == want

    def test_exactly_parallel(self):
        for c in (1.0, -1.0):
            gram = np.array([[4.0, 2.0 * c], [2.0 * c, 1.0]])
            assert eigh_dependent(gram) == closed_form_dependent(gram) == [0, 1]

    def test_random_pairs_agree_with_eigh(self, rng):
        for _ in range(2000):
            metric = random_metric(rng, int(rng.integers(2, 6)))
            # 1 - |c| from 1e-16 to 1, across the threshold at about 2e-12.
            c = rng.choice([-1.0, 1.0]) * (1.0 - 10.0 ** rng.uniform(-16.0, 0.0))
            if abs(math.log10(max(1.0 - abs(c), 1e-300) / 2e-12)) < 0.01:
                continue  # within rounding of the threshold
            u, v = pair_with_inner(metric, rng, c)
            gram = ContactFrame(metric, [u, rng.uniform(0.1, 10.0) * v]).gram
            assert closed_form_dependent(gram) == eigh_dependent(gram)

    @pytest.mark.parametrize("factor", [2.0, -3.0])
    def test_plastic_rejects_parallel_normals(self, factor):
        metric = KineticMetric(np.diag([1.0, 2.0, 0.5]))
        u = np.array([0.3, -1.0, 0.7])
        with pytest.raises(DegenerateNormalsError) as err:
            plastic_resolve(metric, np.array([1.0, 1.0, -1.0]), [u, factor * u])
        assert err.value.indices == (0, 1)
        assert str(err.value) == "normals at indices [0, 1] are linearly dependent under the metric"
