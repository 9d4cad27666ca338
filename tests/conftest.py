"""Shared helpers for building random metric / normal / momentum instances."""

import numpy as np
import pytest

from simpact.metric import KineticMetric, inner, norm
from simpact.resolution import plastic_resolve


def random_spd(rng, n, spread=2.0):
    """Random symmetric positive definite matrix with bounded conditioning."""
    a = rng.standard_normal((n, n))
    q, _ = np.linalg.qr(a)
    eigs = np.exp(rng.uniform(-spread, spread, size=n))
    return (q * eigs) @ q.T


def random_metric(rng, n, spread=2.0):
    return KineticMetric(random_spd(rng, n, spread))


def random_unit_covector(metric, rng):
    row = rng.standard_normal(metric.dim)
    return row / norm(metric, row)


def metric_orthonormal_set(metric, rng, k):
    """k covectors orthonormal under the metric, by Gram-Schmidt."""
    if k > metric.dim:
        raise ValueError("cannot build more orthonormal covectors than dimensions")
    rows = []
    while len(rows) < k:
        cand = rng.standard_normal(metric.dim)
        for row in rows:
            cand = cand - inner(metric, cand, row) * row
        n = norm(metric, cand)
        if n > 1e-8:
            rows.append(cand / n)
    return rows


def pair_with_inner(metric, rng, target):
    """Two unit covectors whose metric inner product equals ``target``."""
    e1, e2 = metric_orthonormal_set(metric, rng, 2)
    u = e1
    v = target * e1 + np.sqrt(1.0 - target * target) * e2
    return u, v


def doubly_infeasible_momentum(metric, rng, u, v, tangent_scale=1.0):
    """Momentum strictly infeasible with respect to both unit normals."""
    a, b = rng.uniform(0.2, 2.0, size=2)
    p = -a * u - b * v
    # Both inner products are -(a + b*c) and -(a*c + b); keep them negative.
    c = inner(metric, u, v)
    if -(a + b * c) >= 0 or -(a * c + b) >= 0:
        p = -u - v  # fallback always works since 1 + c > 0 for non-parallel pairs
    tangent = rng.standard_normal(metric.dim) * tangent_scale
    return p + plastic_resolve(metric, tangent, [u, v]).p_plus


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def mass_solves(monkeypatch):
    """Run ``fn()`` and count its np.linalg.solve calls on ``metric.mass``."""
    calls = []
    original = np.linalg.solve

    def counting(a, b):
        calls.append(a)
        return original(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)

    def count(metric, fn):
        calls.clear()
        result = fn()
        return sum(1 for a in calls if a is metric.mass), result

    return count
