"""Outcome-uniqueness classification and indeterminacy measurement.

Two special inner-product values between unit contact normals guarantee
an order-independent impact outcome: zero (the reflections commute and
the cascade ends in two steps) and minus one half (both orders end in
the same three-step product). Everything else is classified as
indeterminate, and the indeterminacy is quantified as the metric
distance between the two order-specific outcomes, normalized by the
incoming momentum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metric as mt
from .errors import DegenerateNormalsError, VerificationError
from .resolution import CascadePolicy, _walk, enumerate_outcomes

#: Default classification tolerance on unit-normalized inner products.
#: Configuration-dependent metrics rarely reach exact zeros after
#: design optimization, so the window must be finite.
CLASSIFY_TOL = 1e-9

#: Elements of one block of outcome differences in :func:`outcome_xi`.
XI_BLOCK = 1 << 16

#: Default reflection-depth cap of the pairwise outcome enumeration.
PAIRWISE_DEPTH_CAP = 16

#: The two resolution orders :func:`indeterminacy_xi` compares.
_U_FIRST = CascadePolicy.fixed((0, 1))
_V_FIRST = CascadePolicy.fixed((1, 0))


@dataclass(frozen=True)
class PairClassification:
    """Uniqueness class of a contact-normal pair."""

    inner_value: float
    kind: str  # "orthogonal" | "three-stage" | "indeterminate"
    tolerance: float

    @property
    def unique_outcome(self) -> bool:
        return self.kind in ("orthogonal", "three-stage")


@dataclass(frozen=True)
class CommutationReport:
    """Sampled check of whether two reflections commute."""

    inner_value: float
    max_two_step_gap: float
    max_three_step_gap: float
    orthogonal: bool
    commutes: bool
    samples: int
    seed: int


def classify_pair(metric: mt.KineticMetric, u, v, tol: float = CLASSIFY_TOL) -> PairClassification:
    """Classify a normal pair by the inner product of its unit normals.

    Orthogonal pairs resolve uniquely in two reflections regardless of
    order; pairs at minus one half resolve uniquely in three. Parallel
    normals are rejected.
    """
    value = metric.frame([u, v]).pair_cosine()
    if abs(value) >= 1.0 - mt.GRAM_RCOND:
        raise DegenerateNormalsError("normals are metric-parallel", (0, 1))
    if abs(value) <= tol:
        kind = "orthogonal"
    elif abs(value + 0.5) <= tol:
        kind = "three-stage"
    else:
        kind = "indeterminate"
    return PairClassification(inner_value=value, kind=kind, tolerance=tol)


def indeterminacy_xi(metric: mt.KineticMetric, p_minus, u, v) -> float:
    """Normalized metric distance between the two resolution orders.

    Resolves the pair once preferring ``u`` and once preferring ``v``
    (fixed-priority cascades) and returns the metric distance between
    the outcomes divided by the incoming momentum norm. Zero means the
    outcome does not depend on the order. Both walks run in one contact
    frame and yield only their impulse sums; no outcome momentum is
    formed, since the frame distance reads the sums alone.
    """
    frame = metric.frame([u, v], p_minus)
    p_norm = math.sqrt(max(frame.p_norm2, 0.0))
    if p_norm == 0.0:
        return 0.0
    first, lam_1, _, _ = _walk(frame, _U_FIRST)
    second, lam_2, _, _ = _walk(frame, _V_FIRST)
    if not (first and second):
        raise VerificationError("cascade did not converge while measuring xi")
    return frame.distance(lam_1, lam_2) / p_norm


def outcome_xi(metric: mt.KineticMetric, p_minus, outcomes) -> tuple[float, float]:
    """Max and mean normalized metric distance over every outcome pair.

    One solve against the mass matrix gives the duals of ``p_minus`` and
    of every outcome. Multiplied by the Cholesky factor ``L`` of the
    mass matrix (``M = L L^T``), the duals become points whose Euclidean
    distances are the metric distances of the outcomes. The pairwise
    differences of these points are taken in blocks of rows of at most
    :data:`XI_BLOCK` elements, so the work is quadratic in the outcome
    count but the memory only linear. Differences are taken before the
    norm, so near-equal outcomes do not lose their distance to the
    cancellation of two large norms.
    """
    stacked = np.array([metric._check(p_minus)] + [out.p_plus for out in outcomes])
    duals = np.linalg.solve(metric.mass, stacked.T).T
    p_norm = math.sqrt(max(float(stacked[0] @ duals[0]), 0.0))
    m = len(outcomes)
    if p_norm == 0.0 or m < 2:
        return 0.0, 0.0
    points = duals[1:] @ metric.chol
    worst = 0.0
    total = 0.0
    start = 0
    while start < m - 1:
        # Rows start..stop-1 against their later partners start+1..m-1;
        # row r pairs with the columns c >= r of the block.
        stop = min(m - 1, start + max(1, XI_BLOCK // ((m - start - 1) * metric.dim)))
        diff = points[start:stop, None, :] - points[None, start + 1 :, :]
        gaps = np.triu(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)))
        worst = max(worst, float(gaps.max()))
        total += float(gaps.sum())
        start = stop
    return worst / p_norm, total / p_norm / (m * (m - 1) // 2)


def pairwise_xi(
    metric: mt.KineticMetric, p_minus, normals, depth_cap: int = PAIRWISE_DEPTH_CAP
) -> tuple[float, float]:
    """Max and mean pairwise outcome distance for three or more normals.

    Extension of the two-contact measure: enumerates all minimal
    sequences and reports the normalized metric distances between every
    outcome pair. Callers should flag results from this function as the
    extension it is; callers that must report a truncated enumeration
    run :func:`enumerate_outcomes` and :func:`outcome_xi` themselves.
    """
    result = enumerate_outcomes(metric, p_minus, normals, depth_cap)
    return outcome_xi(metric, p_minus, result.outcomes)


def verify_commutation(
    metric: mt.KineticMetric,
    u,
    v,
    samples: int = 256,
    seed: int = 0,
    tol: float = 1e-10,
) -> CommutationReport:
    """Sample random momenta and compare both two-step reflection orders.

    Asserts the equivalence between commuting reflections and an
    orthogonal normal pair: the sampled maximum gap is below ``tol``
    exactly when the unit inner product is. Also reports the gap of the
    three-step alternating products, which closes for pairs at minus one
    half. Raises on inconsistency. The products run in the contact
    coordinates of one frame over ``u`` and ``v``, and each gap is a
    frame distance over the metric norm of the sampled momentum.
    """
    frame = metric.frame([u, v])
    value = frame.pair_cosine()
    rng = np.random.default_rng(seed)
    max_two = 0.0
    max_three = 0.0
    for _ in range(samples):
        p = rng.standard_normal(metric.dim)
        a = frame.duals @ p
        uvu = _alternate(frame, a, 0)
        vuv = _alternate(frame, a, 1)
        p_norm = mt.norm(metric, p)
        max_two = max(max_two, frame.distance(uvu[1], vuv[1]) / p_norm)
        max_three = max(max_three, frame.distance(uvu[2], vuv[2]) / p_norm)
    orthogonal = abs(value) < tol
    commutes = max_two < tol
    if commutes != orthogonal:
        raise VerificationError(
            f"commutation check inconsistent: inner={value:.3e}, "
            f"max two-step gap={max_two:.3e}"
        )
    return CommutationReport(
        inner_value=value,
        max_two_step_gap=max_two,
        max_three_step_gap=max_three,
        orthogonal=orthogonal,
        commutes=commutes,
        samples=samples,
        seed=seed,
    )


def _alternate(frame: mt.ContactFrame, a: np.ndarray, first: int) -> list[np.ndarray]:
    """Impulse sums after one, two and three alternating reflections.

    The walk starts across normal ``first`` of a two-normal frame, from
    a momentum whose inner products with the normals are ``a``.
    """
    a = a.copy()
    lam = np.zeros(2)
    sums = []
    k = first
    for _ in range(3):
        step = -2.0 * a[k] / frame.norms2[k]
        a += step * frame.gram[:, k]
        lam[k] += step
        sums.append(lam.copy())
        k = 1 - k
    return sums
