"""Covector algebra under the kinetic-energy metric.

Momenta and contact-manifold normals are row covectors attached to a
fixed configuration. Every inner product and norm in this module uses
the inverse mass matrix as the bilinear form, so "orthogonal" always
means orthogonal in the kinetic-energy sense, not the Euclidean one.
The metric object checks positive definiteness once, with a Cholesky
factorization, and never forms the explicit inverse: each dual is one
linear solve against the mass matrix. A :class:`ContactFrame` makes
that one solve for a set of contact normals (and a momentum) and
carries their Gram matrix and inner products, from which the resolver,
the uniqueness checks and the design residual read every metric
quantity of the normals.

A metric keeps the last frame built through :meth:`KineticMetric.frame`,
so the calls of one impact query (resolve, measure the indeterminacy,
classify the pair) share one solve. A frame always solves one column
more than it has normals, a zero one when no momentum is given: LAPACK
gives a column bits that depend on the number of columns but not on
the values of the others, so the normals' duals, Gram matrix and norms
are bitwise the same with and without a momentum, and a frame without
one may be served by a frame with one. Results never depend on which
calls came before.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateNormalsError,
    DimensionError,
    NonFiniteError,
    NotPositiveDefiniteError,
)

#: Relative tolerance for the symmetry check at metric construction.
SYMMETRY_RTOL = 1e-12

#: Optional dead-band for feasibility tests; the default tolerance is
#: exactly zero so that boundary momenta count as feasible.
DEADBAND = 1e-12

#: Relative threshold below which a Gram matrix is treated as singular.
GRAM_RCOND = 1e-12


class KineticMetric:
    """Mass matrix at one configuration, checked symmetric positive definite.

    The inverse mass matrix is applied to covectors by a linear solve;
    the inverse itself is never formed.
    """

    def __init__(self, mass):
        mass = np.asarray(mass, dtype=float)
        if mass.ndim != 2 or mass.shape[0] != mass.shape[1]:
            raise DimensionError(f"mass matrix must be square, got shape {mass.shape}")
        scale = np.abs(mass).max()
        if scale == 0.0 or not np.isfinite(scale):
            raise NotPositiveDefiniteError("mass matrix is zero or non-finite")
        if np.abs(mass - mass.T).max() > SYMMETRY_RTOL * scale:
            raise NotPositiveDefiniteError("mass matrix is not symmetric")
        mass = 0.5 * (mass + mass.T)
        try:
            chol = np.linalg.cholesky(mass)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                f"mass matrix is not positive definite: {exc}"
            ) from exc
        self._mass = mass
        self._mass.setflags(write=False)
        self._chol = chol
        self._chol.setflags(write=False)
        # (rows bytes, momentum bytes or None, frame) of the last frame.
        self._last = None

    @property
    def dim(self) -> int:
        return self._mass.shape[0]

    @property
    def mass(self) -> np.ndarray:
        return self._mass

    @property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor ``L`` of the mass matrix, ``M = L L^T``."""
        return self._chol

    def dual(self, a) -> np.ndarray:
        """Apply the inverse mass matrix to a row covector."""
        row = self._check(a)
        return np.linalg.solve(self._mass, row)

    def frame(self, normals: Sequence, p=None) -> "ContactFrame":
        """The :class:`ContactFrame` of ``normals`` (and ``p``) under this metric.

        Returns the last frame built here when its normals are bitwise
        ``normals`` and, if ``p`` is given, its momentum is bitwise
        ``p``; otherwise builds the frame and keeps it in place of the
        last. Kept frames are shared, so their arrays are read-only.
        Normals that do not form a (k, n) float array, or a ``p`` that
        is not an n-vector, bypass the memo, so the frame raises its
        own error.
        """
        try:
            rows = np.asarray(normals, dtype=float)
            row_p = None if p is None else np.atleast_1d(np.asarray(p, dtype=float))
        except (TypeError, ValueError):
            return ContactFrame(self, normals, p)
        n = self.dim
        if rows.shape != (len(normals), n) or not (row_p is None or row_p.shape == (n,)):
            return ContactFrame(self, normals, p)
        key_rows = rows.tobytes()
        key_p = None if row_p is None else row_p.tobytes()
        last = self._last
        if last is not None and last[0] == key_rows and (key_p is None or last[1] == key_p):
            return last[2]
        frame = ContactFrame(self, rows, row_p)
        for value in vars(frame).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self._last = (key_rows, key_p, frame)
        return frame

    def _check(self, a) -> np.ndarray:
        row = np.atleast_1d(np.asarray(a, dtype=float))
        if row.shape != (self.dim,):
            raise DimensionError(
                f"covector of shape {row.shape} does not match metric dim {self.dim}"
            )
        return row


def inner(metric: KineticMetric, a, b) -> float:
    """Kinetic-metric inner product of two covectors."""
    row_a = metric._check(a)
    return float(row_a @ metric.dual(b))


def norm(metric: KineticMetric, a) -> float:
    """Kinetic-metric norm; zero exactly when the covector is zero."""
    row = metric._check(a)
    # Round-off can make the quadratic form marginally negative at zero.
    return float(np.sqrt(max(row @ metric.dual(row), 0.0)))


def is_feasible(metric: KineticMetric, p, normals: Sequence, tol: float = 0.0) -> bool:
    """True when ``p`` is feasible with respect to every normal.

    A momentum is infeasible with respect to a normal when their inner
    product is below ``-tol``; the boundary (zero inner product) counts
    as feasible. ``tol`` defaults to zero; pass :data:`DEADBAND` to
    absorb round-off near the boundary.
    """
    if tol < 0.0:
        raise ValueError("feasibility tolerance must be nonnegative")
    rows = np.array([metric._check(u) for u in normals]).reshape(-1, metric.dim)
    return bool(np.all(rows @ metric.dual(p) >= -tol))


class ContactFrame:
    """Contact normals in contact coordinates, from one mass-matrix solve.

    Impacts move a momentum only inside the span of the normals, so a
    momentum ``p + lam @ rows`` is carried by ``lam`` and its inner
    products with the normals, on which the metric is the Gram matrix.
    Holds ``rows`` (k x n), their ``duals``, ``gram`` (``rows @ duals.T``,
    symmetrised), ``norms2`` (its diagonal) and ``scales``
    (``1 / sqrt(norms2)``); given ``p``, also ``p``, ``dual_p``,
    ``a = duals @ p`` and ``p_norm2``. The solve always takes ``k + 1``
    columns, the last a zero one when no ``p`` is given, so the
    normals' quantities are bitwise the same with and without ``p``.
    """

    def __init__(self, metric: KineticMetric, normals: Sequence, p=None):
        k, n = len(normals), metric.dim
        try:
            rows = np.asarray(normals, dtype=float)
        except (TypeError, ValueError):
            rows = None
        if rows is None or rows.shape != (k, n):
            # Checked one by one, so a bad normal is reported as before.
            rows = np.array([metric._check(u) for u in normals], dtype=float).reshape(k, n)
        stacked = np.zeros((k + 1, n))
        stacked[:k] = rows
        if p is not None:
            stacked[k] = metric._check(p)
        duals = np.linalg.solve(metric.mass, stacked.T).T
        rows = stacked[:k]
        gram = rows @ duals[:k].T
        self.rows = rows
        self.duals = duals[:k]
        self.gram = 0.5 * (gram + gram.T)
        self.norms2 = self.gram.diagonal().copy()
        norms2 = self.norms2.tolist()
        if not all(0.0 < x < math.inf for x in norms2):
            # A column of the solve depends on its own normal only, so a
            # NaN or an infinity reaches the norm of that normal alone.
            bad = [i for i, x in enumerate(norms2) if not x < math.inf]
            if bad:
                raise NonFiniteError(f"non-finite normals at indices {bad}", bad)
            bad = [i for i, x in enumerate(norms2) if x <= 0.0]
            raise DegenerateNormalsError(f"zero-norm normals at indices {bad}", bad)
        self.scales = 1.0 / np.sqrt(self.norms2)
        if p is not None:
            self.p = stacked[k]
            self.dual_p = duals[k]
            self.a = self.duals @ self.p
            self.p_norm2 = float(self.p @ self.dual_p)
            if not self.p_norm2 < math.inf:
                raise NonFiniteError("non-finite momentum")

    def __len__(self) -> int:
        return self.rows.shape[0]

    def pair_cosine(self) -> float:
        """Inner product of the first two unit normals."""
        return float(self.gram[0, 1] * self.scales[0] * self.scales[1])

    def momentum(self, lam: np.ndarray) -> np.ndarray:
        """The momentum ``p + lam @ rows``."""
        return self.p + lam @ self.rows

    def dual(self, lam: np.ndarray) -> np.ndarray:
        """Metric dual of ``p + lam @ rows``, from the stored duals."""
        return self.dual_p + lam @ self.duals

    def distance(self, lam_a: np.ndarray, lam_b: np.ndarray) -> float:
        """Metric distance between ``p + lam_a @ rows`` and ``p + lam_b @ rows``.

        The difference is formed before the metric is applied: the
        quadratic form ``d @ gram @ d`` loses the distance of near-equal
        outcomes to cancellation when the normals are nearly parallel.
        """
        d = lam_a - lam_b
        return math.sqrt(max(float((d @ self.rows) @ (d @ self.duals)), 0.0))


def _check_gram(gram: np.ndarray) -> None:
    """Reject linearly dependent normal sets, naming the offending subset.

    ``gram`` is a :class:`ContactFrame` Gram matrix, whose diagonal the
    frame has already checked to be positive. The unit Gram matrix of
    two normals, ``[[1, c], [c, 1]]``, has the eigenvalues ``1 - |c|``
    and ``1 + |c|``, so a pair takes the eigenvalue test in closed form.
    """
    if gram.shape == (2, 2):
        (g00, g01), (_, g11) = gram.tolist()
        c = abs(g01 / math.sqrt(g00 * g11))
        bad = [0, 1] if 1.0 - c <= GRAM_RCOND * (1.0 + c) else None
    else:
        unit_gram = gram / np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
        eigvals, eigvecs = np.linalg.eigh(unit_gram)
        bad = None
        if eigvals[0] <= GRAM_RCOND * max(eigvals[-1], 1.0):
            vec = eigvecs[:, 0]
            bad = sorted(np.flatnonzero(np.abs(vec) > 1e-8 * np.abs(vec).max()).tolist())
    if bad is not None:
        raise DegenerateNormalsError(
            f"normals at indices {bad} are linearly dependent under the metric",
            bad,
        )
