"""Mechanical model library.

A model supplies everything the resolvers and the time stepper need:
dimension, mass matrix, potential and its gradient, gap functions and
their gradients; applied forces go to ``simulate`` as its sampler
``forces(q, v, t)``, not to the model. Gap functions are positive when
separated, zero at contact, negative when penetrating, and their
gradients are the contact-manifold normals.

Shipped models: a Newton's cradle of spheres on a line, a planar
three-ball billiards break, a one dimensional bouncing ball, and a
planar rigid body with two body-fixed contact points (a reduced
leg-and-tail mechanism used for design optimization).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import metric as mt
from .errors import (
    DegenerateNormalsError,
    DimensionError,
    SimpactError,
    VerificationError,
)


class MechModel:
    """Interface for simple mechanical systems with unilateral contacts.

    Subclasses must define ``dim``, ``mass_matrix`` and the gap
    functions; everything else has sensible defaults. ``constant_mass``
    lets the stepper skip the configuration gradient of the kinetic
    energy. ``affine_potential``, which needs ``constant_mass``, declares
    a potential gradient that is the same at every configuration: the
    stepper then takes each force-free step without held contacts as
    uniformly accelerated flight, in closed form. ``linear_gaps``
    declares gaps ``G q + c`` with a constant gradient ``G``: the stepper
    then takes ``G`` and ``c`` once per run, evaluates the gaps at its
    nodes on floats, and, given a flight, takes each force-free held step
    as the flight projected onto the held manifold, in closed form.
    :func:`validate_model` checks both declarations. Models are immutable
    after construction and evaluation is pure.
    """

    dim: int = 0
    constant_mass: bool = False
    affine_potential: bool = False
    linear_gaps: bool = False
    length_scale: float = 1.0

    def mass_matrix(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def potential(self, q: np.ndarray) -> float:
        return 0.0

    def potential_gradient(self, q: np.ndarray) -> np.ndarray:
        return np.zeros(self.dim)

    def gaps(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gap_gradients(self, q: np.ndarray) -> np.ndarray:
        """Rows are the contact normals at ``q``, one per gap."""
        raise NotImplementedError

    def gap_tangents(self, q: np.ndarray) -> np.ndarray | None:
        """Rows map velocities to contact-point tangential speed, or None."""
        return None

    @property
    def n_contacts(self) -> int:
        return len(self.gaps(np.zeros(self.dim)))

    @property
    def contact_labels(self) -> tuple[str, ...]:
        n = self.n_contacts
        if n == 2:
            return ("u", "v")
        return tuple(f"c{i}" for i in range(n))

    def metric_at(self, q: np.ndarray) -> mt.KineticMetric:
        return mt.KineticMetric(self.mass_matrix(np.asarray(q, dtype=float)))

    def lagrangian(self, q: np.ndarray, qdot: np.ndarray) -> float:
        q = np.asarray(q, dtype=float)
        qdot = np.asarray(qdot, dtype=float)
        return 0.5 * float(qdot @ self.mass_matrix(q) @ qdot) - self.potential(q)

    def kinetic_config_grad(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Gradient of v' M(q) v with respect to q; zero for constant mass.

        The default uses central differences of the mass matrix, which
        is accurate enough for the stepper's purposes; models with a
        configuration-dependent mass may override with an exact form.
        """
        if self.constant_mass:
            return np.zeros(self.dim)
        q = np.asarray(q, dtype=float)
        out = np.zeros(self.dim)
        for i in range(self.dim):
            step = 1e-6 * max(1.0, abs(q[i]))
            qp = q.copy()
            qp[i] += step
            qm = q.copy()
            qm[i] -= step
            out[i] = float(v @ (self.mass_matrix(qp) - self.mass_matrix(qm)) @ v) / (2 * step)
        return out

    def potential_hessian(self, q: np.ndarray) -> np.ndarray:
        """Hessian of the potential at ``q``.

        Zero for a declared ``affine_potential``, whose gradient
        :func:`validate_model` requires to be bitwise constant, so its
        differences would be exactly zero too. Otherwise the default uses
        central differences of ``potential_gradient``.
        """
        if self.affine_potential:
            return np.zeros((self.dim, self.dim))
        return _central_jacobian(self.potential_gradient, np.asarray(q, dtype=float), 1e-6)


def _central_jacobian(fun, x, rel):
    """Central-difference Jacobian of ``fun`` at ``x``, one column per entry of ``x``.

    Entry ``i`` moves by ``rel * max(1, |x_i|)`` either way.
    """
    columns = []
    for i in range(x.size):
        step = rel * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        columns.append((fun(xp) - fun(xm)) / (2.0 * step))
    return np.array(columns).T


def _positive(values, name):
    arr = np.asarray(values, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be positive and finite, got {values}")
    return arr


class CradleModel(MechModel):
    """Spheres constrained to a line, adjacent pairs in unilateral contact.

    Configuration is the ball centers left to right; gap i separates
    balls i and i+1.
    """

    constant_mass = True
    affine_potential = True
    linear_gaps = True

    def __init__(self, masses: Sequence[float], radii: Sequence[float]):
        masses = _positive(masses, "masses")
        radii = _positive(radii, "radii")
        if masses.size != radii.size:
            raise DimensionError("masses and radii must have equal length")
        if masses.size < 2:
            raise ValueError("a cradle needs at least two balls")
        self.masses = masses
        self.radii = radii
        self._contact_distances = radii[:-1] + radii[1:]
        self.dim = masses.size
        self.length_scale = float(2.0 * radii.mean())
        self._mass = np.diag(masses)
        grads = np.zeros((self.dim - 1, self.dim))
        for i in range(self.dim - 1):
            grads[i, i] = -1.0
            grads[i, i + 1] = 1.0
        self._grads = grads

    def mass_matrix(self, q):
        return self._mass

    def gaps(self, q):
        q = np.asarray(q, dtype=float)
        return q[1:] - q[:-1] - self._contact_distances

    def gap_gradients(self, q):
        return self._grads

    def touching_positions(self, gap: float = 0.0) -> np.ndarray:
        """Ball centers with every pair separated by ``gap``, the first at 0."""
        q = np.zeros(self.dim)
        for i in range(1, self.dim):
            q[i] = q[i - 1] + self.radii[i - 1] + self.radii[i] + gap
        return q


class BallModel(MechModel):
    """One-dimensional ball above a floor at height zero, under gravity."""

    constant_mass = True
    affine_potential = True
    linear_gaps = True

    def __init__(self, mass: float, gravity: float = 9.81, radius: float = 0.0):
        (self.m,) = _positive([mass], "mass")
        if gravity < 0.0 or radius < 0.0:
            raise ValueError("gravity and radius must be nonnegative")
        self.g = float(gravity)
        self.radius = float(radius)
        self.dim = 1
        self.length_scale = max(radius, 1.0)
        self._mass = np.array([[self.m]])

    def mass_matrix(self, q):
        return self._mass

    def potential(self, q):
        return self.m * self.g * float(q[0])

    def potential_gradient(self, q):
        return np.array([self.m * self.g])

    def gaps(self, q):
        return np.array([float(q[0]) - self.radius])

    def gap_gradients(self, q):
        return np.array([[1.0]])


class BilliardsModel(MechModel):
    """Planar three-ball break: balls a and b struck simultaneously by c.

    Configuration is ``[x_a, y_a, x_b, y_b, x_c, y_c]``. The mass matrix
    is diagonal because rotational modes carry no energy in this model.
    Gap 0 separates a from c, gap 1 separates b from c.
    """

    constant_mass = True
    affine_potential = True

    def __init__(self, masses: Sequence[float], radii: Sequence[float]):
        masses = _positive(masses, "masses")
        radii = _positive(radii, "radii")
        if masses.size != 3 or radii.size != 3:
            raise DimensionError("billiards needs exactly three masses and radii")
        self.masses = masses
        self.radii = radii
        self.dim = 6
        self.length_scale = float(2.0 * radii.mean())
        self._mass = np.diag(np.repeat(masses, 2))

    def mass_matrix(self, q):
        return self._mass

    def _separations(self, q):
        q = np.asarray(q, dtype=float)
        a, b, c = q[0:2], q[2:4], q[4:6]
        return a - c, b - c

    def gaps(self, q):
        ac, bc = self._separations(q)
        r = self.radii
        return np.array(
            [np.linalg.norm(ac) - (r[0] + r[2]), np.linalg.norm(bc) - (r[1] + r[2])]
        )

    def gap_gradients(self, q):
        ac, bc = self._separations(q)
        d_ac = np.linalg.norm(ac)
        d_bc = np.linalg.norm(bc)
        if d_ac == 0.0 or d_bc == 0.0:
            raise SimpactError("coincident ball centers")
        grads = np.zeros((2, 6))
        grads[0, 0:2] = ac / d_ac
        grads[0, 4:6] = -ac / d_ac
        grads[1, 2:4] = bc / d_bc
        grads[1, 4:6] = -bc / d_bc
        return grads

    def contact_angle(self, q) -> float:
        """Angle at the cue ball between the two center lines."""
        ac, bc = self._separations(q)
        cosang = float(ac @ bc) / (np.linalg.norm(ac) * np.linalg.norm(bc))
        return math.acos(min(1.0, max(-1.0, cosang)))

    def min_break_angle(self) -> float:
        """Smallest double-contact angle before balls a and b overlap."""
        r = self.radii
        d_ac, d_bc = r[0] + r[2], r[1] + r[2]
        cos_max = (d_ac**2 + d_bc**2 - (r[0] + r[1]) ** 2) / (2 * d_ac * d_bc)
        return math.acos(min(1.0, max(-1.0, cos_max)))

    def double_contact_configuration(self, theta: float) -> np.ndarray:
        """Place the cue at the origin with both gaps closed at ``theta``.

        Balls a and b sit at angles plus and minus ``theta / 2`` from
        the positive x axis, which is therefore the bisector.
        """
        theta_min = self.min_break_angle()
        if not theta_min - 1e-12 <= theta <= math.pi + 1e-12:
            raise ValueError(
                f"break angle {theta:.4f} outside [{theta_min:.4f}, pi]"
            )
        r = self.radii
        half = theta / 2.0
        a = (r[0] + r[2]) * np.array([math.cos(half), math.sin(half)])
        b = (r[1] + r[2]) * np.array([math.cos(half), -math.sin(half)])
        return np.array([a[0], a[1], b[0], b[1], 0.0, 0.0])

    def cue_break_momentum(self, q, speed: float = 1.0) -> np.ndarray:
        """Momentum of the cue moving along the bisector, into both contacts."""
        ac, bc = self._separations(q)
        direction = ac / np.linalg.norm(ac) + bc / np.linalg.norm(bc)
        n = np.linalg.norm(direction)
        if n == 0.0:
            raise SimpactError("contact lines are opposed; bisector undefined")
        qdot = np.zeros(6)
        qdot[4:6] = speed * direction / n
        return qdot @ self._mass


class LegTailModel(MechModel):
    """Planar rigid body with two body-fixed contact points on a floor.

    Configuration is ``[x, y, theta]``; contact i touches the floor when
    the world height of its body-frame offset reaches zero. The two
    offsets are the design parameters of the orthogonality optimization;
    through the rotational inertia they couple into the kinetic metric,
    so the normal pair's inner product depends on both the configuration
    and the design.
    """

    constant_mass = True
    affine_potential = True

    def __init__(
        self,
        mass: float,
        inertia: float,
        contact_a: Sequence[float],
        contact_b: Sequence[float],
        gravity: float = 9.81,
    ):
        (self.m,) = _positive([mass], "mass")
        (self.J,) = _positive([inertia], "inertia")
        if gravity < 0.0:
            raise ValueError("gravity must be nonnegative")
        self.g = float(gravity)
        self.r_a = np.asarray(contact_a, dtype=float)
        self.r_b = np.asarray(contact_b, dtype=float)
        if self.r_a.shape != (2,) or self.r_b.shape != (2,):
            raise DimensionError("contact offsets must be planar points")
        if np.allclose(self.r_a, self.r_b, atol=1e-12):
            raise DegenerateNormalsError(
                "coincident contact offsets give metric-parallel normals", (0, 1)
            )
        self.dim = 3
        self.length_scale = float(
            max(np.linalg.norm(self.r_a), np.linalg.norm(self.r_b), 1e-3)
        )
        self._mass = np.diag([self.m, self.m, self.J])

    def mass_matrix(self, q):
        return self._mass

    def potential(self, q):
        return self.m * self.g * float(q[1])

    def potential_gradient(self, q):
        return np.array([0.0, self.m * self.g, 0.0])

    def _rotated(self, theta):
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        return rot @ self.r_a, rot @ self.r_b

    def gaps(self, q):
        q = np.asarray(q, dtype=float)
        wa, wb = self._rotated(q[2])
        return np.array([q[1] + wa[1], q[1] + wb[1]])

    def gap_gradients(self, q):
        q = np.asarray(q, dtype=float)
        wa, wb = self._rotated(q[2])
        # d/dtheta of the rotated offset height equals its world x component.
        return np.array([[0.0, 1.0, wa[0]], [0.0, 1.0, wb[0]]])

    def gap_tangents(self, q):
        q = np.asarray(q, dtype=float)
        wa, wb = self._rotated(q[2])
        return np.array([[1.0, 0.0, -wa[1]], [1.0, 0.0, -wb[1]]])

    def double_contact_pose(self) -> np.ndarray:
        """A pose with both contacts on the floor, body above it.

        Both contact heights match when the rotated offsets have equal
        world height, which fixes the body angle up to a half turn; the
        height then follows. Raises when neither branch puts the body
        above the floor.
        """
        delta = self.r_a - self.r_b
        theta0 = math.atan2(-delta[1], delta[0])
        for theta in (theta0, theta0 + math.pi):
            wa, _ = self._rotated(theta)
            y = -wa[1]
            if y > 0.0:
                return np.array([0.0, y, theta])
        raise SimpactError(
            "no double-contact pose with the body above the floor exists "
            "for these offsets"
        )


def billiards_build(
    masses: Sequence[float], radii: Sequence[float], q0: Sequence[float] | None = None
) -> BilliardsModel:
    """Build a billiards model, rejecting initially overlapping balls."""
    model = BilliardsModel(masses, radii)
    if q0 is not None:
        q0 = np.asarray(q0, dtype=float)
        if q0.shape != (6,):
            raise DimensionError("billiards configuration must have six entries")
        gaps = model.gaps(q0)
        tol = -1e-9 * model.length_scale
        if np.any(gaps < tol):
            raise ValueError(f"balls overlap initially: gaps {gaps}")
        ab = q0[0:2] - q0[2:4]
        if np.linalg.norm(ab) < model.radii[0] + model.radii[1] + tol:
            raise ValueError("balls a and b overlap initially")
    return model


def billiards_pair_inner(model: BilliardsModel, q_star) -> float:
    """Metric inner product of the two break normals at a double contact.

    Cross-checks the analytic value against the closed form
    ``cos(theta) / m_c`` obtained from the center geometry through the
    law of cosines; the two must agree to near machine precision. The
    value depends on neither the outer masses nor any radius.
    """
    q_star = np.asarray(q_star, dtype=float)
    gaps = model.gaps(q_star)
    tol = 1e-7 * model.length_scale
    if np.any(np.abs(gaps) > tol):
        raise SimpactError(f"both contacts must be closed, gaps {gaps}")
    grads = model.gap_gradients(q_star)
    value = float(mt.ContactFrame(model.metric_at(q_star), grads[:2]).gram[0, 1])
    theta = model.contact_angle(q_star)
    closed_form = math.cos(theta) / model.masses[2]
    denom = max(abs(value), abs(closed_form), 1e-30)
    if abs(value - closed_form) > 1e-12 * max(1.0, denom):
        raise VerificationError(
            f"normal inner product {value!r} disagrees with cos(theta)/m_c "
            f"{closed_form!r}"
        )
    return value


def validate_model(model: MechModel, q_samples: Sequence[np.ndarray]):
    """Interface invariant suite: SPD mass and gradient consistency.

    Checks that the mass matrix is symmetric positive definite and that
    the gap gradients match central finite differences of the gaps at
    every supplied configuration. A model declaring ``affine_potential``
    must also declare ``constant_mass`` and give a potential gradient
    bitwise equal at every configuration, since its closed-form step
    takes the gradient at the step start where the node momentum takes
    it at the midpoint. A model declaring ``linear_gaps`` must give gap
    gradients ``G`` bitwise equal at every configuration, and gaps equal
    to ``G q + c`` to rounding, with ``c`` its gaps at zero: the stepper
    takes ``G`` and ``c`` once, at zero. Raises on the first violation.
    """
    if model.affine_potential and not model.constant_mass:
        raise VerificationError("an affine potential is declared without a constant mass")
    grad_ref = g_ref = None
    if model.linear_gaps:
        c_ref = np.asarray(model.gaps(np.zeros(model.dim)), dtype=float)
    for q in q_samples:
        q = np.asarray(q, dtype=float)
        model.metric_at(q)  # raises unless SPD
        if model.affine_potential:
            grad = np.asarray(model.potential_gradient(q), dtype=float)
            if grad_ref is None:
                grad_ref = grad
            elif grad.tobytes() != grad_ref.tobytes():
                raise VerificationError(
                    f"potential gradient {grad} at q={q} differs from {grad_ref}, "
                    "but the potential is declared affine"
                )
        grads = model.gap_gradients(q)
        if model.linear_gaps:
            grads = np.asarray(grads, dtype=float)
            if g_ref is None:
                g_ref = grads
            elif grads.shape != g_ref.shape or grads.tobytes() != g_ref.tobytes():
                raise VerificationError(
                    f"gap gradients at q={q} differ from {g_ref.tolist()}, "
                    "but the gaps are declared linear"
                )
            err = np.abs(model.gaps(q) - (g_ref @ q + c_ref))
            bound = 8.0 * np.finfo(float).eps * (np.abs(g_ref) @ np.abs(q) + np.abs(c_ref))
            if np.any(~(err <= bound)):
                raise VerificationError(
                    f"gaps at q={q} differ from G q + c by {err.max():.3e}, "
                    "but the gaps are declared linear"
                )
        fd = _central_jacobian(model.gaps, q, 1e-7)
        err = np.abs(grads - fd).max(initial=0.0)
        if err > 1e-6 * max(1.0, np.abs(grads).max(initial=0.0)):
            raise VerificationError(
                f"gap gradients disagree with finite differences by {err:.3e} at q={q}"
            )
