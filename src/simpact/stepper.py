"""Midpoint variational time stepper with impact events.

Away from contact the integrator solves the discrete Euler-Lagrange
(DEL) equations built from a midpoint-quadrature discrete Lagrangian:
the forward discrete momentum of one interval must balance the backward
discrete momentum of the next. Impacts are located by solving the
variable-substep DEL jointly with the gap constraint, so the impact
configuration satisfies the discrete dynamics exactly; the incoming
discrete momentum is then mapped through the propagative resolution at
the impact-configuration metric and the remainder of the interval is
integrated from the mapped momentum.

One function, :func:`_solve_held`, assembles the Newton system of every
fixed-length step, with a gap row and an impulse multiplier per held
contact; with none held it is the free step, which :func:`_solve_free`
takes in closed form, on Python floats or by that Newton solve. A
force-free held step of linear gaps is linear and takes its closed form
instead (:func:`_solve_held_flight`).

Every Newton solve uses a Jacobian assembled from model derivatives:
the mass matrix and potential Hessian for the momentum block, and the
gap gradients for the constraint rows and multiplier columns. Forward
differences remain for applied forces, for the impact time, and for
the first build of a configuration-dependent mass's free-step Jacobian
and its fallback rebuilds.

Jacobians are kept while they contract (simplified Newton). A
simulation holds one per held-contact set, shared by the full-length
steps taken with that set held. A solve first takes the full step of the
kept Jacobian when it lowers the residual, and keeps the matrix for the
next iteration and the next step while each step cuts the residual norm
to at most ``KEEP_RATE`` of its previous value or to the tolerance;
otherwise the Jacobian is rebuilt at the current iterate and its step is
line-searched. Localization and the partial substep after an in-step
impact keep a Jacobian within their one solve only. Convergence is
decided by the residual alone.

The free step of a configuration-dependent mass keeps the inverse of
its differenced Jacobian instead, and refines it after every accepted
step by Broyden's rank-one secant update in Sherman-Morrison form
(C. G. Broyden, Math. Comp. 19, 1965), so it is rebuilt only when a
secant step fails to lower the residual or the update degenerates.
Such a Jacobian changes within a step by more than ``KEEP_RATE`` allows,
and re-differencing it at every step costs one residual evaluation per
unknown.

A force-free step with no contact held takes no Newton solve when the
model declares ``constant_mass`` and ``affine_potential`` and its mass
is diagonal: the midpoint DEL step is then exact uniformly accelerated
flight (J. E. Marsden and M. West, Acta Numerica 10, 2001), flown in
closed form per coordinate on Python floats (:func:`_solve_flight`)
with the constant force taken once per simulation. A run without a
force sampler flies its stretches of such steps in one loop
(:meth:`_Sim.fly`) and hands only the steps that cross a contact, as
flown, and the held ones to :meth:`_Sim.advance`. A constant mass that
is not diagonal takes the Newton free step.

When such a model also declares ``linear_gaps``, gaps ``G q + c`` with
``G`` and ``c`` taken once per simulation, a node's gaps are evaluated
on floats (:meth:`_Sim.node_gaps`), and a force-free step with contacts
held is linear: it is the flight projected onto the held manifold, with
one multiplier per held contact from a small system on floats whose
factors are kept per held set (:func:`_solve_held_flight`). Its release
rule is the Newton step's. Steps under a force sampler or friction, and
models with nonlinear gaps, keep the Newton held step.

The Newton free step of a one-coordinate constant mass with a nonzero
diagonal, such as an oscillator, a pendulum or a forced ball, runs on
Python floats (:func:`_solve_line`), since numpy calls on one-element
arrays cost far more than their arithmetic. It repeats the array path's
IEEE operations in their order, so its configuration, node momentum,
errors and kept Jacobian are bitwise those of the array path. Held and
localization solves, models with more coordinates and variable masses
keep the array path.

Square solves divide by the diagonal when the matrix is diagonal with no
zero on it, as a constant diagonal mass and its DEL Jacobian are; the
mass is factored once per simulation and a kept Jacobian carries its
diagonal. Every other system, the bordered held and localization ones
among them, goes to ``np.linalg.solve``. A secant inverse takes one
such solve per column when it is built and none while it is updated.

Chattering contacts that impact more often than the Zeno window within
one nominal step are switched to plastic and then held as active
constraints (DEL augmented with the gap equation and an impulse
multiplier); a held contact releases when its multiplier turns
negative, meaning the constraint would have to pull.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import metric as mt
from .errors import (
    ConfigError,
    DimensionError,
    ImpactLocationError,
    NotPositiveDefiniteError,
    SimpactError,
    StepFailureError,
    VerificationError,
)
from .models import MechModel
from .resolution import (
    CascadePolicy,
    CascadeStatus,
    ImpactKind,
    _cascade,
    _inelastic,
    _plastic,
)

#: Substeps shorter than this fraction of the interval are collapsed.
TINY_FRACTION = 1e-9

#: Penetration deeper than this fraction of the length scale counts as
#: a crossing; resting contacts at exactly zero never trigger.
PENETRATION_RTOL = 1e-12

#: Gaps within this fraction of the length scale count as closed.
ACTIVATION_RTOL = 1e-9

#: Crossings within this fraction of the nominal step of each other form
#: one simultaneous event.
SIMULTANEITY_RTOL = 1e-6

#: Impacts one step may resolve before it fails, so every step is bounded.
MAX_IMPACTS_PER_STEP = 200

#: Iterations one Newton solve may take before it fails.
NEWTON_MAX_ITER = 60

#: Impacts one contact may produce within one nominal step before the
#: next one is forced plastic (R = 0).
ZENO_WINDOW = 4

ForceSampler = Callable[[np.ndarray, np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class FrictionConfig:
    """Scalar-tangent Coulomb friction on selected contacts."""

    mu: float
    contacts: tuple[int, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.mu < math.inf:
            raise ValueError(f"friction mu must be nonnegative and finite, got {self.mu!r}")


@dataclass(frozen=True)
class StepperConfig:
    """Numerical parameters of the time stepper.

    ``restitution`` may be a scalar applied to every contact or a
    per-contact sequence; an event takes the smallest of its contacts'
    coefficients R, and runs the elastic cascade at R = 1, the plastic
    projection at R = 0 and their blend with weight R between.
    Crossings within ``SIMULTANEITY_RTOL * h`` of each other form one
    simultaneous event. :data:`SIMULTANEITY_RTOL`, the Newton iteration
    cap :data:`NEWTON_MAX_ITER` and the Zeno window :data:`ZENO_WINDOW`
    are module constants.
    """

    h: float
    newton_tol: float = 1e-10
    restitution: float | tuple[float, ...] = 1.0
    policy: CascadePolicy = field(default_factory=CascadePolicy.most_violating)
    friction: FrictionConfig | None = None

    def __post_init__(self):
        # Written so that NaN fails every check.
        for name in ("h", "newton_tol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        rest = self.restitution
        rest = float(rest) if np.ndim(rest) == 0 else tuple(float(r) for r in rest)
        if any(not 0.0 <= r <= 1.0 for r in np.atleast_1d(rest)):
            raise ValueError(f"restitution must lie in [0, 1], got {self.restitution!r}")
        object.__setattr__(self, "restitution", rest)

    def restitution_for(self, contact: int) -> float:
        if np.isscalar(self.restitution):
            return float(self.restitution)
        return float(self.restitution[contact])


@dataclass(frozen=True)
class ImpactEvent:
    """One resolved impact: when, which contacts, and what it did."""

    t: float
    contacts: tuple[int, ...]
    kind: ImpactKind
    impulses: tuple[float, ...]
    energy_before: float
    energy_after: float
    forced: str | None = None  # None | "zeno" | "step-cap" | "graze" | "resting"
    sequence: tuple[int, ...] = ()

    @property
    def energy_loss(self) -> float:
        return self.energy_before - self.energy_after


@dataclass
class Trajectory:
    """Time-stamped samples plus the impact events between them."""

    times: np.ndarray
    states: np.ndarray
    momenta: np.ndarray
    events: list[ImpactEvent]
    holds: list[tuple[float, int, float]]  # (t, contact, impulse)
    nominal_step: float

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def write_csv(self, stream, comments: Sequence[str] = ()) -> None:
        cols = ["t"]
        cols += [f"q{i + 1}" for i in range(self.dim)]
        cols += [f"p{i + 1}" for i in range(self.dim)]
        cols.append("event")
        rows = (
            [_fmt(t), *map(_fmt, q), *map(_fmt, p), str(int(flag))]
            for t, q, p, flag in zip(self.times, self.states, self.momenta, _event_flags(self))
        )
        write_table(stream, comments, ",".join(cols), rows)

    def write_events_csv(self, stream, comments: Sequence[str] = ()) -> None:
        header = "t_star,contacts,kind,forced,impulses,energy_before,energy_after"
        rows = (
            [_fmt(ev.t), ";".join(map(str, ev.contacts)), ev.kind.value, ev.forced or "",
             ";".join(map(_fmt, ev.impulses)), _fmt(ev.energy_before), _fmt(ev.energy_after)]
            for ev in self.events
        )
        write_table(stream, comments, header, rows)


def write_table(stream, comments: Sequence[str], header: str, rows) -> None:
    """Write ``# `` comment lines, a header line and comma-joined rows of strings."""
    for line in comments:
        stream.write(f"# {line}\n")
    stream.write(header + "\n")
    for row in rows:
        stream.write(",".join(row) + "\n")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _event_flags(traj: Trajectory) -> np.ndarray:
    flags = np.zeros(traj.times.size, dtype=bool)
    for ev in traj.events:
        idx = int(np.searchsorted(traj.times, ev.t, side="left"))
        flags[min(idx, flags.size - 1)] = True
    return flags


# ---------------------------------------------------------------------------
# Discrete Lagrangian and momenta


def discrete_momenta(model: MechModel, q_a, t_a: float, q_b, t_b: float, forces=None):
    """Backward and forward discrete momenta of one interval.

    Unforced, these are the exact partial derivatives of the midpoint
    discrete Lagrangian with respect to its two endpoint configurations.
    The generalized force of the sampler ``forces(q, v, t)``, when given,
    is evaluated once at the midpoint state and split equally onto the
    two slots, giving the forced discrete Legendre transforms.
    """
    h = t_b - t_a
    if h <= 0.0:
        raise ValueError("interval must have positive duration")
    q_a = np.asarray(q_a, dtype=float)
    q_b = np.asarray(q_b, dtype=float)
    qm = 0.5 * (q_a + q_b)
    v = (q_b - q_a) / h
    mv = model.mass_matrix(qm) @ v
    if model.constant_mass:
        grad = -model.potential_gradient(qm)
    else:
        grad = 0.5 * model.kinetic_config_grad(qm, v) - model.potential_gradient(qm)
    half = 0.5 * h * grad
    if forces is not None:
        half = half + 0.5 * h * np.asarray(forces(qm, v, 0.5 * (t_a + t_b)), float)
    return -mv + half, mv + half


def node_momentum(model: MechModel, q_a, t_a, q_b, t_b, forces=None) -> np.ndarray:
    """Discrete momentum carried into the node at ``t_b``."""
    return discrete_momenta(model, q_a, t_a, q_b, t_b, forces)[1]


# ---------------------------------------------------------------------------
# Newton machinery


#: Relative step of the forward differences that remain in the Jacobians.
FD_REL = 1e-7

#: A Newton Jacobian is kept for the next iteration and the next solve
#: only while each step it makes cuts the residual norm to at most this
#: fraction of its previous value, or to the tolerance.
KEEP_RATE = 1e-3


def _diagonal(matrix):
    """The diagonal of ``matrix`` when it is its only nonzero entries, else None."""
    diag = matrix.diagonal()
    if np.count_nonzero(matrix) == diag.size and diag.all():
        return diag
    return None


def _solve(matrix, diag, rhs):
    """``matrix^-1 rhs`` for a 1-D ``rhs``, with ``diag = _diagonal(matrix)``.

    Divides by ``diag`` when there is one; otherwise ``np.linalg.solve``,
    which raises ``LinAlgError`` for a singular matrix.
    """
    if diag is not None:
        return rhs / diag
    return np.linalg.solve(matrix, rhs)


def _mass_solve(model, mass, q, p):
    """Velocity ``M(q)^-1 p``; ``mass`` is a constant mass and its diagonal, or None."""
    if mass is None:
        matrix = model.mass_matrix(q)
        mass = (matrix, _diagonal(matrix))
    return _solve(*mass, p)


class _KeptJacobian:
    """One Newton Jacobian kept between iterations and between solves.

    :meth:`keep` sets ``matrix`` with ``diag``, its :func:`_diagonal`,
    and clears ``inverse``. A ``secant`` slot keeps ``inverse`` instead:
    the inverse of its last built Jacobian, refined by :func:`_broyden`
    after each accepted step.
    """

    __slots__ = ("matrix", "diag", "inverse", "secant")

    def __init__(self):
        self.secant = False
        self.keep(None, None)

    def keep(self, matrix, diag):
        """Keep ``matrix`` with its diagonal ``diag``, already computed."""
        self.matrix, self.diag = matrix, diag
        self.inverse = None


def _inverse(matrix):
    """The inverse of ``matrix``, one column solve at a time, or None when it is singular.

    Not ``np.linalg.inv``: LAPACK takes a matrix right-hand side through
    level-3 BLAS, whose first call alone adds about 0.3 MB to the
    resident set; a vector one does not.
    """
    try:
        return np.column_stack([np.linalg.solve(matrix, e) for e in np.eye(len(matrix))])
    except np.linalg.LinAlgError:
        return None


def _broyden(inverse, dx, dr):
    """Broyden's update of an inverse Jacobian ``inverse``.

    The step ``dx`` changed the residual by ``dr``. The rank-one secant
    update in Sherman-Morrison form maps ``dr`` to ``dx``; None when its
    denominator is zero or not finite.
    """
    h_dr = inverse @ dr
    dx_h = dx @ inverse
    denom = float(dx_h @ dr)
    if denom == 0.0 or not math.isfinite(denom):
        return None
    return inverse + np.outer(dx - h_dr, dx_h / denom)


def _fd_jacobian(fun, x, r0, cols):
    """Forward-difference Jacobian columns ``cols`` of ``fun`` at ``x``, given ``r0 = fun(x)``."""
    jac = np.empty((r0.size, len(cols)))
    for j, i in enumerate(cols):
        step = FD_REL * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += step
        jac[:, j] = (fun(xp) - r0) / step
    return jac


def _newton(fun, x0, tol, jac, slot=None, floor=None):
    """Damped simplified Newton iteration.

    ``jac(x, r, fun)`` returns the Jacobian at ``x`` given the residual
    ``r = fun(x)``. ``slot`` is the :class:`_KeptJacobian` kept from
    earlier solves; None keeps the Jacobian within this solve only.
    A kept Jacobian is tried first, with a full step that is taken when
    it lowers the residual. A Jacobian stays kept while each of its
    steps cuts the residual norm by the factor ``KEEP_RATE`` or to
    ``tol`` (a last step is limited by rounding, not by the Jacobian);
    otherwise it is rebuilt at the current iterate, and the step of the
    fresh matrix is damped by halving until the residual falls.
    A ``secant`` slot keeps the inverse of the Jacobian instead and
    refines it by :func:`_broyden` after every accepted step; it is
    dropped when its step does not lower the residual, when the update
    has no finite denominator, or when the rebuilt matrix is singular.
    The last call of ``fun`` is at the returned point, so callers may
    keep what that evaluation computed.
    ``floor(x)``, when given, is the rounding floor of the residual at
    ``x``: a point whose line search stalls is accepted when its
    residual norm is within it, since no step can then lower it.
    Raises :class:`StepFailureError` with the last residual norm when it
    cannot reduce the residual below ``tol`` in :data:`NEWTON_MAX_ITER`
    iterations.
    """
    if slot is None:
        slot = _KeptJacobian()
    x = np.asarray(x0, dtype=float).copy()
    r = fun(x)
    # The 2-norm as np.linalg.norm computes it for a 1-D float array.
    rn = math.sqrt(float(r @ r))
    for it in range(NEWTON_MAX_ITER):
        if rn <= tol:
            return x
        jmat, jdiag, inverse = slot.matrix, slot.diag, slot.inverse
        slot.keep(None, None)
        # A kept Jacobian's step is tried once at full length; a fresh
        # one's is halved until the residual falls.
        fresh = jmat is None and inverse is None
        dx = None
        alpha = 1.0
        while True:
            if dx is None:
                if fresh:
                    jmat = jac(x, r, fun)
                    inverse = _inverse(jmat) if slot.secant else None
                    if inverse is None:
                        jdiag = _diagonal(jmat)
                try:
                    dx = -(inverse @ r) if inverse is not None else _solve(jmat, jdiag, -r)
                except np.linalg.LinAlgError as exc:
                    if fresh:
                        raise StepFailureError(
                            f"singular Jacobian in implicit step: {exc}", rn, it
                        ) from exc
                    fresh = True
                    continue
                step = dx
            x_new = x + step
            r_new = fun(x_new)
            rn_new = math.sqrt(float(r_new @ r_new))
            if rn_new < rn or rn_new <= tol:
                if inverse is not None:
                    slot.inverse = _broyden(inverse, x_new - x, r_new - r)
                elif rn_new <= max(KEEP_RATE * rn, tol):
                    slot.keep(jmat, jdiag)
                x, r, rn = x_new, r_new, rn_new
                break
            if not fresh:
                dx, fresh = None, True
                continue
            alpha *= 0.5
            if alpha < 1e-8:
                if floor is not None and rn <= floor(x):
                    fun(x)
                    return x
                raise StepFailureError(
                    "step rejected by line search", rn, it
                )
            step = alpha * dx
    if rn <= tol:
        return x
    raise StepFailureError(
        f"implicit step did not converge (residual {rn:.3e} > tol {tol:.3e})",
        rn,
        NEWTON_MAX_ITER,
    )


def _del_block(model, forces, q_a, t_a, q_b, t_b, fun, x, r):
    """Derivative of the backward forced momentum with respect to ``q_b``.

    For constant mass it is ``-M/h - (h/4) Hess V(q_mid)``, plus ``h/2``
    times the forward-differenced derivative of the midpoint force when
    the sampler ``forces`` is given. A variable mass has no such form: the
    block is then taken by forward differences of the residual ``fun``
    over the first ``dim`` entries of ``x``, reusing ``r = fun(x)``.
    """
    n = model.dim
    if not model.constant_mass:
        return _fd_jacobian(fun, x, r, range(n))[:n]
    h = t_b - t_a
    qm = 0.5 * (q_a + q_b)
    block = -model.mass_matrix(qm) / h - (0.25 * h) * model.potential_hessian(qm)
    if forces is not None:
        tm = 0.5 * (t_a + t_b)

        def force(q):
            return np.asarray(forces(0.5 * (q_a + q), (q - q_a) / h, tm), float)

        block += (0.5 * h) * _fd_jacobian(force, q_b, force(q_b), range(n))
    return block


# ---------------------------------------------------------------------------
# DEL steps


def _solve_free(model, p_in, q_curr, t_curr, t_next, forces, cfg, slot=None, mass=None,
                flight=None):
    """Solve the DEL for the next configuration given the node momentum, none held.

    Returns the next configuration and the momentum it carries into the
    node at ``t_next``. ``slot`` is the Newton Jacobian slot shared with
    earlier solves, or None for one kept within this solve; ``mass`` is
    the constant mass and its diagonal, or None to evaluate ``M(q)``;
    ``flight`` is the simulation's constant force and mass diagonal as
    lists (:attr:`_Sim.flight`), or None. Given ``flight``, a force-free
    step flies (:func:`_solve_flight`); given a diagonal ``mass``, one
    coordinate runs on floats (:func:`_solve_line`); every other step,
    the flight of a constant mass that is not diagonal among them, is
    :func:`_solve_held` with nothing held.
    """
    if flight is not None and forces is None:
        q_next, p_out = _solve_flight(q_curr.tolist(), p_in.tolist(), t_next - t_curr, *flight)
        return np.array(q_next), np.array(p_out)
    diag = None if mass is None else mass[1]
    if diag is not None and model.dim == 1:
        return _solve_line(model, p_in, q_curr, t_curr, t_next, forces, cfg, slot, diag)
    q, _, p = _solve_held(model, p_in, q_curr, t_curr, t_next, forces, cfg, (), slot, mass)
    return q, p


def _solve_line(model, p_in, q_curr, t_curr, t_next, forces, cfg, slot, diag):
    """The Newton free step of a one-coordinate constant mass, on Python floats.

    ``diag`` is the mass's diagonal, nonzero. The IEEE operations of
    :func:`_solve_held` with nothing held, :func:`discrete_momenta`,
    :func:`_del_block` and :func:`_newton` are repeated in their order,
    and the model and ``forces`` are called with fresh one-element arrays, so the result,
    every error and the Jacobian kept in ``slot`` are bitwise those of
    the array path; a kept Jacobian is made an array only when kept.
    """
    h = t_next - t_curr
    q, p = q_curr.item(), p_in.item()
    x = q + h * (p / diag.item())
    if slot is None:
        slot = _KeptJacobian()
    slot.secant = False
    tol = cfg.newton_tol * max(1.0, abs(p))
    if h <= 0.0:
        raise ValueError("interval must have positive duration")
    half_h, tm = 0.5 * h, 0.5 * (t_curr + t_next)

    def line_momenta(y):
        """The residual and forward momentum at ``y``, as discrete_momenta forms them."""
        qm = np.array([0.5 * (q + y)])
        v = (y - q) / h
        # The matrix product accumulates onto +0.0, so a -0.0 product reads +0.0.
        mv = model.mass_matrix(qm).item() * v + 0.0
        half = half_h * -model.potential_gradient(qm).item()
        if forces is not None:
            half = half + half_h * np.asarray(forces(qm, np.array([v]), tm), float).item()
        return p + (-mv + half), mv + half

    r, p_out = line_momenta(x)
    rn = math.sqrt(r * r)
    for it in range(NEWTON_MAX_ITER):
        if rn <= tol:
            return np.array([x]), np.array([p_out])
        jmat, jdiag = slot.matrix, slot.diag
        slot.keep(None, None)
        fresh = jmat is None
        dx = None
        alpha = 1.0
        while True:
            if dx is None:
                if fresh:
                    jac, jmat = _line_jacobian(model, forces, q, t_curr, x, t_next), None
                else:
                    jac = jmat.item()
                # A zero has no _diagonal, and np.linalg.solve raises on it.
                if jac == 0.0:
                    if fresh:
                        raise StepFailureError(
                            "singular Jacobian in implicit step: Singular matrix", rn, it
                        )
                    fresh = True
                    continue
                dx = -r / jac
                step = dx
            x_new = x + step
            r_new, p_new = line_momenta(x_new)
            rn_new = math.sqrt(r_new * r_new)
            if rn_new < rn or rn_new <= tol:
                if rn_new <= max(KEEP_RATE * rn, tol):
                    if jmat is None:
                        jmat = np.array([[jac]])
                        jdiag = _diagonal(jmat)
                    slot.keep(jmat, jdiag)
                x, r, rn, p_out = x_new, r_new, rn_new, p_new
                break
            if not fresh:
                dx, fresh = None, True
                continue
            alpha *= 0.5
            if alpha < 1e-8:
                # _solve_held's rounding floor, on floats.
                m = model.mass_matrix(np.array([0.5 * (q + x)])).item()
                q_size = math.sqrt(q * q) + math.sqrt(x * x)
                size = math.sqrt(p * p) + math.sqrt(m * m) * q_size / h
                if rn <= 8.0 * np.finfo(float).eps * size:
                    return np.array([x]), np.array([p_out])
                raise StepFailureError("step rejected by line search", rn, it)
            step = alpha * dx
    if rn <= tol:
        return np.array([x]), np.array([p_out])
    raise StepFailureError(
        f"implicit step did not converge (residual {rn:.3e} > tol {tol:.3e})",
        rn,
        NEWTON_MAX_ITER,
    )


def _line_jacobian(model, forces, q_a, t_a, q_b, t_b):
    """:func:`_del_block` of a one-coordinate constant mass, on Python floats."""
    h = t_b - t_a
    qm = np.array([0.5 * (q_a + q_b)])
    jac = -model.mass_matrix(qm).item() / h - (0.25 * h) * model.potential_hessian(qm).item()
    if forces is not None:
        tm = 0.5 * (t_a + t_b)

        def force(q):
            value = forces(np.array([0.5 * (q_a + q)]), np.array([(q - q_a) / h]), tm)
            return np.asarray(value, float).item()

        f0 = force(q_b)
        step = FD_REL * max(1.0, abs(q_b))
        jac += (0.5 * h) * ((force(q_b + step) - f0) / step)
    return jac


def _solve_flight(q, p, h, force, diag):
    """The force-free DEL step of a constant diagonal mass in an affine potential.

    The step is exact uniformly accelerated flight over ``h``, ``q_next =
    q + h M^-1 (p + (h/2) f)``, taken per coordinate on Python floats:
    ``q``, ``p``, the constant force ``f = -grad V`` and ``diag``, the
    mass's diagonal with no zero on it, are lists of floats, and so are
    the configuration and momentum returned. Given the step's time
    difference as ``h``, the momentum carried into its end takes the
    operations of :func:`discrete_momenta` in its order, so it is bitwise
    the node momentum of the step's end points. Raises
    :class:`StepFailureError` when either is not finite.
    """
    half_h = 0.5 * h
    q_next, p_out = [], []
    for x0, p0, f, d in zip(q, p, force, diag):
        half = half_h * f
        x = x0 + h * ((p0 + half) / d)
        # The matrix product accumulates onto +0.0, so a -0.0 product (a
        # zero velocity times a negative entry) reads +0.0. A non-finite x
        # makes its velocity, and through the nonzero diagonal, the
        # momentum non-finite too.
        m = d * ((x - x0) / h) + 0.0 + half
        if not math.isfinite(m):
            raise StepFailureError("free flight step is not finite")
        q_next.append(x)
        p_out.append(m)
    return q_next, p_out


def _affine_rows(grads, offsets):
    """The rows of ``G q + c`` from ``G`` and ``c``, for :func:`_affine_gaps`.

    Each row is its offset ``c_i`` and its nonzero gradient entries as
    ``(j, G_ij)`` pairs, in column order. A zero offset is kept as -0.0,
    which adds to every float without changing it, as subtracting +0.0
    does; +0.0 would turn a -0.0 gap into +0.0.
    """
    return [
        (c or -0.0, tuple((j, a) for j, a in enumerate(row) if a != 0.0))
        for row, c in zip(grads.tolist(), offsets.tolist())
    ]


def _affine_gaps(q, rows):
    """``G q + c`` at ``q``, a list of floats, from its :func:`_affine_rows`.

    Each gap sums its row's products in column order, starting from
    -0.0, and then adds ``c_i``. A gap whose entries are +-1, as the
    cradle's and the ball's are, is then bitwise the model's own
    difference.
    """
    out = []
    for c, terms in rows:
        g = -0.0
        for j, a in terms:
            g += a * q[j]
        out.append(g + c)
    return out


def _held_system(rows, diag, held):
    """The closed-form system of a force-free held step, for :func:`_solve_held_flight`.

    ``rows`` are the model's :func:`_affine_rows`, ``diag`` the mass
    diagonal and ``held`` the held contacts. Returns the held rows, the
    velocity ``M^-1 G_a^T`` of each held normal as ``(j, G_aj / d_j)``
    pairs, and the LDL^T factors of ``K = G_H M^-1 G_H^T``: the unit
    lower triangle as lists and the pivots. Raises
    :class:`StepFailureError` when a pivot falls to the rounding of its
    diagonal entry, so that the held normals are dependent.
    """
    held_rows = [rows[i] for i in held]
    velocities = [tuple((j, a / diag[j]) for j, a in terms) for _, terms in held_rows]
    gram = [
        [math.fsum(a * w.get(j, 0.0) for j, a in terms) for w in map(dict, velocities)]
        for _, terms in held_rows
    ]
    lower, pivots = [], []
    for i, row in enumerate(gram):
        lower.append([])
        for j in range(i + 1):
            entry = row[j]
            for m in range(j):
                entry -= lower[i][m] * lower[j][m] * pivots[m]
            if j < i:
                lower[i].append(entry / pivots[j])
            elif entry > 4.0 * np.finfo(float).eps * row[i]:
                pivots.append(entry)
            else:
                raise StepFailureError("singular held-contact system: dependent normals")
    return held_rows, velocities, (lower, pivots)


def _solve_held_flight(q, p, h, force, diag, system):
    """The force-free held step of a constant diagonal mass, affine potential and linear gaps.

    With the held gaps ``G_H q + c_H`` pinned to zero, the DEL step is
    linear: it is the flight ``q_fly`` of :func:`_solve_flight`
    projected onto the held manifold, ``q_n = q_fly + h M^-1 G_H^T lam``
    with ``h K lam = -(G_H q_fly + c_H)`` and ``K = G_H M^-1 G_H^T``.
    ``lam`` is the impulse multiplier of each held contact, as in
    :func:`_solve_held`. ``system`` is the :func:`_held_system` of the
    held contacts; ``q``, ``p``, ``force`` and ``diag`` are lists of
    floats as in :func:`_solve_flight`, and so are the configuration,
    the multipliers and the momentum returned. The momentum carried into
    the step's end takes :func:`_solve_flight`'s operations on ``q`` and
    ``q_n``, so it is bitwise their node momentum. Raises
    :class:`StepFailureError` when a value is not finite.
    """
    held_rows, velocities, (lower, pivots) = system
    q_n, _ = _solve_flight(q, p, h, force, diag)
    # Solve h K lam = -g by the LDL^T factors: forward, scale, back.
    lam = []
    for i, g in enumerate(_affine_gaps(q_n, held_rows)):
        y = -g / h
        for b in range(i):
            y -= lower[i][b] * lam[b]
        lam.append(y)
    lam = [y / d for y, d in zip(lam, pivots)]
    for i in reversed(range(len(lam))):
        for b in range(i + 1, len(lam)):
            lam[i] -= lower[b][i] * lam[b]
    for lam_a, vel in zip(lam, velocities):
        for j, w in vel:
            q_n[j] += h * (lam_a * w)
    half_h = 0.5 * h
    p_out = []
    for x0, x, f, d in zip(q, q_n, force, diag):
        m = d * ((x - x0) / h) + 0.0 + half_h * f
        if not math.isfinite(m):
            raise StepFailureError("held flight step is not finite")
        p_out.append(m)
    return q_n, lam, p_out


def _solve_held(model, p_in, q_curr, t_curr, t_next, forces, cfg, held, slot=None,
                mass=None):
    """Newton solve of a fixed-length DEL step, held gaps pinned to zero.

    Each held contact adds its gap as a row and an impulse multiplier on
    its normal at ``q_curr``. Returns the next configuration, the
    multiplier per held contact and the momentum carried into the node at
    ``t_next`` (from the last residual evaluation). A negative multiplier
    means the constraint would need to pull; the caller releases such
    contacts and re-solves. With none held it is the free step: only it
    is accepted at the residual's rounding floor, and only its Jacobian
    of a variable mass is kept as a secant inverse. ``slot`` and ``mass``
    are as in :func:`_solve_free`.
    """
    held = list(held)
    n = model.dim
    h = t_next - t_curr
    p_scale = max(1.0, float(np.abs(p_in).max()))
    x0 = q_curr + h * _mass_solve(model, mass, q_curr, p_in)
    if held:
        grads_curr = model.gap_gradients(q_curr)[held]
        gap_scale = p_scale / model.length_scale
        x0 = np.concatenate([x0, np.zeros(len(held))])
    p_out = [None]

    def residual(z):
        p_minus, p_out[0] = discrete_momenta(model, q_curr, t_curr, z[:n], t_next, forces)
        if not held:
            return p_in + p_minus
        r = p_in + z[n:] @ grads_curr + p_minus
        return np.concatenate([r, model.gaps(z[:n])[held] * gap_scale])

    def jacobian(z, r, fun):
        block = _del_block(model, forces, q_curr, t_curr, z[:n], t_next, fun, z, r)
        if not held:
            return block
        jac = np.zeros((z.size, z.size))
        jac[:n, :n] = block
        jac[:n, n:] = grads_curr.T
        jac[n:, :n] = model.gap_gradients(z[:n])[held] * gap_scale
        return jac

    def floor(q_next):
        # The residual cancels p_in against M (q_next - q_curr) / h, whose
        # rounding grows with |q|; a tight newton_tol can fall below it.
        mass = np.linalg.norm(model.mass_matrix(0.5 * (q_curr + q_next)))
        q_size = np.linalg.norm(q_curr) + np.linalg.norm(q_next)
        return 8.0 * np.finfo(float).eps * (np.linalg.norm(p_in) + mass * q_size / h)

    if slot is None:
        slot = _KeptJacobian()
    # A variable mass's free-step Jacobian is differenced (see _del_block):
    # keep its inverse and refine it by secant updates instead.
    slot.secant = not (model.constant_mass or held)
    z = _newton(residual, x0, cfg.newton_tol * p_scale, jac=jacobian, slot=slot,
                floor=None if held else floor)
    return z[:n], dict(zip(held, z[n:])), p_out[0]


# ---------------------------------------------------------------------------
# Impact localization and resolution


def _crossing_fraction(g0: float, g1: float) -> float:
    return g0 / (g0 - g1)


def _crossing(gaps_n, gaps_c, held, floor, act_tol):
    """The contacts that cross in a step from the gaps ``gaps_c`` to the list ``gaps_n``.

    A contact crosses when it is not ``held``, starts at most
    ``act_tol`` inside its manifold, ends below ``floor`` and closes.
    """
    # Most steps end above the penetration floor: one min tests it first.
    # A NaN gap crosses in neither test: it fails g < floor, and a NaN
    # min fails >= floor.
    if min(gaps_n, default=floor) >= floor:
        return []
    return [
        i
        for i, g in enumerate(gaps_n)
        if g < floor and i not in held and gaps_c[i] >= -act_tol and g < gaps_c[i]
    ]


def _locate(model, p_in, q_curr, t_curr, q_cand, t_next, forces, cfg, held, crossing,
            gaps_curr, gaps_cand):
    """Solve the substep DEL jointly with the earliest crossing gap.

    ``crossing``, never empty, lists the contacts that cross in the
    step, as :func:`_crossing` decides them from ``gaps_curr`` and
    ``gaps_cand``, the gaps at ``q_curr`` and ``q_cand``: not held,
    starting at most ``ACTIVATION_RTOL`` inside the manifold, ending more
    than ``PENETRATION_RTOL`` inside it, and closing. Unknowns are the
    impact configuration, the impact time, and the multipliers of any
    held contacts; the crossing contact's gap is driven to zero while
    the substep dynamics stay exactly satisfied.

    Returns the impact time, configuration and contacts, and the gaps at
    the impact configuration.
    """
    act_tol = ACTIVATION_RTOL * model.length_scale
    time_tol = SIMULTANEITY_RTOL * cfg.h
    h_full = t_next - t_curr
    estimates = {
        i: t_curr
        + h_full * _crossing_fraction(max(gaps_curr[i], 0.0), gaps_cand[i])
        for i in crossing
    }
    earliest = min(crossing, key=lambda i: estimates[i])

    held = list(held)
    n = model.dim
    grads_curr = model.gap_gradients(q_curr)[held] if held else np.zeros((0, n))
    p_scale = max(1.0, float(np.abs(p_in).max()))
    gap_scale = p_scale / model.length_scale
    frac = max(_crossing_fraction(max(gaps_curr[earliest], 0.0), gaps_cand[earliest]), 1e-6)
    x0 = np.concatenate(
        [
            q_curr + frac * (q_cand - q_curr),
            [t_curr + frac * h_full],
            np.zeros(len(held)),
        ]
    )

    rows = [earliest] + held

    def substep(z):
        t_star = z[n]
        if t_star - t_curr <= 0.0:
            # Push the solver back into the interval.
            t_star = t_curr + TINY_FRACTION * h_full
        return z[:n], t_star

    def residual(z):
        q_star, t_star = substep(z)
        r = p_in + discrete_momenta(model, q_curr, t_curr, q_star, t_star, forces)[0]
        if held:
            r = r + z[n + 1 :] @ grads_curr
        return np.concatenate([r, model.gaps(q_star)[rows] * gap_scale])

    def jacobian(z, r, fun):
        q_star, t_star = substep(z)
        jac = np.zeros((z.size, z.size))
        jac[:n, :n] = _del_block(model, forces, q_curr, t_curr, q_star, t_star, fun, z, r)
        # Differenced, not assembled: the clamp above makes it piecewise.
        # The residual varies on the scale of the substep, through its
        # 1/h terms, so the step is relative to the substep, not to t;
        # the floor keeps it well above the rounding of t itself. It
        # starts from the clamped time, so the column of an iterate below
        # the interval is the secant to a point inside it, not zero.
        step = max(FD_REL * (t_star - t_curr), 1e-12 * max(1.0, abs(t_star)))
        z_step = z.copy()
        z_step[n] = t_star + step
        jac[:, n] = (fun(z_step) - r) / (z_step[n] - z[n])
        jac[:n, n + 1 :] = grads_curr.T
        jac[n:, :n] = model.gap_gradients(q_star)[rows] * gap_scale
        return jac

    try:
        z = _newton(residual, x0, cfg.newton_tol * p_scale, jac=jacobian)
    except StepFailureError as exc:
        raise ImpactLocationError(
            f"impact localization failed: {exc}", t_curr, crossing, exc.residual_norm
        ) from exc
    q_star, t_star = z[:n], float(z[n])

    def residual_norm():
        # Evaluated on failure only: a solve that converged to a point
        # the checks below reject still names its residual.
        r = residual(z)
        return math.sqrt(float(r @ r))

    if not (t_curr - time_tol <= t_star <= t_next + time_tol):
        raise ImpactLocationError(
            f"impact time {t_star} escaped the step [{t_curr}, {t_next}]", t_curr, crossing,
            residual_norm(),
        )
    t_star = min(max(t_star, t_curr + TINY_FRACTION * h_full), t_next)
    gaps_star = model.gaps(q_star)
    if abs(gaps_star[earliest]) > 1e-10 * model.length_scale:
        raise ImpactLocationError(
            f"gap {earliest} not closed at impact: {gaps_star[earliest]:.3e}", t_curr, crossing,
            residual_norm(),
        )

    contacts = {earliest}
    for i in crossing:
        if abs(estimates[i] - t_star) <= time_tol:
            contacts.add(i)
    for i in range(gaps_star.size):
        # Contacts already resting on their manifold join the active set.
        if i not in held and abs(gaps_star[i]) <= act_tol:
            contacts.add(i)
    return t_star, q_star, tuple(sorted(contacts)), gaps_star


def _node_contacts(model, metric, q, p, gaps, crossing, act_tol):
    """Test the crossing contacts closed at the node ``q`` against ``p``.

    ``crossing`` holds the contacts that cross in the step under the one
    rule :func:`_locate` states, and ``gaps`` the gaps at ``q``.

    Returns ``(approaching, tangent, contacts, frame)``. A closed
    contact the momentum points into impacts at the node itself; there
    is no substep to solve, and ``contacts``, the set of that impact,
    is every contact closed at ``q``. A closed contact the momentum is
    tangent to (within a tolerance relative to ``|p|``) rests on its
    manifold. Closed contacts with separating momentum are left out:
    their crossing happens strictly inside the interval. ``frame`` is
    the contact frame of ``contacts`` at ``q`` and ``p``: its rows of
    the crossing contacts give the unit-normal inner products, and it
    is the frame in which a node impact is resolved.
    """
    touching = [i for i in crossing if abs(gaps[i]) <= act_tol]
    if not touching:
        return [], [], (), None
    contacts = tuple(np.flatnonzero(np.abs(gaps) <= act_tol).tolist())
    frame = _contact_frame(model, metric, q, p, contacts)
    rows = [contacts.index(i) for i in touching]
    values = frame.a[rows] * frame.scales[rows]
    p_tol = 1e-9 * max(1.0, math.sqrt(max(frame.p_norm2, 0.0)))
    approaching = [i for i, v in zip(touching, values) if v < -p_tol]
    tangent = [i for i, v in zip(touching, values) if abs(v) <= p_tol]
    return approaching, tangent, contacts, frame


def _contact_frame(model, metric, q, p, contacts):
    """Contact frame of the given contacts at configuration ``q``.

    ``metric`` is the simulation's metric of a constant mass; None
    takes the metric of a configuration-dependent mass at ``q``.
    """
    if metric is None:
        metric = model.metric_at(q)
    return mt.ContactFrame(metric, model.gap_gradients(q)[list(contacts)], p)


def _resolve_event(frame, t_star, contacts, r_eff, cfg, forced):
    """Map the incoming momentum through the contact set at the impact.

    ``frame`` is the contact frame of ``contacts`` at the impact
    configuration and incoming momentum.
    """
    e_before = 0.5 * frame.p_norm2

    if not np.any(frame.a < 0.0):
        # Grazing crossing: nothing to reflect, pass the momentum through.
        event = ImpactEvent(
            t=t_star,
            contacts=tuple(contacts),
            kind=ImpactKind.ELASTIC,
            impulses=(),
            energy_before=e_before,
            energy_after=e_before,
            forced="graze",
        )
        return frame.p, event, False

    policy = cfg.policy.for_contacts(contacts)
    # The restitution picks the map, continuous in it at both ends.
    if r_eff >= 1.0:
        outcome, lam = _cascade(frame, policy)
    elif r_eff <= 0.0:
        outcome, lam = _plastic(frame)
    else:
        outcome, lam = _inelastic(frame, r_eff, policy)
    if outcome.status is CascadeStatus.STEP_CAP_EXCEEDED:
        # Guaranteed-terminating fallback for three or more contacts.
        outcome, lam = _plastic(frame)
        forced = "step-cap"
    e_after = 0.5 * float(outcome.p_plus @ frame.dual(lam))
    if outcome.kind is ImpactKind.ELASTIC:
        if abs(e_after - e_before) > 1e-10 * max(e_before, 1e-300):
            raise VerificationError(
                f"elastic impact changed energy: {e_before!r} -> {e_after!r}"
            )
    elif e_after > e_before * (1.0 + 1e-9):
        raise VerificationError("impact resolution gained energy")

    event = ImpactEvent(
        t=t_star,
        contacts=tuple(contacts),
        kind=outcome.kind,
        impulses=outcome.impulses,
        energy_before=e_before,
        energy_after=e_after,
        forced=forced,
        sequence=tuple(contacts[i] for i in outcome.sequence),
    )
    becomes_held = outcome.kind is ImpactKind.PLASTIC
    return outcome.p_plus, event, becomes_held


def zeno_guard(
    event_history: Sequence[ImpactEvent],
    contact: int,
    config: StepperConfig,
    now: float | None = None,
) -> str:
    """Decide whether a contact must switch to plastic.

    Returns ``"force-plastic"`` when the contact already produced at
    least :data:`ZENO_WINDOW` impacts within one nominal step of ``now`` (the
    latest event time by default), and ``"elastic"`` otherwise.
    """
    hits = [ev.t for ev in event_history if contact in ev.contacts]
    if not hits:
        return "elastic"
    t_ref = now if now is not None else hits[-1]
    recent = sum(1 for t in hits if t_ref - config.h < t <= t_ref)
    return "force-plastic" if recent >= ZENO_WINDOW else "elastic"


# ---------------------------------------------------------------------------
# Friction


def friction_force(
    model: MechModel,
    q,
    qdot,
    contact: int,
    mu: float,
    normal_force: float,
    applied: np.ndarray | None = None,
) -> np.ndarray:
    """Coulomb friction for a planar single-tangent contact.

    Selects the tangential force ``f`` in ``[-mu N, mu N]`` that
    maximizes instantaneous dissipation. Both objectives are affine in
    ``f``, so the choice is closed form: with slip ``|v_t| > 1e-10`` the
    sliding power ``f v_t`` is least at the cone boundary opposing the
    slip; at zero slip the tangential acceleration ``c + f d``, with
    ``c = t M^-1 F`` and ``d = t M^-1 t``, is nulled by ``f = -c / d``
    (stiction), clamped to the cone. ``F`` is the potential's force
    plus ``applied``, the applied generalized force at ``q`` (None for
    none). Returns the generalized force row; an inactive contact
    contributes nothing.
    """
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"friction mu must be nonnegative and finite, got {mu!r}")
    gaps = model.gaps(q)
    if abs(gaps[contact]) > 1e-6 * model.length_scale:
        return np.zeros(model.dim)
    tangents = model.gap_tangents(q)
    if tangents is None:
        raise SimpactError("model provides no contact tangents; friction unsupported")
    trow = tangents[contact]
    bound = mu * max(normal_force, 0.0)
    if bound == 0.0:
        return np.zeros(model.dim)
    v_t = float(trow @ qdot)
    if abs(v_t) > 1e-10:
        f = -math.copysign(bound, v_t)
    else:
        total = -model.potential_gradient(q)
        if applied is not None:
            total = total + np.asarray(applied, float)
        c, d = trow @ np.linalg.solve(model.mass_matrix(q), np.column_stack([total, trow]))
        f = min(max(-c / d, -bound), bound)
    return f * trow


# ---------------------------------------------------------------------------
# Simulation driver


class _Sim:
    """Mutable state of one simulation run; single threaded by design.

    :meth:`advance` takes one step with its impacts and holds;
    :meth:`fly` takes a stretch of force-free steps that cross no
    contact, with nothing held, as exact flight on floats, and hands the
    step that crosses, as flown, to :meth:`advance`.
    """

    def __init__(self, model, config, forces):
        n = model.n_contacts
        try:
            config.policy.validate_for(n)
        except ValueError as exc:
            raise ConfigError(f"cascade policy does not fit the model: {exc}") from exc
        if not np.isscalar(config.restitution) and len(config.restitution) != n:
            raise ConfigError(
                f"per-contact restitution needs {n} entries, got {len(config.restitution)}"
            )
        if config.friction is not None:
            bad = [c for c in config.friction.contacts if not 0 <= c < n]
            if bad:
                raise ConfigError(f"friction references unknown contacts {bad}")
        self.model = model
        self.cfg = config
        self.user_forces = forces
        self.held: dict[int, float] = {}
        self.events: list[ImpactEvent] = []
        self.holds: list[tuple[float, int, float]] = []
        # The Newton Jacobian slot of each held set, for full-length steps.
        self.kept: defaultdict[tuple, _KeptJacobian] = defaultdict(_KeptJacobian)
        # The last ZENO_WINDOW events of each contact.
        self.recent: defaultdict[int, deque] = defaultdict(
            lambda: deque(maxlen=ZENO_WINDOW)
        )
        # The thresholds of advance's crossing scan, and whether it has
        # any gaps to scan.
        self.act_tol = ACTIVATION_RTOL * model.length_scale
        self.pen_tol = PENETRATION_RTOL * model.length_scale
        self.contact_free = n == 0
        # A constant mass and its diagonal, for the velocity solves, and
        # its metric, for the contact frames of every event. Without
        # contacts there is no frame, and a diagonal mass is positive
        # definite exactly when its diagonal is, so only the check is made.
        self.mass = None
        self.metric = None
        # The constant force -grad V and the mass diagonal, as lists, when
        # the run has no force sampler and its unheld steps fly; else None.
        self.flight = None
        if model.constant_mass:
            matrix = model.mass_matrix(np.zeros(model.dim))
            diag = _diagonal(matrix)
            try:
                if n or diag is None:
                    self.metric = mt.KineticMetric(matrix)
                elif not all(0.0 < d < math.inf for d in diag.tolist()):
                    raise NotPositiveDefiniteError("mass matrix is not positive definite")
            except (DimensionError, NotPositiveDefiniteError) as exc:
                raise ConfigError(f"constant mass: {exc}") from exc
            self.mass = (matrix, diag)
            if forces is None and diag is not None and model.affine_potential:
                # validate_model holds a declared affine potential's
                # gradient bitwise the same everywhere: take it once.
                grad = model.potential_gradient(np.zeros(model.dim))
                self.flight = ([-g for g in grad.tolist()], diag.tolist())
        # The rows of declared linear gaps G q + c, which validate_model
        # holds to G and c at zero, for node_gaps; else None. With a
        # flight, the closed-form system of each held set, built once.
        self.gap_rows = None
        self.held_systems = None
        if model.linear_gaps and n:
            zeros = np.zeros(model.dim)
            self.gap_rows = _affine_rows(model.gap_gradients(zeros), model.gaps(zeros))
            if self.flight is not None:
                self.held_systems = {}

    def node_gaps(self, q):
        """The gaps at ``q``, a list of floats or an array, as a list of floats.

        Declared linear gaps are ``G q + c`` on floats
        (:func:`_affine_gaps`); other gaps are the model's.
        """
        if self.gap_rows is None:
            return self.model.gaps(np.asarray(q, dtype=float)).tolist()
        if isinstance(q, np.ndarray):
            q = q.tolist()
        return _affine_gaps(q, self.gap_rows)

    def held_flight(self, q_c, p_in, h, held):
        """The closed-form held step of the contacts ``held``, :func:`_solve_held_flight`.

        Their system is built once per run. Returns what
        :func:`_solve_held` returns: the next configuration, the
        multiplier per held contact and the node momentum.
        """
        system = self.held_systems.get(held)
        if system is None:
            system = _held_system(self.gap_rows, self.flight[1], held)
            self.held_systems[held] = system
        q_n, lams, p_out = _solve_held_flight(
            q_c.tolist(), p_in.tolist(), h, *self.flight, system
        )
        return np.array(q_n), dict(zip(held, lams)), np.array(p_out)

    def log(self, event):
        """Record an event, also among the recent ones of its contacts."""
        self.events.append(event)
        for c in event.contacts:
            self.recent[c].append(event)

    def zeno_forced(self, contacts, now):
        """Whether :func:`zeno_guard` forces any of ``contacts`` plastic at ``now``.

        Event times never decrease, so a contact's events within one
        nominal step of ``now`` are its latest ones, and the guard needs
        no more than its last :data:`ZENO_WINDOW`.
        """
        return any(
            zeno_guard(self.recent[c], c, self.cfg, now) == "force-plastic"
            for c in contacts
        )

    def effective_forces(self, q_c, t_c, p_in):
        """Compose user forcing with friction on held contacts.

        Friction is evaluated once per interval at the interval-start
        state and time and then held constant, so the implicit solve sees
        a smooth residual; re-evaluating the stiction branch inside the
        Newton iteration would make it discontinuous. Stiction balances
        the user sampler's value at that same state and time.
        """
        cfg, user = self.cfg, self.user_forces
        fr = cfg.friction
        if fr is None:
            return user
        held = [(c, lam) for c, lam in self.held.items() if c in fr.contacts]
        if not held:
            return user
        model = self.model
        qdot = _mass_solve(model, self.mass, q_c, p_in)
        applied = None if user is None else user(q_c, qdot, t_c)
        frozen = np.zeros(model.dim)
        for contact, lam in held:
            normal_force = max(lam, 0.0) / cfg.h
            frozen = frozen + friction_force(
                model, q_c, qdot, contact, fr.mu, normal_force, applied
            )

        def sampler(qm, v, tm):
            total = frozen
            if user is not None:
                total = total + np.asarray(user(qm, v, tm), float)
            return total

        return sampler

    def solve_interval(self, q_c, t_c, p_in, t_target, forces, full):
        """One DEL solve with the current held set, releasing as needed.

        Returns the next configuration and its node momentum. Held
        contacts are re-solved without those whose multipliers turn
        negative; a step with none goes to :func:`_solve_free`. A held
        step with no ``forces`` takes the closed form
        (:meth:`held_flight`) when the run flies and the model declares
        ``linear_gaps``, and :func:`_solve_held` otherwise. A failed solve
        raises :class:`StepFailureError` naming the step start and the
        contacts held in it. A ``full`` Newton step shares the Jacobian of
        its held set with the earlier ones; the substep after an in-step
        impact keeps its own.
        """
        cfg = self.cfg
        try:
            while self.held:
                held = tuple(sorted(self.held))
                if forces is None and self.held_systems is not None:
                    q_n, lams, p_out = self.held_flight(q_c, p_in, t_target - t_c, held)
                else:
                    q_n, lams, p_out = _solve_held(
                        self.model, p_in, q_c, t_c, t_target, forces, cfg, held,
                        self.kept[held] if full else None, self.mass,
                    )
                negative = [c for c, lam in lams.items() if lam < 0.0]
                if negative:
                    for c in negative:
                        del self.held[c]
                    continue
                for c, lam in lams.items():
                    self.held[c] = lam
                    self.holds.append((t_target, c, lam))
                return q_n, p_out
            return _solve_free(
                self.model, p_in, q_c, t_c, t_target, forces, cfg,
                self.kept[()] if full else None, self.mass, self.flight,
            )
        except StepFailureError as exc:
            exc.t, exc.contacts = t_c, tuple(sorted(self.held))
            raise

    def fly(self, k, n_steps, q, p, gaps, states, momenta):
        """Fly force-free steps from node ``k`` until a step crosses a contact.

        Needs :attr:`flight` and nothing held. Step ``j`` runs from
        ``j h`` to ``(j + 1) h`` by :func:`_solve_flight`, the kernel of
        :meth:`advance`'s flight, and each node's gaps are evaluated once
        by :meth:`node_gaps` and scanned by :func:`_crossing`, so the run
        is bitwise the one :meth:`advance` takes step by step. ``gaps``
        and the gaps returned are lists. Appends each flown node's
        configuration and momentum to ``states`` and ``momenta``, and
        returns the index of the first step not flown, with the
        configuration, momentum and gaps at its start, and that step as
        flown: its end configuration, momentum and gaps, which
        :meth:`advance` takes instead of flying the step again. When the
        run ends in flight, the index is ``n_steps`` and the step None.
        A flight that is not finite raises :class:`StepFailureError`
        naming the step start and no contacts, as :meth:`solve_interval`
        does.
        """
        h = self.cfg.h
        force, diag = self.flight
        floor, act_tol = -self.pen_tol, self.act_tol
        scan = not self.contact_free
        node_gaps = self.node_gaps
        q_c, p_c, g_c = q.tolist(), p.tolist(), gaps
        t_c = k * h
        while k < n_steps:
            t_n = (k + 1) * h
            try:
                q_n, p_n = _solve_flight(q_c, p_c, t_n - t_c, force, diag)
            except StepFailureError as exc:
                exc.t, exc.contacts = t_c, ()
                raise
            if scan:
                g_n = node_gaps(q_n)
                if _crossing(g_n, g_c, (), floor, act_tol):
                    flown = (np.array(q_n), np.array(p_n), g_n)
                    return k, np.array(q_c), np.array(p_c), g_c, flown
                g_c = g_n
            states.append(q_n)
            momenta.append(p_n)
            q_c, p_c, t_c, k = q_n, p_n, t_n, k + 1
        return k, np.array(q_c), np.array(p_c), g_c, None

    def advance(self, q_c, t_c, p_in, t_target, gaps_c, flown=None):
        """Advance to the target time, resolving any impacts on the way.

        ``gaps_c`` are the gaps at ``q_c``. ``flown``, when given, is the
        step's first solve as :meth:`fly` flew it: its end configuration,
        momentum and gaps. Returns the end node's configuration, momentum
        and gaps, so the next step need not evaluate them again; a model
        without contacts returns ``gaps_c`` and never evaluates them.
        Its solves are ``full`` in :meth:`solve_interval` until an
        in-step impact moves ``t_c``.
        """
        model, cfg = self.model, self.cfg
        act_tol, floor = self.act_tol, -self.pen_tol
        impacts = 0
        full = True
        while True:
            forces = self.effective_forces(q_c, t_c, p_in)
            if flown is None:
                q_n, p_out = self.solve_interval(q_c, t_c, p_in, t_target, forces, full)
                if self.contact_free:
                    return q_n, p_out, gaps_c
                gaps_n = self.node_gaps(q_n)
            else:
                (q_n, p_out, gaps_n), flown = flown, None
            crossing = _crossing(gaps_n, gaps_c, self.held, floor, act_tol)
            if not crossing:
                return q_n, p_out, gaps_n

            impacts += 1
            if impacts > MAX_IMPACTS_PER_STEP:
                raise StepFailureError(
                    f"more than {MAX_IMPACTS_PER_STEP} impacts in one step",
                    t=t_c,
                    contacts=crossing,
                )

            approaching, tangent, node_event, frame = _node_contacts(
                model, self.metric, q_c, p_in, gaps_c, crossing, act_tol
            )
            if approaching:
                t_star, q_star, contacts = t_c, q_c, node_event
            elif tangent:
                # A resting contact being pushed through its manifold:
                # the chattering limit. Hold it as an active constraint.
                self.log(
                    ImpactEvent(
                        t=t_c,
                        contacts=tuple(tangent),
                        kind=ImpactKind.PLASTIC,
                        impulses=tuple(0.0 for _ in tangent),
                        energy_before=0.5 * frame.p_norm2,
                        energy_after=0.5 * frame.p_norm2,
                        forced="resting",
                    )
                )
                for i in tangent:
                    self.held.setdefault(i, 0.0)
                continue
            else:
                t_star, q_star, contacts, gaps_star = _locate(
                    model, p_in, q_c, t_c, q_n, t_target, forces, cfg,
                    tuple(sorted(self.held)), crossing, gaps_c, gaps_n,
                )
                h1 = t_star - t_c
                if h1 > TINY_FRACTION * cfg.h:
                    p_star = node_momentum(model, q_c, t_c, q_star, t_star, forces)
                    gaps_c = gaps_star.tolist()
                    full = False
                else:
                    p_star, q_star, t_star = p_in, q_c, t_c
                frame = _contact_frame(model, self.metric, q_star, p_star, contacts)

            forced = None
            r_eff = min(cfg.restitution_for(i) for i in contacts)
            if self.zeno_forced(contacts, t_star):
                forced, r_eff = "zeno", 0.0
            p_mapped, event, becomes_held = _resolve_event(
                frame, t_star, contacts, r_eff, cfg, forced
            )
            self.log(event)
            if becomes_held:
                for i in contacts:
                    self.held.setdefault(i, 0.0)
            if t_target - t_star <= TINY_FRACTION * cfg.h:
                return q_star, p_mapped, gaps_c
            q_c, t_c, p_in = q_star, t_star, p_mapped


def simulate(
    model: MechModel,
    q0,
    qdot0,
    duration: float,
    config: StepperConfig,
    forces: ForceSampler | None = None,
) -> Trajectory:
    """Integrate the model forward, resolving impacts along the way.

    Samples are taken on the nominal time grid (the duration is rounded
    to a whole number of steps); impact events carry their exact
    in-step times. The initial discrete momentum is the continuous
    momentum of the initial state. A fixed cascade order must be a
    permutation of the model's contacts; each event reflects its own
    contacts in that order.

    When its steps fly (:attr:`_Sim.flight`: a constant diagonal mass,
    an affine potential and no ``forces`` sampler), a run takes each
    stretch of steps with nothing held that cross no contact in one loop,
    :meth:`_Sim.fly`; the step that crosses, as flown, and every held
    step go to :meth:`_Sim.advance`. The samples are bitwise those
    of advancing every step.

    Every input rejected before the first step raises
    :class:`ConfigError`: a duration that is not positive and finite,
    an initial state of the wrong dimension, not finite, or penetrating
    a contact, a cascade order, restitution count or friction contact
    that does not fit the model, and a constant mass matrix that is not
    symmetric positive definite.
    """
    if not 0.0 < duration < math.inf:
        raise ConfigError(f"duration must be positive and finite, got {duration!r}")
    q0 = np.asarray(q0, dtype=float)
    qdot0 = np.asarray(qdot0, dtype=float)
    if q0.shape != (model.dim,) or qdot0.shape != (model.dim,):
        raise ConfigError("initial state does not match the model dimension")
    for name, value in (("q0", q0), ("qdot0", qdot0)):
        if not np.isfinite(value).all():
            raise ConfigError(f"{name} must be finite, got {value}")
    gaps0 = model.gaps(q0)
    if np.any(gaps0 < -PENETRATION_RTOL * model.length_scale):
        raise ConfigError(
            f"initial.q invalid: initial configuration penetrates a contact: gaps {gaps0}"
        )

    sim = _Sim(model, config, forces)
    n_steps = max(1, int(round(duration / config.h)))
    states = [q0.copy()]
    p = model.mass_matrix(q0) @ qdot0
    momenta = [p.copy()]

    # Node k is at k h, whether flown or advanced to.
    k, q, gaps = 0, q0, gaps0.tolist()
    while k < n_steps:
        flown = None
        if sim.flight is not None and not sim.held:
            k, q, p, gaps, flown = sim.fly(k, n_steps, q, p, gaps, states, momenta)
            if k == n_steps:
                break
        q, p, gaps = sim.advance(q, k * config.h, p, (k + 1) * config.h, gaps, flown)
        states.append(q)
        momenta.append(p)
        k += 1

    return Trajectory(
        times=np.arange(n_steps + 1) * config.h,
        states=np.asarray(states),
        momenta=np.asarray(momenta),
        events=sim.events,
        holds=sim.holds,
        nominal_step=config.h,
    )
