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

Square solves divide by the diagonal when the matrix is diagonal with no
zero on it, as a constant diagonal mass and its DEL Jacobian are; the
mass is factored once per simulation and a kept Jacobian carries its
diagonal. The quotient is bitwise what LAPACK's ``gesv`` returns: it
factors a diagonal matrix without pivoting into ``L = I`` and ``U`` the
matrix, and its substitutions divide each entry by its pivot after
subtracting products of the zero off-diagonal entries. Those products
leave a nonzero entry as it is but can flip the sign of a zero one, or
turn an infinite one into NaN, so a system of two or more unknowns whose
right-hand side has a zero entry, or whose quotient is not finite, still
goes to LAPACK. Every other system, the bordered held and localization
ones among them, goes to ``np.linalg.solve``. A secant inverse takes one
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
    ImpactLocationError,
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

#: Impacts one step may resolve before it fails, so every step is bounded.
MAX_IMPACTS_PER_STEP = 200

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
    ``zeno_window`` is the number of impacts one contact may produce
    within one nominal step before the next one is forced plastic
    (R = 0). ``impact_time_tol`` groups crossings into one
    simultaneous event; it defaults to ``h * 1e-6``.
    """

    h: float
    newton_tol: float = 1e-10
    newton_max_iter: int = 60
    impact_time_tol: float | None = None
    zeno_window: int = 4
    restitution: float | tuple[float, ...] = 1.0
    policy: CascadePolicy = field(default_factory=CascadePolicy.most_violating)
    friction: FrictionConfig | None = None

    def __post_init__(self):
        # Written so that NaN fails every check.
        for name in ("h", "newton_tol", "impact_time_tol"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("newton_max_iter", "zeno_window"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        rest = self.restitution
        rest = float(rest) if np.ndim(rest) == 0 else tuple(float(r) for r in rest)
        if any(not 0.0 <= r <= 1.0 for r in np.atleast_1d(rest)):
            raise ValueError(f"restitution must lie in [0, 1], got {self.restitution!r}")
        object.__setattr__(self, "restitution", rest)

    @property
    def time_tol(self) -> float:
        return self.impact_time_tol if self.impact_time_tol is not None else self.h * 1e-6

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
        dim = self.dim
        event_steps = _event_flags(self)
        for line in comments:
            stream.write(f"# {line}\n")
        cols = ["t"]
        cols += [f"q{i + 1}" for i in range(dim)]
        cols += [f"p{i + 1}" for i in range(dim)]
        cols.append("event")
        stream.write(",".join(cols) + "\n")
        for k in range(self.times.size):
            row = [_fmt(self.times[k])]
            row += [_fmt(x) for x in self.states[k]]
            row += [_fmt(x) for x in self.momenta[k]]
            row.append(str(int(event_steps[k])))
            stream.write(",".join(row) + "\n")

    def write_events_csv(self, stream, comments: Sequence[str] = ()) -> None:
        for line in comments:
            stream.write(f"# {line}\n")
        stream.write(
            "t_star,contacts,kind,forced,impulses,energy_before,energy_after\n"
        )
        for ev in self.events:
            stream.write(
                ",".join(
                    [
                        _fmt(ev.t),
                        ";".join(str(c) for c in ev.contacts),
                        ev.kind.value,
                        ev.forced or "",
                        ";".join(_fmt(x) for x in ev.impulses),
                        _fmt(ev.energy_before),
                        _fmt(ev.energy_after),
                    ]
                )
                + "\n"
            )


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


def discrete_lagrangian(model: MechModel, q_a, t_a: float, q_b, t_b: float) -> float:
    """Midpoint-quadrature approximation of the action over one interval."""
    h = t_b - t_a
    if h <= 0.0:
        raise ValueError("interval must have positive duration")
    q_a = np.asarray(q_a, dtype=float)
    q_b = np.asarray(q_b, dtype=float)
    qm = 0.5 * (q_a + q_b)
    v = (q_b - q_a) / h
    return h * model.lagrangian(qm, v)


def _force(model, forces, qm, v, tm):
    """Total generalized force at a midpoint state, or None when unforced."""
    own = model.force(qm, v, tm)
    if forces is not None:
        sampled = np.asarray(forces(qm, v, tm), float)
        return sampled if own is None else np.asarray(own, float) + sampled
    return None if own is None else np.asarray(own, float)


def discrete_momenta(model: MechModel, q_a, t_a: float, q_b, t_b: float, forces=None):
    """Backward and forward discrete momenta of one interval.

    Unforced, these are the exact partial derivatives of the midpoint
    discrete Lagrangian with respect to its two endpoint configurations.
    A generalized force (``model.force`` plus the optional sampler) is
    evaluated once at the midpoint state and split equally onto the two
    slots, giving the forced discrete Legendre transforms.
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
        # 0.0 - g, not -g: the same bits as 0.5 * 0.0 - g, zeros included.
        grad = 0.0 - model.potential_gradient(qm)
    else:
        grad = 0.5 * model.kinetic_config_grad(qm, v) - model.potential_gradient(qm)
    half = 0.5 * h * grad
    force = _force(model, forces, qm, v, 0.5 * (t_a + t_b))
    if force is not None:
        half = half + 0.5 * h * force
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
    """``np.linalg.solve(matrix, rhs)`` for a 1-D ``rhs``, bit for bit.

    ``diag`` is ``_diagonal(matrix)``. The quotient ``rhs / diag`` is
    returned where it equals LAPACK's solution (see the module
    docstring); a singular matrix still raises ``LinAlgError``.
    """
    if diag is not None:
        x = rhs / diag
        if diag.size == 1 or (rhs.all() and np.isfinite(x).all()):
            return x
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


def _newton(fun, x0, tol, max_iter, jac, slot=None, floor=None):
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
    cannot reduce the residual below ``tol``.
    """
    if slot is None:
        slot = _KeptJacobian()
    x = np.asarray(x0, dtype=float).copy()
    r = fun(x)
    # The 2-norm as np.linalg.norm computes it for a 1-D float array.
    rn = math.sqrt(float(r @ r))
    for it in range(max_iter):
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
        max_iter,
    )


def _del_block(model, forces, q_a, t_a, q_b, t_b, fun, x, r):
    """Derivative of the backward forced momentum with respect to ``q_b``.

    For constant mass it is ``-M/h - (h/4) Hess V(q_mid)``, plus ``h/2``
    times the forward-differenced derivative of the midpoint force when a
    force acts. A variable mass has no such form: the block is then taken
    by forward differences of the residual ``fun`` over the first ``dim``
    entries of ``x``, reusing ``r = fun(x)``.
    """
    n = model.dim
    if not model.constant_mass:
        return _fd_jacobian(fun, x, r, range(n))[:n]
    h = t_b - t_a
    qm = 0.5 * (q_a + q_b)
    block = -model.mass_matrix(qm) / h - (0.25 * h) * model.potential_hessian(qm)
    tm = 0.5 * (t_a + t_b)

    def force(q):
        return _force(model, forces, 0.5 * (q_a + q), (q - q_a) / h, tm)

    f0 = force(q_b)
    if f0 is not None:
        block += (0.5 * h) * _fd_jacobian(force, q_b, f0, range(n))
    return block


# ---------------------------------------------------------------------------
# DEL steps


def _solve_free(model, p_in, q_curr, t_curr, t_next, forces, cfg, slot=None, mass=None):
    """Solve the DEL for the next configuration given the node momentum.

    Returns the next configuration and the momentum it carries into the
    node at ``t_next``, kept from the last residual evaluation. ``slot``
    is the Newton Jacobian slot shared with earlier solves, or None for
    one kept within this solve; ``mass`` is the constant mass and its
    diagonal, or None to evaluate ``M(q)``.
    """
    h = t_next - t_curr
    v0 = _mass_solve(model, mass, q_curr, p_in)
    x0 = q_curr + h * v0
    p_out = [None]

    def residual(q_next):
        p_minus, p_out[0] = discrete_momenta(model, q_curr, t_curr, q_next, t_next, forces)
        return p_in + p_minus

    def jacobian(q_next, r, fun):
        return _del_block(model, forces, q_curr, t_curr, q_next, t_next, fun, q_next, r)

    def floor(q_next):
        # The residual cancels p_in against M (q_next - q_curr) / h, whose
        # rounding grows with |q|; a tight newton_tol can fall below it.
        mass = np.linalg.norm(model.mass_matrix(0.5 * (q_curr + q_next)))
        q_size = np.linalg.norm(q_curr) + np.linalg.norm(q_next)
        return 8.0 * np.finfo(float).eps * (np.linalg.norm(p_in) + mass * q_size / h)

    if slot is None:
        slot = _KeptJacobian()
    # The Jacobian of a variable mass is differenced (see _del_block):
    # keep its inverse and refine it by secant updates instead.
    slot.secant = not model.constant_mass
    tol = cfg.newton_tol * max(1.0, float(np.abs(p_in).max()))
    q_next = _newton(
        residual, x0, tol, cfg.newton_max_iter, jac=jacobian, slot=slot, floor=floor
    )
    return q_next, p_out[0]


def _solve_held(model, p_in, q_curr, t_curr, t_next, forces, cfg, held, slot=None,
                mass=None):
    """Constrained DEL step: held gaps pinned to zero via impulse multipliers.

    Returns the next configuration, the multiplier per held contact and
    the momentum carried into the node at ``t_next`` (from the last
    residual evaluation). A negative multiplier means the constraint
    would need to pull; the caller releases such contacts and re-solves.
    ``slot`` and ``mass`` are as in :func:`_solve_free`.
    """
    held = list(held)
    n = model.dim
    h = t_next - t_curr
    grads_curr = model.gap_gradients(q_curr)[held]
    v0 = _mass_solve(model, mass, q_curr, p_in)
    x0 = np.concatenate([q_curr + h * v0, np.zeros(len(held))])
    p_scale = max(1.0, float(np.abs(p_in).max()))
    gap_scale = p_scale / model.length_scale
    p_out = [None]

    def residual(z):
        q_next, lam = z[:n], z[n:]
        p_minus, p_out[0] = discrete_momenta(model, q_curr, t_curr, q_next, t_next, forces)
        r = p_in + lam @ grads_curr + p_minus
        gaps = model.gaps(q_next)[held] * gap_scale
        return np.concatenate([r, gaps])

    def jacobian(z, r, fun):
        q_next = z[:n]
        jac = np.zeros((z.size, z.size))
        jac[:n, :n] = _del_block(model, forces, q_curr, t_curr, q_next, t_next, fun, z, r)
        jac[:n, n:] = grads_curr.T
        jac[n:, :n] = model.gap_gradients(q_next)[held] * gap_scale
        return jac

    z = _newton(
        residual, x0, cfg.newton_tol * p_scale, cfg.newton_max_iter, jac=jacobian, slot=slot
    )
    return z[:n], dict(zip(held, z[n:])), p_out[0]


# ---------------------------------------------------------------------------
# Impact localization and resolution


def _crossing_fraction(g0: float, g1: float) -> float:
    return g0 / (g0 - g1)


def _locate(model, p_in, q_curr, t_curr, q_cand, t_next, forces, cfg, held):
    """Solve the substep DEL jointly with the earliest crossing gap.

    Unknowns are the impact configuration, the impact time, and the
    multipliers of any held contacts; the crossing contact's gap is
    driven to zero while the substep dynamics stay exactly satisfied.
    """
    act_tol = ACTIVATION_RTOL * model.length_scale
    pen_tol = PENETRATION_RTOL * model.length_scale
    gaps_curr = model.gaps(q_curr)
    gaps_cand = model.gaps(q_cand)
    crossing = [
        i
        for i in range(gaps_curr.size)
        # A candidate exactly on the manifold counts: its crossing sits
        # at the very end of the interval.
        if i not in held and gaps_cand[i] <= pen_tol and gaps_curr[i] >= -act_tol
        and gaps_cand[i] < gaps_curr[i]
    ]
    if not crossing:
        raise ImpactLocationError("no gap sign change in the step", t_curr)
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
        z = _newton(
            residual, x0, cfg.newton_tol * p_scale, cfg.newton_max_iter, jac=jacobian
        )
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

    if not (t_curr - cfg.time_tol <= t_star <= t_next + cfg.time_tol):
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
        if abs(estimates[i] - t_star) <= cfg.time_tol:
            contacts.add(i)
    for i in range(gaps_star.size):
        # Contacts already resting on their manifold join the active set.
        if i not in held and abs(gaps_star[i]) <= act_tol:
            contacts.add(i)
    return t_star, q_star, tuple(sorted(contacts))


def _node_contacts(model, q, p, gaps, crossing, act_tol):
    """Test the crossing contacts closed at the node ``q`` against ``p``.

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
    frame = _contact_frame(model, q, p, contacts)
    rows = [contacts.index(i) for i in touching]
    values = frame.a[rows] * frame.scales[rows]
    p_tol = 1e-9 * max(1.0, math.sqrt(max(frame.p_norm2, 0.0)))
    approaching = [i for i, v in zip(touching, values) if v < -p_tol]
    tangent = [i for i, v in zip(touching, values) if abs(v) <= p_tol]
    return approaching, tangent, contacts, frame


def _contact_frame(model, q, p, contacts):
    """Contact frame of the given contacts at configuration ``q``."""
    return mt.ContactFrame(model.metric_at(q), model.gap_gradients(q)[list(contacts)], p)


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
    least ``zeno_window`` impacts within one nominal step of ``now`` (the
    latest event time by default), and ``"elastic"`` otherwise.
    """
    hits = [ev.t for ev in event_history if contact in ev.contacts]
    if not hits:
        return "elastic"
    t_ref = now if now is not None else hits[-1]
    recent = sum(1 for t in hits if t_ref - config.h < t <= t_ref)
    return "force-plastic" if recent >= config.zeno_window else "elastic"


# ---------------------------------------------------------------------------
# Friction


def friction_force(
    model: MechModel,
    q,
    qdot,
    contact: int,
    mu: float,
    normal_force: float,
) -> np.ndarray:
    """Coulomb friction for a planar single-tangent contact.

    Selects the tangential force ``f`` in ``[-mu N, mu N]`` that
    maximizes instantaneous dissipation. Both objectives are affine in
    ``f``, so the choice is closed form: with slip ``|v_t| > 1e-10`` the
    sliding power ``f v_t`` is least at the cone boundary opposing the
    slip; at zero slip the tangential acceleration ``c + f d``, with
    ``c = t M^-1 F`` and ``d = t M^-1 t``, is nulled by ``f = -c / d``
    (stiction), clamped to the cone. Returns the generalized force row;
    an inactive contact contributes nothing.
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
        applied = -model.potential_gradient(q)
        own = model.force(q, qdot, 0.0)
        if own is not None:
            applied = applied + np.asarray(own, float)
        c, d = trow @ np.linalg.solve(model.mass_matrix(q), np.column_stack([applied, trow]))
        f = min(max(-c / d, -bound), bound)
    return f * trow


# ---------------------------------------------------------------------------
# Simulation driver


class _Sim:
    """Mutable state of one simulation run; single threaded by design."""

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
        # The last zeno_window events of each contact.
        self.recent: defaultdict[int, deque] = defaultdict(
            lambda: deque(maxlen=config.zeno_window)
        )
        # A constant mass and its diagonal, for the velocity solves.
        self.mass = None
        if model.constant_mass:
            matrix = model.mass_matrix(np.zeros(model.dim))
            self.mass = (matrix, _diagonal(matrix))

    def log(self, event):
        """Record an event, also among the recent ones of its contacts."""
        self.events.append(event)
        for c in event.contacts:
            self.recent[c].append(event)

    def zeno_forced(self, contacts, now):
        """Whether :func:`zeno_guard` forces any of ``contacts`` plastic at ``now``.

        Event times never decrease, so a contact's events within one
        nominal step of ``now`` are its latest ones, and the guard needs
        no more than its last ``zeno_window``.
        """
        return any(
            zeno_guard(self.recent[c], c, self.cfg, now) == "force-plastic"
            for c in contacts
        )

    def effective_forces(self, q_c, p_in):
        """Compose user forcing with friction on held contacts.

        Friction is evaluated once per interval at the interval-start
        state and then held constant, so the implicit solve sees a
        smooth residual; re-evaluating the stiction branch inside the
        Newton iteration would make it discontinuous.
        """
        cfg = self.cfg
        if cfg.friction is None or not self.held:
            return self.user_forces
        fr = cfg.friction
        model = self.model
        qdot = _mass_solve(model, self.mass, q_c, p_in)
        frozen = np.zeros(model.dim)
        active = False
        for contact, lam in self.held.items():
            if contact not in fr.contacts:
                continue
            normal_force = max(lam, 0.0) / cfg.h
            frozen = frozen + friction_force(
                model, q_c, qdot, contact, fr.mu, normal_force
            )
            active = True
        if not active:
            return self.user_forces
        user = self.user_forces

        def sampler(qm, v, tm):
            total = frozen
            if user is not None:
                total = total + np.asarray(user(qm, v, tm), float)
            return total

        return sampler

    def solve_interval(self, q_c, t_c, p_in, t_target, forces):
        """One DEL solve with the current held set, releasing as needed.

        Returns the next configuration and its node momentum. A failed
        solve raises :class:`StepFailureError` naming the step start and
        the contacts held in it. A full-length solve shares the Newton
        Jacobian of its held set with the earlier ones; the substep after
        an in-step impact keeps its own within the solve.
        """
        cfg = self.cfg
        full = round((t_target - t_c) / cfg.h, 9) == 1
        try:
            while True:
                held = tuple(sorted(self.held))
                slot = self.kept[held] if full else None
                if held:
                    q_n, lams, p_out = _solve_held(
                        self.model, p_in, q_c, t_c, t_target, forces, cfg, held, slot,
                        self.mass,
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
                    self.model, p_in, q_c, t_c, t_target, forces, cfg, slot, self.mass
                )
        except StepFailureError as exc:
            exc.t, exc.contacts = t_c, tuple(sorted(self.held))
            raise

    def advance(self, q_c, t_c, p_in, t_target):
        """Advance to the target time, resolving any impacts on the way."""
        model, cfg = self.model, self.cfg
        act_tol = ACTIVATION_RTOL * model.length_scale
        pen_tol = PENETRATION_RTOL * model.length_scale
        impacts = 0
        while True:
            forces = self.effective_forces(q_c, p_in)
            q_n, p_out = self.solve_interval(q_c, t_c, p_in, t_target, forces)
            gaps_c = model.gaps(q_c)
            gaps_n = model.gaps(q_n)
            crossing = [
                i
                for i in range(gaps_n.size)
                if i not in self.held
                and gaps_n[i] < -pen_tol
                and gaps_c[i] >= -act_tol
            ]
            if not crossing:
                return q_n, p_out

            impacts += 1
            if impacts > MAX_IMPACTS_PER_STEP:
                raise StepFailureError(
                    f"more than {MAX_IMPACTS_PER_STEP} impacts in one step",
                    t=t_c,
                    contacts=crossing,
                )

            approaching, tangent, node_event, frame = _node_contacts(
                model, q_c, p_in, gaps_c, crossing, act_tol
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
                t_star, q_star, contacts = _locate(
                    model, p_in, q_c, t_c, q_n, t_target, forces, cfg,
                    tuple(sorted(self.held)),
                )
                h1 = t_star - t_c
                if h1 > TINY_FRACTION * cfg.h:
                    p_star = node_momentum(model, q_c, t_c, q_star, t_star, forces)
                else:
                    p_star, q_star, t_star = p_in, q_c, t_c
                frame = _contact_frame(model, q_star, p_star, contacts)

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
                return q_star, p_mapped
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
    permutation of the model's contacts (else :class:`ConfigError`);
    each event reflects its own contacts in that order.
    """
    if not 0.0 < duration < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration!r}")
    q0 = np.asarray(q0, dtype=float)
    qdot0 = np.asarray(qdot0, dtype=float)
    if q0.shape != (model.dim,) or qdot0.shape != (model.dim,):
        raise ValueError("initial state does not match the model dimension")
    for name, value in (("q0", q0), ("qdot0", qdot0)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value}")
    gaps0 = model.gaps(q0)
    if np.any(gaps0 < -PENETRATION_RTOL * model.length_scale):
        raise ValueError(f"initial configuration penetrates a contact: gaps {gaps0}")

    sim = _Sim(model, config, forces)
    n_steps = max(1, int(round(duration / config.h)))
    times = [0.0]
    states = [q0.copy()]
    p = q0 * 0.0 + (model.mass_matrix(q0) @ qdot0)
    momenta = [p.copy()]

    t, q = 0.0, q0
    for k in range(n_steps):
        t_target = (k + 1) * config.h
        q, p = sim.advance(q, t, p, t_target)
        t = t_target
        times.append(t)
        states.append(q.copy())
        momenta.append(p.copy())

    return Trajectory(
        times=np.asarray(times),
        states=np.asarray(states),
        momenta=np.asarray(momenta),
        events=sim.events,
        holds=sim.holds,
        nominal_step=config.h,
    )
