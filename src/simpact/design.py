"""Contact-geometry design optimization.

Drives the kinetic-metric inner product between two contact normals to
zero over a chosen set of free configuration and design variables while
keeping both contacts closed. The residual stack is the two gaps
(nondimensionalized by the body length scale) plus the unit-normal
inner product; the system is underconstrained, and Gauss-Newton with a
minimum-norm (pseudoinverse) update biases the answer toward the
nearest orthogonal configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import metric as mt
from .errors import DesignError, DimensionError
from .models import BilliardsModel, LegTailModel, MechModel, _central_jacobian
from .uniqueness import indeterminacy_xi

#: Default termination threshold on the unit-normal inner product.
INNER_TOL = 1e-6

#: Gap closure threshold, relative to the problem length scale.
GAP_RTOL = 1e-9

#: Loose closure tolerance required of the initial guess.
INITIAL_GAP_RTOL = 1e-3

#: Gauss-Newton iterations one solve may take before it fails.
MAX_ITER = 200


@dataclass
class DesignProblem:
    """Orthogonality root-finding problem over (configuration, design).

    ``model_factory`` rebuilds the model for a design parameter vector;
    ``free_q`` and ``free_params`` select which entries of the
    configuration and parameter vectors the optimizer may move. The
    number of free variables must be at least the residual count (3).
    The residuals are the first two gaps, over the length scale of the
    initial design, and the inner product of their unit normals.
    """

    model_factory: Callable[[np.ndarray], MechModel]
    q0: np.ndarray
    params0: np.ndarray
    free_q: tuple[int, ...]
    free_params: tuple[int, ...] = ()
    tol_inner: float = INNER_TOL
    length_scale: float = field(init=False)

    def __post_init__(self):
        self.q0 = np.asarray(self.q0, dtype=float)
        self.params0 = np.asarray(self.params0, dtype=float)
        self.free_q = tuple(int(i) for i in self.free_q)
        self.free_params = tuple(int(i) for i in self.free_params)
        if self.n_free < 3:
            raise DimensionError(
                "need at least three free variables for the three residuals"
            )
        self.length_scale = self.model_factory(self.params0).length_scale

    @property
    def n_free(self) -> int:
        return len(self.free_q) + len(self.free_params)

    def pack(self, q, params) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        params = np.asarray(params, dtype=float)
        return np.concatenate([q[list(self.free_q)], params[list(self.free_params)]])

    def unpack(self, x: np.ndarray):
        q = self.q0.copy()
        params = self.params0.copy()
        nq = len(self.free_q)
        q[list(self.free_q)] = x[:nq]
        params[list(self.free_params)] = x[nq:]
        return q, params

    def residuals(self, x: np.ndarray) -> np.ndarray:
        q, params = self.unpack(x)
        model = self.model_factory(params)
        gaps = model.gaps(q)
        grads = model.gap_gradients(q)
        return np.array(
            [
                gaps[0] / self.length_scale,
                gaps[1] / self.length_scale,
                mt.ContactFrame(model.metric_at(q), grads[:2]).pair_cosine(),
            ]
        )

    def converged(self, r: np.ndarray) -> bool:
        return (
            abs(r[0]) <= GAP_RTOL
            and abs(r[1]) <= GAP_RTOL
            and abs(r[2]) <= self.tol_inner
        )


@dataclass(frozen=True)
class OrthogonalityResult:
    """Converged orthogonal double-contact solution."""

    q_opt: np.ndarray
    params_opt: np.ndarray
    residuals: np.ndarray
    initial_residuals: np.ndarray
    iterations: int
    displacement: float  # free-variable distance from the initial guess

    @property
    def inner_value(self) -> float:
        return float(self.residuals[2])

    def report(self, free_names: Sequence[str], x0, x_opt) -> str:
        lines = [
            "orthogonality optimization report",
            f"  iterations        : {self.iterations}",
            f"  gap residuals     : {self.residuals[0]:.3e}, {self.residuals[1]:.3e}",
            f"  normal inner start: {self.initial_residuals[2]: .6e}",
            f"  normal inner final: {self.residuals[2]: .6e}",
            f"  free displacement : {self.displacement:.6e}",
            "  variable          : initial -> final (delta)",
        ]
        for name, a, b in zip(free_names, x0, x_opt):
            lines.append(f"    {name:<16}: {a: .8f} -> {b: .8f} ({b - a:+.3e})")
        return "\n".join(lines)


def solve_orthogonal(problem: DesignProblem) -> OrthogonalityResult:
    """Gauss-Newton with minimum-norm updates to an orthogonal contact pair.

    The initial guess must have both gaps closed loosely; iteration
    stops once both gaps are closed tightly and the unit-normal inner
    product is below the problem tolerance. Raises on Jacobian rank
    collapse or when the iteration cap is exceeded.
    """
    x0 = problem.pack(problem.q0, problem.params0)
    r0 = problem.residuals(x0)
    if max(abs(r0[0]), abs(r0[1])) > INITIAL_GAP_RTOL:
        raise DesignError(
            f"initial guess does not close both gaps: residuals {r0[:2]}"
        )
    x = x0.copy()
    r = r0
    iterations = 0
    while not problem.converged(r):
        if iterations >= MAX_ITER:
            raise DesignError(f"iteration cap {MAX_ITER} exceeded; residuals {r}")
        jac = _central_jacobian(problem.residuals, x, 2e-7)
        # Minimum-norm Newton step for the underconstrained system.
        step, _, _, sv = np.linalg.lstsq(jac, -r, rcond=None)
        if sv[-1] <= 1e-12 * max(sv[0], 1.0):
            raise DesignError(f"residual Jacobian rank collapse (signals {sv})")
        alpha = 1.0
        while True:
            x_new = x + alpha * step
            r_new = problem.residuals(x_new)
            if np.linalg.norm(r_new) < np.linalg.norm(r) or problem.converged(r_new):
                break
            alpha *= 0.5
            if alpha < 1e-10:
                raise DesignError("line search failed; residual stalled")
        x, r = x_new, r_new
        iterations += 1
    q_opt, params_opt = problem.unpack(x)
    return OrthogonalityResult(
        q_opt=q_opt,
        params_opt=params_opt,
        residuals=r,
        initial_residuals=r0,
        iterations=iterations,
        displacement=float(np.linalg.norm(x - x0)),
    )


#: The configuration slots (x, y) of each billiards ball an optimization may free.
BILLIARDS_SLOTS = {"a": (0, 1), "b": (2, 3), "c": (4, 5)}


def billiards_orthogonality_problem(
    model: BilliardsModel,
    q0: np.ndarray,
    free_balls: Sequence[str] = ("a", "b"),
    tol_inner: float = INNER_TOL,
) -> DesignProblem:
    """Free the planar positions of the chosen balls; the cue stays put."""
    free_q: list[int] = []
    for name in free_balls:
        free_q.extend(BILLIARDS_SLOTS[name])
    return DesignProblem(
        model_factory=lambda params: model,
        q0=np.asarray(q0, dtype=float),
        params0=np.zeros(0),
        free_q=tuple(free_q),
        tol_inner=tol_inner,
    )


LEGTAIL_PARAM_NAMES = ("ax", "ay", "bx", "by")
LEGTAIL_Q_NAMES = ("x", "y", "theta")


def legtail_orthogonality_problem(
    model: LegTailModel,
    q0: np.ndarray,
    free_q: Sequence[str] = ("y", "theta"),
    free_params: Sequence[str] = ("ax", "bx"),
    tol_inner: float = INNER_TOL,
) -> DesignProblem:
    """Free a subset of the pose and of the contact-offset design."""
    params0 = np.concatenate([model.r_a, model.r_b])

    def factory(params):
        return LegTailModel(
            mass=model.m,
            inertia=model.J,
            contact_a=params[0:2],
            contact_b=params[2:4],
            gravity=model.g,
        )

    return DesignProblem(
        model_factory=factory,
        q0=np.asarray(q0, dtype=float),
        params0=params0,
        free_q=tuple(LEGTAIL_Q_NAMES.index(n) for n in free_q),
        free_params=tuple(LEGTAIL_PARAM_NAMES.index(n) for n in free_params),
        tol_inner=tol_inner,
    )


def xi_at_optimum(
    model: MechModel, q_opt: np.ndarray, samples: int = 100, seed: int = 0
) -> float:
    """Largest order-indeterminacy over random infeasible momenta.

    A sample that does not violate both normals is negated, and drawn
    again if its negation does not either. Feasibility is read from the
    duals of one contact frame, so only the xi of each sample solves
    against the mass matrix. The two inner products are tested as
    Python floats, and those of the negated sample are their negations,
    which is exact in IEEE arithmetic.
    """
    metric = model.metric_at(q_opt)
    u, v = model.gap_gradients(q_opt)[:2]
    duals = mt.ContactFrame(metric, [u, v]).duals
    rng = np.random.default_rng(seed)
    worst = 0.0
    found = 0
    while found < samples:
        p = rng.standard_normal(model.dim)
        a0, a1 = (duals @ p).tolist()
        if a0 >= 0.0 or a1 >= 0.0:
            p = -p
            a0, a1 = -a0, -a1
        if a0 >= 0.0 or a1 >= 0.0:
            continue
        worst = max(worst, indeterminacy_xi(metric, p, u, v))
        found += 1
    return worst


def theta_sweep(
    model: BilliardsModel,
    theta_start: float,
    theta_stop: float,
    samples: int,
    cue_speed: float = 1.0,
) -> np.ndarray:
    """Order-indeterminacy of the break across a range of contact angles.

    For each angle the double-contact configuration is built with the
    cue moving along the bisector, and the two resolution orders are
    compared. Returns an array of ``(theta, xi)`` rows. The curve
    vanishes at the orthogonal angle (pi over two) and at the grazing
    angle (pi).
    """
    if samples < 2:
        raise ValueError("a sweep needs at least two samples")
    theta_min = model.min_break_angle()
    if theta_start < theta_min - 1e-12:
        raise ValueError(
            f"theta_start {theta_start:.4f} is below the contact limit "
            f"{theta_min:.4f} where the outer balls collide"
        )
    if theta_stop > math.pi + 1e-12:
        raise ValueError("theta_stop must not exceed pi")
    if theta_stop <= theta_start:
        raise ValueError("theta_stop must exceed theta_start")
    thetas = np.linspace(theta_start, theta_stop, samples)
    out = np.empty((samples, 2))
    for k, theta in enumerate(thetas):
        out[k] = theta, sweep_point(model, theta, cue_speed)
    return out


def sweep_point(model: BilliardsModel, theta: float, cue_speed: float = 1.0) -> float:
    """The indeterminacy measure at one break angle."""
    q = model.double_contact_configuration(theta)
    metric = model.metric_at(q)
    grads = model.gap_gradients(q)
    p = model.cue_break_momentum(q, cue_speed)
    return indeterminacy_xi(metric, p, grads[0], grads[1])
