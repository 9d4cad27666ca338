"""Assembled Newton Jacobians of the stepper against central differences.

The free, held and locate solves hand ``_newton`` a residual and a
Jacobian assembled from model derivatives. A spy captures both at the
first Newton call; the Jacobian is then compared with central
differences of the residual around the initial guess.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpact import stepper
from simpact.models import BallModel, BilliardsModel, CradleModel, LegTailModel, MechModel
from simpact.stepper import StepperConfig


class PendulumStop(MechModel):
    """Pendulum with a nonlinear potential and an angular stop at -0.5."""

    dim = 1
    constant_mass = True

    def mass_matrix(self, q):
        return np.array([[1.5]])

    def potential(self, q):
        return -9.81 * math.cos(q[0])

    def potential_gradient(self, q):
        return np.array([9.81 * math.sin(q[0])])

    def gaps(self, q):
        return np.array([q[0] + 0.5])

    def gap_gradients(self, q):
        return np.array([[1.0]])


class BreathingBall(MechModel):
    """Configuration-dependent mass above a floor at zero."""

    dim = 1
    constant_mass = False

    def mass_matrix(self, q):
        return np.array([[2.0 + math.sin(3.0 * q[0])]])

    def potential_gradient(self, q):
        return np.array([0.6 * q[0] + 2.0])

    def gaps(self, q):
        return np.array([q[0]])

    def gap_gradients(self, q):
        return np.array([[1.0]])


def damped_drive(qm, v, t):
    """Time-dependent forcing that also depends on position and velocity."""
    return np.sin(7.0 * t) - 0.8 * v - 0.3 * qm**2


def _ball(u):
    model = BallModel(1.3)
    return model, np.array([0.05 + 0.02 * u[0]]), np.array([-1.5 - 0.5 * u[1]]), None


def _cradle(u):
    model = CradleModel([1.0 + 0.3 * u[0], 0.7, 1.4], [0.1, 0.1, 0.1])
    q = model.touching_positions(gap=0.02)
    q[0] += 0.005 * u[1]
    return model, q, np.array([1.2 + 0.3 * u[2], 0.1 * u[3], 0.0]), None


def _legtail(u, forces=None):
    model = LegTailModel(1.2, 0.08, [0.3, -0.25], [-0.1, -0.25])
    q = model.double_contact_pose()
    q[1] += 0.02 + 0.005 * u[0]
    q[2] += 0.05 * u[1]
    return model, q, np.array([0.2 * u[2], -1.8, 0.05 * u[3]]), forces


def _billiards(u):
    model = BilliardsModel([1.0, 1.0, 9.0], [0.1, 0.1, 0.3])
    q = model.double_contact_configuration(1.2 + 0.3 * u[0])
    q[4] -= 0.02
    q[5] += 0.002 * u[1]
    return model, q, model.cue_break_momentum(q, 1.0 + 0.2 * u[2]), None


def _pendulum(u):
    return PendulumStop(), np.array([-0.45 + 0.02 * u[0]]), np.array([-2.5 - 0.5 * u[1]]), None


def _breathing(u):
    return BreathingBall(), np.array([0.05 + 0.02 * u[0]]), np.array([-3.0 - 0.5 * u[1]]), None


CASES = {
    "ball": _ball,
    "cradle": _cradle,
    "legtail": _legtail,
    "billiards": _billiards,
    "pendulum": _pendulum,
    "legtail-forced": lambda u: _legtail(u, damped_drive),
    "variable-mass": _breathing,
}

H = 0.05
T0 = 0.3


class Captured(Exception):
    """Stops the solve once the spy has the residual and its Jacobian."""


def _capture(solve):
    seen = {}

    def spy(fun, x0, tol, max_iter, jac):
        seen.update(fun=fun, x0=np.array(x0, dtype=float), jac=jac)
        raise Captured

    with mock.patch.object(stepper, "_newton", spy), pytest.raises(Captured):
        solve()
    return seen["fun"], seen["x0"], seen["jac"]


def _central(fun, x, scale, eps=1e-6):
    cols = []
    for i in range(x.size):
        step = eps * scale[i]
        dx = np.zeros(x.size)
        dx[i] = step
        cols.append((fun(x + dx) - fun(x - dx)) / (2 * step))
    return np.column_stack(cols)


def _run(mode, model, q, p, forces):
    cfg = StepperConfig(h=H)
    t0, t1 = T0, T0 + H
    if mode == "free":
        return lambda: stepper._solve_free(model, p, q, t0, t1, forces, cfg)
    if mode == "held":
        held = (model.gaps(q).size - 1,)
        return lambda: stepper._solve_held(model, p, q, t0, t1, forces, cfg, held)
    # A straight-line candidate that ends well past the earliest crossing.
    q_cand = q + 2.0 * H * np.linalg.solve(model.mass_matrix(q), p)
    return lambda: stepper._locate(model, p, q, t0, q_cand, t1, forces, cfg, ())


@pytest.mark.parametrize("mode", ["free", "held", "locate"])
@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=15, deadline=None)
@given(u=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4))
def test_assembled_jacobian_matches_central_differences(case, mode, u):
    model, q, p, forces = CASES[case](u)
    fun, x0, jac = _capture(_run(mode, model, q, p, forces))
    assert jac is not None
    # Move off the initial guess in the configuration block.
    x = x0.copy()
    x[: model.dim] += 1e-3 * model.length_scale * np.resize(u, model.dim)
    assembled = jac(x, fun(x), fun)
    # The residual varies with the impact time on the scale of the
    # substep, which can be far shorter than the time itself.
    scale = np.maximum(1.0, np.abs(x))
    if mode == "locate":
        scale[model.dim] = x[model.dim] - T0
    reference = _central(fun, x, scale)
    # Derivative blocks and the forcing slot's differences agree to
    # rounding; the forward-differenced impact-time column and DEL block
    # of a variable mass agree to their truncation error.
    tol = np.full(x.size, 1e-8 if model.constant_mass else 1e-5)
    if mode == "locate":
        tol[model.dim] = 1e-4
    err = np.abs(assembled - reference) / np.maximum(1.0, np.abs(reference).max(axis=0))
    assert np.all(err <= tol)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=15, deadline=None)
@given(
    u=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4),
    below=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]),
)
def test_locate_recovers_from_time_below_interval(case, u, below):
    # The locate residual clamps an impact time at or below the interval
    # start back into it; its time column must still point Newton there.
    model, q, p, forces = CASES[case](u)
    fun, x0, jac = _capture(_run("locate", model, q, p, forces))
    n = model.dim
    x = x0.copy()
    x[n] = T0 - below
    column = jac(x, fun(x), fun)[:, n]
    assert np.all(np.isfinite(column)) and np.any(column != 0.0)
    tol = StepperConfig(h=H).newton_tol * max(1.0, float(np.abs(p).max()))
    z = stepper._newton(fun, x, tol, StepperConfig(h=H).newton_max_iter, jac)
    assert z[n] > T0
    assert np.linalg.norm(fun(z)) <= tol
