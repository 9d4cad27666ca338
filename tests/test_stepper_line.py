"""One-coordinate free steps on Python floats against the array path.

``_solve_free`` hands a one-coordinate constant mass with a nonzero
diagonal to ``_solve_line``, which forms the array path's residual,
Jacobian and rounding floor on floats and iterates on them with the
shared ``_newton``. Called without the simulation's mass, ``_solve_free``
takes the array path, which is the reference here: every result, kept
Jacobian and error must match it bit for bit.
"""

import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpact import stepper
from simpact.errors import StepFailureError
from simpact.models import BallModel
from simpact.stepper import StepperConfig, _KeptJacobian, _Sim, discrete_momenta

from test_stepper import Oscillator


class Pendulum(Oscillator):
    def potential_gradient(self, q):
        return np.array([self.k * math.sin(q[0])])


class Flattened(Oscillator):
    """A unit mass whose declared Hessian cancels the mass block at h = 0.5.

    The DEL Jacobian ``-m/h - (h/4) H`` is then exactly zero.
    """

    def potential_gradient(self, q):
        return np.array([1.0])

    def potential_hessian(self, q):
        return np.array([[-4.0 * self.m / 0.5**2]])


def _lift(amplitude, period, shape):
    def force(q, v, t):
        return np.array(amplitude * math.sin(math.pi * t / period) ** 8).reshape(shape)

    return force


def _drag(c, d, shape):
    def force(q, v, t):
        return (np.sin(7.0 * t) - c * v - d * q**2).reshape(shape)

    return force


def _case(kind, u, shape):
    """Model, sampler and initial state of one one-coordinate case."""
    m = 1.0 + 0.5 * u[0]
    if kind == "oscillator":
        return Oscillator(m, 5.0 + 4.0 * u[1]), None, 0.8 * u[2], 1.5 * u[3]
    if kind == "pendulum":
        return Pendulum(m, 9.81 * (1.2 + u[1])), None, 1.2 * u[2], 1.5 * u[3]
    if kind == "ball-lift":
        forces = _lift(2.5 * 9.81 * m * (1.0 + 0.02 * u[1]), 0.8, shape)
        return BallModel(m), forces, 0.05 + 0.01 * u[2], u[3]
    forces = _drag(0.5 + 0.4 * u[1], 0.3, shape)
    return BallModel(m), forces, 0.5 + 0.2 * u[2], u[3]


def _outcome(model, p, q, t, h, forces, cfg, slot, mass):
    """``(q_next, p_out)``, or the class, message, residual and iterations it raised."""
    try:
        return stepper._solve_free(model, p, q, t, t + h, forces, cfg, slot, mass)
    except (StepFailureError, ValueError) as exc:
        return (type(exc), str(exc), repr(getattr(exc, "residual_norm", None)),
                getattr(exc, "iterations", None))


def _bits(a):
    return None if a is None else (a.shape, np.asarray(a).tobytes())


def _as_1x1(value, ndim=2):
    if value is None:
        return None
    assert type(value) is float
    return np.full((1,) * ndim, value)


def _assert_same(line, array):
    if isinstance(array[0], type):
        assert line == array
        return
    q_line, p_line = line
    q_array, p_array = array
    assert _bits(q_line) == _bits(q_array)
    assert _bits(p_line) == _bits(p_array)


def _assert_same_slot(line, array):
    # The line path keeps its Jacobian as a float, the array path as a 1x1 matrix.
    assert _bits(_as_1x1(line.matrix)) == _bits(array.matrix)
    assert _bits(_as_1x1(line.diag, 1)) == _bits(array.diag)
    assert (line.inverse, line.secant) == (array.inverse, array.secant) == (None, False)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["oscillator", "pendulum", "ball-lift", "ball-drag"]),
    shape=st.sampled_from([(), (1,)]),
    u=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4),
    h=st.sampled_from([1e-3, 0.01, 0.05]),
    far=st.booleans(),
)
def test_line_steps_are_bitwise_the_array_steps(kind, shape, u, h, far):
    # Six steps share one slot each, so the kept Jacobian is reused,
    # kept again or rebuilt as the array path does it. Far from the
    # origin a tolerance of 1e-14 falls below the residual's rounding,
    # and the rounding floor accepts the step.
    model, forces, q0, v0 = _case(kind, u, shape)
    cfg = StepperConfig(h=h, newton_tol=1e-14 if far else 1e-10)
    mass = _Sim(model, cfg, forces).mass
    q = np.array([q0 + (1e6 if far else 0.0)])
    p = mass[0] @ np.array([v0])
    slots = _KeptJacobian(), _KeptJacobian()
    t = 0.0
    for _ in range(6):
        line = _outcome(model, p, q, t, h, forces, cfg, slots[0], mass)
        array = _outcome(model, p, q, t, h, forces, cfg, slots[1], None)
        _assert_same(line, array)
        _assert_same_slot(*slots)
        if isinstance(array[0], type):
            break
        (q, p), t = array, t + h


@pytest.mark.parametrize("kind", ["oscillator", "pendulum", "ball-drag"])
def test_rounding_floor_accepts_the_same_step(kind):
    # At |q| = 1e6 the residual cancels momenta of about 1e8 m/h whose
    # rounding is far above a 1e-14 tolerance; both paths accept the
    # stalled point at the rounding floor.
    model, forces, q0, v0 = _case(kind, [0.3, -0.2, 0.1, 0.4], (1,))
    cfg = StepperConfig(h=0.01, newton_tol=1e-14)
    mass = _Sim(model, cfg, forces).mass
    q, p = np.array([q0 + 1e6]), np.array([v0])
    line = _outcome(model, p, q, 0.0, cfg.h, forces, cfg, None, mass)
    _assert_same(line, _outcome(model, p, q, 0.0, cfg.h, forces, cfg, None, None))
    residual = p + discrete_momenta(model, q, 0.0, line[0], cfg.h, forces)[0]
    assert abs(residual[0]) > cfg.newton_tol * max(1.0, abs(p[0]))


def _nan_force(q, v, t):
    return np.array([math.nan])


@pytest.mark.parametrize(
    "model, forces, h, message",
    [
        (Flattened(1.0, 0.0), None, 0.5, "singular Jacobian in implicit step: Singular matrix"),
        (Oscillator(1.0, 3.0), _nan_force, 0.01, "step rejected by line search"),
        (Oscillator(1.0, 3.0), None, 0.0, "interval must have positive duration"),
    ],
    ids=["singular", "nan-sampler", "empty-interval"],
)
def test_failures_match_the_array_path(model, forces, h, message):
    cfg = StepperConfig(h=0.5)
    mass = _Sim(model, cfg, forces).mass
    q, p = np.array([0.3]), np.array([0.7])
    slots = _KeptJacobian(), _KeptJacobian()
    line = _outcome(model, p, q, 0.0, h, forces, cfg, slots[0], mass)
    array = _outcome(model, p, q, 0.0, h, forces, cfg, slots[1], None)
    assert line == array
    assert line[1] == message
    _assert_same_slot(*slots)


def test_flattened_jacobian_is_exactly_zero():
    # The premise of the singular case above.
    model = Flattened(1.0, 0.0)
    assert stepper._line_jacobian(model, None, 0.3, 0.0, 0.65, 0.5) == 0.0


def test_benchmark_runs_are_bitwise_the_array_path(monkeypatch):
    # The integrate oscillator and pendulum ops and the impacts
    # lifted-ball ops of seed 1 of the benchmark harness.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    ops = [
        op
        for op in workloads.build_integrate(1).ops + workloads.build_impacts(1).ops
        if op.label in ("oscillator", "pendulum") or op.label.startswith("ball ")
    ]
    assert len(ops) == 34 + 34 + 16
    solve_free = stepper._solve_free

    def array_path(*args):
        return solve_free(*args[:8])  # drops the simulation's mass

    for op in ops:
        line = op.run()
        with mock.patch.object(stepper, "_solve_free", array_path):
            array = op.run()
        for name in ("times", "states", "momenta"):
            assert _bits(getattr(line, name)) == _bits(getattr(array, name)), op.label
        assert repr(line.events) == repr(array.events)
        assert repr(line.holds) == repr(array.holds)


# ---------------------------------------------------------------------------
# _newton on a float iterate against the same call on a one-element array


def _cube(x):
    # x**3 as products, which Python floats and numpy arrays round alike.
    return x * x * x


def _newton_trace(x0, fun, jac, floor):
    """The iterates of one ``_newton`` call and its result or error, as bits.

    ``jac(x)`` is a float; an array iterate gets it as a 1x1 matrix.
    """
    iterates = []

    def recorded(x):
        iterates.append(np.asarray(x, float).tobytes())
        return fun(x)

    def jacobian(x, r, f):
        return jac(x) if isinstance(x0, float) else np.array([[jac(x.item())]])

    try:
        result = stepper._newton(recorded, x0, 1e-60, jacobian, floor=floor)
    except StepFailureError as exc:
        return iterates, (type(exc), str(exc), repr(exc.residual_norm), exc.iterations)
    assert (type(result) is float) == isinstance(x0, float)
    return iterates, np.asarray(result, float).tobytes()


@pytest.mark.parametrize(
    "fun, jac, floor, outcome",
    [
        # Newton on x**3 keeps only two thirds of x per step.
        (_cube, lambda x: 3.0 * x * x, None, "implicit step did not converge"),
        # A Jacobian of the wrong sign: every halved step raises the residual.
        (lambda x: 1.0 * x, lambda x: -1.0, None, "step rejected by line search"),
        (lambda x: 1.0 * x, lambda x: -1.0, lambda x: 0.5, "step rejected by line search"),
        (lambda x: 1.0 * x, lambda x: -1.0, lambda x: 2.0, None),
        (lambda x: x - 2.0, lambda x: 0.0, None, "singular Jacobian in implicit step"),
    ],
    ids=["iteration-cap", "stalled", "stalled-above-floor", "stalled-within-floor", "singular"],
)
def test_newton_on_a_float_is_bitwise_the_one_element_array(fun, jac, floor, outcome):
    line = _newton_trace(1.0, fun, jac, floor)
    array = _newton_trace(np.array([1.0]), fun, jac, floor)
    assert line == array
    iterates, result = line
    if outcome is None:
        # Accepted at the floor: the last evaluation is at the point returned.
        assert result == iterates[-1] == iterates[0]
    else:
        assert result[1].startswith(outcome)
    if outcome == "implicit step did not converge":
        assert result[3] == stepper.NEWTON_MAX_ITER == 60
        assert len(iterates) == 61
