"""Square solves of the stepper: diagonal division against LAPACK.

The stepper divides by the diagonal of a diagonal mass or Newton
Jacobian instead of calling ``np.linalg.solve``. These tests check the
premise (the quotient is bitwise LAPACK's solution wherever the helper
takes it), run whole simulations against an oracle that sends every
solve to LAPACK, and count the LAPACK calls left on the free-step path.
"""

import itertools
import math
import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpact import stepper
from simpact.errors import ConfigError
from simpact.models import BallModel, BilliardsModel, CradleModel, LegTailModel, MechModel
from simpact.resolution import ImpactKind
from simpact.stepper import FrictionConfig, StepperConfig, simulate


def _bits(a):
    return np.asarray(a).tobytes()


# ---------------------------------------------------------------------------
# Premise: a diagonal solve is a division


def _system(n, values, signs):
    diag = np.array(values[:n]) * np.array(signs[:n])
    return np.diag(diag)


magnitudes = st.floats(min_value=1e-3, max_value=1e3)
rhs_values = st.floats(min_value=-1e3, max_value=1e3).filter(lambda v: v != 0.0)


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    values=st.lists(magnitudes, min_size=5, max_size=5),
    signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=5, max_size=5),
    rhs=st.lists(rhs_values, min_size=5, max_size=5),
)
def test_diagonal_solve_is_division(n, values, signs, rhs):
    # Fails on a LAPACK whose diagonal solve is not an exact division,
    # for instance one that multiplies by reciprocal pivots.
    matrix = _system(n, values, signs)
    b = np.array(rhs[:n])
    diag = stepper._diagonal(matrix)
    assert diag is not None
    expected = np.linalg.solve(matrix, b)
    assert _bits(b / diag) == _bits(expected)
    assert _bits(stepper._solve(matrix, diag, b)) == _bits(expected)


SPECIAL = [0.0, -0.0, 1.5, -2.25, 1e-300, -1e300, math.inf, -math.inf, math.nan]


@pytest.mark.filterwarnings("ignore:.*encountered in divide:RuntimeWarning")
@pytest.mark.parametrize("pivot", [3.0, -20.0, 1e-3, math.inf])
def test_one_unknown_divides_any_right_hand_side(pivot):
    # A 1x1 solve is one division in LAPACK too: signed zeros, overflow,
    # infinities and NaN come out with the same bits.
    matrix = np.array([[pivot]])
    diag = stepper._diagonal(matrix)
    for value in SPECIAL:
        b = np.array([value])
        assert _bits(stepper._solve(matrix, diag, b)) == _bits(np.linalg.solve(matrix, b))


@pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
@pytest.mark.parametrize("off", [0.0, -0.0])
@pytest.mark.parametrize("n", [2, 3])
def test_several_unknowns_match_lapack_on_zeros_and_infinities(n, off):
    # LAPACK's substitutions subtract products of the zero off-diagonal
    # entries, which can flip the sign of a zero entry of the solution
    # or make NaN of an infinite one; the helper leaves such right-hand
    # sides to LAPACK, so its result keeps LAPACK's bits.
    entries = [0.0, -0.0, 1.5, -2.25, math.inf]
    for pivots in itertools.product([-20.0, 3.0], repeat=n):
        matrix = np.full((n, n), off)
        np.fill_diagonal(matrix, pivots)
        diag = stepper._diagonal(matrix)
        for b in itertools.product(entries, repeat=n):
            b = np.array(b)
            expected = np.linalg.solve(matrix, b)
            assert _bits(stepper._solve(matrix, diag, b)) == _bits(expected), (matrix, b)


@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
def test_overflowing_quotient_matches_lapack():
    matrix = np.diag([1e-10, 2.0])
    b = np.array([1e300, 1.0])
    expected = np.linalg.solve(matrix, b)
    assert _bits(stepper._solve(matrix, stepper._diagonal(matrix), b)) == _bits(expected)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_zero_pivot_still_raises(n):
    matrix = np.diag(np.arange(n, dtype=float))  # first pivot zero
    assert stepper._diagonal(matrix) is None
    with pytest.raises(np.linalg.LinAlgError):
        stepper._solve(matrix, stepper._diagonal(matrix), np.ones(n))


def test_diagonal_rejects_off_diagonal_entries():
    assert stepper._diagonal(np.array([[2.0, 1e-300], [0.0, 3.0]])) is None
    assert stepper._diagonal(np.array([[2.0, 0.0], [math.nan, 3.0]])) is None
    assert _bits(stepper._diagonal(np.array([[2.0, -0.0], [0.0, 3.0]]))) == _bits([2.0, 3.0])


def test_kept_jacobian_carries_its_diagonal():
    slot = stepper._KeptJacobian()
    assert slot.matrix is None and slot.diag is None
    slot.matrix = np.diag([2.0, -3.0])
    assert _bits(slot.diag) == _bits([2.0, -3.0])
    slot.matrix = np.ones((2, 2))
    assert slot.diag is None
    slot.matrix = None
    assert slot.diag is None


# ---------------------------------------------------------------------------
# Oracle: every solve through LAPACK gives the same run, bit for bit


def _lapack(matrix, diag, rhs):
    return np.linalg.solve(matrix, rhs)


class PolarSpring(MechModel):
    """Planar particle on a central spring: M(q) = diag(m, m r^2), no contacts."""

    dim = 2
    constant_mass = False

    def mass_matrix(self, q):
        r = float(q[0])
        return np.diag([1.3, 1.3 * r * r])

    def potential_gradient(self, q):
        return np.array([12.0 * (float(q[0]) - 0.9), 0.0])

    def gaps(self, q):
        return np.zeros(0)

    def gap_gradients(self, q):
        return np.zeros((0, 2))


def _lift(amplitude, period):
    def force(q, v, t):
        return np.array([amplitude * math.sin(math.pi * t / period) ** 8])

    return force


def _lifted_ball():
    model = BallModel(1.1)
    cfg = StepperConfig(h=0.01, restitution=0.4)
    return model, [0.05], [0.0], 3.0, cfg, _lift(1.1 * 9.81 * 2.5, 0.6)


def _cradle(r):
    def run():
        model = CradleModel([1.0, 0.7, 1.6, 1.2], [0.1] * 4)
        q0 = model.touching_positions()
        q0[0] -= 0.05
        return model, q0, [1.2, 0.0, 0.0, 0.0], 0.3, StepperConfig(h=0.005, restitution=r), None

    return run


def _legtail_friction():
    model = LegTailModel(1.2, 0.08, [0.3, -0.25], [-0.1, -0.25])
    q0 = model.double_contact_pose()
    q0[1] += 0.05
    cfg = StepperConfig(h=0.005, restitution=0.9, friction=FrictionConfig(0.5, (0, 1)))
    return model, q0, np.zeros(3), 0.5, cfg, None


def _billiards():
    model = BilliardsModel([1.0, 1.0, 9.0], [0.1, 0.1, 0.3])
    q0 = model.double_contact_configuration(1.2)
    q0[4] -= 0.02
    qdot0 = np.linalg.solve(model.mass_matrix(q0), model.cue_break_momentum(q0))
    return model, q0, qdot0, 0.2, StepperConfig(h=0.005), None


def _polar():
    return PolarSpring(), [0.95, 0.0], [0.1, 1.2], 0.5, StepperConfig(h=0.01), None


RUNS = {
    "lifted-ball": _lifted_ball,
    "cradle-R0": _cradle(0.0),
    "cradle-R0.5": _cradle(0.5),
    "cradle-R1": _cradle(1.0),
    "legtail-friction": _legtail_friction,
    "billiards-break": _billiards,
    "polar": _polar,
}


def _counted_run(build):
    calls = [0]
    solve = np.linalg.solve

    def counting(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    model, q0, qdot0, duration, cfg, forces = build()
    with mock.patch.object(np.linalg, "solve", counting):
        traj = simulate(model, q0, qdot0, duration, cfg, forces)
    return traj, calls[0]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_runs_match_lapack_oracle_bitwise(name):
    traj, calls = _counted_run(RUNS[name])
    with mock.patch.object(stepper, "_solve", _lapack):
        oracle, oracle_calls = _counted_run(RUNS[name])
    assert calls < oracle_calls  # the division path was taken
    assert _bits(traj.times) == _bits(oracle.times)
    assert _bits(traj.states) == _bits(oracle.states)
    assert _bits(traj.momenta) == _bits(oracle.momenta)
    assert repr(traj.events) == repr(oracle.events)
    assert repr(traj.holds) == repr(oracle.holds)
    if name == "lifted-ball":
        assert traj.holds and traj.events


# ---------------------------------------------------------------------------
# LAPACK calls left on the free-step path


class Oscillator(MechModel):
    """Mass on a linear spring, free of contacts."""

    dim = 1
    constant_mass = True

    def mass_matrix(self, q):
        return np.array([[1.7]])

    def potential_gradient(self, q):
        return np.array([4.0 * q[0]])

    def gaps(self, q):
        return np.zeros(0)

    def gap_gradients(self, q):
        return np.zeros((0, 1))


FREE = {
    # Each runs 100 steps without an impact.
    "oscillator": (Oscillator(), [1.0], [0.3]),
    "ball": (BallModel(1.3), [2.0], [0.5]),
    "cradle": (CradleModel([1.0, 0.7, 1.6], [0.1] * 3), [0.0, 0.5, 1.0], [-0.4, 0.3, 1.1]),
}


@pytest.mark.parametrize("name", sorted(FREE))
def test_free_run_makes_no_lapack_call(name):
    model, q0, qdot0 = FREE[name]
    with mock.patch.object(np.linalg, "solve", side_effect=AssertionError("LAPACK call")) as spy:
        traj = simulate(model, q0, qdot0, 100 * 0.001, StepperConfig(h=0.001))
    assert traj.times.size == 101 and not traj.events
    assert spy.call_count == 0


def test_held_ball_step_still_calls_lapack():
    # A plastic landing holds the contact: the bordered DEL system of the
    # held step is not diagonal.
    cfg = StepperConfig(h=0.01, restitution=0.0)
    with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as spy:
        traj = simulate(BallModel(1.0), [0.02], [0.0], 0.2, cfg)
    assert [ev.kind for ev in traj.events] == [ImpactKind.PLASTIC]
    assert {c for _, c, _ in traj.holds} == {0}
    assert spy.call_count >= 1


class CallerCountingMass(Oscillator):
    """An oscillator that counts the functions calling ``mass_matrix``."""

    def __init__(self):
        self.callers = Counter()

    def mass_matrix(self, q):
        self.callers[sys._getframe(1).f_code.co_name] += 1
        return super().mass_matrix(q)


def test_constant_mass_is_evaluated_once_for_the_velocity_solves():
    # The initial guesses take the mass factored by the simulation; only
    # the DEL momenta and Jacobian blocks evaluate the mass per step.
    model = CallerCountingMass()
    simulate(model, [1.0], [0.3], 100 * 0.01, StepperConfig(h=0.01))
    assert model.callers["__init__"] == 1
    assert model.callers["simulate"] == 1
    assert set(model.callers) == {"__init__", "simulate", "discrete_momenta", "_del_block"}


# ---------------------------------------------------------------------------
# Contact references checked by the library


def _cradle3():
    model = CradleModel([1.0, 1.0, 1.0], [0.1] * 3)
    q0 = model.touching_positions()
    q0[0] -= 0.02
    return model, q0, [1.0, 0.0, 0.0]


@pytest.mark.parametrize("restitution", [(1.0,), (1.0, 0.5, 0.5, 1.0)])
def test_simulate_rejects_restitution_of_wrong_length(restitution):
    # A short tuple used to raise IndexError at the first impact; a long
    # one ran.
    model, q0, qdot0 = _cradle3()
    with pytest.raises(ConfigError, match="restitution needs 2 entries"):
        simulate(model, q0, qdot0, 0.1, StepperConfig(h=0.005, restitution=restitution))


def test_simulate_rejects_friction_on_unknown_contact():
    # It used to run and never apply the friction.
    model = LegTailModel(1.2, 0.08, [0.3, -0.25], [-0.1, -0.25])
    q0 = model.double_contact_pose()
    q0[1] += 0.05
    cfg = StepperConfig(h=0.005, friction=FrictionConfig(0.5, (7,)))
    with pytest.raises(ConfigError, match=r"friction references unknown contacts \[7\]"):
        simulate(model, q0, np.zeros(3), 0.1, cfg)
