"""The extrapolated Newton start of a variable mass's free steps.

A simulation of a configuration-dependent mass keeps the start
configurations of its full-length free steps taken one after another.
Once four are kept, the next such step starts Newton at the quartic
through the last five nodes extrapolated one step, instead of the
first-order guess ``q + h M(q)^-1 p``. An event clears the kept starts,
so no held step and no in-step substep serves as one. These tests count
the residual evaluations the start saves, spy on where it is taken, and
check that the runs still meet ``newton_tol``.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simpact import stepper
from simpact.errors import StepFailureError
from simpact.stepper import StepperConfig, simulate

from test_stepper import BreathingMass, PolarSpring
from test_stepper_jacobians import BreathingBall

CASES = {
    "polar": (PolarSpring(), [0.95, 0.0], [0.1, 1.2]),
    "breathing": (BreathingMass(), [0.2], [1.0]),
}


@pytest.mark.parametrize(
    "name, bound",
    # 4.02 and 3.02 evaluations per step with the first-order start.
    [("polar", 3.1), ("breathing", 2.2)],
)
def test_extrapolated_start_saves_residual_evaluations(name, bound):
    model, q0, qdot0 = CASES[name]
    cfg = StepperConfig(h=0.01)
    with mock.patch.object(stepper, "discrete_momenta", wraps=stepper.discrete_momenta) as evals:
        traj = simulate(model, q0, qdot0, 50 * cfg.h, cfg)
    assert traj.times.size == 51
    assert evals.call_count / 50 <= bound


@pytest.mark.parametrize("name", sorted(CASES))
def test_extrapolated_start_meets_newton_tol(name):
    # Each step still meets newton_tol. Over the 50 steps the states stay
    # within 0.4 (polar) and 2.0 (breathing) newton_tol of a run at 1e-14,
    # and the momenta within 2.0 and 17 of it; the first-order start gives
    # 0.03 and 0.8, and 0.3 and 7.7.
    model, q0, qdot0 = CASES[name]
    cfg = StepperConfig(h=0.01)
    traj = simulate(model, q0, qdot0, 50 * cfg.h, cfg)
    tight = simulate(model, q0, qdot0, 50 * cfg.h, StepperConfig(h=cfg.h, newton_tol=1e-14))
    assert np.abs(traj.states - tight.states).max() <= 10.0 * cfg.newton_tol
    assert np.abs(traj.momenta - tight.momenta).max() <= 50.0 * cfg.newton_tol


def _lifted_breathing_ball():
    """A breathing-mass ball lifted off its floor and let go every 0.6 s.

    It bounces, is forced plastic and held, and is released again: the
    run has events, held steps and in-step substeps between stretches of
    free steps.
    """

    def lift(q, v, t):
        return np.array([3.0 * math.sin(math.pi * t / 0.6) ** 8])

    cfg = StepperConfig(h=0.01, restitution=0.5)
    return simulate(BreathingBall(), [0.05], [0.0], 3.0, cfg, lift), cfg


def test_extrapolated_start_follows_four_full_free_steps_in_a_row():
    # Every _solve_held call and every logged event, in order.
    log = []
    solve_held, log_event = stepper._solve_held, stepper._Sim.log

    def spy(model, p_in, q_curr, t_curr, t_next, forces, cfg, held, slot=None, mass=None,
            start=None):
        kind = "held" if held else None if round((t_next - t_curr) / cfg.h, 9) == 1 else "substep"
        log.append((kind, t_curr, t_next, q_curr.copy(), start))
        return solve_held(model, p_in, q_curr, t_curr, t_next, forces, cfg, held, slot, mass,
                          start)

    def logged(self, event):
        log.append(("event",))
        return log_event(self, event)

    with mock.patch.object(stepper, "_solve_held", spy), \
            mock.patch.object(stepper._Sim, "log", logged):
        traj, cfg = _lifted_breathing_ball()
    assert traj.times.size == 301
    assert any(ev.forced == "zeno" for ev in traj.events) and traj.holds

    # The kind of the last entry that cleared the starts before each
    # extrapolated start; None at the run's start. An in-step event is
    # followed by its substep.
    started, cleared_by, last = 0, set(), None
    for i, entry in enumerate(log):
        if entry[0] is not None:
            last = entry[0]
        if entry[0] == "event":
            continue
        row = log[max(i - 4, 0) : i + 1]
        in_a_row = len(row) == 5 and all(e[0] is None for e in row) and all(
            a[2] == b[1] for a, b in zip(row, row[1:])
        )
        if not in_a_row:
            assert entry[4] is None
            continue
        q = [e[3] for e in row]
        expected = 5.0 * q[4] - 10.0 * q[3] + 10.0 * q[2] - 5.0 * q[1] + q[0]
        assert entry[4].tobytes() == expected.tobytes()
        started += 1
        cleared_by.add(last)
    assert started > 100 and cleared_by == {None, "held", "substep"}


@settings(max_examples=40, deadline=None)
@given(
    stiffness=st.floats(min_value=5.0, max_value=400.0),
    h=st.sampled_from([0.005, 0.01, 0.02, 0.05, 0.1]),
    r=st.floats(min_value=0.9, max_value=1.1),
    omega=st.floats(min_value=0.5, max_value=1.5),
)
def test_no_run_that_completes_from_the_first_order_start_fails(stiffness, h, r, omega):
    # Up to omega h = 1.75. Over 400 random draws of the same domain
    # neither start failed a run.
    class Stiff(PolarSpring):
        def potential_gradient(self, q):
            return np.array([stiffness * (float(q[0]) - 0.9), 0.0])

    def run():
        return simulate(Stiff(), [0.9 * r, 0.0], [0.0, omega], 50 * h, StepperConfig(h=h))

    # Every free step from q + h M(q)^-1 p.
    with mock.patch.object(stepper._Sim, "free_start", lambda self, q_c: None):
        try:
            run()
        except StepFailureError:
            assume(False)
    assert run().times.size == 51
