"""Oracle-free checks of the stepper: time reversal and the momentum map.

The midpoint discrete Lagrangian is symmetric, so its flow is
time-reversible, and an elastic reflection is an involution: an elastic
run whose events each take one contact, restarted from its end
configuration with the momentum reversed, retraces itself to its start.
A translation that moves no gap leaves the discrete Lagrangian and
every contact normal unchanged along it, so its momentum map, the
momentum's component along the translation, is the same at every node
of a run at any restitution (J. E. Marsden and M. West, Acta Numerica
10, 2001).

Each bound is a multiple of the default ``newton_tol`` (1e-10), seven to
sixteen times the largest departure measured over the same domains (the
243 corners of the first five inputs at -1, 0 and 1 and 500 random
points): for the reversal 2.4e-11 (cradle), 2.6e-10 (ball) and 1.1e-9
(leg-tail); for the momentum maps 6.3e-11 (cradle), 2.7e-10 (billiards)
and 2.0e-10 (leg-tail), over all three restitutions.

Two known defects are left out of the random runs and pinned by the
strict xfail tests at the end: a run whose step fails (ROADMAP items 1
and 7), and a run with an event so near a node that the substep beside
it forms its node momentum from positions differenced over a small
fraction of the step.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simpact.errors import ImpactLocationError, StepFailureError
from simpact.models import BallModel, BilliardsModel, CradleModel, LegTailModel
from simpact.stepper import StepperConfig, simulate

H = 0.01

units = st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=8, max_size=8)


def _cradle(u):
    n = 3 if u[0] < 0.0 else 4
    masses = [1.0 + 0.5 * u[1], 0.7 + 0.3 * u[2], 1.4 + 0.4 * u[3], 1.0 + 0.5 * u[4]][:n]
    model = CradleModel(masses, [0.1] * n)
    q = model.touching_positions(0.05 + 0.04 * u[5])
    qdot = [1.0 + 0.5 * u[6], 0.3 * u[7], -0.8 + 0.4 * u[1] * u[2], -0.5 + 0.3 * u[3] * u[4]]
    return model, q, np.array(qdot[:n]), 1.0


def _ball(u):
    return BallModel(1.0 + 0.5 * u[0]), np.array([0.5 + 0.3 * u[1]]), np.array([2.0 * u[2]]), 1.0


def _legtail(u):
    # A tilted drop, turning at up to 1 rad/s.
    model = LegTailModel(1.2, 0.08, [0.3, -0.25], [-0.1, -0.25])
    q = model.double_contact_pose() + np.array([0.0, 0.15 + 0.05 * u[0], 0.2 * u[1]])
    return model, q, np.array([0.3 * u[2], -0.3 + 0.2 * u[3], u[4]]), 0.6


def _billiards(u):
    # The cue behind the break position, aimed near the bisector.
    model = BilliardsModel([1.0 + 0.3 * u[0], 1.0 + 0.3 * u[1], 1.0], [0.1, 0.1, 0.1])
    lowest = model.min_break_angle()
    q = model.double_contact_configuration(lowest + (math.pi - lowest) * (0.5 + 0.4 * u[2]))
    q[4] -= 0.05 + 0.03 * u[3]
    q[5] += 0.002 * u[4]
    qdot = np.zeros(6)
    qdot[4], qdot[5] = 1.0 + 0.3 * u[5], 0.2 * u[6]
    return model, q, qdot, 0.5


CASES = {"cradle": _cradle, "ball": _ball, "legtail": _legtail, "billiards": _billiards}


#: An event within this fraction of a step of a node, but not on it,
#: leaves a substep whose node momentum rounds by about eps |q| M / h_sub.
SHORT_SUBSTEP = 1e-3


def _run(name, u, restitution):
    """The run of case ``name`` at ``u``, if it is an example here.

    A run whose step fails has no trajectory to check, and one with an
    event near a node carries the rounding of its short substep.
    """
    model, q0, qdot0, duration = CASES[name](u)
    cfg = StepperConfig(h=H, restitution=restitution)
    try:
        traj = simulate(model, q0, qdot0, duration, cfg)
    except (ImpactLocationError, StepFailureError):
        assume(False)
    for ev in traj.events:
        fraction = ev.t / H % 1.0
        substep = min(fraction, 1.0 - fraction)
        assume(substep <= 1e-9 or substep >= SHORT_SUBSTEP)
    return model, q0, duration, cfg, traj


REVERSAL_BOUND = {"cradle": 2.0, "ball": 20.0, "legtail": 100.0}


@pytest.mark.parametrize("name", sorted(REVERSAL_BOUND))
@settings(max_examples=20, deadline=None)
@given(u=units)
def test_elastic_single_contact_run_retraces_itself(name, u):
    model, q0, duration, cfg, forward = _run(name, u, 1.0)
    assume(forward.events and not forward.holds)
    assume(all(len(ev.contacts) == 1 and ev.forced is None for ev in forward.events))
    q_end, p_end = forward.states[-1], forward.momenta[-1]
    qdot_back = np.linalg.solve(model.mass_matrix(q_end), -p_end)
    back = simulate(model, q_end, qdot_back, duration, cfg)
    assert len(back.events) == len(forward.events)
    assert np.abs(back.states[-1] - q0).max() <= REVERSAL_BOUND[name] * cfg.newton_tol


def _momentum_map(name, momenta):
    """Each run node's momentum along the translations that move no gap."""
    if name == "cradle":
        return momenta.sum(axis=1, keepdims=True)
    if name == "billiards":
        return np.stack([momenta[:, 0::2].sum(axis=1), momenta[:, 1::2].sum(axis=1)], axis=1)
    return momenta[:, :1]  # the leg-tail's horizontal momentum


MOMENTUM_BOUND = {"cradle": 10.0, "billiards": 20.0, "legtail": 20.0}


@pytest.mark.parametrize("restitution", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("name", sorted(MOMENTUM_BOUND))
@settings(max_examples=15, deadline=None)
@given(u=units)
def test_momentum_map_is_conserved(name, restitution, u):
    _, _, _, cfg, traj = _run(name, u, restitution)
    momentum = _momentum_map(name, traj.momenta)
    assert np.abs(momentum - momentum[0]).max() <= MOMENTUM_BOUND[name] * cfg.newton_tol


# ---------------------------------------------------------------------------
# Known defects the random runs leave out


@pytest.mark.xfail(strict=True, raises=(AssertionError, StepFailureError),
                   reason="an event near a node leaves a substep whose node momentum "
                   "differences positions over about 1e-9 s")
@pytest.mark.parametrize(
    "name, restitution, u",
    [
        # The first impact falls 2.5e-10 s before the node at 0.05 s; the
        # total momentum moves by 5.1e-8 in that step.
        ("cradle", 0.5, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-8, 0.0]),
        # The plastic break falls 2.1e-9 s before the node at 0.05 s, and
        # the held substep after it raises StepFailureError.
        ("billiards", 0.0, [0.0] * 6 + [1.192092896e-07, 0.0]),
    ],
    ids=["cradle-momentum", "billiards-held-substep"],
)
def test_event_near_a_node_keeps_the_momentum_map(name, restitution, u):
    model, q0, qdot0, duration = CASES[name](u)
    cfg = StepperConfig(h=H, restitution=restitution)
    momentum = _momentum_map(name, simulate(model, q0, qdot0, duration, cfg).momenta)
    assert np.abs(momentum - momentum[0]).max() <= MOMENTUM_BOUND[name] * cfg.newton_tol
