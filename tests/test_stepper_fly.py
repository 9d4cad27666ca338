"""Force-free stretches of a run flown in one loop, against advancing every step.

``simulate`` flies each stretch of force-free steps with nothing held in
``_Sim.fly``, and hands the step that crosses a contact, with its
flight, and every held step to ``_Sim.advance``. With ``fly`` patched to
fly no step and hand none, every step goes through ``advance``: the two
runs must be bitwise equal, and so must the errors they raise.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpact.errors import SimpactError, StepFailureError
from simpact.models import BallModel, CradleModel, LegTailModel
from simpact.stepper import StepperConfig, _Sim, simulate

from test_stepper import SHIPPED, GravityParticle, _free_flight_case


def _bits(a):
    return np.asarray(a).tobytes()


def _fly_nothing(self, k, n_steps, q, p, gaps, states, momenta):
    return k, q, p, gaps, None


def _run(run, loop):
    """The run's outcome, the stretches flown and the steps advanced, and its result.

    The outcome is the samples' bits with the events and holds, or the
    error raised with its attributes; the result is the trajectory or
    the error. A stretch that raised ends at None. ``loop=False``
    patches the loop off.
    """
    model, q0, qdot0, duration, cfg = run
    flown, advanced = [], []
    fly, advance = _Sim.fly, _Sim.advance

    def counted_fly(self, k, *args):
        flown.append((k, None))
        out = fly(self, k, *args)
        flown[-1] = (k, out[0])
        return out

    def counted_advance(self, q_c, t_c, *args):
        advanced.append(t_c)
        return advance(self, q_c, t_c, *args)

    with mock.patch.object(_Sim, "fly", counted_fly if loop else _fly_nothing), \
            mock.patch.object(_Sim, "advance", counted_advance):
        try:
            traj = simulate(model, q0, qdot0, duration, cfg)
        except SimpactError as exc:
            return (type(exc), str(exc), repr(vars(exc))), flown, advanced, exc
    outcome = tuple(_bits(getattr(traj, name)) for name in ("times", "states", "momenta"))
    return outcome + (repr(traj.events), repr(traj.holds)), flown, advanced, traj


def _flown_is_advanced(run):
    """The run with the loop, asserted bitwise equal to the run without it."""
    outcome, flown, advanced, result = _run(run, loop=True)
    stepwise, none_flown, every_step, _ = _run(run, loop=False)
    assert outcome == stepwise
    assert none_flown == []
    if not isinstance(result, SimpactError):
        assert sum(end - start for start, end in flown) + len(advanced) == len(every_step)
    return result, flown, advanced


# ---------------------------------------------------------------------------
# Runs


def _shipped(name):
    def build(u, r, h):
        model, q, p = _free_flight_case(name, u)
        qdot = p / np.diag(model.mass_matrix(q))
        return model, q, qdot, 40 * h, StepperConfig(h=h, restitution=r)

    return build


class AffineGravity(GravityParticle):
    """A contact-free particle under uniform gravity, declared affine."""

    affine_potential = True


def _gravity(u, r, h):
    return AffineGravity(9.81 * (1.0 + u[0])), [u[1]], [3.0 * u[2]], 40 * h, StepperConfig(h=h)


def _ball_drop(u, r, h):
    # Lands at about 0.45 s, after the last step of the shorter runs.
    model = BallModel(1.0 + 0.5 * u[0])
    return model, [1.0 + 0.1 * u[1]], [0.0], 60 * h, StepperConfig(h=h, restitution=r)


def _rocking_legtail(u, r, h):
    # At R = 0 each landing is plastic: its contacts are held, each
    # released when its multiplier turns negative as the body rocks,
    # and the body flies again when none is left held.
    model = LegTailModel(1.2, 0.08, [0.3, -0.25], [-0.1, -0.25])
    q = np.array([0.0, 2.36 + 0.1 * u[0], 0.114 + 0.05 * u[1]])
    qdot = np.array([-0.35 + 0.1 * u[2], 0.43, -0.25 + 0.1 * u[3]])
    return model, q, qdot, 2.0, StepperConfig(h=0.01, restitution=0.0)


def _overflow(u, r, h):
    # Ball 0 leaves at about -1e307 m/s: one of its 10 s steps after the
    # first overflows.
    model = CradleModel([1.0, 1.0], [0.1, 0.1])
    speed = (0.5 + 0.5 * abs(u[0])) * 1e307
    return model, model.touching_positions(1.0), [-speed, 0.0], 100.0, StepperConfig(h=10.0)


RUNS = {
    **{name: _shipped(name) for name in SHIPPED},
    "gravity": _gravity,
    "ball-drop": _ball_drop,
    "rocking-legtail": _rocking_legtail,
    "overflow": _overflow,
}

units = st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4)
restitutions = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@pytest.mark.parametrize("name", sorted(RUNS))
@settings(max_examples=50, deadline=None)
@given(u=units, r=restitutions, h=st.sampled_from([1e-3, 0.01, 0.05]))
def test_flown_runs_are_bitwise_the_advanced_runs(name, u, r, h):
    run = RUNS[name](u, r, h)
    result, flown, advanced = _flown_is_advanced(run)
    n_steps = int(round(run[3] / run[4].h))
    assert flown, "the loop flew no stretch"
    if name == "overflow":
        # Raised by the loop, at the start of a step after the first.
        assert isinstance(result, StepFailureError)
        assert str(result) == "free flight step is not finite"
        assert flown == [(0, None)] and not advanced
        assert result.t in [10.0 * k for k in range(1, n_steps)]
        assert result.contacts == ()
    elif name == "gravity" or (name == "ball-drop" and h < 0.01):
        # Contact-free, or ends before the landing: one stretch.
        assert flown == [(0, n_steps)] and not advanced


# ---------------------------------------------------------------------------
# Deterministic cases


def test_in_step_impact_is_advanced_between_two_stretches():
    model = CradleModel([1.0, 0.7, 1.6, 1.2], [0.1] * 4)
    q0 = model.touching_positions()
    q0[0] -= 0.05
    run = (model, q0, [1.2, 0.0, 0.0, 0.0], 0.3, StepperConfig(h=0.005))
    traj, flown, advanced = _flown_is_advanced(run)
    (k,) = [int(round(t / 0.005)) for t in advanced]
    assert flown == [(0, k), (k + 1, 60)]
    assert [int(ev.t / 0.005) for ev in traj.events] == [k]


def test_plastic_hold_and_release_fly_again():
    traj, flown, advanced = _flown_is_advanced(_rocking_legtail([0.0] * 4, 0.0, 0.01))
    held = sorted({int(round(t / 0.01)) for t, _, _ in traj.holds})
    assert held and len(traj.events) >= 3
    # A stretch starts after the first held step: the contact released.
    assert any(start > held[0] for start, _ in flown)
