"""Force-free held steps of linear gaps in closed form, against the Newton solve.

A held step of a constant diagonal mass, an affine potential and linear
gaps ``G q + c`` with no force is the flight projected onto the held
manifold (``stepper._solve_held_flight``). Its multipliers and
configuration must be a converged answer of the bordered Newton solve
``stepper._solve_held`` and agree with it, make the same release
decisions, and pin the held gaps to rounding.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simpact import stepper
from simpact.errors import StepFailureError
from simpact.models import BallModel, CradleModel
from simpact.resolution import ImpactKind
from simpact.stepper import (
    StepperConfig,
    _affine_rows,
    _held_system,
    _Sim,
    _solve_held,
    _solve_held_flight,
    node_momentum,
    simulate,
)

EPS = np.finfo(float).eps


def _kkt(model, q_c, p_in, h, held, held_q, lam, p_scale):
    """The bordered DEL residual of ``_solve_held`` at ``(held_q, lam)``, and its matrix."""
    grads = model.gap_gradients(q_c)[list(held)]
    gap_scale = p_scale / model.length_scale
    mass = model.mass_matrix(q_c)
    p_minus = -mass @ ((held_q - q_c) / h) - 0.5 * h * model.potential_gradient(q_c)
    r = np.concatenate([p_in + lam @ grads + p_minus, model.gaps(held_q)[list(held)] * gap_scale])
    k = len(held)
    jac = np.block([[-mass / h, grads.T], [grads * gap_scale, np.zeros((k, k))]])
    return r, jac


def _both(model, q_c, p_in, h, held, cfg):
    """The closed-form and the Newton held step of ``held``, as arrays."""
    sim = _Sim(model, cfg, None)
    system = _held_system(sim.gap_rows, sim.flight[1], held)
    q_f, lam_f, p_f = _solve_held_flight(q_c.tolist(), p_in.tolist(), h, *sim.flight, system)
    q_n, lams, p_n = _solve_held(model, p_in, q_c, 0.0, h, None, cfg, held)
    lam_n = [lams[c] for c in held]
    return (np.array(q_f), np.array(lam_f), np.array(p_f)), (q_n, np.array(lam_n), p_n)


def _check_release_loop(model, q_c, p_in, h, held, cfg):
    """Run the release loop on both kernels side by side; returns the held set kept."""
    p_scale = max(1.0, float(np.abs(p_in).max()))
    tol = cfg.newton_tol * p_scale
    held = tuple(held)
    while held:
        (q_f, lam_f, p_f), (q_n, lam_n, _) = _both(model, q_c, p_in, h, held, cfg)
        # The closed form is a converged answer of the Newton solve, and
        # the two differ by at most the inverse bordered matrix times the
        # sum of their residuals, each within newton_tol.
        r_f, jac = _kkt(model, q_c, p_in, h, held, q_f, lam_f, p_scale)
        assert np.linalg.norm(r_f) <= tol
        bound = 2.0 * tol * np.linalg.norm(np.linalg.inv(jac), 2)
        assert np.linalg.norm(np.concatenate([q_f - q_n, lam_f - lam_n])) <= bound
        # The node momentum is bitwise that of the step's end points.
        assert p_f.tobytes() == node_momentum(model, q_c, 0.0, q_f, h).tobytes()
        # Held gaps are pinned to rounding: a few ulp of the positions,
        # which are within a few length scales of the origin.
        gaps = model.gaps(q_f)[list(held)]
        assert np.abs(gaps).max() <= 4.0 * EPS * max(model.length_scale, np.abs(q_f).max())
        # A multiplier within the bound of zero is decided by rounding.
        assume(np.abs(lam_n).min() > bound)
        negative = [c for c, a, b in zip(held, lam_f, lam_n) if (a < 0.0) != (b < 0.0)]
        assert not negative, "the kernels release different contacts"
        released = {c for c, lam in zip(held, lam_f) if lam < 0.0}
        if not released:
            break
        held = tuple(c for c in held if c not in released)
    return held


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 5),
    data=st.data(),
    h=st.sampled_from([1e-3, 0.005, 0.01]),
)
def test_held_cradle_closed_form_matches_newton(n, data, h):
    masses = data.draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    p_in = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    mask = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    held = tuple(i for i, m in enumerate(mask) if m) or (0,)
    model = CradleModel(masses, [0.1] * n)
    q_c = model.touching_positions()
    q_c -= q_c.mean()
    cfg = StepperConfig(h=h, restitution=0.0)
    kept = _check_release_loop(model, q_c, p_in, h, held, cfg)
    # Through the simulation's release loop: the same held set and, to
    # within the Newton tolerance, the same step.
    closed, newton = _Sim(model, cfg, None), _Sim(model, cfg, None)
    newton.held_systems = None
    for sim in (closed, newton):
        sim.held = dict.fromkeys(held, 0.0)
    q_f, _ = closed.solve_interval(q_c, 0.0, p_in, h, None, True)
    q_n, _ = newton.solve_interval(q_c, 0.0, p_in, h, None, True)
    assert tuple(sorted(closed.held)) == tuple(sorted(newton.held)) == kept
    assert np.abs(q_f - q_n).max() <= 1e-9 * model.length_scale
    assert [c for _, c, _ in closed.holds] == [c for _, c, _ in newton.holds] == list(kept)


@settings(max_examples=100, deadline=None)
@given(
    mass=st.floats(0.5, 2.0),
    p=st.floats(-1.0, 1.0),
    radius=st.sampled_from([0.0, 0.05, 1.5]),
    h=st.sampled_from([1e-3, 0.01]),
)
def test_resting_ball_closed_form_matches_newton(mass, p, radius, h):
    # At rest on the floor with an upward momentum it releases; with a
    # downward or small one gravity keeps it held.
    model = BallModel(mass, radius=radius)
    cfg = StepperConfig(h=h, restitution=0.0)
    q_c, p_in = np.array([radius]), np.array([p])
    kept = _check_release_loop(model, q_c, p_in, h, (0,), cfg)
    assert kept == ((0,) if p < 0.5 * mass * 9.81 * h else ())


def test_force_free_held_steps_take_no_newton_solve():
    # A plastic cradle: every held step is the closed form. Under a zero
    # force sampler the same run holds through _solve_held, to the
    # Newton tolerance.
    model = CradleModel([1.0, 0.7, 1.6], [0.1] * 3)
    q0 = model.touching_positions()
    q0[0] -= 0.05
    cfg = StepperConfig(h=0.005, restitution=0.0)
    with mock.patch.object(stepper, "_solve_held", wraps=_solve_held) as newton:
        traj = simulate(model, q0, [1.2, 0.0, 0.0], 0.3, cfg)
        assert newton.call_count == 0
        forced = simulate(model, q0, [1.2, 0.0, 0.0], 0.3, cfg, forces=lambda q, v, t: np.zeros(3))
        assert newton.call_count > 0
    assert traj.holds and traj.events[0].kind is ImpactKind.PLASTIC
    assert np.abs(traj.states - forced.states).max() <= 1e-9 * model.length_scale


@pytest.mark.parametrize("scale, mass", [(1.0, 1.0), (1.7, 0.7)])
def test_held_failure_names_step_start_and_contacts(scale, mass):
    # One floor twice, the second gap scaled: both held, their normals
    # are dependent. At scale 1.7 and mass 0.7 the last pivot is the
    # rounding +1.8e-15, not zero.
    class TwoFloors(BallModel):
        def gaps(self, q):
            g = float(q[0]) - self.radius
            return np.array([g, scale * g])

        def gap_gradients(self, q):
            return np.array([[1.0], [scale]])

    model = TwoFloors(mass)
    sim = _Sim(model, StepperConfig(h=0.01, restitution=0.0), None)
    sim.held = {0: 0.0, 1: 0.0}
    with pytest.raises(StepFailureError, match="singular held-contact system") as err:
        sim.solve_interval(np.array([0.0]), 0.25, np.array([-1.0]), 0.26, None, True)
    assert err.value.t == 0.25 and err.value.contacts == (0, 1)


@pytest.mark.parametrize("model", [
    CradleModel([1.0, 0.7, 1.6, 1.2], [0.1, 0.2, 0.15, 0.1]),
    BallModel(1.0, 9.81, 0.3),
    BallModel(1.0),
], ids=["cradle", "ball", "point-ball"])
def test_affine_gaps_are_the_shipped_gaps_bitwise(rng, model):
    zeros = np.zeros(model.dim)
    rows = _affine_rows(model.gap_gradients(zeros), model.gaps(zeros))
    samples = [np.array(q) for q in itertools.product([0.0, -0.0], repeat=model.dim)]
    samples += list(10.0 ** rng.integers(-3, 4, (200, 1)) * rng.standard_normal((200, model.dim)))
    for q in samples:
        got = stepper._affine_gaps(q.tolist(), rows)
        assert np.array(got).tobytes() == model.gaps(q).tobytes(), q


def test_held_momentum_reads_a_zero_product_as_the_matrix_product():
    # As in the free flight: a zero velocity times a negative mass entry
    # is -0.0, and so is the zero force's half impulse, where the matrix
    # product of node_momentum accumulates onto +0.0.
    rows = [(-1.0, ((1, 1.0),))]
    diag, force = [-1.0, 2.0], [-0.0, -0.0]
    system = _held_system(rows, diag, (0,))
    q_n, lam, p_out = _solve_held_flight([0.5, 1.0], [-0.0, 0.0], 0.01, force, diag, system)
    assert q_n == [0.5, 1.0] and lam == [0.0]
    assert np.array(p_out).tobytes() == np.zeros(2).tobytes()
