"""Assembled Newton Jacobians of the stepper against central differences.

The free, held and locate solves hand ``_newton`` a residual and a
Jacobian assembled from model derivatives. A spy captures both at the
first Newton call; the Jacobian is then compared with central
differences of the residual around the initial guess. The same cases
check that a Jacobian kept across iterations and steps changes no
result beyond the Newton tolerance and is rebuilt when it stops
contracting.
"""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpact import stepper
from simpact.models import BallModel, BilliardsModel, CradleModel, LegTailModel, MechModel
from simpact.stepper import StepperConfig

from test_stepper import Oscillator, PolarSpring


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

    def spy(fun, x0, tol, jac, slot=None, floor=None):
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


def _locate_on_line(model, q, p, t0, t1, forces, cfg):
    """Locate from ``(q, p)`` toward a straight-line candidate.

    The candidate ends well past the earliest crossing. Every case starts
    with its gaps open, so the crossing contacts are those that end
    closed.
    """
    q_cand = q + 2.0 * H * np.linalg.solve(model.mass_matrix(q), p)
    gaps, gaps_cand = model.gaps(q), model.gaps(q_cand)
    crossing = np.flatnonzero(gaps_cand < 0.0).tolist()
    return stepper._locate(model, p, q, t0, q_cand, t1, forces, cfg, (), crossing, gaps,
                           gaps_cand)


def _run(mode, model, q, p, forces):
    cfg = StepperConfig(h=H)
    t0, t1 = T0, T0 + H
    if mode == "free":
        return lambda: stepper._solve_free(model, p, q, t0, t1, forces, cfg)
    if mode == "held":
        held = (model.gaps(q).size - 1,)
        return lambda: stepper._solve_held(model, p, q, t0, t1, forces, cfg, held)
    return lambda: _locate_on_line(model, q, p, t0, t1, forces, cfg)


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
    z = stepper._newton(fun, x, tol, jac)
    assert z[n] > T0
    assert np.linalg.norm(fun(z)) <= tol


# ---------------------------------------------------------------------------
# Kept Jacobians


@contextlib.contextmanager
def _counting_jacobians(counts):
    """Count every Newton Jacobian build in ``counts["jac"]``.

    Every build is ``_newton``'s, the float Jacobian of a one-coordinate
    free step (``_line_jacobian``) among them.
    """
    newton = stepper._newton

    def spy(fun, x0, tol, jac, **kwargs):
        def counted(x, r, f):
            counts["jac"] += 1
            return jac(x, r, f)

        return newton(fun, x0, tol, counted, **kwargs)

    with mock.patch.object(stepper, "_newton", spy):
        yield


def test_oscillator_keeps_one_jacobian_across_steps():
    # The DEL Jacobian of a linear spring is the same at every step, so a
    # kept one contracts to rounding and is never rebuilt; rebuilding it
    # at every step would make one build per step.
    counts = {"jac": 0}
    cfg = StepperConfig(h=2 * math.pi / 100, newton_tol=1e-14)
    with _counting_jacobians(counts):
        traj = stepper.simulate(Oscillator(), [1.0], [0.3], 1000 * cfg.h, cfg)
    assert traj.times.size == 1001
    assert 1 <= counts["jac"] <= 2


def test_variable_mass_refines_one_jacobian_by_secant_updates():
    # A variable mass's differenced Jacobian contracts by only about 4e-3
    # per step, short of KEEP_RATE, so a kept matrix would be rebuilt at
    # every step; its inverse refined by Broyden updates is built once.
    counts = {"jac": 0}
    cfg = StepperConfig(h=0.01)
    with _counting_jacobians(counts):
        traj = stepper.simulate(PolarSpring(), [0.95, 0.0], [0.1, 1.2], 50 * cfg.h, cfg)
    assert traj.times.size == 51
    assert 1 <= counts["jac"] <= 2


def _simulate_lifted_ball():
    """A ball at R = 0.3 lifted off the floor and let go once a period.

    It bounces to Zeno rest, is held, and is released again. The inputs
    are those of the seed-0 ``impacts`` cell ``ball R=0.3 T=0.8``.
    """
    amplitude, period = 45.47578251193748, 0.7897945392239372

    def lift(q, v, t):
        return np.array([amplitude * math.sin(math.pi * t / period) ** 8])

    cfg = StepperConfig(h=0.01, restitution=0.3)
    model = BallModel(1.8713261149790392)
    return stepper.simulate(model, [0.05338885252115035], [0.0], 3.0, cfg, lift)


def test_kept_jacobians_are_keyed_by_the_held_sets_of_full_steps():
    # Only a full-length step shares its held set's Jacobian; the substep
    # after an in-step impact keeps its own within the one solve.
    sims, calls = [], []

    class Recorded(stepper._Sim):
        def __init__(self, *args):
            super().__init__(*args)
            sims.append(self)

    def recorder(solve, held_of):
        def spy(model, p_in, q_curr, t_curr, t_next, forces, cfg, *args):
            full = round((t_next - t_curr) / cfg.h, 9) == 1
            calls.append((held_of(args), full))
            return solve(model, p_in, q_curr, t_curr, t_next, forces, cfg, *args)

        return spy

    with mock.patch.object(stepper, "_Sim", Recorded), \
            mock.patch.object(stepper, "_solve_free", recorder(stepper._solve_free, lambda a: ())), \
            mock.patch.object(stepper, "_solve_held", recorder(stepper._solve_held, lambda a: a[0])):
        traj = _simulate_lifted_ball()
    assert any(ev.forced == "zeno" for ev in traj.events) and traj.holds
    assert {full for _, full in calls} == {True, False}
    (sim,) = sims
    assert set(sim.kept) == {held for held, full in calls if full} == {(), (0,)}
    assert all(isinstance(slot, stepper._KeptJacobian) for slot in sim.kept.values())


@pytest.mark.parametrize("k", [3_276_801, 3_276_802])
def test_full_step_far_from_the_origin_shares_the_kept_jacobian(k):
    # From k = 3,276,802 on, (k + 1) h - k h at h = 0.01 differs from h by
    # more than 5e-10 h in rounding. The step still spans its whole
    # interval and shares the Jacobian kept for its held set.
    cfg = StepperConfig(h=0.01)
    sim = stepper._Sim(Oscillator(), cfg, None)
    sim.advance(np.array([1.0]), k * cfg.h, np.array([0.3]), (k + 1) * cfg.h, np.zeros(0))
    assert list(sim.kept) == [()]


def test_held_solve_with_nothing_held_forms_no_gap_row():
    # The free step of a contact model through the array path: the one
    # fixed-length assembly evaluates no gap and no gap gradient, and
    # returns no multiplier.
    model, q, p, forces = _legtail([0.3, -0.2, 0.5, 0.1], damped_drive)
    cfg = StepperConfig(h=H)
    with mock.patch.object(model, "gaps", wraps=model.gaps) as gaps, \
            mock.patch.object(model, "gap_gradients", wraps=model.gap_gradients) as grads:
        q_next, lams, p_out = stepper._solve_held(model, p, q, T0, T0 + H, forces, cfg, ())
    assert (gaps.call_count, grads.call_count) == (0, 0)
    assert lams == {}
    assert q_next.shape == p_out.shape == (3,)


def test_lifted_ball_keeps_its_free_step_jacobian_through_in_step_impacts():
    # A cache bounded by slot count would evict the free-step Jacobian
    # after enough in-step substeps and rebuild it once more.
    counts = {"jac": 0}
    with _counting_jacobians(counts):
        traj = _simulate_lifted_ball()
    assert traj.times.size == 301
    assert counts["jac"] == 65


@settings(max_examples=50, deadline=None)
@given(
    u=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=8, max_size=8),
)
def test_broyden_update_meets_secant_condition(u):
    inverse = np.array([[2.0 + u[0], u[1]], [u[2], 2.0 + u[3]]])
    dx, dr = np.array(u[4:6]), np.array(u[6:8])
    denom = dx @ inverse @ dr
    if abs(denom) < 1e-3:
        return
    updated = stepper._broyden(inverse, dx, dr)
    # The update maps the residual change to the step, and leaves every
    # direction orthogonal to dx^T H unchanged.
    assert np.allclose(updated @ dr, dx, atol=1e-9 / abs(denom))
    ortho = np.array([-(dx @ inverse)[1], (dx @ inverse)[0]])
    assert np.allclose(updated @ ortho, inverse @ ortho, atol=1e-9 / abs(denom))


def test_broyden_update_without_denominator_is_dropped():
    inverse = np.eye(2)
    assert stepper._broyden(inverse, np.array([1.0, 0.0]), np.array([0.0, 1.0])) is None
    assert stepper._broyden(inverse, np.array([1.0, 0.0]), np.array([np.nan, 0.0])) is None


def test_secant_slot_drops_inverse_that_does_not_lower_residual():
    model, q, p, forces = _breathing([0.3, -0.2, 0.5, 0.1])
    fun, x0, jac = _capture(_run("free", model, q, p, forces))
    x0 = x0 + 1e-3 * model.length_scale
    slot = stepper._KeptJacobian()
    slot.secant = True
    slot.inverse = -np.linalg.inv(jac(x0, fun(x0), fun))
    counts = {"jac": 0}

    def counted(x, r, f):
        counts["jac"] += 1
        return jac(x, r, f)

    cfg = StepperConfig(h=H)
    tol = cfg.newton_tol * max(1.0, float(np.abs(p).max()))
    x = stepper._newton(fun, x0, tol, counted, slot=slot)
    assert counts["jac"] == 1
    assert np.linalg.norm(fun(x)) <= tol
    assert slot.inverse is not None and slot.matrix is None
    slot.keep(np.eye(1), stepper._diagonal(np.eye(1)))
    assert slot.inverse is None


@pytest.mark.parametrize(
    "mass, stiffness, q0, qdot0, h",
    [(1.3, 4.0, 1.0, 0.3, 0.01), (0.7, 9.0, -2.0, 1.1, 0.01), (2.5, 0.5, 3.0, -0.4, 0.02)],
)
def test_tolerance_below_rounding_floor_completes(mass, stiffness, q0, qdot0, h):
    # At newton_tol 1e-14 the residual p_in + p_minus stalls at the
    # rounding of its cancelling terms, slightly above the tolerance; the
    # step is accepted there instead of failing its line search.
    cfg = StepperConfig(h=h, newton_tol=1e-14)
    model = Oscillator(mass, stiffness)
    traj = stepper.simulate(model, [q0], [qdot0], 2000 * h, cfg)
    assert traj.times.size == 2001
    energy = 0.5 * traj.momenta[:, 0] ** 2 / mass + 0.5 * stiffness * traj.states[:, 0] ** 2
    assert np.ptp(energy) <= 1e-11 * energy[0]


@pytest.mark.parametrize(
    "corrupt",
    [lambda j: -j, lambda j: 1e3 * j, lambda j: np.zeros_like(j), lambda j: j + 5.0],
    ids=["negated", "scaled", "singular", "shifted"],
)
@pytest.mark.parametrize("case", sorted(CASES))
def test_corrupted_kept_jacobian_is_rebuilt(case, corrupt):
    model, q, p, forces = CASES[case]([0.3, -0.2, 0.5, 0.1])
    fun, x0, jac = _capture(_run("free", model, q, p, forces))
    # Start off the root: the free-flight guess of a potential-free
    # model already solves its DEL.
    x0 = x0 + 1e-3 * model.length_scale
    slot = stepper._KeptJacobian()
    bad = corrupt(jac(x0, fun(x0), fun))
    slot.keep(bad, stepper._diagonal(bad))
    counts = {"jac": 0}

    def counted(x, r, f):
        counts["jac"] += 1
        return jac(x, r, f)

    cfg = StepperConfig(h=H)
    tol = cfg.newton_tol * max(1.0, float(np.abs(p).max()))
    x = stepper._newton(fun, x0, tol, counted, slot=slot)
    assert counts["jac"] >= 1
    assert slot.matrix is not bad
    assert np.linalg.norm(fun(x)) <= tol


def _solve(mode, model, q, p, forces, k, slot):
    """Step ``k`` of a free or held chain, or one locate, from ``(q, p)``.

    ``slot`` is the Jacobian slot of the free and held solves, or None
    for a fresh one.
    """
    cfg = StepperConfig(h=H)
    t0, t1 = T0 + k * H, T0 + (k + 1) * H
    if mode == "free":
        return stepper._solve_free(model, p, q, t0, t1, forces, cfg, slot)
    if mode == "held":
        held = (model.gaps(q).size - 1,)
        q, lams, p = stepper._solve_held(model, p, q, t0, t1, forces, cfg, held, slot)
        return q, p, np.array(list(lams.values()))
    t_star, q_star, _, _ = _locate_on_line(model, q, p, t0, t1, forces, cfg)
    return q_star, p, np.array([t_star])


@pytest.mark.parametrize("mode", ["free", "held", "locate"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_kept_jacobian_solves_match_fresh_ones(case, mode):
    # Free and held solves share one slot over consecutive steps; each
    # step is repeated from the same state with a fresh Jacobian at every
    # iteration. Locate keeps its Jacobian within the one solve.
    model, q, p, forces = CASES[case]([0.3, -0.2, 0.5, 0.1])
    slot = stepper._KeptJacobian()
    tol = StepperConfig(h=H).newton_tol * max(1.0, float(np.abs(p).max()))
    for k in range(1 if mode == "locate" else 4):
        with mock.patch.object(stepper, "KEEP_RATE", 0.0):
            fresh = _solve(mode, model, q, p, forces, k, None)
        out = _solve(mode, model, q, p, forces, k, slot)
        for a, b in zip(out, fresh):
            assert np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b)))
        q, p = out[:2]
