"""Variational stepper: discrete mechanics, impacts, Zeno, friction."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from simpact import resolution, stepper
from simpact.errors import (
    ConfigError,
    ImpactLocationError,
    SimpactError,
    StepFailureError,
    VerificationError,
)
from simpact.models import (
    BallModel,
    BilliardsModel,
    CradleModel,
    LegTailModel,
    MechModel,
    validate_model,
)
from simpact.resolution import CascadePolicy, ImpactKind
from simpact.stepper import (
    FrictionConfig,
    ImpactEvent,
    StepperConfig,
    Trajectory,
    _locate,
    _newton,
    _solve_free,
    _Sim,
    discrete_momenta,
    friction_force,
    node_momentum,
    simulate,
    zeno_guard,
)


# ---------------------------------------------------------------------------
# Contact-free test systems, shared with the other stepper test modules


class FreeParticle(MechModel):
    dim = 1
    constant_mass = True

    def mass_matrix(self, q):
        return np.eye(1)

    def gaps(self, q):
        return np.zeros(0)

    def gap_gradients(self, q):
        return np.zeros((0, 1))


class GravityParticle(FreeParticle):
    def __init__(self, g=9.81):
        self.g = g

    def potential(self, q):
        return self.g * q[0]

    def potential_gradient(self, q):
        return np.array([self.g])


class Oscillator(FreeParticle):
    """Mass on a linear spring: V = k q^2 / 2."""

    def __init__(self, mass=1.0, stiffness=1.0):
        self.m, self.k = mass, stiffness

    def mass_matrix(self, q):
        return np.array([[self.m]])

    def potential(self, q):
        return 0.5 * self.k * q[0] ** 2

    def potential_gradient(self, q):
        return np.array([self.k * q[0]])


class Pendulum(FreeParticle):
    def potential(self, q):
        return -9.81 * math.cos(q[0])

    def potential_gradient(self, q):
        return np.array([9.81 * math.sin(q[0])])


class CoupledGravityPoint(MechModel):
    """A planar point with a constant, non-diagonal mass under uniform gravity."""

    dim = 2
    constant_mass = True
    affine_potential = True

    def mass_matrix(self, q):
        return np.array([[2.0, 0.5], [0.5, 1.0]])

    def potential(self, q):
        return 9.81 * q[1]

    def potential_gradient(self, q):
        return np.array([0.0, 9.81])

    def gaps(self, q):
        return np.zeros(0)

    def gap_gradients(self, q):
        return np.zeros((0, 2))


class BreathingMass(MechModel):
    """Configuration-dependent mass, for the momenta cross-check."""

    dim = 1
    constant_mass = False

    def mass_matrix(self, q):
        return np.array([[2.0 + math.sin(q[0])]])

    def potential(self, q):
        return 0.3 * q[0] ** 2

    def potential_gradient(self, q):
        return np.array([0.6 * q[0]])

    def gaps(self, q):
        return np.zeros(0)

    def gap_gradients(self, q):
        return np.zeros((0, 1))


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


# ---------------------------------------------------------------------------
# Contact models


class Slider(MechModel):
    """Planar block on a floor; pushes are passed as applied forces."""

    dim = 2
    constant_mass = True

    def __init__(self, mass=2.0):
        self.m = mass

    def mass_matrix(self, q):
        return np.diag([self.m, self.m])

    def potential(self, q):
        return self.m * 9.81 * q[1]

    def potential_gradient(self, q):
        return np.array([0.0, self.m * 9.81])

    def gaps(self, q):
        return np.array([q[1]])

    def gap_gradients(self, q):
        return np.array([[0.0, 1.0]])

    def gap_tangents(self, q):
        return np.array([[1.0, 0.0]])


class LoadedContact(MechModel):
    """A closed contact under a coupled mass, a tilted tangent and a load."""

    constant_mass = True

    def __init__(self, mass, tangent, load):
        self.dim = len(tangent)
        self._mass, self._tangent, self._load = mass, tangent, load

    def mass_matrix(self, q):
        return self._mass

    def potential_gradient(self, q):
        return self._load

    def gaps(self, q):
        return np.zeros(1)

    def gap_tangents(self, q):
        return self._tangent[None, :]


def discrete_lagrangian(model: MechModel, q_a, t_a: float, q_b, t_b: float) -> float:
    """Midpoint-quadrature approximation of the action over one interval.

    The oracle of :func:`discrete_momenta`, whose momenta are its
    endpoint partial derivatives.
    """
    h = t_b - t_a
    if h <= 0.0:
        raise ValueError("interval must have positive duration")
    q_a = np.asarray(q_a, dtype=float)
    q_b = np.asarray(q_b, dtype=float)
    qm = 0.5 * (q_a + q_b)
    v = (q_b - q_a) / h
    return h * model.lagrangian(qm, v)


class TestDiscreteLagrangian:
    def test_free_particle(self):
        model = FreeParticle()
        assert discrete_lagrangian(model, [0.0], 0.0, [1.0], 1.0) == pytest.approx(0.5)

    def test_constant_potential_contribution(self):
        class Shifted(FreeParticle):
            def potential(self, q):
                return 2.5

        value = discrete_lagrangian(Shifted(), [1.0], 0.0, [1.0], 0.3)
        assert value == pytest.approx(-0.3 * 2.5)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            discrete_lagrangian(FreeParticle(), [0.0], 1.0, [1.0], 1.0)

    def test_pendulum_quadrature_order(self):
        # Midpoint quadrature of the action along the linear path is
        # third-order accurate per interval versus adaptive quadrature.
        model = Pendulum()
        q_a, v0 = 0.4, 2.5

        def exact(h):
            q_b = q_a + h * v0
            val, _ = quad(
                lambda s: model.lagrangian(
                    np.array([q_a + s * (q_b - q_a)]), np.array([v0])
                ),
                0.0,
                1.0,
                epsabs=1e-14,
                epsrel=1e-13,
            )
            return val * h

        errors = []
        for h in (0.2, 0.1, 0.05):
            approx = discrete_lagrangian(model, [q_a], 0.0, [q_a + h * v0], h)
            errors.append(abs(approx - exact(h)))
        assert errors[0] / errors[1] == pytest.approx(8.0, rel=0.35)
        assert errors[1] / errors[2] == pytest.approx(8.0, rel=0.35)


class TestDiscreteMomenta:
    def test_free_particle(self):
        fm, fp = discrete_momenta(FreeParticle(), [0.0], 0.0, [1.0], 1.0)
        np.testing.assert_allclose(fm, [-1.0])
        np.testing.assert_allclose(fp, [1.0])

    def test_stationary_no_potential(self):
        fm, fp = discrete_momenta(FreeParticle(), [0.7], 0.0, [0.7], 0.1)
        np.testing.assert_allclose(fm, [0.0], atol=1e-15)
        np.testing.assert_allclose(fp, [0.0], atol=1e-15)

    def test_gravity_forward_formula(self):
        g, h = 9.81, 0.05
        q_a, q_b = 0.3, 0.42
        _, fp = discrete_momenta(GravityParticle(g), [q_a], 0.0, [q_b], h)
        assert fp[0] == pytest.approx((q_b - q_a) / h - g * h / 2, rel=1e-14)

    @pytest.mark.parametrize(
        "model", [GravityParticle(), Oscillator(stiffness=3.0), BreathingMass()]
    )
    def test_matches_finite_differences(self, model, rng):
        # The analytic momenta are the endpoint partial derivatives of
        # the discrete Lagrangian.
        for _ in range(350):
            q_a = rng.standard_normal(1)
            q_b = q_a + rng.standard_normal(1) * 0.5
            h = rng.uniform(0.01, 0.2)
            fm, fp = discrete_momenta(model, q_a, 0.0, q_b, h)
            eps = 1e-6

            def ld(a, b):
                return discrete_lagrangian(model, a, 0.0, b, h)

            fd_minus = (ld(q_a + eps, q_b) - ld(q_a - eps, q_b)) / (2 * eps)
            fd_plus = (ld(q_a, q_b + eps) - ld(q_a, q_b - eps)) / (2 * eps)
            tol = max(1e-7, 1e-5 * abs(fd_minus))
            assert abs(fm[0] - fd_minus) <= tol
            tol = max(1e-7, 1e-5 * abs(fd_plus))
            assert abs(fp[0] - fd_plus) <= tol


class TestDelStep:
    # Each step solves the DEL from the node momentum of the previous
    # configuration pair, as ``_Sim.advance`` does between impacts.

    def test_free_particle_extrapolates(self):
        model = FreeParticle()
        p_in = node_momentum(model, [0.1], 0.0, [0.3], 0.1)
        q, _ = _solve_free(model, p_in, np.array([0.3]), 0.1, 0.2, None, StepperConfig(h=0.1))
        assert q[0] == pytest.approx(0.5, abs=1e-12)

    def test_gravity_closed_form(self):
        g, h = 9.81, 0.02
        model = GravityParticle(g)
        q_prev, q_curr = 0.0, 0.05
        p_in = node_momentum(model, [q_prev], 0.0, [q_curr], h)
        q, _ = _solve_free(model, p_in, np.array([q_curr]), h, 2 * h, None, StepperConfig(h=h))
        expected = 2 * q_curr - q_prev - g * h * h
        assert q[0] == pytest.approx(expected, abs=1e-12)

    def test_oscillator_energy_band(self):
        # The midpoint DEL keeps the oscillator energy in a tight band
        # with no trend; quadratic invariants are preserved essentially
        # exactly, far inside the required two percent.
        model = Oscillator()
        period = 2 * math.pi
        cfg = StepperConfig(h=period / 100)
        traj = simulate(model, [1.0], [0.0], 100 * period, cfg)
        energy = 0.5 * traj.momenta[:, 0] ** 2 + 0.5 * traj.states[:, 0] ** 2
        band = (energy.max() - energy.min()) / energy[0]
        assert band < 0.02

    def test_reversal_recovers_initial_pair(self):
        model = Pendulum()
        h, n = 0.01, 400
        cfg = StepperConfig(h=h)
        seq = [np.array([0.3]), np.array([0.312])]
        t = 0.0
        for _ in range(n):
            p_in = node_momentum(model, seq[-2], t, seq[-1], t + h)
            seq.append(_solve_free(model, p_in, seq[-1], t + h, t + 2 * h, None, cfg)[0])
            t += h
        back = [seq[-1], seq[-2]]
        t = 0.0
        for _ in range(n):
            p_in = node_momentum(model, back[-2], t, back[-1], t + h)
            back.append(_solve_free(model, p_in, back[-1], t + h, t + 2 * h, None, cfg)[0])
            t += h
        assert abs(back[-1][0] - seq[0][0]) < 1e-8
        assert abs(back[-2][0] - seq[1][0]) < 1e-8

    def test_newton_failure_reports_residual(self):
        # The sign kink makes the DEL residual jump over zero: no root.
        class Kink(FreeParticle):
            def potential_gradient(self, q):
                return np.array([10.0 * math.copysign(1.0, q[0])])

            def potential(self, q):
                return 10.0 * abs(q[0])

        model = Kink()
        p_in = node_momentum(model, [0.55], 0.0, [0.2], 0.1)
        with pytest.raises(StepFailureError) as err:
            _solve_free(model, p_in, np.array([0.2]), 0.1, 0.2, None, StepperConfig(h=0.1))
        assert err.value.residual_norm is not None

    def test_newton_stops_at_the_iteration_cap(self):
        # Newton on x**3 keeps only two thirds of x per step, so the
        # residual never reaches the tolerance.
        with pytest.raises(StepFailureError, match="implicit step did not converge") as err:
            _newton(lambda x: x**3, [1.0], 1e-60, lambda x, r, fun: np.diag(3.0 * x**2))
        assert err.value.iterations == stepper.NEWTON_MAX_ITER == 60

    def test_huge_kink_has_floating_point_root(self):
        # With a 1e30 sign gradient the kinetic terms vanish in rounding
        # far from the kink, so the DEL residual has an exact zero there.
        class Nasty(FreeParticle):
            def potential_gradient(self, q):
                return np.array([1e30 * math.copysign(1.0, q[0])])

            def potential(self, q):
                return 1e30 * abs(q[0])

        model = Nasty()
        cfg = StepperConfig(h=0.1)
        p_in = node_momentum(model, [0.1], 0.0, [0.2], 0.1)
        q, _ = _solve_free(model, p_in, np.array([0.2]), 0.1, 0.2, None, cfg)
        fm, _ = discrete_momenta(model, [0.2], 0.1, q, 0.2)
        assert abs(p_in[0] + fm[0]) <= cfg.newton_tol * max(1.0, abs(p_in[0]))


def _free_flight_case(name, u):
    """A shipped model, a configuration and a momentum from ``u`` in [-1, 1]^4."""
    if name == "ball":
        return BallModel(1.3), np.array([0.5 + 0.4 * u[0]]), np.array([3.0 * u[1]])
    if name == "cradle":
        model = CradleModel([1.0 + 0.5 * u[0], 0.7, 1.4], [0.1, 0.15, 0.1])
        return model, model.touching_positions(0.3 * (1.0 + u[1])), np.array([u[2], -2.0, u[3]])
    if name == "billiards":
        model = BilliardsModel([1.0, 1.0, 9.0], [0.1, 0.1, 0.3])
        q = model.double_contact_configuration(1.2 + 0.3 * u[0]) + 0.1 * u[1]
        return model, q, np.array([u[2], -u[3], 0.5, u[0] * u[1], 3.0 * u[3], -1.0])
    model = LegTailModel(1.2, 0.08, [0.3, -0.25], [-0.1, -0.25])
    return model, np.array([u[0], 2.0 + u[1], 0.5 * u[2]]), np.array([u[3], -1.8 * u[0], 0.1])


SHIPPED = ("ball", "billiards", "cradle", "legtail")


def _count_newton(run):
    """``run()`` and the number of Newton solves it made.

    A solve is a ``_newton`` call, or a ``_solve_line`` call: the same
    iteration on Python floats for a one-coordinate free step.
    """
    calls = []

    def spy(solve):
        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        return counted

    with mock.patch.object(stepper, "_newton", spy(_newton)), \
            mock.patch.object(stepper, "_solve_line", spy(stepper._solve_line)):
        return run(), len(calls)


class TestFreeFlight:
    # A constant mass in an affine potential flies through force-free
    # free steps in closed form; Newton keeps every other solve.

    @pytest.mark.parametrize("name", SHIPPED)
    @settings(max_examples=25, deadline=None)
    @given(u=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4),
           h=st.sampled_from([1e-3, 0.01, 0.05]))
    def test_closed_form_matches_newton(self, name, u, h):
        model, q, p = _free_flight_case(name, u)
        cfg = StepperConfig(h=h)
        sim = _Sim(model, cfg, None)
        mass = sim.mass
        q_flight, p_flight = map(np.array, stepper._solve_flight(
            q.tolist(), p.tolist(), (0.3 + h) - 0.3, *sim.flight))
        # Given the mass, _solve_free would fly too: call the Newton solve.
        q_newton, _, p_newton = stepper._solve_held(model, p, q, 0.3, 0.3 + h, None, cfg, (),
                                                    None, mass)
        assert np.all(np.abs(q_flight - q_newton) <= cfg.newton_tol * np.maximum(1.0, np.abs(q)))
        assert np.all(np.abs(p_flight - p_newton) <= cfg.newton_tol * max(1.0, np.abs(p).max()))
        np.testing.assert_array_equal(
            p_flight, node_momentum(model, q, 0.3, q_flight, 0.3 + h)
        )

    def test_ball_drop_follows_the_parabola(self):
        # Midpoint flight under constant gravity is exact at the nodes, so
        # the landing is at sqrt(2 h0 / g) and the elastic rebound
        # retraces the fall.
        g = 9.81
        traj = simulate(BallModel(1.0, gravity=g), [1.0], [0.0], 1.0, StepperConfig(h=0.01))
        t_land = math.sqrt(2.0 / g)
        assert [ev.t for ev in traj.events] == [pytest.approx(t_land, rel=0, abs=1e-12)]
        s = traj.times - t_land
        parabola = np.where(s < 0.0, 1.0 - 0.5 * g * traj.times**2, g * t_land * s - 0.5 * g * s**2)
        np.testing.assert_allclose(traj.states[:, 0], parabola, rtol=0, atol=1e-11)
        assert traj.times[-1] == 1.0

    def test_high_drop_takes_no_newton_solve(self):
        # A ball at 1e6 m once took 31 residual evaluations per free step.
        traj, calls = _count_newton(
            lambda: simulate(BallModel(1.0), [1e6], [0.0], 100.0, StepperConfig(h=0.01))
        )
        assert traj.times.size == 10_001 and not traj.events
        assert calls == 0
        # Each node momentum differences positions near 1e6 m, whose
        # rounding leaves about 1e-3 m after 1e4 steps, as Newton's did.
        assert traj.states[-1, 0] == pytest.approx(1e6 - 0.5 * 9.81 * 100.0**2, rel=1e-8)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_models_fly_without_newton(self, name):
        # Every shipped model declares the trait: a force-free run that
        # meets no contact makes no Newton solve. A force sampler, even a
        # zero one, keeps every free step on Newton.
        model, q, _ = _free_flight_case(name, [0.0, 1.0, 0.0, 0.0])
        # Along the sum of the gap gradients every contact opens.
        qdot = model.gap_gradients(q).sum(axis=0)
        cfg = StepperConfig(h=0.01)
        for forces, expected in ((None, 0), (lambda q, v, t: np.zeros(model.dim), 30)):
            traj, calls = _count_newton(lambda: simulate(model, q, qdot, 0.3, cfg, forces))
            assert not traj.events
            assert calls == expected

    def test_non_diagonal_mass_takes_newton_and_follows_the_parabola(self):
        # Only a diagonal mass flies on floats; a coupled constant mass in
        # an affine potential takes the Newton free step, whose midpoint
        # DEL step is still exact uniformly accelerated flight.
        model = CoupledGravityPoint()
        q0, qdot0 = np.array([0.2, 1.0]), np.array([0.7, -0.3])
        cfg = StepperConfig(h=0.01)
        traj, calls = _count_newton(lambda: simulate(model, q0, qdot0, 1.0, cfg))
        assert traj.times.size == 101 and not traj.events
        assert calls > 0
        accel = np.linalg.solve(model.mass_matrix(q0), -model.potential_gradient(q0))
        t = traj.times[:, None]
        parabola = q0 + qdot0 * t + 0.5 * accel * t**2
        assert np.abs(traj.states - parabola).max() <= cfg.newton_tol * model.length_scale

    def test_overflowing_flight_is_a_step_failure(self):
        # Ball 0 leaves at -1e308 m/s: its first 10 s step overflows,
        # which the closed form reports as a failed step, not as samples.
        model = CradleModel([1.0, 1.0], [0.1, 0.1])
        q0 = model.touching_positions(1.0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(StepFailureError, match="free flight step is not finite") as err:
            simulate(model, q0, [-1e308, 0.0], 20.0, StepperConfig(h=10.0))
        assert err.value.t == 0.0
        assert err.value.contacts == ()

    def test_validate_model_rejects_a_pendulum_declared_affine(self):
        class AffinePendulum(Pendulum):
            affine_potential = True

        samples = [np.array([0.1 * k]) for k in range(5)]
        validate_model(Pendulum(), samples)
        with pytest.raises(VerificationError, match="declared affine"):
            validate_model(AffinePendulum(), samples)

    def test_validate_model_requires_constant_mass_for_affine_potential(self):
        class AffineBreathing(BreathingMass):
            affine_potential = True

        with pytest.raises(VerificationError, match="without a constant mass"):
            validate_model(AffineBreathing(), [np.zeros(1)])


class TestNodeMomentum:
    LANDING = LegTailModel(1.0, 0.1, (0.3, -0.2), (-0.3, -0.2), gravity=9.81)

    @pytest.mark.parametrize(
        "model, q0, qd0, restitution, kind",
        [
            (Pendulum(), [0.4], [0.0], 1.0, "free"),
            (BreathingMass(), [0.2], [1.0], 1.0, "free"),
            (BallModel(1.0), [0.05], [0.0], 0.5, "free"),
            (LANDING, [0.0, 0.25, 0.0], [0.0] * 3, 0.0, "held"),
        ],
        ids=["pendulum", "variable-mass", "ball", "legtail-landing"],
    )
    def test_step_momentum_is_node_momentum(self, model, q0, qd0, restitution, kind):
        # The momentum a step hands on is kept from the last residual
        # evaluation of its solve; it must be bit-for-bit the node
        # momentum of the step's end points.
        cfg = StepperConfig(h=0.01, restitution=restitution)
        traj = simulate(model, q0, qd0, 0.6, cfg)
        event_times = [ev.t for ev in traj.events]
        held_times = {t for t, _, _ in traj.holds}
        checked = {"free": 0, "held": 0}
        for k in range(1, traj.times.size):
            t_a, t_b = traj.times[k - 1], traj.times[k]
            if any(t_a <= t <= t_b for t in event_times):
                continue
            expected = node_momentum(model, traj.states[k - 1], t_a, traj.states[k], t_b)
            np.testing.assert_array_equal(traj.momenta[k], expected)
            checked["held" if t_b in held_times else "free"] += 1
        assert checked[kind] > 10


class TestLocateImpact:
    def test_linear_crossing_at_midpoint(self):
        # Force-free ball moving down at unit speed from half a step
        # above the floor: the crossing is exactly mid-interval.
        model = BallModel(1.0, gravity=0.0)
        h = 0.1
        q_prev, q_curr = np.array([0.15]), np.array([0.05])
        q_cand = np.array([-0.05])
        p_in = node_momentum(model, q_prev, 1.0 - h, q_curr, 1.0)
        t_star, q_star, contacts, _ = _locate(
            model, p_in, q_curr, 1.0, q_cand, 1.0 + h, None, StepperConfig(h=h), (), [0],
            model.gaps(q_curr), model.gaps(q_cand),
        )
        assert t_star == pytest.approx(1.0 + h / 2, rel=1e-9)
        assert abs(q_star[0]) < 1e-12
        assert contacts == (0,)

    def test_candidate_on_manifold_gives_interval_end(self):
        # A candidate exactly on the manifold does not cross by the
        # stepper's rule; passed as crossing, it locates at the step's end.
        model = BallModel(1.0, gravity=0.0)
        h = 0.1
        p_in = node_momentum(model, [0.2], -h, [0.1], 0.0)
        q_curr, q_cand = np.array([0.1]), np.array([0.0])
        t_star, q_star, _, _ = _locate(
            model, p_in, q_curr, 0.0, q_cand, h, None, StepperConfig(h=h), (), [0],
            model.gaps(q_curr), model.gaps(q_cand),
        )
        assert t_star == pytest.approx(h, abs=1e-9)
        assert abs(q_star[0]) < 1e-10

    def test_impact_within_tiny_fraction_of_step_end_ends_the_step(self):
        # A force-free ball reaches the floor 1e-12 s before the step's
        # end: the step ends at the impact with the reflected momentum.
        model = BallModel(1.0, gravity=0.0)
        h = 0.01
        sim = _Sim(model, StepperConfig(h=h), None)
        q0 = np.array([0.1])
        q_n, p_n, _ = sim.advance(q0, 0.0, np.array([-(0.1 + 1e-11) / h]), h, model.gaps(q0))
        assert [ev.kind for ev in sim.events] == [ImpactKind.ELASTIC]
        assert sim.events[0].t == pytest.approx(h - 1e-12, abs=1e-15)
        assert abs(q_n[0]) <= 1e-12
        assert p_n[0] == pytest.approx(10.0, rel=1e-9)

    def test_simultaneous_pair_grouped(self):
        # Symmetric two-point drop: both gaps cross in the same instant.
        body = LegTailModel(1.0, 0.1, (0.3, -0.2), (-0.3, -0.2))
        t, v = 0.14, 9.81 * 0.14
        q_curr = np.array([0.0, 0.3 - 0.5 * 9.81 * t * t, 0.0])
        h = 0.01
        qdot = np.array([0.0, -v, 0.0])
        q_prev = q_curr - h * qdot - np.array([0.0, 0.5 * 9.81 * h * h, 0.0])
        q_cand = q_curr + h * qdot - np.array([0.0, 0.5 * 9.81 * h * h, 0.0])
        p_in = node_momentum(body, q_prev, t - h, q_curr, t)
        t_star, q_star, contacts, _ = _locate(
            body, p_in, q_curr, t, q_cand, t + h, None, StepperConfig(h=h), (), [0, 1],
            body.gaps(q_curr), body.gaps(q_cand),
        )
        assert contacts == (0, 1)
        np.testing.assert_allclose(body.gaps(q_star), 0.0, atol=1e-10)

    def test_closed_contact_approached_at_node(self):
        # Both contacts are closed at the node; the body turns about
        # contact 1, so the momentum drives contact 0 into the floor and
        # is tangent to contact 1. The impact sits at the node itself and
        # takes in the resting contact too.
        body = LegTailModel(1.0, 0.1, (0.3, -0.2), (-0.3, -0.2), gravity=0.0)
        q_curr = body.double_contact_pose()
        qdot = np.array([0.0, -0.3, -1.0])
        h = 0.01
        q_cand = q_curr + h * qdot
        assert body.gaps(q_cand)[0] < 0.0 < body.gaps(q_cand)[1]
        sim = _Sim(body, StepperConfig(h=h), None)
        p_in = node_momentum(body, q_curr - h * qdot, 0.5 - h, q_curr, 0.5)
        sim.advance(q_curr, 0.5, p_in, 0.5 + h, body.gaps(q_curr))
        assert [(ev.t, ev.contacts) for ev in sim.events] == [(0.5, (0, 1))]

    @pytest.mark.parametrize("v", [2e-9, 5e-10])
    def test_separating_contact_inside_activation_band_does_not_cross(self, v):
        # Ball 1 starts 5e-11 inside contact 0 and moves slowly away: the
        # gap opens during the step, so nothing crosses, no event is
        # logged and nothing is held.
        model = CradleModel([1.0, 1.0], [0.1, 0.1])
        q = model.touching_positions()
        q[1] -= 5e-11
        h = 0.005
        sim = _Sim(model, StepperConfig(h=h), None)
        q_n, _, _ = sim.advance(q, 0.0, np.array([-v, v]), h, model.gaps(q))
        assert sim.events == [] and sim.held == {}
        assert model.gaps(q)[0] < model.gaps(q_n)[0] < 0.0


class TestImpactStep:
    # Each ball sits on the floor at a node and moves into it: the step
    # resolves the impact at the node and integrates to the step's end.

    def test_elastic_ball_reverses_momentum(self):
        model = BallModel(1.0, gravity=0.0)
        h = 0.1
        # Ball arrives at the floor exactly at t_star with p = -1.
        q_prev, q_star = np.array([0.05]), np.array([0.0])
        sim = _Sim(model, StepperConfig(h=h, restitution=1.0), None)
        p_star = node_momentum(model, q_prev, 0.0, q_star, 0.05)
        q_next, _, _ = sim.advance(q_star, 0.05, p_star, 0.05 + h, model.gaps(q_star))
        assert [ev.kind for ev in sim.events] == [ImpactKind.ELASTIC]
        assert q_next[0] == pytest.approx(1.0 * h, rel=1e-10)

    def test_plastic_ball_stays_on_manifold(self):
        model = BallModel(1.0)
        h = 0.05
        q_prev, q_star = np.array([0.02]), np.array([0.0])
        sim = _Sim(model, StepperConfig(h=h, restitution=0.0), None)
        p_star = node_momentum(model, q_prev, 0.0, q_star, 0.03)
        q_next, _, _ = sim.advance(q_star, 0.03, p_star, 0.03 + h, model.gaps(q_star))
        assert [ev.kind for ev in sim.events] == [ImpactKind.PLASTIC]
        assert abs(q_next[0]) < 1e-9

    def test_elastic_apex_constant_within_h_squared(self):
        for h in (0.02, 0.01):
            model = BallModel(1.0, gravity=9.81)
            cfg = StepperConfig(h=h, restitution=1.0)
            traj = simulate(model, [0.5], [0.0], 4.0, cfg)
            speeds = np.array([math.sqrt(2 * ev.energy_before) for ev in traj.events])
            assert speeds.size >= 5
            apex = speeds**2 / (2 * 9.81)
            assert np.abs(apex - 0.5).max() < 0.5 * h * h

    def test_cradle_passes_velocity_to_last_ball(self):
        model = CradleModel([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
        q0 = model.touching_positions()
        q0[0] -= 0.04
        cfg = StepperConfig(h=0.005, restitution=1.0)
        traj = simulate(model, q0, [1.0, 0.0, 0.0], 0.15, cfg)
        assert len(traj.events) == 1
        assert traj.events[0].contacts == (0, 1)
        p_final = traj.momenta[-1]
        assert abs(p_final[0]) < 1e-8 and abs(p_final[1]) < 1e-8
        assert p_final[2] == pytest.approx(1.0, abs=1e-8)

    def test_plastic_cradle_glides_as_one_body(self):
        # A fully plastic strike leaves all three balls moving together,
        # with both contacts held at zero multiplier (no forces to react).
        model = CradleModel([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
        q0 = model.touching_positions()
        q0[0] -= 0.04
        cfg = StepperConfig(h=0.005, restitution=0.0)
        traj = simulate(model, q0, [1.0, 0.0, 0.0], 0.3, cfg)
        assert len(traj.events) == 1
        assert traj.events[0].kind is ImpactKind.PLASTIC
        np.testing.assert_allclose(traj.momenta[-1], [1 / 3] * 3, atol=1e-10)
        np.testing.assert_allclose(np.diff(traj.states[-1]), 0.2, atol=1e-10)
        late = [lam for (t, c, lam) in traj.holds if t > 0.1]
        assert late and max(abs(l) for l in late) < 1e-10

    def test_billiards_right_angle_break(self):
        # Simultaneous orthogonal break: the cue stops dead and the two
        # object balls leave along the contact lines; energy is exact.
        model = BilliardsModel([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
        q0 = model.double_contact_configuration(math.pi / 2)
        q0[4] -= 0.03  # pull the cue back along the bisector
        qdot0 = np.zeros(6)
        qdot0[4] = 1.0
        traj = simulate(model, q0, qdot0, 0.1, StepperConfig(h=0.002, restitution=1.0))
        assert len(traj.events) == 1
        assert traj.events[0].contacts == (0, 1)
        p = traj.momenta[-1]
        np.testing.assert_allclose(p[4:6], 0.0, atol=1e-9)
        np.testing.assert_allclose(p[0:2], [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(p[2:4], [0.5, -0.5], atol=1e-9)

    def test_total_momentum_conserved_through_impacts(self):
        # The cradle's contact normals have zero component sum, so total
        # momentum survives both free flight and elastic impacts.
        model = CradleModel([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
        q0 = model.touching_positions()
        q0[0] -= 0.04
        cfg = StepperConfig(h=0.005, restitution=1.0)
        traj = simulate(model, q0, [1.0, 0.0, 0.0], 0.2, cfg)
        totals = traj.momenta.sum(axis=1)
        assert np.abs(totals - totals[0]).max() < 1e-10

    def test_elastic_events_conserve_energy(self):
        model = BallModel(1.0)
        cfg = StepperConfig(h=0.01, restitution=1.0)
        traj = simulate(model, [0.3], [0.0], 2.0, cfg)
        for ev in traj.events:
            assert ev.energy_after == pytest.approx(
                ev.energy_before, rel=1e-10
            )


class TestZeno:
    def test_guard_counts_recent_impacts(self):
        cfg = StepperConfig(h=0.01)
        events = [
            ImpactEvent(
                t=0.1 + k * 0.001,
                contacts=(0,),
                kind=ImpactKind.INELASTIC,
                impulses=(1.0,),
                energy_before=1.0,
                energy_after=0.5,
            )
            for k in range(4)
        ]
        assert zeno_guard(events, 0, cfg) == "force-plastic"
        assert zeno_guard(events[:2], 0, cfg) == "elastic"
        assert zeno_guard(events, 1, cfg) == "elastic"
        # Same count spread over many steps does not trip the guard.
        spread = [
            ImpactEvent(
                t=0.1 + k * 0.5,
                contacts=(0,),
                kind=ImpactKind.INELASTIC,
                impulses=(1.0,),
                energy_before=1.0,
                energy_after=0.5,
            )
            for k in range(4)
        ]
        assert zeno_guard(spread, 0, cfg) == "elastic"

    def test_single_isolated_impact_stays_elastic(self):
        model = BallModel(1.0)
        cfg = StepperConfig(h=0.01, restitution=1.0)
        traj = simulate(model, [0.2], [0.0], 0.5, cfg)
        assert all(ev.forced is None for ev in traj.events)
        assert all(ev.kind is ImpactKind.ELASTIC for ev in traj.events)

    def test_decaying_chatter_transitions_to_rest(self):
        model = BallModel(1.0)
        cfg = StepperConfig(h=0.01, restitution=0.5)
        traj = simulate(model, [0.05], [0.0], 1.0, cfg)
        forced = [ev for ev in traj.events if ev.forced == "zeno"]
        assert forced, "chatter never triggered the Zeno guard"
        t_rest = forced[0].t
        after = traj.times >= t_rest + cfg.h
        assert np.abs(traj.states[after, 0]).max() < 1e-9
        lams = [lam for (t, c, lam) in traj.holds if t > t_rest]
        assert lams and min(lams) >= 0.0

    def test_zeno_forced_event_is_plastic(self):
        # A forced event takes R = 0 whatever the configured restitution,
        # so the contact is projected plastic and then held.
        cfg = StepperConfig(h=0.01, restitution=0.7)
        traj = simulate(BallModel(1.0), [0.05], [0.0], 1.0, cfg)
        forced = [ev for ev in traj.events if ev.forced == "zeno"]
        assert forced, "chatter never triggered the Zeno guard"
        assert forced[0].kind is ImpactKind.PLASTIC
        after = traj.times >= forced[0].t + cfg.h
        assert np.abs(traj.states[after, 0]).max() < 1e-9
        assert any(t > forced[0].t for (t, c, lam) in traj.holds)

    def test_release_on_upward_force(self):
        model = BallModel(1.0)
        cfg = StepperConfig(h=0.01, restitution=0.0)

        def lift(q, v, t):
            return np.array([25.0]) if t > 0.25 else np.array([0.0])

        traj = simulate(model, [0.02], [0.0], 0.6, cfg, forces=lift)
        resting = (traj.times > 0.12) & (traj.times < 0.25)
        assert np.abs(traj.states[resting, 0]).max() < 1e-9
        held_lams = [lam for (t, c, lam) in traj.holds if t < 0.25]
        assert held_lams and min(held_lams) >= 0.0
        assert traj.states[-1, 0] > 0.05  # released and climbing


class TestForcedEvents:
    def test_ball_at_rest_on_the_floor_is_held(self):
        # Gravity pushes a resting ball through its manifold: one plastic
        # "resting" event at the start, then the contact is held.
        cfg = StepperConfig(h=0.01)
        traj = simulate(BallModel(1.0), [0.0], [0.0], 0.1, cfg)
        (event,) = traj.events
        assert (event.t, event.contacts, event.forced) == (0.0, (0,), "resting")
        assert event.kind is ImpactKind.PLASTIC and event.impulses == (0.0,)
        assert [t for t, _, _ in traj.holds] == pytest.approx(traj.times[1:])
        assert {c for _, c, _ in traj.holds} == {0}
        assert np.abs(traj.states[:, 0]).max() < 1e-12

    def test_cascade_over_its_step_cap_falls_back_to_plastic(self):
        # Both ends of a four-ball cradle close on the touching middle
        # pair at the first node; one reflection cannot resolve three
        # contacts, so the event is projected plastic.
        model = CradleModel([1.0] * 4, [0.1] * 4)
        q0 = model.touching_positions() + np.array([-0.005, 0.0, 0.0, 0.005])
        with mock.patch.object(resolution, "MAX_CASCADE_STEPS", 1):
            traj = simulate(model, q0, [1.0, 0.0, 0.0, -1.0], 0.02, StepperConfig(h=0.005))
        (event,) = traj.events
        assert event.t == pytest.approx(0.005, abs=1e-15)
        assert (event.contacts, event.forced) == ((0, 1, 2), "step-cap")
        assert event.kind is ImpactKind.PLASTIC
        assert event.energy_after <= 1e-12 * event.energy_before
        np.testing.assert_allclose(traj.momenta[-1], 0.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    window=st.integers(min_value=1, max_value=5),
    history=st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.0005, 0.002, 0.004, 0.01, 0.02]),
            st.sets(st.integers(min_value=0, max_value=2), min_size=1),
        ),
        max_size=40,
    ),
)
def test_zeno_window_matches_full_history_guard(window, history):
    # The simulation keeps the last ZENO_WINDOW events per contact;
    # the guard over the whole history is the oracle at every event.
    cfg = StepperConfig(h=0.01)
    with mock.patch.object(stepper, "ZENO_WINDOW", window):
        sim = _Sim(CradleModel([1.0] * 4, [0.1] * 4), cfg, None)
        t = 0.0
        for dt, contacts in history:
            t += dt
            contacts = tuple(sorted(contacts))
            expected = any(
                zeno_guard(sim.events, c, cfg, now=t) == "force-plastic" for c in contacts
            )
            assert sim.zeno_forced(contacts, t) == expected
            sim.log(
                ImpactEvent(
                    t=t,
                    contacts=contacts,
                    kind=ImpactKind.INELASTIC,
                    impulses=(1.0,) * len(contacts),
                    energy_before=1.0,
                    energy_after=0.5,
                )
            )


class TestFixedOrderPolicy:
    MODEL = LegTailModel(1.2, 0.08, [0.3, -0.25], [-0.1, -0.25])

    def _drop(self, order, restitution):
        q0 = self.MODEL.double_contact_pose()
        q0[1] += 0.05
        cfg = StepperConfig(
            h=0.005, restitution=restitution, policy=CascadePolicy.fixed(order)
        )
        return simulate(self.MODEL, q0, np.zeros(3), 0.3, cfg)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    @pytest.mark.parametrize("restitution", [0.5, 1.0])
    def test_legtail_drop_restricts_order_to_each_event(self, order, restitution):
        # The order names the model's contacts; an event on one contact
        # reflects across that contact alone.
        try:
            traj = self._drop(order, restitution)
        except SimpactError:
            return
        single = [ev for ev in traj.events if len(ev.contacts) == 1]
        assert single
        for ev in single:
            assert ev.sequence == ev.contacts

    def test_completes_with_order_covering_both_contacts(self):
        traj = self._drop((0, 1), 1.0)
        assert [ev.sequence for ev in traj.events] == [(0, 1), (1,)]

    @pytest.mark.parametrize("order", [(0,), (0, 2), (1, 1)])
    def test_order_not_fitting_the_model_is_a_config_error(self, order):
        with pytest.raises(ConfigError):
            self._drop(order, 1.0)


class TestLocationFailure:
    @staticmethod
    def _failing_locate(fun, x0, tol, jac, **kwargs):
        # The ball's locate solve has two unknowns, its free solve one.
        if len(x0) == 2:
            raise StepFailureError("forced failure", 0.25, 3)
        return _newton(fun, x0, tol, jac, **kwargs)

    def test_error_names_time_contacts_and_residual(self, monkeypatch):
        monkeypatch.setattr(stepper, "_newton", self._failing_locate)
        with pytest.raises(ImpactLocationError) as err:
            simulate(BallModel(1.0), [0.05], [0.0], 0.3, StepperConfig(h=0.01))
        exc = err.value
        # The ball falls 0.05 in 0.101 s: the step starting at t = 0.1.
        assert exc.t == pytest.approx(0.1)
        assert exc.contacts == (0,)
        assert exc.residual_norm == 0.25

    def test_cli_failure_line(self, monkeypatch, tmp_path, capsys):
        from simpact.cli import EXIT_TASK, main

        monkeypatch.setattr(stepper, "_newton", self._failing_locate)
        config = tmp_path / "drop.json"
        config.write_text(
            '{"model": {"type": "ball", "mass": 1.0}, "initial": {"q": [0.05]},'
            ' "stepper": {"h": 0.01}, "task": {"kind": "simulate", "duration": 0.3}}'
        )
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == EXIT_TASK
        err = capsys.readouterr().err.strip()
        assert err.startswith("task failed: impact localization failed: forced failure")
        assert err.endswith("(t=0.10000000000000001, contacts=0, residual=2.500e-01)")

    def test_escaped_impact_time_names_its_residual(self):
        # A periodically lifted ball whose localization converges to an
        # impact time past the end of its step.
        def lift(q, v, t):
            return np.array([30.569457507214125 * math.sin(math.pi * t / 0.5959288231755697) ** 8])

        cfg = StepperConfig(h=0.01, restitution=0.3)
        with pytest.raises(ImpactLocationError, match="escaped the step") as err:
            simulate(BallModel(1.2393203374530217), [0.0494794942765356], [0.0], 3.0, cfg, lift)
        exc = err.value
        assert exc.contacts == (0,)
        assert exc.residual_norm is not None and math.isfinite(exc.residual_norm)


class TestStepFailure:
    @staticmethod
    def _failing_free(model, p_in, q_curr, t_curr, *args):
        # The ball is still falling freely at t = 0.05.
        if t_curr >= 0.05:
            raise StepFailureError("forced failure", 0.5, 7)
        return _solve_free(model, p_in, q_curr, t_curr, *args)

    def test_error_names_time_and_no_contacts(self, monkeypatch):
        # Every free step, Newton or closed-form flight, goes through
        # _solve_free; the sampler makes these Newton steps.
        monkeypatch.setattr(stepper, "_solve_free", self._failing_free)
        with pytest.raises(StepFailureError) as err:
            simulate(BallModel(1.0), [0.05], [0.0], 0.3, StepperConfig(h=0.01),
                     lambda q, v, t: np.zeros(1))
        exc = err.value
        assert exc.t == 0.05
        assert exc.contacts == ()
        assert (exc.residual_norm, exc.iterations) == (0.5, 7)

    def test_held_failure_names_held_contacts(self, monkeypatch):
        # A plastic landing holds the ball's contact; fail its next solve,
        # which takes the closed form: the ball is force free.
        def failing_held(*args):
            raise StepFailureError("forced failure", 0.5, 7)

        monkeypatch.setattr(stepper, "_solve_held_flight", failing_held)
        with pytest.raises(StepFailureError) as err:
            simulate(BallModel(1.0), [0.05], [0.0], 0.3, StepperConfig(h=0.01, restitution=0.0))
        assert err.value.contacts == (0,)
        assert 0.1 <= err.value.t < 0.11

    def test_forced_held_failure_names_held_contacts(self, monkeypatch):
        # The same landing under a zero force sampler: its held step is
        # the Newton solve.
        def failing_held(*args):
            raise StepFailureError("forced failure", 0.5, 7)

        monkeypatch.setattr(stepper, "_solve_held", failing_held)
        with pytest.raises(StepFailureError) as err:
            simulate(BallModel(1.0), [0.05], [0.0], 0.3, StepperConfig(h=0.01, restitution=0.0),
                     forces=lambda q, v, t: np.zeros(1))
        assert err.value.contacts == (0,)
        assert 0.1 <= err.value.t < 0.11

    def test_impact_cap_names_time_and_crossing_contacts(self, monkeypatch):
        model = CradleModel([1.0] * 3, [0.1] * 3)
        cfg = StepperConfig(h=0.01)
        monkeypatch.setattr(stepper, "MAX_IMPACTS_PER_STEP", 1)
        with pytest.raises(StepFailureError) as err:
            simulate(model, [0.0, 0.202, 0.404], [1.0, 0.0, 0.0], 0.05, cfg)
        # Ball 1 is struck at t = 0.002 and strikes ball 2 at t = 0.004,
        # inside the same first step: the second impact is over the cap.
        assert err.value.t == pytest.approx(0.002)
        assert err.value.contacts == (1,)

    def test_cli_failure_line(self, tmp_path, capsys):
        # The overflowing cradle of TestFreeFlight: a failed step with no
        # contact held and no residual names only its start.
        from simpact.cli import EXIT_TASK, main

        config = tmp_path / "overflow.json"
        config.write_text(
            '{"model": {"type": "cradle", "masses": [1, 1], "radii": [0.1, 0.1]},'
            ' "initial": {"q": [0.0, 1.2], "qdot": [-1e308, 0.0]},'
            ' "stepper": {"h": 10.0}, "task": {"kind": "simulate", "duration": 20.0}}'
        )
        with np.errstate(over="ignore", invalid="ignore"):
            status = main(["run", str(config), "--out", str(tmp_path / "out")])
        assert status == EXIT_TASK
        err = capsys.readouterr().err.strip()
        assert err == "task failed: free flight step is not finite (t=0)"


class TestHeldContacts:
    def test_symmetric_landing_static_equilibrium(self):
        # Flat plastic landing: the body rests with its weight impulse
        # split equally between the two held contacts.
        body = LegTailModel(1.0, 0.1, (0.3, -0.2), (-0.3, -0.2), gravity=9.81)
        cfg = StepperConfig(h=0.005, restitution=0.0)
        traj = simulate(body, [0.0, 0.25, 0.0], np.zeros(3), 0.5, cfg)
        np.testing.assert_allclose(body.gaps(traj.states[-1]), 0.0, atol=1e-9)
        late = {}
        for (t, c, lam) in traj.holds:
            if t > 0.4:
                late.setdefault(c, []).append(lam)
        assert set(late) == {0, 1}
        for lams in late.values():
            assert np.mean(lams) == pytest.approx(9.81 * cfg.h / 2, rel=1e-6)

    def test_tipping_releases_far_contact(self):
        # Center of mass outside the support: the far contact must
        # release (its multiplier would pull) and the body pivots about
        # the near one.
        body = LegTailModel(1.0, 0.02, (0.5, -0.2), (0.1, -0.2), gravity=9.81)
        cfg = StepperConfig(h=0.002, restitution=0.0)
        traj = simulate(body, [0.0, 0.22, 0.0], np.zeros(3), 0.4, cfg)
        gaps_end = body.gaps(traj.states[-1])
        assert gaps_end[0] > 0.05  # far point lifted well clear
        assert abs(gaps_end[1]) < 1e-9  # pivot still on the floor
        assert abs(traj.states[-1, 2]) > 0.5  # body rotated


class TestFriction:
    def test_sliding_opposes_velocity(self):
        model = Slider()
        q = np.array([0.0, 0.0])
        force = friction_force(model, q, np.array([1.5, 0.0]), 0, mu=0.4, normal_force=10.0)
        np.testing.assert_allclose(force, [-4.0, 0.0], atol=1e-6)
        force = friction_force(model, q, np.array([-0.2, 0.0]), 0, mu=0.4, normal_force=10.0)
        np.testing.assert_allclose(force, [4.0, 0.0], atol=1e-6)

    def test_zero_mu_zero_force(self):
        model = Slider()
        force = friction_force(model, np.zeros(2), np.array([1.0, 0.0]), 0, 0.0, 10.0)
        np.testing.assert_array_equal(force, np.zeros(2))

    def test_inactive_contact_zero_force(self):
        model = Slider()
        q = np.array([0.0, 0.5])  # off the floor
        force = friction_force(model, q, np.array([1.0, 0.0]), 0, 0.4, 10.0)
        np.testing.assert_array_equal(force, np.zeros(2))

    def test_stiction_cancels_applied_load(self):
        # Push below the cone bound: stiction holds the block.
        model = Slider(mass=2.0)
        force = friction_force(model, np.zeros(2), np.zeros(2), 0, mu=0.4,
                               normal_force=2.0 * 9.81, applied=np.array([3.0, 0.0]))
        assert force[0] == pytest.approx(-3.0, abs=1e-6)

    def test_stiction_saturates_at_cone(self):
        model = Slider(mass=2.0)
        bound = 0.4 * 2.0 * 9.81
        force = friction_force(model, np.zeros(2), np.zeros(2), 0, mu=0.4,
                               normal_force=2.0 * 9.81, applied=np.array([30.0, 0.0]))
        assert abs(force[0]) <= bound + 1e-9
        assert force[0] == pytest.approx(-bound, abs=1e-6)

    def test_integrated_stick_and_slide(self):
        # Block dropped onto the floor under a constant push. High
        # friction arrests it; low friction lets it slide at the
        # closed-form reduced acceleration; zero friction is the bare
        # push. The pre-contact fall contributes push/m for t_contact.
        t_contact = math.sqrt(2 * 0.02 / 9.81)

        def push(q, v, t):
            return np.array([3.0, 0.0])

        def run_block(mu):
            cfg = StepperConfig(
                h=0.01,
                restitution=0.0,
                friction=FrictionConfig(mu=mu, contacts=(0,)),
            )
            traj = simulate(Slider(), [0.0, 0.02], [0.0, 0.0], 1.0, cfg, push)
            assert abs(traj.states[-1, 1]) < 1e-9  # held on the floor
            return traj.momenta[-1, 0] / 2.0

        v_stick = run_block(0.4)
        assert abs(v_stick) < 0.02  # stiction, up to discrete jitter

        v_slide = run_block(0.01)
        a_free, a_slide = 3.0 / 2.0, (3.0 - 0.01 * 2.0 * 9.81) / 2.0
        expected = a_free * t_contact + a_slide * (1.0 - t_contact)
        assert v_slide == pytest.approx(expected, rel=0.02)

        v_bare = run_block(0.0)
        assert v_bare == pytest.approx(1.5, rel=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 4),
        mu=st.floats(0.01, 2.0),
        normal_force=st.floats(0.01, 100.0),
    )
    def test_closed_forms_on_random_masses(self, seed, dim, mu, normal_force):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim))
        mass = a @ a.T + 0.1 * np.eye(dim)
        trow = rng.standard_normal(dim)
        load, push = 5.0 * rng.standard_normal((2, dim))
        model = LoadedContact(mass, trow, load)
        q, bound = np.zeros(dim), mu * normal_force

        # Slip: the cone boundary opposing the tangential speed, exactly.
        qdot = rng.standard_normal(dim)
        v_t = float(trow @ qdot)
        assume(abs(v_t) > 1e-10)
        slip = friction_force(model, q, qdot, 0, mu, normal_force)
        np.testing.assert_array_equal(slip, (-np.sign(v_t) * bound) * trow)

        # Stick: the force that nulls the tangential acceleration,
        # clamped to the cone.
        c = trow @ np.linalg.solve(mass, push - load)
        d = trow @ np.linalg.solve(mass, trow)
        f = np.clip(-c / d, -bound, bound)
        stick = friction_force(model, q, np.zeros(dim), 0, mu, normal_force, push)
        scale = (abs(c / d) + bound) * np.abs(trow).max()
        np.testing.assert_allclose(stick, f * trow, rtol=0.0, atol=1e-12 * scale)

    def test_matches_scalar_minimization_oracle(self):
        # Independent oracle: bounded scalar minimization of the same
        # dissipation objective.
        model = Slider(mass=2.0)
        q, qdot = np.zeros(2), np.array([0.8, 0.0])
        mu, n_force = 0.3, 11.0
        got = friction_force(model, q, qdot, 0, mu, n_force)[0]
        bound = mu * n_force
        res = minimize_scalar(
            lambda f: f * qdot[0], bounds=(-bound, bound), method="bounded",
            options={"xatol": 1e-10},
        )
        assert got == pytest.approx(res.x, abs=1e-6)

    def test_stiction_balances_the_sampled_push_at_the_step_time(self):
        # The push ramps up from zero at t = 0. At the step's own time,
        # 0.5, it is 3 N, below the cone bound 0.4 * 2 * 9.81 N of the
        # held multiplier; the friction frozen for the step cancels it.
        model = Slider(mass=2.0)
        h = 0.01

        def push(q, v, t):
            return np.array([6.0 * t, 0.0])

        sim = _Sim(model, StepperConfig(h=h, friction=FrictionConfig(0.4, (0,))), push)
        sim.held[0] = 2.0 * 9.81 * h
        q, v = np.zeros(2), np.zeros(2)
        sampler = sim.effective_forces(q, 0.5, model.mass_matrix(q) @ v)
        np.testing.assert_allclose(sampler(q, v, 0.5), [0.0, 0.0], rtol=0.0, atol=1e-12)

    @staticmethod
    def _assert_friction_changes_nothing(model, q0, duration, friction, forces=None, **kwargs):
        runs = [
            simulate(model, q0, np.zeros(model.dim), duration,
                     StepperConfig(friction=f, **kwargs), forces)
            for f in (friction, None)
        ]
        assert runs[0].holds
        for name in ("times", "states", "momenta"):
            np.testing.assert_array_equal(getattr(runs[0], name), getattr(runs[1], name))
        assert runs[0].events == runs[1].events
        assert runs[0].holds == runs[1].holds

    def test_friction_on_no_held_contact_changes_nothing(self):
        self._assert_friction_changes_nothing(
            BallModel(1.0), [0.1], 1.0, FrictionConfig(0.5, ()), h=0.01, restitution=0.5
        )

    @pytest.mark.parametrize("contacts", [(0,), (0, 1)])
    def test_zero_friction_beside_user_force_changes_nothing(self, contacts):
        # A resting leg-tail, pushed along the floor.
        model = LegTailModel(1.2, 0.08, [0.3, -0.25], [-0.1, -0.25])
        self._assert_friction_changes_nothing(
            model, model.double_contact_pose(), 0.2, FrictionConfig(0.0, contacts),
            lambda qm, v, t: np.array([0.3, 0.0, 0.0]), h=0.005,
        )


class TestTrajectoryExport:
    def test_csv_roundtrip(self, tmp_path):
        model = BallModel(1.0)
        cfg = StepperConfig(h=0.01, restitution=1.0)
        traj = simulate(model, [0.2], [0.0], 0.5, cfg)
        path = tmp_path / "traj.csv"
        with open(path, "w") as stream:
            traj.write_csv(stream, comments=["unit test"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# unit test"
        assert lines[1] == "t,q1,p1,event"
        data = np.loadtxt(path, delimiter=",", skiprows=2)
        np.testing.assert_allclose(data[:, 0], traj.times, atol=1e-16)
        assert data[:, 3].sum() == len(traj.events)

        events_path = tmp_path / "events.csv"
        with open(events_path, "w") as stream:
            traj.write_events_csv(stream)
        body = events_path.read_text().splitlines()
        assert body[0].startswith("t_star,contacts,kind")
        assert len(body) == 1 + len(traj.events)

    def test_monotonic_times_enforced(self):
        with pytest.raises(ValueError):
            Trajectory(
                times=np.array([0.0, 0.0]),
                states=np.zeros((2, 1)),
                momenta=np.zeros((2, 1)),
                events=[],
                holds=[],
                nominal_step=0.1,
            )


class TestInitialConditions:
    def test_penetrating_start_rejected(self):
        model = BallModel(1.0)
        with pytest.raises(ValueError):
            simulate(model, [-0.1], [0.0], 1.0, StepperConfig(h=0.01))

    @pytest.mark.parametrize(
        "field, q0, qdot0, duration",
        [
            ("duration", [0.1], [0.0], math.inf),
            ("duration", [0.1], [0.0], math.nan),
            ("q0", [math.nan], [0.0], 1.0),
            ("qdot0", [0.1], [-math.inf], 1.0),
        ],
    )
    def test_non_finite_input_rejected_by_name(self, field, q0, qdot0, duration):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            simulate(BallModel(1.0), q0, qdot0, duration, StepperConfig(h=0.01))

    def test_initial_momentum_is_continuous_momentum(self):
        model = CradleModel([2.0, 3.0], [0.1, 0.1])
        q0 = model.touching_positions(gap=0.5)
        traj = simulate(model, q0, [1.0, -1.0], 0.05, StepperConfig(h=0.01))
        np.testing.assert_allclose(traj.momenta[0], [2.0, -3.0], atol=1e-14)


class TestConfig:
    def test_per_contact_restitution(self):
        cfg = StepperConfig(h=0.01, restitution=(1.0, 0.3))
        assert cfg.restitution_for(0) == 1.0
        assert cfg.restitution_for(1) == 0.3
        with pytest.raises(ValueError):
            StepperConfig(h=0.01, restitution=(0.5, 1.2))
        with pytest.raises(ValueError):
            StepperConfig(h=-0.01)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("h", math.nan),
            ("h", math.inf),
            ("newton_tol", math.nan),
            ("newton_tol", math.inf),
            ("restitution", math.nan),
            ("restitution", (0.5, math.nan)),
        ],
    )
    def test_non_finite_field_rejected_by_name(self, field, value):
        config = {"h": 0.01, field: value}
        with pytest.raises(ValueError, match=f"^{field} must"):
            StepperConfig(**config)

    @pytest.mark.parametrize("field", ["newton_max_iter", "impact_time_tol", "zeno_window"])
    def test_numerical_limits_are_not_fields(self, field):
        # The Newton cap, the Zeno window and the simultaneity window
        # SIMULTANEITY_RTOL are module constants: none of them is a setting.
        with pytest.raises(TypeError, match=field):
            StepperConfig(h=0.01, **{field: 4})

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -0.1])
    def test_friction_coefficient_must_be_finite(self, mu):
        with pytest.raises(ValueError, match="^friction mu must"):
            FrictionConfig(mu)

    def test_zero_dimensional_restitution_is_a_scalar(self):
        cfg = StepperConfig(h=0.01, restitution=np.array(0.5))
        assert cfg.restitution == 0.5 and type(cfg.restitution) is float
        assert cfg.restitution_for(3) == 0.5
        with pytest.raises(ValueError, match="^restitution must"):
            StepperConfig(h=0.01, restitution=np.array(1.5))

    def test_blend_is_continuous_at_both_ends(self):
        # The weight of the elastic outcome is R: the plastic projection
        # runs at R = 0 and the cascade at R = 1, each the blend's limit.
        def first_event(restitution):
            cfg = StepperConfig(h=0.01, restitution=restitution)
            return simulate(BallModel(1.0), [0.05], [0.0], 0.2, cfg).events[0]

        none_kept, kept = first_event(1e-9), first_event(1.0 - 1e-12)
        assert none_kept.energy_after <= 1e-11 * none_kept.energy_before
        assert kept.energy_after == pytest.approx(kept.energy_before, rel=1e-11)
        at_zero, at_one = first_event(0.0), first_event(1.0)
        assert at_zero.kind is ImpactKind.PLASTIC
        assert at_zero.energy_after == pytest.approx(none_kept.energy_after, abs=1e-11)
        assert at_one.kind is ImpactKind.ELASTIC
        assert at_one.energy_after == pytest.approx(kept.energy_after, rel=1e-11)

    def test_multi_contact_event_uses_most_dissipative(self):
        # The cradle event spans both contacts; the smaller coefficient
        # governs the whole event.
        model = CradleModel([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
        q0 = model.touching_positions()
        q0[0] -= 0.04
        cfg = StepperConfig(h=0.005, restitution=(0.7, 1.0))
        traj = simulate(model, q0, [1.0, 0.0, 0.0], 0.1, cfg)
        blended = [ev for ev in traj.events if ev.kind is ImpactKind.INELASTIC]
        assert blended
        loss = blended[0].energy_before - blended[0].energy_after
        assert loss == pytest.approx((1 - 0.49) * (2 / 3) * 0.5, rel=1e-9)

    def test_event_times_inside_sampled_range(self):
        model = BallModel(1.0)
        traj = simulate(model, [0.2], [0.0], 1.0, StepperConfig(h=0.01, restitution=1.0))
        for ev in traj.events:
            assert traj.times[0] < ev.t <= traj.times[-1]
