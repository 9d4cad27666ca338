"""Square solves of the stepper: diagonal division against LAPACK.

The stepper divides by the diagonal of a diagonal mass or Newton
Jacobian instead of calling ``np.linalg.solve``, and flies force-free
steps of a diagonal mass on Python floats. These tests check the
premise (the quotient is LAPACK's solution, bit for bit up to the sign
of a zero entry), check the float flight against the array flight with
LAPACK's mass solve, run whole simulations against an oracle that sends
every solve and flight to LAPACK, and count the LAPACK calls left on
the free-step path.
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

from simpact import metric as mt
from simpact import stepper
from simpact.errors import ConfigError, StepFailureError
from simpact.models import BallModel, BilliardsModel, CradleModel, LegTailModel, MechModel
from simpact.resolution import ImpactKind
from simpact.stepper import FrictionConfig, StepperConfig, simulate

from test_stepper import SHIPPED, GravityParticle, Oscillator, PolarSpring, _free_flight_case
from test_stepper_jacobians import BreathingBall


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
    # or make NaN of an infinite one. The division equals LAPACK's
    # solution in value, and neither is finite when the right-hand side
    # is not, so Newton rejects both the same way.
    entries = [0.0, -0.0, 1.5, -2.25, math.inf]
    for pivots in itertools.product([-20.0, 3.0], repeat=n):
        matrix = np.full((n, n), off)
        np.fill_diagonal(matrix, pivots)
        diag = stepper._diagonal(matrix)
        for b in itertools.product(entries, repeat=n):
            b = np.array(b)
            x = stepper._solve(matrix, diag, b)
            expected = np.linalg.solve(matrix, b)
            if np.isfinite(b).all():
                assert np.array_equal(x, expected), (matrix, b)
            else:
                assert not np.isfinite(x).all(), (matrix, b)
                assert not np.isfinite(expected).all(), (matrix, b)


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


# ---------------------------------------------------------------------------
# Oracle: every solve through LAPACK gives the same run, bit for bit


def _lapack(matrix, diag, rhs):
    return np.linalg.solve(matrix, rhs)


def _lapack_flight(q, p, h, force, diag):
    """``stepper._solve_flight`` on arrays, with the mass solve sent to LAPACK."""
    q_curr, mass = np.array(q), np.diag(diag)
    half = 0.5 * h * np.array(force)
    q_next = q_curr + h * np.linalg.solve(mass, np.array(p) + half)
    p_out = mass @ ((q_next - q_curr) / h) + half
    if not np.isfinite(p_out).all():
        raise StepFailureError("free flight step is not finite")
    return q_next.tolist(), p_out.tolist()


def _flight(model, q, p, h):
    """``stepper._solve_flight``'s arguments for one step of ``model`` over ``h``.

    The force is the negated gradient at ``q``, as the simulation takes it once.
    """
    force = (-model.potential_gradient(q)).tolist()
    diag = stepper._diagonal(model.mass_matrix(q)).tolist()
    return q.tolist(), p.tolist(), h, force, diag


#: Entries of the flight states: signed and exact zeros, tiny and
#: subnormal magnitudes, and ordinary values.
flight_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, -1e-322]),
    st.floats(min_value=-3.0, max_value=3.0),
)


@pytest.mark.parametrize("name", SHIPPED)
@settings(max_examples=300, deadline=None)
@given(q=st.lists(flight_entries, min_size=6, max_size=6),
       p=st.lists(flight_entries, min_size=6, max_size=6),
       h=st.sampled_from([1e-3, 0.01, 0.05, 0.5, 10.0]))
def test_float_flight_is_the_lapack_flight(name, q, p, h):
    model = _free_flight_case(name, [0.0, 1.0, 0.0, 0.0])[0]
    q, p = np.array(q[:model.dim]), np.array(p[:model.dim])
    diag = stepper._diagonal(model.mass_matrix(q))
    args = _flight(model, q, p, (0.3 + h) - 0.3)
    q_next, p_out = map(np.array, stepper._solve_flight(*args))
    q_oracle, p_oracle = map(np.array, _lapack_flight(*args))
    assert _bits(p_out) == _bits(p_oracle)
    assert np.array_equal(q_next, q_oracle)
    # LAPACK may flip the sign of a zero entry of its solution, where the
    # division keeps it (see the premise tests above), and -0.0 + h * 0.0
    # is +0.0: the configurations may differ there only, in the sign of a
    # zero at a configuration entry of -0.0.
    rhs = p + 0.5 * h * -model.potential_gradient(q)
    lapack, division = np.linalg.solve(model.mass_matrix(q), rhs), rhs / diag
    for i in range(model.dim):
        if _bits(q_next[i]) != _bits(q_oracle[i]):
            assert _bits(lapack[i]) != _bits(division[i]) and division[i] == 0.0


class SignedDiagonal:
    """A force-free diagonal mass with a negative entry, for the flight's zero signs."""

    def mass_matrix(self, q):
        return np.diag([-1.0, 2.0])

    def potential_gradient(self, q):
        return np.zeros(2)


def test_float_flight_reads_a_zero_product_as_the_matrix_product():
    # A zero velocity times a negative mass is -0.0, and so is the zero
    # gradient's half impulse; the matrix product accumulates onto +0.0.
    model = SignedDiagonal()
    q, p = np.array([0.5, 1.0]), np.array([-0.0, 0.0])
    args = _flight(model, q, p, 0.31 - 0.3)
    flight = stepper._solve_flight(*args)
    oracle = _lapack_flight(*args)
    assert _bits(flight[1]) == _bits(oracle[1]) == _bits(np.zeros(2))
    assert _bits(flight[0]) == _bits(oracle[0])


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
    flights = []

    def lapack_flight(*args):
        flights.append(args)
        return _lapack_flight(*args)

    with mock.patch.object(stepper, "_solve", _lapack), \
            mock.patch.object(stepper, "_solve_flight", lapack_flight):
        oracle, oracle_calls = _counted_run(RUNS[name])
    assert calls < oracle_calls  # the division or float flight path was taken
    # Every step that starts with nothing held flies through the oracle,
    # whether simulate's loop flies it or _Sim.advance does.
    model, *_, forces = RUNS[name]()
    if model.affine_potential and forces is None:
        held_steps = len({t for t, _, _ in traj.holds})
        assert len(flights) >= traj.times.size - 1 - held_steps > 0
    else:
        assert not flights
    assert _bits(traj.times) == _bits(oracle.times)
    assert _bits(traj.states) == _bits(oracle.states)
    assert _bits(traj.momenta) == _bits(oracle.momenta)
    assert repr(traj.events) == repr(oracle.events)
    assert repr(traj.holds) == repr(oracle.holds)
    if name == "lifted-ball":
        assert traj.holds and traj.events


# ---------------------------------------------------------------------------
# LAPACK calls left on the free-step path


def _vertical_legtail():
    model = LegTailModel(1.2, 0.08, [0.3, -0.25], [-0.1, -0.25])
    q0 = model.double_contact_pose()
    q0[1] += 0.1
    return model, q0, np.zeros(3)


FREE = {
    # Each runs 100 steps without an impact. The vertical drop and the
    # ball at rest keep zero entries in their momenta and residuals.
    "oscillator": (Oscillator(1.7, 4.0), [1.0], [0.3]),
    "ball": (BallModel(1.3), [2.0], [0.5]),
    "cradle": (CradleModel([1.0, 0.7, 1.6], [0.1] * 3), [0.0, 0.5, 1.0], [-0.4, 0.3, 1.1]),
    "cradle-ball-at-rest": (
        CradleModel([1.0, 0.7, 1.6], [0.1] * 3), [0.0, 0.5, 1.0], [-0.4, 0.0, 1.1]
    ),
    "legtail-vertical-drop": _vertical_legtail(),
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
        super().__init__(1.7, 4.0)
        self.callers = Counter()

    def mass_matrix(self, q):
        self.callers[sys._getframe(1).f_code.co_name] += 1
        return super().mass_matrix(q)


def test_constant_mass_is_evaluated_once_for_the_velocity_solves():
    # The initial guesses take the mass factored by the simulation; only
    # the DEL momenta and Jacobian blocks evaluate the mass per step. A
    # one-coordinate free step forms them on floats, in _solve_line's
    # line_momenta and in _line_jacobian.
    model = CallerCountingMass()
    simulate(model, [1.0], [0.3], 100 * 0.01, StepperConfig(h=0.01))
    assert model.callers["__init__"] == 1
    assert model.callers["simulate"] == 1
    assert set(model.callers) == {"__init__", "simulate", "line_momenta", "_line_jacobian"}


class CallerCountingGaps(Oscillator):
    """An oscillator that counts the functions calling ``gaps``."""

    def __init__(self):
        super().__init__(1.7, 4.0)
        self.callers = Counter()

    def gaps(self, q):
        self.callers[sys._getframe(1).f_code.co_name] += 1
        return super().gaps(q)


def test_contact_free_model_evaluates_no_gaps_per_step():
    # simulate checks the initial gaps and the simulation counts the
    # contacts once; the steps have no gap to scan.
    model = CallerCountingGaps()
    simulate(model, [1.0], [0.3], 100 * 0.01, StepperConfig(h=0.01))
    assert model.callers == Counter({"simulate": 1, "n_contacts": 1})


class CallerCountingCradle(CradleModel):
    """A cradle that counts the functions calling ``gaps`` and ``potential_gradient``."""

    def __init__(self, *args):
        super().__init__(*args)
        self.gap_callers, self.gradient_callers = Counter(), Counter()

    def gaps(self, q):
        self.gap_callers[sys._getframe(1).f_code.co_name] += 1
        return super().gaps(q)

    def potential_gradient(self, q):
        self.gradient_callers[sys._getframe(1).f_code.co_name] += 1
        return super().potential_gradient(q)


def test_force_free_cradle_advances_only_the_step_that_crosses(monkeypatch):
    # The one-event cradle op of the impacts benchmark: the loop flies 59
    # of its 60 steps, evaluating the gaps at each node once, and hands
    # the step of the impact, with its flight, to _Sim.advance.
    model = CallerCountingCradle([1.0, 0.7, 1.6, 1.2], [0.1] * 4)
    q0 = model.touching_positions()
    q0[0] -= 0.05
    advanced, node_gaps_callers = [], Counter()
    advance, node_gaps = stepper._Sim.advance, stepper._Sim.node_gaps

    def counted_advance(self, q_c, t_c, *args):
        advanced.append(t_c)
        return advance(self, q_c, t_c, *args)

    def counted_node_gaps(self, q):
        node_gaps_callers[sys._getframe(1).f_code.co_name] += 1
        return node_gaps(self, q)

    monkeypatch.setattr(stepper._Sim, "advance", counted_advance)
    monkeypatch.setattr(stepper._Sim, "node_gaps", counted_node_gaps)
    traj = simulate(model, q0, [1.2, 0.0, 0.0, 0.0], 0.3, StepperConfig(h=0.005))
    (event,) = traj.events
    assert advanced == [int(event.t / 0.005) * 0.005]
    # fly evaluates the gaps at each of the 59 nodes it flies to, and at
    # the end of the step that crosses, which it hands to advance with
    # its flight; advance evaluates them only at the node after the
    # impact. The cradle's gaps are linear, so these evaluations take
    # G q + c on floats and call no model gaps.
    assert node_gaps_callers == Counter({"fly": 60, "advance": 1})
    # The model's gaps: the initial check, the contact count, G q + c
    # taken once at zero, and _locate's own.
    calls = model.gap_callers
    assert set(calls) == {"simulate", "n_contacts", "__init__", "_locate", "residual"}
    assert calls["simulate"] == calls["n_contacts"] == calls["__init__"] == calls["_locate"] == 1
    # The flight takes the gradient once; the impact's substep DEL takes
    # its own in discrete_momenta.
    assert model.gradient_callers["__init__"] == 1
    assert set(model.gradient_callers) == {"__init__", "discrete_momenta"}


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


# ---------------------------------------------------------------------------
# The metric of a constant mass, checked once per simulation


class NegativeMass(GravityParticle):
    def mass_matrix(self, q):
        return np.array([[-1.0]])


class IndefinitePlanar(MechModel):
    dim = 2
    constant_mass = True

    def mass_matrix(self, q):
        return np.array([[1.0, 2.0], [2.0, 1.0]])

    def gaps(self, q):
        return np.zeros(0)

    def gap_gradients(self, q):
        return np.zeros((0, 2))


class NegativeBall(BallModel):
    def mass_matrix(self, q):
        return -self._mass


@pytest.mark.parametrize(
    "model, q0",
    [(NegativeMass(), [0.0]), (IndefinitePlanar(), [0.0, 0.0]), (NegativeBall(1.0), [1.0])],
    ids=["diagonal", "dense", "with-contacts"],
)
def test_simulate_rejects_a_constant_mass_that_is_not_positive_definite(model, q0):
    # The diagonal case used to run: q went 0 -> -0.051 over 10 steps of
    # h = 0.01.
    with pytest.raises(ConfigError, match=r"^constant mass: mass matrix is not positive definite"):
        simulate(model, q0, np.zeros(model.dim), 0.1, StepperConfig(h=0.01))


def _count_metrics(monkeypatch, model):
    """Count the metrics built, and the model's ``metric_at`` calls among them."""
    counts = Counter()
    original_init, original_at = mt.KineticMetric.__init__, model.metric_at

    def counting_init(self, mass):
        counts["metrics"] += 1
        original_init(self, mass)

    def counting_at(q):
        counts["metric_at"] += 1
        return original_at(q)

    monkeypatch.setattr(mt.KineticMetric, "__init__", counting_init)
    monkeypatch.setattr(model, "metric_at", counting_at)
    return counts


def test_contact_free_diagonal_mass_builds_no_metric(monkeypatch):
    model = Oscillator()
    counts = _count_metrics(monkeypatch, model)
    simulate(model, [1.0], [0.3], 0.1, StepperConfig(h=0.01))
    assert counts == Counter()


def test_constant_mass_events_frame_on_the_simulation_metric(monkeypatch):
    model = BallModel(1.0)
    counts = _count_metrics(monkeypatch, model)
    traj = simulate(model, [0.1], [0.0], 1.0, StepperConfig(h=0.01, restitution=0.8))
    assert len(traj.events) >= 3
    assert counts == Counter({"metrics": 1})


def test_variable_mass_events_frame_on_the_metric_at_the_impact(monkeypatch):
    model = BreathingBall()
    counts = _count_metrics(monkeypatch, model)
    traj = simulate(model, [0.1], [0.0], 1.0, StepperConfig(h=0.01))
    assert len(traj.events) >= 1
    assert counts["metric_at"] == counts["metrics"] >= len(traj.events)
