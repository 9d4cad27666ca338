"""Acceptance suite: one test per shipped criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion. Each criterion is asserted exactly at the tolerance it
ships with; a failure here is a release blocker.
"""

import functools
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import linregress

from simpact.cli import report_energy, run
from simpact.design import legtail_orthogonality_problem, solve_orthogonal, xi_at_optimum
from simpact.metric import KineticMetric, inner, is_feasible, norm
from simpact.models import BallModel, BilliardsModel, CradleModel
from simpact.resolution import (
    CascadePolicy,
    CascadeStatus,
    elastic_cascade,
    plastic_resolve,
    reflect,
    two_contact_reflection_bound,
)
from simpact.stepper import StepperConfig, simulate
from simpact.uniqueness import classify_pair
from simpact.design import sweep_point, theta_sweep

from conftest import (
    doubly_infeasible_momentum,
    metric_orthonormal_set,
    pair_with_inner,
    random_metric,
    random_unit_covector,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def criterion(number, label):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} {label}: FAIL")
                raise
            print(f"ACCEPTANCE {number:02d} {label}: PASS")

        return wrapper

    return decorator


@criterion(1, "cradle reset, both orders, three-stage classification")
def test_criterion_1_cradle_reset():
    start = time.perf_counter()
    for mass in (1.0,):
        metric = KineticMetric(mass * np.eye(3))
        u = np.array([-1.0, 1.0, 0.0])
        v = np.array([0.0, -1.0, 1.0])
        cls = classify_pair(metric, u, v)
        assert cls.kind == "three-stage"
        assert abs(cls.inner_value + 0.5) <= 1e-12
        for speed in (0.1, 1.0, 10.0):
            p = mass * np.array([speed, 0.0, 0.0])
            expected = mass * np.array([0.0, 0.0, speed])
            for order in ((0, 1), (1, 0)):
                out = elastic_cascade(metric, p, [u, v], CascadePolicy.fixed(order))
                assert out.status is CascadeStatus.CONVERGED
                assert np.abs(out.p_plus - expected).max() < 1e-10 * mass * speed
    assert time.perf_counter() - start < 1.0


@criterion(2, "two-contact existence bound over 10^4 random instances")
def test_criterion_2_existence_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 10_000:
        n = int(rng.integers(2, 9))
        metric = random_metric(rng, n)
        u = random_unit_covector(metric, rng)
        v = random_unit_covector(metric, rng)
        if abs(inner(metric, u, v)) > 1.0 - 1e-9:
            continue
        p = doubly_infeasible_momentum(metric, rng, u, v)
        bound = two_contact_reflection_bound(metric, u, v)
        out = elastic_cascade(metric, p, [u, v])
        assert out.status is CascadeStatus.CONVERGED, "cap exceeded"
        assert len(out.sequence) <= bound
        assert is_feasible(metric, out.p_plus, [u, v])
        checked += 1
    assert time.perf_counter() - start < 30.0


@criterion(3, "reflection identity suite at stated tolerances")
def test_criterion_3_identity_suite():
    rng = np.random.default_rng(7)

    # Involution: applying the same reflection twice is the identity.
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        metric = random_metric(rng, n)
        p = rng.standard_normal(n)
        u = rng.standard_normal(n)
        p2, _ = reflect(metric, *reflect(metric, p, u)[:1], u)
        assert np.abs(p2 - p).max() <= 1e-11 * max(1.0, np.abs(p).max())

    # Scale invariance of the reflection in its normal argument.
    for _ in range(1000):
        metric = random_metric(rng, 4)
        p = rng.standard_normal(4)
        u = rng.standard_normal(4)
        ref, _ = reflect(metric, p, u)
        for alpha in (1e-6, 1.0, 1e6):
            got, _ = reflect(metric, p, alpha * u)
            assert np.abs(got - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())

    # Conformality: inner products survive a common reflection.
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        metric = random_metric(rng, n)
        pa, pb, w = rng.standard_normal((3, n))
        qa, _ = reflect(metric, pa, w)
        qb, _ = reflect(metric, pb, w)
        before = inner(metric, pa, pb)
        assert abs(inner(metric, qa, qb) - before) <= 1e-10 * max(1.0, abs(before))

    # Minimal sequences never repeat a normal, and impulses stay positive.
    for _ in range(1000):
        metric = random_metric(rng, 4)
        u = random_unit_covector(metric, rng)
        v = random_unit_covector(metric, rng)
        if abs(inner(metric, u, v)) > 1.0 - 1e-9:
            continue
        p = doubly_infeasible_momentum(metric, rng, u, v)
        out = elastic_cascade(metric, p, [u, v])
        assert all(a != b for a, b in zip(out.sequence, out.sequence[1:]))
        assert all(lam > 0.0 for lam in out.impulses)

    # Span/null decomposition and the feasibility equivalence: the plastic
    # outcome is the null part, its negated impulses span the rest.
    for _ in range(1000):
        n = int(rng.integers(3, 7))
        metric = random_metric(rng, n)
        u = random_unit_covector(metric, rng)
        v = random_unit_covector(metric, rng)
        if abs(inner(metric, u, v)) > 1.0 - 1e-9:
            continue
        p = rng.standard_normal(n)
        plastic = plastic_resolve(metric, p, [u, v])
        s = -np.asarray(plastic.impulses) @ np.array([u, v])
        z = plastic.p_plus
        assert np.abs(s + z - p).max() <= 1e-12 * max(1.0, np.abs(p).max())
        assert abs(inner(metric, s, z)) <= 1e-10 * max(1.0, norm(metric, p) ** 2)
        assert is_feasible(metric, p, [u, v]) == is_feasible(
            metric, s, [u, v], tol=1e-12
        )

    # Angle march: alternating reflections of the unit bisector sweep
    # multiples of twice the half-angle.
    for _ in range(1000):
        metric = random_metric(rng, 3)
        c = float(rng.uniform(-0.9, 0.9))
        u, v = pair_with_inner(metric, rng, c)
        bisector = np.asarray(u) + np.asarray(v)
        r0 = bisector / norm(metric, bisector)
        gamma = math.asin(min(1.0, norm(metric, bisector) / 2))
        r = r0.copy()
        for i in range(1, min(int(math.ceil(math.pi / gamma)), 12) + 1):
            r, _ = reflect(metric, r, u if i % 2 == 1 else v)
            assert abs(inner(metric, r, r0) - math.cos(2 * i * gamma)) <= 1e-9


@criterion(4, "orthogonal n-sets and three-stage uniqueness")
def test_criterion_4_uniqueness():
    rng = np.random.default_rng(11)
    # (a) pairwise orthogonal sets: every order of application agrees.
    for n_normals in (2, 3, 4, 5):
        metric = random_metric(rng, max(5, n_normals))
        normals = metric_orthonormal_set(metric, rng, n_normals)
        weights = rng.uniform(0.2, 2.0, size=n_normals)
        p = -sum(w * u for w, u in zip(weights, normals))
        reference = None
        for order in itertools.permutations(range(n_normals)):
            out = elastic_cascade(metric, p, normals, CascadePolicy.fixed(order))
            assert sorted(out.sequence) == list(range(n_normals))
            if reference is None:
                reference = out.p_plus
            else:
                assert norm(metric, out.p_plus - reference) <= 1e-10 * max(
                    1.0, norm(metric, p)
                )
    # (b) three-stage pairs agree across orders and satisfy the exit map.
    for _ in range(300):
        n = int(rng.integers(2, 6))
        metric = random_metric(rng, n)
        u, v = pair_with_inner(metric, rng, -0.5)
        p = doubly_infeasible_momentum(metric, rng, u, v)
        first = elastic_cascade(metric, p, [u, v], CascadePolicy.fixed((0, 1)))
        second = elastic_cascade(metric, p, [u, v], CascadePolicy.fixed((1, 0)))
        scale = max(1.0, norm(metric, p))
        assert norm(metric, first.p_plus - second.p_plus) <= 1e-10 * scale
        pf = first.p_plus
        assert abs(inner(metric, pf, u) + inner(metric, p, v)) <= 1e-10 * scale
        assert abs(inner(metric, pf, v) + inner(metric, p, u)) <= 1e-10 * scale


@criterion(5, "billiards closed form and indeterminacy sweep")
def test_criterion_5_billiards():
    from simpact.models import billiards_pair_inner

    model = BilliardsModel([1.3, 2.1, 1.7], [0.12, 0.1, 0.11])
    lo = model.min_break_angle()
    for theta in np.linspace(lo + 1e-9, math.pi - 1e-9, 64):
        q = model.double_contact_configuration(theta)
        value = billiards_pair_inner(model, q)  # raises beyond 1e-12 itself
        assert value == pytest.approx(
            math.cos(theta) / model.masses[2], rel=1e-12, abs=1e-13
        )

    sweeper = BilliardsModel([1.0, 1.0, 9.0], [0.1, 0.1, 0.3])
    assert sweep_point(sweeper, math.pi / 2) < 1e-10
    assert sweep_point(sweeper, math.pi) < 1e-10
    start = time.perf_counter()
    curve = theta_sweep(sweeper, sweeper.min_break_angle() + 1e-6, math.pi, 200)
    assert time.perf_counter() - start < 10.0
    assert curve[:, 1].max() > 1e-3


@criterion(6, "restitution energy fractions and no energy creation")
def test_criterion_6_restitution(tmp_path):
    model = CradleModel([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
    expected = {1.0: 0.0, 0.7: (1 - 0.49) * 2 / 3, 0.0: 2 / 3}
    for speed in (0.1, 1.0, 10.0):
        q0 = model.touching_positions()
        q0[0] -= 0.03
        duration = 0.08 / speed
        h = duration / 40
        for r_value, fraction in expected.items():
            cfg = StepperConfig(h=h, restitution=r_value)
            traj = simulate(model, q0, [speed, 0.0, 0.0], duration, cfg)
            ledger = report_energy(traj, initial_energy=0.5 * speed**2)
            assert ledger.loss_fraction == pytest.approx(fraction, abs=1e-6)

    # No shipped scenario may gain energy; the ledger raises if one does.
    for name in ("ball_zeno.json", "cradle_restitution.json"):
        paths = run(SCENARIOS / name, out_dir=tmp_path / name)
        events = [p for p in paths if p.name == "events.csv"]
        assert events, "simulate scenario must emit events"


@criterion(7, "integrator identities, long-run energy, apex stability")
def test_criterion_7_integrator():
    start = time.perf_counter()

    # Closed-form one dimensional gravity step: the second step of a run
    # starts from the node momentum of the first.
    from test_stepper import GravityParticle, Oscillator

    g, h = 9.81, 0.02
    model = GravityParticle(g)
    traj = simulate(model, [0.01], [0.15], 2 * h, StepperConfig(h=h))
    q_prev, q_curr, q_next = traj.states[:, 0]
    assert abs(q_next - (2 * q_curr - q_prev - g * h * h)) < 1e-12

    # Harmonic oscillator: 1e5 steps, tight energy band, no drift trend.
    # The implicit solve runs at machine tolerance so that any residual
    # trend reflects the integrator, not the Newton stopping rule.
    period = 2 * math.pi
    osc = Oscillator()
    cfg = StepperConfig(h=period / 100, newton_tol=1e-14)
    traj = simulate(osc, [1.0], [0.0], 1000 * period, cfg)
    assert traj.times.size == 100_001
    energy = 0.5 * traj.momenta[:, 0] ** 2 + 0.5 * traj.states[:, 0] ** 2
    band = (energy.max() - energy.min()) / energy[0]
    assert band < 0.02
    # Period-averaged energies remove the in-period oscillation; the
    # remaining trend must be statistically indistinguishable from zero.
    per_period = energy[: 100 * (energy.size // 100)].reshape(-1, 100).mean(axis=1)
    t_centers = traj.times[50 : per_period.size * 100 : 100]
    fit = linregress(t_centers, per_period)
    total_drift = abs(fit.slope) * (traj.times[-1] - traj.times[0])
    assert abs(fit.slope) <= 1.96 * fit.stderr or total_drift <= 1e-10 * energy[0]

    # Elastic bounce apexes stay put to second order in the step.
    for h_ball in (0.02, 0.01):
        ball = BallModel(1.0, gravity=9.81)
        traj = simulate(
            ball, [0.5], [0.0], 4.0, StepperConfig(h=h_ball, restitution=1.0)
        )
        speeds = np.array([math.sqrt(2 * ev.energy_before) for ev in traj.events])
        assert speeds.size >= 5
        apex = speeds**2 / (2 * 9.81)
        assert np.abs(apex - 0.5).max() < 0.5 * h_ball**2

    assert time.perf_counter() - start < 60.0


@criterion(8, "Zeno fallback to persistent contact with clean release")
def test_criterion_8_zeno():
    model = BallModel(1.0)
    cfg = StepperConfig(h=0.01, restitution=0.5)

    def lift(q, v, t):
        return np.array([30.0]) if t > 0.8 else np.array([0.0])

    traj = simulate(model, [0.05], [0.0], 1.2, cfg, forces=lift)
    forced = [ev for ev in traj.events if ev.forced == "zeno"]
    assert forced, "chatter must reach the Zeno guard in finite time"
    t_rest = forced[0].t
    assert t_rest < 0.8
    resting = (traj.times > t_rest + cfg.h) & (traj.times < 0.8)
    assert np.abs(traj.states[resting, 0]).max() < 1e-9
    lams = [lam for (t, c, lam) in traj.holds if t_rest < t <= 0.8]
    assert lams and min(lams) >= 0.0
    assert traj.states[-1, 0] > 0.01  # released by the upward force


@criterion(9, "orthogonality optimization from 20 random starts")
def test_criterion_9_design():
    rng = np.random.default_rng(13)
    from test_design import random_legtail_start

    solved = 0
    while solved < 20:
        model, q0 = random_legtail_start(rng)
        problem = legtail_orthogonality_problem(model, q0, tol_inner=1e-10)
        result = solve_orthogonal(problem)
        assert result.iterations <= 200
        assert abs(result.inner_value) <= 1e-6
        opt_model = problem.model_factory(result.params_opt)
        assert xi_at_optimum(opt_model, result.q_opt, samples=100, seed=solved) < 1e-8
        solved += 1


@criterion(10, "byte-identical reruns of every shipped scenario")
def test_criterion_10_determinism(tmp_path):
    for scenario in sorted(SCENARIOS.glob("*.json")):
        first = run(scenario, out_dir=tmp_path / "a" / scenario.stem, seed=0)
        second = run(scenario, out_dir=tmp_path / "b" / scenario.stem, seed=0)
        assert [p.name for p in first] == [p.name for p in second]
        for pa, pb in zip(first, second):
            assert pa.read_bytes() == pb.read_bytes(), f"{scenario.name}: {pa.name}"
