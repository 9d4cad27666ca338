"""The four seeded workloads: inputs, ops and output checks.

Each workload is a fixed composition of ops (one *cycle*), with the
continuous inputs of every op drawn from the seed. A run repeats the
cycle, so every seed runs the same mix. Models, stepper configs and
policies are built here with simpact's own constructors, before any
timing; an op calls the public API on those inputs only.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
import simpact as sp
import simpact.cli as sp_cli
from simpact import metric as mt
from simpact.stepper import PENETRATION_RTOL, FrictionConfig

import shapes
import systems

#: Per-op deadline of the resolve workload, in seconds. The catalog's
#: fast queries take at most 30 ms and its slow one over 5 s.
RESOLVE_DEADLINE_S = 0.25

#: Deadline of the other workloads, far above any of their ops.
DEFAULT_DEADLINE_S = 30.0


@dataclass
class Op:
    """One closed-loop request: ``run()`` is timed, ``check`` is not.

    ``check(result)`` returns the name of the first failed output check,
    or None. ``info(result)`` returns counts the report aggregates:
    ``steps``, ``events``, ``forced`` and ``holds`` for simulations,
    ``bytes`` for CLI runs.
    """

    label: str
    inputs: dict
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    info: Callable[[Any], dict] = lambda result: {}


@dataclass
class Workload:
    name: str
    ops: list[Op]
    deadline_s: float = DEFAULT_DEADLINE_S
    files: dict[str, dict] = field(default_factory=dict)

    @property
    def input_hash(self) -> str:
        blob = json.dumps(
            [[op.label, op.inputs] for op in self.ops], sort_keys=True
        ).encode()
        return hashlib.sha256(blob).hexdigest()

    def composition(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for op in self.ops:
            family = op.label.split(" ")[0]
            out[family] = out.get(family, 0) + 1
        return out


def _floats(values) -> list:
    return [float(v) for v in np.ravel(values)]


def _trajectory_info(traj) -> dict:
    forced: dict[str, int] = {}
    for ev in traj.events:
        if ev.forced:
            forced[ev.forced] = forced.get(ev.forced, 0) + 1
    return {
        "steps": traj.times.size - 1,
        "events": len(traj.events),
        "forced": forced,
        "holds": len(traj.holds),
    }


def _interleave(rng, groups: list[list[Op]]) -> list[Op]:
    ops = [op for group in groups for op in group]
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# integrate


def _simulate_op(label, inputs, model, q0, qdot0, duration, cfg, check, forces=None,
                 info=_trajectory_info):
    q0 = np.asarray(q0, dtype=float)
    qdot0 = np.asarray(qdot0, dtype=float)
    return Op(
        label=label,
        inputs=inputs,
        run=lambda: sp.simulate(model, q0, qdot0, duration, cfg, forces),
        check=check,
        info=info,
    )


def _finite(traj) -> str | None:
    ok = np.all(np.isfinite(traj.states)) and np.all(np.isfinite(traj.momenta))
    return None if ok else "finite"


def build_integrate(seed: int) -> Workload:
    """34 each of oscillator, pendulum and polar spring, 50 steps apiece."""
    rng = np.random.default_rng([seed, 1])
    osc, pend, polar = [], [], []
    for _ in range(34):
        m, k = rng.uniform(0.5, 2.0), rng.uniform(1.0, 10.0)
        model = systems.Oscillator(m, k)
        q0, qd0 = rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0)
        cfg = sp.StepperConfig(h=model.period / 100, newton_tol=1e-14)

        def band(traj, model=model):
            energy = model.energy(traj.states, traj.momenta)
            if (energy.max() - energy.min()) / energy[0] >= 0.02:
                return "energy_band"
            return _finite(traj)

        osc.append(
            _simulate_op(
                "oscillator", {"m": m, "k": k, "q0": q0, "qdot0": qd0},
                model, [q0], [qd0], 0.5 * model.period, cfg, band,
            )
        )

        m, length = rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5)
        th0, om0 = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        pend.append(
            _simulate_op(
                "pendulum", {"m": m, "l": length, "q0": th0, "qdot0": om0},
                systems.Pendulum(m, length), [th0], [om0], 0.5,
                sp.StepperConfig(h=0.01), _finite,
            )
        )

        m, k, r0 = rng.uniform(0.5, 2.0), rng.uniform(5.0, 20.0), rng.uniform(0.5, 1.5)
        r_init, om0 = r0 * rng.uniform(0.9, 1.1), rng.uniform(0.5, 1.5)
        polar.append(
            _simulate_op(
                "polar", {"m": m, "k": k, "r0": r0, "q0": [r_init, 0.0], "qdot0": [0.0, om0]},
                systems.PolarSpring(m, k, r0), [r_init, 0.0], [0.0, om0], 0.5,
                sp.StepperConfig(h=0.01), _finite,
            )
        )
    return Workload("integrate", _interleave(rng, [osc, pend, polar]))


# ---------------------------------------------------------------------------
# impacts

LEGTAIL_R = (0.0, 0.3, 0.5, 0.9, 1.0)
CRADLE_R = (0.0, 0.3, 0.5, 0.7, 1.0)
BALL_R = (0.3, 0.4, 0.5, 0.6)
BALL_PERIODS = (0.6, 0.8)


def _contact_checks(model, q0, qdot0, cfg):
    """Output check and report counts of a contact simulation.

    The check wants an energy ledger without gain and no sample beyond
    the penetration tolerance. A free contact may not sink below the
    stepper's crossing threshold, ``PENETRATION_RTOL`` of the length
    scale. A contact held at a sample is pinned by the constrained
    Newton solve, whose gap residual is ``newton_tol`` of the length
    scale, so that is its floor; ``held_drift`` counts the samples in
    which a held contact lies below the free floor.
    """
    metric0 = model.metric_at(q0)
    e0 = 0.5 * mt.norm(metric0, qdot0 @ model.mass_matrix(q0)) ** 2 + model.potential(q0)
    free_floor = -PENETRATION_RTOL * model.length_scale
    held_floor = -cfg.newton_tol * model.length_scale

    last: dict = {}

    def table(traj):
        """Gaps of every sample and a mask of the contacts held there.

        Computed once per trajectory: the run calls ``check`` and then
        ``info`` on the same result.
        """
        if last.get("traj") is not traj:
            gaps = np.array([model.gaps(q) for q in traj.states])
            held = np.zeros(gaps.shape, dtype=bool)
            row = {t: k for k, t in enumerate(traj.times)}
            for t, contact, _ in traj.holds:
                held[row[t], contact] = True
            last.update(traj=traj, gaps=gaps, held=held)
        return last["gaps"], last["held"]

    def check(traj):
        try:
            sp_cli.report_energy(traj, initial_energy=e0)
        except sp.EnergyGainError:
            return "energy_gain"
        gaps, held = table(traj)
        if np.any(gaps < np.where(held, held_floor, free_floor)):
            return "penetration"
        return None

    def info(traj):
        gaps, held = table(traj)
        drift = int(np.any(held & (gaps < free_floor), axis=1).sum())
        return {**_trajectory_info(traj), "held_drift": drift}

    return check, info


def _lift(amplitude: float, period: float):
    """Upward force amplitude * sin^8(pi t / period): lifts off, then lets go."""

    def force(q, v, t):
        return np.array([amplitude * math.sin(math.pi * t / period) ** 8])

    return force


def build_impacts(seed: int) -> Workload:
    """Leg-tail drop cells, touching cradles and a ball under periodic lift."""
    rng = np.random.default_rng([seed, 2])
    legtail = []
    for r in LEGTAIL_R:
        for friction in (False, True):
            model = sp.LegTailModel(1.2, 0.08, [0.3, -0.25], [-0.1, -0.25])
            q0 = model.double_contact_pose()
            q0[1] += 0.05
            cfg = sp.StepperConfig(
                h=0.005,
                restitution=r,
                friction=FrictionConfig(0.5, (0, 1)) if friction else None,
            )
            qd0 = np.zeros(3)
            check, info = _contact_checks(model, q0, qd0, cfg)
            legtail.append(
                _simulate_op(
                    f"legtail R={r} friction={'on' if friction else 'off'}",
                    {"q0": _floats(q0), "R": r, "friction": friction},
                    model, q0, qd0, 0.5, cfg, check, info=info,
                )
            )
    cradles = []
    for _ in range(6):
        for n, r in itertools.product((3, 4, 5), CRADLE_R):
            masses = rng.uniform(0.5, 2.0, n)
            model = sp.CradleModel(masses, [0.1] * n)
            cfg = sp.StepperConfig(h=0.005, restitution=r)
            q0 = model.touching_positions()
            q0[0] -= 0.05
            qd0 = np.zeros(n)
            qd0[0] = rng.uniform(0.5, 1.5)
            check, info = _contact_checks(model, q0, qd0, cfg)
            cradles.append(
                _simulate_op(
                    f"cradle n={n} R={r}",
                    {"masses": _floats(masses), "qdot0": _floats(qd0), "R": r},
                    model, q0, qd0, 0.3, cfg, check, info=info,
                )
            )
    balls = []
    for _ in range(2):
        for r, period in itertools.product(BALL_R, BALL_PERIODS):
            mass = rng.uniform(0.5, 2.0)
            model = sp.BallModel(mass)
            cfg = sp.StepperConfig(h=0.01, restitution=r)
            amplitude = mass * 9.81 * rng.uniform(2.45, 2.55)
            period_j = period * rng.uniform(0.98, 1.02)
            q0, qd0 = np.array([rng.uniform(0.045, 0.055)]), np.zeros(1)
            check, info = _contact_checks(model, q0, qd0, cfg)
            balls.append(
                _simulate_op(
                    f"ball R={r} T={period}",
                    {"m": mass, "lift": amplitude, "T": period_j, "q0": float(q0[0])},
                    model, q0, qd0, 3.0, cfg, check,
                    forces=_lift(amplitude, period_j), info=info,
                )
            )
    return Workload("impacts", _interleave(rng, [legtail, cradles, balls]))


# ---------------------------------------------------------------------------
# resolve

#: Two-contact classes by unit inner product; None draws a generic value.
PAIR_CLASSES = (
    ("orthogonal", 0.0, "orthogonal"),
    ("three-stage", -0.5, "three-stage"),
    ("near-parallel", 0.995, "indeterminate"),
    ("narrow-wedge", -0.995, "indeterminate"),
    ("generic", None, "indeterminate"),
)
KINDS = ("elastic", "inelastic", "plastic")
POLICIES = ("most-violating", "least-violating", "fixed")


def _resolve_op(rng, label, gram, violations, kind, n, policy_name, expected=None) -> Op:
    k = len(violations)
    mass, normals, p = shapes.embed(
        rng, gram, violations, n, rng.uniform(0.0, 1.0), rng.uniform(0.5, 2.0, k)
    )
    normals = list(normals)
    if policy_name == "fixed":
        policy_name = "fixed:" + ",".join(str(i) for i in rng.permutation(k))
    policy = sp.CascadePolicy.parse(policy_name)
    restitution = float(rng.uniform(0.05, 0.95)) if kind == "inelastic" else None

    def run():
        # As cli._task_resolve: metric, resolution, xi, then the pair class.
        metric = sp.KineticMetric(mass)
        if kind == "elastic":
            out = sp.elastic_cascade(metric, p, normals, policy)
        elif kind == "inelastic":
            out = sp.inelastic_resolve(metric, p, normals, restitution, policy)
        else:
            out = sp.plastic_resolve(metric, p, normals)
        if k == 2:
            xi = sp.indeterminacy_xi(metric, p, normals[0], normals[1])
        else:
            xi, _ = sp.pairwise_xi(metric, p, normals)
        return metric, out, xi, sp.classify_pair(metric, normals[0], normals[1])

    def check(result):
        metric, out, xi, pair = result
        e_minus = 0.5 * mt.norm(metric, p) ** 2
        e_plus = 0.5 * mt.norm(metric, out.p_plus) ** 2
        if kind == "elastic":
            if abs(e_plus - e_minus) > 1e-10 * e_minus:
                return "elastic_energy"
        elif e_plus > e_minus * (1.0 + 1e-10):
            return "energy_gain"
        if out.converged and not mt.is_feasible(metric, out.p_plus, normals, mt.DEADBAND):
            return "feasibility"
        if kind == "inelastic":
            plastic = sp.plastic_resolve(metric, p, normals)
            e_plastic = 0.5 * mt.norm(metric, plastic.p_plus) ** 2
            r2 = restitution * restitution
            if abs(e_plus - (r2 * e_minus + (1.0 - r2) * e_plastic)) > 1e-9 * e_minus:
                return "energy_split"
        if not math.isfinite(xi):
            return "xi_finite"
        if expected is not None and pair.kind != expected:
            return "classification"
        return None

    inputs = {
        "mass": _floats(mass),
        "normals": _floats(normals),
        "p": _floats(p),
        "kind": kind,
        "policy": policy_name,
        "R": restitution,
    }
    return Op(label, inputs, run, check)


def _pair_violations(rng, c: float, stratum: int, strata: int) -> np.ndarray:
    """Inner products of an infeasible momentum with two unit normals.

    The momentum's direction in the normals' plane, which sets the
    cascade length, is drawn from one of ``strata`` equal sectors, so
    every seed covers the circle the same way; a feasible direction is
    turned round, which makes it infeasible against both normals.
    """
    phi = 2.0 * math.pi * (stratum + rng.uniform()) / strata
    s = math.sqrt(1.0 - c * c)
    y = rng.uniform(0.5, 1.5) * np.array([math.cos(phi), c * math.cos(phi) + s * math.sin(phi)])
    return -y if np.all(y >= 0.0) else y


def build_resolve(seed: int) -> Workload:
    """240 two-contact queries plus the 3- and 4-contact shape catalog.

    Dimension, policy and momentum direction are stratified over the 16
    repetitions of each (pair class, resolution kind) cell, so the work
    per cycle depends on the seed only through the continuous draws.
    """
    rng = np.random.default_rng([seed, 3])
    reps = 16
    pairs = []
    for r in range(reps):
        for name, c, expected in PAIR_CLASSES:
            for kind in KINDS:
                value = -0.9 + 1.8 * (r + rng.uniform()) / reps if c is None else c
                gram = np.array([[1.0, value], [value, 1.0]])
                pairs.append(
                    _resolve_op(
                        rng, f"pair {name} {kind}", gram, _pair_violations(rng, value, r, reps),
                        kind, 3 + r % 6, POLICIES[r % 3], expected,
                    )
                )
    many = []
    for k in (3, 4):
        for j, (index, gram, violations) in enumerate(shapes.catalog(k)):
            kind = KINDS[j % len(KINDS)]
            many.append(
                _resolve_op(
                    rng, f"contacts{k} shape={index} {kind}", gram, violations, kind,
                    k + 1 + j % (8 - k), POLICIES[j % 3],
                )
            )
    return Workload("resolve", _interleave(rng, [pairs, many]), deadline_s=RESOLVE_DEADLINE_S)


# ---------------------------------------------------------------------------
# scenarios


def _variant_configs(rng) -> dict[str, dict]:
    """95 seeded configs: 10 sweeps, 4 optimizations, 60 resolves, 21 simulations."""
    configs: dict[str, dict] = {}
    for i in range(10):
        masses = _floats([rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(2.0, 10.0)])
        radii = _floats([rng.uniform(0.08, 0.12), rng.uniform(0.08, 0.12), rng.uniform(0.15, 0.3)])
        start = sp.BilliardsModel(masses, radii).min_break_angle() + rng.uniform(0.01, 0.1)
        configs[f"sweep{i}"] = {
            "model": {"type": "billiards", "masses": masses, "radii": radii},
            "task": {
                "kind": "sweep", "variable": "theta", "start": start, "stop": math.pi,
                "samples": 20 + 5 * i, "cue_speed": rng.uniform(0.5, 2.0),
            },
        }
    for i in range(4):
        section = {
            "type": "legtail",
            "mass": rng.uniform(1.0, 1.5),
            "inertia": rng.uniform(0.06, 0.1),
            "contact_a": [0.3 * rng.uniform(0.9, 1.1), -0.25 * rng.uniform(0.9, 1.1)],
            "contact_b": [-0.1 * rng.uniform(0.9, 1.1), -0.25 * rng.uniform(0.9, 1.1)],
            "gravity": 9.81,
        }
        pose = sp_cli.build_model(section).double_contact_pose()
        configs[f"optimize{i}"] = {
            "model": section,
            "initial": {"q": _floats(pose)},
            "task": {
                "kind": "optimize", "free_q": ["y", "theta"],
                "free_params": ["ax", "bx"], "tol_inner": 1e-10,
            },
        }
    for i in range(60):
        n = 3 + i % 3
        model = sp.CradleModel(rng.uniform(0.5, 2.0, n), [0.1] * n)
        p_minus = np.zeros(n)
        p_minus[0] = rng.uniform(0.5, 1.5)
        configs[f"resolve{i}"] = {
            "model": {"type": "cradle", "masses": _floats(model.masses), "radii": [0.1] * n},
            "initial": {"q": _floats(model.touching_positions())},
            "task": {
                "kind": "resolve", "p_minus": _floats(p_minus),
                "restitution": (1.0, 0.7, 0.5, 0.0)[i % 4],
            },
        }
    for i in range(7):
        configs[f"ball{i}"] = {
            "model": {"type": "ball", "mass": rng.uniform(0.5, 2.0), "gravity": 9.81},
            "initial": {"q": [rng.uniform(0.04, 0.06)], "qdot": [0.0]},
            "stepper": {"h": 0.01, "restitution": rng.uniform(0.4, 0.6)},
            "task": {"kind": "simulate", "duration": 0.5},
        }
    for i in range(14):
        n = 3 + i % 3
        model = sp.CradleModel(rng.uniform(0.5, 2.0, n), [0.1] * n)
        q = model.touching_positions()
        q[0] -= 0.05
        configs[f"cradle{i}"] = {
            "model": {"type": "cradle", "masses": _floats(model.masses), "radii": [0.1] * n},
            "initial": {"q": _floats(q), "qdot": [1.0] + [0.0] * (n - 1)},
            "stepper": {"h": 0.005, "restitution": rng.uniform(0.5, 0.9)},
            "task": {"kind": "simulate", "duration": 0.2},
        }
    for config in configs.values():
        config["seed"] = 0
    return configs


def _digest(paths) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for path in sorted(str(p) for p in paths):
        data = Path(path).read_bytes()
        h.update(path.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def build_scenarios(seed: int, root: Path, work_dir: Path) -> Workload:
    """Shipped scenario files plus seeded variants of each task kind.

    ``work_dir`` receives the config files (see :func:`write_configs`)
    and the outputs; every op is one in-process ``simpact.cli.run``.
    """
    rng = np.random.default_rng([seed, 4])
    configs = {
        f"shipped_{path.stem}": json.loads(path.read_text())
        for path in sorted((root / "scenarios").glob("*.json"))
    }
    if len(configs) != 5:
        raise FileNotFoundError(f"expected the five shipped scenarios under {root / 'scenarios'}")
    configs.update(_variant_configs(rng))
    first: dict[str, str] = {}

    def make(name):
        config_path = work_dir / "configs" / f"{name}.json"
        out_dir = work_dir / "out" / name

        def check(paths):
            digest, _ = _digest(paths)
            if first.setdefault(name, digest) != digest:
                return "rerun_identical"
            return None

        family = "shipped" if name.startswith("shipped_") else name.rstrip("0123456789")
        return Op(
            label=f"{family} {name}",
            inputs=configs[name],
            run=lambda: sp_cli.run(config_path, out_dir=out_dir),
            check=check,
            info=lambda paths: {"bytes": _digest(paths)[1]},
        )

    ops = [make(name) for name in configs]
    return Workload("scenarios", _interleave(rng, [ops]), files=configs)


def write_configs(workload: Workload, work_dir: Path) -> list[Path]:
    """Write a scenarios workload's configs; returns their paths."""
    config_dir = work_dir / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, config in workload.files.items():
        path = config_dir / f"{name}.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths


def build(name: str, seed: int, root: Path, work_dir: Path) -> Workload:
    if name == "scenarios":
        return build_scenarios(seed, root, work_dir)
    return BUILDERS[name](seed)


BUILDERS = {
    "integrate": build_integrate,
    "impacts": build_impacts,
    "resolve": build_resolve,
}
NAMES = ("integrate", "impacts", "resolve", "scenarios")
