"""Scenario front-end: parse a JSON config, run one task, emit CSV reports.

A scenario file names a model, an initial state, stepper settings, and
exactly one task: ``simulate`` (time integration with impact events),
``resolve`` (a single impact resolution at the initial configuration),
``sweep`` (billiards break-angle indeterminacy curve), or ``optimize``
(drive a contact-normal pair to orthogonality). Every output file
carries a header block with the tool version, a hash of the effective
configuration, and the seed, and contains no timestamps, so repeated
runs are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from . import metric as mt
from .design import (
    BILLIARDS_SLOTS,
    LEGTAIL_PARAM_NAMES,
    LEGTAIL_Q_NAMES,
    billiards_orthogonality_problem,
    legtail_orthogonality_problem,
    solve_orthogonal,
    theta_sweep,
    xi_at_optimum,
)
from .errors import ConfigError, DimensionError, EnergyGainError, SimpactError
from .models import BallModel, BilliardsModel, CradleModel, LegTailModel, billiards_build
from .resolution import (
    CascadePolicy,
    elastic_cascade,
    enumerate_outcomes,
    inelastic_resolve,
)
from .stepper import (
    ACTIVATION_RTOL,
    FrictionConfig,
    StepperConfig,
    Trajectory,
    _fmt,
    simulate,
    write_table,
)
from .uniqueness import PAIRWISE_DEPTH_CAP, indeterminacy_xi, outcome_xi

#: Relative energy gain beyond which the ledger raises a hard error.
GAIN_RTOL = 1e-9

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TASK = 3
EXIT_IO = 4

_NUMBER_ARRAY = {"type": "array", "items": {"type": "number"}, "minItems": 1}

SCHEMA = {
    "type": "object",
    "required": ["model", "task"],
    "additionalProperties": False,
    "properties": {
        "model": {
            "type": "object",
            "required": ["type"],
            "properties": {
                "type": {"enum": ["cradle", "billiards", "ball", "legtail"]},
                "masses": _NUMBER_ARRAY,
                "radii": _NUMBER_ARRAY,
                "mass": {"type": "number"},
                "inertia": {"type": "number"},
                "gravity": {"type": "number"},
                "radius": {"type": "number"},
                "contact_a": _NUMBER_ARRAY,
                "contact_b": _NUMBER_ARRAY,
            },
            "additionalProperties": False,
        },
        "initial": {
            "type": "object",
            "properties": {"q": _NUMBER_ARRAY, "qdot": _NUMBER_ARRAY},
            "additionalProperties": False,
        },
        "stepper": {
            "type": "object",
            "properties": {
                "h": {"type": "number", "exclusiveMinimum": 0},
                "newton_tol": {"type": "number", "exclusiveMinimum": 0},
                "restitution": {
                    "anyOf": [
                        {"type": "number", "minimum": 0, "maximum": 1},
                        {
                            "type": "array",
                            "items": {"type": "number", "minimum": 0, "maximum": 1},
                        },
                    ]
                },
                "friction": {
                    "type": "object",
                    "required": ["mu"],
                    "properties": {
                        "mu": {"type": "number", "minimum": 0},
                        "contacts": {"type": "array", "items": {"type": "integer"}},
                    },
                    "additionalProperties": False,
                },
            },
            "additionalProperties": False,
        },
        "task": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["simulate", "resolve", "sweep", "optimize"]},
                "duration": {"type": "number", "exclusiveMinimum": 0},
                "p_minus": _NUMBER_ARRAY,
                "restitution": {"type": "number", "minimum": 0, "maximum": 1},
                "start": {"type": "number"},
                "stop": {"type": "number"},
                "samples": {"type": "integer", "minimum": 2},
                "cue_speed": {"type": "number", "exclusiveMinimum": 0},
                "variable": {"enum": ["theta"]},
                "free_q": {
                    "type": "array",
                    "items": {"enum": list(LEGTAIL_Q_NAMES)},
                    "uniqueItems": True,
                },
                "free_params": {
                    "type": "array",
                    "items": {"enum": list(LEGTAIL_PARAM_NAMES)},
                    "uniqueItems": True,
                },
                "free_balls": {
                    "type": "array",
                    "items": {"enum": list(BILLIARDS_SLOTS)},
                    "uniqueItems": True,
                },
                "tol_inner": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "policy": {"type": "string"},
        "seed": {"type": "integer"},
        "output": {
            "type": "object",
            "properties": {"dir": {"type": "string"}},
            "additionalProperties": False,
        },
    },
}


#: JSON type names and the values that have them. A bool is neither an
#: integer nor a number, and a number must be finite as a float.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (
        isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
    ),
}


def _same(a, b) -> bool:
    """JSON equality: ``1`` equals ``1.0``, and a bool equals no number."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _errors(value, schema: dict, path: tuple = ()):
    """Yield ``(path, message)`` for each way ``value`` breaks ``schema``.

    Implements only the JSON Schema keywords that ``SCHEMA`` uses, with
    the stricter ``_TYPES``; a value of the wrong type is checked no further.
    """
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        yield path, f"{value!r} is not of type {kind!r}"
        return
    if "enum" in schema and value not in schema["enum"]:
        yield path, f"{value!r} is not one of {schema['enum']!r}"
    if "anyOf" in schema and all(any(_errors(value, sub, path)) for sub in schema["anyOf"]):
        yield path, f"{value!r} is not valid under any of the given schemas"
    if "minimum" in schema and value < schema["minimum"]:
        yield path, f"{value!r} is less than the minimum of {schema['minimum']!r}"
    if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
        yield path, f"{value!r} is not greater than {schema['exclusiveMinimum']!r}"
    if "maximum" in schema and value > schema["maximum"]:
        yield path, f"{value!r} is greater than the maximum of {schema['maximum']!r}"
    if "minItems" in schema and len(value) < schema["minItems"]:
        yield path, f"{value!r} has fewer than {schema['minItems']} items"
    if schema.get("uniqueItems") and any(
        _same(a, b) for i, a in enumerate(value) for b in value[:i]
    ):
        yield path, f"{value!r} has non-unique elements"
    if "items" in schema:
        for i, item in enumerate(value):
            yield from _errors(item, schema["items"], path + (i,))
    for key in schema.get("required", ()):
        if key not in value:
            yield path, f"{key!r} is a required property"
    properties = schema.get("properties", {})
    if schema.get("additionalProperties", True) is False:
        unexpected = [key for key in value if key not in properties]
        if unexpected:
            yield path, f"unexpected properties {unexpected!r}"
    for key, sub in properties.items():
        if key in value:
            yield from _errors(value[key], sub, path + (key,))


def load_config(path) -> dict:
    """Parse and schema-validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    first = min(_errors(config, SCHEMA), key=lambda error: error[0], default=None)
    if first is not None:
        where = "$" + "".join(f"[{p!r}]" for p in first[0])
        raise ConfigError(f"{path}: invalid config at {where}: {first[1]}")
    return config


def build_model(section: dict, q0=None):
    """The model of a config's ``model`` section.

    ``q0``, the config's ``initial.q`` when it gives one, is checked for
    billiards balls that overlap at the start.
    """
    kind = section["type"]
    try:
        if kind == "cradle":
            return CradleModel(section["masses"], section["radii"])
        if kind == "billiards":
            return billiards_build(section["masses"], section["radii"], q0)
        if kind == "ball":
            return BallModel(
                section["mass"],
                section.get("gravity", 9.81),
                section.get("radius", 0.0),
            )
        if kind == "legtail":
            return LegTailModel(
                section["mass"],
                section["inertia"],
                section["contact_a"],
                section["contact_b"],
                section.get("gravity", 9.81),
            )
    except KeyError as exc:
        raise ConfigError(f"model section is missing field {exc}") from exc
    except (ValueError, SimpactError) as exc:
        where = "model section" if q0 is None else "model section or initial.q"
        raise ConfigError(f"{where} invalid: {exc}") from exc
    raise ConfigError(f"unknown model type {kind!r}")


def build_stepper_config(config: dict) -> StepperConfig:
    section = dict(config.get("stepper", {}))
    friction = section.pop("friction", None)
    if friction is not None:
        section["friction"] = FrictionConfig(
            mu=friction["mu"], contacts=tuple(friction.get("contacts", ()))
        )
    section.setdefault("h", 0.01)
    try:
        section["policy"] = CascadePolicy.parse(config.get("policy", "most-violating"))
        return StepperConfig(**section)
    except ValueError as exc:
        raise ConfigError(f"stepper section invalid: {exc}") from exc


@dataclass(frozen=True)
class EnergyLedger:
    """Per-event and cumulative impact energy accounting."""

    initial_energy: float
    rows: tuple[tuple[float, float, float], ...]  # (t, delta_e, cumulative)

    @property
    def total_loss(self) -> float:
        return self.rows[-1][2] if self.rows else 0.0

    @property
    def loss_fraction(self) -> float:
        if self.initial_energy == 0.0:
            return 0.0
        return self.total_loss / self.initial_energy


def report_energy(trajectory: Trajectory, initial_energy: float) -> EnergyLedger:
    """Build the impact energy ledger and reject any energy gain.

    A per-event gain larger than one part in a billion of the reference
    energy is a hard error: the resolution maps are dissipative by
    construction, so a gain can only mean a defect.
    """
    reference = max(abs(initial_energy), 1e-300)
    rows = []
    cumulative = 0.0
    for ev in trajectory.events:
        loss = ev.energy_loss
        if loss < -GAIN_RTOL * reference:
            raise EnergyGainError(
                f"impact at t={ev.t} gained energy: {-loss:.3e} "
                f"({-loss / reference:.3e} of reference)"
            )
        cumulative += loss
        rows.append((ev.t, loss, cumulative))
    return EnergyLedger(initial_energy=float(initial_energy), rows=tuple(rows))


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _header(config: dict, extra: Sequence[str] = ()) -> list[str]:
    lines = [
        f"simpact {__version__}",
        f"config-sha256: {_config_hash(config)}",
        f"seed: {config.get('seed', 0)}",
    ]
    lines.extend(extra)
    return lines


def _open(path: Path):
    """Open an output file for writing, creating its directory first.

    A task creates its output directory only with its first file, so a
    config error it finds leaves no directory behind.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="\n")


def _write_csv(path: Path, comments: Sequence[str], header: str, rows) -> None:
    with _open(path) as stream:
        write_table(stream, comments, header, rows)


def _initial_state(config: dict, model) -> tuple[np.ndarray, np.ndarray]:
    """The config's initial ``q`` and ``qdot``, zeros where it gives none; unchecked."""
    section = config.get("initial", {})
    q = np.asarray(section.get("q", np.zeros(model.dim)), dtype=float)
    qdot = np.asarray(section.get("qdot", np.zeros(model.dim)), dtype=float)
    return q, qdot


def _initial_q(config: dict, model) -> np.ndarray:
    """The initial ``q`` of a task that does not simulate, its state checked for length.

    ``simulate`` checks the state of the simulate task itself.
    """
    q, qdot = _initial_state(config, model)
    if q.size != model.dim or qdot.size != model.dim:
        raise ConfigError(
            f"initial state length must equal the model dimension {model.dim}"
        )
    return q


def _task_simulate(config, model, out_dir: Path) -> list[Path]:
    task = config["task"]
    if "duration" not in task:
        raise ConfigError("simulate task requires a duration")
    cfg = build_stepper_config(config)
    q0, qdot0 = _initial_state(config, model)
    trajectory = simulate(model, q0, qdot0, task["duration"], cfg)
    e0 = 0.5 * qdot0 @ model.mass_matrix(q0) @ qdot0 + model.potential(q0)
    ledger = report_energy(trajectory, initial_energy=e0)

    header = _header(config)
    traj_path = out_dir / "trajectory.csv"
    with _open(traj_path) as stream:
        trajectory.write_csv(stream, comments=header)
    events_path = out_dir / "events.csv"
    with _open(events_path) as stream:
        trajectory.write_events_csv(stream, comments=header)
    energy_path = out_dir / "energy.csv"
    _write_csv(
        energy_path,
        header,
        "t,delta_e,cumulative,fraction_of_initial",
        (
            (
                _fmt(t),
                _fmt(de),
                _fmt(cum),
                _fmt(cum / ledger.initial_energy if ledger.initial_energy else 0.0),
            )
            for t, de, cum in ledger.rows
        ),
    )
    return [traj_path, events_path, energy_path]


def _active_normals(model, q, tol):
    gaps = model.gaps(q)
    grads = model.gap_gradients(q)
    idx = [i for i in range(gaps.size) if abs(gaps[i]) <= tol]
    if not idx:
        raise ConfigError(
            f"resolve task needs contacts closed at the initial q; gaps {gaps}"
        )
    return idx, [grads[i] for i in idx]


def _task_resolve(config, model, out_dir: Path) -> list[Path]:
    task = config["task"]
    if "p_minus" not in task:
        raise ConfigError("resolve task requires p_minus")
    policy = CascadePolicy.parse(config.get("policy", "most-violating"))
    q0 = _initial_q(config, model)
    p_minus = np.asarray(task["p_minus"], dtype=float)
    if p_minus.size != model.dim:
        raise ConfigError("p_minus length must equal the model dimension")
    metric = model.metric_at(q0)
    idx, normals = _active_normals(model, q0, ACTIVATION_RTOL * model.length_scale)
    try:
        policy = policy.for_contacts(idx)
    except ValueError as exc:
        raise ConfigError(f"cascade policy does not fit the closed contacts: {exc}") from exc
    restitution = task.get("restitution", 1.0)
    # At R = 0 the blend's momentum is the plastic projection's, bit for
    # bit, and its status is the cascade's.
    if restitution >= 1.0:
        outcome = elastic_cascade(metric, p_minus, normals, policy)
    else:
        outcome = inelastic_resolve(metric, p_minus, normals, restitution, policy)
    labels = model.contact_labels
    seq = ";".join(labels[idx[k]] for k in outcome.sequence)
    e_minus = 0.5 * mt.norm(metric, p_minus) ** 2
    e_plus = 0.5 * mt.norm(metric, outcome.p_plus) ** 2

    if len(normals) == 2:
        xi_max = indeterminacy_xi(metric, p_minus, normals[0], normals[1])
        xi_mean = xi_max
        notes = ["xi-mode: two-contact"]
    else:
        # Beyond the two-contact definition; a truncated enumeration is
        # reported, not hidden.
        found = enumerate_outcomes(metric, p_minus, normals, PAIRWISE_DEPTH_CAP)
        xi_max, xi_mean = outcome_xi(metric, p_minus, normals, found)
        if found.truncated and len(found) < 2:
            # Too few outcomes to measure a distance: xi is unknown, not 0.
            xi_max = xi_mean = math.nan
        notes = [
            "xi-mode: pairwise-extension",
            f"xi-truncated: {str(found.truncated).lower()}",
            f"xi-branches: {found.branches_explored}",
        ]

    header = _header(config, notes)
    out_path = out_dir / "outcome.csv"
    columns = (
        [f"p_plus{i + 1}" for i in range(model.dim)]
        + ["sequence", "status", "energy_delta", "xi", "xi_mean"]
    )
    row = [_fmt(x) for x in outcome.p_plus] + [
        seq,
        outcome.status.value,
        _fmt(e_minus - e_plus),
        _fmt(xi_max),
        _fmt(xi_mean),
    ]
    _write_csv(out_path, header, ",".join(columns), [row])
    return [out_path]


def _task_sweep(config, model, out_dir: Path) -> list[Path]:
    task = config["task"]
    if not isinstance(model, BilliardsModel):
        raise ConfigError("sweep task requires a billiards model")
    for key in ("start", "stop", "samples"):
        if key not in task:
            raise ConfigError(f"sweep task requires {key!r}")
    try:
        curve = theta_sweep(
            model, task["start"], task["stop"], task["samples"], task.get("cue_speed", 1.0)
        )
    except ValueError as exc:
        # Only the range checks raise it: a billiards break between the
        # contact limit and pi has well-defined, independent normals.
        raise ConfigError(f"sweep task invalid: {exc}") from exc
    out_path = out_dir / "sweep.csv"
    _write_csv(
        out_path,
        _header(config),
        "theta,xi",
        ((_fmt(t), _fmt(x)) for t, x in curve),
    )
    return [out_path]


def _task_optimize(config, model, out_dir: Path) -> list[Path]:
    task = config["task"]
    if "q" not in config.get("initial", {}):
        # All-zero coordinates put every billiards ball on the same
        # center, and a leg-tail body's origin on the floor.
        raise ConfigError("optimize task requires initial.q")
    q0 = _initial_q(config, model)
    tol_inner = task.get("tol_inner", 1e-6)
    try:
        if isinstance(model, LegTailModel):
            fields = "free_q and free_params"
            problem = legtail_orthogonality_problem(
                model,
                q0,
                free_q=tuple(task.get("free_q", ("y", "theta"))),
                free_params=tuple(task.get("free_params", ("ax", "bx"))),
                tol_inner=tol_inner,
            )
            names = list(task.get("free_q", ("y", "theta"))) + list(
                task.get("free_params", ("ax", "bx"))
            )
        elif isinstance(model, BilliardsModel):
            fields = "free_balls"
            balls = tuple(task.get("free_balls", ("a", "b")))
            problem = billiards_orthogonality_problem(model, q0, balls, tol_inner)
            names = [f"{b}{axis}" for b in balls for axis in ("x", "y")]
        else:
            raise ConfigError("optimize task requires a legtail or billiards model")
    except DimensionError as exc:
        raise ConfigError(f"optimize task {fields}: {exc}") from exc

    result = solve_orthogonal(problem)
    x0 = problem.pack(problem.q0, problem.params0)
    x_opt = problem.pack(result.q_opt, result.params_opt)
    opt_model = problem.model_factory(result.params_opt)
    xi = xi_at_optimum(opt_model, result.q_opt, seed=config.get("seed", 0))

    report_path = out_dir / "report.txt"
    with _open(report_path) as stream:
        for line in _header(config):
            stream.write(f"# {line}\n")
        stream.write(result.report(names, x0, x_opt) + "\n")
        stream.write(f"  xi at optimum     : {xi:.6e}\n")
    csv_path = out_dir / "optimization.csv"
    _write_csv(
        csv_path,
        _header(config),
        "variable,initial,final,delta",
        (
            (name, _fmt(a), _fmt(b), _fmt(b - a))
            for name, a, b in zip(names, x0, x_opt)
        ),
    )
    return [report_path, csv_path]


_TASKS = {
    "simulate": _task_simulate,
    "resolve": _task_resolve,
    "sweep": _task_sweep,
    "optimize": _task_optimize,
}


def run(
    config_path,
    out_dir=None,
    seed: int | None = None,
    policy: str | None = None,
) -> list[Path]:
    """Execute one scenario file and return the paths written."""
    config = load_config(config_path)
    if seed is not None:
        config["seed"] = seed
    if policy is not None:
        config["policy"] = policy
    config.setdefault("seed", 0)
    try:
        cascade = CascadePolicy.parse(config.get("policy", "most-violating"))
    except ValueError as exc:
        raise ConfigError(f"invalid cascade policy: {exc}") from exc

    model = build_model(config["model"], config.get("initial", {}).get("q"))
    bad = [c for c in cascade.order or () if not 0 <= c < model.n_contacts]
    if bad:
        raise ConfigError(f"policy references unknown contacts {bad}")
    out = Path(out_dir) if out_dir is not None else Path(
        config.get("output", {}).get("dir", "out")
    )
    task_kind = config["task"]["kind"]
    return _TASKS[task_kind](config, model, out)


def _failure_site(exc: Exception) -> str:
    """Where a failed task stopped: the time, contacts and residual it names."""
    parts = []
    if getattr(exc, "t", None) is not None:
        parts.append(f"t={_fmt(exc.t)}")
    if getattr(exc, "contacts", ()):
        parts.append("contacts=" + ";".join(str(c) for c in exc.contacts))
    if getattr(exc, "residual_norm", None) is not None:
        parts.append(f"residual={exc.residual_norm:.3e}")
    return f" ({', '.join(parts)})" if parts else ""


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="simpact",
        description="Simultaneous-impact scenarios: simulate, resolve, sweep, optimize.",
    )
    parser.add_argument("--version", action="version", version=f"simpact {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute a scenario configuration")
    run_parser.add_argument("config", help="path to the scenario JSON file")
    run_parser.add_argument("--out", help="output directory", default=None)
    run_parser.add_argument("--seed", type=int, default=None)
    run_parser.add_argument(
        "--policy",
        default=None,
        help="most-violating | least-violating | fixed:i,j,...",
    )
    args = parser.parse_args(argv)

    try:
        paths = run(
            args.config,
            out_dir=args.out,
            seed=args.seed,
            policy=args.policy,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimpactError, ValueError) as exc:
        print(f"task failed: {exc}{_failure_site(exc)}", file=sys.stderr)
        return EXIT_TASK
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for path in paths:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
