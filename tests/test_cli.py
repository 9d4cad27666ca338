"""Scenario CLI: parsing, task outputs, energy ledger, determinism."""

import functools
import json
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpact.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_TASK,
    SCHEMA,
    _errors,
    load_config,
    main,
    report_energy,
    run,
)
from simpact.errors import ConfigError, EnergyGainError
from simpact.resolution import ImpactKind
from simpact.stepper import ImpactEvent, StepperConfig, Trajectory, simulate
from simpact.models import BallModel

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


def write_config(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def cradle_resolve_config(**overrides):
    config = {
        "model": {"type": "cradle", "masses": [1.0, 1.0, 1.0], "radii": [0.1, 0.1, 0.1]},
        "initial": {"q": [0.0, 0.2, 0.4]},
        "task": {"kind": "resolve", "p_minus": [1.0, 0.0, 0.0]},
        "seed": 0,
    }
    config.update(overrides)
    return config


def two_of_three_closed_config():
    """A four-ball cradle with only contacts 1 and 2 closed."""
    return {
        "model": {"type": "cradle", "masses": [1.0] * 4, "radii": [0.1] * 4},
        "initial": {"q": [-0.5, 0.2, 0.4, 0.6]},
        "task": {"kind": "resolve", "p_minus": [0.0, 1.0, 0.0, 0.0]},
    }


def read_rows(path):
    lines = [l for l in Path(path).read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestConfigValidation:
    def test_json_error_has_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"model": }')
        with pytest.raises(ConfigError, match=r":1:\d+"):
            load_config(path)

    def test_schema_error_names_field(self, tmp_path):
        path = write_config(tmp_path, {"model": {"type": "wobble"}, "task": {"kind": "resolve"}})
        with pytest.raises(ConfigError, match="model"):
            load_config(path)

    def test_unknown_field_rejected(self, tmp_path):
        config = cradle_resolve_config()
        config["frobnicate"] = True
        path = write_config(tmp_path, config)
        with pytest.raises(ConfigError):
            load_config(path)

    def test_alpha_mode_is_an_unknown_key(self, tmp_path, capsys):
        # The blend weight is the restitution itself; a key choosing another
        # weighting is a config mistake, not a silently ignored setting.
        path = write_config(tmp_path, cradle_resolve_config(alpha_mode="as-printed"))
        assert_config_error(tmp_path, capsys, path, "unexpected properties ['alpha_mode']")

    def test_per_contact_restitution_length_checked(self, tmp_path):
        config = cradle_resolve_config()
        config["stepper"] = {"restitution": [0.5, 0.5, 0.5]}  # cradle has 2 contacts
        path = write_config(tmp_path, config)
        with pytest.raises(ConfigError, match="restitution"):
            run(path, out_dir=tmp_path / "out")

    def test_policy_contacts_checked(self, tmp_path):
        path = write_config(tmp_path, cradle_resolve_config(policy="fixed:0,1,5"))
        with pytest.raises(ConfigError):
            run(path, out_dir=tmp_path / "out")

    @pytest.mark.parametrize("policy", ["Fixed:0,5", " fixed:0,5"])
    def test_policy_contacts_checked_as_parsed(self, tmp_path, policy):
        # The check sees the order the cascade would use, whatever the case
        # and spacing of the text.
        path = write_config(tmp_path, cradle_resolve_config())
        argv = ["run", str(path), "--out", str(tmp_path / "out"), "--policy", policy]
        assert main(argv) == EXIT_CONFIG

    def test_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "missing.json"
        assert main(["run", str(bad)]) == EXIT_CONFIG
        config = cradle_resolve_config()
        config["initial"]["q"] = [0.0, 5.0, 9.0]  # contacts open: task error
        path = write_config(tmp_path, config)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        sim = {
            "model": {"type": "ball", "mass": 1.0},
            "initial": {"q": [-0.5]},  # starts penetrating: run-time failure
            "task": {"kind": "simulate", "duration": 0.1},
        }
        path = write_config(tmp_path, sim, "penetrating.json")
        assert main(["run", str(path), "--out", str(tmp_path / "p")]) == EXIT_TASK
        good = write_config(tmp_path, cradle_resolve_config(), "ok.json")
        assert main(["run", str(good), "--out", str(tmp_path / "out")]) == EXIT_OK


def shipped_with(tmp_path, scenario, path, value):
    """A shipped scenario with the entry at ``path`` set to ``value``."""
    config = json.loads((SCENARIOS / scenario).read_text())
    *parents, key = path
    functools.reduce(operator.getitem, parents, config)[key] = value
    return write_config(tmp_path, config)


def assert_config_error(tmp_path, capsys, config_path, message):
    """The run exits 2 with ``message`` and creates no output directory."""
    argv = ["run", str(config_path), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def assert_config_error_at(tmp_path, capsys, config_path, where):
    assert_config_error(tmp_path, capsys, config_path, f"invalid config at {where}: ")


class TestSchemaTypes:
    """Values the schema check rejects although JSON Schema would not, or
    the tasks would fail on with a traceback."""

    @pytest.mark.parametrize(
        "scenario, field, names",
        [
            ("legtail_optimize.json", "free_q", ["y", "z"]),
            ("billiards_sweep.json", "free_balls", ["a", "d"]),
        ],
    )
    def test_unknown_free_variable_name(self, tmp_path, capsys, scenario, field, names):
        task = {"kind": "optimize", field: names}
        config_path = shipped_with(tmp_path, scenario, ("task",), task)
        assert_config_error_at(tmp_path, capsys, config_path, f"$['task'][{field!r}][1]")

    @pytest.mark.parametrize(
        "scenario, field, names",
        [
            ("legtail_optimize.json", "free_q", ["y", "y"]),
            ("legtail_optimize.json", "free_params", ["ax", "bx", "ax"]),
            ("billiards_sweep.json", "free_balls", ["a", "a"]),
        ],
    )
    def test_duplicate_free_variable_name(self, tmp_path, capsys, scenario, field, names):
        # A name given twice frees one variable twice; the optimizer could
        # report that only as a rank collapse, not as a config mistake.
        task = {"kind": "optimize", field: names}
        config_path = shipped_with(tmp_path, scenario, ("task",), task)
        assert_config_error_at(tmp_path, capsys, config_path, f"$['task'][{field!r}]")

    @pytest.mark.parametrize(
        "scenario, path, value",
        [
            ("billiards_sweep.json", ("task", "samples"), 5.0),
            ("ball_zeno.json", ("stepper", "zeno_window"), 4.0),
            ("ball_zeno.json", ("stepper", "newton_max_iter"), 60.0),
            ("cradle_resolve.json", ("seed",), 7.0),
        ],
        ids=["samples", "zeno_window", "newton_max_iter", "seed"],
    )
    def test_integral_float_is_not_an_integer(self, tmp_path, capsys, scenario, path, value):
        config_path = shipped_with(tmp_path, scenario, path, value)
        where = "$" + "".join(f"[{key!r}]" for key in path)
        with pytest.raises(ConfigError, match=r"is not of type 'integer'"):
            load_config(config_path)
        assert_config_error_at(tmp_path, capsys, config_path, where)

    @pytest.mark.parametrize(
        "scenario, path, value, where",
        [
            ("cradle_restitution.json", ("task", "duration"), math.inf, "['duration']"),
            ("cradle_resolve.json", ("task", "p_minus"), [math.nan, 0, 0], "['p_minus'][0]"),
        ],
        ids=["duration-Infinity", "p_minus-NaN"],
    )
    def test_non_finite_number(self, tmp_path, capsys, scenario, path, value, where):
        config_path = shipped_with(tmp_path, scenario, path, value)
        assert_config_error_at(tmp_path, capsys, config_path, "$['task']" + where)


#: For each keyword the schema check implements: a schema using it, a
#: value that meets it and a value that breaks it.
KEYWORD_PROBES = {
    "type": ({"type": "integer"}, 1, 1.0),
    "enum": ({"enum": ["a", "b"]}, "b", "c"),
    "anyOf": ({"anyOf": [{"type": "string"}, {"type": "integer"}]}, 1, 1.5),
    "minimum": ({"type": "number", "minimum": 0}, 0, -1),
    "maximum": ({"type": "number", "maximum": 1}, 1, 1.5),
    "exclusiveMinimum": ({"type": "number", "exclusiveMinimum": 0}, 1e-300, 0),
    "minItems": ({"type": "array", "minItems": 1}, [0], []),
    # JSON equality: 1 and true differ, 1 and 1.0 do not.
    "uniqueItems": ({"type": "array", "uniqueItems": True}, [1, True, [1]], [[1], 1, [1.0]]),
    "items": ({"type": "array", "items": {"type": "string"}}, ["a"], ["a", 1]),
    "required": ({"type": "object", "required": ["a"]}, {"a": 1}, {"b": 1}),
    "properties": (
        {"type": "object", "properties": {"a": {"type": "string"}}},
        {"a": "x"},
        {"a": 1},
    ),
    "additionalProperties": (
        {"type": "object", "properties": {"a": {}}, "additionalProperties": False},
        {"a": 1},
        {"a": 1, "b": 2},
    ),
}

#: Keywords the check reads only on values of the given types.
TYPED_KEYWORDS = {
    "minimum": {"number", "integer"},
    "maximum": {"number", "integer"},
    "exclusiveMinimum": {"number", "integer"},
    "minItems": {"array"},
    "uniqueItems": {"array"},
    "items": {"array"},
    "required": {"object"},
    "properties": {"object"},
    "additionalProperties": {"object"},
}


def schema_nodes(schema):
    """The schema and every schema nested in it."""
    yield schema
    nested = list(schema.get("properties", {}).values()) + schema.get("anyOf", [])
    if "items" in schema:
        nested.append(schema["items"])
    for node in nested:
        yield from schema_nodes(node)


def test_schema_uses_only_implemented_keywords():
    used = {keyword for node in schema_nodes(SCHEMA) for keyword in node}
    assert used <= KEYWORD_PROBES.keys(), sorted(used - KEYWORD_PROBES.keys())
    for keyword, (schema, good, bad) in KEYWORD_PROBES.items():
        assert list(_errors(good, schema)) == [], keyword
        assert list(_errors(bad, schema)) != [], keyword
    for node in schema_nodes(SCHEMA):
        assert node.get("additionalProperties", False) is False, node
        for keyword in node.keys() & TYPED_KEYWORDS.keys():
            assert node.get("type") in TYPED_KEYWORDS[keyword], (keyword, node)


SHIPPED = [json.loads(path.read_text()) for path in sorted(SCENARIOS.glob("*.json"))]

#: Replacement values for one entry of a shipped config.
MUTANTS = [
    None, True, "x", "z", "d", "theta", "simulate", -1, 0, 0.5, 2, 5.0, 1e9, 10**400,
    math.nan, math.inf, -math.inf, [], [1], [math.nan], ["a"], ["x", "x"], {},
    {"kind": "resolve"},
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)

REMOVED = object()


def entry_paths(node, path=()):
    """The path of every entry below ``node``, in objects and arrays."""
    if isinstance(node, dict):
        entries = node.items()
    else:
        entries = enumerate(node) if isinstance(node, list) else ()
    for key, child in entries:
        yield path + (key,)
        yield from entry_paths(child, path + (key,))


def is_stricter(value):
    """Whether ``value`` holds a number that JSON Schema accepts where the
    check may not: an integral float (rejected in an integer field) or a
    number that is not finite as a float."""
    if isinstance(value, (list, dict)):
        return any(map(is_stricter, value.values() if isinstance(value, dict) else value))
    if isinstance(value, float):
        return value.is_integer() or not math.isfinite(value)
    return type(value) is int and abs(value) > sys.float_info.max


def assert_agrees_with_jsonschema(config, path, value):
    """Set (or remove) one entry of ``config`` and check it both ways."""
    from jsonschema import Draft202012Validator

    config = json.loads(json.dumps(config))
    *parents, key = path
    parent = functools.reduce(operator.getitem, parents, config)
    if value is REMOVED:
        del parent[key]
    else:
        parent[key] = value
    errors = list(_errors(config, SCHEMA))
    if not Draft202012Validator(SCHEMA).is_valid(config):
        assert errors, (path, value)
    else:
        # Where only the check rejects, a stricter number is the cause.
        for where, message in errors:
            assert is_stricter(functools.reduce(operator.getitem, where, config)), message


def test_checker_agrees_with_jsonschema_on_each_entry():
    for config in SHIPPED:
        for path in entry_paths(config):
            for value in [REMOVED] + MUTANTS:
                assert_agrees_with_jsonschema(config, path, value)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_checker_agrees_with_jsonschema(data):
    config = data.draw(st.sampled_from(SHIPPED), label="config")
    path = data.draw(st.sampled_from(list(entry_paths(config))), label="path")
    value = data.draw(st.just(REMOVED) | JSON_VALUES, label="value")
    assert_agrees_with_jsonschema(config, path, value)


def test_shipped_scenario_runs_without_jsonschema(tmp_path):
    code = (
        "import sys; sys.modules['jsonschema'] = None; "
        "from simpact.cli import main; "
        "sys.exit(main(['run', sys.argv[1], '--out', sys.argv[2]]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SCENARIOS / "cradle_resolve.json"), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert done.returncode == EXIT_OK, done.stderr
    golden = GOLDEN / "cradle_resolve" / "outcome.csv"
    assert (tmp_path / "outcome.csv").read_bytes() == golden.read_bytes()


class TestResolveTask:
    def test_cradle_row(self, tmp_path):
        path = write_config(tmp_path, cradle_resolve_config())
        (outcome,) = run(path, out_dir=tmp_path / "out")
        header, rows = read_rows(outcome)
        row = dict(zip(header, rows[0]))
        assert float(row["p_plus1"]) == 0.0
        assert float(row["p_plus2"]) == 0.0
        assert float(row["p_plus3"]) == 1.0
        assert row["sequence"] == "u;v"
        assert float(row["energy_delta"]) == pytest.approx(0.0, abs=1e-14)
        assert float(row["xi"]) < 1e-12

    def test_policy_flag_changes_nothing_for_cradle(self, tmp_path):
        path = write_config(tmp_path, cradle_resolve_config())
        (a,) = run(path, out_dir=tmp_path / "a", policy="fixed:0,1")
        (b,) = run(path, out_dir=tmp_path / "b", policy="fixed:1,0")
        _, rows_a = read_rows(a)
        _, rows_b = read_rows(b)
        assert rows_a[0][:3] == rows_b[0][:3]

    @pytest.mark.parametrize("policy", ["fixed:1,2", "fixed:2,1"])
    def test_fixed_order_names_model_contacts(self, tmp_path, policy):
        path = write_config(tmp_path, two_of_three_closed_config())
        (outcome,) = run(path, out_dir=tmp_path / "out", policy=policy)
        header, (row,) = read_rows(outcome)
        assert row[header.index("sequence")] == "c1;c2"
        p_plus = [float(row[header.index(f"p_plus{i}")]) for i in range(1, 5)]
        assert p_plus == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-14)

    def test_fixed_order_must_name_the_closed_contacts(self, tmp_path):
        path = write_config(tmp_path, two_of_three_closed_config())
        argv = ["run", str(path), "--out", str(tmp_path / "out"), "--policy", "fixed:0,1"]
        assert main(argv) == EXIT_CONFIG

    def test_restitution_blend(self, tmp_path):
        config = cradle_resolve_config()
        config["task"]["restitution"] = 0.7
        path = write_config(tmp_path, config)
        (outcome,) = run(path, out_dir=tmp_path / "out")
        header, rows = read_rows(outcome)
        row = dict(zip(header, rows[0]))
        assert float(row["p_plus1"]) == pytest.approx(0.1, abs=1e-14)
        assert float(row["p_plus3"]) == pytest.approx(0.8, abs=1e-14)
        assert float(row["energy_delta"]) == pytest.approx(0.17, abs=1e-12)

    def test_plastic_end_reports_the_cascade_status(self, tmp_path):
        # At R = 0 the blend has weight 0: its momentum is the plastic
        # projection's, and its status is the cascade's, which runs out of
        # steps between light balls.
        masses = [1.0, 0.001, 1.0, 0.001, 1.0]
        config = {
            "model": {"type": "cradle", "masses": masses, "radii": [0.1] * 5},
            "initial": {"q": [0.0, 0.2, 0.4, 0.6, 0.8]},
            "task": {"kind": "resolve", "p_minus": [1.0, 0.0, 0.0, 0.0, 0.0], "restitution": 0.0},
        }
        (outcome,) = run(write_config(tmp_path, config), out_dir=tmp_path / "out")
        header, (row,) = read_rows(outcome)
        row = dict(zip(header, row))
        assert row["status"] == "step-cap-exceeded"
        p_out = [float(row[f"p_plus{i}"]) for i in range(1, 6)]
        assert p_out == pytest.approx([m / sum(masses) for m in masses], rel=1e-12)

    def test_four_ball_cradle_reports_pairwise_xi(self, tmp_path):
        config = {
            "model": {"type": "cradle", "masses": [1.0] * 4, "radii": [0.1] * 4},
            "initial": {"q": [0.0, 0.2, 0.4, 0.6]},
            "task": {"kind": "resolve", "p_minus": [1.0, 0.0, 0.0, 0.0]},
        }
        path = write_config(tmp_path, config)
        (outcome,) = run(path, out_dir=tmp_path / "out")
        text = Path(outcome).read_text()
        assert "xi-mode: pairwise-extension" in text
        assert "# xi-truncated: false\n" in text
        assert "# xi-branches: " in text
        header, rows = read_rows(outcome)
        row = dict(zip(header, rows[0]))
        # Equal masses: every minimal sequence ends at the same momentum.
        assert float(row["xi"]) < 1e-10 and float(row["xi_mean"]) < 1e-10

    def test_truncated_enumeration_is_reported(self, tmp_path):
        # A light ball between heavy ones rattles for more reflections
        # than the enumeration depth allows on every branch.
        masses = [1.0, 0.01, 1.0, 1.0]
        config = {
            "model": {"type": "cradle", "masses": masses, "radii": [0.1] * 4},
            "initial": {"q": [0.0, 0.2, 0.4, 0.6]},
            "task": {"kind": "resolve", "p_minus": [1.0, 0.0, 0.0, 0.0]},
        }
        path = write_config(tmp_path, config)
        (outcome,) = run(path, out_dir=tmp_path / "out")
        comments = [
            line[2:] for line in Path(outcome).read_text().splitlines()
            if line.startswith("# ")
        ]
        assert "xi-truncated: true" in comments
        (branches,) = [c for c in comments if c.startswith("xi-branches: ")]
        assert int(branches.split(": ")[1]) > 1
        # No outcome pair was found, so xi is unknown rather than zero.
        header, (row,) = read_rows(outcome)
        assert math.isnan(float(row[header.index("xi")]))
        assert math.isnan(float(row[header.index("xi_mean")]))


class TestSimulateTask:
    def test_cradle_restitution_fraction(self, tmp_path):
        (_, _, energy) = run(
            SCENARIOS / "cradle_restitution.json", out_dir=tmp_path / "out"
        )
        header, rows = read_rows(energy)
        fraction = float(rows[-1][header.index("fraction_of_initial")])
        assert fraction == pytest.approx((1 - 0.49) * 2 / 3, abs=1e-6)

    def test_trajectory_header_block(self, tmp_path):
        paths = run(SCENARIOS / "ball_zeno.json", out_dir=tmp_path / "out")
        text = Path(paths[0]).read_text()
        assert text.startswith("# simpact ")
        assert "# config-sha256: " in text
        assert "# seed: 0" in text


def billiards_config(q, task):
    return {
        "model": {"type": "billiards", "masses": [1, 1, 9], "radii": [0.1, 0.1, 0.3]},
        "initial": {"q": q},
        "task": task,
    }


class TestConfigErrorsLeaveNoOutput:
    """Config errors a task finds exit 2 and create no output directory."""

    def test_simulate_without_duration(self, tmp_path, capsys):
        path = shipped_with(tmp_path, "ball_zeno.json", ("task",), {"kind": "simulate"})
        assert_config_error(tmp_path, capsys, path, "requires a duration")

    def test_resolve_without_p_minus(self, tmp_path, capsys):
        path = write_config(tmp_path, cradle_resolve_config(task={"kind": "resolve"}))
        assert_config_error(tmp_path, capsys, path, "requires p_minus")

    def test_sweep_on_a_cradle(self, tmp_path, capsys):
        task = {"kind": "sweep", "start": 1.0, "stop": 2.0, "samples": 3}
        path = shipped_with(tmp_path, "cradle_resolve.json", ("task",), task)
        assert_config_error(tmp_path, capsys, path, "requires a billiards model")

    def test_overlapping_billiards_balls(self, tmp_path, capsys):
        q = [0.5, 0.0, 0.55, 0.0, 0.0, 2.0]
        path = write_config(tmp_path, billiards_config(q, {"kind": "simulate", "duration": 0.1}))
        assert_config_error(tmp_path, capsys, path, "balls a and b overlap initially")


class TestSweepTask:
    def test_range_validation(self, tmp_path):
        # Below the contact limit, empty, reversed, beyond pi.
        for start, stop in [(0.2, 3.0), (2.0, 2.0), (2.5, 1.5), (1.5, 3.5)]:
            config = {
                "model": {"type": "billiards", "masses": [1, 1, 1], "radii": [0.1, 0.1, 0.1]},
                "task": {"kind": "sweep", "start": start, "stop": stop, "samples": 5},
            }
            path = write_config(tmp_path, config)
            with pytest.raises(ConfigError):
                run(path, out_dir=tmp_path / "out")
            assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_small_sweep_rows_ordered(self, tmp_path):
        config = {
            "model": {"type": "billiards", "masses": [1, 1, 9], "radii": [0.1, 0.1, 0.3]},
            "task": {
                "kind": "sweep",
                "start": 0.6,
                "stop": math.pi,
                "samples": 16,
            },
        }
        path = write_config(tmp_path, config)
        (sweep,) = run(path, out_dir=tmp_path / "out")
        data = np.loadtxt(sweep, delimiter=",", skiprows=4)
        assert data.shape == (16, 2)
        assert np.all(np.diff(data[:, 0]) > 0)
        assert data[-1, 1] < 1e-8


class TestOptimizeTask:
    def test_legtail_report(self, tmp_path):
        report, table = run(SCENARIOS / "legtail_optimize.json", out_dir=tmp_path / "out")
        text = Path(report).read_text()
        assert "normal inner final" in text
        header, rows = read_rows(table)
        assert header == ["variable", "initial", "final", "delta"]
        assert [r[0] for r in rows] == ["y", "theta", "ax", "bx"]

    def test_billiards_requires_initial_q(self, tmp_path, capsys):
        # The default all-zero positions put every ball on one center.
        task = {"kind": "optimize"}
        config_path = shipped_with(tmp_path, "billiards_sweep.json", ("task",), task)
        assert main(["run", str(config_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "requires initial.q" in capsys.readouterr().err

    def test_legtail_requires_initial_q(self, tmp_path, capsys):
        # All-zero coordinates put the body's origin on the floor.
        config = json.loads((SCENARIOS / "legtail_optimize.json").read_text())
        del config["initial"]
        path = write_config(tmp_path, config)
        assert_config_error(tmp_path, capsys, path, "optimize task requires initial.q")

    @pytest.mark.parametrize(
        "scenario, free, fields",
        [
            ("legtail_optimize.json", {"free_q": [], "free_params": []}, "free_q and free_params"),
            ("legtail_optimize.json", {"free_q": ["y"], "free_params": ["ax"]}, "free_q and free_params"),
            (None, {"free_balls": ["a"]}, "free_balls"),
        ],
        ids=["legtail-none", "legtail-two", "billiards-one-ball"],
    )
    def test_fewer_than_three_free_variables(self, tmp_path, capsys, scenario, free, fields):
        if scenario is None:
            config = billiards_config([0.0, 0.0, 1.0, 0.0, 0.5, -1.0], {"kind": "optimize"})
        else:
            config = json.loads((SCENARIOS / scenario).read_text())
        config["task"].update(free)
        path = write_config(tmp_path, config)
        assert_config_error(
            tmp_path, capsys, path, f"optimize task {fields}: need at least three free variables"
        )


class TestEnergyLedger:
    def test_all_elastic_near_zero(self):
        model = BallModel(1.0)
        traj = simulate(model, [0.3], [0.0], 1.0, StepperConfig(h=0.01, restitution=1.0))
        e0 = model.potential(np.array([0.3]))
        ledger = report_energy(traj, initial_energy=e0)
        assert abs(ledger.total_loss) <= 1e-10 * e0

    def test_single_plastic_impact_loses_everything_normal(self):
        model = BallModel(1.0)
        traj = simulate(model, [0.1], [0.0], 0.3, StepperConfig(h=0.01, restitution=0.0))
        impacts = [ev for ev in traj.events if ev.impulses]
        assert len(impacts) == 1
        ledger = report_energy(traj, initial_energy=model.potential(np.array([0.1])))
        # A one dimensional plastic impact absorbs the entire kinetic energy.
        assert ledger.rows[0][1] == pytest.approx(impacts[0].energy_before, rel=1e-9)

    def test_gain_is_hard_error(self):
        fake = Trajectory(
            times=np.array([0.0, 1.0]),
            states=np.zeros((2, 1)),
            momenta=np.zeros((2, 1)),
            events=[
                ImpactEvent(
                    t=0.5,
                    contacts=(0,),
                    kind=ImpactKind.ELASTIC,
                    impulses=(1.0,),
                    energy_before=1.0,
                    energy_after=1.0 + 1e-6,
                )
            ],
            holds=[],
            nominal_step=1.0,
        )
        with pytest.raises(EnergyGainError):
            report_energy(fake, initial_energy=1.0)


class TestDeterminism:
    @pytest.mark.parametrize(
        "scenario",
        [
            "cradle_resolve.json",
            "cradle_restitution.json",
            "ball_zeno.json",
            "billiards_sweep.json",
            "legtail_optimize.json",
        ],
    )
    def test_repeated_runs_byte_identical(self, tmp_path, scenario):
        first = run(SCENARIOS / scenario, out_dir=tmp_path / "a", seed=7)
        second = run(SCENARIOS / scenario, out_dir=tmp_path / "b", seed=7)
        for pa, pb in zip(first, second):
            assert Path(pa).read_bytes() == Path(pb).read_bytes()


def test_cli_import_does_not_load_scipy():
    # Nor the thread-pool machinery, which the CLI has no use for, nor
    # jsonschema, which only loading a scenario file needs.
    code = (
        "import sys, simpact.cli; "
        "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules, "
        "'jsonschema' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "False False False"


def test_module_entry_point_runs_without_warnings():
    # The package must not import simpact.cli before runpy executes it.
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "simpact.cli", "--version"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout.startswith("simpact ")


def test_package_exports_cli_entry_points():
    import simpact
    import simpact.cli

    assert simpact.run is simpact.cli.run
    assert simpact.report_energy is simpact.cli.report_energy
    with pytest.raises(AttributeError):
        simpact.no_such_name
