"""Self-test of the benchmark itself (not of simpact).

Checks that a tiny run of every workload, untraced and traced, prints
every metric BENCHMARK.json names with its unit; that a seed always
builds the same inputs and another seed different inputs of the same
composition; that the penetration check holds free and held contacts to
their own floors; that the span summary subtracts overlapping children
once and marks missing targets absent; and that the benchmark refuses
to run without the program's sources.

Usage (from the repository root): python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def tiny_runs(spec: dict) -> None:
    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            lines = proc.stdout.strip().splitlines()
            check(proc.returncode == 0 and bool(lines), f"{name} trace={trace} exits 0")
            if proc.returncode != 0 or not lines:
                print(proc.stderr[-2000:])
                continue
            result = json.loads(lines[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{name} trace={trace} result keys")
            check(result["correct"] is True, f"{name} trace={trace} outputs correct")
            wanted = spec["per_layer" if trace else "end_to_end"]
            units = {m["name"]: m["unit"] for m in wanted}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == units, f"{name} trace={trace} prints every metric with its unit")
            values = [v["value"] for v in result["metrics"].values()]
            check(all(isinstance(v, (int, float)) for v in values),
                  f"{name} trace={trace} metric values are numbers")
            report = "\n".join(lines[:-1])
            check("fail_frac" in report and "env {" in report and "inputs sha256=" in report,
                  f"{name} trace={trace} report has fail_frac, env and input hash")
            if name in ("integrate", "impacts"):
                check("steps_per_s" in report, f"{name} trace={trace} report has steps_per_s")


def seeds() -> None:
    work = ROOT / ".perfbench_out" / "selftest"
    for name in workloads.NAMES:
        a = workloads.build(name, 7, ROOT, work)
        b = workloads.build(name, 7, ROOT, work)
        c = workloads.build(name, 8, ROOT, work)
        check(a.input_hash == b.input_hash, f"{name}: same seed, same input hash")
        check(a.input_hash != c.input_hash, f"{name}: other seed, other inputs")
        check(sorted(op.label for op in a.ops) == sorted(op.label for op in c.ops),
              f"{name}: other seed, same composition")


def penetration_floors() -> None:
    # Two touching balls, length scale 0.2: the free floor is -2e-13 and
    # the held floor, at the default newton_tol, -2e-11.
    import simpact as sp

    model = sp.CradleModel([1.0, 1.0], [0.1, 0.1])
    cfg = sp.StepperConfig(h=0.005)
    contact_check, contact_info = workloads._contact_checks(
        model, model.touching_positions(), np.zeros(2), cfg
    )

    def traj(depth, held):
        q = model.touching_positions()
        q[1] -= depth
        return sp.Trajectory(
            times=np.array([0.0, cfg.h]),
            states=np.array([model.touching_positions(), q]),
            momenta=np.zeros((2, 2)),
            events=[],
            holds=[(cfg.h, 0, 0.0)] if held else [],
            nominal_step=cfg.h,
        )

    check(contact_check(traj(1e-12, held=False)) == "penetration",
          "a free contact at -1e-12 penetrates")
    check(contact_check(traj(1e-12, held=True)) is None,
          "a held contact at -1e-12 is within its floor")
    check(contact_info(traj(1e-12, held=True))["held_drift"] == 1,
          "held_drift counts that sample")
    check(contact_check(traj(1e-10, held=True)) == "penetration",
          "a held contact at -1e-10 penetrates")


def span_summary() -> None:
    # A parent on thread 0 with two overlapping children on threads 1, 2
    # and one nested child on its own thread.
    rows = [
        (0, 0, 0.0, 10.0, -1, 0, 0),
        (1, 1, 1.0, 5.0, 0, 0, 1),
        (2, 1, 3.0, 7.0, 0, 0, 2),
        (3, 2, 8.0, 9.0, 0, 0, 0),
        (4, 3, 2.0, 3.0, 1, 0, 1),
    ]
    selfs = spans.self_times(np.array(rows, dtype=float))
    check(np.allclose(selfs, [10 - 7, 4 - 1, 4, 1, 1]), "self time subtracts the union of children")

    rec = spans.Recorder()
    saved = spans.TARGETS
    spans.TARGETS = (("stepper.missing", "simpact.stepper", "_no_such_function"),)
    try:
        spans.install(rec)
    finally:
        spans.TARGETS = saved
    check(rec.absent == {"stepper.missing"}, "a deleted target is reported absent")


def refuses_without_sources() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "resolve", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(), "refuses to run without src/")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds()
    penetration_floors()
    span_summary()
    refuses_without_sources()
    tiny_runs(spec)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
