"""Benchmark of simpact: four seeded closed-loop workloads, one caller each.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: integrate, impacts, resolve, scenarios (see workloads.py).
The program is imported from ``src/`` of the checkout the script sits
in; without it the run fails.

A run repeats the workload's cycle of ops until ``--seconds`` of op
time have passed and checks every op's output. A failed op (exception,
failed check or deadline overrun) counts in ``failed``; ``correct`` is
false when any output check failed. The speed of a shared machine
shifts for seconds at a time, so every op time is scaled to a
reference machine speed measured by a fixed kernel timed around it
(see speed.py); an op's latency is the median of its scaled
repetitions. The report also prints the unscaled figures. Cold starts
are not scaled: their time does not follow the kernel's.

With ``--trace 1`` the run then does one more cycle in which each op runs
untraced and then traced, with spans around each simpact layer, and
reports per-layer metrics instead of the end-to-end ones. A readable
report comes first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Cold starts per run; setup_s is their median.
SETUP_REPEATS = 7

#: Nominal stepper steps apply to these workloads only.
STEPPING = ("integrate", "impacts")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class Deadline(BaseException):
    """Raised by the alarm when an op overruns its deadline.

    A BaseException, so that no handler inside the program can absorb it.
    """


def _alarm(signum, frame):
    raise Deadline


@dataclass
class Record:
    op: int
    seconds: float
    reason: str | None = None  # exception type, check name or "deadline"
    message: str = ""
    check_failed: bool = False
    info: dict = field(default_factory=dict)
    scale: float = 1.0  # machine-speed factor, see speed.py

    @property
    def ok(self) -> bool:
        return self.reason is None

    @property
    def scaled(self) -> float:
        # A deadline is wall time the caller pays whatever the speed.
        return self.seconds if self.reason == "deadline" else self.seconds * self.scale


def run_op(index, op, deadline_s, recorder=None) -> Record:
    """Run one op under the deadline, then check its output untimed."""
    if recorder is not None:
        recorder.begin_op(index)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            result = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        return Record(index, time.perf_counter() - start, "deadline")
    except Exception as exc:  # any program error is one failed op
        return Record(index, time.perf_counter() - start, type(exc).__name__, str(exc))
    finally:
        if recorder is not None:
            recorder.end_op()
    elapsed = time.perf_counter() - start
    reason = op.check(result)
    if reason is not None:
        return Record(index, elapsed, reason, "output check failed", check_failed=True)
    return Record(index, elapsed, info=op.info(result))


def rerun_unrepeated(workload, records) -> list[Record]:
    """Rerun, untimed, each scenario config that ran only once.

    The scenario check compares a config's output with its first run's,
    so each config needs a second run even in a one-cycle run.
    """
    if not workload.files:
        return []
    runs: dict[int, int] = {}
    for rec in records:
        runs[rec.op] = runs.get(rec.op, 0) + 1
    return [
        run_op(i, op, workload.deadline_s)
        for i, op in enumerate(workload.ops)
        if runs.get(i, 0) < 2
    ]


def cold_start(workload_name, seed, work_dir, expected_hash) -> float:
    """Wall time of one cold start in a child interpreter."""
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload_name, str(seed), str(work_dir)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    if child.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{child.stderr}")
    if child.stdout.strip() != expected_hash:
        raise RuntimeError("setup probe built different inputs for the same seed")
    return elapsed


def timed_phase(workload, seconds, probe) -> tuple[list[Record], list[float]]:
    """Whole cycles for ``seconds`` of op time, with cold starts spread between.

    The machine's speed drifts over seconds, so the cold starts are taken
    at even intervals of the run rather than all at its start, and the
    speed kernel is sampled between ops, at most every ``speed.INTERVAL_S``;
    each record gets the factor of the two samples around it.
    """
    records: list[Record] = []
    windows: list[int] = []  # per record, the kernel sample before it
    samples = [speed.sample()]
    last = time.perf_counter()
    setup_times: list[float] = []
    busy = 0.0
    while not records or busy < seconds:
        if len(setup_times) * seconds <= busy * SETUP_REPEATS:
            setup_times.append(probe())
            # The next ops' window starts after the cold start.
            samples.append(speed.sample())
            last = time.perf_counter()
        for index, op in enumerate(workload.ops):
            if time.perf_counter() - last >= speed.INTERVAL_S:
                samples.append(speed.sample())
                last = time.perf_counter()
            rec = run_op(index, op, workload.deadline_s)
            busy += rec.seconds
            records.append(rec)
            windows.append(len(samples) - 1)
    samples.append(speed.sample())
    for rec, w in zip(records, windows):
        rec.scale = speed.factor(samples[w], samples[w + 1])
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(probe())
    return records, setup_times


def per_op(records, scaled=True) -> dict[int, tuple[bool, float, dict]]:
    """Each op's median time over its repetitions, successful ones only if any.

    Returns op -> (succeeded, seconds, info of a successful repetition).
    """
    reps: dict[int, list[Record]] = {}
    for rec in records:
        reps.setdefault(rec.op, []).append(rec)
    out = {}
    for op, recs in reps.items():
        ok = [r for r in recs if r.ok]
        chosen = ok or recs
        seconds = statistics.median(r.scaled if scaled else r.seconds for r in chosen)
        out[op] = (bool(ok), seconds, chosen[0].info)
    return out


def latency_metrics(records, scaled=True) -> tuple[dict, dict]:
    """``ops_per_s``, ``op_p50_ms`` and ``op_p90_ms``, and sample counts.

    ``ops_per_s`` is the successful ops of one cycle over the sum of the
    per-op latencies, failed ops included.
    """
    ops = per_op(records, scaled)
    busy = sum(seconds for _, seconds, _ in ops.values())
    ok = [seconds * 1e3 for good, seconds, _ in ops.values() if good]
    if len(ok) < 2:
        raise RuntimeError(f"only {len(ok)} successful ops; latency percentiles undefined")
    deciles = statistics.quantiles(ok, n=10)
    metrics = {
        "ops_per_s": len(ok) / busy,
        "op_p50_ms": statistics.median(ok),
        "op_p90_ms": deciles[8],
    }
    infos = [info for good, _, info in ops.values() if good]
    counts = {
        "samples": len(ok),
        "beyond_p90": sum(1 for t in ok if t > deciles[8]),
        "steps_per_s": sum(info.get("steps", 0) for info in infos) / busy,
        "held_drift": [info["held_drift"] for info in infos if "held_drift" in info],
    }
    return metrics, counts


def end_to_end(workload_name, records, setup_times) -> tuple[dict, dict]:
    """End-to-end metrics of the timed records, and extra report values."""
    latency, counts = latency_metrics(records)
    metrics = {
        "setup_s": statistics.median(setup_times),
        **latency,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw, _ = latency_metrics(records, scaled=False)
    scales = [r.scale for r in records]
    extra = {
        "fail_frac": sum(1 for r in records if not r.ok) / len(records),
        "samples": counts["samples"],
        "beyond_p90": counts["beyond_p90"],
        "busy_s": sum(r.seconds for r in records),
        "unscaled": raw,
        "scale": (min(scales), statistics.median(scales), max(scales)),
    }
    if workload_name in STEPPING:
        extra["steps_per_s"] = counts["steps_per_s"]
    if counts["held_drift"]:
        extra["held_drift"] = counts["held_drift"]
    return metrics, extra


def per_layer(recorder, records, untraced) -> dict:
    """Per-layer metrics of the traced cycle, with their bases.

    ``untraced`` holds the same ops, each run without the wrappers just
    before its traced run, so both sides of the overhead see the same
    machine; it counts the ops that succeeded on both sides.
    """
    import spans

    totals = spans.layer_totals(recorder)
    counters = recorder.counters
    ops = len(records)
    ok = [r for r in records if r.ok]
    steps = sum(r.info.get("steps", 0) for r in ok)
    events = sum(r.info.get("events", 0) for r in ok)
    out: dict[str, tuple[float, str]] = {}

    def ratio(a, b):
        return a / b if b else 0.0

    def layer(name, *fields):
        t = totals.get(name, {"calls": 0.0, "self_ms": 0.0})
        for f in fields:
            if f == "calls":
                out[f"{name}.calls"] = (t["calls"], "count")
            elif f == "self_ms":
                out[f"{name}.self_ms"] = (t["self_ms"], "ms")
            elif f == "per_step":
                out[f"{name}.per_step"] = (ratio(t["calls"], steps), "1/step")
            elif f == "per_op":
                out[f"{name}.per_op"] = (ratio(t["calls"], ops), "1/op")
            elif f == "per_event":
                out[f"{name}.per_event"] = (ratio(t["calls"], events), "1/event")
        return t

    layer("metric.KineticMetric", "calls", "self_ms", "per_event")
    layer("metric.dual", "calls", "per_op", "self_ms")
    for name in ("elastic_cascade", "plastic_resolve", "inelastic_resolve", "reflect"):
        layer(f"resolution.{name}", "calls", "self_ms")
    cascades = totals.get("resolution.elastic_cascade", {}).get("calls", 0.0)
    out["resolution.elastic_cascade.reflections_mean"] = (
        ratio(counters.get("resolution.elastic_cascade.reflections", 0.0), cascades), "1/call")
    out["resolution.elastic_cascade.step_cap"] = (
        counters.get("resolution.elastic_cascade.step_cap", 0.0), "count")
    layer("resolution.enumerate_outcomes", "calls", "self_ms")
    branches = counters.get("resolution.enumerate_outcomes.branches", 0.0)
    out["resolution.enumerate_outcomes.branches"] = (branches, "count")
    out["resolution.enumerate_outcomes.truncated"] = (
        counters.get("resolution.enumerate_outcomes.truncated", 0.0), "count")
    out["resolution.enumerate_outcomes.outcomes_per_branch"] = (
        ratio(counters.get("resolution.enumerate_outcomes.outcomes", 0.0), branches), "ratio")
    for name in ("indeterminacy_xi", "pairwise_xi", "classify_pair"):
        layer(f"uniqueness.{name}", "calls", "self_ms")
    for name in ("gaps", "gap_gradients", "mass_matrix", "metric_at"):
        layer(f"models.{name}", "calls", "per_step")
    out["models.self_ms"] = (
        sum(t["self_ms"] for n, t in totals.items() if n.startswith("models.")), "ms")
    layer("stepper.solve_free", "calls", "self_ms")
    layer("stepper.newton", "calls", "self_ms")
    evals = counters.get("stepper.newton.residual_evals", 0.0)
    out["stepper.newton.residual_evals"] = (evals, "count")
    out["stepper.newton.residual_evals_per_step"] = (ratio(evals, steps), "1/step")
    out["stepper.newton.failed"] = (counters.get("stepper.newton.failed", 0.0), "count")
    for name in ("locate", "resolve_event", "solve_held", "zeno_guard"):
        layer(f"stepper.{name}", "calls", "self_ms")
    out["stepper.locate.failed"] = (counters.get("stepper.locate.failed", 0.0), "count")
    out["stepper.events.count"] = (float(events), "count")
    for reason in ("zeno", "step-cap", "graze", "resting"):
        n = sum(r.info.get("forced", {}).get(reason, 0) for r in ok)
        out[f"stepper.events.forced.{reason}"] = (float(n), "count")
    out["stepper.holds.count"] = (float(sum(r.info.get("holds", 0) for r in ok)), "count")
    orth = layer("design.solve_orthogonal", "calls", "self_ms")
    out["design.solve_orthogonal.iterations_mean"] = (
        ratio(counters.get("design.solve_orthogonal.iterations", 0.0), orth["calls"]), "1/call")
    for name in ("residuals", "sweep_point", "xi_at_optimum"):
        layer(f"design.{name}", "calls", "self_ms")
    for name in ("load_config", "task_sweep", "write"):
        layer(f"cli.{name}", "self_ms")
    out["cli.bytes_written"] = (float(sum(r.info.get("bytes", 0) for r in ok)), "bytes")

    both = [(t, u) for t, u in zip(records, untraced) if t.ok and u.ok]
    traced_s = sum(t.seconds for t, _ in both)
    untraced_s = sum(u.seconds for _, u in both)
    out["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    return out


def environment() -> dict:
    """Machine, interpreter, library and thread settings of this run."""
    import numpy as np

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpus = os.cpu_count() or 1
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "jsonschema": version("jsonschema"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        # ThreadPoolExecutor's default width, used by the CLI sweep.
        "sweep_pool_width": min(32, cpus + 4),
    }


def _blas_threads(np):
    """Thread count reported by numpy's bundled OpenBLAS, if it exposes one."""
    import ctypes

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def failure_breakdown(records) -> dict:
    out: dict[str, dict] = {}
    for rec in records:
        if not rec.ok:
            entry = out.setdefault(rec.reason, {"count": 0, "first": rec.message[:120]})
            entry["count"] += 1
    return out


def failures_by_label(workload, records) -> dict:
    out: dict[str, dict] = {}
    for rec in records:
        label = workload.ops[rec.op].label
        cell = out.setdefault(label, {"attempted": 0, "failed": {}})
        cell["attempted"] += 1
        if not rec.ok:
            cell["failed"][rec.reason] = cell["failed"].get(rec.reason, 0) + 1
    return {k: v for k, v in sorted(out.items()) if v["failed"]}


def _print_metrics(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:<50} {shown:>14} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="simpact benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "simpact" / "__init__.py").is_file():
        print(f"error: no simpact sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import simpact

    if Path(simpact.__file__).resolve().parent != SRC / "simpact":
        print(f"error: imported simpact from {simpact.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _alarm)
    work_dir = OUT / f"run-{os.getpid()}"
    try:
        return _run(args, workloads, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, workloads, work_dir) -> int:
    workload = workloads.build(args.workload, args.seed, ROOT, work_dir)
    workloads.write_configs(workload, work_dir)
    records, setup_times = timed_phase(
        workload,
        args.seconds,
        lambda: cold_start(args.workload, args.seed, work_dir, workload.input_hash),
    )
    cycles = len(records) // len(workload.ops)
    checked = records + rerun_unrepeated(workload, records)
    metrics, extra = end_to_end(args.workload, records, setup_times)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"inputs sha256={workload.input_hash} ops_per_cycle={len(workload.ops)} "
          f"composition={json.dumps(workload.composition(), sort_keys=True)} "
          f"deadline_s={workload.deadline_s:g}")
    print(f"timed: cycles={cycles} attempted={len(records)} busy_s={extra['busy_s']:.3f} "
          f"setup_runs={[round(t, 4) for t in setup_times]} "
          "speed_scale min/median/max=" + "/".join(f"{x:.3f}" for x in extra["scale"]))
    shown = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    shown["fail_frac"] = (extra["fail_frac"], "ratio")
    if "steps_per_s" in extra:
        shown["steps_per_s"] = (extra["steps_per_s"], "steps/s")
    _print_metrics(f"end to end (op_p90_ms from {extra['samples']} successful ops, "
                   f"{extra['beyond_p90']} beyond it)", shown)
    print("unscaled " + " ".join(f"{k}={v:.6g}" for k, v in extra["unscaled"].items()))
    if "held_drift" in extra:
        drift = extra["held_drift"]
        print(f"held_drift: {sum(drift)} samples in {sum(1 for n in drift if n)} of "
              f"{len(drift)} successful ops have a held contact below the free-contact floor")
    print("failures " + json.dumps(failure_breakdown(checked), sort_keys=True))
    print("failed cells " + json.dumps(failures_by_label(workload, records), sort_keys=True))

    result_metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
        untraced, traced = [], []
        for index, op in enumerate(workload.ops):
            recorder.deactivate()
            untraced.append(run_op(index, op, workload.deadline_s))
            recorder.activate()
            traced.append(run_op(index, op, workload.deadline_s, recorder))
        checked += untraced + traced
        layers = per_layer(recorder, traced, untraced)
        for name in recorder.absent:
            for key in [k for k in layers if k.startswith(name + ".")]:
                layers[key] = (None, layers[key][1])
        _print_metrics(f"per layer (one traced cycle of {len(traced)} ops; "
                       f"absent: {sorted(recorder.absent) or 'none'})", layers)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}.npz"
        spans.write_spans(recorder, trace_path)
        print(f"spans: {len(recorder.spans) // len(spans.FIELDS)} written to {trace_path}")
        result_metrics = {
            k: ({"value": v, "unit": u} if v is not None
                else {"value": 0.0, "unit": u, "absent": True})
            for k, (v, u) in layers.items()
        }

    result = {
        "correct": not any(r.check_failed for r in checked),
        "attempted": len(records),
        "failed": sum(1 for r in records if not r.ok),
        "metrics": result_metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
