"""Span recorder, wrapper installation and per-layer summary.

Spans are recorded from the benchmark's side only: the wrappers are
installed over the names that simpact's own modules look up at call
time (module globals, dispatch tables and class attributes), so no
source file changes. Each span carries a name, start, end, parent,
op id and thread id; spans stay in memory and are written out once the
run ends. A wrapped name that does not exist in the program any more is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array

import numpy as np

#: Span fields, stored as seven doubles per span.
FIELDS = ("id", "name", "start", "end", "parent", "op", "thread")

#: (layer name, module, attribute path). "*." means the method of that
#: name on every MechModel subclass that defines it.
TARGETS = (
    ("metric.KineticMetric", "simpact.metric", "KineticMetric.__init__"),
    ("metric.dual", "simpact.metric", "KineticMetric.dual"),
    ("resolution.elastic_cascade", "simpact.resolution", "elastic_cascade"),
    ("resolution.plastic_resolve", "simpact.resolution", "plastic_resolve"),
    ("resolution.inelastic_resolve", "simpact.resolution", "inelastic_resolve"),
    ("resolution.reflect", "simpact.resolution", "reflect"),
    ("resolution.enumerate_outcomes", "simpact.resolution", "enumerate_outcomes"),
    ("uniqueness.indeterminacy_xi", "simpact.uniqueness", "indeterminacy_xi"),
    ("uniqueness.pairwise_xi", "simpact.uniqueness", "pairwise_xi"),
    ("uniqueness.classify_pair", "simpact.uniqueness", "classify_pair"),
    ("models.gaps", "simpact.models", "*.gaps"),
    ("models.gap_gradients", "simpact.models", "*.gap_gradients"),
    ("models.mass_matrix", "simpact.models", "*.mass_matrix"),
    ("models.metric_at", "simpact.models", "*.metric_at"),
    ("stepper.solve_free", "simpact.stepper", "_solve_free"),
    ("stepper.newton", "simpact.stepper", "_newton"),
    ("stepper.locate", "simpact.stepper", "_locate"),
    ("stepper.resolve_event", "simpact.stepper", "_resolve_event"),
    ("stepper.solve_held", "simpact.stepper", "_solve_held"),
    ("stepper.zeno_guard", "simpact.stepper", "zeno_guard"),
    ("design.solve_orthogonal", "simpact.design", "solve_orthogonal"),
    ("design.residuals", "simpact.design", "DesignProblem.residuals"),
    ("design.sweep_point", "simpact.design", "sweep_point"),
    ("design.xi_at_optimum", "simpact.design", "xi_at_optimum"),
    ("cli.load_config", "simpact.cli", "load_config"),
    ("cli.task_sweep", "simpact.cli", "_task_sweep"),
    ("cli.write", "simpact.cli", "_write_csv"),
    ("cli.write", "simpact.stepper", "Trajectory.write_csv"),
    ("cli.write", "simpact.stepper", "Trajectory.write_events_csv"),
)


class Recorder:
    """In-memory span store with per-thread parent stacks.

    Spans opened on a thread with no open span of its own (the sweep
    pool's workers) take the innermost open span of the op's thread as
    their parent, so pool work nests under the task that started it.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("d")
        self.counters: dict[str, float] = {}
        self.absent: set[str] = set()
        self.enabled = False
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._thread_ids = itertools.count()
        self._op_stack: list[tuple[int, float]] = []
        self._lock = threading.Lock()
        # (module, class or dict; name or key; original; wrapper)
        self.sites: list[tuple[object, object, object, object]] = []

    def activate(self) -> None:
        """Bind the wrappers at every recorded site."""
        for where, key, _, wrapper in self.sites:
            _bind(where, key, wrapper)

    def deactivate(self) -> None:
        """Put the program's own functions back, so it runs untraced."""
        for where, key, original, _ in self.sites:
            _bind(where, key, original)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.thread = next(self._thread_ids)
        return local.stack

    def begin_op(self, op: int) -> None:
        """Start recording one op on the calling thread."""
        self.op = op
        self._op_stack = self._stack()
        self._op_stack.clear()
        self.enabled = True

    def end_op(self) -> None:
        self.enabled = False
        self._op_stack.clear()

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, layer: str, fn, after=None, around=None):
        """Return ``fn`` wrapped in a span named ``layer``.

        ``after(result)`` sees each successful result and ``around(args,
        kwargs)`` may rewrite the arguments; both run only while recording.
        A hook that no longer fits the program's signature or result marks
        the layer absent instead of failing the op.
        """
        name = self.name_id(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1][0]
            elif self._op_stack:
                parent = self._op_stack[-1][0]
            else:
                parent = -1
            sid = next(self._ids)
            if around is not None and layer not in self.absent:
                try:
                    args, kwargs = around(args, kwargs)
                except (IndexError, KeyError, TypeError):
                    self.absent.add(layer)
            stack.append((sid, clock()))
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                if stack and stack[-1][0] == sid:
                    _, start = stack.pop()
                    self.spans.extend(
                        (sid, name, start, end, parent, self.op, self._local.thread)
                    )
                if not ok:
                    self.count(layer + ".failed")
            if after is not None and layer not in self.absent:
                try:
                    after(result)
                except (AttributeError, TypeError):
                    self.absent.add(layer)
            return result

        return wrapper

    def span_table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=float).reshape(-1, len(FIELDS))


# ---------------------------------------------------------------------------
# Installation


def _bind(where, key, value) -> None:
    if isinstance(where, dict):
        where[key] = value
    else:
        setattr(where, key, value)


def _simpact_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "simpact" or name.startswith("simpact."))
    ]


def _binding_sites(original) -> list[tuple[object, object]]:
    """Every module global and dispatch-table entry bound to ``original``."""
    sites: list[tuple[object, object]] = []
    for mod in _simpact_modules():
        for attr, value in vars(mod).items():
            if value is original:
                sites.append((mod, attr))
            elif isinstance(value, dict):
                sites.extend((value, key) for key, item in value.items() if item is original)
    return sites


def _model_classes():
    models = sys.modules["simpact.models"]
    seen, todo = [], [models.MechModel]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _hooks(rec: Recorder):
    """Counters taken from arguments and results at the layer boundary."""

    def cascade(out):
        rec.count("resolution.elastic_cascade.reflections", len(out.sequence))
        if out.status.value != "converged":
            rec.count("resolution.elastic_cascade.step_cap")

    def enumeration(res):
        rec.count("resolution.enumerate_outcomes.branches", res.branches_explored)
        rec.count("resolution.enumerate_outcomes.outcomes", len(res.outcomes))
        rec.count("resolution.enumerate_outcomes.truncated", int(res.truncated))

    def orthogonal(res):
        rec.count("design.solve_orthogonal.iterations", res.iterations)

    def newton_args(args, kwargs):
        fun = args[0]

        def counted(x):
            rec.count("stepper.newton.residual_evals")
            return fun(x)

        return (counted,) + tuple(args[1:]), kwargs

    return {
        "resolution.elastic_cascade": {"after": cascade},
        "resolution.enumerate_outcomes": {"after": enumeration},
        "design.solve_orthogonal": {"after": orthogonal},
        "stepper.newton": {"around": newton_args},
    }


def install(rec: Recorder) -> None:
    """Wrap every target where simpact's callers look it up, and activate.

    Must run after the program and any model subclasses are imported;
    targets that are missing are recorded in ``rec.absent``.
    """
    hooks = _hooks(rec)
    for layer, module_name, path in TARGETS:
        module = sys.modules.get(module_name)
        hook = hooks.get(layer, {})
        if module is None:
            rec.absent.add(layer)
            continue
        if path.startswith("*."):
            method = path[2:]
            owners = [cls for cls in _model_classes() if method in vars(cls)]
            for cls in owners:
                original = vars(cls)[method]
                rec.sites.append((cls, method, original, rec.wrap(layer, original, **hook)))
            if not owners:
                rec.absent.add(layer)
            continue
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None or (owner_name and attr not in vars(owner)):
            rec.absent.add(layer)
            continue
        wrapper = rec.wrap(layer, original, **hook)
        sites = [(owner, attr)] if owner_name else _binding_sites(original)
        rec.sites.extend((where, key, original, wrapper) for where, key in sites)
    rec.activate()


# ---------------------------------------------------------------------------
# Summary


def self_times(table: np.ndarray) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals.

    Children on the span's own thread nest and never overlap, so their
    durations add; children spread over several threads (the sweep pool)
    are clipped to the parent and merged as intervals.
    """
    n = table.shape[0]
    if n == 0:
        return np.zeros(0)
    ids = table[:, 0].astype(np.int64)
    order = np.argsort(ids)
    ids_sorted = ids[order]
    dur = table[:, 3] - table[:, 2]
    parents = table[:, 4].astype(np.int64)
    has_parent = parents >= 0
    pos = np.searchsorted(ids_sorted, parents[has_parent])
    pos = np.minimum(pos, n - 1)
    found = ids_sorted[pos] == parents[has_parent]
    child_rows = np.flatnonzero(has_parent)[found]
    parent_rows = order[pos[found]]
    covered = np.bincount(parent_rows, weights=dur[child_rows], minlength=n)

    threads = table[:, 6]
    foreign = threads[child_rows] != threads[parent_rows]
    for prow in np.unique(parent_rows[foreign]):
        rows = child_rows[parent_rows == prow]
        lo, hi = table[prow, 2], table[prow, 3]
        starts = np.clip(table[rows, 2], lo, hi)
        ends = np.clip(table[rows, 3], lo, hi)
        total, reach = 0.0, lo
        for s, e in sorted(zip(starts, ends)):
            s = max(s, reach)
            if e > s:
                total += e - s
                reach = e
        covered[prow] = total
    return dur - covered


def layer_totals(rec: Recorder) -> dict[str, dict[str, float]]:
    """Calls and self time in milliseconds per layer name."""
    table = rec.span_table()
    selfs = self_times(table)
    names = table[:, 1].astype(np.int64) if table.size else np.zeros(0, np.int64)
    calls = np.bincount(names, minlength=len(rec.names))
    self_ms = np.bincount(names, weights=selfs, minlength=len(rec.names)) * 1e3
    return {
        name: {"calls": float(calls[i]), "self_ms": float(self_ms[i])}
        for i, name in enumerate(rec.names)
    }


def write_spans(rec: Recorder, path) -> None:
    """Write the span table and its name list to a ``.npz`` file."""
    np.savez(
        path,
        spans=rec.span_table(),
        fields=np.array(FIELDS),
        names=np.array(rec.names or [""]),
    )
