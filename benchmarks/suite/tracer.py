"""Outside-in layer tracing for the benchmark.

The tracer measures each layer of ``repro`` without changing it: it replaces
public functions at the place their callers look them up (a class attribute,
or a module global such as ``repro.sqldb.database.parse_sql``) with a wrapper
that records a span ``(name, layer, start, end, parent)`` per call, keeps the
spans in memory per thread, and reads counts from the returned objects.
:meth:`Tracer.uninstall` puts every original object back.

A layer's self time is the duration of its spans minus the time their child
spans cover, so nested and recursive calls (the ``Database.execute`` a UDF
issues inside ``fmu_parest``) are charged once, to the innermost layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: A lock acquisition slower than this counts as a wait.
LOCK_WAIT_THRESHOLD_S = 0.001

Span = Tuple[str, str, float, float, int]


# --------------------------------------------------------------------------- #
# Counters read from arguments and return values
# --------------------------------------------------------------------------- #
def _count(key: str) -> Callable:
    def hook(counters, args, result):
        counters[key] += 1

    return hook


def _plan_nodes(counters, args, result):
    counters["planner.plans"] += 1
    for node in result.node_names():
        if node == "Scan":
            counters["planner.full_scans"] += 1
        elif node in ("IndexLookup", "IndexRangeScan"):
            counters["planner.index_scans"] += 1
        elif node == "NestedLoopJoin":
            counters["planner.nested_loop_joins"] += 1


def _lock(mode: str) -> Callable:
    def hook(counters, args, result):
        counters["locks.acquires"] += 1
        if mode == "write":
            counters["locks.write_acquires"] += 1

    return hook


def _wal_sync_before(counters, args):
    pending = len(args[0]._pending)
    if pending:
        counters["storage.wal_syncs"] += 1
        counters["storage.wal_bytes"] += pending


def _parest(counters, args, result):
    counters["core.parest_calls"] += 1
    counters["core.mi_warm_starts"] += sum(1 for o in result if o.used_mi_optimization)


def _estimation(counters, args, result):
    counters["estimation.evaluations"] += result.n_evaluations
    counters["estimation.memo_hits"] += result.n_cache_hits


def _population_before(counters, args):
    counters["estimation.population_calls"] += 1
    counters["estimation.rows_scored"] += len(args[1])


def _simulate_batch_before(counters, args):
    counters["fmi.simulate_batch_calls"] += 1
    counters["fmi.batch_rows"] += len(args[0])


def _solution(counters, args, result):
    counters["solvers.solves"] += 1
    counters["solvers.rhs_evals"] += int(result.n_rhs_evals)
    counters["solvers.steps"] += int(_total(result.n_steps))
    counters["solvers.rejected"] += int(_total(result.n_rejected))


def _total(value) -> float:
    return value.sum() if hasattr(value, "sum") else value


class Boundary:
    """One wrapped attribute: ``owner`` is ``module`` or ``module:Class``."""

    def __init__(
        self,
        layer: str,
        owner: str,
        attr: str,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
        outermost_only: bool = False,
    ):
        self.layer = layer
        self.owner = owner
        self.attr = attr
        self.after = after
        self.before = before
        #: Count only calls not nested in a span of the same layer (a batch
        #: solve that falls back to per-row solves must not count twice).
        self.outermost_only = outermost_only

    @property
    def name(self) -> str:
        module, _, cls = self.owner.partition(":")
        return f"{cls or module.rsplit('.', 1)[-1]}.{self.attr}"

    def resolve(self) -> Any:
        module_name, _, class_name = self.owner.partition(":")
        target = importlib.import_module(module_name)
        return getattr(target, class_name) if class_name else target


def _solver_boundaries() -> List[Boundary]:
    out = []
    for module, cls in (("euler", "EulerSolver"), ("rk4", "RungeKutta4Solver"), ("rk45", "DormandPrince45Solver")):
        for attr in ("solve", "solve_batch"):
            out.append(Boundary("solvers", f"repro.solvers.{module}:{cls}", attr, after=_solution, outermost_only=True))
    return out


#: Every layer boundary the benchmark traces, outermost layers first.
BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("driver", "repro.sqldb.connection:Cursor", "execute"),
    Boundary("driver", "repro.sqldb.connection:Cursor", "executemany"),
    Boundary("server", "repro.server.service:ReproService", "dispatch", after=_count("server.requests")),
    Boundary("sqldb.engine", "repro.sqldb.database:Database", "execute", after=_count("engine.statements")),
    Boundary("sqldb.locks", "repro.sqldb.locks:StatementLock", "acquire_read", after=_lock("read")),
    Boundary("sqldb.locks", "repro.sqldb.locks:StatementLock", "acquire_write", after=_lock("write")),
    Boundary("sqldb.parser", "repro.sqldb.database", "parse_sql", after=_count("parser.calls")),
    Boundary("sqldb.planner", "repro.sqldb.database:Database", "plan_select", after=_plan_nodes),
    Boundary("sqldb.planner", "repro.sqldb.planner.builder", "build_select_plan", after=_count("planner.builds")),
    Boundary("sqldb.executor", "repro.sqldb.executor:Executor", "execute"),
    Boundary("sqldb.storage", "repro.sqldb.storage.wal:WalWriter", "append"),
    Boundary("sqldb.storage", "repro.sqldb.storage.wal:WalWriter", "sync", before=_wal_sync_before),
    Boundary("sqldb.storage", "repro.sqldb.storage.engine:StorageEngine", "checkpoint", after=_count("storage.checkpoints")),
    Boundary("core", "repro.core.simulate:Simulator", "simulate_many"),
    Boundary("core", "repro.core.simulate:Simulator", "prepare_inputs"),
    Boundary("core", "repro.core.parest:ParameterEstimator", "estimate", after=_parest),
    Boundary("core", "repro.core.parest:ParameterEstimator", "load_measurements"),
    Boundary("modelica", "repro.core.instances", "compile_model", after=_count("modelica.compiles")),
    Boundary("estimation", "repro.estimation.estimator:Estimation", "estimate", after=_estimation),
    Boundary("estimation", "repro.estimation.objective:SimulationObjective", "evaluate_population", before=_population_before),
    Boundary("fmi", "repro.fmi.model:FmuModel", "simulate", after=_count("fmi.simulate_calls")),
    Boundary("fmi", "repro.fmi.model:FmuModel", "simulate_batch", before=_simulate_batch_before),
    *_solver_boundaries(),
    Boundary("solvers", "repro.solvers.retry:RetryPolicy", "run"),
)

#: Layers in report order; ``server.wire`` is derived (client round trip
#: minus server dispatch) and never recorded as a span.
LAYERS = (
    "server.wire", "driver", "server", "sqldb.engine", "sqldb.locks", "sqldb.parser",
    "sqldb.planner", "sqldb.executor", "sqldb.storage", "core", "modelica",
    "estimation", "fmi", "solvers",
)

#: Names of the spans whose inputs are measurement queries (``core.inputs``).
INPUT_SPANS = ("Simulator.prepare_inputs", "ParameterEstimator.load_measurements")


class Tracer:
    """Records spans at every :data:`BOUNDARIES` entry while installed.

    ``clock`` times the spans; a run that pauses to probe the host passes a
    clock that leaves the probes out, as its statement times do.
    """

    def __init__(self, boundaries: Sequence[Boundary] = BOUNDARIES,
                 clock: Callable[[], float] = time.perf_counter):
        self.boundaries = tuple(boundaries)
        self.clock = clock
        self._local = threading.local()
        self._threads: List[Tuple[List[Span], Counter]] = []
        self._threads_mutex = threading.Lock()
        self._saved: List[Tuple[Any, str, Any]] = []
        self._mark_time = float("-inf")
        self._mark_counters: Counter = Counter()
        self._end_time = float("inf")
        self._end_counters: Optional[Counter] = None

    # ------------------------------------------------------------------ #
    # Installing and restoring
    # ------------------------------------------------------------------ #
    def install(self) -> "Tracer":
        for boundary in self.boundaries:
            target = boundary.resolve()
            if isinstance(target, type):
                raw = target.__dict__[boundary.attr]
            else:
                raw = getattr(target, boundary.attr)
            self._saved.append((target, boundary.attr, raw))
            setattr(target, boundary.attr, self._wrap(raw, boundary))
        return self

    def uninstall(self) -> None:
        while self._saved:
            target, attr, raw = self._saved.pop()
            setattr(target, attr, raw)

    def _wrap(self, raw: Any, boundary: Boundary) -> Any:
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap_function(raw.__func__, boundary))
        return self._wrap_function(raw, boundary)

    def _wrap_function(self, fn: Callable, boundary: Boundary) -> Callable:
        tracer = self
        name, layer = boundary.name, boundary.layer
        before, after, outermost_only = boundary.before, boundary.after, boundary.outermost_only
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack, counters = tracer._thread_state()
            parent = stack[-1] if stack else (-1, "")
            counted = not (outermost_only and parent[1] == layer)
            if before is not None and counted:
                before(counters, args)
            index = len(spans)
            spans.append((name, layer, 0.0, 0.0, parent[0]))
            stack.append((index, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, start, end, parent[0])
            if after is not None and counted:
                after(counters, args, result)
            return result

        return traced

    def _thread_state(self):
        # Spans and counters are per thread, so recording takes no lock.
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            local.counters = Counter()
            with self._threads_mutex:
                self._threads.append((spans, local.counters))
        return spans, local.stack, local.counters

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def threads(self) -> List[List[Span]]:
        with self._threads_mutex:
            return [list(spans) for spans, _ in self._threads]

    def counters(self) -> Counter:
        total: Counter = Counter()
        with self._threads_mutex:
            for _, counts in self._threads:
                total.update(dict(counts))
        return total

    def mark(self) -> float:
        """Start the measured phase: later summaries leave earlier work out."""
        self._mark_counters = self.counters()
        self._mark_time = self.clock()
        return self._mark_time

    def mark_end(self) -> None:
        """End the measured phase: later work is left out of :meth:`summary`."""
        self._end_counters = self.counters()
        self._end_time = self.clock()

    def summary(self) -> Dict[str, Any]:
        """Self time per layer and counters of the measured phase."""
        counters = self._end_counters if self._end_counters is not None else self.counters()
        counters = counters.copy()
        counters.subtract(self._mark_counters)
        return summarize_spans(self.threads(), self._mark_time, self._end_time, counters)

    def setup_summary(self) -> Dict[str, Any]:
        """Self time per layer of the work before :meth:`mark`."""
        return summarize_spans(self.threads(), float("-inf"), self._mark_time, self._mark_counters)

    def dump(self, path: str) -> None:
        """Write every recorded span out (one JSON document)."""
        with open(path, "w") as out:
            json.dump({"mark": self._mark_time, "threads": self.threads()}, out)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for _name, _layer, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_n, _l, start, end, _p) in enumerate(spans)]


def summarize_spans(
    threads: Iterable[Sequence[Span]], since: float, until: float, counters: Dict[str, float]
) -> Dict[str, Any]:
    """Aggregate per-thread span lists into per-layer self times.

    Only spans whose root started in ``[since, until)`` count, so a set-up
    phase can be kept apart from the measured one.  Retries are attempts
    beyond the first under each ``RetryPolicy.run`` span; lock waits are
    acquisitions slower than :data:`LOCK_WAIT_THRESHOLD_S`.
    """
    self_s: Dict[str, float] = defaultdict(float)
    by_name: Dict[str, float] = defaultdict(float)
    extra = Counter()
    n_spans = 0
    for spans in threads:
        selfs = self_times(spans)
        root_start: List[float] = []
        children = Counter()
        for i, (name, layer, start, end, parent) in enumerate(spans):
            root_start.append(start if parent < 0 else root_start[parent])
            if parent >= 0:
                children[parent] += 1
        for i, (name, layer, start, end, parent) in enumerate(spans):
            if not since <= root_start[i] < until:
                continue
            n_spans += 1
            self_s[layer] += selfs[i]
            by_name[name] += end - start
            if layer == "sqldb.locks" and end - start > LOCK_WAIT_THRESHOLD_S:
                extra["locks.waits"] += 1
            if name == "RetryPolicy.run":
                extra["solvers.retries"] += max(0, children[i] - 1)
    merged = Counter(counters)
    merged.update(extra)
    return {
        "self_s": dict(self_s),
        "span_s": dict(by_name),
        "counters": dict(merged),
        "spans": n_spans,
    }


def layer_metrics(
    summary: Dict[str, Any],
    statement_s: float,
    ops: int,
    wire_s: float = 0.0,
    user_bytes: float = 0.0,
    setup_s: float = 0.0,
    setup_summary: Optional[Dict[str, Any]] = None,
) -> Dict[str, float]:
    """The benchmark's per-layer metrics from one traced run.

    Times are shares of ``statement_s``, the statement time the workload
    measured from the caller's side; counts are per op.  ``wire_s`` is the
    client round-trip time not spent in server dispatch.
    """
    self_s = dict(summary["self_s"])
    span_s = summary["span_s"]
    c = Counter(summary["counters"])
    self_s["server.wire"] = wire_s

    def frac(seconds: float) -> float:
        return seconds / statement_s if statement_s > 0 else 0.0

    def per_op(count: float) -> float:
        return count / ops if ops else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    acquires = c["locks.acquires"]
    compile_s = (setup_summary or {}).get("span_s", {}).get("instances.compile_model", 0.0)
    metrics = {
        "server.dispatch_frac": frac(self_s.get("server", 0.0)),
        "server.wire_frac": frac(wire_s),
        "sqldb.driver.self_frac": frac(self_s.get("driver", 0.0)),
        "sqldb.engine.self_frac": frac(self_s.get("sqldb.engine", 0.0)),
        "sqldb.locks.wait_frac": frac(self_s.get("sqldb.locks", 0.0)),
        "sqldb.locks.acquires_per_op": per_op(acquires),
        "sqldb.locks.waits_per_op": per_op(c["locks.waits"]),
        "sqldb.locks.write_share": ratio(c["locks.write_acquires"], acquires),
        "sqldb.parser.calls_per_op": per_op(c["parser.calls"]),
        "sqldb.parser.self_frac": frac(self_s.get("sqldb.parser", 0.0)),
        "sqldb.parser.cache_hit_ratio": 1.0 - ratio(c["parser.calls"], c["engine.statements"]) if c["engine.statements"] else 0.0,
        "sqldb.planner.self_frac": frac(self_s.get("sqldb.planner", 0.0)),
        "sqldb.planner.cache_hit_ratio": 1.0 - ratio(c["planner.builds"], c["planner.plans"]) if c["planner.plans"] else 0.0,
        "sqldb.planner.full_scans_per_op": per_op(c["planner.full_scans"]),
        "sqldb.planner.index_scans_per_op": per_op(c["planner.index_scans"]),
        "sqldb.planner.nested_loop_joins_per_op": per_op(c["planner.nested_loop_joins"]),
        "sqldb.executor.self_frac": frac(self_s.get("sqldb.executor", 0.0)),
        "sqldb.storage.self_frac": frac(self_s.get("sqldb.storage", 0.0)),
        "sqldb.storage.wal_syncs_per_op": per_op(c["storage.wal_syncs"]),
        "sqldb.storage.wal_sync_frac": frac(span_s.get("WalWriter.sync", 0.0)),
        "sqldb.storage.wal_bytes_per_user_byte": ratio(c["storage.wal_bytes"], user_bytes),
        "sqldb.storage.checkpoints_per_op": per_op(c["storage.checkpoints"]),
        "sqldb.storage.checkpoint_frac": frac(span_s.get("StorageEngine.checkpoint", 0.0)),
        "core.self_frac": frac(self_s.get("core", 0.0)),
        "core.inputs_frac": frac(sum(span_s.get(name, 0.0) for name in INPUT_SPANS)),
        "core.mi_warm_starts_per_op": per_op(c["core.mi_warm_starts"]),
        "modelica.setup_frac": ratio(compile_s, setup_s),
        "estimation.self_frac": frac(self_s.get("estimation", 0.0)),
        "estimation.population_calls_per_op": per_op(c["estimation.population_calls"]),
        "estimation.rows_scored_per_op": per_op(c["estimation.rows_scored"]),
        "estimation.memo_hit_ratio": ratio(c["estimation.memo_hits"], c["estimation.memo_hits"] + c["estimation.evaluations"]),
        "fmi.self_frac": frac(self_s.get("fmi", 0.0)),
        "fmi.simulate_calls_per_op": per_op(c["fmi.simulate_calls"]),
        "fmi.simulate_batch_calls_per_op": per_op(c["fmi.simulate_batch_calls"]),
        "fmi.batch_rows_per_op": per_op(c["fmi.batch_rows"]),
        "solvers.self_frac": frac(self_s.get("solvers", 0.0)),
        "solvers.rhs_evals_per_op": per_op(c["solvers.rhs_evals"]),
        "solvers.steps_per_op": per_op(c["solvers.steps"]),
        "solvers.rejected_ratio": ratio(c["solvers.rejected"], c["solvers.rejected"] + c["solvers.steps"]),
        "solvers.retries_per_op": per_op(c["solvers.retries"]),
        "trace.self_sum_frac": frac(sum(self_s.get(layer, 0.0) for layer in LAYERS)),
        "trace.spans_per_op": per_op(summary["spans"]),
    }
    return metrics
