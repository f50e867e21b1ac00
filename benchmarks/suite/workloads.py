"""The four benchmark workloads; every run of one is a process of its own.

Started by ``run.py`` as::

    python3 workloads.py WORKLOAD --seed S --seconds T --trace 0|1
        --workdir DIR --out FILE [--setup-only] [--quick]

and writes one JSON document to ``--out``.  Inputs are generated from the
seed before the set-up clock starts; ``setup_s`` then covers importing
``repro``, connecting, loading and indexing the fixture and one warm-up unit.
Measuring runs the seeded op sequence, closed loop, until ``--seconds``
elapse, and every op's output is checked against an oracle that does not use
``repro``.  A failed check counts as a failed op.  Reported times are at a
reference host speed (see :func:`probe_ms`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import inputs
from percentiles import busy_rates, highest_supported_percentile, percentile, summarize

HERE = Path(__file__).resolve().parent

MEAS_DDL = (
    "CREATE TABLE meas (house integer, time double precision, x double precision, "
    "y double precision, u double precision, PRIMARY KEY (house, time))"
)
INSERT_MEAS = "INSERT INTO meas VALUES ($1, $2, $3, $4, $5)"
#: Bytes of user data per stored value (8-byte numbers).
VALUE_BYTES = 8


#: Milliseconds :func:`probe_ms` takes on the baseline host (2 vCPUs of an
#: Intel Xeon) in its fast spells.  Times are reported at this host speed;
#: the value sets only their scale, as it cancels in every comparison of two
#: runs.
PROBE_REF_MS = 2.5
#: Steps of the probe's integration.
PROBE_STEPS = 1000
_PROBE_MATRIX = np.array([[-0.1, 0.05], [0.02, -0.3]])
#: Seconds between probes in set-up and while measuring.
PROBE_EVERY_S = 0.1


def probe_ms() -> float:
    """Milliseconds a fixed small integration in numpy takes, i.e. how fast
    the shared host runs this kind of code right now.

    The host's speed swings by up to 2x, within a second and for minutes at
    a time, as other tenants load it.  A run therefore probes it every
    :data:`PROBE_EVERY_S`, off the clock (see :meth:`Run.start_watching`),
    and divides the time of each op by the mean slowdown of the probes
    around it (see :meth:`Run.slowdown`).  Steps on two-element arrays mix
    interpreter work, calls into compiled code and allocation, as the
    program does, and slow down as much as it does; a tight integer loop
    slows down less.
    """
    start = time.perf_counter()
    y = np.array([20.0, 20.0])
    for _ in range(PROBE_STEPS):
        y = y + 0.01 * (_PROBE_MATRIX @ y + 1.0)
    return (time.perf_counter() - start) * 1000.0


def _value(v: Any) -> Any:
    """A plain Python value from a cell (catalogue cells are ``Variant``s)."""
    return getattr(v, "value", v)


def _close(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-9) -> bool:
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)


#: ``os.fsync`` as the program finds it when no run is timing it.
_FSYNC = os.fsync

#: A timed stretch: its wall seconds (probes left out), the seconds of them
#: spent in ``os.fsync``, and the probes around it - the index of the last
#: probe before it starts and of the last probe before it ends.
Stretch = Tuple[float, float, Tuple[int, int]]


class Run:
    """One workload process: its settings, clock and everything it measured."""

    def __init__(self, args: argparse.Namespace):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.quick = args.quick
        self.trace = bool(args.trace)
        self.setup_only = args.setup_only
        self.workdir = Path(args.workdir)
        #: Where a traced run writes all its spans at exit.
        self.spans_path = Path(args.out).with_suffix(".spans.json")
        self.tracer = None
        #: Ops per window of the windowed throughput: one block of the
        #: workload's op deck, so every window does the same mix of work.
        self.window = 1
        #: Host slowdown at each probe (``probe_ms() / PROBE_REF_MS``).
        self.slowdowns: List[float] = []
        #: Wall seconds spent probing, which :meth:`clock` leaves out.
        self.probe_s = 0.0
        #: Wall seconds spent in ``os.fsync``: device time, which the host's
        #: slowdown does not scale.
        self.fsync_s = 0.0
        self.setup_start = 0.0
        #: Wall time of set-up without its probes, the part of it spent in
        #: ``os.fsync``, and the mean slowdown of the probes from right
        #: before to right after it.
        self.setup_s = 0.0
        self.setup_fsync_s = 0.0
        self.setup_slowdown = 1.0
        self.first_measure_probe = 0
        self.measuring = False
        self.deadline = 0.0
        #: Each measured op: ``(kind, stretch)``.
        self.ops: List[Tuple[str, Stretch]] = []
        #: Ops per elapsed second of each phase of the concurrent clients,
        #: whose throughput is not ops per busy second of one caller, with
        #: the index of the probe at the start of the phase.
        self.phase_rates: List[Tuple[float, int]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Named samples of parts of ops.
        self.samples: Dict[str, List[Stretch]] = defaultdict(list)
        #: First probe of the op that is running, if any.
        self.op_first_probe: Optional[int] = None
        #: Caller-side time spent in statements while measuring (the base of
        #: trace shares), and bytes of user data written meanwhile.
        self.statement_s = 0.0
        self.user_bytes = 0.0
        #: Facts about the run to keep with its record (e.g. CPU affinity).
        self.info: Dict[str, Any] = {}
        #: Peak RSS of the process that serves the workload, when not this one.
        self.peak_rss_mb: Optional[float] = None
        #: Span summaries of the measured and the set-up phase.
        self.trace_report: Optional[Dict[str, Any]] = None
        self._mutex = threading.Lock()
        #: Whether :meth:`start_watching` is in effect, and the SIGALRM
        #: handler it replaced.
        self._watching = False
        self._alarm_handler: Any = None

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #
    def start_setup(self) -> None:
        """Start the set-up clock, the probes and the fsync clock; call right
        before ``repro`` is imported."""
        self.probe()
        self.start_watching()
        self.setup_start = self.clock()
        if self.trace:
            from tracer import Tracer

            self.tracer = Tracer(clock=self.clock).install()

    def end_setup(self) -> None:
        self.setup_s = self.clock() - self.setup_start
        self.setup_fsync_s = self.fsync_s
        self.probe()
        self.setup_slowdown = statistics.fmean(self.slowdowns)
        self.begin_measure()

    def begin_measure(self) -> None:
        if self.tracer is not None:
            self.tracer.mark()
        # The probe right after set-up, if any, is also the first of this phase.
        self.first_measure_probe = max(len(self.slowdowns) - 1, 0)
        self.measuring = True
        self.deadline = time.perf_counter() + self.seconds

    def running(self) -> bool:
        return time.perf_counter() < self.deadline

    def end_measure(self) -> None:
        self.stop_watching()
        self.probe()  # the probe after the last op
        self.measuring = False
        if self.tracer is not None:
            self.tracer.mark_end()

    # ------------------------------------------------------------------ #
    # Host speed and device time
    # ------------------------------------------------------------------ #
    def probe(self, ms: Optional[float] = None) -> None:
        """Record the host's slowdown now, from ``ms`` when the probe ran in
        another process (the server), else from a probe run here."""
        start = time.perf_counter()
        self.slowdowns.append((probe_ms() if ms is None else ms) / PROBE_REF_MS)
        self.probe_s += time.perf_counter() - start

    def start_watching(self) -> None:
        """Probe every :data:`PROBE_EVERY_S` from a timer signal, and time
        every ``os.fsync``, until :meth:`stop_watching`.

        The signal handler runs in the main thread between two bytecodes, in
        the middle of a statement as readily as between two, so a long
        statement (a calibration takes a second) is probed throughout.  The
        time spent probing is left out of every timed stretch (see
        :meth:`clock`).  Only single-process workloads, whose statements run
        in this thread, are watched this way.
        """
        self._watching = True
        self._alarm_handler = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        os.fsync = self._fsync

    def stop_watching(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        os.fsync = _FSYNC
        if self._watching:
            self._watching = False
            previous = self._alarm_handler
            signal.signal(signal.SIGALRM, signal.SIG_DFL if previous is None else previous)

    def _fsync(self, fd: int) -> None:
        start = self.clock()
        try:
            _FSYNC(fd)
        finally:
            self.fsync_s += self.clock() - start

    def clock(self) -> float:
        """Wall seconds with the probes left out."""
        return time.perf_counter() - self.probe_s

    def last_probe(self) -> int:
        return len(self.slowdowns) - 1

    def slowdown(self, probes: Tuple[int, int]) -> float:
        """Mean host slowdown of the probes around a timed stretch: from the
        last one before it to the first one after it.

        The host's speed flickers within a second, so each op is divided by
        the probes next to it rather than by the run's typical speed.
        """
        first, last = probes
        return statistics.fmean(self.slowdowns[first:last + 2])

    def at_reference(self, stretch: Stretch) -> float:
        """A stretch's time at the reference host speed: its time in the
        processor divided by the slowdown around it, plus its fsync time."""
        wall, fsync, probes = stretch
        return (wall - fsync) / self.slowdown(probes) + fsync

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def timed(self, fn: Callable, *args) -> Any:
        """Call ``fn`` and charge its time on :meth:`clock` to statement
        time."""
        start = self.clock()
        result = fn(*args)
        if self.measuring:
            self.statement_s += self.clock() - start
        return result

    def wrote(self, values: int) -> None:
        """Count ``values`` numbers of user data written while measuring."""
        if self.measuring:
            self.user_bytes += values * VALUE_BYTES

    def sample(self, name: str, wall: float, fsync: float = 0.0) -> None:
        """Keep a named sample, taken inside the running op if any."""
        first = self.last_probe() if self.op_first_probe is None else self.op_first_probe
        self.samples[name].append((wall, fsync, (first, self.last_probe())))

    def record(self, kind: str, stretch: Stretch, problems: Sequence[str]) -> None:
        """One finished op; ``problems`` are its failed checks (empty if none)."""
        with self._mutex:
            self.attempted += 1
            self.ops.append((kind, stretch))
            if problems:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{kind}: {problems[0]}")

    def verify(self, problems: Sequence[str]) -> None:
        """A final consistency check, counted as one more (untimed) op."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"verify: {problems[0]}")

    def run_op(self, kind: str, op: Callable[[], Sequence[str]]) -> None:
        """Run ``op``, which issues its statements through :meth:`timed` and
        returns its failed checks.  The op's latency is its statement time,
        so generating inputs, checking outputs and probing are not charged
        to the program.  An error fails the op and charges its whole wall
        time."""
        self.op_first_probe = first = self.last_probe()
        start = self.clock()
        before, fsync = self.statement_s, self.fsync_s
        try:
            problems = op()
            latency = self.statement_s - before
        except Exception as exc:  # noqa: BLE001 - a failing op is a result
            problems = [f"{type(exc).__name__}: {exc}"]
            latency = self.clock() - start
        self.op_first_probe = None
        self.record(kind, (latency, self.fsync_s - fsync, (first, self.last_probe())), problems)

    # ------------------------------------------------------------------ #
    # Result
    # ------------------------------------------------------------------ #
    def result(self) -> Dict[str, Any]:
        own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cpu_setup_s = self.setup_s - self.setup_fsync_s
        out: Dict[str, Any] = {
            "workload": self.workload,
            "seed": self.seed,
            "setup_s": cpu_setup_s / self.setup_slowdown + self.setup_fsync_s,
            "wall_setup_s": self.setup_s,
            "peak_rss_mb": self.peak_rss_mb if self.peak_rss_mb is not None else own_rss,
        }
        if self.setup_only:
            return out
        wall = [stretch[0] * 1000.0 for _, stretch in self.ops]
        lat = [self.at_reference(stretch) * 1000.0 for _, stretch in self.ops]
        if self.phase_rates:
            wall_rates = [rate for rate, _ in self.phase_rates]
            rates = [rate * self.slowdown((k, k)) for rate, k in self.phase_rates]
        else:
            wall_rates, rates = busy_rates(wall, self.window), busy_rates(lat, self.window)
        details = defaultdict(list)
        for (kind, _), ms in zip(self.ops, lat):
            details[f"{kind}_ms"].append(ms)
        for name, stretches in self.samples.items():
            details[name] = [self.at_reference(stretch) for stretch in stretches]
        measured = self.slowdowns[self.first_measure_probe:]
        out.update(
            attempted=self.attempted,
            failed=self.failed,
            failures=self.failures,
            statement_s=self.statement_s,
            metrics={
                "ops_per_s": percentile(rates, 50),
                "op_ms.p50": percentile(lat, 50),
            },
            op_ms_p99=percentile(lat, 99),
            wall={
                "ops_per_s": percentile(wall_rates, 50),
                "op_ms.p50": percentile(wall, 50),
            },
            slowdown=percentile(measured, 50),
            samples={
                "ops": len(lat),
                "windows": len(rates),
                "probes": len(measured),
                "tail_percentile": highest_supported_percentile(len(lat)),
            },
            details={name: summarize(values) for name, values in sorted(details.items())},
            info=self.info,
        )
        if self.tracer is not None:
            self.trace_report = {
                "summary": self.tracer.summary(),
                "setup_summary": self.tracer.setup_summary(),
            }
            self.tracer.dump(str(self.spans_path))
        if self.trace_report is not None:
            out["trace"] = dict(self.trace_report, user_bytes=self.user_bytes)
        return out


# --------------------------------------------------------------------------- #
# pgfmu_day: the paper's workflow, one fleet per "day"
# --------------------------------------------------------------------------- #
DAY = {"houses": 8, "hours": 96, "ga": {"population_size": 24, "generations": 10}, "local": {"max_iterations": 15}}
QUICK_DAY = dict(DAY, houses=3)
#: Calibrated parameters must land this close to each house's truth.
CALIBRATION_TOLERANCE = 0.05


def pgfmu_day(run: Run) -> None:
    """Ingest -> fmu_create/fmu_copy -> MI fmu_parest -> fleet fmu_simulate ->
    SQL analysis, on a durable database, one fresh fleet per day."""
    cfg = QUICK_DAY if run.quick else DAY
    warmup_day = _day_inputs(run.seed, 0, cfg)
    run.window = 1
    db_dir = run.workdir / "pgfmu_day"
    run.start_setup()
    import repro

    conn = repro.connect(
        path=str(db_dir / "day.db"),
        storage_dir=str(db_dir / "fmu"),
        register_ml=False,
        ga_options=cfg["ga"],
        local_options=cfg["local"],
        seed=1,
    )
    cur = conn.cursor()
    cur.execute(MEAS_DDL)
    cur.execute("CREATE INDEX meas_house ON meas (house)")
    _run_day(run, cur, warmup_day, warmup=True)
    run.end_setup()
    if not run.setup_only:
        day = 1
        while run.running():
            inputs_of_day = _day_inputs(run.seed, day, cfg)
            run.run_op("day", lambda: _run_day(run, cur, inputs_of_day))
            day += 1
        run.end_measure()
    conn.database.storage.close()


def _day_inputs(seed: int, day: int, cfg: Dict[str, Any]) -> Dict[str, Any]:
    houses, hours = cfg["houses"], cfg["hours"]
    truth, series, clean = inputs.fleet(inputs.substream(seed, 1, day), houses, hours)
    house_ids = [day * houses + k for k in range(houses)]
    return {
        "day": day,
        "hours": hours,
        "truth": truth,
        "clean": clean,
        "houses": house_ids,
        "ids": [f"d{day}h{k}" for k in range(houses)],
        "rows": inputs.meas_rows(series, house_ids),
    }


def _run_day(run: Run, cur, d: Dict[str, Any], warmup: bool = False) -> List[str]:
    problems: List[str] = []
    houses, ids, hours = d["houses"], d["ids"], d["hours"]
    fleet = "{" + ", ".join(ids) + "}"
    queries = "{" + ", ".join(f'"SELECT time, x, y, u FROM meas WHERE house = {h}"' for h in houses) + "}"
    k = 1 + d["day"] % (len(houses) - 1)
    window = min(hours, 168)
    steps: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])  # wall s, fsync s

    def step(name: str, fn: Callable, *args) -> Any:
        before, fsync = run.statement_s, run.fsync_s
        result = run.timed(fn, *args)
        steps[name][0] += run.statement_s - before
        steps[name][1] += run.fsync_s - fsync
        return result

    step("ingest", cur.executemany, INSERT_MEAS, d["rows"])
    run.wrote(len(d["rows"]) * 5)
    step("create", cur.execute, "SELECT fmu_create($1, $2)", [inputs.hp1_source(), ids[0]])
    for instance in ids[1:]:
        step("create", cur.execute, "SELECT fmu_copy($1, $2)", [ids[0], instance])
    step("parest", cur.execute, "SELECT fmu_parest($1, $2, '{Cp, R}')", [fleet, queries])
    errors = [float(e) for e in cur.fetchone()[0].strip("{}").split(",")]
    step("simulate", cur.execute, "SELECT * FROM fmu_simulate($1, $2)",
         [fleet, f"SELECT time, u FROM meas WHERE house = {houses[0]}"])
    sim_rows = step("simulate", cur.fetchall)
    step("analysis", cur.execute,
         f"SELECT count(*), avg(s.value), avg(abs(s.value - m.x)) "
         f"FROM fmu_simulate('{ids[k]}', 'SELECT time, u FROM meas WHERE house = {houses[k]} "
         f"AND time < {window}') s JOIN meas m ON m.time = s.simulationtime "
         f"WHERE m.house = {houses[k]} AND s.varname = 'x'")
    n_joined, mean_x, mae = step("analysis", cur.fetchall)[0]

    # Oracles (not timed): calibration accuracy, row counts, analysis values.
    if len(errors) != len(ids) or not all(0.0 <= e < 0.1 for e in errors):
        problems.append(f"fmu_parest errors out of range: {errors}")
    cur.execute(
        "SELECT instanceid, varname, value FROM modelinstancevalues "
        "WHERE varname = 'Cp' OR varname = 'R'"
    )
    estimates = {(i, v): float(_value(x)) for i, v, x in cur.fetchall()}
    for j, instance in enumerate(ids):
        for name in ("Cp", "R"):
            true_value = float(d["truth"][name][j])
            got = estimates.get((instance, name))
            if got is None or abs(got / true_value - 1.0) > CALIBRATION_TOLERANCE:
                problems.append(f"{instance}.{name} = {got}, truth {true_value:.4f}")
    expected_rows = len(ids) * hours * 2
    if len(sim_rows) != expected_rows or {r[1] for r in sim_rows} != set(ids):
        problems.append(f"fmu_simulate returned {len(sim_rows)} rows, expected {expected_rows}")
    expected_mean = float(d["clean"][k, :window].mean())
    if n_joined != window or abs(mean_x - expected_mean) > 0.05 or not 0.0 <= mae < 0.15:
        problems.append(f"analysis ({n_joined}, {mean_x}, {mae}) vs mean {expected_mean:.4f}")

    step("cleanup", cur.execute, f"DELETE FROM meas WHERE house >= {houses[0]}")
    for instance in ids:
        step("cleanup", cur.execute, "SELECT fmu_delete_instance($1)", [instance])
    if not warmup:
        for name, (seconds, fsync) in steps.items():
            run.sample(f"{name}_s", seconds, fsync)
        run.sample("day_s", sum(s[0] for s in steps.values()), sum(s[1] for s in steps.values()))
    return problems


# --------------------------------------------------------------------------- #
# analytics: read-only SQL over an in-memory fixture
# --------------------------------------------------------------------------- #
ANALYTICS = {"houses": 32, "hours": 672}
QUICK_ANALYTICS = {"houses": 4, "hours": 96}


class AnalyticsData:
    """The fixture as numpy arrays, which every query is checked against."""

    def __init__(self, seed: int, houses: int, hours: int):
        _, series, clean = inputs.fleet(inputs.substream(seed, 2), houses, hours)
        self.houses, self.hours = houses, hours
        self.x, self.y, self.u = series[..., 0], series[..., 1], series[..., 2]
        self.sim = clean
        self.meas_rows = inputs.meas_rows(series, range(houses))
        self.sim_rows = [
            (h, float(t), float(clean[h, t])) for h in range(houses) for t in range(hours)
        ]


#: Queries of each kind in every window of 40.  Range, per-house aggregate
#: and top-k queries come both ``$n``-bound and with inlined literals; the
#: literal forms draw from far more distinct texts than the engine's
#: 512-entry statement cache holds.
ANALYTICS_DECK = {
    "point": 10, "range_param": 4, "range_literal": 4, "house_agg_param": 4,
    "house_agg_literal": 4, "topk_param": 3, "topk_literal": 3, "join": 8,
}


def analytics_op(kind: str, rng: np.random.Generator, data: AnalyticsData):
    """One seeded query of ``kind``: ``(kind, sql, params, expected, exact)``."""
    H, T = data.houses, data.hours
    h = int(rng.integers(H))
    literal = kind.endswith("_literal")
    if kind == "point":
        t = int(rng.integers(T))
        return ("point", "SELECT x, y, u FROM meas WHERE house = $1 AND time = $2", [h, float(t)],
                [[data.x[h, t], data.y[h, t], data.u[h, t]]], True)
    if kind.startswith("range"):
        width = int(rng.integers(1, 25))
        a = int(rng.integers(T - width))
        b = a + width
        block = data.x[:, a:b + 1]
        expected = [[block.size, block.mean(), block.max()]]
        sql = "SELECT count(*), avg(x), max(x) FROM meas WHERE time BETWEEN {} AND {}"
        return _form("range", sql, [float(a), float(b)], literal, expected)
    if kind.startswith("house_agg"):
        since = int(rng.integers(T))
        xs, us = data.x[h, since:], data.u[h, since:]
        expected = [[xs.size, xs.mean(), xs.min(), xs.max(), us.sum()]]
        sql = "SELECT count(*), avg(x), min(x), max(x), sum(u) FROM meas WHERE house = {} AND time >= {}"
        return _form("house_agg", sql, [h, float(since)], literal, expected)
    if kind.startswith("topk"):
        before = int(rng.integers(10, T + 1))
        times = list(range(before - 1, before - 11, -1))
        expected = [[float(t), data.x[h, t]] for t in times]
        sql = "SELECT time, x FROM meas WHERE house = {} AND time < {} ORDER BY time DESC LIMIT 10"
        return _form("topk", sql, [h, float(before)], literal, expected)
    width = int(rng.integers(1, 25))
    a = int(rng.integers(T - width))
    resid = np.abs(data.sim[h, a:a + width + 1] - data.x[h, a:a + width + 1])
    expected = [[width + 1, resid.mean()]]
    return ("join",
            "SELECT count(*), avg(abs(s.x - m.x)) FROM meas m JOIN sim s "
            "ON s.house = m.house AND s.time = m.time "
            "WHERE m.house = $1 AND s.house = $1 AND m.time BETWEEN $2 AND $3",
            [h, float(a), float(a + width)], expected, False)


def _form(kind: str, template: str, params: List[Any], literal: bool, expected) -> tuple:
    if literal:
        return (f"{kind}_literal", template.format(*[_sql_number(p) for p in params]), None, expected, False)
    placeholders = [f"${i + 1}" for i in range(len(params))]
    return (f"{kind}_param", template.format(*placeholders), params, expected, False)


def _sql_number(value: Any) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _compare(got: List[List[Any]], expected: List[List[Any]], exact: bool) -> List[str]:
    if len(got) != len(expected):
        return [f"{len(got)} rows, expected {len(expected)}"]
    for row, want in zip(got, expected):
        if len(row) != len(want):
            return [f"row {row} has the wrong width"]
        for a, b in zip(row, want):
            if (a != b) if exact else not _close(a, b):
                return [f"row {row} != {want}"]
    return []


def analytics(run: Run) -> None:
    cfg = QUICK_ANALYTICS if run.quick else ANALYTICS
    data = AnalyticsData(run.seed, cfg["houses"], cfg["hours"])
    rng = inputs.substream(run.seed, 2, 1)
    kinds = inputs.deck(rng, ANALYTICS_DECK)
    run.window = sum(ANALYTICS_DECK.values())
    run.start_setup()
    import repro.sqldb

    conn = repro.sqldb.connect()
    cur = conn.cursor()
    cur.execute(MEAS_DDL)
    cur.execute("CREATE TABLE sim (house integer, time double precision, x double precision, PRIMARY KEY (house, time))")
    cur.execute("CREATE INDEX meas_time ON meas USING BTREE (time)")
    cur.execute("CREATE INDEX meas_house ON meas (house)")
    cur.execute("CREATE INDEX sim_house ON sim (house)")
    cur.executemany(INSERT_MEAS, data.meas_rows)
    cur.executemany("INSERT INTO sim VALUES ($1, $2, $3)", data.sim_rows)
    cur.execute("ANALYZE")

    def query(op) -> List[str]:
        _kind, sql, params, expected, exact = op
        got = run.timed(lambda: cur.execute(sql, params).fetchall())
        return _compare(got, expected, exact)

    for _ in range(run.window):  # warm-up unit: one window of queries
        query(analytics_op(next(kinds), rng, data))
    run.end_setup()
    if run.setup_only:
        return
    while run.running():
        op = analytics_op(next(kinds), rng, data)
        run.run_op(op[0], lambda: query(op))
    run.end_measure()


# --------------------------------------------------------------------------- #
# ingest: durable writes beside point reads, then close and reopen
# --------------------------------------------------------------------------- #
INGEST = {"houses": 16, "hours": 168, "checkpoint_every": 1000, "tail_ops": 1000, "reopens": 3}
QUICK_INGEST = {"houses": 4, "hours": 24, "checkpoint_every": 100, "tail_ops": 100, "reopens": 1}
UPLOAD_ROWS = 100
#: Ops per block, the window of the windowed throughput.
INGEST_BLOCK = 50
#: The 48 other ops of every block of 50 (op 24 of a block is a retention
#: DELETE and op 49 an upload), so each block deals exactly one deck.  At the
#: checkpoint cadence, op 48 is a CHECKPOINT instead.
INGEST_DECK = {"insert": 24, "update": 10, "select": 14}


class IngestState:
    """The seeded op stream and the mirror of every acknowledged write.

    Each house keeps a rolling window of ``hours`` readings.  Writes go to
    the houses in turn: single-row INSERTs round robin, and in every block
    of 50 ops one house uploads 100 buffered readings and a retention DELETE
    trims one house back to its window, half a round of houses behind the
    uploads.  Every house thus gains and loses the same rows per round, and
    the table keeps a steady size whatever the seed, so per-op cost neither
    drifts during a run nor depends on the seed; the seed picks the values
    and which houses are read and updated.  The fixture starts at that size
    (see :meth:`fixture_rows`).
    """

    def __init__(self, seed: int, houses: int, hours: int):
        self.rng = inputs.substream(seed, 3)
        self.kinds = inputs.deck(self.rng, INGEST_DECK)
        self.houses, self.hours = houses, hours
        self.mirror: Dict[tuple, tuple] = {}
        self.latest = [hours - 1] * houses
        self.oldest = [0] * houses
        self.index = 0
        self.next_trim = 0
        self.next_upload = houses // 2
        self.next_insert = 0

    def reading(self) -> tuple:
        x = 20.0 + float(self.rng.normal(0.0, 2.0))
        u = float(self.rng.random())
        return (x, inputs.RATED_POWER * u, u)

    def fixture_rows(self) -> List[tuple]:
        """Each house's window plus what it has gained since its last trim
        in the steady state.  House ``h`` is trimmed in block ``h``, so it
        was last trimmed ``houses - h`` blocks ago; it gained its share of
        the INSERTs of those blocks, and an upload if it is one of the first
        half of the houses (whose uploads come half a round after a trim)."""
        rows = []
        for h in range(self.houses):
            since_trim = self.houses - h
            gained = round(INGEST_DECK["insert"] * since_trim / self.houses)
            if h < self.houses // 2:
                gained += UPLOAD_ROWS
            self.latest[h] = self.hours - 1 + gained
            for t in range(self.latest[h] + 1):
                values = self.reading()
                self.mirror[(h, float(t))] = values
                rows.append((h, float(t), *values))
        return rows

    def next_op(self, checkpoint_every: int) -> tuple:
        """``(kind, sql, params or rows, apply)``; ``apply`` updates the mirror
        once the program acknowledged the op."""
        i = self.index
        self.index += 1
        h = int(self.rng.integers(self.houses))
        slot = i % INGEST_BLOCK
        if slot == INGEST_BLOCK // 2 - 1:
            h = self.next_trim
            self.next_trim = (self.next_trim + 1) % self.houses
            cutoff = float(self.latest[h] - self.hours + 1)

            def trim(h=h, cutoff=cutoff):
                for t in range(self.oldest[h], int(cutoff)):
                    self.mirror.pop((h, float(t)), None)
                self.oldest[h] = max(self.oldest[h], int(cutoff))

            return ("retention", "DELETE FROM meas WHERE house = $1 AND time < $2", [h, cutoff], trim)
        if slot == INGEST_BLOCK - 1:
            h = self.next_upload
            self.next_upload = (self.next_upload + 1) % self.houses
            first = self.latest[h] + 1
            rows = [(h, float(first + j), *self.reading()) for j in range(UPLOAD_ROWS)]
            return ("upload", INSERT_MEAS, rows, lambda: self._put(rows))
        kind = next(self.kinds)
        if i % checkpoint_every == checkpoint_every - 2:
            # A deck op, not the upload after it, gives way, so that the
            # table keeps its size.
            return ("checkpoint", "CHECKPOINT", None, lambda: None)
        if kind == "insert":
            h = self.next_insert
            self.next_insert = (self.next_insert + 1) % self.houses
        t = float(self.latest[h])
        if kind == "insert":
            row = (h, t + 1.0, *self.reading())
            return ("insert", INSERT_MEAS, list(row), lambda: self._put([row]))
        if kind == "update":
            x = 20.0 + float(self.rng.normal(0.0, 2.0))

            def update(h=h, t=t, x=x):
                old = self.mirror[(h, t)]
                self.mirror[(h, t)] = (x, old[1], old[2])

            return ("update", "UPDATE meas SET x = $1 WHERE house = $2 AND time = $3", [x, h, t], update)
        return ("select", "SELECT x, y, u FROM meas WHERE house = $1 AND time = $2", [h, t], lambda: None)

    def _put(self, rows: Sequence[tuple]) -> None:
        for h, t, *values in rows:
            self.mirror[(h, t)] = tuple(values)
            self.latest[h] = max(self.latest[h], int(t))


def _ingest_op(run: Run, cur, state: IngestState, op: tuple) -> List[str]:
    kind, sql, params, apply = op
    if kind == "upload":
        run.timed(cur.executemany, sql, params)
        run.wrote(len(params) * 5)
        apply()
        return []
    got = run.timed(lambda: cur.execute(sql, params).fetchall())
    if kind == "select":
        h, t = params
        want = state.mirror[(h, t)]
        return [] if got == [list(want)] else [f"read {got} for ({h}, {t}), wrote {want}"]
    if kind == "insert":
        run.wrote(5)
    elif kind == "update":
        run.wrote(1)
        if cur.rowcount != 1:
            return [f"UPDATE touched {cur.rowcount} rows"]
    apply()
    return []


def ingest(run: Run) -> None:
    cfg = QUICK_INGEST if run.quick else INGEST
    state = IngestState(run.seed, cfg["houses"], cfg["hours"])
    fixture = state.fixture_rows()
    path = str(run.workdir / "ingest" / "ingest.db")
    run.window = INGEST_BLOCK
    run.start_setup()
    import repro.sqldb

    conn = repro.sqldb.connect(path=path)
    cur = conn.cursor()
    cur.execute(MEAS_DDL)
    cur.execute("CREATE INDEX meas_time ON meas USING BTREE (time)")
    cur.executemany(INSERT_MEAS, fixture)
    for _ in range(run.window):  # warm-up unit: one window of ops
        _ingest_op(run, cur, state, state.next_op(cfg["checkpoint_every"]))
    run.end_setup()
    if run.setup_only:
        conn.database.storage.close()
        return
    while run.running():
        op = state.next_op(cfg["checkpoint_every"])
        run.run_op(op[0], lambda: _ingest_op(run, cur, state, op))
    run.end_measure()

    # Recovery: a checkpoint, then a fixed WAL tail, then close and reopen.
    cur.execute("CHECKPOINT")
    for _ in range(cfg["tail_ops"]):
        op = state.next_op(10 ** 9)
        _ingest_op(run, cur, state, op)
    conn.database.storage.close()
    for _ in range(cfg["reopens"]):
        run.probe()
        start = time.perf_counter()
        conn = repro.sqldb.connect(path=path)
        run.sample("recover_s", time.perf_counter() - start)
        rows = conn.execute("SELECT house, time, x, y, u FROM meas").fetchall()
        conn.database.storage.close()
    got = {(h, t): (x, y, u) for h, t, x, y, u in rows}
    run.verify([] if got == state.mirror else [
        f"reopened table has {len(got)} rows, mirror {len(state.mirror)}"
    ])


# --------------------------------------------------------------------------- #
# serve_mixed: two clients against repro.serve() in a child process
# --------------------------------------------------------------------------- #
SERVE = {"houses": 16, "hours": 672, "instances": 8, "window": 24, "clients": 2}
QUICK_SERVE = {"houses": 4, "hours": 96, "instances": 2, "window": 24, "clients": 2}
INSERTED_TIME_BASE = 100000.0
#: Largest allowed gaps [degC] between the program's adaptive RK45 and the
#: benchmark's own fine RK4 on a 24 h window: in any hour, and on average.
#: The program interpolates linearly between its solver's steps, which can
#: span hours: the worst window seen (seed 136) had one hour 0.35 degC off
#: and a mean gap of 0.04 degC.  A wrong input, parameter or start value
#: moves the whole window.
SIMULATE_MAX_ERROR = 1.0
SIMULATE_MEAN_ERROR = 0.1


def serve_mixed(run: Run) -> None:
    cfg = QUICK_SERVE if run.quick else SERVE
    data = inputs.serve_fixture(run.seed, cfg["houses"], cfg["hours"])
    command = [
        sys.executable, str(HERE / "server_child.py"),
        "--seed", str(run.seed), "--workdir", str(run.workdir / "serve"),
        "--trace", str(int(run.trace)), "--spans", str(run.spans_path),
    ] + (["--quick"] if run.quick else [])
    # With two CPUs, the server pins itself to the first before it starts
    # any thread, and this process, whose client threads inherit its mask,
    # takes the second.
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        command += ["--cpu", str(cpus[0])]
        os.sched_setaffinity(0, {cpus[1]})
    child = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        ready = json.loads(child.stdout.readline())
        run.setup_s, run.setup_slowdown = ready["setup_s"], ready["setup_slowdown"]
        run.info["affinity"] = {"server": ready["affinity"], "load": sorted(os.sched_getaffinity(0))}
        if not run.setup_only:
            _serve_load(run, cfg, data, ready["url"], child)
        report = _ask(child, "quit")
        child.wait(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    run.peak_rss_mb = report["peak_rss_mb"]
    run.trace_report = report.get("trace")


#: Statements of each kind in every block of 20 a client sends; a phase of
#: the load is one block per client.
SERVE_DECK = {"select": 14, "insert": 4, "simulate": 2}


def serve_op(kind: str, rng: np.random.Generator, cfg: Dict[str, Any], data: Dict[str, Any], client: int, k: int):
    """One seeded statement of a client: ``(kind, sql, params, check)``."""
    h = int(rng.integers(cfg["houses"]))
    if kind == "select":
        t = int(rng.integers(cfg["hours"]))
        want = [[float(v) for v in data["series"][h, t]]]
        return ("select", "SELECT x, y, u FROM meas WHERE house = $1 AND time = $2", [h, float(t)],
                lambda rows: [] if rows == want else [f"read {rows}, generated {want}"])
    if kind == "insert":
        t = INSERTED_TIME_BASE + client * 10 ** 7 + k
        return ("insert", INSERT_MEAS, [h, t, 20.0, 1.0, 0.5], lambda rows: [])
    w = cfg["window"]
    start = int(rng.integers(cfg["hours"] - w))
    sql = (f"SELECT * FROM fmu_simulate('i{h % cfg['instances']}', "
           f"'SELECT time, u FROM meas WHERE house = {h} AND time BETWEEN {start} AND {start + w - 1}')")

    def check(rows):
        xs = sorted((r[0], r[3]) for r in rows if r[2] == "x")
        if len(rows) != 2 * w or len(xs) != w:
            return [f"{len(rows)} simulated rows, expected {2 * w}"]
        expected = inputs.hp1_window(data["series"][h, start:start + w, 2])
        diff = np.abs(np.array([v for _, v in xs]) - expected)
        if diff.max() < SIMULATE_MAX_ERROR and diff.mean() < SIMULATE_MEAN_ERROR:
            return []
        return [f"simulated x off by up to {diff.max():.4f}, {diff.mean():.4f} on average"]

    return ("simulate", sql, None, check)


def _ask(child: subprocess.Popen, command: str) -> Dict[str, Any]:
    """Send a command line to the server child and read its JSON reply."""
    child.stdin.write(command + "\n")
    child.stdin.flush()
    return json.loads(child.stdout.readline())


def _serve_load(run: Run, cfg: Dict[str, Any], data: Dict[str, Any], url: str, child: subprocess.Popen) -> None:
    """Both clients send phases of one deck block each.  Between phases,
    off the clock and with the server idle, the server probes the host on
    its CPU, where nearly all the work runs; the clients' CPU barely moves
    the throughput.  A phase's throughput is its statements per elapsed
    second.  The phase and each of its statements are divided by the mean
    slowdown of the probes before and after it."""
    import repro.client

    clients = [repro.client.connect(url) for _ in range(cfg["clients"])]
    phase_ops = sum(SERVE_DECK.values())
    done: List[List[tuple]] = [[] for _ in clients]
    phase = {"start": 0.0, "stop": False}

    def probe() -> None:
        run.probe(_ask(child, "probe")["probe_ms"])

    def end_phase() -> None:
        # Runs in one client thread while the other waits at the barrier.
        end = time.perf_counter()
        run.phase_rates.append((phase_ops * len(clients) / (end - phase["start"]), run.last_probe()))
        probe()
        phase["stop"] = not run.running()
        phase["start"] = time.perf_counter()

    barrier = threading.Barrier(len(clients), action=end_phase)

    def client_loop(c: int) -> None:
        # Replies are checked after measuring, so the load stays closed-loop
        # on the server and is not paced by the checks.
        rng = inputs.substream(run.seed, 4, c)
        kinds = inputs.deck(rng, SERVE_DECK)
        cur = clients[c].cursor()
        k = 0
        try:
            while not phase["stop"]:
                first = run.last_probe()  # the probe before this phase
                for _ in range(phase_ops):
                    kind, sql, params, check = serve_op(next(kinds), rng, cfg, data, c, k)
                    k += 1
                    start = time.perf_counter()
                    try:
                        rows, error = cur.execute(sql, params).fetchall(), None
                    except Exception as exc:  # noqa: BLE001 - a failing op is a result
                        rows, error = None, f"{type(exc).__name__}: {exc}"
                    done[c].append((kind, time.perf_counter() - start, first, rows, error, check))
                barrier.wait()
        except BaseException:
            barrier.abort()  # release the other client
            raise

    run.begin_measure()
    probe()
    phase["start"] = time.perf_counter()
    threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(len(clients))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if barrier.broken:
        raise RuntimeError("a serve_mixed client stopped before the run ended")
    run.end_measure()
    inserted = 0
    for kind, latency, first, rows, error, check in (op for ops in done for op in ops):
        problems = [error] if error else check(rows)
        inserted += kind == "insert" and not problems
        run.statement_s += latency
        run.record(kind, (latency, 0.0, (first, first)), problems)
    count = clients[0].cursor().execute(
        "SELECT count(*) FROM meas WHERE time >= $1", [INSERTED_TIME_BASE]
    ).fetchone()[0]
    run.verify([] if count == inserted else [
        f"{count} inserted rows stored, {inserted} acknowledged"
    ])
    for conn in clients:
        conn.close()


WORKLOADS = {
    "pgfmu_day": pgfmu_day,
    "analytics": analytics,
    "ingest": ingest,
    "serve_mixed": serve_mixed,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    run = Run(args)
    shutil.rmtree(run.workdir, ignore_errors=True)
    run.workdir.mkdir(parents=True)
    try:
        WORKLOADS[args.workload](run)
    finally:
        run.stop_watching()  # still on after a set-up-only run
        shutil.rmtree(run.workdir, ignore_errors=True)
    result = run.result()
    with open(args.out, "w") as out:
        json.dump(result, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
