"""Self-tests of the benchmark harness (fast; collected by the tier-1 suite)."""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from percentiles import busy_rates, highest_supported_percentile, percentile  # noqa: E402
from tracer import BOUNDARIES, Tracer, layer_metrics, self_times, summarize_spans  # noqa: E402

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------- #
# Percentiles
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "n, expected",
    [(10000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, None)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert highest_supported_percentile(n) == expected


def test_percentile_interpolates_between_order_statistics():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0], 100) == 3.0
    assert percentile([7.0], 99) == 7.0


def test_busy_rates_count_only_time_spent_in_ops():
    assert busy_rates([10.0] * 9, window=4) == [100.0, 100.0]


def _run(tmp_path):
    args = argparse.Namespace(workload="analytics", seed=1, seconds=1.0, quick=False, trace=0,
                              setup_only=False, workdir=str(tmp_path), out=str(tmp_path / "r.json"))
    return workloads.Run(args)


def test_each_op_is_divided_by_the_probes_around_it(tmp_path, monkeypatch):
    probes = iter([1.0, 3.0, 1.0, 2.0, 3.0])
    monkeypatch.setattr(workloads, "probe_ms", lambda: next(probes) * workloads.PROBE_REF_MS)
    monkeypatch.setattr(workloads.Run, "start_watching", lambda self: None)  # no timer here
    run = _run(tmp_path)
    run.window = 2
    run.start_setup()  # probe 0: 1.0
    run.end_setup()  # probe 1: 3.0; set-up is divided by their mean, 2
    run.setup_s, run.setup_fsync_s = 3.0, 1.0
    run.record("q", (0.004, 0.0, (1, 1)), [])  # between probes 1 and 2: divided by 2
    run.record("q", (0.004, 0.0, (1, 1)), [])
    run.probe()  # probe 2: 1.0
    run.record("q", (0.010, 0.0, (2, 3)), [])  # probes 2 to 4: divided by 2
    run.probe()  # probe 3: 2.0
    run.probe()  # probe 4: 3.0
    # No probe after it: divided by probe 4 alone; its fsync time is not divided.
    run.record("q", (0.007, 0.001, (4, 4)), [])
    out = run.result()
    assert out["setup_s"] == 2.0 and out["wall_setup_s"] == 3.0  # (3 - 1) / 2 + 1
    assert out["slowdown"] == 2.5 and out["samples"]["probes"] == 4  # probes 1 to 4
    assert out["wall"] == {"ops_per_s": pytest.approx((250.0 + 2000.0 / 17) / 2), "op_ms.p50": 5.5}
    assert out["metrics"]["op_ms.p50"] == pytest.approx(2.5)  # of 2, 2, 5, 3
    assert out["metrics"]["ops_per_s"] == pytest.approx((500.0 + 250.0) / 2)
    assert out["details"]["q_ms"]["median"] == pytest.approx(2.5)


def test_watching_probes_on_a_timer_and_times_fsync_until_stopped(tmp_path):
    run = _run(tmp_path)
    fsync, handler = os.fsync, signal.getsignal(signal.SIGALRM)
    run.start_watching()
    try:
        with open(tmp_path / "f", "wb") as f:
            f.write(b"x")
            f.flush()
            os.fsync(f.fileno())
        deadline = time.monotonic() + 5.0
        while len(run.slowdowns) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        run.stop_watching()
    assert len(run.slowdowns) >= 2 and run.fsync_s > 0.0
    assert os.fsync is fsync and signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# --------------------------------------------------------------------------- #
# Self time
# --------------------------------------------------------------------------- #
def test_self_time_subtracts_direct_children_only():
    spans = [
        ("A", "a", 0.0, 10.0, -1),
        ("B", "b", 1.0, 4.0, 0),
        ("C", "c", 5.0, 9.0, 0),
        ("D", "d", 6.0, 7.0, 2),
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_recursive_spans_are_charged_once_per_layer():
    # Database.execute -> Executor.execute -> (UDF) Database.execute -> parse
    spans = [
        ("Database.execute", "sqldb.engine", 0.0, 10.0, -1),
        ("Executor.execute", "sqldb.executor", 1.0, 9.0, 0),
        ("Database.execute", "sqldb.engine", 2.0, 8.0, 1),
        ("database.parse_sql", "sqldb.parser", 3.0, 4.0, 2),
    ]
    summary = summarize_spans([spans], float("-inf"), float("inf"), {})
    assert summary["self_s"] == {"sqldb.engine": 7.0, "sqldb.executor": 2.0, "sqldb.parser": 1.0}
    assert sum(summary["self_s"].values()) == 10.0


def test_summary_window_keeps_whole_trees_started_inside_it():
    spans = [
        ("Database.execute", "sqldb.engine", 0.0, 2.0, -1),
        ("database.parse_sql", "sqldb.parser", 0.5, 1.0, 0),
        ("Database.execute", "sqldb.engine", 5.0, 6.0, -1),
        ("database.parse_sql", "sqldb.parser", 5.0, 5.5, 2),
    ]
    summary = summarize_spans([spans], 4.0, 10.0, {})
    assert summary["self_s"] == {"sqldb.engine": 0.5, "sqldb.parser": 0.5}
    assert summary["spans"] == 2


# --------------------------------------------------------------------------- #
# Tracing leaves the program as it found it
# --------------------------------------------------------------------------- #
def _raw(boundary):
    target = boundary.resolve()
    return target.__dict__[boundary.attr] if isinstance(target, type) else getattr(target, boundary.attr)


def test_every_wrapped_attribute_is_restored_after_a_traced_run():
    import repro.sqldb
    import repro.sqldb.database
    from repro.fmi.model import FmuModel

    originals = [_raw(b) for b in BOUNDARIES]
    parse_sql = repro.sqldb.database.parse_sql
    simulate_batch = FmuModel.__dict__["simulate_batch"]
    tracer = Tracer().install()
    try:
        assert repro.sqldb.database.parse_sql is not parse_sql
        assert isinstance(FmuModel.__dict__["simulate_batch"], staticmethod)
        tracer.mark()
        conn = repro.sqldb.connect()
        conn.execute("CREATE TABLE t (k integer PRIMARY KEY, v double precision)")
        conn.execute("INSERT INTO t VALUES (1, 2.5)")
        assert conn.execute("SELECT v FROM t WHERE k = $1", [1]).fetchall() == [[2.5]]
        tracer.mark_end()
    finally:
        tracer.uninstall()
    assert [_raw(b) for b in BOUNDARIES] == originals
    assert all(_raw(b) is raw for b, raw in zip(BOUNDARIES, originals))
    assert repro.sqldb.database.parse_sql is parse_sql
    assert FmuModel.__dict__["simulate_batch"] is simulate_batch
    summary = tracer.summary()
    assert {"sqldb.engine", "sqldb.parser", "sqldb.executor"} <= set(summary["self_s"])
    assert summary["counters"]["parser.calls"] == 3


def test_benchmark_json_names_exactly_the_metrics_the_runner_reports():
    summary = {"self_s": {}, "span_s": {}, "counters": {}, "spans": 0}
    per_layer = set(layer_metrics(summary, 1.0, 1)) | {"trace.overhead_frac"}
    assert per_layer == {m["name"] for m in SPEC["per_layer"]}
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "setup_s", "peak_rss_mb", "ops_per_s", "op_ms.p50",
    }


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
def test_integrator_matches_the_closed_form_for_a_constant_input():
    cp, r, u = 1.49, 1.481, 0.4
    tau = r * cp
    steady = inputs.OUTDOOR + r * inputs.RATED_POWER * inputs.COP * u
    t = np.arange(48.0)
    exact = steady + (inputs.INDOOR_START - steady) * np.exp(-t / tau)
    got = inputs.simulate_hp1(np.array([cp]), np.array([r]), np.full((1, 48), u))[0]
    assert np.max(np.abs(got - exact)) < 1e-6


def test_deck_gives_every_block_the_same_mix():
    kinds = inputs.deck(np.random.default_rng(0), {"a": 3, "b": 1})
    blocks = [sorted(next(kinds) for _ in range(4)) for _ in range(5)]
    assert blocks == [["a", "a", "a", "b"]] * 5


@pytest.mark.parametrize("seed", [1, 2])
def test_ingest_table_keeps_its_size_from_the_first_op(seed):
    cfg = workloads.INGEST
    state = workloads.IngestState(seed, cfg["houses"], cfg["hours"])
    start = len(state.fixture_rows())
    sizes = []  # at the start of each block, i.e. of each window
    for i in range(3 * cfg["checkpoint_every"]):
        state.next_op(cfg["checkpoint_every"])[3]()  # acknowledge the op
        if i % workloads.INGEST_BLOCK == workloads.INGEST_BLOCK - 1:
            sizes.append(len(state.mirror))
    assert max(abs(size / start - 1.0) for size in sizes) < 0.01


def test_fleets_are_seeded_and_split_into_near_and_far_houses():
    a = inputs.fleet(inputs.substream(7, 1, 3), 8, 168)
    b = inputs.fleet(inputs.substream(7, 1, 3), 8, 168)
    assert np.array_equal(a[1], b[1])
    for seed in range(4):
        truth, series, _ = inputs.fleet(inputs.substream(seed, 1, 1), 8, 168)
        for name, value in inputs.TABLE7.items():
            assert np.all(np.abs(truth[name] / value - 1.0) <= 0.10)
        ref = series[0]
        dissimilarity = [
            max(np.linalg.norm(series[k, :, j] - ref[:, j]) / np.linalg.norm(ref[:, j]) for j in range(3))
            for k in range(1, 8)
        ]
        near = inputs.near_houses(8)
        assert max(dissimilarity[:near]) < 0.15  # warm-started (threshold 0.2)
        assert min(dissimilarity[near:]) > 0.5  # full calibration


# --------------------------------------------------------------------------- #
# compare.py
# --------------------------------------------------------------------------- #
def _records(values, metric="op_ms.p50", label="", failed=0, seconds=20.0):
    return [
        {"workload": "analytics", "label": label, "seed": 1, "seconds": seconds,
         "attempted": 100, "failed": failed, "metrics": {metric: {"value": v, "unit": "ms"}}}
        for v in values
    ]


def _rows(parent, change):
    return {r["metric"]: r["verdict"] for r in compare.compare(parent, change, SPEC)}


def _verdict(parent, change, metric="op_ms.p50"):
    rows = _rows(_records(parent, metric), _records(change, metric))
    assert rows[compare.FAILED] == "no change"
    return rows[metric]


def test_compare_reports_a_win_on_nine_of_ten_pairs():
    parent = [10.0, 10.1, 9.9, 10.2, 10.0, 9.8, 10.1, 10.0, 9.9, 10.0]
    change = [8.0, 8.1, 7.9, 8.2, 8.0, 7.8, 8.1, 8.0, 10.5, 8.0]
    assert _verdict(parent, change) == "gain"


def test_compare_needs_ten_pairs_for_a_gain():
    assert _verdict([10.0, 10.1, 9.9, 10.0, 10.2], [8.0, 8.1, 7.9, 8.0, 8.2]) == "no change"


def test_compare_reports_a_regression_beyond_the_bound():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2]
    assert _verdict(parent, [14.0, 14.1, 13.9, 14.0, 14.2]) == "regression"
    assert _verdict(parent, [10.5, 10.6, 10.4, 10.5, 10.7]) == "no change"


def test_compare_reports_unresolved_when_the_spread_exceeds_the_bound():
    parent = [6.0, 14.0, 8.0, 12.0, 10.0]
    assert _verdict(parent, [14.0, 14.1, 13.9, 14.0, 14.2]) == "unresolved"


def test_compare_orients_by_the_metrics_direction():
    parent = [100.0, 101.0, 99.0, 100.0, 100.5]
    assert _verdict(parent, [60.0, 60.5, 59.5, 60.0, 60.2], metric="ops_per_s") == "regression"


GAIN = ([10.0, 10.1, 9.9, 10.2, 10.0, 9.8, 10.1, 10.0, 9.9, 10.0], [8.0] * 10)


def _compare_files(tmp_path, parent, change):
    """Exit code of ``compare.py`` on the two record sets."""
    paths = []
    for name, records in (("parent", parent), ("change", change)):
        paths.append(tmp_path / f"{name}.jsonl")
        paths[-1].write_text("".join(json.dumps(r) + "\n" for r in records))
    return compare.main([str(p) for p in paths])


def test_compare_voids_a_gain_when_more_ops_fail(tmp_path):
    parent, change = _records(GAIN[0]), _records(GAIN[1], failed=1)
    assert _rows(parent, change) == {"op_ms.p50": "void", compare.FAILED: "failed"}
    assert _compare_files(tmp_path, parent, change) == 1
    # The same share of failures on both sides is no change.
    assert _rows(_records(GAIN[0], failed=1), change)["op_ms.p50"] == "gain"


def test_compare_refuses_runs_of_different_length(tmp_path):
    parent, change = _records(GAIN[0]), _records(GAIN[1], seconds=10.0)
    with pytest.raises(ValueError, match="seconds"):
        compare.compare(parent, change, SPEC)
    assert _compare_files(tmp_path, parent, change) == 2


def test_compare_reads_labelled_sets_from_one_file(tmp_path):
    path = tmp_path / "history.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in _records([1.0], label="a") + _records([2.0], label="b")))
    assert [r["label"] for r in compare.load(f"{path}#b")] == ["b"]
    assert len(compare.load(str(path))) == 2
