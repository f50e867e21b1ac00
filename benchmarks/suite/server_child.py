"""The server process of the ``serve_mixed`` workload.

Loads the seeded fixture into an in-memory pgFMU session, creates the HP1
instances, warms up, starts ``repro.serve()`` and prints one JSON line
``{"url", "setup_s", "setup_slowdown", "affinity"}``.  It then serves and
answers command lines on stdin with one JSON line each: ``probe`` times the
host (:func:`workloads.probe_ms`) while the clients are paused, and ``quit``
prints ``{"peak_rss_mb", "trace"}`` (writing all spans to ``--spans`` when
traced) and exits at once: ``ReproServer.shutdown()`` is not called, because
its accept thread can only time out, and the benchmark must not wait for it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import inputs
from workloads import INSERT_MEAS, MEAS_DDL, PROBE_REF_MS, QUICK_SERVE, SERVE, probe_ms


def thread_affinity() -> list:
    """The CPUs any thread of this process may run on (the accept thread
    included)."""
    cpus = set()
    for tid in os.listdir("/proc/self/task"):
        cpus |= os.sched_getaffinity(int(tid))
    return sorted(cpus)


def reply(message: dict) -> None:
    print(json.dumps(message), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file for all spans of a traced run")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--cpu", type=int, help="pin the server to this CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        # Before any thread exists: the accept thread and every connection
        # handler it starts inherit this mask.
        os.sched_setaffinity(0, {args.cpu})
    cfg = QUICK_SERVE if args.quick else SERVE
    data = inputs.serve_fixture(args.seed, cfg["houses"], cfg["hours"])

    probe_before = probe_ms()
    start = time.perf_counter()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    import repro

    conn = repro.connect(storage_dir=str(Path(args.workdir) / "fmu"), register_ml=False)
    cur = conn.cursor()
    cur.execute(MEAS_DDL)
    cur.executemany(INSERT_MEAS, data["rows"])
    cur.execute("SELECT fmu_create($1, 'i0')", [inputs.hp1_source()])
    for k in range(1, cfg["instances"]):
        cur.execute("SELECT fmu_copy('i0', $1)", [f"i{k}"])
    cur.execute(
        "SELECT * FROM fmu_simulate('i0', 'SELECT time, u FROM meas WHERE house = 0 AND time < 24')"
    ).fetchall()
    cur.execute("SELECT x FROM meas WHERE house = 0 AND time = 0").fetchall()
    server = repro.serve(conn.database)
    setup_s = time.perf_counter() - start
    setup_slowdown = (probe_before + probe_ms()) / 2.0 / PROBE_REF_MS
    if tracer is not None:
        tracer.mark()
    reply({"url": server.url, "setup_s": setup_s, "setup_slowdown": setup_slowdown,
           "affinity": thread_affinity()})

    while sys.stdin.readline().strip() == "probe":
        reply({"probe_ms": probe_ms()})
    report = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.mark_end()
        report["trace"] = {"summary": tracer.summary(), "setup_summary": tracer.setup_summary()}
        tracer.dump(args.spans)
    reply(report)
    os._exit(0)


if __name__ == "__main__":
    main()
