"""Run the layered pgFMU benchmark and print every metric with its unit.

    python3 benchmarks/suite/run.py [--workload W] [--seed S] [--seconds T]
        [--trace [0|1]] [--quick] [--out FILE] [--record] [--label L]

Each workload runs in fresh processes (``workloads.py``): set-up is repeated
in separate processes and ``setup_s`` is their median; one more process
measures for ``run_seconds`` of ``BENCHMARK.json`` (a tenth with
``--quick``).  ``--seconds`` may only restate that length.  Every op's
output is checked by an oracle that does not use the program; the run exits
1 when any check fails.  With ``--trace 1`` half the time runs untraced and
half traced, and the per-layer metrics of ``BENCHMARK.json`` are printed
instead of the end-to-end ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Each run is also appended to ``--out`` (default ``results/runs.jsonl``) and,
with ``--record``, to ``history.jsonl``, which is never rewritten.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
HISTORY = HERE / "history.jsonl"

WORKLOADS = ("pgfmu_day", "analytics", "ingest", "serve_mixed")
#: Seed every recorded baseline uses, and the seed kept back for confirming
#: a claimed gain on inputs the change was not tuned on.
DEFAULT_SEED = 1
HELDOUT_SEED = 2
#: Set-up runs per measured run; ``setup_s`` is their median.
SETUP_REPEATS = 3
FSYNC_POLICY = "fsync on, one sync per commit (pgfmu_day, ingest); analytics and serve_mixed in memory"

#: Medians of workload-specific samples.  Like ``op_ms.p99`` they are printed
#: and recorded for compare.py but not in BENCHMARK.json: every workload must
#: report each metric there, and on a shared host a p99 from a 20 s run
#: spreads too widely to gate on.
EXTRA = {
    "pgfmu_day": ("day_s", "parest_s", "simulate_s", "analysis_s"),
    "ingest": ("recover_s",),
    "serve_mixed": ("select_ms", "simulate_ms"),
    "analytics": ("range_param_ms", "range_literal_ms"),
}


def benchmark_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_child(name: str, seed: int, seconds: float, trace: int, quick: bool,
              setup_only: bool, scratch: Path, tag: str) -> Dict[str, Any]:
    """Run one workload process and return what it wrote."""
    out = scratch / f"{name}-{tag}.json"
    command = [
        sys.executable, str(HERE / "workloads.py"), name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--workdir", str(scratch / f"{name}-{tag}"), "--out", str(out),
    ]
    if setup_only:
        command.append("--setup-only")
    if quick:
        command.append("--quick")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(command, cwd=ROOT, env=env, timeout=seconds + 150)
    if completed.returncode != 0 or not out.exists():
        raise RuntimeError(f"{name} ({tag}) exited with code {completed.returncode}")
    with open(out) as f:
        return json.load(f)


def end_to_end(name: str, args, scratch: Path) -> Dict[str, Any]:
    repeats = 1 if args.quick else SETUP_REPEATS
    setups = [
        run_child(name, args.seed, args.seconds, 0, args.quick, True, scratch, f"setup{k}")
        for k in range(repeats - 1)
    ]
    main = run_child(name, args.seed, args.seconds, 0, args.quick, False, scratch, "measure")
    setups.append(main)
    main["metrics"].update(
        setup_s=statistics.median(s["setup_s"] for s in setups), peak_rss_mb=main["peak_rss_mb"]
    )
    main["wall"]["setup_s"] = statistics.median(s["wall_setup_s"] for s in setups)
    main["setups"] = [s["setup_s"] for s in setups]
    return main


def traced(name: str, args, scratch: Path) -> Dict[str, Any]:
    from tracer import layer_metrics

    half = args.seconds / 2.0
    base = run_child(name, args.seed, half, 0, args.quick, False, scratch, "untraced")
    run = run_child(name, args.seed, half, 1, args.quick, False, scratch, "traced")
    shutil.copy(scratch / f"{name}-traced.spans.json", RESULTS / f"spans-{name}-seed{args.seed}.json")
    report = run["trace"]
    wire_s = 0.0
    if name == "serve_mixed":
        wire_s = run["statement_s"] - report["summary"]["span_s"].get("ReproService.dispatch", 0.0)
    metrics = layer_metrics(
        report["summary"], run["statement_s"], run["attempted"], wire_s=wire_s,
        user_bytes=report["user_bytes"], setup_s=run["wall_setup_s"],
        setup_summary=report["setup_summary"],
    )
    untraced_rate, traced_rate = base["metrics"]["ops_per_s"], run["metrics"]["ops_per_s"]
    metrics["trace.overhead_frac"] = untraced_rate / traced_rate - 1.0 if traced_rate else 0.0
    run["metrics"] = metrics
    run["attempted"] += base["attempted"]
    run["failed"] += base["failed"]
    run["failures"] = base["failures"] + run["failures"]
    return run


def environment(seed: int) -> Dict[str, Any]:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": bool(_git("status", "--porcelain")),
        "fsync": FSYNC_POLICY,
        "seed": seed,
    }


def _git(*command: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *command], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def extra_metrics(name: str, result: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    samples = result["samples"]
    out = {"op_ms.p99": {"value": result["op_ms_p99"], "unit": "ms", "n": samples["ops"]}}
    for key in EXTRA[name]:
        detail = result["details"].get(key)
        if detail is not None:
            unit = "ms" if key.endswith("_ms") else "s"
            out[f"{key}.p50"] = {"value": detail["median"], "unit": unit, "n": detail["n"]}
    wall = result["wall"]
    out.update({
        "wall.setup_s": {"value": wall["setup_s"], "unit": "s", "n": len(result["setups"])},
        "wall.ops_per_s": {"value": wall["ops_per_s"], "unit": "1/s", "n": samples["windows"]},
        "wall.op_ms.p50": {"value": wall["op_ms.p50"], "unit": "ms", "n": samples["ops"]},
        "host.slowdown": {"value": result["slowdown"], "unit": "x", "n": samples["probes"]},
    })
    return out


def report(name: str, result: Dict[str, Any], units: Dict[str, str], args) -> None:
    print(f"== {name}  seed={args.seed}  seconds={args.seconds}  trace={int(args.trace)}"
          f"  ops={result['attempted']}  failed={result['failed']}")
    for metric, value in result["metrics"].items():
        print(f"   {metric:<44} {value:>14.6g} {units[metric]}")
    if not args.trace:
        samples = result["samples"]
        print(f"   (setup_s: median of {result['setups']}; {samples['ops']} ops in {samples['windows']} windows;"
              f" highest percentile with 10 samples beyond: {samples['tail_percentile']})")
        for metric, value in result["extra"].items():
            print(f"   {metric:<44} {value['value']:>14.6g} {value['unit']}  (n={value['n']}, not gated)")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HELDOUT_SEED} is kept for confirming a gain)")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="run length; only BENCHMARK.json's run_seconds is accepted")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="1/10 scale, checks outputs, never recorded")
    parser.add_argument("--out", type=Path, default=RESULTS / "runs.jsonl")
    parser.add_argument("--record", action="store_true", help="also append to history.jsonl")
    parser.add_argument("--label", default="", help="tag stored with the records")
    args = parser.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        # Parent and change must be measured for the same time.
        parser.error(f"--seconds must be {spec['run_seconds']}, the run_seconds of BENCHMARK.json")
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"the program's sources are missing: {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.quick:
        args.seconds = max(1.0, args.seconds / 10.0)
    names = [args.workload] if args.workload else list(WORKLOADS)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    sys.path.insert(0, str(HERE))

    scratch = RESULTS / f"work-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    records = []
    try:
        env = environment(args.seed)
        for name in names:
            result = (traced if args.trace else end_to_end)(name, args, scratch)
            if not args.trace:
                result["extra"] = extra_metrics(name, result)
            report(name, result, units, args)
            records.append({
                "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
                "label": args.label,
                "workload": name,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": int(args.trace),
                "quick": args.quick,
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "failures": result["failures"],
                "metrics": {m: {"value": v, "unit": units[m]} for m, v in result["metrics"].items()},
                "extra": result.get("extra", {}),
                "info": result["info"],
                "env": env,
            })
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    targets = [args.out] + ([HISTORY] if args.record and not args.quick else [])
    for target in targets:
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "a") as f:
            for record in records:
                f.write(json.dumps(record) + "\n")

    metrics = {}
    for record in records:
        for metric, value in record["metrics"].items():
            metrics[metric if len(records) == 1 else f"{record['workload']}.{metric}"] = value
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
