"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 benchmarks/suite/compare.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are JSONL files written by ``run.py`` (its
``--out`` file or ``history.jsonl``); ``FILE#LABEL`` keeps only the records
carrying that ``--label``.  Runs of a workload are paired in the order they
appear, so record them alternating parent and change.

Verdicts, per workload and metric:

* ``gain``: at least 10 pairs, the change wins at least 9 in 10 of them
  (ties count for neither), and the medians differ by more than the
  parent's interquartile range;
* ``unresolved``: either side's spread (IQR / median) is wider than the
  metric's bound, and not every change run beats every parent run;
* ``regression``: the change's median is worse than the parent's by more
  than the bound;
* ``no change`` otherwise.  Per-layer metrics have no bound and are only
  listed (``info``).

Each workload also gets a ``failed_frac`` row (failed ops / attempted ops per
run).  It reads ``failed`` when the change fails a larger share of its ops
than the parent; a ``gain`` on that workload then does not count and reads
``void``.  Runs of a workload must all share one seed and one run length,
otherwise nothing is compared.

Exits 1 when any metric regressed or any workload failed, 2 when the runs
cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from percentiles import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
#: Bound for the recorded metrics BENCHMARK.json does not list (the same as
#: its time metrics).
EXTRA_BOUND = 0.25
FAILED = "failed_frac"


def load(spec: str) -> List[dict]:
    path, _, label = spec.partition("#")
    with open(path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    return [r for r in records if not label or r.get("label") == label]


def series(records: Iterable[dict]) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values`` in record order (quick runs left out)."""
    out: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for record in records:
        if record.get("quick"):
            continue
        for group in ("metrics", "extra"):
            for metric, value in record.get(group, {}).items():
                out[(record["workload"], metric)].append(value["value"])
        out[(record["workload"], FAILED)].append(record["failed"] / record["attempted"])
    return out


def failures(records: Iterable[dict]) -> Dict[str, Tuple[int, int]]:
    """``workload -> (failed ops, attempted ops)`` over all its runs."""
    out: Dict[str, Tuple[int, int]] = defaultdict(lambda: (0, 0))
    for record in records:
        if not record.get("quick"):
            failed, attempted = out[record["workload"]]
            out[record["workload"]] = (failed + record["failed"], attempted + record["attempted"])
    return out


def check_settings(records: Iterable[dict]) -> None:
    """Raise ``ValueError`` when runs of one workload differ in seed or run
    length: their numbers would not be comparable."""
    settings = defaultdict(set)
    for record in records:
        if not record.get("quick"):
            settings[record["workload"]].add((record["seed"], record["seconds"]))
    for workload, seen in sorted(settings.items()):
        if len(seen) > 1:
            raise ValueError(f"{workload}: runs differ in (seed, seconds): {sorted(seen)}")


def verdict(parent: List[float], change: List[float], better: str, bound: Optional[float]) -> Tuple[str, float, int, int]:
    """``(verdict, relative worsening of the median, pairs, change wins)``."""
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse_by = sign * (c_med - p_med) / p_med if p_med else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if bound is None:
        return "info", worse_by, len(pairs), wins
    q1, _, q3 = quartiles(parent)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and worse_by < 0 and abs(c_med - p_med) > q3 - q1:
        return "gain", worse_by, len(pairs), wins
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved", worse_by, len(pairs), wins
    if worse_by > bound:
        return "regression", worse_by, len(pairs), wins
    return "no change", worse_by, len(pairs), wins


def extra_definition(metric: str, defined: Dict[str, dict]) -> dict:
    """Direction and bound of a recorded metric BENCHMARK.json does not list.
    ``wall.X`` is the unadjusted reading of ``X``; ``host.*`` describes the
    host, not the program, and is only listed; ``failed_frac`` is judged on
    the totals of failed and attempted ops instead of a bound."""
    if metric.startswith("host.") or metric == FAILED:
        return {"better": "lower", "bound": None}
    base = defined.get(metric[len("wall."):]) if metric.startswith("wall.") else None
    return {"better": base["better"] if base else "lower", "bound": EXTRA_BOUND}


def compare(parent: List[dict], change: List[dict], spec: dict) -> List[dict]:
    check_settings(parent + change)
    defined = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    p_series, c_series = series(parent), series(change)
    p_failures, c_failures = failures(parent), failures(change)
    failed = {
        w for w in c_failures
        if c_failures[w][0] * p_failures[w][1] > p_failures[w][0] * c_failures[w][1]
    }
    rows = []
    for key in sorted(set(p_series) & set(c_series)):
        workload, metric = key
        definition = defined.get(metric) or extra_definition(metric, defined)
        p, c = p_series[key], c_series[key]
        outcome, worse_by, n_pairs, wins = verdict(p, c, definition["better"], definition.get("bound"))
        if metric == FAILED:
            outcome = "failed" if workload in failed else "no change"
        elif outcome == "gain" and workload in failed:
            outcome = "void"
        rows.append({
            "workload": workload, "metric": metric, "verdict": outcome, "worse_by": worse_by,
            "bound": definition.get("bound"), "pairs": n_pairs, "wins": wins,
            "parent": quartiles(p), "change": quartiles(c),
            "parent_spread": spread(p), "change_spread": spread(c),
        })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="JSONL file of the parent's runs (FILE or FILE#LABEL)")
    parser.add_argument("change", help="JSONL file of the change's runs (FILE or FILE#LABEL)")
    parser.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.bench) as f:
        spec = json.load(f)
    try:
        rows = compare(load(args.parent), load(args.change), spec)
    except ValueError as exc:
        print(f"cannot compare: {exc}", file=sys.stderr)
        return 2
    print(f"{'workload':<12} {'metric':<40} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
          f" {'worse':>8} {'bound':>6} {'wins':>7}  verdict")
    for r in rows:
        p, c = r["parent"], r["change"]
        bound = f"{r['bound']:.2f}" if r["bound"] is not None else "-"
        print(f"{r['workload']:<12} {r['metric']:<40} {p[1]:>12.5g} [{p[0]:.4g}, {p[2]:.4g}]"
              f" {c[1]:>12.5g} [{c[0]:.4g}, {c[2]:.4g}] {r['worse_by']:>+8.3f} {bound:>6}"
              f" {r['wins']:>3}/{r['pairs']:<3}  {r['verdict']}")
    counts = defaultdict(int)
    for r in rows:
        counts[r["verdict"]] += 1
    print("; ".join(f"{v}: {n}" for v, n in sorted(counts.items())))
    return 1 if counts["regression"] or counts["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
