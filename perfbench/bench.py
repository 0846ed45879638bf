"""One benchmark run: set-up, timed passes, audit, report and result line."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import scipy

from .harness import EPS, analyse, run_pass, solve_instance
from .tracer import PER_LAYER_METRICS, SELF_TIME_METRICS, Tracer, layer_metrics
from .workloads import WORKLOADS, build_workload, warmup_instance

__all__ = ["END_TO_END_METRICS", "run_benchmark"]

# Metrics on the result line with --trace 0, with their units.  The others
# are printed in the report only.  The pass timings (wall_s, cpu_s,
# time_to_eps_s) vary too much from seed to seed: a template's solve time is
# heavy-tailed over its seeded inputs (0.18 s to 4.3 s on the simplex), far
# more than the host drifts.  ``evals`` cannot exceed the budgets, which
# every solve uses up at baseline, and the fractions can be 0.
END_TO_END_METRICS = {
    "evals_to_eps": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 5
# Every traced run writes the spans of its first traced pass here.
SPANS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
MIN_PASSES = 2


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return "unknown"


def _run_passes(instances, seconds, trace):
    """Passes until the next one would overrun ``seconds`` (at least two).

    With ``trace`` the passes alternate untraced and traced, starting
    untraced.  Returns the untraced passes, the traced ``(pass, tracer)``
    pairs and the peak resident memory in MB at the end of the first pass.
    Later passes repeat its work but keep more logs, and how many of them
    fit depends on the host's speed, so they are left out of the peak.
    """
    plain, traced = [], []
    peak_rss_mb = None
    begin = time.perf_counter()
    last = 0.0
    while len(plain) + len(traced) < MIN_PASSES or time.perf_counter() - begin + last <= seconds:
        if trace and len(plain) > len(traced):
            tracer = Tracer()
            result = run_pass(instances, tracer)
            traced.append((result, tracer))
        else:
            result = run_pass(instances)
            plain.append(result)
        last = max(last, result[1])
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return plain, traced, peak_rss_mb


def _layer_report(traced, untraced_wall):
    per_pass = []
    for (outcomes, _, _), tracer in traced:
        rows = [(r.step_kind, r.rho) for o in outcomes if o.record is not None for r in o.record.rows]
        per_pass.append(layer_metrics(tracer, rows))
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    traced_wall = statistics.median(wall for (_, wall, _), _ in traced)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics, traced_wall


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_benchmark(args, process_start):
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - process_start

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        instances = build_workload(args.workload, args.seed)
        solve_instance(warmup_instance(args.workload))
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    plain, traced, peak_rss_mb = _run_passes(instances, args.seconds, args.trace)
    analysis = analyse(plain, [outcomes for (outcomes, _, _), _ in traced])
    checks = analysis["checks"]
    counts, timings = analysis["counts"], analysis["timings"]
    attempted = counts["attempted"]
    evals = counts["evals"]

    measured = {
        "wall_s": (timings["wall_s"], "s"),
        "cpu_s": (timings["cpu_s"], "s"),
        "time_to_eps_s": (timings["time_to_eps_s"], "s"),
        "evals_to_eps": (counts["evals_to_eps"], "count"),
        "evals": (evals, "count"),
        "solved_frac": (counts["solved"] / attempted, "ratio"),
        "error_frac": (counts["failed"] / attempted, "ratio"),
        "infeasible_eval_frac": (counts["infeasible_evals"] / max(evals, 1), "ratio"),
        "inconsistent_final_frac": (counts["inconsistent_final"] / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }

    print(f"# convexdfo benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# environment: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} scipy={scipy.__version__} blas={_blas_name()} "
          f"blas_threads={os.environ.get('OPENBLAS_NUM_THREADS')}")
    print(f"# passes: {len(plain)} untraced, {len(traced)} traced; "
          f"{attempted} solves per pass; eps = {EPS:g}; digest {analysis['digest'][:16]}")
    print("# pass walls: " + " ".join(f"{wall:.4f}" for _, wall, _ in plain))
    print(f"# set-up: imports {import_s:.4f} s; inputs + warm-up solve: "
          + " ".join(f"{t:.4f}" for t in setups) + " s")
    print("# instance            status      evals  evals_to_eps  wall_s  infeasible  inconsistent")
    for row in analysis["per_instance"]:
        print(f"#   {row['name']:18s} {row['status']:10s} {row['evals']:6d}  "
              f"{str(row['evals_to_eps']):>12s}  {row['wall_s']:6.3f}  "
              f"{row['infeasible_evals']:10d}  {row['inconsistent_final']:12d}")
    med, pct, high, n = timings["per_solve_wall"]
    tail = f", p{pct:.0f} {high:.4f} s" if pct is not None else ""
    print(f"# per-solve wall: median {med:.4f} s{tail} (n={n})")
    for name, (value, unit) in measured.items():
        print(f"{name} {_fmt(value)} {unit}")
    print(f"# x_final exactly infeasible: {counts['x_final_infeasible']}; "
          f"error types: {', '.join(counts['error_types']) or 'none'}")
    for msg in analysis["yardstick_errors"]:
        print(f"# yardstick error: {msg}")

    metrics = {name: {"value": measured[name][0], "unit": unit}
               for name, unit in END_TO_END_METRICS.items()}
    if args.trace:
        untraced_wall = statistics.median(wall for _, wall, _ in plain)
        layers, traced_wall = _layer_report(traced, untraced_wall)
        self_sum = sum(layers[name] for name in SELF_TIME_METRICS)
        print(f"# traced wall {traced_wall:.4f} s; layer self times + objective.s = "
              f"{self_sum:.4f} s ({100.0 * self_sum / traced_wall:.1f}%)")
        for name, unit in PER_LAYER_METRICS.items():
            print(f"{name} {_fmt(layers[name])} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER_METRICS.items()}
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans_path = os.path.join(SPANS_DIR, f"spans_{args.workload}.csv")
        traced[0][1].write(spans_path)
        print(f"# spans of the first traced pass: {os.path.relpath(spans_path)}")
    for name, ok in checks.items():
        print(f"# check {name}: {'ok' if ok else 'FAILED'}")

    result = {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": counts["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0
