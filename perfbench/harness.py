"""Timed passes over a workload, the correctness audit and the metrics.

A pass solves every instance of the workload once, in order.  Only the
solves are timed; the reference criticality and the audit run afterwards on
the recorded evaluation log of the first pass.  Later passes must repeat the
first one exactly (same evaluation sequence, same run-record CSV), which the
digest comparison checks, so each solve's timings can be compared across
passes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
import time

import numpy as np

from convexdfo import solve

from .tracer import instrument
from .yardstick import YardstickError, reference_criticality

__all__ = ["EPS", "SolveOutcome", "solve_instance", "run_pass", "analyse", "median_high"]

EPS = 1e-4
# Returned iterates may sit this far outside C (relative to 1 + ||x||)
# before the run is marked incorrect; exact membership is counted separately.
X_FINAL_TOL = 1e-8


class RecordingObjective:
    """Wraps ``f``: records every point, value and completion time."""

    def __init__(self, f, tracer=None):
        self.f = f
        self.tracer = tracer
        self.points = []
        self.values = []
        self.times = []

    def __call__(self, x):
        tracer = self.tracer
        if tracer is None:
            value = self.f(x)
        else:
            tracer.classify_eval(x)
            idx = tracer.begin("objective")
            value = self.f(x)
            tracer.end(idx)
        self.times.append(time.perf_counter())
        self.points.append(np.array(x, dtype=float))
        self.values.append(value)
        return value


@dataclasses.dataclass
class SolveOutcome:
    """What one solve produced, plus its timings."""

    instance: object
    start: float
    wall: float
    cpu: float
    objective: RecordingObjective
    x_final: np.ndarray | None
    record: object
    error: str | None

    @property
    def evals(self):
        return len(self.objective.values)

    def digest(self):
        h = hashlib.sha256()
        h.update(np.asarray(self.objective.points, dtype=float).tobytes())
        h.update(np.asarray(self.objective.values, dtype=float).tobytes())
        if self.record is not None:
            h.update(self.record.csv_text().encode())
            h.update(self.record.status.encode())
        h.update(str(self.error).encode())
        return h.hexdigest()


def solve_instance(instance, tracer=None):
    objective = RecordingObjective(instance.f, tracer)
    config = dataclasses.replace(instance.config)
    x_final, record, error = None, None, None
    if tracer is not None:
        tracer.new_solve()
        span = tracer.begin("solver")
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        x_final, record = solve(objective, instance.region, instance.x0, config)
    except Exception as exc:  # every failure is counted per solve, never fatal
        error = type(exc).__name__
        record = getattr(exc, "record", None)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    if tracer is not None:
        tracer.end(span)
    return SolveOutcome(instance, start, wall, cpu, objective, x_final, record, error)


def run_pass(instances, tracer=None):
    """Solve every instance once; returns (outcomes, pass wall, pass cpu)."""
    cpu0 = time.process_time()
    start = time.perf_counter()
    if tracer is None:
        outcomes = [solve_instance(inst) for inst in instances]
    else:
        with instrument(tracer):
            outcomes = [solve_instance(inst, tracer) for inst in instances]
    return outcomes, time.perf_counter() - start, time.process_time() - cpu0


def eps_index(outcome):
    """Index of the first evaluation after which the best point so far has
    reference ``pi_f <= EPS``, or None."""
    inst = outcome.objective
    region, grad = outcome.instance.region, outcome.instance.grad
    best = np.inf
    for k, value in enumerate(inst.values):
        if value < best:
            best = value
            x = inst.points[k]
            if reference_criticality(grad(x), x, region) <= EPS:
                return k
    return None


def _audit(outcome):
    """Exact-membership and final-set consistency counts for one solve."""
    region = outcome.instance.region
    points = outcome.objective.points
    infeasible = sum(not region.is_member(y) for y in points)
    record = outcome.record
    final_set = None if record is None else record.final_set
    if final_set is None or record.final_values is None:
        consistent = False
    else:
        fresh = np.array([outcome.instance.f(y) for y in final_set.points])
        consistent = bool(np.array_equal(fresh, np.asarray(record.final_values)))
    x = outcome.x_final
    x_ok = True
    if x is not None:
        evaluated = any(np.array_equal(x, y) for y in points)
        near = region.distance(x) <= X_FINAL_TOL * (1.0 + float(np.linalg.norm(x)))
        x_ok = evaluated and near
    return {
        "infeasible_evals": int(infeasible),
        "x_final_infeasible": int(x is not None and not region.is_member(x)),
        "inconsistent_final": int(not consistent),
        "x_final_ok": x_ok,
    }


def median_high(samples):
    """Median and the highest percentile with at least ten samples beyond it.

    Returns ``(median, percentile, value, count)``; percentile and value are
    None when there are fewer than eleven samples.
    """
    xs = sorted(samples)
    n = len(xs)
    med = statistics.median(xs)
    if n < 11:
        return med, None, None, n
    k = n - 11  # xs[k] has exactly ten samples above it
    return med, 100.0 * (k + 1) / n, xs[k], n


def analyse(passes, repeats=()):
    """Audit and metrics from the timed passes of one run.

    ``passes`` is a list of ``(outcomes, wall, cpu)`` in run order.  Counts
    come from the first pass.  Each timing is a sum over solves of that
    solve's fastest repeat: the host's speed drifts, and slowdowns only ever
    add time.  Every later pass, and every outcome list in ``repeats``
    (re-runs of the same instances), must reproduce the first pass solve for
    solve.
    """
    first = passes[0][0]
    digests = [o.digest() for o in first]
    by_instance = {id(o.instance): d for o, d in zip(first, digests)}
    reruns = [o for outs, _, _ in passes[1:] for o in outs] + [o for outs in repeats for o in outs]
    repeat_ok = all(o.digest() == by_instance[id(o.instance)] for o in reruns)

    yardstick_errors = []
    hits = []
    for o in first:
        try:
            hits.append(eps_index(o))
        except YardstickError as exc:
            yardstick_errors.append(f"{o.instance.name}: {exc}")
            hits.append(None)

    audits = [_audit(o) for o in first]
    attempted = len(first)
    evals = sum(o.evals for o in first)
    errors = [o.error for o in first if o.error is not None]
    evals_to_eps = sum(
        k + 1 if k is not None else o.instance.config.max_evals for o, k in zip(first, hits)
    )

    def fastest(value):
        return sum(min(value(outs[j], k) for outs, _, _ in passes) for j, k in enumerate(hits))

    counts = {
        "attempted": attempted,
        "failed": len(errors),
        "evals": evals,
        "evals_to_eps": evals_to_eps,
        "solved": sum(k is not None for k in hits),
        "infeasible_evals": sum(a["infeasible_evals"] for a in audits),
        "x_final_infeasible": sum(a["x_final_infeasible"] for a in audits),
        "inconsistent_final": sum(a["inconsistent_final"] for a in audits),
        "error_types": sorted(set(errors)),
    }
    checks = {
        "repeat_identical": repeat_ok,
        "yardstick_ok": not yardstick_errors,
        "x_final_ok": all(a["x_final_ok"] for a in audits),
    }
    per_solve = [o.wall for outs, _, _ in passes for o in outs]
    timings = {
        "wall_s": fastest(lambda o, k: o.wall),
        "cpu_s": fastest(lambda o, k: o.cpu),
        "time_to_eps_s": fastest(
            lambda o, k: o.wall if k is None else o.objective.times[k] - o.start),
        "per_solve_wall": median_high(per_solve),
    }
    per_instance = [
        {"name": o.instance.name, "status": o.error or o.record.status, "evals": o.evals,
         "evals_to_eps": None if k is None else k + 1, "wall_s": o.wall, **a}
        for o, k, a in zip(first, hits, audits)
    ]
    return {
        "counts": counts, "checks": checks, "timings": timings,
        "per_instance": per_instance, "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "yardstick_errors": yardstick_errors,
    }
