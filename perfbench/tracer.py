"""In-memory span tracer and the wrappers that attach it to convexdfo's layers.

Spans are recorded from the benchmark's side only: :func:`instrument`
replaces the layers' public entry points at the places the solver looks
them up (for example ``convexdfo.solver.improve_to_poised`` and
``TrustRegionProjector.__call__``) and puts every original back on exit.
Nothing inside the package changes.

A span is ``[name, start, end, parent, attrs]``; ``parent`` is the index of
the enclosing span or -1.  A span's self time is its duration minus the
durations of its direct children, so self times over all spans add up to
the time covered by the outermost spans.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

import numpy as np

import convexdfo.geometry as geometry
import convexdfo.poisedness as poisedness
import convexdfo.solver as solver

__all__ = [
    "Tracer", "instrument", "self_times", "layer_metrics", "PER_LAYER_METRICS", "SELF_TIME_METRICS",
]

PROJECT = "geometry.project"

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER_METRICS = {
    "geometry.project_s": "s",
    "geometry.project_calls": "count",
    "geometry.project_rows": "count",
    "geometry.us_per_row": "us",
    "geometry.dykstra_sweeps": "count",
    "geometry.projection_errors": "count",
    "poisedness.improve_s": "s",
    "poisedness.improve_calls": "count",
    "poisedness.check_s": "s",
    "poisedness.check_calls": "count",
    "poisedness.ascent_iterations": "count",
    "poisedness.verified_frac": "ratio",
    "poisedness.reinits": "count",
    "poisedness.swaps": "count",
    "quadratic_models.assemble_s": "s",
    "quadratic_models.assemble_calls": "count",
    "quadratic_models.fit_s": "s",
    "linear_models.design_s": "s",
    "linear_models.fit_s": "s",
    "subproblems.criticality_s": "s",
    "subproblems.criticality_calls": "count",
    "subproblems.step_s": "s",
    "subproblems.step_calls": "count",
    "subproblems.cauchy_met_frac": "ratio",
    "sampling.sample_s": "s",
    "sampling.sample_calls": "count",
    "solver.self_s": "s",
    "solver.iterations": "count",
    "solver.step_accept_frac": "ratio",
    "solver.evals_start": "count",
    "solver.evals_geometry": "count",
    "solver.evals_trial": "count",
    "solver.geometry_eval_share": "ratio",
    "objective.s": "s",
    "trace.overhead_s": "s",
}


# The per-layer self times; with ``objective.s`` they add up to the traced
# pass's solve time.
SELF_TIME_METRICS = (
    "geometry.project_s", "poisedness.improve_s", "poisedness.check_s",
    "quadratic_models.assemble_s", "quadratic_models.fit_s", "linear_models.design_s",
    "linear_models.fit_s", "subproblems.criticality_s", "subproblems.step_s",
    "sampling.sample_s", "solver.self_s", "objective.s",
)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._first_eval = True
        self._last_trial = None

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def end(self, idx, attrs=None):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = attrs
        self._stack.pop()

    def new_solve(self):
        """Reset the evaluation classifier at the start of a solve."""
        self._first_eval = True
        self._last_trial = None

    def note_trial(self, point):
        self._last_trial = point

    def classify_eval(self, x):
        """Count an evaluation as start, trial or geometry."""
        if self._first_eval:
            self._first_eval = False
            kind = "start"
        elif self._last_trial is not None and np.array_equal(x, self._last_trial):
            kind = "trial"
        else:
            kind = "geometry"
        self.counters["evals_" + kind] += 1

    def write(self, path):
        """Dump the spans as CSV: name, start and end (s), parent index."""
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent, _ in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")


def self_times(spans):
    """Self time of every span: duration minus its direct children's durations."""
    if not spans:
        return np.zeros(0)
    start = np.array([s[1] for s in spans])
    end = np.array([s[2] for s in spans])
    parent = np.array([s[3] for s in spans])
    duration = end - start
    child_total = np.zeros(len(spans))
    nested = parent >= 0
    np.add.at(child_total, parent[nested], duration[nested])
    return duration - child_total


# -- wrappers -------------------------------------------------------------

def _spanned(tracer, name, fn, describe=None):
    """``fn`` inside a span; ``describe(args, result)`` gives the span's attrs."""

    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.end(idx, {"error": type(exc).__name__})
            raise
        tracer.end(idx, describe(args, result) if describe else None)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _counted(tracer, key, fn):
    def wrapper(*args, **kwargs):
        tracer.counters[key] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _step_describe(tracer):
    def describe(args, step):
        model, x = args[0], args[1]
        tracer.note_trial(np.asarray(x, dtype=float) + step.step)
        return {"cauchy": bool(step.satisfied_cauchy)}
    return describe


def _cert_describe(args, cert):
    return {"verified": bool(cert.verified),
            "ascent": cert.stats.iterations if cert.stats is not None else 0}


def _improve_describe(args, result):
    _, cert, swap_log = result
    return {"swaps": len(swap_log),
            "ascent": cert.stats.iterations if cert.stats is not None else 0}


@contextlib.contextmanager
def instrument(tracer):
    """Wrap every traced entry point for the duration of the block."""
    projector = geometry.TrustRegionProjector

    def projector_describe(args, out):
        return {"via": "projector", "rows": len(out), "sweeps": args[0].last_sweeps}

    def batch_describe(args, res):
        return {"via": "batch", "rows": len(res[0]), "sweeps": res[1]}

    patches = [
        (projector, "__call__",
         _spanned(tracer, PROJECT, projector.__call__, projector_describe)),
        (geometry, "project_batch",
         _spanned(tracer, PROJECT, geometry.project_batch, batch_describe)),
        (solver, "improve_to_poised",
         _spanned(tracer, "poisedness.improve", solver.improve_to_poised, _improve_describe)),
        (solver, "check_poisedness",
         _spanned(tracer, "poisedness.check", solver.check_poisedness, _cert_describe)),
        (poisedness, "initial_invertible_set",
         _counted(tracer, "reinits", poisedness.initial_invertible_set)),
        (poisedness, "sample_feasible_in_ball",
         _spanned(tracer, "sampling.sample", poisedness.sample_feasible_in_ball)),
        (solver, "assemble_system",
         _spanned(tracer, "quadratic_models.assemble", solver.assemble_system)),
        (poisedness, "assemble_system",
         _spanned(tracer, "quadratic_models.assemble", poisedness.assemble_system)),
        (solver, "fit_mfn_model",
         _spanned(tracer, "quadratic_models.fit", solver.fit_mfn_model)),
        (solver, "build_design_matrix",
         _spanned(tracer, "linear_models.design", solver.build_design_matrix)),
        (solver, "fit_regression_model",
         _spanned(tracer, "linear_models.fit", solver.fit_regression_model)),
        (solver, "criticality_measure",
         _spanned(tracer, "subproblems.criticality", solver.criticality_measure)),
        (solver, "solve_trust_region_step",
         _spanned(tracer, "subproblems.step", solver.solve_trust_region_step,
                  _step_describe(tracer))),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


# -- aggregation ----------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, solve_rows):
    """Per-layer metrics of one traced pass.

    ``solve_rows`` holds the ``step_kind`` and ``rho`` of every iteration
    row of every solve in the pass (for the solver's own counters).
    """
    spans = tracer.spans
    own = self_times(spans)
    self_by_name = Counter()
    calls_by_name = Counter()
    for span, t in zip(spans, own):
        self_by_name[span[0]] += float(t)
        calls_by_name[span[0]] += 1

    projector_parents = {s[3] for s in spans if s[0] == PROJECT and s[4] and s[4].get("via") == "projector"}
    rows = calls = sweeps = errors = 0
    for idx, (name, _, _, parent, attrs) in enumerate(spans):
        if name != PROJECT:
            continue
        attrs = attrs or {}
        outermost = parent < 0 or spans[parent][0] != PROJECT
        if outermost:
            calls += 1
            rows += attrs.get("rows", 0)
            errors += attrs.get("error") == "ProjectionError"
        if attrs.get("via") == "projector" or idx not in projector_parents:
            sweeps += attrs.get("sweeps", 0)

    def attr_sum(name, key):
        return sum((s[4] or {}).get(key, 0) for s in spans if s[0] == name)

    checks = calls_by_name["poisedness.check"]
    steps = calls_by_name["subproblems.step"]
    trials = sum(1 for kind, rho in solve_rows if rho is not None)
    accepted = sum(1 for kind, rho in solve_rows if kind == "successful")
    c = tracer.counters
    evals = c["evals_start"] + c["evals_geometry"] + c["evals_trial"]
    project_s = self_by_name[PROJECT]
    return {
        "geometry.project_s": project_s,
        "geometry.project_calls": calls,
        "geometry.project_rows": rows,
        "geometry.us_per_row": 1e6 * _ratio(project_s, rows),
        "geometry.dykstra_sweeps": sweeps,
        "geometry.projection_errors": errors,
        "poisedness.improve_s": self_by_name["poisedness.improve"],
        "poisedness.improve_calls": calls_by_name["poisedness.improve"],
        "poisedness.check_s": self_by_name["poisedness.check"],
        "poisedness.check_calls": checks,
        "poisedness.ascent_iterations": attr_sum("poisedness.check", "ascent")
        + attr_sum("poisedness.improve", "ascent"),
        "poisedness.verified_frac": _ratio(attr_sum("poisedness.check", "verified"), checks),
        "poisedness.reinits": c["reinits"],
        "poisedness.swaps": attr_sum("poisedness.improve", "swaps"),
        "quadratic_models.assemble_s": self_by_name["quadratic_models.assemble"],
        "quadratic_models.assemble_calls": calls_by_name["quadratic_models.assemble"],
        "quadratic_models.fit_s": self_by_name["quadratic_models.fit"],
        "linear_models.design_s": self_by_name["linear_models.design"],
        "linear_models.fit_s": self_by_name["linear_models.fit"],
        "subproblems.criticality_s": self_by_name["subproblems.criticality"],
        "subproblems.criticality_calls": calls_by_name["subproblems.criticality"],
        "subproblems.step_s": self_by_name["subproblems.step"],
        "subproblems.step_calls": steps,
        "subproblems.cauchy_met_frac": _ratio(attr_sum("subproblems.step", "cauchy"), steps),
        "sampling.sample_s": self_by_name["sampling.sample"],
        "sampling.sample_calls": calls_by_name["sampling.sample"],
        "solver.self_s": self_by_name["solver"],
        "solver.iterations": len(solve_rows),
        "solver.step_accept_frac": _ratio(accepted, trials),
        "solver.evals_start": c["evals_start"],
        "solver.evals_geometry": c["evals_geometry"],
        "solver.evals_trial": c["evals_trial"],
        "solver.geometry_eval_share": _ratio(c["evals_geometry"], evals),
        "objective.s": self_by_name["objective"],
    }
