import json
import os
import re

import numpy as np
import pytest

import convexdfo.geometry as geometry
import convexdfo.poisedness as poisedness
import convexdfo.solver as solver
from perfbench.bench import END_TO_END_METRICS
from perfbench.harness import run_pass
from perfbench.tracer import (
    PER_LAYER_METRICS, SELF_TIME_METRICS, Tracer, instrument, layer_metrics, self_times,
)
from perfbench.workloads import Instance, warmup_instance

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_of_nested_spans():
    spans = [
        _span("solver", 0.0, 10.0, -1),
        _span("poisedness.improve", 1.0, 6.0, 0),
        _span("geometry.project", 2.0, 5.0, 1),
        # project_batch routing into the trust-region projector: same name.
        _span("geometry.project", 3.0, 4.5, 2),
        _span("objective", 7.0, 8.0, 0),
    ]
    own = self_times(spans)
    assert own.tolist() == pytest.approx([4.0, 2.0, 1.5, 1.5, 1.0])
    assert own.sum() == pytest.approx(10.0)


def test_nested_projection_counts_once():
    tracer = Tracer()
    tracer.spans = [
        _span("solver", 0.0, 10.0, -1),
        _span("geometry.project", 1.0, 3.0, 0, {"via": "batch", "rows": 4, "sweeps": 7}),
        _span("geometry.project", 1.5, 2.5, 1, {"via": "projector", "rows": 4, "sweeps": 7}),
        _span("geometry.project", 4.0, 5.0, 0, {"via": "batch", "rows": 2, "sweeps": 3}),
    ]
    m = layer_metrics(tracer, [])
    assert m["geometry.project_calls"] == 2
    assert m["geometry.project_rows"] == 6
    assert m["geometry.dykstra_sweeps"] == 10
    assert m["geometry.project_s"] == pytest.approx(3.0)


def _entry_points():
    return {
        "call": geometry.TrustRegionProjector.__dict__["__call__"],
        "batch": geometry.project_batch,
        "improve": solver.improve_to_poised,
        "check": solver.check_poisedness,
        "reinit": poisedness.initial_invertible_set,
        "sample": poisedness.sample_feasible_in_ball,
        "assemble": solver.assemble_system,
        "assemble_p": poisedness.assemble_system,
        "fit": solver.fit_mfn_model,
        "design": solver.build_design_matrix,
        "fit_lin": solver.fit_regression_model,
        "crit": solver.criticality_measure,
        "step": solver.solve_trust_region_step,
    }


def _tiny_quad2d():
    inst = warmup_instance("box")
    assert inst.name.startswith("quad2d")
    return inst


def test_wrappers_restored_after_traced_pass():
    before = _entry_points()
    tracer = Tracer()
    with instrument(tracer):
        assert solver.improve_to_poised is not before["improve"]
    run_pass([_tiny_quad2d()], tracer)
    after = _entry_points()
    assert all(after[k] is before[k] for k in before)


def test_error_inside_block_still_restores():
    before = _entry_points()
    with pytest.raises(RuntimeError):
        with instrument(Tracer()):
            raise RuntimeError("boom")
    assert all(_entry_points()[k] is v for k, v in before.items())


def test_evaluation_classification_on_quad2d():
    inst = _tiny_quad2d()
    tracer = Tracer()
    (outcome,), _, _ = run_pass([inst], tracer)
    c = tracer.counters
    assert c["evals_start"] == 1
    assert c["evals_start"] + c["evals_geometry"] + c["evals_trial"] == outcome.evals
    trials_in_rows = sum(r.rho is not None for r in outcome.record.rows)
    # The trial of the last iteration may be evaluated before the budget stops it.
    assert trials_in_rows <= c["evals_trial"] <= trials_in_rows + 1
    assert c["evals_trial"] > 0 and c["evals_geometry"] > 0
    # Tracing does not change what the solver does.
    (plain,), _, _ = run_pass([inst])
    assert plain.digest() == outcome.digest()


def test_traced_solve_accounts_for_its_time():
    tracer = Tracer()
    (outcome,), wall, _ = run_pass([_tiny_quad2d()], tracer)
    own = self_times(tracer.spans)
    assert own.min() >= 0.0
    solver_span = next(s for s in tracer.spans if s[0] == "solver")
    assert own.sum() == pytest.approx(solver_span[2] - solver_span[1], rel=1e-9)
    m = layer_metrics(tracer, [(r.step_kind, r.rho) for r in outcome.record.rows])
    assert m["poisedness.improve_calls"] > 0 and m["geometry.project_rows"] > 0
    assert sum(m[name] for name in SELF_TIME_METRICS) == pytest.approx(own.sum(), rel=1e-9)


def test_metric_names_and_benchmark_file():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    names = list(END_TO_END_METRICS) + list(PER_LAYER_METRICS)
    assert all(pattern.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END_METRICS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_METRICS


def test_layer_metrics_cover_every_name():
    tracer = Tracer()
    (outcome,), _, _ = run_pass([_tiny_quad2d()], tracer)
    m = layer_metrics(tracer, [])
    assert set(m) | {"trace.overhead_s"} == set(PER_LAYER_METRICS)
    assert all(np.isfinite(v) for v in m.values())


def test_spans_written_as_csv(tmp_path):
    tracer = Tracer()
    run_pass([_tiny_quad2d()], tracer)
    path = tmp_path / "spans.csv"
    tracer.write(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "name,start,end,parent"
    assert len(lines) == len(tracer.spans) + 1
    name, start, end, parent = lines[1].split(",")
    assert name == "solver" and parent == "-1" and float(end) >= float(start)
