import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench.harness import analyse, eps_index, median_high, run_pass
from perfbench.workloads import WORKLOADS, build_workload, chained_rosenbrock, warmup_instance

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_median_high():
    med, pct, value, n = median_high(range(1, 21))
    assert (med, n) == (10.5, 20)
    assert value == 10 and pct == pytest.approx(50.0)
    assert median_high([3.0, 1.0, 2.0])[1:] == (None, None, 3)


def test_same_seed_same_inputs():
    for workload in WORKLOADS:
        a, b = build_workload(workload, 7), build_workload(workload, 7)
        assert [i.x0.tolist() for i in a] == [i.x0.tolist() for i in b]
        assert [i.config for i in a] == [i.config for i in b]
        assert all(i.region.is_member(i.x0) for i in a)
    assert build_workload("box", 7)[0].x0.tolist() != build_workload("box", 8)[0].x0.tolist()


def test_rosenbrock_gradient():
    f, grad = chained_rosenbrock(4)
    x = np.array([0.3, -0.2, 0.7, 1.1])
    h = 1e-6
    numeric = [(f(x + h * e) - f(x - h * e)) / (2 * h) for e in np.eye(4)]
    assert grad(x) == pytest.approx(numeric, rel=1e-6)


def test_repeated_passes_agree_and_audit_counts():
    inst = warmup_instance("box")
    passes = [run_pass([inst]), run_pass([inst])]
    analysis = analyse(passes)
    # Each solve is charged its fastest repeat.
    assert analysis["timings"]["wall_s"] == min(outs[0].wall for outs, _, _ in passes)
    assert analysis["checks"] == {"repeat_identical": True, "yardstick_ok": True,
                                  "x_final_ok": True}
    counts = analysis["counts"]
    assert counts["attempted"] == 1 and counts["failed"] == 0
    assert counts["evals"] == inst.config.max_evals
    (outcome,), _, _ = run_pass([inst])
    k = eps_index(outcome)
    expected = inst.config.max_evals if k is None else k + 1
    assert counts["evals_to_eps"] == expected


def test_run_without_sources_fails(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "box", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_traced_run_reports_layers_and_writes_spans(monkeypatch, tmp_path, capsys):
    import argparse
    import json

    import perfbench.bench as bench
    from perfbench.tracer import PER_LAYER_METRICS

    name, make, _, kind = WORKLOADS["box"][1][0]
    monkeypatch.setitem(WORKLOADS, "box", (1, [(name, make, 12, kind)]))
    monkeypatch.setattr(bench, "SPANS_DIR", str(tmp_path))
    args = argparse.Namespace(workload="box", seed=0, seconds=0.0, trace=1)
    assert bench.run_benchmark(args, 0.0) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["attempted"] == 1
    assert set(result["metrics"]) == set(PER_LAYER_METRICS)
    lines = (tmp_path / "spans_box.csv").read_text().splitlines()
    assert lines[0] == "name,start,end,parent" and len(lines) > 1
