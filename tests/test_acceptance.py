"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (visible with ``pytest -s``
or in the captured-output section); a failure reads as FAIL with the
offending numbers in the assertion message.
"""

import time
from collections import Counter

import numpy as np
import pytest

from convexdfo import accuracy as acc
from convexdfo import geometry as geo
from convexdfo import linear_models as lm
from convexdfo import poisedness as po
from convexdfo import quadratic_models as qm
from convexdfo import subproblems as sp
from convexdfo.cli import main as cli_main
from convexdfo.problems import get_problem, true_criticality
from convexdfo.solver import SolverConfig, solve

from oracles import (
    check_radius_discipline,
    dense_signed_logdet,
    full_quadratic_interpolation,
    grid_criticality,
    grid_lagrange_max,
)


def report(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


def random_invertible_sets(rng, count):
    """Invertible sets with n in {2, 3, 5} and p spanning n+2 .. full."""
    dims = [2, 3, 5]
    sets = []
    while len(sets) < count:
        n = dims[len(sets) % len(dims)]
        span = list(range(n + 2, qm.max_points(n) + 1))
        p = span[len(sets) % len(span)]
        radius = float(rng.uniform(0.2, 2.0))
        pts = rng.uniform(-1, 1, (p, n)) * min(radius, 1.0)
        iset = lm.InterpolationSet(np.zeros(n), radius, pts)
        system = qm.assemble_system(iset, require_invertible=False)
        if system.invertible:
            sets.append((iset, system))
    return sets


def test_criterion_1_lagrange_delta_property():
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    worst = 0.0
    for iset, system in random_invertible_sets(rng, 100):
        L = system.stacked_lagrange().table(iset.points)
        worst = max(worst, float(np.max(np.abs(L - np.eye(iset.npoints)))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8, f"delta-property deviation {worst:.3e}"
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    report(1, f"max |l_t(y_s) - delta| = {worst:.2e} over 100 sets in {elapsed:.1f}s")


def test_criterion_2_linear_reproduction_identities():
    rng = np.random.default_rng(20)
    worst_sum, worst_rep = 0.0, 0.0
    for iset, system in random_invertible_sets(rng, 12):
        basis = lm.build_design_matrix(iset, require_full_rank=False)
        ys = iset.base + rng.uniform(-1, 1, (100, iset.dimension)) * iset.scale
        for family in (system, basis) if basis.full_rank else (system,):
            L = family.stacked_lagrange().table(ys).T
            worst_sum = max(worst_sum, float(np.max(np.abs(L.sum(axis=1) - 1.0))))
            rebuilt = L @ (iset.points - iset.base)
            worst_rep = max(worst_rep, float(np.max(np.abs(rebuilt - (ys - iset.base)))))
    assert worst_sum <= 1e-8, f"partition of unity off by {worst_sum:.3e}"
    assert worst_rep <= 1e-8, f"linear reproduction off by {worst_rep:.3e}"
    report(2, f"sum-to-one {worst_sum:.2e}, displacement reproduction {worst_rep:.2e}")


def test_criterion_3_affine_and_quadratic_exactness():
    rng = np.random.default_rng(30)
    worst_h, worst_m = 0.0, 0.0
    for iset, system in random_invertible_sets(rng, 15):
        g_true = rng.standard_normal(iset.dimension)
        c_true = rng.standard_normal()
        values = iset.points @ g_true + c_true
        model = qm.fit_mfn_model(system, values)
        worst_h = max(worst_h, float(np.linalg.norm(model.hessians()[0], "fro")))
        sample = iset.base + rng.uniform(-1, 1, (200, iset.dimension))
        scale = 1.0 + float(np.max(np.abs(sample @ g_true + c_true)))
        err = np.max(np.abs(model.values(sample) - (sample @ g_true + c_true)))
        worst_m = max(worst_m, float(err) / scale)
    assert worst_h <= 1e-8, f"affine Hessian norm {worst_h:.3e}"
    assert worst_m <= 1e-8, f"affine model error {worst_m:.3e}"

    worst_q = 0.0
    for n in (2, 3):
        p = qm.max_points(n)
        for _ in range(5):
            radius = float(rng.uniform(0.3, 1.5))
            pts = rng.uniform(-1, 1, (p, n)) * min(radius, 1.0)
            iset = lm.InterpolationSet(np.zeros(n), radius, pts)
            system = qm.assemble_system(iset, require_invertible=False)
            if not system.invertible:
                continue
            A = rng.standard_normal((n, n))
            H_true, g_true = A + A.T, rng.standard_normal(n)
            values = np.array([
                0.4 + g_true @ y + 0.5 * y @ H_true @ y for y in iset.points
            ])
            model = qm.fit_mfn_model(system, values)
            c_o, g_o, H_o = full_quadratic_interpolation(iset.points, iset.base, values)
            sample = rng.uniform(-1, 1, (100, n))
            direct = (c_o + sample @ g_o
                      + 0.5 * np.einsum("ij,ij->i", sample @ H_o, sample))
            worst_q = max(worst_q, float(np.max(np.abs(model.values(sample) - direct))))
    assert worst_q <= 1e-7, f"full-p quadratic reproduction error {worst_q:.3e}"
    report(3, f"affine H {worst_h:.2e}, affine error {worst_m:.2e}, "
              f"full-p vs direct oracle {worst_q:.2e}")


def test_criterion_4_determinant_update():
    rng = np.random.default_rng(40)
    swaps = 0
    worst_pred, worst_growth = 0.0, 0.0
    while swaps < 200:
        n = int(rng.integers(2, 5))
        p = int(rng.integers(n + 2, qm.max_points(n) + 1))
        pts = rng.uniform(-1, 1, (p, n))
        iset = lm.InterpolationSet(np.zeros(n), 1.0, pts)
        system = qm.assemble_system(iset, require_invertible=False)
        if not system.invertible:
            continue
        t = int(rng.integers(p))
        y_new = rng.uniform(-1, 1, n)
        factor = qm.det_swap_factor(system, t, y_new)
        ell = system.stacked_lagrange().table(y_new[None])[t, 0]
        sign, logabs = dense_signed_logdet(
            iset.replace_point(t, y_new).points, iset.base, iset.radius
        )
        if factor != 0.0:
            assert system.det.sign * np.sign(factor) == sign
            predicted = system.det.logabs + np.log(abs(factor))
            rel = abs(predicted - logabs) / max(abs(logabs), 1.0)
            worst_pred = max(worst_pred, rel)
        shortfall = ell**2 * (1.0 - 1e-8) - abs(factor)
        worst_growth = max(worst_growth, shortfall)
        swaps += 1
    assert worst_pred <= 1e-7, f"swap prediction off by {worst_pred:.3e} (relative)"
    assert worst_growth <= 0.0, f"growth inequality violated by {worst_growth:.3e}"
    report(4, f"200 swaps: prediction error {worst_pred:.2e}, "
              f"growth inequality slack >= 0")


def test_criterion_5_initial_set_construction():
    rng = np.random.default_rng(50)
    checked = 0
    for n in (2, 3, 4, 5):
        regions = [
            geo.Box([0.0] * n, [2.0] * n),
            geo.Ball([0.4] + [0.0] * (n - 1), 1.2),
        ]
        p_values = sorted({n + 2, 2 * n + 1, qm.max_points(n)})
        for region in regions:
            x = np.zeros(n)
            for p in p_values:
                for delta in (0.5, 1.0, 3.0):
                    iset = po.initial_invertible_set(region, x, delta, p, rng=rng)
                    r = min(delta, 1.0)
                    assert iset.feasible(region)
                    dists = np.linalg.norm(iset.points - x, axis=1)
                    assert np.max(dists) <= r * (1 + 1e-9)
                    system = qm.assemble_system(iset, require_invertible=False)
                    assert system.invertible, "det below singularity threshold"
                    stage1 = po.structured_initial_points(x, delta, p)
                    moved = sum(
                        not np.array_equal(iset.points[t], stage1[t]) for t in range(p)
                    )
                    infeasible = sum(not region.is_member(y) for y in stage1)
                    assert moved == infeasible <= p
                    checked += 1
    report(5, f"{checked} box/ball instances: feasible, inside min(delta,1), "
              f"invertible, <= p replacements")


def test_criterion_6_poisedness_improvement():
    rng = np.random.default_rng(60)
    grid_checked = 0
    for n in (2, 3):
        region = geo.Box([0.0] * n, [2.0] * n)
        for lam in (2.0, 10.0):
            for trial in range(3):
                center = np.full(n, 0.4) + 0.05 * rng.standard_normal(n)
                p = int(rng.integers(n + 2, qm.max_points(n) + 1))
                pts = center + 0.01 * rng.standard_normal((p, n))
                cluster = lm.InterpolationSet(center, 1.0, pts)
                improved, cert, swaps = po.improve_to_poised(
                    cluster, region, center, 1.0, p, lam, rng=rng
                )
                assert len(swaps) <= 100 * p, "swap cap exceeded"
                assert cert.verified, cert.reason
                for swap in swaps:
                    gain = swap.det_after.logabs - swap.det_before.logabs
                    assert gain >= 2.0 * np.log(lam) - 1e-6, (
                        f"per-swap log-det growth {gain:.6f} < {2 * np.log(lam):.6f}"
                    )
                if n == 2:
                    system = qm.assemble_system(improved)
                    grid = grid_lagrange_max(system, region, center, 1.0)
                    assert grid.max() <= lam + 1e-3, (
                        f"grid found |l_t| = {grid.max():.5f} > {lam}"
                    )
                    grid_checked += 1
    report(6, f"clustered inputs repaired at lambda in {{2, 10}}; "
              f"{grid_checked} n=2 certificates grid-checked")


def _bound_suite(rng, problem_name, n_sets, samples):
    problem = get_problem(problem_name)
    region, lipschitz = problem.region, problem.lipschitz_grad
    lam, delta = 2.0, 0.5
    worst = 0.0
    for _ in range(n_sets):
        x = problem.x0 + rng.uniform(-0.2, 0.2, problem.dimension)
        proj = geo.project(region, x).point
        p = int(rng.integers(problem.dimension + 2, qm.max_points(problem.dimension) + 1))
        iset, cert, _ = po.improve_to_poised(None, region, proj, delta, p, lam, rng=rng)
        system = qm.assemble_system(iset)
        values = np.array([problem.f(y) for y in iset.points])

        model = qm.fit_mfn_model(system, values)
        rep = acc.fully_linear_report(
            model, problem.f, problem.grad, region, iset.base, iset.radius,
            *acc.mfn_accuracy_constants(iset.npoints, lam, lipschitz, 1.0),
            n_samples=samples, rng=rng,
        )
        worst = max(worst, rep.max_ratio)

        basis = lm.build_design_matrix(iset)
        reg_model = lm.fit_regression_model(basis, values)
        rep2 = acc.fully_linear_report(
            reg_model, problem.f, problem.grad, region, iset.base, iset.radius,
            *acc.regression_accuracy_constants(iset.npoints, np.sqrt(p) * lam, lipschitz, 1.0),
            n_samples=samples, rng=rng,
        )
        worst = max(worst, rep2.max_ratio)
    return worst


def test_criterion_7_fully_linear_bound_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(70)
    worst_quad = _bound_suite(rng, "quad2d", 25, 1000)
    worst_cos = _bound_suite(rng, "cossum2d", 25, 1000)
    assert worst_quad <= 1.0, f"quadratic suite ratio {worst_quad:.4f}"
    assert worst_cos <= 1.0, f"cos-sum suite ratio {worst_cos:.4f}"

    # Negative control: clustered geometry, honestly certified, with the
    # Lipschitz constant halved; the function-error bound must be violated.
    region = geo.Box([-1.0, -1.0], [1.0, 1.0])
    problem = get_problem("quad2d")
    x = np.zeros(2)
    cluster = lm.InterpolationSet(
        x, 1.0, po.structured_initial_points(x, 0.01, 4)
        + 0.0002 * rng.standard_normal((4, 2)),
    )
    basis = lm.build_design_matrix(cluster)
    cert = po.check_poisedness(basis, region, 1.0 + 1e-9, rng=rng, early_exit=False)
    lam_reg = max(cert.lambda_observed, 1.0)
    values = np.array([problem.f(y) for y in cluster.points])
    reg_model = lm.fit_regression_model(basis, values)
    beta = cluster.displacement_bound
    honest = acc.fully_linear_report(
        reg_model, problem.f, problem.grad, region, cluster.base, cluster.radius,
        *acc.regression_accuracy_constants(
            cluster.npoints, lam_reg, problem.lipschitz_grad, beta),
        n_samples=1000, rng=rng,
    )
    halved = acc.fully_linear_report(
        reg_model, problem.f, problem.grad, region, cluster.base, cluster.radius,
        *acc.regression_accuracy_constants(
            cluster.npoints, lam_reg, 0.5 * problem.lipschitz_grad, beta),
        n_samples=1000, rng=rng,
    )
    assert honest.max_ratio <= 1.0, f"honest control ratio {honest.max_ratio:.3f}"
    assert halved.violated, f"halved-L control not flagged ({halved.max_ratio:.3f})"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 7 took {elapsed:.1f}s"
    report(7, f"50 sets x 1000 samples: worst ratio {max(worst_quad, worst_cos):.4f}; "
              f"negative control ratio {halved.max_ratio:.2f} flagged; {elapsed:.1f}s")


def test_criterion_8_subproblem_oracles():
    rng = np.random.default_rng(80)
    # unconstrained case returns radius * ||g|| exactly
    for _ in range(10):
        g = rng.standard_normal(3)
        res = sp.criticality_measure(g, np.zeros(3), geo.WholeSpace(3))
        assert abs(res.value - np.linalg.norm(g)) <= 1e-9 * np.linalg.norm(g)

    worst_gap = 0.0
    instances = [
        (geo.Box([0.0, 0.0], [1.0, 1.0]), [0.0, 0.0], [1.0, -1.0]),
        (geo.Box([0.0, 0.0], [1.0, 1.0]), [1.0, 0.3], [-2.0, 0.7]),
        (geo.Box([-1.0, -1.0], [1.0, 1.0]), [0.7, -0.2], [0.5, 1.3]),
        (geo.Ball([0.0, 0.0], 1.0), [0.5, 0.0], [1.0, 1.0]),
        (geo.Ball([0.0, 0.0], 1.0), [0.6, -0.6], [-0.3, 2.0]),
        (geo.Ball([0.2, 0.1], 0.8), [0.2, 0.1], [-1.0, 0.4]),
    ]
    for region, x, g in instances:
        res = sp.criticality_measure(np.array(g), np.array(x), region)
        oracle = grid_criticality(np.array(g), np.array(x), region, step=1e-3)
        worst_gap = max(worst_gap, abs(res.value - oracle))
    assert worst_gap <= 1e-3, f"criticality vs grid oracle gap {worst_gap:.2e}"

    flagged, satisfied = 0, 0
    for seed in range(25):
        trial_rng = np.random.default_rng(seed)
        region = (geo.Box([-1.0, -1.0], [1.0, 1.0]) if seed % 2
                  else geo.Ball([0.0, 0.0], 1.0))
        x = geo.project(region, trial_rng.uniform(-1, 1, 2)).point
        A = trial_rng.standard_normal((2, 2))
        model = qm.Quadratics.from_hessian(
            x, trial_rng.standard_normal(), trial_rng.standard_normal(2), A + A.T
        )
        delta = float(trial_rng.uniform(0.05, 1.5))
        step = sp.solve_trust_region_step(model, x, region, delta, c1=0.1)
        target = sp.cauchy_decrease_target(step.pi_model, model.hess_norms()[0], delta, 0.1)
        if step.satisfied_cauchy:
            satisfied += 1
            assert step.predicted_reduction >= target - 1e-10
        else:
            flagged += 1
    assert satisfied + flagged == 25
    assert satisfied == 25, f"{flagged} steps failed the decrease condition"
    report(8, f"criticality gap {worst_gap:.2e}; 25/25 steps satisfied the "
              f"decrease condition")


def _check_run_discipline(problem, record, config, evaluated):
    """Feasible evaluations, monotone f and the radius rule; returns the
    branches of the rule seen (``check_radius_discipline``)."""
    points = [y for y, _ in evaluated]
    for y in points:
        assert problem.region.is_member(y), "infeasible evaluation"
    fs = [row.f for row in record.rows]
    assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:])), "f not monotone"
    return check_radius_discipline(record, config, points, [v for _, v in evaluated])


def _solve_tracked(problem, config):
    """The solve and its evaluation log, ``(point, value)`` in call order."""
    evaluated = []

    def tracked(y):
        value = problem.f(y)
        evaluated.append((np.array(y), value))
        return value

    start = time.perf_counter()
    x, record = solve(tracked, problem.region, problem.x0, config)
    elapsed = time.perf_counter() - start
    return x, record, evaluated, elapsed


def test_criterion_9_end_to_end_solves():
    results, seen = [], Counter()

    problem = get_problem("quad2d")
    config = SolverConfig(npoints=6, max_evals=500, seed=0)
    x, record, evaluated, elapsed = _solve_tracked(problem, config)
    assert len(evaluated) <= 500
    pi_f = true_criticality(problem, x)
    assert pi_f <= 1e-4, f"quad2d pi_f = {pi_f:.2e}"
    assert elapsed < 30.0, f"quad2d took {elapsed:.1f}s"
    seen += _check_run_discipline(problem, record, config, evaluated)
    results.append(f"quad2d pi_f={pi_f:.1e} evals={len(evaluated)} {elapsed:.1f}s")

    # The default npoints: here fully linear cuts land on mu * pi_m and a
    # set is kept through a one-step cut.
    config = SolverConfig(max_evals=500, seed=1)
    x, record, evaluated, elapsed = _solve_tracked(problem, config)
    pi_f = true_criticality(problem, x)
    assert pi_f <= 1e-4, f"quad2d (default npoints) pi_f = {pi_f:.2e}"
    assert elapsed < 30.0, f"quad2d (default npoints) took {elapsed:.1f}s"
    seen += _check_run_discipline(problem, record, config, evaluated)
    results.append(f"quad2d/p=5 pi_f={pi_f:.1e} evals={len(evaluated)} {elapsed:.1f}s")

    problem = get_problem("affine2d")
    config = SolverConfig(npoints=6, max_evals=500, seed=0)
    x, record, evaluated, elapsed = _solve_tracked(problem, config)
    pi_f = true_criticality(problem, x)
    assert pi_f <= 1e-5, f"affine2d pi_f = {pi_f:.2e}"
    assert elapsed < 30.0, f"affine2d took {elapsed:.1f}s"
    seen += _check_run_discipline(problem, record, config, evaluated)
    results.append(f"affine2d pi_f={pi_f:.1e} evals={len(evaluated)} {elapsed:.1f}s")

    problem = get_problem("rosenbrock2d")
    config = SolverConfig(npoints=6, max_evals=2000, seed=0)
    x, record, evaluated, elapsed = _solve_tracked(problem, config)
    assert len(evaluated) <= 2000
    pi_f = true_criticality(problem, x)
    assert pi_f <= 1e-3, f"rosenbrock2d pi_f = {pi_f:.2e}"
    assert elapsed < 30.0, f"rosenbrock2d took {elapsed:.1f}s"
    # Successes with eta <= rho < 0.7 hold delta in this run.
    branches = _check_run_discipline(problem, record, config, evaluated)
    assert branches["held"]
    seen += branches
    results.append(f"rosenbrock2d pi_f={pi_f:.1e} evals={len(evaluated)} {elapsed:.1f}s")
    # Every criticality row is fully linear, and its cuts land on mu * pi_m
    # and on delta_min, and keep a set through a one-step cut; model-improving
    # rows on uncertified sets with pi_m < eps_criticality cut delta; and the
    # iterate moves onto a lower point of its set.
    assert (seen["mu_pi_m"] and seen["delta_min"] and seen["kept"]
            and seen["uncertified_cut"] and seen["moved"]), dict(seen)

    report(9, "; ".join(results))


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        out.mkdir()
        code = cli_main([
            "solve", "--problem", "quad2d", "--model", "mfn", "--points", "6",
            "--max-evals", "200", "--seed", "17", "--out", str(out),
        ])
        assert code == 0
        code = cli_main([
            "bounds", "--problem", "cossum2d", "--sets", "3", "--samples", "200",
            "--seed", "17", "--out", str(out),
        ])
        assert code == 0
        outputs.append(out)
    for name in ("runrecord.csv", "final_set.json", "final_model.json",
                 "bounds_report.csv"):
        first = (outputs[0] / name).read_bytes()
        second = (outputs[1] / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"
    report(10, "identical configs and seeds give byte-identical CSV/JSON outputs")
