import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexdfo import geometry as geo
from convexdfo import poisedness as po
from convexdfo import solver as sv
from convexdfo.linear_models import InterpolationSet, RegressionBasis
from convexdfo.problems import get_problem, true_criticality
from convexdfo.quadratic_models import assemble_system, fit_mfn_model
from convexdfo.solver import (
    _PRIOR_HESS_CAP,
    IterationRow,
    RunRecord,
    SolverConfig,
    SolverError,
    _criticality_radius,
    _duplicates,
    _least_change_fit,
    _recentred_radius,
    solve,
)

from oracles import check_radius_discipline


def run(problem_name, **config_kwargs):
    problem = get_problem(problem_name)
    config = SolverConfig(**config_kwargs)
    x, record = solve(problem.f, problem.region, problem.x0, config)
    return problem, config, x, record


def recording(f):
    """``f`` plus the list of points it is called at, in order."""
    points = []

    def wrapped(x):
        points.append(np.array(x, dtype=float))
        return f(x)

    return wrapped, points


def random_instance(kind, n, log_scale, seed):
    """A random box or ball at scale ``10**log_scale``, its centre, and a
    recorded quadratic whose minimizer is mostly outside it."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    centre = scale * rng.standard_normal(n)
    if kind == "box":
        half = scale * (0.1 + rng.random(n))
        region = geo.Box(centre - half, centre + half)
    else:
        region = geo.Ball(centre, scale * (0.1 + rng.random()))
    target = centre + 2.0 * scale * rng.standard_normal(n)
    f, points = recording(lambda y: float(np.sum((y - target) ** 2)))
    return region, centre, f, points


def polyhedral_or_curved_region(kind, n, rng):
    """A random simplex, box cut by a ball, or two-ball lens, and a point
    inside it."""
    if kind == "simplex":
        region = geo.Halfspaces(np.vstack([-np.eye(n), np.ones(n)]), np.r_[np.zeros(n), 1.0])
        return region, 0.9 * rng.dirichlet(np.ones(n + 1))[:n]
    centre = rng.standard_normal(n)
    if kind == "box-ball":
        half = 0.2 + rng.random(n)
        radius = float(np.linalg.norm(half)) * (0.6 + 0.3 * rng.random())
        h = half * rng.uniform(-1.0, 1.0, n)
        x = centre + 0.9 * min(1.0, radius / float(np.linalg.norm(h))) * h
        return geo.Intersection([geo.Box(centre - half, centre + half),
                                 geo.Ball(centre, radius)]), x
    # Two balls whose spheres cross; x lies within half the lens's
    # half-width h of the midpoint of its axis, which is h from both spheres.
    r1, r2 = 0.5 + rng.random(2)
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    gap = abs(r1 - r2) + (0.2 + 0.6 * rng.random()) * (r1 + r2 - abs(r1 - r2))
    h = 0.5 * (r1 + r2 - gap)
    v = rng.standard_normal(n)
    x = centre + 0.5 * (gap - r2 + r1) * u + 0.5 * h * rng.random() * v / np.linalg.norm(v)
    return geo.Intersection([geo.Ball(centre, r1), geo.Ball(centre + gap * u, r2)]), x


# Model kinds and poisedness levels for the property tests: a regression
# run at 1.2 repairs below sqrt(npoints).
MODELS = [("mfn-quadratic", 10.0), ("linear-regression", 10.0), ("linear-regression", 1.2)]


def failing_at(f, call, bad):
    """``f`` except that call number ``call`` returns NaN or inf, or raises."""
    calls = 0

    def wrapped(x):
        nonlocal calls
        calls += 1
        if calls != call:
            return f(x)
        if bad == "raise":
            raise ZeroDivisionError("objective blew up")
        return float(bad)

    return wrapped


class TestConfigValidation:
    def test_defaults_valid(self):
        SolverConfig().validate()

    @pytest.mark.parametrize("bad", [
        dict(delta0=0.0),
        dict(delta0=2.0, delta_max=1.0),
        dict(gamma_dec=1.5),
        dict(gamma_inc=0.5),
        dict(eta=1.0),
        dict(poisedness=1.0),
        dict(c1=0.0),
        dict(delta_min=0.0),
        dict(model_kind="cubic"),
        dict(max_evals=1e3),
        dict(seed=1.5),
        dict(npoints=6.0),
        dict(eta="abc"),
        dict(delta0=True),
        dict(max_evals=True),
        dict(seed=-1),
        dict(delta0=float("inf"), delta_max=float("inf")),
        dict(gamma_inc=float("inf"), delta_max=float("inf")),
        dict(delta_max=float("inf")),
        dict(eps_criticality=float("inf")),
        dict(mu=float("nan")),
        dict(delta_max=10**400),
    ])
    def test_bad_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            SolverConfig(**bad).validate()

    def test_numpy_numbers_valid(self):
        SolverConfig(delta0=np.float64(0.5), npoints=np.int64(6), max_evals=np.int32(50),
                     seed=np.uint8(3)).validate()

    def test_solve_rejects_a_float_budget(self):
        problem = get_problem("quad2d")
        with pytest.raises(ValueError, match="max_evals must be an integer"):
            solve(problem.f, problem.region, problem.x0, SolverConfig(max_evals=1e3))

    def test_npoints_resolution(self):
        assert SolverConfig().resolve_npoints(2) == 5
        assert SolverConfig(npoints=6).resolve_npoints(2) == 6
        with pytest.raises(ValueError):
            SolverConfig(npoints=3).resolve_npoints(2)
        with pytest.raises(ValueError):
            SolverConfig(npoints=7).resolve_npoints(2)

    def test_regression_level_below_sqrt_npoints_is_valid(self):
        # A regression set is repaired on its own basis, so any level above
        # 1 will do for either model kind, also below sqrt(p).
        for poisedness in (1.2, 2.0, 2.5):
            config = SolverConfig(model_kind="linear-regression", poisedness=poisedness)
            config.validate()
            assert config.resolve_npoints(2) == 5
        assert SolverConfig(poisedness=2.0).resolve_npoints(2) == 5


class TestRunRecordCsv:
    def test_schema_and_formatting(self, tmp_path):
        record = RunRecord(rows=[
            IterationRow(0, 1.5, 1.0, 0.25, None, "criticality", 7, True),
            IterationRow(1, 1.25, 0.5, 0.25, 0.9375, "successful", 8, False),
        ], status="budget")
        text = record.csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "k,f,delta,pi_m,rho,step_kind,evals,fully_linear"
        assert lines[1] == "0,1.5,1.0,0.25,,criticality,7,true"
        assert lines[2] == "1,1.25,0.5,0.25,0.9375,successful,8,false"
        record.to_csv(tmp_path / "run.csv")
        assert (tmp_path / "run.csv").read_text() == text


class TestConvergence:
    def test_quadratic_box_interior_optimum(self):
        problem, _, x, record = run("quad2d", npoints=6, max_evals=500, seed=0)
        assert record.rows[-1].evals <= 500
        assert true_criticality(problem, x) <= 1e-4
        np.testing.assert_allclose(x, problem.xstar, atol=1e-4)

    def test_affine_box_boundary_optimum(self):
        problem, _, x, record = run("affine2d", npoints=6, max_evals=500, seed=0)
        assert true_criticality(problem, x) <= 1e-5
        np.testing.assert_allclose(x, problem.xstar, atol=1e-6)

    def test_linear_regression_model_kind(self):
        problem, _, x, record = run(
            "quad2d", npoints=6, max_evals=800, seed=0,
            model_kind="linear-regression", delta_min=1e-9,
        )
        assert true_criticality(problem, x) <= 1e-3

    def test_rosenbrock_ball(self):
        problem, _, x, record = run("rosenbrock2d", npoints=6, max_evals=2000, seed=0)
        assert record.rows[-1].evals <= 2000
        assert true_criticality(problem, x) <= 1e-3
        # constrained optimum on the unit disk
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_rosenbrock_disk_does_not_creep(self, seed):
        # Near the optimum on the unit circle the model's descent direction
        # points almost straight out of the disk.  Unless the step travels
        # along the circle, each iteration creeps a few percent of delta
        # and the run spends the whole budget.
        _, _, _, record = run("rosenbrock2d", npoints=6, max_evals=600, seed=seed)
        assert record.status == "radius_min"


class TestCriticalityRadius:
    @given(
        delta=st.floats(1e-12, 1e3),
        pi_m=st.floats(0.0, 1e3),
        mu=st.floats(1e-3, 1e3),
        gamma_dec=st.floats(1e-3, 1.0, exclude_max=True),
        delta_min=st.floats(1e-12, 1e3),
        certified=st.booleans(),
    )
    # quad2d's phase at box seed 100: pi_m hardly moves while delta falls
    # from 1.13, so one cut reaches mu * pi_m.
    @example(delta=1.13, pi_m=1.25e-3, mu=1.0, gamma_dec=0.5, delta_min=1e-8, certified=True)
    @example(delta=1.13, pi_m=0.0, mu=1.0, gamma_dec=0.5, delta_min=1e-8, certified=True)
    @example(delta=1.13, pi_m=1.25e-3, mu=1.0, gamma_dec=0.5, delta_min=1e-8, certified=False)
    @example(delta=1e-3, pi_m=5e-3, mu=1.0, gamma_dec=0.5, delta_min=1e-8, certified=False)
    def test_cut_to_mu_pi_between_floor_and_one_step(self, delta, pi_m, mu, gamma_dec,
                                                     delta_min, certified):
        new = _criticality_radius(delta, pi_m, mu, gamma_dec, delta_min, certified)
        # Never above one gamma_dec step (delta itself when uncertified),
        # never below the floor delta_min unless that step itself is lower.
        step = gamma_dec * delta if certified else delta
        assert min(delta_min, step) <= new <= step
        if delta_min <= mu * pi_m <= step:
            assert new == mu * pi_m
        if not certified and mu * pi_m >= delta:
            assert new == delta
        if pi_m == 0.0:
            assert new == min(delta_min, step) > 0.0


@pytest.fixture(scope="module")
def quad_run():
    """quad2d's run plus the points ``f`` was called at, in order."""
    problem = get_problem("quad2d")
    config = SolverConfig(npoints=6, max_evals=400, seed=2)
    f, points = recording(problem.f)
    x, record = solve(f, problem.region, problem.x0, config)
    return problem, config, x, record, points


def run_with_sets(problem_name, **config_kwargs):
    """The run, the points ``f`` was called at and the set each row
    modelled, by row ``k``."""
    problem = get_problem(problem_name)
    config = SolverConfig(**config_kwargs)
    f, points = recording(problem.f)
    with pytest.MonkeyPatch.context() as patch:
        record, sets = solve_with_sets(patch, f, problem.region, problem.x0, config)
    return config, record, points, sets


@pytest.fixture(scope="module")
def rosenbrock_run():
    """rosenbrock2d's ``run_with_sets``."""
    return run_with_sets("rosenbrock2d", npoints=6, max_evals=2000, seed=0)


@pytest.fixture(scope="module")
def quad_default_run():
    """quad2d's ``run_with_sets`` at the default ``npoints``."""
    return run_with_sets("quad2d", max_evals=400, seed=1)


@pytest.fixture(scope="module")
def quad_cut_run():
    """``run_with_sets`` of ``quad_run``'s quad2d solve, whose model-improving
    row on an uncertified set cuts delta."""
    return run_with_sets("quad2d", npoints=6, max_evals=400, seed=2)


@pytest.fixture(scope="module")
def runs(quad_run, rosenbrock_run):
    """``(config, record)`` of ``quad_run`` and ``rosenbrock_run``."""
    _, config, _, record, _ = quad_run
    return [(config, record), rosenbrock_run[:2]]


class TestRunDiscipline:

    def test_iterates_feasible_and_monotone(self, quad_run):
        problem, _, x, record, _ = quad_run
        fs = [row.f for row in record.rows]
        assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))
        assert geo.contains(problem.region, x, 1e-9)

    def test_radius_update_discipline(self, quad_run, rosenbrock_run, quad_default_run):
        # Every criticality branch shows across the three runs: uncertified
        # rows cut delta, and fully linear rows land on mu * pi_m and on
        # delta_min and keep a set through a one-step cut.  The iterate
        # moves onto a lower point of its set.
        problem, config, _, record, points = quad_run
        seen = check_radius_discipline(record, config, points,
                                       values=[problem.f(y) for y in points])
        for config, record, points, sets in (rosenbrock_run, quad_default_run):
            seen += check_radius_discipline(record, config, points, sets=sets)
        assert (seen["mu_pi_m"] and seen["delta_min"] and seen["kept"]
                and seen["uncertified_cut"] and seen["moved"]), dict(seen)

    def test_radius_update_discipline_middle_band(self, rosenbrock_run, quad_default_run,
                                                  quad_cut_run):
        # In rosenbrock2d's run successes with eta <= rho < 0.7 hold delta
        # where the step would have grown it; with quad2d's two runs, every
        # criticality branch shows.
        seen = Counter()
        for config, record, points, sets in (rosenbrock_run, quad_default_run, quad_cut_run):
            seen += check_radius_discipline(record, config, points, sets=sets)
        assert (seen["held"] and seen["mu_pi_m"] and seen["delta_min"] and seen["kept"]
                and seen["uncertified_cut"] and seen["moved"]), dict(seen)

    def test_runs_cover_every_step_kind(self, runs):
        kinds = {row.step_kind for _, record in runs for row in record.rows}
        assert kinds == set(sv.STEP_KINDS)

    def test_criticality_rows_respect_guard(self, runs):
        for config, record in runs:
            for row in record.rows:
                if row.step_kind == "criticality":
                    assert row.pi_m < config.eps_criticality

    def test_rho_presence_by_step_kind(self, runs):
        # Every row but a criticality row takes a step; only a step with no
        # predicted reduction has no trial and no rho.
        for _, record in runs:
            for row in record.rows:
                no_trial = f"iteration {row.k}: nonpositive predicted reduction" in record.notes
                assert (row.rho is None) == (row.step_kind == "criticality" or no_trial)

    def test_successful_rows_decrease_f(self, runs):
        for config, record in runs:
            rows = record.rows
            for row, nxt in zip(rows, rows[1:]):
                if row.step_kind == "successful":
                    assert nxt.f < row.f
                    assert row.rho >= config.eta

    def test_evals_nondecreasing_within_budget(self, runs):
        for config, record in runs:
            evals = [row.evals for row in record.rows]
            assert all(b >= a for a, b in zip(evals, evals[1:]))
            assert evals[-1] <= config.max_evals


class TestEdgeCases:
    def test_infeasible_start_projected(self):
        problem = get_problem("quad2d")
        config = SolverConfig(npoints=6, max_evals=60, seed=0)
        x, record = solve(problem.f, problem.region, np.array([5.0, -7.0]), config)
        assert any("infeasible" in note for note in record.notes)
        assert geo.contains(problem.region, x, 1e-9)

    @pytest.mark.parametrize("region", [
        geo.Halfspaces(np.vstack([-np.eye(3), np.ones((1, 3))]), [0.5, 0.5, 0.5, 1.0]),
        geo.Halfspaces([[0.3, 0.2, 0.1]], [0.05]),
    ], ids=["simplex", "halfspace"])
    def test_infeasible_start_is_an_exact_member(self, region):
        # The projections of most of these starts round to just outside the
        # region; f is first called at the start, which must be a member.
        rng = np.random.default_rng(0)
        starts = [x0 for x0 in rng.uniform(-3.0, 3.0, (40, 3)) if not region.is_member(x0)]
        assert len(starts) >= 8
        for x0 in starts:
            f, points = recording(lambda y: float(y @ y))
            _, record = solve(f, region, x0, SolverConfig(max_evals=1, seed=0))
            assert record.status == "budget"
            assert region.is_member(points[0])

    def test_budget_exhaustion_status(self):
        problem, _, x, record = run("rosenbrock2d", npoints=6, max_evals=25, seed=0)
        assert record.status == "budget"
        assert record.rows[-1].evals <= 25

    def test_final_set_exposed(self):
        _, config, x, record = run("quad2d", npoints=6, max_evals=120, seed=0)
        assert record.final_set is not None
        assert record.final_set.npoints == 6
        assert record.final_values.shape == (6,)

    @pytest.mark.parametrize("budget", [2, 3, 7, 11, 20, 40])
    def test_final_set_matches_its_values(self, budget):
        problem, _, _, record = run("quad2d", max_evals=budget, seed=0)
        if budget < 5:  # the first set (the start plus 4 points) is never complete
            assert record.final_set is None and record.final_values is None
        else:
            expected = [problem.f(y) for y in record.final_set.points]
            np.testing.assert_array_equal(record.final_values, expected)

    @pytest.mark.parametrize("call", [5, 12])
    @pytest.mark.parametrize("bad", ["nan", "inf", "raise"])
    def test_bad_objective_value_raises_solver_error(self, bad, call):
        problem = get_problem("quad2d")
        f = failing_at(problem.f, call, bad)
        with pytest.raises(SolverError) as info:
            solve(f, problem.region, problem.x0, SolverConfig(max_evals=60, seed=0))
        record = info.value.record
        assert record.status == "error"
        if bad == "raise":
            assert isinstance(info.value.__cause__, ZeroDivisionError)
        else:
            assert bad in str(info.value)
        # The record keeps the last set evaluated in full; the first set (five
        # points) is complete only from call 6 on.
        if call < 6:
            assert record.final_set is None and record.final_values is None
        else:
            expected = [problem.f(y) for y in record.final_set.points]
            np.testing.assert_array_equal(record.final_values, expected)

    def test_projection_failure_raises_solver_error(self, monkeypatch):
        monkeypatch.setattr(geo, "DYKSTRA_MAX_SWEEPS", 1)
        problem = get_problem("quad2d")
        region = geo.Halfspaces([[1.0, 0.0], [0.0, 1.0]], [0.9, 0.5])
        with pytest.raises(SolverError) as info:
            solve(problem.f, region, problem.x0, SolverConfig(max_evals=60, seed=0))
        assert info.value.record.status == "error"

    @pytest.mark.xfail(strict=True, raises=geo.ProjectionError, reason=(
        "Dykstra's projection onto this simplex cut by the trust ball stalls at "
        "residual 5.8e-5 (ROADMAP item 5: an exact polyhedron-ball projection)"))
    def test_simplex_sweep_projection_converges(self):
        # One row of a poisedness sweep on the simplex, from a base on its face.
        region = geo.Halfspaces([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])
        base = np.array([0.012818357405296243, 0.0])
        out = geo.TrustRegionProjector(region, base, 1.0)(
            np.array([[-0.16467811706503227, 1.881153023056644]]))[0]
        assert region.is_member(out) and np.linalg.norm(out - base) <= 1.0 + 1e-12

    @pytest.mark.parametrize("upper", [[1.0, 1e-3], [1.0, 1.0, 1e-3]])
    def test_singular_geometry_raises_solver_error(self, upper):
        # On a box this thin a repair swap leaves a singular system: the
        # region is too thin for invertible geometry.
        region = geo.Box(np.zeros(len(upper)), upper)
        with pytest.raises(SolverError, match="too thin") as info:
            solve(lambda y: float(np.sum((y - 0.3) ** 2)), region,
                  np.full(len(upper), 5e-4), SolverConfig(seed=1, max_evals=80))
        assert isinstance(info.value.__cause__, po.ThinRegionError)
        assert info.value.record.status == "error"

    def test_determinism_same_seed(self):
        _, _, x1, rec1 = run("quad2d", npoints=6, max_evals=150, seed=11)
        _, _, x2, rec2 = run("quad2d", npoints=6, max_evals=150, seed=11)
        np.testing.assert_array_equal(x1, x2)
        assert rec1.csv_text() == rec2.csv_text()


class TestEvaluations:
    @pytest.mark.parametrize("seed", range(3))
    def test_f_called_once_per_iterate(self, seed):
        problem = get_problem("rosenbrock2d")
        f, points = recording(problem.f)
        _, record = solve(f, problem.region, problem.x0,
                          SolverConfig(npoints=6, max_evals=200, seed=seed))
        # The iterates are the start and the trial point of each successful
        # row, which is that row's last evaluation.
        iterates = [points[0]] + [points[row.evals - 1] for row in record.rows
                                  if row.step_kind == "successful"]
        for x in iterates:
            assert sum(np.array_equal(x, y) for y in points) == 1

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["box", "ball"]), n=st.integers(1, 3),
           log_scale=st.floats(-3.0, 3.0), model=st.sampled_from(MODELS),
           seed=st.integers(0, 2**32 - 1))
    def test_every_evaluated_point_is_an_exact_member(self, kind, n, log_scale, model, seed):
        region, centre, f, points = random_instance(kind, n, log_scale, seed)
        scale = 10.0 ** log_scale
        model_kind, lam = model
        config = SolverConfig(delta0=scale, delta_max=100.0 * scale,
                              delta_min=1e-8 * scale, max_evals=30, seed=0,
                              model_kind=model_kind, poisedness=lam)
        solve(f, region, centre, config)
        assert all(region.is_member(y) for y in points)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["simplex", "box-ball", "lens"]), n=st.integers(2, 3),
           delta0=st.sampled_from([0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_dykstra_regions_evaluate_only_exact_members(self, kind, n, delta0, seed):
        # Their trust-region projections take Dykstra's scheme, which stops
        # at a tolerance, so steps and repair points can land just outside.
        rng = np.random.default_rng(seed)
        region, x = polyhedral_or_curved_region(kind, n, rng)
        target = x + rng.standard_normal(n)
        f, points = recording(lambda y: float(np.sum((y - target) ** 2)))
        try:
            solve(f, region, x, SolverConfig(delta0=delta0, npoints=2 * n + 1, max_evals=40,
                                             seed=seed))
        except SolverError:  # the one failure a solve may end in
            pass
        assert all(region.is_member(y) for y in points)

    def test_single_halfspace_evaluations_are_exact_members(self):
        a = np.arange(1.0, 5.0) / 7.0 + 0.1
        region = geo.Halfspaces([a], [1.0])
        f, points = recording(lambda y: float(np.sum((y - 3.0) ** 2)))
        solve(f, region, np.zeros(4), SolverConfig(seed=0, max_evals=60))
        assert all(region.is_member(y) for y in points)


class TestDuplicateTrial:
    def test_duplicates_within_the_tolerance(self):
        points = np.array([[0.0, 0.0], [1.0, -2.0], [3.0, 0.5]])
        y = points[1]
        tol = 1e-13 * (1.0 + np.linalg.norm(y))
        assert _duplicates(points, y + [0.5 * tol, 0.0])
        assert not _duplicates(points, y + [2.0 * tol, 0.0])
        assert not _duplicates(points[:0], y)

    def test_a_trial_on_a_set_point_is_a_failed_step(self, monkeypatch):
        # The first step is replaced by a zero step, so its trial is the
        # iterate, a point of the set, and f returns a lower value there
        # once, so rho = 1.  Swapped in, such a trial would leave x and the
        # set as they are, and the next row could take the same step.  The
        # row is a failed step instead: unsuccessful on a fully linear set,
        # which cuts delta, model-improving otherwise, and f stays.
        problem = get_problem("quad2d")
        real, patched = sv.solve_trust_region_step, []

        def onto_the_iterate(model, x, *args, **kwargs):
            step = real(model, x, *args, **kwargs)
            if patched:
                return step
            patched.append(x.copy())
            return replace(step, step=np.zeros_like(x), predicted_reduction=1.0)

        def f(y):
            if len(patched) == 1 and np.array_equal(y, patched[0]):
                patched.append(y)
                return problem.f(y) - 1.0
            return problem.f(y)

        monkeypatch.setattr(sv, "solve_trust_region_step", onto_the_iterate)
        config = SolverConfig(npoints=6, max_evals=60, seed=0)
        _, record = solve(f, problem.region, problem.x0, config)
        assert len(patched) == 2
        row, nxt = next((r, n) for r, n in zip(record.rows, record.rows[1:])
                        if r.rho is not None)
        assert row.rho == 1.0
        assert row.step_kind == ("unsuccessful" if row.fully_linear else "model-improving")
        assert nxt.f == row.f
        if row.fully_linear:
            assert nxt.delta == config.gamma_dec * row.delta


def solve_with_sets(monkeypatch, f, region, x0, config):
    """``solve`` plus the point set each row modelled, with its values of
    ``f``, indexed by row ``k``."""
    sets, fit = [], sv._least_change_fit

    def recorded(iset, model_kind, prior):
        model, system = fit(iset, model_kind, prior)
        if model is not None:
            sets.append(iset)
        return model, system

    monkeypatch.setattr(sv, "_least_change_fit", recorded)
    _, record = solve(f, region, x0, config)
    return record, sets


class TestKeptSet:
    def test_one_evaluation_per_row_until_a_second_cut(self):
        # At a level no trial swap can break, a set kept through its first
        # cut stays certified: the next step row spends only its trial.
        # Only sets sampled at delta <= 1 count: above it the trial can
        # leave B(x, min(radius, 1)).  A second cut resizes the set.
        # One run can reach radius_min before ten first cuts; the rows are
        # gathered over seeds 0, 1, ... until there are ten.  At this level
        # the seed alone does not move the run, so seed k > 0 also moves the
        # start by up to 0.1 in each coordinate (inside the unit ball).
        # An unsuccessful trial that lowered f (0 < rho < eta) is the lowest
        # point of the set: the next row moves onto it, and the set is
        # recentred there as after a successful step.  Those rows are
        # asserted apart.
        problem = get_problem("rosenbrock2d")
        kept = moved = 0
        for seed in range(10):
            config = SolverConfig(max_evals=500, seed=seed, poisedness=1e8)
            shift = 0.1 * np.random.default_rng(seed).uniform(-1.0, 1.0, 2)
            x0 = problem.x0 + (shift if seed else 0.0)
            f, points = recording(problem.f)
            with pytest.MonkeyPatch.context() as patch:
                record, sets = solve_with_sets(patch, f, problem.region, x0, config)
            for row, nxt in zip(record.rows, record.rows[1:]):
                if row.step_kind != "unsuccessful":
                    continue
                new = sets[nxt.k]
                assert nxt.delta == config.gamma_dec * row.delta
                if nxt.f < row.f:
                    trial = points[row.evals - 1]
                    assert 0.0 < row.rho < config.eta
                    np.testing.assert_array_equal(new.base, trial)
                    assert new.radius == _recentred_radius(new.points, trial, nxt.delta,
                                                           config.gamma_dec)
                    moved += 1
                    continue
                if sets[row.k].radius != row.delta:
                    assert new.radius == nxt.delta
                first_cut = sets[row.k].radius == row.delta <= 1.0
                if not row.fully_linear or not first_cut:
                    continue
                assert new.radius == row.delta == nxt.delta / config.gamma_dec
                if nxt.step_kind != "criticality":
                    kept += 1
                    assert nxt.fully_linear
                    assert nxt.evals - row.evals == 1
            if kept >= 10:
                break
        assert kept >= 10 and moved

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["box", "ball"]), n=st.integers(1, 3),
           log_scale=st.floats(-3.0, 3.0), gamma_dec=st.floats(0.1, 0.9),
           model=st.sampled_from(MODELS), seed=st.integers(0, 2**32 - 1))
    def test_certified_set_within_one_cut(self, kind, n, log_scale, gamma_dec, model, seed):
        region, centre, f, points = random_instance(kind, n, log_scale, seed)
        scale = 10.0 ** log_scale
        model_kind, lam = model
        config = SolverConfig(delta0=scale, delta_max=100.0 * scale, gamma_dec=gamma_dec,
                              delta_min=1e-8 * scale, max_evals=60, seed=0,
                              model_kind=model_kind, poisedness=lam)
        with pytest.MonkeyPatch.context() as monkeypatch:
            record, sets = solve_with_sets(monkeypatch, f, region, centre, config)
        for row in record.rows:
            iset = sets[row.k]
            assert gamma_dec * iset.radius <= row.delta <= iset.radius
            if row.fully_linear:
                assert not po._outside_ball(iset.points, iset.base, min(iset.radius, 1.0))
        assert all(region.is_member(y) for y in points)


class TestRegressionRows:
    def test_certified_on_the_basis_without_a_quadratic_system(self, monkeypatch):
        # A regression run checks and repairs its sets on their regression
        # basis: neither its rows nor its repairs assemble a quadratic system.
        checked, assembled = [], []
        for module in (sv, po):
            monkeypatch.setattr(module, "check_poisedness",
                                lambda system, *a, check=module.check_poisedness, **k:
                                checked.append(system) or check(system, *a, **k))
            monkeypatch.setattr(module, "assemble_system",
                                lambda *a, assemble=module.assemble_system, **k:
                                assembled.append(1) or assemble(*a, **k))
        _, _, _, record = run("quad2d", npoints=6, max_evals=200, seed=0,
                              model_kind="linear-regression")
        assert len(record.rows) > 10 and assembled == []
        assert checked and all(isinstance(s, RegressionBasis) for s in checked)


class TestKeptAfterSuccess:
    def test_one_evaluation_per_row_after_a_step_that_fits(self, monkeypatch):
        # After a successful step the set, recentred on the trial, keeps the
        # smallest radius r in [delta, delta / gamma_dec] that holds all its
        # points, or delta when there is none.  At a level no trial swap can
        # break, a set that fits stays certified: the next step row spends
        # only its trial.
        problem = get_problem("rosenbrock2d")
        f, points = recording(problem.f)
        config = SolverConfig(max_evals=500, seed=0, poisedness=1e8)
        record, sets = solve_with_sets(monkeypatch, f, problem.region, problem.x0, config)
        kept = widened = 0
        for row, nxt in zip(record.rows, record.rows[1:]):
            if row.step_kind != "successful":
                continue
            iset, trial, delta = sets[nxt.k], points[row.evals - 1], nxt.delta
            np.testing.assert_array_equal(iset.base, trial)
            reach = np.max(np.linalg.norm(iset.points - trial, axis=1))
            fits = delta < reach <= 1.0 and config.gamma_dec * reach <= delta
            assert iset.radius == (reach if fits else delta)
            if po._outside_ball(iset.points, trial, min(iset.radius, 1.0)):
                continue
            if nxt.step_kind != "criticality":
                kept += 1
                widened += iset.radius > delta
                assert nxt.fully_linear
                assert nxt.evals - row.evals == 1
        assert kept >= 10 and widened >= 5


def value_at_base(iset):
    """The value of ``iset`` at its base; None where the base is not one of
    its points."""
    at = (iset.points == iset.base).all(axis=1)
    return iset.values[at][0] if at.any() else None


class TestIterateIsLowest:
    def test_rows_start_from_the_lowest_point_of_their_set(self, rosenbrock_run,
                                                          quad_default_run):
        # f never rises.  Except right after a criticality row, whose next
        # row keeps its base, a row's iterate is the lowest point of its
        # set, or below every point where a repair swapped the iterate out.
        seen = Counter()
        for _, record, _, sets in (rosenbrock_run, quad_default_run):
            for prev, row in zip([None] + record.rows[:-1], record.rows):
                iset = sets[row.k]
                if prev is not None:
                    assert row.f <= prev.f
                if prev is not None and prev.step_kind == "criticality":
                    np.testing.assert_array_equal(iset.base, sets[prev.k].base)
                    seen["after criticality"] += 1
                elif value_at_base(iset) is None:
                    assert row.f < iset.values.min()
                else:
                    assert row.f == value_at_base(iset) == iset.values.min()
                    seen["lowest"] += 1
        assert seen["after criticality"] and seen["lowest"], dict(seen)

    def test_solve_returns_the_iterate(self):
        # The returned x is the base of the final set.  After a criticality
        # row it is that row's iterate; after any other row it is the
        # lowest point of the final set (below every point where a repair
        # swapped it out), also where that lies below the last row's f.
        # cossum2d ends at delta_min on a criticality row.
        seen = Counter()
        for name in ("quad2d", "rosenbrock2d", "cossum2d"):
            problem = get_problem(name)
            for budget in range(20, 80, 5):
                x, record = solve(problem.f, problem.region, problem.x0,
                                  SolverConfig(max_evals=budget, seed=0))
                final, last = record.final_set, record.rows[-1]
                np.testing.assert_array_equal(x, final.base)
                fx = problem.f(x)
                if last.step_kind == "criticality":
                    assert fx == last.f
                    seen["after criticality"] += 1
                    continue
                assert fx <= last.f
                if value_at_base(final) is None:
                    assert fx < final.values.min()
                else:
                    assert fx == value_at_base(final) == final.values.min()
                seen["moved after the last row"] += fx < last.f
        assert seen["after criticality"] and seen["moved after the last row"], dict(seen)

    def test_recentred_radius_takes_the_certificate_slack(self):
        # A move onto an axis point of a set sampled at r = delta reaches
        # 2 delta in exact arithmetic; here the reach rounds above it, and
        # the set still fits at r = delta / gamma_dec.
        x = np.array([0.2739233746429086, -0.4604265724722594])
        delta = 0.02597967433511593
        points = x + np.vstack([np.zeros(2), delta * np.eye(2), -delta * np.eye(2)])
        centre = points[1]
        assert np.max(np.linalg.norm(points - centre, axis=1)) > 2.0 * delta
        assert _recentred_radius(points, centre, delta, 0.5) == 2.0 * delta
        assert not po._outside_ball(points, centre, 2.0 * delta)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(1, 4), p=st.integers(2, 9), log_delta=st.floats(-6.0, 1.0),
           spread=st.floats(0.1, 5.0), gamma_dec=st.floats(0.05, 0.95),
           seed=st.integers(0, 2**32 - 1))
    def test_recentred_radius_within_one_cut(self, n, p, log_delta, spread, gamma_dec, seed):
        # r is delta, or the smallest radius within one cut of delta whose
        # certificate ball holds every point; gamma_dec * r <= delta exactly.
        rng = np.random.default_rng(seed)
        delta = 10.0 ** log_delta
        centre = rng.standard_normal(n)
        points = centre + spread * delta * rng.uniform(-1.0, 1.0, (p, n))
        r = _recentred_radius(points, centre, delta, gamma_dec)
        assert delta <= r and gamma_dec * r <= delta
        reach = np.max(np.linalg.norm(points - centre, axis=1))
        if r > delta:
            assert r <= reach and not po._outside_ball(points, centre, min(r, 1.0))
        elif delta < reach <= min(delta / gamma_dec, 1.0) and gamma_dec * reach <= delta:
            raise AssertionError(f"reach {reach} fits, but r = delta")


def least_change_by_dense_kkt(iset, prior):
    """min ||H - prior||_F subject to interpolation, over (c, g, H) with H
    symmetric, solved as one dense KKT system in the monomial basis."""
    d = iset.points - iset.base
    n = iset.dimension
    iu = np.triu_indices(n)
    off = iu[0] != iu[1]
    # Row t: c + g.d + sum_{i<=j} h_ij d_i d_j (halved on the diagonal).
    A = np.hstack([np.ones((len(d), 1)), d,
                   np.where(off, 1.0, 0.5) * d[:, iu[0]] * d[:, iu[1]]])
    # ||H||_F^2 counts each off-diagonal entry twice.
    D = np.diag(np.concatenate([np.zeros(n + 1), np.where(off, 2.0, 1.0)]))
    v0 = np.concatenate([np.zeros(n + 1), prior[iu]])
    K = np.block([[D, A.T], [A, np.zeros((len(d), len(d)))]])
    v = np.linalg.solve(K, np.concatenate([D @ v0, iset.values]))[:A.shape[1]]
    H = np.zeros((n, n))
    H[iu] = v[n + 1:]
    return v[0], v[1:n + 1], H + np.triu(H, 1).T


def random_mfn_set(rng, n, radius):
    p = 2 * n + 1
    base = rng.standard_normal(n)
    points = base + radius * rng.uniform(-1.0, 1.0, (p, n)) / np.sqrt(n)
    return InterpolationSet(base, radius, points, rng.standard_normal(p))


class TestLeastChange:
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("radius", [0.3, 2.0])
    def test_fit_is_the_least_change_interpolant(self, n, radius):
        # q_prev + MFN(f - q_prev) on the set's own system is the
        # interpolant nearest the prior in the Frobenius norm.
        rng = np.random.default_rng(10 * n)
        iset = random_mfn_set(rng, n, radius)
        B = rng.standard_normal((n, n))
        prior = B + B.T
        model, system = _least_change_fit(iset, "mfn-quadratic", prior)
        assert system.invertible
        c, g, H = least_change_by_dense_kkt(iset, prior)
        np.testing.assert_allclose(model.hessians()[0], H, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(model.grad(iset.base), g, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(model.value(iset.base), c, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(model.values(iset.points), iset.values,
                                   rtol=1e-9, atol=1e-9)
        # The fit with no prior is the MFN interpolant, nearest H = 0.
        plain, _ = _least_change_fit(iset, "mfn-quadratic", None)
        _, _, H0 = least_change_by_dense_kkt(iset, np.zeros((n, n)))
        np.testing.assert_allclose(plain.hessians()[0], H0, rtol=1e-8, atol=1e-8)

    def test_prior_above_the_cap_gives_the_mfn_fit(self):
        rng = np.random.default_rng(7)
        iset = random_mfn_set(rng, 3, 0.5)
        expected = fit_mfn_model(assemble_system(iset), iset.values)
        direction = np.diag([1.0, -0.5, 0.25])
        for scale, reset in ((1.01 * _PRIOR_HESS_CAP, True), (0.99 * _PRIOR_HESS_CAP, False)):
            model, _ = _least_change_fit(iset, "mfn-quadratic", scale * direction)
            same = all(np.array_equal(a, b) for a, b in
                       zip((model.c, model.g, model.U, model.w),
                           (expected.c, expected.g, expected.U, expected.w)))
            assert same == reset

    def test_regression_run_ignores_the_prior(self, monkeypatch):
        # A regression run is affine: its rows and evaluations are those of
        # a run whose every fit drops the prior.
        problem = get_problem("quad2d")
        config = SolverConfig(npoints=6, max_evals=120, seed=3, poisedness=2.0,
                              model_kind="linear-regression")
        runs, fit = [], sv._least_change_fit
        for drop in (False, True):
            if drop:
                monkeypatch.setattr(sv, "_least_change_fit",
                                    lambda iset, kind, prior: fit(iset, kind, None))
            f, points = recording(problem.f)
            _, record = solve(f, problem.region, problem.x0, config)
            runs.append((record.csv_text(), np.array(points)))
        assert runs[0][0] == runs[1][0] and len(runs[0][0].splitlines()) > 10
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    def test_models_keep_the_prior_curvature(self, monkeypatch):
        # On a quadratic every MFN fit after the first starts from the
        # Hessian of the last model, and the final model is the fit of the
        # final set under the run's last prior.  A degenerate fit (None)
        # changes no prior.  Here the successes of uncertified models at
        # delta = 1 gather the set within 0.013 of x, three points within
        # 2e-4, while its radius stays 1, so its system is singular.  That
        # set is rebuilt at its radius and the rebuilt set's fit takes the
        # same prior: the prior is carried only across this repair.
        problem = get_problem("quad2d")
        fits = []
        fit = sv._least_change_fit

        def recorded(iset, kind, prior):
            model, system = fit(iset, kind, prior)
            fits.append((iset, prior, model))
            return model, system

        monkeypatch.setattr(sv, "_least_change_fit", recorded)
        _, record = solve(problem.f, problem.region, problem.x0,
                          SolverConfig(max_evals=40, seed=0))
        assert fits[0][1] is None
        last, degenerate = None, 0
        for i, (iset, prior, model) in enumerate(fits):
            if i:
                np.testing.assert_array_equal(prior, last)
            if model is not None:
                last = model.hessians()[0]
                continue
            degenerate += 1
            reach = np.linalg.norm(iset.points - iset.base, axis=1)
            assert iset.radius == 1.0 and reach.max() < 0.013
            rebuilt, rebuilt_prior, rebuilt_model = fits[i + 1]
            assert rebuilt_prior is prior and rebuilt_model is not None
            assert rebuilt.radius == iset.radius
            np.testing.assert_array_equal(rebuilt.base, iset.base)
            assert not np.array_equal(rebuilt.points, iset.points)
        assert degenerate == 1
        assert record.final_model is fits[-1][2]
        np.testing.assert_allclose(record.final_model.values(record.final_set.points),
                                   record.final_values, rtol=1e-10, atol=1e-12)


class TestEvaluationCount:
    def test_record_counts_every_call(self):
        problem = get_problem("quad2d")
        f, points = recording(problem.f)
        # quad2d ends at radius_min after 27 evaluations; 25 bind, and the
        # last row's count is below the calls made.
        _, record = solve(f, problem.region, problem.x0, SolverConfig(max_evals=25, seed=0))
        assert record.status == "budget"
        assert len(points) == 25 and record.evals == 25
        assert record.rows[-1].evals < record.evals

    def test_failed_run_counts_its_calls(self):
        problem = get_problem("quad2d")
        with pytest.raises(SolverError) as info:
            solve(failing_at(problem.f, 9, "nan"), problem.region, problem.x0,
                  SolverConfig(max_evals=40, seed=0))
        assert info.value.record.evals == 9


def test_solver_path_does_not_import_accuracy():
    # The accuracy constants are validation code: importing the package and
    # its solver must leave them unloaded.
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", "import sys, convexdfo, convexdfo.solver; "
                               "print('convexdfo.accuracy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
