import numpy as np
import pytest

from convexdfo import geometry as geo
from convexdfo.problems import get_problem, true_criticality
from convexdfo.solver import IterationRow, RunRecord, SolverConfig, SolverError, solve


def run(problem_name, **config_kwargs):
    problem = get_problem(problem_name)
    config = SolverConfig(**config_kwargs)
    x, record = solve(problem.f, problem.region, problem.x0, config)
    return problem, config, x, record


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
    ])
    def test_bad_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            SolverConfig(**bad).validate()

    def test_npoints_resolution(self):
        assert SolverConfig().resolve_npoints(2) == 5
        assert SolverConfig(npoints=6).resolve_npoints(2) == 6
        with pytest.raises(ValueError):
            SolverConfig(npoints=3).resolve_npoints(2)
        with pytest.raises(ValueError):
            SolverConfig(npoints=7).resolve_npoints(2)


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


@pytest.fixture(scope="module")
def quad_run():
    return run("quad2d", npoints=6, max_evals=400, seed=2)


class TestRunDiscipline:

    def test_iterates_feasible_and_monotone(self, quad_run):
        problem, _, x, record = quad_run
        fs = [row.f for row in record.rows]
        assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))
        assert geo.contains(problem.region, x, 1e-9)

    def test_radius_update_discipline(self, quad_run):
        _, config, _, record = quad_run
        rows = record.rows
        for row, nxt in zip(rows, rows[1:]):
            delta, after = row.delta, nxt.delta
            if row.step_kind == "successful":
                assert after == min(config.gamma_inc * delta, config.delta_max)
            elif row.step_kind == "unsuccessful":
                assert after == config.gamma_dec * delta
            elif row.step_kind == "model-improving":
                assert after == delta
            else:  # criticality
                expected = config.gamma_dec * delta if row.fully_linear else delta
                assert after == expected

    def test_criticality_rows_respect_guard(self, quad_run):
        _, config, _, record = quad_run
        for row in record.rows:
            if row.step_kind == "criticality":
                assert row.pi_m < config.eps_criticality

    def test_rho_presence_by_step_kind(self, quad_run):
        _, _, _, record = quad_run
        for row in record.rows:
            if row.step_kind in ("successful", "unsuccessful", "model-improving"):
                assert row.rho is not None
            else:
                assert row.rho is None

    def test_successful_rows_decrease_f(self, quad_run):
        _, config, _, record = quad_run
        rows = record.rows
        for row, nxt in zip(rows, rows[1:]):
            if row.step_kind == "successful":
                assert nxt.f < row.f
                assert row.rho >= config.eta

    def test_evals_nondecreasing_within_budget(self, quad_run):
        _, config, _, record = quad_run
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
        if budget < 5:  # the first set (5 points, one cached) is never complete
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
        # The set and values are still the last pair evaluated in full.
        if record.final_set is None:
            assert record.final_values is None
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

    def test_determinism_same_seed(self):
        _, _, x1, rec1 = run("quad2d", npoints=6, max_evals=150, seed=11)
        _, _, x2, rec2 = run("quad2d", npoints=6, max_evals=150, seed=11)
        np.testing.assert_array_equal(x1, x2)
        assert rec1.csv_text() == rec2.csv_text()
