import dataclasses
import json

import numpy as np
import pytest

from convexdfo import geometry, poisedness, problems, serialize
from convexdfo.cli import main
from convexdfo.linear_models import InterpolationSet
from convexdfo.problems import get_problem, problem_names, true_criticality
from convexdfo.quadratic_models import Quadratics, assemble_system, fit_mfn_model
from convexdfo.solver import SolverConfig, solve

from test_solver import failing_at


class TestSerialize:
    def test_set_round_trip(self, tmp_path, rng):
        iset = InterpolationSet(
            rng.standard_normal(3), 0.7, rng.standard_normal((6, 3)),
            rng.standard_normal(6),
        )
        path = tmp_path / "set.json"
        serialize.save_set(iset, path)
        loaded = serialize.load_set(path)
        np.testing.assert_array_equal(loaded.points, iset.points)
        np.testing.assert_array_equal(loaded.values, iset.values)
        assert loaded.radius == iset.radius

    def test_set_without_values(self, tmp_path):
        iset = InterpolationSet(np.zeros(2), 1.0, np.eye(2))
        serialize.save_set(iset, tmp_path / "s.json")
        assert serialize.load_set(tmp_path / "s.json").values is None

    def test_model_round_trip(self, tmp_path, rng):
        # A fitted MFN model (Hessian factor Z / scale), a dense Hessian
        # factored by from_hessian and an affine model come back with the
        # same values and gradients at 20 points.  Writing H out dense and
        # factoring it again rounds at most 1e-12 (about 5,000 ulps) of the
        # magnitude |c| + ||g|| ||d|| + h ||d||^2, or ||g|| + h ||d|| for
        # gradients, with h = ||H||_2 + sum_j |w_j| ||u_j||^2 bounding both
        # factors' products.
        n = 3
        system = assemble_system(InterpolationSet(np.zeros(n), 0.5,
                                                  0.5 * rng.standard_normal((7, n))))
        A = rng.standard_normal((n, n))
        models = {
            "mfn": fit_mfn_model(system, rng.standard_normal(7)),
            "dense": Quadratics.from_hessian(rng.standard_normal(n), 1.5,
                                             rng.standard_normal(n), A + A.T),
            "affine": Quadratics.from_hessian(rng.standard_normal(n), 0.5,
                                              rng.standard_normal(n)),
        }
        ys = rng.uniform(-1.0, 1.0, (20, n))
        for name, model in models.items():
            path = tmp_path / f"{name}.json"
            serialize.save_model(model, path)
            assert (json.loads(path.read_text())["H"] is None) == (name == "affine")
            loaded = serialize.load_model(path)
            assert (loaded.U is None) == (name == "affine")
            d = np.linalg.norm(ys - model.base, axis=1)
            h = model.hess_norms()[0]
            if model.U is not None:
                h += np.abs(model.w[0]) @ np.sum(model.U**2, axis=1)
            gnorm = np.linalg.norm(model.g[0])
            value_scale = abs(model.c[0]) + gnorm * d + h * d**2
            grad_scale = gnorm + h * d
            assert np.all(np.abs(loaded.values(ys) - model.values(ys)) <= 1e-12 * value_scale)
            grad_err = np.linalg.norm(loaded.grads(ys) - model.grads(ys), axis=1)
            assert np.all(grad_err <= 1e-12 * grad_scale)


class TestProblemRegistry:
    def test_names_stable(self):
        assert problem_names() == sorted(problem_names())
        assert {"quad2d", "affine2d", "rosenbrock2d", "cossum2d"} <= set(problem_names())

    def test_unknown_name_lists_registry(self):
        with pytest.raises(KeyError, match="quad2d"):
            get_problem("nope")

    def test_gradients_match_finite_differences(self):
        h = 1e-6
        for name in problem_names():
            problem = get_problem(name)
            x = problem.x0
            fd = np.array([
                (problem.f(x + h * e) - problem.f(x - h * e)) / (2 * h)
                for e in np.eye(problem.dimension)
            ])
            np.testing.assert_allclose(problem.grad(x), fd, atol=1e-5)

    def test_lipschitz_constants_cover_sampled_hessians(self, rng):
        # max |f''| along random directions stays below the declared constant
        for name in ("quad2d", "quad3d", "cossum2d", "cossum3d"):
            problem = get_problem(name)
            L = problem.lipschitz_grad
            h = 1e-4
            for _ in range(50):
                x = problem.x0 + rng.uniform(-0.3, 0.3, problem.dimension)
                u = rng.standard_normal(problem.dimension)
                u /= np.linalg.norm(u)
                second = (problem.f(x + h * u) - 2 * problem.f(x) + problem.f(x - h * u)) / h**2
                assert abs(second) <= L + 1e-3

    def test_region_override(self):
        problem = get_problem("quad2d", "ball(2)^2")
        assert problem.region.radius == 2.0
        with pytest.raises(ValueError):
            get_problem("quad2d", "box(0,1)^3")

    def test_true_criticality_zero_at_solution(self):
        problem = get_problem("affine2d")
        assert true_criticality(problem, problem.xstar) <= 1e-12


class TestCliSolve:
    def test_smoke_and_artifacts(self, tmp_path, capsys):
        code = main([
            "solve", "--problem", "quad2d", "--region", "box(-1,1)^2",
            "--model", "mfn", "--points", "6", "--max-evals", "120",
            "--seed", "0", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "problem=quad2d" in out
        csv = (tmp_path / "runrecord.csv").read_text()
        assert csv.splitlines()[0] == "k,f,delta,pi_m,rho,step_kind,evals,fully_linear"
        loaded = serialize.load_set(tmp_path / "final_set.json")
        assert loaded.npoints == 6
        model = serialize.load_model(tmp_path / "final_model.json")
        assert isinstance(model, Quadratics) and model.U is not None

    @pytest.mark.parametrize("model", ["mfn", "linreg"])
    def test_final_model_is_the_solvers(self, tmp_path, capsys, model):
        # final_model.json is the solver's final model: it fits final_set's
        # values, and its H is the one the least-change fit produced.
        # 25 evaluations bind for both model kinds: quad2d spends them all.
        main(["solve", "--problem", "quad2d", "--model", model, "--max-evals", "25",
              "--seed", "0", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert "status=budget " in out and "evals=25 " in out
        iset = serialize.load_set(tmp_path / "final_set.json")
        data = json.loads((tmp_path / "final_model.json").read_text())
        saved = serialize.model_from_dict(data)
        problem = get_problem("quad2d")
        kind = {"mfn": "mfn-quadratic", "linreg": "linear-regression"}[model]
        _, record = solve(problem.f, problem.region, problem.x0,
                          SolverConfig(model_kind=kind, max_evals=25, seed=0))
        assert record.status == "budget"
        if model == "mfn":
            np.testing.assert_allclose(saved.values(iset.points), iset.values,
                                       rtol=1e-9, atol=1e-12)
            assert data["H"] == record.final_model.hessians()[0].tolist()
        else:
            assert data["H"] is None
        assert data["g"] == record.final_model.g[0].tolist()

    def test_unknown_problem_exits_2_naming_registry(self, tmp_path, capsys):
        code = main(["solve", "--problem", "zzz", "--out", str(tmp_path)])
        assert code == 2
        assert "registry" in capsys.readouterr().err

    def test_bad_region_exits_2(self, tmp_path, capsys):
        code = main([
            "solve", "--problem", "quad2d", "--region", "frustum(2)",
            "--out", str(tmp_path),
        ])
        assert code == 2

    def test_seed_determinism_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            main([
                "solve", "--problem", "quad2d", "--model", "mfn", "--points", "6",
                "--max-evals", "150", "--seed", "9", "--out", str(tmp_path / sub),
            ])
        assert (tmp_path / "a" / "runrecord.csv").read_bytes() == \
               (tmp_path / "b" / "runrecord.csv").read_bytes()
        assert (tmp_path / "a" / "final_set.json").read_bytes() == \
               (tmp_path / "b" / "final_set.json").read_bytes()

    @pytest.mark.parametrize("extra, flags, code, says", [
        # The flag's max_evals fails validation.
        ("", ["--max-evals", "0"], 2, "max_evals must be positive"),
        ("", ["--problem", "rosenbrock2d"], 0, "problem=rosenbrock2d"),
        # The file's region does not fit quad2d; the flag's does.
        ("region = box(-1,1)^3\n", ["--region", "box(-1,1)^2"], 0, "problem=quad2d"),
    ], ids=["max_evals", "problem", "region"])
    def test_config_file_with_flag_override(self, extra, flags, code, says, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "problem = quad2d\nmodel_kind = mfn-quadratic\n"
            "npoints = 6\nmax_evals = 80\nseed = 4\n# comment line\n" + extra
        )
        code_file = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert code_file == (2 if extra else 0)
        capsys.readouterr()
        assert main(["solve", "--config", str(cfg), *flags, "--out", str(tmp_path)]) == code
        assert says in capsys.readouterr()[0 if code == 0 else 1]

    def test_projection_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(geometry, "DYKSTRA_MAX_SWEEPS", 1)
        code = main([
            "solve", "--problem", "quad2d", "--region",
            "intersect(halfspace(normal=[1,0], offset=0.9), halfspace(normal=[0,1], offset=0.5))",
            "--max-evals", "60", "--out", str(tmp_path),
        ])
        assert code == 3
        assert "solver failure" in capsys.readouterr().err
        assert (tmp_path / "runrecord.csv").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "raise"])
    def test_bad_objective_value_exits_3(self, bad, tmp_path, monkeypatch, capsys):
        problem = get_problem("quad2d")
        f = failing_at(problem.f, 5, bad)
        monkeypatch.setitem(problems.REGISTRY, "quad2d", dataclasses.replace(problem, f=f))
        code = main(["solve", "--problem", "quad2d", "--max-evals", "60",
                     "--out", str(tmp_path)])
        assert code == 3
        assert "solver failure" in capsys.readouterr().err
        assert (tmp_path / "runrecord.csv").exists()

    def test_points_out_of_range_exits_2(self, tmp_path, capsys):
        # quad2d has n = 2, so p must lie in [4, 6].
        code = main(["solve", "--problem", "quad2d", "--points", "100",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "npoints=100" in err

    def test_negative_delta_min_exits_2(self, tmp_path, capsys):
        code = main(["solve", "--problem", "quad2d", "--delta-min", "-1",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "delta_min" in err
        assert not (tmp_path / "runrecord.csv").exists()

    def test_infinite_radii_exit_2(self, tmp_path, capsys):
        # Infinite radii satisfy every range check, but a run with them
        # idles; they are one error line.
        code = main(["solve", "--problem", "quad2d", "--delta0", "inf", "--delta-max", "inf",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]
        assert not (tmp_path / "runrecord.csv").exists()

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONVEXDFO_OUT_DIR", str(tmp_path / "envout"))
        code = main([
            "solve", "--problem", "affine2d", "--model", "mfn", "--points", "6",
            "--max-evals", "60", "--seed", "0",
        ])
        assert code == 0
        assert (tmp_path / "envout" / "runrecord.csv").exists()

    def test_regression_level_below_sqrt_points_runs(self, tmp_path, capsys):
        # A regression run repairs on its own basis, so a level of 2 below
        # sqrt(6) is valid.
        code = main(["solve", "--problem", "quad2d", "--model", "linreg", "--points", "6",
                     "--lambda", "2", "--max-evals", "30", "--out", str(tmp_path)])
        assert code == 0
        assert "model=linear-regression" in capsys.readouterr().out

    @pytest.mark.parametrize("line, name", [
        ("warp_speed = 9", "warp_speed"),
        ("max_evals = 1e3", "max_evals"),
        ("seed = 1.5", "seed"),
        ("npoints = 6.0", "npoints"),
        ("eta = abc", "eta"),
        ("seed = -1", "seed"),
        ("region = 5", "region"),
    ], ids=["unknown-key", "float-max-evals", "float-seed", "float-npoints", "text-eta",
            "negative-seed", "number-region"])
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, line, name):
        # An unknown key, or a value of the wrong type or sign, is one error line.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"problem = quad2d\n{line}\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and name in err[0]


class TestCliPoisedness:
    @pytest.fixture
    def cluster_file(self, tmp_path, rng):
        pts = 0.01 * rng.standard_normal((6, 2)) + 0.5
        path = tmp_path / "cluster.json"
        serialize.save_set(InterpolationSet([0.5, 0.5], 1.0, pts), path)
        return path

    def test_check_fails_on_cluster(self, cluster_file, capsys):
        code = main([
            "poisedness", "check", "--set", str(cluster_file),
            "--region", "box(0,2)^2", "--lambda", "10",
        ])
        assert code == 1
        assert "witness" in capsys.readouterr().out

    def test_improve_then_check_passes(self, cluster_file, tmp_path, capsys):
        improved = tmp_path / "improved.json"
        code = main([
            "poisedness", "improve", "--set", str(cluster_file),
            "--region", "box(0,2)^2", "--lambda", "10", "--out", str(improved),
        ])
        assert code == 0
        assert "swaps=" in capsys.readouterr().out
        code = main([
            "poisedness", "check", "--set", str(improved),
            "--region", "box(0,2)^2", "--lambda", "10", "--seed", "5",
        ])
        assert code == 0

    def test_io_error_exits_2(self, tmp_path):
        code = main([
            "poisedness", "check", "--set", str(tmp_path / "missing.json"),
            "--region", "box(0,2)^2", "--lambda", "10",
        ])
        assert code == 2

    def test_singular_geometry_exits_2(self, tmp_path, capsys):
        # Points outside the ball force a rebuild, whose repair swap leaves a
        # singular system on this thin box: the region is too thin.
        x = np.array([5e-4, 5e-4])
        far = x + 2.0 * np.array([[1, 0], [0, 1], [-1, 0], [0, -1], [0.5, 0]])
        path = tmp_path / "far.json"
        serialize.save_set(InterpolationSet(x, 1.0, far), path)
        code = main([
            "poisedness", "improve", "--set", str(path),
            "--region", "box(lower=[0,0], upper=[1,0.001])", "--lambda", "10",
            "--seed", "1", "--out", str(tmp_path / "out.json"),
        ])
        assert code == 2
        assert "too thin" in capsys.readouterr().err

    @pytest.mark.parametrize("points, region, says", [
        (0.1 * np.arange(6.0).reshape(3, 2), "box(0,2)^2", "point count"),
        (poisedness.structured_initial_points(np.full(3, 0.5), 0.3, 7), "box(0,2)^2",
         "dimension"),
    ], ids=["points", "dimension"])
    def test_check_on_a_set_that_does_not_fit_exits_2(self, points, region, says, tmp_path,
                                                       capsys):
        # Too few points for the quadratic system, or a set in R^3 checked
        # against a planar region: one line on stderr, no traceback.
        path = tmp_path / "set.json"
        serialize.save_set(InterpolationSet(points[0], 1.0, points), path)
        code = main(["poisedness", "check", "--set", str(path), "--region", region,
                     "--lambda", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot check set:") and says in err
        assert len(err.strip().splitlines()) == 1

    def test_improve_requires_out(self, cluster_file):
        assert main([
            "poisedness", "improve", "--set", str(cluster_file),
            "--region", "box(0,2)^2", "--lambda", "10",
        ]) == 2


class TestCliBounds:
    def test_quadratic_clean_report(self, tmp_path):
        code = main([
            "bounds", "--problem", "quad2d", "--sets", "2", "--samples", "200",
            "--seed", "0", "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "bounds_report.csv").read_text().strip().splitlines()
        assert lines[0].startswith("set_index,model_kind,problem")
        assert len(lines) == 1 + 2 * 2
        assert all(line.endswith("false") for line in lines[1:])

    def test_affine_zero_ratios(self, tmp_path):
        code = main([
            "bounds", "--problem", "affine2d", "--sets", "2", "--samples", "200",
            "--seed", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        for line in (tmp_path / "bounds_report.csv").read_text().strip().splitlines()[1:]:
            fields = line.split(",")
            assert float(fields[9]) == 0.0 and float(fields[10]) == 0.0

    def test_negative_control_flags(self, tmp_path):
        code = main([
            "bounds", "--problem", "quad2d", "--sets", "2", "--samples", "300",
            "--cluster-radius", "0.01", "--l-scale", "0.5",
            "--seed", "0", "--out", str(tmp_path),
        ])
        assert code == 1
        report = (tmp_path / "bounds_report.csv").read_text()
        assert ",true" in report

    def test_missing_lipschitz_rejected(self, tmp_path):
        assert main([
            "bounds", "--problem", "rosenbrock2d", "--out", str(tmp_path),
        ]) == 2
