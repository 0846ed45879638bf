import dataclasses
import json

import numpy as np
import pytest

from convexdfo import geometry, problems, serialize
from convexdfo.cli import main
from convexdfo.linear_models import InterpolationSet, LinearModel
from convexdfo.problems import get_problem, problem_names, true_criticality
from convexdfo.quadratic_models import QuadraticModel

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
        A = rng.standard_normal((2, 2))
        quad = QuadraticModel(1.5, rng.standard_normal(2), A + A.T, np.zeros(2))
        serialize.save_model(quad, tmp_path / "q.json")
        loaded = serialize.load_model(tmp_path / "q.json")
        assert isinstance(loaded, QuadraticModel)
        np.testing.assert_allclose(loaded.H, quad.H)

        lin = LinearModel(0.5, np.array([1.0, 2.0]), np.zeros(2))
        serialize.save_model(lin, tmp_path / "l.json")
        loaded_lin = serialize.load_model(tmp_path / "l.json")
        assert isinstance(loaded_lin, LinearModel)
        assert json.loads((tmp_path / "l.json").read_text())["H"] is None


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
        assert isinstance(model, QuadraticModel)

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

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "problem = quad2d\nmodel_kind = mfn-quadratic\n"
            "npoints = 6\nmax_evals = 80\nseed = 4\n# comment line\n"
        )
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        code = main([
            "solve", "--config", str(cfg), "--max-evals", "0", "--out", str(tmp_path),
        ])
        assert code == 2  # flag overrides file and fails validation

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

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = quad2d\nwarp_speed = 9\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "warp_speed" in capsys.readouterr().err


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


class TestCliBench:
    def test_bench_writes_report(self, tmp_path, capsys):
        code = main([
            "bench", "--problems", "quad2d,affine2d", "--models", "mfn",
            "--seeds", "0", "--max-evals", "120", "--points", "6",
            "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
        assert lines[0] == "problem,model_kind,seed,status,evals,final_f,final_pi_f"
        assert len(lines) == 3

    def test_bench_deterministic_csv(self, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            main([
                "bench", "--problems", "quad2d", "--models", "mfn", "--seeds", "0",
                "--max-evals", "100", "--points", "6", "--out", str(tmp_path / sub),
            ])
        assert (tmp_path / "a" / "bench.csv").read_bytes() == \
               (tmp_path / "b" / "bench.csv").read_bytes()

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONVEXDFO_OUT_DIR", str(tmp_path / "envout"))
        code = main([
            "solve", "--problem", "affine2d", "--model", "mfn", "--points", "6",
            "--max-evals", "60", "--seed", "0",
        ])
        assert code == 0
        assert (tmp_path / "envout" / "runrecord.csv").exists()
