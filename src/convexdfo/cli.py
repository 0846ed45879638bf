"""Command-line harness: solve runs, poisedness tools, accuracy-bound reports.

Subcommands
-----------
solve       run the trust-region solver on a registry problem and write
            runrecord.csv, final_model.json, final_set.json
poisedness  check or improve a point-set file against a poisedness level
bounds      sample observed-vs-guaranteed accuracy ratios over randomly
            generated poised sets and write a CSV report

Exit codes: 0 success/certified, 1 check failed or violations found,
2 configuration or I/O error, 3 solver hard failure.

All randomness flows from ``--seed``; identical configurations produce
byte-identical CSV outputs.  ``CONVEXDFO_OUT_DIR`` sets the default output
directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import poisedness, serialize
from .accuracy import fully_linear_report, mfn_accuracy_constants, regression_accuracy_constants
from .geometry import ProjectionError, parse_region
from .linear_models import InterpolationSet, build_design_matrix, fit_regression_model
from .problems import get_problem, problem_names
from .quadratic_models import SingularGeometryError, assemble_system, fit_mfn_model
from .sampling import sample_feasible_in_ball
from .solver import MODEL_KINDS, SolverConfig, SolverError, solve

__all__ = ["main"]

_MODEL_ALIASES = {"linreg": "linear-regression", "mfn": "mfn-quadratic"}


class CliError(Exception):
    """Configuration problem; maps to exit code 2."""


def _out_dir(args):
    out = args.out or os.environ.get("CONVEXDFO_OUT_DIR", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _read_config_file(path):
    """Flat key=value configuration with typed values; '#' starts a comment."""
    options = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{line_no}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        options[key.replace("-", "_")] = _parse_scalar(value)
    return options


def _parse_scalar(text):
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _solver_config(args):
    options = {}
    if getattr(args, "config", None):
        options.update(_read_config_file(args.config))
    direct = {
        "delta0": args.delta0,
        "delta_max": args.delta_max,
        "eta": args.eta,
        "poisedness": args.poisedness,
        "npoints": args.points,
        "max_evals": args.max_evals,
        "delta_min": args.delta_min,
        "seed": args.seed,
        "model_kind": args.model,
        "problem": args.problem,
        "region": args.region,
    }
    options.update({k: v for k, v in direct.items() if v is not None})
    if "model_kind" in options:
        options["model_kind"] = _MODEL_ALIASES.get(options["model_kind"], options["model_kind"])
    unknown = set(options) - set(SolverConfig.__dataclass_fields__) - {"problem", "region"}
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(sorted(unknown))}")
    problem_name, region_spec = options.pop("problem", None), options.pop("region", None)
    return SolverConfig(**options), problem_name, region_spec


def _checked(config, problem):
    """``config`` once it is valid for ``problem``; a bad value is a CliError."""
    try:
        config.validate()
        config.resolve_npoints(problem.dimension)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return config


def _load_problem(problem_name, region_spec):
    if not problem_name:
        raise CliError("no problem given (use --problem or a config file)")
    if region_spec is not None and not isinstance(region_spec, str):
        raise CliError(f"bad region spec: {region_spec!r}")
    try:
        return get_problem(problem_name, region_spec)
    except KeyError as exc:
        raise CliError(exc.args[0]) from exc
    except ValueError as exc:
        raise CliError(f"bad region spec: {exc}") from exc


def cmd_solve(args):
    config, problem_name, region_spec = _solver_config(args)
    problem = _load_problem(problem_name, region_spec)
    config = _checked(config, problem)
    out = _out_dir(args)
    try:
        x_final, record = solve(problem.f, problem.region, problem.x0, config)
    except SolverError as exc:
        exc.record.to_csv(out / "runrecord.csv")
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    record.to_csv(out / "runrecord.csv")

    if record.final_set is not None:
        serialize.save_set(record.final_set, out / "final_set.json")
    if record.final_model is not None:
        serialize.save_model(record.final_model, out / "final_model.json")

    print(
        f"solve problem={problem.name} model={config.model_kind} status={record.status} "
        f"iterations={len(record.rows)} evals={record.evals} "
        f"f={float(problem.f(x_final))!r} out={out}"
    )
    return 0


def cmd_poisedness(args):
    try:
        iset = serialize.load_set(args.set)
    except (OSError, KeyError, ValueError) as exc:
        print(f"cannot load set file {args.set}: {exc}", file=sys.stderr)
        return 2
    try:
        region = parse_region(args.region)
    except ValueError as exc:
        print(f"bad region spec: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    lam = args.lam

    if args.action == "check":
        try:
            system = assemble_system(iset, require_invertible=False)
            cert = poisedness.check_poisedness(system, region, lam, rng=rng)
        except ValueError as exc:  # a set that does not fit the region or its size
            print(f"cannot check set: {exc}", file=sys.stderr)
            return 2
        witness = None if cert.witness_point is None else np.round(cert.witness_point, 12).tolist()
        print(
            f"poisedness check lambda={lam} lambda_observed={cert.lambda_observed!r} "
            f"verified={cert.verified} witness_index={cert.witness_index} witness={witness}"
        )
        if not cert.verified:
            print(f"reason: {cert.reason}")
        return 0 if cert.verified else 1

    # improve
    if not args.out_file:
        print("poisedness improve needs --out FILE", file=sys.stderr)
        return 2
    try:
        improved, cert, swaps = poisedness.improve_to_poised(
            iset, region, iset.base, iset.radius, iset.npoints, lam, rng=rng
        )
    except (poisedness.PoisednessImprovementError, poisedness.ThinRegionError,
            ProjectionError, SingularGeometryError, ValueError) as exc:
        print(f"improvement failed: {exc}", file=sys.stderr)
        return 2
    serialize.save_set(improved, args.out_file)
    for i, swap in enumerate(swaps):
        print(
            f"swap {i}: index={swap.index} |l_t|={swap.lagrange_value!r} "
            f"log|det| {swap.det_before.logabs!r} -> {swap.det_after.logabs!r}"
        )
    print(
        f"poisedness improve lambda={lam} swaps={len(swaps)} "
        f"lambda_observed={cert.lambda_observed!r} verified={cert.verified} out={args.out_file}"
    )
    return 0 if cert.verified else 1


BOUNDS_COLUMNS = (
    "set_index,model_kind,problem,n,p,lambda,beta,kappa_ef,kappa_eg,"
    "max_ratio_f,max_ratio_g,violated"
)


def cmd_bounds(args):
    problem = _load_problem(args.problem, args.region)
    if problem.lipschitz_grad is None:
        raise CliError(f"problem {problem.name} has no known gradient Lipschitz constant")
    lipschitz = problem.lipschitz_grad * args.l_scale
    rng = np.random.default_rng(args.seed)
    region = problem.region
    n = problem.dimension
    lam = args.lam
    out = _out_dir(args)

    lines = [BOUNDS_COLUMNS]
    any_violated = False
    for index in range(args.sets):
        x = sample_feasible_in_ball(rng, region, problem.x0, args.spread, 1)[0]
        delta = args.delta
        if args.cluster_radius is None:
            p = int(rng.integers(n + 2, (n + 1) * (n + 2) // 2 + 1))
            iset, cert, _ = poisedness.improve_to_poised(
                None, region, x, delta, p, lam, rng=rng
            )
            system = assemble_system(iset)
            basis = build_design_matrix(iset)
            beta = 1.0
            # The certified quadratic level also bounds the regression
            # polynomials, with a sqrt(p) factor.
            lam_by_kind = {"mfn-quadratic": lam, "linear-regression": np.sqrt(p) * lam}
        else:
            # Clustered geometry: certified at whatever levels it exhibits,
            # measured separately for the two polynomial families.
            p = n + 2
            iset, system = _clustered_set(region, x, delta, p, args.cluster_radius, rng)
            basis = build_design_matrix(iset)
            beta = iset.displacement_bound
            cert_mfn = poisedness.check_poisedness(
                system, region, 1.0 + 1e-9, rng=rng, early_exit=False
            )
            cert_reg = poisedness.check_poisedness(
                basis, region, 1.0 + 1e-9, rng=rng, early_exit=False
            )
            lam_by_kind = {
                "mfn-quadratic": max(cert_mfn.lambda_observed, 1.0),
                "linear-regression": max(cert_reg.lambda_observed, 1.0),
            }
        values = np.array([problem.f(y) for y in iset.points])

        for kind in ("linear-regression", "mfn-quadratic"):
            lam_used = lam_by_kind[kind]
            if kind == "linear-regression":
                model = fit_regression_model(basis, values)
                constants = regression_accuracy_constants
            else:
                model = fit_mfn_model(system, values)
                constants = mfn_accuracy_constants
            report = fully_linear_report(
                model, problem.f, problem.grad, region, iset.base, iset.radius,
                *constants(iset.npoints, lam_used, lipschitz, beta),
                n_samples=args.samples, rng=rng,
            )
            any_violated |= report.violated
            lines.append(
                f"{index},{kind},{problem.name},{n},{iset.npoints},{lam_used!r},{beta!r},"
                f"{report.kappa_ef!r},{report.kappa_eg!r},"
                f"{report.max_ratio_f!r},{report.max_ratio_g!r},"
                f"{'true' if report.violated else 'false'}"
            )

    report_path = out / "bounds_report.csv"
    report_path.write_text("\n".join(lines) + "\n")
    print(
        f"bounds problem={problem.name} sets={args.sets} l_scale={args.l_scale} "
        f"violations={'yes' if any_violated else 'no'} out={report_path}"
    )
    return 1 if any_violated else 0


def _clustered_set(region, x, delta, p, cluster_radius, rng):
    """A feasible, internally well-poised cluster at the given radius fraction."""
    r = min(delta, 1.0) * cluster_radius
    for _ in range(50):
        pts = poisedness.structured_initial_points(x, r, p)
        pts = pts + 0.02 * r * rng.standard_normal(pts.shape)
        iset = InterpolationSet(x, delta, pts)
        if not iset.feasible(region):
            continue
        system = assemble_system(iset, require_invertible=False)
        if system.invertible:
            return iset, system
    raise CliError("could not place a feasible cluster; widen the region or move x")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="convexdfo",
        description="Convex-constrained derivative-free trust-region toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run the solver on a registry problem")
    ps.add_argument("--problem", help=f"one of: {', '.join(problem_names())}")
    ps.add_argument("--region", help="region spec, e.g. 'box(-1,1)^2'")
    ps.add_argument("--model", choices=sorted(_MODEL_ALIASES) + list(MODEL_KINDS))
    ps.add_argument("--points", type=int, help="interpolation point count p")
    ps.add_argument("--lambda", dest="poisedness", type=float)
    ps.add_argument("--max-evals", type=int)
    ps.add_argument("--delta0", type=float)
    ps.add_argument("--delta-max", type=float)
    ps.add_argument("--delta-min", type=float)
    ps.add_argument("--eta", type=float)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--config", help="key = value config file; flags override")
    ps.add_argument("--out", help="output directory (default $CONVEXDFO_OUT_DIR or .)")
    ps.set_defaults(func=cmd_solve)

    pp = sub.add_parser("poisedness", help="check or repair point-set geometry")
    pp.add_argument("action", choices=("check", "improve"))
    pp.add_argument("--set", required=True, help="point-set JSON file")
    pp.add_argument("--region", required=True)
    pp.add_argument("--lambda", dest="lam", type=float, required=True)
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--out", dest="out_file", help="output set file (improve)")
    pp.set_defaults(func=cmd_poisedness)

    pb = sub.add_parser("bounds", help="sample accuracy-bound ratio reports")
    pb.add_argument("--problem", required=True)
    pb.add_argument("--region")
    pb.add_argument("--sets", type=int, default=50)
    pb.add_argument("--samples", type=int, default=1000)
    pb.add_argument("--lambda", dest="lam", type=float, default=2.0)
    pb.add_argument("--delta", type=float, default=0.5)
    pb.add_argument("--spread", type=float, default=0.3,
                    help="radius around x0 for random set centers")
    pb.add_argument("--l-scale", type=float, default=1.0,
                    help="scale the assumed Lipschitz constant (negative control)")
    pb.add_argument("--cluster-radius", type=float, default=None,
                    help="build clustered sets at this fraction of min(delta,1)")
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--out")
    pb.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
