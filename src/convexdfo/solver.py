"""Derivative-free trust-region driver over a convex feasible region.

Each iteration builds an interpolation model on the current point set,
measures model criticality, and either (a) shrinks the trust region and
repairs the sample geometry when the model looks critical but cannot be
trusted, or (b) takes a trust-region step and accepts or rejects it by the
actual-versus-predicted reduction ratio.  Model accuracy ("fully linear"
here) is operationalized as the poisedness certificate: the point set is
poised at the configured level with every point inside the unit-capped
trust-region ball around the current iterate.

Models come in two kinds: linear regression on the sample set, or
minimum-Frobenius-norm quadratic interpolation.  Both share the same
geometry maintenance: point sets are constructed and repaired through the
quadratic interpolation system, whose poisedness also bounds the
regression polynomials.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .geometry import ProjectionError, project
from .linear_models import build_design_matrix, fit_regression_model
from .poisedness import (
    PoisednessImprovementError,
    ThinRegionError,
    check_poisedness,
    improve_to_poised,
)
from .quadratic_models import assemble_system, fit_mfn_model, max_points
from .subproblems import criticality_measure, solve_trust_region_step

__all__ = [
    "SolverConfig",
    "IterationRow",
    "RunRecord",
    "SolverError",
    "BudgetExhausted",
    "MODEL_KINDS",
    "STEP_KINDS",
    "solve",
]

MODEL_KINDS = ("mfn-quadratic", "linear-regression")
STEP_KINDS = ("criticality", "successful", "model-improving", "unsuccessful")

CSV_COLUMNS = ("k", "f", "delta", "pi_m", "rho", "step_kind", "evals", "fully_linear")


class BudgetExhausted(Exception):
    """Internal signal: the evaluation budget is spent."""


class _ObjectiveFailure(Exception):
    """Internal signal: ``f`` raised or returned a non-finite value."""


class SolverError(RuntimeError):
    """Hard subsolver failure; carries the partial run record."""

    def __init__(self, message, record):
        super().__init__(message)
        self.record = record


@dataclass
class SolverConfig:
    """Parameters of the trust-region run.

    ``npoints`` defaults to 2n+1 (capped to the admissible range) at solve
    time.  ``poisedness`` is the geometry level Lambda used both to certify
    and to repair point sets; ``eps_criticality`` and ``mu`` gate the
    criticality step; ``eta`` is the acceptance threshold.
    """

    delta0: float = 1.0
    delta_max: float = 100.0
    gamma_dec: float = 0.5
    gamma_inc: float = 2.0
    eps_criticality: float = 1e-2
    mu: float = 1.0
    eta: float = 0.1
    poisedness: float = 10.0
    npoints: int | None = None
    c1: float = 0.1
    max_evals: int = 1000
    delta_min: float = 1e-8
    model_kind: str = "mfn-quadratic"
    seed: int = 0

    def validate(self):
        if not 0 < self.delta0 <= self.delta_max:
            raise ValueError("need 0 < delta0 <= delta_max")
        if not 0 < self.gamma_dec < 1 < self.gamma_inc:
            raise ValueError("need 0 < gamma_dec < 1 < gamma_inc")
        if not (self.eps_criticality > 0 and self.mu > 0):
            raise ValueError("criticality constants must be positive")
        if not 0 < self.eta < 1:
            raise ValueError("need 0 < eta < 1")
        if not self.poisedness > 1:
            raise ValueError("poisedness level must exceed 1")
        if not 0 < self.c1 < 1:
            raise ValueError("need 0 < c1 < 1")
        if self.max_evals < 1:
            raise ValueError("max_evals must be positive")
        if not 0 < self.delta_min <= self.delta0:
            raise ValueError("need 0 < delta_min <= delta0")
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"model_kind must be one of {MODEL_KINDS}")

    def resolve_npoints(self, n):
        p = self.npoints if self.npoints is not None else 2 * n + 1
        p = max(n + 2, min(p, max_points(n)))
        if self.npoints is not None and p != self.npoints:
            raise ValueError(
                f"npoints={self.npoints} outside [{n + 2}, {max_points(n)}] for n={n}"
            )
        return p


@dataclass
class IterationRow:
    """One line of the per-iteration trace."""

    k: int
    f: float
    delta: float
    pi_m: float
    rho: float | None
    step_kind: str
    evals: int
    fully_linear: bool


@dataclass
class RunRecord:
    """Per-iteration trace plus terminal status of one solve.

    ``final_set`` and ``final_values`` hold the active interpolation set at
    termination (for export and inspection); they do not appear in the CSV.
    """

    rows: list = field(default_factory=list)
    status: str = "running"
    notes: list = field(default_factory=list)
    final_set: object = None
    final_values: object = None

    def csv_text(self):
        """Fixed-schema CSV of the trace (deterministic float formatting)."""
        out = io.StringIO()
        out.write(",".join(CSV_COLUMNS) + "\n")
        for r in self.rows:
            rho = "" if r.rho is None else repr(r.rho)
            flag = "true" if r.fully_linear else "false"
            out.write(
                f"{r.k},{r.f!r},{r.delta!r},{r.pi_m!r},{rho},{r.step_kind},{r.evals},{flag}\n"
            )
        return out.getvalue()

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.csv_text())


class _BudgetedOracle:
    """Counts objective evaluations, stops the run at the budget, rejects bad values."""

    def __init__(self, f, budget):
        self.f = f
        self.budget = budget
        self.used = 0

    def __call__(self, x):
        if self.used >= self.budget:
            raise BudgetExhausted
        self.used += 1
        x = np.asarray(x, dtype=float)
        try:
            value = float(self.f(x))
        except Exception as exc:
            raise _ObjectiveFailure(f"objective raised {exc!r} at x = {x.tolist()}") from exc
        if not np.isfinite(value):
            raise _ObjectiveFailure(f"objective returned {value} at x = {x.tolist()}")
        return value


def _evaluate_set(oracle, iset, cache):
    """Values for every point of the set, reusing cached evaluations.

    The cache holds only the active set plus at most one trial point;
    values at replaced points are discarded.
    """
    values = np.empty(iset.npoints)
    fresh = {}
    for t, y in enumerate(iset.points):
        key = y.tobytes()
        if key in fresh:
            values[t] = fresh[key]
        elif key in cache:
            values[t] = cache[key]
            fresh[key] = cache[key]
        else:
            values[t] = oracle(y)
            fresh[key] = values[t]
    return values, fresh


def _swap_farthest(iset, values, center, trial, f_trial):
    """Replace the point farthest from ``center`` by the trial point."""
    dists = np.linalg.norm(iset.points - center, axis=1)
    far = int(np.argmax(dists))
    others = np.delete(np.arange(iset.npoints), far)
    gap = np.linalg.norm(iset.points[others] - trial, axis=1)
    if gap.size and float(np.min(gap)) <= 1e-13 * (1.0 + float(np.linalg.norm(trial))):
        return iset, values  # would duplicate an existing point
    new_set = iset.replace_point(far, trial)
    new_values = values.copy()
    new_values[far] = f_trial
    return new_set, new_values


def _build_model(iset, values, model_kind):
    """Model plus its interpolation system; None system when degenerate."""
    if model_kind == "mfn-quadratic":
        system = assemble_system(iset, require_invertible=False)
        if not system.invertible:
            return None, None
        return fit_mfn_model(system, values), system
    basis = build_design_matrix(iset, require_full_rank=False)
    if not basis.full_rank:
        return None, None
    # Geometry certification still runs on the quadratic system (it also
    # bounds the regression polynomials), so assemble it alongside.
    system = assemble_system(iset, require_invertible=False)
    if not system.invertible:
        return None, None
    return fit_regression_model(basis, values), system


def solve(f, region, x0, config=None):
    """Run the trust-region iteration; returns ``(x_final, RunRecord)``.

    ``f`` is called only at feasible points.  An infeasible ``x0`` is
    projected into the region first (noted in the record).  Terminates when
    the evaluation budget is spent or the trust region shrinks below
    ``delta_min``.  Hard subsolver failures, and an ``f`` that raises or
    returns a value that is not finite, end the run with status ``"error"``
    and raise :class:`SolverError` carrying the partial record.
    """
    config = config or SolverConfig()
    config.validate()
    record = RunRecord()
    rng = np.random.default_rng(config.seed)

    x = np.asarray(x0, dtype=float)
    region._check_dim(x)
    if not region.is_member(x):
        x = project(region, x).point
        record.notes.append("starting point was infeasible; projected into the region")
    n = x.size
    p = config.resolve_npoints(n)
    lam = config.poisedness
    oracle = _BudgetedOracle(f, config.max_evals)
    delta = config.delta0

    # The set improve() last returned and the certificate it came with; it
    # stands for that set at (x, delta) until a step replaces the set.
    repaired_set, repaired_cert = None, None

    def improve(iset, center, radius):
        # The repaired set is handed back with its values, and only once
        # they all exist, so the record never pairs a set with stale values.
        nonlocal repaired_set, repaired_cert
        repaired_set, repaired_cert, _ = improve_to_poised(
            iset, region, center, radius, p, lam, rng=rng
        )
        return (repaired_set, *_evaluate_set(oracle, repaired_set, cache))

    iset, values = None, None
    try:
        fx = oracle(x)
        cache = {x.tobytes(): fx}
        iset, values, cache = improve(None, x, delta)

        for k in range(50 * config.max_evals):
            if delta < config.delta_min:
                record.status = "radius_min"
                break

            model, system = _build_model(iset, values, config.model_kind)
            if model is None:
                # Degenerate geometry slipped in; rebuild before modelling.
                iset, values, cache = improve(iset, x, delta)
                model, system = _build_model(iset, values, config.model_kind)
                if model is None:
                    raise SolverError("geometry repair failed to restore invertibility", record)

            f_at_k, delta_at_k = fx, delta
            pi_m = criticality_measure(model.grad(x), x, region, 1.0).value
            if iset is repaired_set:
                cert = repaired_cert
            else:
                cert = check_poisedness(system, region, lam, beta=1.0, rng=rng)
            fully_linear = bool(cert.verified)

            if pi_m < config.eps_criticality and (
                pi_m < delta / config.mu or not fully_linear
            ):
                delta = config.gamma_dec * delta if fully_linear else delta
                iset, values, cache = improve(iset, x, delta)
                record.rows.append(IterationRow(
                    k, f_at_k, delta_at_k, pi_m, None, "criticality",
                    oracle.used, fully_linear,
                ))
                continue

            step = solve_trust_region_step(model, x, region, delta, config.c1, pi_m=pi_m)
            if step.predicted_reduction > 0.0:
                trial = x + step.step
                f_trial = oracle(trial)
                cache[trial.tobytes()] = f_trial
                rho = (fx - f_trial) / step.predicted_reduction
            else:
                trial, f_trial, rho = None, None, None
                record.notes.append(f"iteration {k}: nonpositive predicted reduction")

            if rho is not None and rho >= config.eta:
                step_kind = "successful"
                delta = min(config.gamma_inc * delta, config.delta_max)
                iset = iset.with_geometry(trial, delta)
                iset, values = _swap_farthest(iset, values, trial, trial, f_trial)
                x, fx = trial, f_trial
            elif not fully_linear:
                step_kind = "model-improving"
                iset, values, cache = improve(iset, x, delta)
            else:
                step_kind = "unsuccessful"
                delta = config.gamma_dec * delta
                iset = iset.with_geometry(x, delta)
                if trial is not None:
                    iset, values = _swap_farthest(iset, values, x, trial, f_trial)
            # Keep no evaluations beyond the active set (plus the trial just
            # folded in above, when it was kept).
            cache = {y.tobytes(): v for y, v in zip(iset.points, values)}
            record.rows.append(IterationRow(
                k, f_at_k, delta_at_k, pi_m, rho, step_kind, oracle.used, fully_linear,
            ))
        else:
            record.status = "stalled"
    except BudgetExhausted:
        record.status = "budget"
    except (ThinRegionError, PoisednessImprovementError, ProjectionError,
            _ObjectiveFailure) as exc:
        record.status = "error"
        # A failing f is reported through its own exception, not the signal.
        raise SolverError(str(exc), record) from (exc.__cause__ or exc)

    if record.status == "running":
        record.status = "radius_min"
    record.final_set = iset
    record.final_values = values
    return x, record
