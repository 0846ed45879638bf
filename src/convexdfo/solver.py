"""Derivative-free trust-region driver over a convex feasible region.

Each iteration builds an interpolation model on the current point set,
measures model criticality ``pi_m``, and either (a) takes a criticality
step, when the model is fully linear with ``pi_m < eps_criticality`` and
``mu * pi_m < delta``, or (b) takes a trust-region step and accepts or
rejects it by the actual-versus-predicted reduction ratio.  An uncertified
model takes its step whatever ``pi_m`` is: a model is tested by its step
before evaluations go to its geometry, as in BOBYQA and DFO-LS.  Where that
step fails, or there is no trial, the row is model-improving and repairs
its set; where ``pi_m < eps_criticality`` it first cuts ``delta`` to
``min(delta, max(mu * pi_m, delta_min))`` and rebuilds the set there,
where a fully linear row's cut would land.  So ``delta`` shrinks only on a
fully linear row, after a failed step, or on a row with no trial.  This
order departs from Conn, Scheinberg and Vicente's Algorithm 10.1, whose
criticality step comes first on every model with a small ``pi_m``: their
argument that ``delta -> 0`` as ``pi_m -> 0`` does not cover a successful
step from an uncertified model with ``pi_m < eps_criticality``.

A criticality row's radius lands on ``mu * pi_m`` (``delta_min`` where that
is larger) at once, at least one ``gamma_dec`` step down.  Its set is kept
through a one-step cut, as at an unsuccessful row, and otherwise rebuilt at
the new radius.  The next row is critical only where ``mu * pi_m`` is below
the new ``delta``, so while ``pi_m`` holds a phase costs at most one
rebuild: after a landing on ``mu * pi_m`` the phase ends, and after one on
``delta_min`` the next cut ends the run.  A model-improving row that cuts
can be followed by a criticality row that rebuilds again, where the
repaired set's model has a lower ``pi_m``.  A step with ratio
``rho >= eta`` is accepted unless its trial lies within
``1e-13 * (1 + ||trial||)`` of a set point, where it would leave ``x`` and
the set as they are and so counts as failed; a very successful one
(``rho >= _VERY_SUCCESSFUL`` = 0.7) grows ``delta`` to
``gamma_inc * ||s||`` when that is larger, never past ``delta_max``, and
any other accepted step leaves ``delta`` as it is.  Model accuracy ("fully
linear" here) is operationalized as the poisedness certificate on the point
set's own sampling radius ``r`` (``InterpolationSet.radius``): the set is
poised at the configured level on the feasible part of B(x, min(r, 1)),
with every point inside that ball.  A set is kept with
``delta <= r <= delta / gamma_dec``: an unsuccessful step, and a one-step
criticality cut, cut ``delta`` but leave in place a set whose ``r`` was
``delta`` before the cut, and after a move of the iterate the set,
recentred on the new iterate, keeps the smallest such ``r`` that holds all
its points (by the certificate's own ball test).  Steps swap in only the
trial point; a criticality row that keeps its set swaps in nothing and
spends no evaluation.  At any other cut, after a move whose set fits no
such ``r``, and after a row that rebuilds at a cut, ``r`` becomes
``delta``.  So ``r`` is always within one cut of ``delta``, and the
accuracy constants of a set poised on B(x, r) (errors ``kappa_ef * r^2``
and ``kappa_eg * r``) give a model fully linear on B(x, delta) with
``kappa_ef / gamma_dec^2`` and ``kappa_eg / gamma_dec``.

The iterate is the lowest point of its set, as BOBYQA's and DFO-LS's
``x_opt`` is.  Every row that does not follow a criticality row starts by
moving ``x`` onto the lowest point of its set (the first, on a tie) where
that point's value is strictly below ``f(x)``: ``delta`` stays, and the set
is recentred as above and certified again.  This is the one place ``x``
changes: a successful step swaps its trial into the set, and the move
makes it the iterate; a geometry point, or an unsuccessful trial, that
lowered ``f`` becomes the iterate the same way.  A model fitted on the same
points and values is the same function whatever point it is expanded
about, so a move costs no evaluation.  A criticality row's next row keeps
its iterate.  A repair may swap the iterate out of its set; it stays the
iterate until a point below it enters.

Models come in two kinds: linear regression on the sample set, or
minimum-Frobenius-norm quadratic interpolation.  Quadratic models are
least-change fits: each row's model is, of the interpolants, the one
nearest the Hessian ``H_prev`` of the last model in the Frobenius norm,
``q_prev + MFN(f - q_prev)`` with ``q_prev(y) = (y - x)^T H_prev (y - x) / 2``.
So a row keeps the curvature earlier rows learned.  The residual
``f - q_prev`` has gradient Lipschitz constant ``L + ||H_prev||``, so the
MFN accuracy bounds still make a poised set's model fully linear; a prior
with ``||H_prev||_2`` above ``_PRIOR_HESS_CAP`` is dropped (that row fits
from ``H = 0``), which keeps the model Hessians, and so the constants,
bounded.  The run's final model (``RunRecord.final_model``) is the fit of
its final set under its last prior.  Each kind builds,
repairs and certifies its sets on its own Lagrange polynomials, as the
paper's accuracy bounds take them: an MFN set on its quadratic
interpolation system, a regression set on its regression basis.  A
regression run assembles no quadratic system.

The point set carries its own values and is the solver's only store of
evaluations: a repaired set takes each value it can from the set it
replaces or from the iterate, so ``f`` is never called again at the
iterate or at a point the set keeps.  It also carries the system of its
model kind and that system's certificate, so each set is factored and
certified once: by the repair, or here after a step's swap or a
recentring, which drop both.
"""

from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import ProjectionError, project
from .linear_models import build_design_matrix, fit_regression_model
from .poisedness import (
    PoisednessImprovementError,
    ThinRegionError,
    _outside_ball,
    check_poisedness,
    improve_to_poised,
)
from .quadratic_models import (
    Quadratics,
    SingularGeometryError,
    assemble_system,
    fit_mfn_model,
    max_points,
)
from .sampling import sample_feasible_in_ball
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

# SolverConfig fields by number type; validate rejects any other type, bool too.
_REAL_FIELDS = ("delta0", "delta_max", "gamma_dec", "gamma_inc", "eps_criticality", "mu",
                "eta", "poisedness", "c1", "delta_min")
_INTEGER_FIELDS = ("npoints", "max_evals", "seed")

# Ratio at or above which a successful step is very successful and may grow
# delta (Conn, Gould & Toint 2000, Alg. 6.1.1; DFO-LS's eta_2).  Below it an
# accepted step leaves delta as it is.
_VERY_SUCCESSFUL = 0.7

# Bound on ||H_prev||_2 of the least-change prior; above it the fit starts
# from H = 0, so the model Hessians, and the accuracy constants that
# depend on them, stay bounded.
_PRIOR_HESS_CAP = 1e4


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
    time.  ``poisedness`` is the geometry level Lambda > 1 used both to
    certify and to repair point sets, on the Lagrange polynomials of the
    model kind.  ``eps_criticality`` and ``mu`` gate the criticality step
    of a fully linear model, and ``mu * pi_m`` is also the radius that
    step cuts the trust region to in one cut, by at least one
    ``gamma_dec`` step and stopping at ``delta_min``.  An uncertified
    model with ``pi_m < eps_criticality`` takes its trust-region step;
    only where that fails is ``delta`` cut to ``mu * pi_m``, where that
    is below ``delta``, before the set is rebuilt.  ``eta`` is the
    acceptance threshold.  A very successful step (ratio at least 0.7)
    sets ``delta`` to ``min(max(delta, gamma_inc * ||s||), delta_max)``;
    any other accepted step keeps ``delta``.  With ``eta >= 0.7`` every
    accepted step is very successful.  A move of the iterate onto a lower
    point of its set keeps ``delta``.  ``validate`` raises ``ValueError``
    for a value out of range and for a number of the wrong type:
    ``npoints``, ``max_evals`` and ``seed`` take integers, the other
    numbers finite reals, and none a ``bool``.
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
        for name in _REAL_FIELDS + _INTEGER_FIELDS:
            value = getattr(self, name)
            if value is None and name == "npoints":
                continue
            integer = name in _INTEGER_FIELDS
            if isinstance(value, bool) or not isinstance(
                    value, numbers.Integral if integer else numbers.Real):
                kind = "an integer" if integer else "a real number"
                raise ValueError(f"{name} must be {kind}, not {value!r}")
            try:
                finite = integer or math.isfinite(value)
            except OverflowError:  # an int too large for a float
                finite = False
            if not finite:
                raise ValueError(f"{name} must be finite, not {value!r}")
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
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
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

    ``evals`` counts every call of ``f``, the last row's and any after it.
    ``final_set`` is the last complete interpolation set, with its values
    only, at termination or failure (for export and inspection);
    ``final_values`` reads its values.  ``final_model`` is the model of
    ``final_set`` under the run's last least-change prior (None when the
    set is degenerate).  None of them is in the CSV.
    """

    rows: list = field(default_factory=list)
    status: str = "running"
    notes: list = field(default_factory=list)
    evals: int = 0
    final_set: object = None
    final_model: object = None

    @property
    def final_values(self):
        return None if self.final_set is None else self.final_set.values

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


def _with_values(oracle, new, old, x, fx):
    """``new`` with a value at every point, calling ``f`` only where needed.

    In index order, each point takes the value of an equal point of
    ``old`` (the set ``new`` replaces), or ``fx`` at the iterate ``x``;
    only the remaining points are evaluated.
    """
    values = np.empty(new.npoints)
    for t, y in enumerate(new.points):
        same = () if old is None else np.flatnonzero((old.points == y).all(axis=1))
        if len(same):
            values[t] = old.values[same[0]]
        elif np.array_equal(y, x):
            values[t] = fx
        else:
            values[t] = oracle(y)
    return new.with_values(values)


def _criticality_radius(delta, pi_m, mu, gamma_dec, delta_min, certified):
    """Radius after a critical row: ``mu * pi_m``, clamped.

    The radius lands on ``mu * pi_m``, or on ``delta_min`` where that is
    larger, in one cut.  A certified (fully linear) criticality row cuts at
    least one ``gamma_dec`` step.  An uncertified row is cut only after its
    step fails: it never grows ``delta`` and keeps it where
    ``mu * pi_m >= delta``, so its repair builds the set at the radius
    where a certified row's deeper cut would land.  So ``pi_m = 0`` sends
    ``delta`` to ``delta_min``, not to 0, and the run ends only if the
    model there again gives ``mu * pi_m < delta_min``.
    """
    return min(gamma_dec * delta if certified else delta, max(mu * pi_m, delta_min))


def _duplicates(points, y):
    """Whether ``y`` is within ``1e-13 * (1 + ||y||)`` of one of ``points``."""
    gap = np.linalg.norm(points - y, axis=1)
    return gap.size > 0 and float(np.min(gap)) <= 1e-13 * (1.0 + float(np.linalg.norm(y)))


def _swap_farthest(iset, center, trial, f_trial):
    """Replace the point farthest from ``center`` by the trial point, unless
    the trial duplicates one of the others."""
    far = int(np.argmax(np.linalg.norm(iset.points - center, axis=1)))
    if _duplicates(np.delete(iset.points, far, axis=0), trial):
        return iset
    return iset.replace_point(far, trial, f_trial)


def _recentred_radius(points, centre, delta, gamma_dec):
    """Smallest r in [delta, delta / gamma_dec] with every point in
    B(centre, min(r, 1)), as the certificate's ball test takes it; ``delta``
    when there is none.

    A point a rounding step beyond ``delta / gamma_dec`` still fits;
    ``gamma_dec * r <= delta`` holds exactly for the r returned.
    """
    reach = float(np.max(np.linalg.norm(points - centre, axis=1)))
    r = min(reach, delta / gamma_dec)
    fits = (delta < reach and gamma_dec * r <= delta
            and not _outside_ball(points, centre, min(r, 1.0)))
    return r if fits else delta


def _least_change_fit(iset, model_kind, prior):
    """Model of ``iset.values`` nearest the prior Hessian (None when
    degenerate), and the set's ``model_kind`` system, built if it has none.

    With the dense prior ``H_prev`` (None for 0) the MFN model is
    ``q_prev + MFN(f - q_prev)``, ``q_prev(y) = (y - x)^T H_prev (y - x) / 2``:
    of the quadratics interpolating ``f`` on the set, the one with the least
    ``||H - H_prev||_F``.  It is fitted on the set's own system, so the
    Lagrange polynomials that certify and repair the set do not change.  A
    regression model, no prior, and a prior with ``||H_prev||_2`` above
    ``_PRIOR_HESS_CAP`` get the plain fit of the values.
    """
    regression = model_kind == "linear-regression"
    system = iset.system
    if system is None:
        system = (build_design_matrix(iset, require_full_rank=False) if regression
                  else assemble_system(iset, require_invertible=False))
    if not system.nondegenerate:
        return None, system
    if regression:
        return fit_regression_model(system, iset.values), system
    if prior is None or np.linalg.norm(prior, 2) > _PRIOR_HESS_CAP:
        return fit_mfn_model(system, iset.values), system
    d = iset.points - iset.base
    q = 0.5 * np.einsum("ti,ij,tj->t", d, prior, d)
    residual = fit_mfn_model(system, iset.values - q)
    (c,), (g,) = residual.c, residual.g
    return Quadratics.from_hessian(iset.base, c, g, prior + residual.hessians()[0]), system


def solve(f, region, x0, config=None):
    """Run the trust-region iteration; returns ``(x_final, RunRecord)``.

    ``x_final`` is the last iterate, the base of ``RunRecord.final_set``:
    its lowest point unless the last row is a criticality row.  ``f`` is
    called only at exact members of the region
    (``region.is_member``).  An infeasible ``x0`` is projected into the
    region first, or replaced by a member within ``delta_min`` of its
    projection where that is not an exact member (noted in the record).
    Terminates when the evaluation budget is spent or the trust region
    shrinks below ``delta_min``.  Hard subsolver failures, and an ``f``
    that raises or returns a value that is not finite, end the run with
    status ``"error"`` and raise :class:`SolverError` carrying the partial
    record.
    """
    config = config or SolverConfig()
    config.validate()
    record = RunRecord()
    rng = np.random.default_rng(config.seed)

    x = np.asarray(x0, dtype=float)
    region._check_dim(x)
    if not region.is_member(x):
        # A projection is exact only to rounding, and Dykstra's only to its
        # tolerance; where it is not a member, a member drawn near it is.
        x = project(region, x).point
        if not region.is_member(x):
            x = sample_feasible_in_ball(rng, region, x, config.delta_min, 1)[0]
        if not region.is_member(x):
            record.status = "error"
            raise SolverError("infeasible starting point: no exact member of the region "
                              "found within delta_min of its projection", record)
        record.notes.append("starting point was infeasible; projected into the region")
    n = x.size
    p = config.resolve_npoints(n)
    lam = config.poisedness
    oracle = _BudgetedOracle(f, config.max_evals)
    delta = config.delta0

    def repair(old, radius):
        # The set comes back only once all its values exist, with its system
        # and the certificate of the repair's last check.
        new = improve_to_poised(old, region, x, radius, p, lam, rng=rng,
                                model_kind=config.model_kind)[0]
        return _with_values(oracle, new, old, x, fx)

    # The Hessian of the last model: the next fit changes it least.
    prior = None

    def build(iset):
        # The set carries its system, so the next repair reuses it.
        nonlocal prior
        model, system = _least_change_fit(iset, config.model_kind, prior)
        if model is not None:
            prior = model.hessians()[0]
        return model, replace(iset, system=system)

    iset = None
    try:
        fx = oracle(x)
        iset = repair(None, delta)

        for k in range(50 * config.max_evals):
            after_criticality = record.rows and record.rows[-1].step_kind == "criticality"
            lowest = int(np.argmin(iset.values))
            if not after_criticality and iset.values[lowest] < fx:
                # The lowest point of the set becomes the iterate: a model
                # does not depend on its base, so this costs no evaluation.
                x, fx = iset.points[lowest].copy(), float(iset.values[lowest])
                iset = iset.with_geometry(
                    x, _recentred_radius(iset.points, x, delta, config.gamma_dec))
            if delta < config.delta_min:
                record.status = "radius_min"
                break

            model, iset = build(iset)
            if model is None:
                # Degenerate geometry slipped in; rebuild before modelling.
                iset = repair(iset, iset.radius)
                model, iset = build(iset)
                if model is None:
                    raise SolverError("geometry repair failed to restore invertibility", record)

            f_at_k, delta_at_k = fx, delta
            pi_m = criticality_measure(model.grad(x), x, region, 1.0).value
            if iset.cert is None:
                iset = replace(iset, cert=check_poisedness(iset.system, region, lam, rng=rng))
            fully_linear = bool(iset.cert.verified)

            critical = pi_m < config.eps_criticality
            if fully_linear and critical and pi_m < delta / config.mu:
                delta = _criticality_radius(delta, pi_m, config.mu, config.gamma_dec,
                                            config.delta_min, True)
                # The set keeps its radius through one cut; otherwise it is
                # rebuilt at the new delta.  Below delta_min the run ends
                # with this set.
                kept = config.gamma_dec * iset.radius <= delta <= iset.radius
                if not kept and delta >= config.delta_min:
                    iset = repair(iset, delta)
                record.rows.append(IterationRow(
                    k, f_at_k, delta_at_k, pi_m, None, "criticality", oracle.used, fully_linear,
                ))
                continue

            step = solve_trust_region_step(model, x, region, delta, config.c1, pi_m=pi_m,
                                           points=iset.points)
            if step.predicted_reduction > 0.0:
                trial = x + step.step
                f_trial = oracle(trial)
                rho = (fx - f_trial) / step.predicted_reduction
            else:
                trial, f_trial, rho = None, None, None
                record.notes.append(f"iteration {k}: nonpositive predicted reduction")

            # A trial that duplicates a set point would leave x and the set
            # as they are, so it counts as a failed step.
            if rho is not None and rho >= config.eta and not _duplicates(iset.points, trial):
                step_kind = "successful"
                # Delta never shrinks here; a very successful step grows it as
                # far as gamma_inc * ||s||.  Swapped into the set, the trial
                # becomes the iterate by the next row's move.
                if rho >= _VERY_SUCCESSFUL:
                    delta = min(max(delta, config.gamma_inc * float(np.linalg.norm(trial - x))),
                                config.delta_max)
                iset = _swap_farthest(iset, trial, trial, f_trial)
            elif not fully_linear:
                step_kind = "model-improving"
                # A model that looks critical is repaired where a fully
                # linear row's cut would land.
                if critical:
                    delta = _criticality_radius(delta, pi_m, config.mu, config.gamma_dec,
                                                config.delta_min, False)
                iset = repair(iset, delta if critical else iset.radius)
            else:
                step_kind = "unsuccessful"
                delta = config.gamma_dec * delta
                # The set keeps its radius through one cut.
                if not config.gamma_dec * iset.radius <= delta <= iset.radius:
                    iset = iset.with_geometry(x, delta)
                if trial is not None:
                    iset = _swap_farthest(iset, x, trial, f_trial)
            record.rows.append(IterationRow(
                k, f_at_k, delta_at_k, pi_m, rho, step_kind, oracle.used, fully_linear,
            ))
        else:
            record.status = "stalled"
    except BudgetExhausted:
        record.status = "budget"
    except (ThinRegionError, PoisednessImprovementError, ProjectionError,
            SingularGeometryError, _ObjectiveFailure) as exc:
        record.status = "error"
        # A failing f is reported through its own exception, not the signal.
        raise SolverError(str(exc), record) from (exc.__cause__ or exc)
    finally:
        # The last set whose values all exist, also when the run fails, and
        # the model the next row would fit on it.
        record.evals = oracle.used
        if iset is not None:
            record.final_set = replace(iset, system=None, cert=None)
            record.final_model = _least_change_fit(iset, config.model_kind, prior)[0]
    return x, record
