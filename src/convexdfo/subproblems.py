"""Per-iteration subproblems: criticality measure and trust-region step.

Both minimize a model over the feasible trust region C ∩ B(x, radius) by
one descent, :func:`_descend`.  The criticality measure at a feasible x,

    pi(x) = | min { g^T d : x + d feasible, ||d|| <= radius } |,

zero exactly at first-order stationary points (radius 1 in the algorithm),
is the descent on the linear model ``g^T d``.  The trust-region step is the
descent on the quadratic model toward the generalized Cauchy decrease

    m(x) - m(x+s) >= c1 * pi * min(pi / (1 + ||H||), delta, 1).

The descent searches the projected-gradient path, backtracking to the
target or extrapolating past it, then polishes with projected-gradient
steps and exact segment linesearch (Conn, Gould & Toint, *Trust-Region
Methods*, ch. 12).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ProjectionError, TrustRegionProjector, WholeSpace, contains, shrink_into
from .linear_models import LinearModel

__all__ = [
    "CriticalityResult",
    "TrustRegionStep",
    "criticality_measure",
    "cauchy_decrease_target",
    "solve_trust_region_step",
]

CAUCHY_HALVINGS = 50
DESCENT_STEPS = 500


@dataclass
class CriticalityResult:
    """Value and minimizer of the constrained directional derivative problem."""

    value: float
    minimizer: np.ndarray


@dataclass
class TrustRegionStep:
    """A feasible trust-region step and its model decrease."""

    step: np.ndarray
    predicted_reduction: float
    cauchy_constant_used: float
    satisfied_cauchy: bool
    pi_model: float


def criticality_measure(g, x, region, radius=1.0):
    """First-order criticality of the linear function g^T d over the feasible ball.

    Minimizes ``g^T d`` over ``{d : ||d|| <= radius, x + d in region}`` by
    :func:`_descend` on the linear model with target 0; the whole space is
    short-circuited to ``radius * ||g||``.  Where projections are exact, as
    on a box, the extrapolated path lands on the minimizer; elsewhere the
    polish runs to a fixed point.
    """
    g = np.asarray(g, dtype=float)
    x = np.asarray(x, dtype=float)
    if not contains(region, x):
        raise ValueError("criticality measure requires a feasible base point")
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return CriticalityResult(0.0, np.zeros_like(g))
    if isinstance(region, WholeSpace):
        return CriticalityResult(radius * gnorm, -radius * g / gnorm)
    d, _ = _descend(LinearModel(0.0, g, x), x, region, radius, 0.0)
    return CriticalityResult(max(0.0, -float(g @ d)), d)


def cauchy_decrease_target(pi, hess_norm, delta, c1):
    """Right-hand side of the generalized Cauchy decrease condition."""
    return c1 * pi * min(pi / (1.0 + hess_norm), delta, 1.0)


def _segment_minimize(model, y, d):
    """Exact minimizer of the quadratic model on the segment [y, y + d]."""
    gd = float(model.grad(y) @ d)
    dHd = float(d @ model.hessian() @ d)
    if dHd > 0:
        t = min(1.0, max(0.0, -gd / dHd))
    else:
        t = 1.0 if gd < 0 else 0.0
    return y + t * d


def _cauchy_search(model, x, g, m_x, tr_proj, radius, target):
    """Phase 1: the best step on the projected-gradient path, and its decrease.

    Backtracks from ``gamma = radius / ||g||`` until the target holds, or
    extrapolates when the first trial already meets it: on a curved
    boundary the path keeps moving along it as gamma grows.  A doubled step
    is kept only while the decrease grows strictly and the step moves by
    more than ``1e-12 * (radius + ||x||)``; on the whole space, where the
    doubled step differs from the first by rounding alone, that keeps the
    first.  Extrapolation stops at the first projection that needed
    Dykstra sweeps, whose count doubles with gamma, or that Dykstra gave
    up on.
    """
    def trial(gamma):
        s = tr_proj((x - gamma * g)[None, :])[0] - x
        return s, m_x - model.value(x + s)

    gamma = radius / float(np.linalg.norm(g))
    best_s, best_red = np.zeros_like(x), 0.0
    for halvings in range(CAUCHY_HALVINGS):
        s, red = trial(gamma)
        if red > best_red:
            best_s, best_red = s, red
        if red >= target:
            break
        gamma *= 0.5
    if halvings == 0 and best_red >= target:
        # x + s is rounded at the scale of ||x||: a smaller move is noise.
        moved_tol = 1e-12 * (radius + float(np.linalg.norm(x)))
        for _ in range(CAUCHY_HALVINGS):
            if tr_proj.last_sweeps > 0:
                break
            gamma *= 2.0
            try:
                s, red = trial(gamma)
            except ProjectionError:
                break
            if red <= best_red or np.linalg.norm(s - best_s) <= moved_tol:
                break
            best_s, best_red = s, red
    return best_s, best_red


def _descend(model, x, region, radius, target):
    """Best step found in region ∩ B(x, radius) from x, and its model decrease.

    Phase 1 is :func:`_cauchy_search` toward ``target``.  Phase 2 takes
    projected-gradient steps of length ``radius / ||grad m||``, each
    followed by exact linesearch on the segment, while the decrease grows
    strictly and a step moves by more than ``1e-12 * (radius + ||x||)``, at
    most ``DESCENT_STEPS`` times.
    """
    tr_proj = TrustRegionProjector(region, x, radius)
    m_x = model.value(x)
    best_s, best_red = _cauchy_search(model, x, model.grad(x), m_x, tr_proj, radius, target)
    moved_tol = 1e-12 * (radius + float(np.linalg.norm(x)))
    y = x + best_s
    for _ in range(DESCENT_STEPS):
        gy = model.grad(y)
        gy_norm = float(np.linalg.norm(gy))
        if gy_norm == 0.0:
            break
        d = tr_proj((y - (radius / gy_norm) * gy)[None, :])[0] - y
        y_new = _segment_minimize(model, y, d)
        red = m_x - model.value(y_new)
        if red <= best_red or np.linalg.norm(y_new - y) <= moved_tol:
            break
        best_s, best_red = y_new - x, red
        y = y_new
    return best_s, best_red


def solve_trust_region_step(model, x, region, delta, c1=0.1, pi_m=None):
    """Feasible step in B(x, delta) achieving generalized Cauchy decrease.

    Runs :func:`_descend` on the model with the Cauchy target, then
    shrinks the step, if need be, until ``x + step`` as rounded is an exact
    member of the region (see :func:`~convexdfo.geometry.shrink_into`).
    ``satisfied_cauchy`` records whether the decrease condition holds for
    the returned step.
    """
    x = np.asarray(x, dtype=float)
    if pi_m is None:
        pi_m = criticality_measure(model.grad(x), x, region, 1.0).value
    if pi_m <= 0.0:
        return TrustRegionStep(np.zeros_like(x), 0.0, c1, True, 0.0)
    target = cauchy_decrease_target(pi_m, model.hess_norm(), delta, c1)
    best_s, best_red = _descend(model, x, region, delta, target)

    # f is evaluated at x + step as rounded, which must be a member.
    shrunk = shrink_into(region, x, best_s)
    if shrunk is not best_s:
        best_s, best_red = shrunk, model.value(x) - model.value(x + shrunk)

    satisfied = best_red >= target - 1e-12 * (1.0 + abs(target))
    return TrustRegionStep(best_s, best_red, c1, bool(satisfied), pi_m)
