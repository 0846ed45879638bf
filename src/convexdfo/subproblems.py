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
Methods*, ch. 12).  The polish, :func:`_polish`, runs on
:class:`~convexdfo.quadratic_models.Quadratics`, one point per row: the
model is a stack of one row, polished in the factored form it was fitted
in, and the Lagrange sweep of :mod:`convexdfo.poisedness` polishes all of
its rows at once with the same routine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ProjectionError, TrustRegionProjector, WholeSpace, shrink_into
from .quadratic_models import Quadratics

__all__ = [
    "CriticalityResult",
    "TrustRegionStep",
    "criticality_measure",
    "cauchy_decrease_target",
    "solve_trust_region_step",
]

CAUCHY_HALVINGS = 50
DESCENT_STEPS = 200


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
    if not region.is_member(x):
        raise ValueError("criticality measure requires a feasible base point")
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return CriticalityResult(0.0, np.zeros_like(g))
    if isinstance(region, WholeSpace):
        return CriticalityResult(radius * gnorm, -radius * g / gnorm)
    d, _ = _descend(Quadratics.from_hessian(x, 0.0, g), x, region, radius, 0.0)
    return CriticalityResult(max(0.0, -float(g @ d)), d)


def cauchy_decrease_target(pi, hess_norm, delta, c1):
    """Right-hand side of the generalized Cauchy decrease condition."""
    return c1 * pi * min(pi / (1.0 + hess_norm), delta, 1.0)


def _polish(stack, which, signs, Y, rows, proj, radius, moved_tol, stop=None):
    """Projected-gradient descent of ``signs[i] * q_{which[i]}`` from each row of ``Y``.

    Only the rows indexed by ``rows`` are evaluated and move.  In each
    round a row moves to ``P(y - (radius / ||grad||) grad)``, with ``P`` the
    projector ``proj``, and then to the exact minimizer of its own quadratic
    on that segment.  A row stops at its first step that does not lower its
    value strictly or that moves by at most ``moved_tol``.  Every row stops
    after ``DESCENT_STEPS`` rounds, or once some row's value is below
    ``stop``.  Within the loop a row's new value comes from its segment's
    slope and curvature; the returned rows are evaluated once at exit.
    ``Y`` is updated in place; returns the values of the rows ``rows``, in
    their order, and the number of rounds run.
    """
    vals = signs[rows] * stack.values(Y[rows], which[rows])
    active = np.arange(rows.size)
    rounds = 0
    while active.size and rounds < DESCENT_STEPS and (stop is None or vals.min() >= stop):
        rounds += 1
        moving = rows[active]
        y, w, s = Y[moving], which[moving], signs[moving]
        G = s[:, None] * stack.grads(y, w)
        # A zero gradient gives a zero step, so its row stops.
        step = radius / np.maximum(np.linalg.norm(G, axis=1), 1e-300)
        D = proj(y - step[:, None] * G) - y
        gd, dHd = np.einsum("ri,ri->r", G, D), s * stack.curvature(D, w)
        t = np.where(gd < 0.0, 1.0, 0.0)
        curved = dHd > 0.0
        t[curved] = np.clip(-gd[curved] / dHd[curved], 0.0, 1.0)
        y_new = y + t[:, None] * D
        v_new = vals[active] + t * gd + 0.5 * t * t * dHd
        ok = (v_new < vals[active]) & (np.linalg.norm(y_new - y, axis=1) > moved_tol)
        active = active[ok]
        Y[rows[active]], vals[active] = y_new[ok], v_new[ok]
    return signs[rows] * stack.values(Y[rows], which[rows]), rounds


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

    Phase 1 is :func:`_cauchy_search` toward ``target``.  Phase 2 is
    :func:`_polish` of the model, a stack of one row, from its step, with
    steps of length ``radius / ||grad m||`` that must move by more than
    ``1e-12 * (radius + ||x||)``.
    """
    tr_proj = TrustRegionProjector(region, x, radius)
    m_x = model.value(x)
    best_s, best_red = _cauchy_search(model, x, model.grad(x), m_x, tr_proj, radius, target)
    row = np.zeros(1, dtype=int)
    Y = (x + best_s)[None]
    _polish(model, row, np.ones(1), Y, row, tr_proj, radius,
            1e-12 * (radius + float(np.linalg.norm(x))))
    if np.array_equal(Y[0], x + best_s):
        return best_s, best_red
    return Y[0] - x, m_x - model.value(Y[0])


def solve_trust_region_step(model, x, region, delta, c1=0.1, pi_m=None, points=None):
    """Feasible step in B(x, delta) achieving generalized Cauchy decrease.

    Runs :func:`_descend` on the model with the Cauchy target.  Where
    ``x + step`` as rounded is not an exact member of the region, the step
    is pulled toward ``x``, then toward the centroid of the exact members
    among ``points`` (see :func:`~convexdfo.geometry.shrink_into`); when
    neither gives a member the step is zero, with no predicted reduction,
    so nothing is evaluated.  ``satisfied_cauchy`` records whether the
    decrease condition holds for the returned step.
    """
    x = np.asarray(x, dtype=float)
    if pi_m is None:
        pi_m = criticality_measure(model.grad(x), x, region, 1.0).value
    if pi_m <= 0.0:
        return TrustRegionStep(np.zeros_like(x), 0.0, c1, True, 0.0)
    target = cauchy_decrease_target(pi_m, model.hess_norms()[0], delta, c1)
    best_s, best_red = _descend(model, x, region, delta, target)

    # f is evaluated at x + step as rounded, which must be a member.
    shrunk = shrink_into(region, x, best_s, points)
    if shrunk is not best_s:
        best_s, best_red = shrunk, model.value(x) - model.value(x + shrunk)

    satisfied = best_red >= target - 1e-12 * (1.0 + abs(target))
    return TrustRegionStep(best_s, best_red, c1, bool(satisfied), pi_m)
