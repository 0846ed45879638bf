"""Per-iteration subproblems: criticality measure and trust-region step.

The criticality measure at a feasible point x is

    pi(x) = | min { g^T d : x + d feasible, ||d|| <= radius } |,

zero exactly at first-order stationary points (radius 1 in the algorithm).
The objective is linear, so projected gradient with the constant step
``radius / ||g||`` decreases it at every step and stops at a fixed point,
which is a minimizer; the unconstrained case is short-circuited to
``radius * ||g||``.

The trust-region step minimizes the model over the feasible part of
B(x, delta) well enough to satisfy the generalized Cauchy decrease

    m(x) - m(x+s) >= c1 * pi * min(pi / (1 + ||H||), delta, 1),

via a backtracking search along the projected-gradient path followed by a
few projected-gradient refinement steps with exact segment linesearch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import TrustRegionProjector, WholeSpace, contains, shrink_into

__all__ = [
    "CriticalityResult",
    "TrustRegionStep",
    "criticality_measure",
    "cauchy_decrease_target",
    "solve_trust_region_step",
]

CRITICALITY_ITERATIONS = 500
CAUCHY_HALVINGS = 50
REFINEMENT_STEPS = 10


@dataclass
class CriticalityResult:
    """Value and minimizer of the constrained directional derivative problem."""

    value: float
    minimizer: np.ndarray
    iterations: int


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
    projected gradient from ``d = 0`` with the constant step
    ``radius / ||g||``.  A linear objective has a zero-Lipschitz gradient,
    so every step decreases it, and a fixed point ``d = P(d - t g)`` is a
    minimizer.  The loop stops when a step moves ``d`` by at most
    ``1e-15 * radius``, or after ``CRITICALITY_ITERATIONS`` steps; the cap
    can end it short of the minimizer when a coordinate that must reach a
    bound has ``|g_i|`` tiny against ``||g||``, as it moves
    ``radius |g_i| / ||g||`` per step.
    """
    g = np.asarray(g, dtype=float)
    x = np.asarray(x, dtype=float)
    if not contains(region, x):
        raise ValueError("criticality measure requires a feasible base point")
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return CriticalityResult(0.0, np.zeros_like(g), 0)
    if isinstance(region, WholeSpace):
        d = -radius * g / gnorm
        return CriticalityResult(radius * gnorm, d, 0)

    tr_proj = TrustRegionProjector(region, x, radius)
    step = (radius / gnorm) * g
    d = np.zeros_like(g)
    for iterations in range(1, CRITICALITY_ITERATIONS + 1):
        d_new = tr_proj((x + d - step)[None, :])[0] - x
        moved = float(np.linalg.norm(d_new - d))
        d = d_new
        if moved <= 1e-15 * radius:
            break
    return CriticalityResult(max(0.0, -float(g @ d)), d, iterations)


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


def solve_trust_region_step(model, x, region, delta, c1=0.1, pi_m=None):
    """Feasible step in B(x, delta) achieving generalized Cauchy decrease.

    Phase 1 backtracks along the projected-gradient path
    ``s(gamma) = proj(x - gamma g) - x`` from ``gamma = delta / ||g||``
    until the Cauchy target holds (or 50 halvings).  Phase 2 polishes with
    up to 10 projected-gradient steps, each accepted only if the model
    value keeps decreasing.  The step is then shrunk, if need be, until
    ``x + step`` as rounded is an exact member of the region (see
    :func:`~convexdfo.geometry.shrink_into`).  ``satisfied_cauchy`` records
    whether the decrease condition holds for the returned step.
    """
    x = np.asarray(x, dtype=float)
    g = model.grad(x)
    hess_norm = model.hess_norm()
    if pi_m is None:
        pi_m = criticality_measure(g, x, region, 1.0).value
    if pi_m <= 0.0:
        return TrustRegionStep(np.zeros_like(x), 0.0, c1, True, 0.0)
    target = cauchy_decrease_target(pi_m, hess_norm, delta, c1)
    m_x = model.value(x)
    tr_proj = TrustRegionProjector(region, x, delta)

    def proj(y):
        return tr_proj(y[None, :])[0]

    # Phase 1: backtracking along the projected-gradient path.
    gnorm = float(np.linalg.norm(g))
    gamma = delta / gnorm
    best_s, best_red = np.zeros_like(x), 0.0
    for _ in range(CAUCHY_HALVINGS):
        s = proj(x - gamma * g) - x
        red = m_x - model.value(x + s)
        if red > best_red:
            best_s, best_red = s, red
        if red >= target:
            break
        gamma *= 0.5

    # Phase 2: projected-gradient polish, monotone in the model value.
    y = x + best_s
    for _ in range(REFINEMENT_STEPS):
        gy = model.grad(y)
        gy_norm = float(np.linalg.norm(gy))
        if gy_norm == 0.0:
            break
        d = proj(y - (delta / gy_norm) * gy) - y
        y_new = _segment_minimize(model, y, d)
        red = m_x - model.value(y_new)
        if red <= best_red + 1e-15 * (1.0 + abs(m_x)):
            break
        best_s, best_red = y_new - x, red
        y = y_new

    # f is evaluated at x + step as rounded, which must be a member.
    shrunk = shrink_into(region, x, best_s)
    if shrunk is not best_s:
        best_s, best_red = shrunk, m_x - model.value(x + shrunk)

    satisfied = best_red >= target - 1e-12 * (1.0 + abs(target))
    return TrustRegionStep(best_s, best_red, c1, bool(satisfied), pi_m)
