"""Reference criticality, computed independently of the solver's own code.

The true first-order criticality of ``f`` at ``x`` over a convex region ``C``
is

    pi_f(x) = | min { g^T d : x + d in C, ||d|| <= 1 } |,   g = grad f(x).

On whole space this is ``||g||``.  Everywhere else it is solved with
``scipy.optimize`` SLSQP, with the region's constraints written out from its
public attributes (box bounds, ball centre and radius, halfspace rows),
started from ``d = 0`` and from ``d = -g/||g||`` (the better feasible answer
counts).  When ``-g/||g||`` is itself feasible the value is ``||g||``.  No
code from ``convexdfo.subproblems`` or ``convexdfo.problems`` is used, so a
rewrite of the solver's criticality measure cannot move this yardstick.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from convexdfo import Ball, Box, Halfspaces, Intersection, WholeSpace

__all__ = ["YardstickError", "reference_criticality"]

SLSQP_FTOL = 1e-14
SLSQP_MAXITER = 500
# Largest constraint violation accepted in an SLSQP answer.
FEASIBILITY_TOL = 1e-7


class YardstickError(RuntimeError):
    """The reference subproblem could not be solved to the stated accuracy."""


def _constraints(region, x, n):
    """SLSQP bounds and inequality constraints ``c(d) >= 0`` for ``x + d in region``."""
    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    cons = []

    def add(piece):
        nonlocal lower, upper
        if isinstance(piece, WholeSpace):
            return
        if isinstance(piece, Box):
            lower = np.maximum(lower, piece.lower - x)
            upper = np.minimum(upper, piece.upper - x)
        elif isinstance(piece, Ball):
            shift, r2 = x - piece.center, piece.radius**2
            cons.append({
                "type": "ineq",
                "fun": lambda d, s=shift, r2=r2: r2 - (s + d) @ (s + d),
                "jac": lambda d, s=shift: -2.0 * (s + d),
            })
        elif isinstance(piece, Halfspaces):
            A, slack = piece.normals, piece.offsets - piece.normals @ x
            cons.append({
                "type": "ineq",
                "fun": lambda d, A=A, b=slack: b - A @ d,
                "jac": lambda d, A=A: -A,
            })
        elif isinstance(piece, Intersection):
            for member in piece.members:
                add(member)
        else:
            raise TypeError(f"no reference constraints for {type(piece).__name__}")

    add(region)
    cons.append({"type": "ineq", "fun": lambda d: 1.0 - d @ d, "jac": lambda d: -2.0 * d})
    bounds = None
    if np.isfinite(lower).any() or np.isfinite(upper).any():
        bounds = [
            (lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
            for lo, hi in zip(lower, upper)
        ]
    return bounds, cons, lower, upper


def reference_criticality(grad, x, region):
    """``pi_f(x)`` for the gradient ``grad`` at ``x`` over ``region``."""
    g = np.asarray(grad, dtype=float)
    x = np.asarray(x, dtype=float)
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return 0.0
    if isinstance(region, WholeSpace):
        return gnorm
    u = g / gnorm
    bounds, cons, lower, upper = _constraints(region, x, x.size)

    def violation(d):
        return max([0.0, float(np.max(lower - d)), float(np.max(d - upper))]
                   + [float(-np.min(np.atleast_1d(c["fun"](d)))) for c in cons])

    if violation(-u) == 0.0:
        return gnorm  # the whole unit step along -g is feasible
    best, message = None, ""
    for d0 in (np.zeros_like(x), -u):
        res = minimize(
            lambda d: float(u @ d), np.clip(d0, lower, upper), jac=lambda d: u,
            method="SLSQP", bounds=bounds, constraints=cons,
            options={"ftol": SLSQP_FTOL, "maxiter": SLSQP_MAXITER},
        )
        message = res.message
        if violation(res.x) <= FEASIBILITY_TOL and (best is None or u @ res.x < best):
            best = float(u @ res.x)
    if best is None:
        raise YardstickError(f"SLSQP found no feasible answer at x={x.tolist()}: {message}")
    return gnorm * max(0.0, -best)
