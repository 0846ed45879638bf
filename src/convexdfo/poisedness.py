"""Poisedness verification and construction of well-poised interpolation sets.

A point set is poised at level Lambda when every one of its Lagrange
polynomials stays within [-Lambda, Lambda] on the feasible part of the
trust region, B(x, min(radius, 1)) intersected with the region.  This is
checked by maximizing |l_t| with a multi-start projected-gradient ascent;
a found violation is always genuine, while certification quality rests on
the start coverage (interpolation points, axis points, random feasible
points) plus an independent grid cross-check in the tests.

Two constructive procedures are provided:

* :func:`initial_invertible_set` places a structured pattern of axis and
  cross points (ignoring the region), then replaces each infeasible point
  by a feasible one at which its own Lagrange polynomial is nonzero, which
  keeps the interpolation system invertible throughout.
* :func:`improve_to_poised` repeatedly swaps out the point whose Lagrange
  polynomial violates the level most, each swap multiplying |det F| by at
  least Lambda^2, which forces termination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    TrustRegionProjector,
    contains,
    shrink_into,
)
from .linear_models import InterpolationSet
from .quadratic_models import SignedLogDet, assemble_system, det_after_point_swap
from .sampling import sample_feasible_in_ball

__all__ = [
    "PoisednessCertificate",
    "SubsolverStats",
    "SwapRecord",
    "PoisednessImprovementError",
    "ThinRegionError",
    "maximize_abs_lagrange",
    "check_poisedness",
    "structured_initial_points",
    "initial_invertible_set",
    "improve_to_poised",
]

N_RANDOM_STARTS = 20
MAX_ASCENT_ITERATIONS = 200
PROJECTED_GRADIENT_TOL = 1e-8
# Floating-point reading of "nonzero Lagrange value" for replacements.
REPLACEMENT_TOL = 1e-8
GEOMETRY_SLACK = 1e-9


class PoisednessImprovementError(RuntimeError):
    """Improvement loop exceeded its swap cap; carries the swap log."""

    def __init__(self, message, swap_log):
        super().__init__(message)
        self.swap_log = swap_log


class ThinRegionError(RuntimeError):
    """No feasible point with a usable Lagrange value was found."""


@dataclass
class SubsolverStats:
    """Bookkeeping from the Lagrange maximization subsolver."""

    starts: int = 0
    iterations: int = 0
    best_values: list = field(default_factory=list)


@dataclass
class PoisednessCertificate:
    """Outcome of a poisedness check.

    ``lambda_observed`` is the largest |l_t| value the subsolver found
    (at least 1 whenever an interpolation point is itself feasible and in
    the search ball); ``verified`` also requires the geometry side: every
    point feasible and within ``beta * min(radius, 1)`` of the base.
    """

    lambda_observed: float
    witness_index: int
    witness_point: np.ndarray | None
    verified: bool
    reason: str
    per_polynomial: np.ndarray | None = None
    stats: SubsolverStats | None = None


@dataclass
class SwapRecord:
    """One point replacement in the improvement loop."""

    index: int
    point: np.ndarray
    lagrange_value: float
    predicted_det: SignedLogDet
    actual_det: SignedLogDet


def _as_rng(rng):
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(0 if rng is None else rng)


def _search_radius(system, delta=None):
    return min(delta if delta is not None else system.radius, 1.0)


def _ascent_starts(system, region, x, r, rng):
    """Start points: interpolation points, axis points, random feasible points."""
    n = x.size
    axis = np.concatenate([x + r * np.eye(n), x - r * np.eye(n)], axis=0)
    random_pts = sample_feasible_in_ball(rng, region, x, r, N_RANDOM_STARTS)
    starts = np.concatenate([system.points, axis, random_pts], axis=0)
    return TrustRegionProjector(region, x, r)(starts)


class _StackedQuadratics:
    """Several quadratics with a shared base, evaluated per-row by index."""

    def __init__(self, polys):
        self.base = polys[0].base
        self.c = np.array([q.c for q in polys])
        self.g = np.array([q.g for q in polys])
        self.H = np.array([q.hessian() for q in polys])

    def values(self, Y, which):
        D = Y - self.base
        Hd = np.einsum("rij,rj->ri", self.H[which], D)
        return self.c[which] + np.einsum("ri,ri->r", D, self.g[which] + 0.5 * Hd)

    def grads(self, Y, which):
        D = Y - self.base
        return self.g[which] + np.einsum("rij,rj->ri", self.H[which], D)

    def abs_bound_on_ball(self, r):
        """Per-polynomial upper bound for |value| on B(base, r)."""
        gnorm = np.sqrt(np.einsum("ti,ti->t", self.g, self.g))
        hnorm = np.array([np.max(np.abs(np.linalg.eigvalsh(h))) for h in self.H])
        return np.abs(self.c) + gnorm * r + 0.5 * hnorm * r**2


def _ascend_stacked(stack, npolys, starts, region, x, r, early_exit_at=None,
                    skip_bounded_at=None):
    """Multi-start projected-gradient ascent on |l_t| for all t at once.

    One ascent state row per (polynomial, sign, start) triple, so every
    projection call covers the whole sweep.  Returns per-polynomial best
    values and points plus the iteration count.  With ``early_exit_at``
    set, stops as soon as any row exceeds it (a found violation is always
    genuine; only the above/below answer is needed then).  With
    ``skip_bounded_at``, polynomials whose interval bound on the search
    ball already sits below the threshold keep only their start values
    (they cannot cross the threshold, so their exact maxima are not
    needed).
    """
    proj = TrustRegionProjector(region, x, r)

    m = len(starts)
    Y = np.tile(starts, (2 * npolys, 1))
    which = np.repeat(np.arange(npolys), 2 * m)
    signs = np.tile(np.repeat([1.0, -1.0], m), npolys)
    vals = signs * stack.values(Y, which)
    steps = np.full(len(Y), r)
    active = np.ones(len(Y), dtype=bool)
    if skip_bounded_at is not None:
        # Displacements from the polynomial base stay within this radius.
        reach = r + float(np.linalg.norm(x - stack.base))
        bounded = stack.abs_bound_on_ball(reach) <= skip_bounded_at
        active &= ~bounded[which]

    best_vals = np.full(npolys, -np.inf)
    best_pts = np.empty((npolys, x.size))

    def record(rows):
        if len(rows) == 0:
            return
        np.maximum.at(best_vals, which[rows], vals[rows])
        hits = rows[vals[rows] >= best_vals[which[rows]]]
        best_pts[which[hits]] = Y[hits]

    record(np.arange(len(Y)))
    iterations = 0

    for _ in range(MAX_ASCENT_ITERATIONS):
        if early_exit_at is not None and best_vals.max() > early_exit_at:
            break
        if not np.any(active):
            break
        iterations += 1
        if iterations > 30:
            # Grace period over: drop rows clearly dominated within their
            # own polynomial (their basin has been covered by a better start).
            lagging = vals < best_vals[which] - 1e-4 * (1.0 + np.abs(best_vals[which]))
            active &= ~lagging
        idx = np.flatnonzero(active)
        G = signs[idx, None] * stack.grads(Y[idx], which[idx])
        # Keep probe and candidate displacements within the search ball so
        # the intersection projections only see nearby queries.
        norms = np.linalg.norm(G, axis=1, keepdims=True)
        G = G * np.minimum(1.0, r / np.maximum(norms, 1e-300))

        # First-order stationarity via the (clipped) unit-step gradient mapping.
        pg = proj(Y[idx] + G) - Y[idx]
        converged = np.linalg.norm(pg, axis=1) <= PROJECTED_GRADIENT_TOL
        active[idx[converged]] = False
        idx, G = idx[~converged], G[~converged]
        if idx.size == 0:
            continue

        # Backtracking: halve per-row steps until the value improves.
        pending = np.ones(idx.size, dtype=bool)
        for _halving in range(40):
            rows = np.flatnonzero(pending)
            cand = proj(Y[idx[rows]] + steps[idx[rows], None] * G[rows])
            cand_vals = signs[idx[rows]] * stack.values(cand, which[idx[rows]])
            accepted = cand_vals > vals[idx[rows]] + 1e-15
            if np.any(accepted):
                takers = idx[rows[accepted]]
                gain = cand_vals[accepted] - vals[takers]
                Y[takers] = cand[accepted]
                vals[takers] = cand_vals[accepted]
                record(takers)
                # Rows whose gains have gone negligible are done (their
                # remaining headroom is far below the certificate tolerance).
                stalled = takers[gain <= 1e-8 * (1.0 + np.abs(vals[takers]))]
                active[stalled] = False
                pending[rows[accepted]] = False
            if not np.any(pending):
                break
            steps[idx[rows[~accepted]]] *= 0.5
        # Gentle step growth for rows that accepted; park the stuck ones.
        steps[idx[~pending]] = np.minimum(steps[idx[~pending]] * 2.0, r)
        active[idx[pending]] = False

    return best_vals, best_pts, iterations


def maximize_abs_lagrange(system, t, region, x=None, delta=None, early_exit_at=None, rng=None):
    """Estimate ``max |l_t|`` over the feasible trust-region ball.

    Heuristic (best-found) maximizer; see the module docstring for the
    start set.  Returns ``(value, argmax point)``.
    """
    rng = _as_rng(rng)
    x = system.base if x is None else np.asarray(x, float)
    r = _search_radius(system, delta)
    starts = _ascent_starts(system, region, x, r, rng)
    stack = _StackedQuadratics([system.lagrange_polynomial(t)])
    values, points, _ = _ascend_stacked(
        stack, 1, starts, region, x, r, early_exit_at=early_exit_at
    )
    return float(values[0]), points[0]


def _sweep(system, region, x, r, rng, early_exit_at=None, skip_bounded_at=None):
    """Maximize every Lagrange polynomial; returns (values, points, stats)."""
    starts = _ascent_starts(system, region, x, r, rng)
    p = system.npoints
    stack = _StackedQuadratics([system.lagrange_polynomial(t) for t in range(p)])
    values, points, iterations = _ascend_stacked(
        stack, p, starts, region, x, r,
        early_exit_at=early_exit_at, skip_bounded_at=skip_bounded_at,
    )
    stats = SubsolverStats(
        starts=len(starts), iterations=iterations, best_values=[float(v) for v in values]
    )
    return values, points, stats


def _geometry_ok(system, region, x, r, beta):
    dists = np.linalg.norm(system.points - x, axis=1)
    # Slack relative to r, plus the rounding of stored coordinates of size ||x||.
    rounding = np.finfo(float).eps * np.linalg.norm(x)
    if np.any(dists > beta * r * (1.0 + GEOMETRY_SLACK) + rounding):
        return False, "point outside beta * min(radius, 1) ball"
    for y in system.points:
        if not contains(region, y, 1e-9 * (1.0 + float(np.linalg.norm(y)))):
            return False, "infeasible interpolation point"
    return True, ""


def check_poisedness(system, region, lam, beta=1.0, x=None, delta=None, rng=None,
                     early_exit=True):
    """Poisedness certificate for an interpolation system at level ``lam``.

    Works for both quadratic interpolation systems and regression bases
    (the regression notion additionally requires the displacements to span,
    which is the basis' nondegeneracy flag).  Verification requires the
    geometry bounds and no Lagrange polynomial found above ``lam``.
    """
    if lam < 1.0:
        raise ValueError("poisedness level must be at least 1")
    rng = _as_rng(rng)
    x = system.base if x is None else np.asarray(x, float)
    r = _search_radius(system, delta)

    if not system.nondegenerate:
        return PoisednessCertificate(
            lambda_observed=np.inf,
            witness_index=-1,
            witness_point=None,
            verified=False,
            reason="singular interpolation system",
        )
    ok, why = _geometry_ok(system, region, x, r, beta)
    values, points, stats = _sweep(
        system, region, x, r, rng,
        early_exit_at=lam if early_exit else None,
        skip_bounded_at=lam if early_exit else None,
    )
    worst = int(np.argmax(values))
    lam_obs = float(values[worst])
    verified = ok and lam_obs <= lam
    return PoisednessCertificate(
        lambda_observed=lam_obs,
        witness_index=worst,
        witness_point=points[worst],
        verified=verified,
        reason="" if verified else (why or f"Lagrange polynomial above {lam}"),
        per_polynomial=values,
        stats=stats,
    )


def structured_initial_points(x, delta, p):
    """Deterministic pattern of p points in B(x, min(delta, 1)).

    Base point first, then plus/minus axis steps of length r = min(delta, 1),
    then diagonal pair steps ``x + (r / sqrt(2)) (e_s + e_t)`` for s < t in
    lexicographic order (normalized onto the radius-r sphere so the whole
    pattern stays inside the search ball).  The pattern ignores the feasible
    region; its interpolation system is invertible, which is verified
    numerically by the callers.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    r = min(delta, 1.0)
    pts = [x.copy()]
    for i in range(min(n, p - 1)):
        pts.append(x + r * np.eye(n)[i])
    for i in range(min(n, p - n - 1)):
        pts.append(x - r * np.eye(n)[i])
    pairs = [(s, t) for s in range(n) for t in range(s + 1, n)]
    for s, t in pairs[: p - len(pts)]:
        pts.append(x + (r / np.sqrt(2.0)) * (np.eye(n)[s] + np.eye(n)[t]))
    if len(pts) != p:
        raise ValueError(f"cannot place {p} structured points in dimension {n}")
    return np.array(pts)


def initial_invertible_set(region, x, delta, p, rng=None):
    """Feasible interpolation set with an invertible system (two stages).

    Stage 1 places the structured pattern without regard to the region;
    stage 2 walks the points once, replacing each infeasible one by a
    feasible point where its own Lagrange polynomial is meaningfully
    nonzero (above ``REPLACEMENT_TOL``), found by the ascent subsolver.
    Each index is visited at most once, so at most p replacements occur.
    """
    rng = _as_rng(rng)
    x = np.asarray(x, dtype=float)
    if not contains(region, x):
        raise ValueError("base point must be feasible")
    iset = InterpolationSet(x, delta, structured_initial_points(x, delta, p))
    system = assemble_system(iset)  # structured pattern: invertible by construction
    r = min(delta, 1.0)

    for t in range(p):
        y_t = iset.points[t]
        if region.is_member(y_t):
            continue
        # Any clearly nonzero Lagrange value will do here, so stop the
        # search once a comfortably large one appears.
        value, point = maximize_abs_lagrange(
            system, t, region, x, delta, early_exit_at=0.5, rng=rng
        )
        if value <= REPLACEMENT_TOL:
            raise ThinRegionError(
                f"region too thin for invertible geometry: best |l_{t}| = {value:.3e} "
                f"within B(x, {r}) over the feasible set"
            )
        if not region.is_member(point):  # rounding left it just outside
            point = x + shrink_into(region, x, point - x)
        iset = iset.replace_point(t, point)
        system = assemble_system(iset)
    return iset


def improve_to_poised(iset, region, x, delta, p, lam, rng=None, max_swaps=None):
    """Produce a set poised at level ``lam`` inside the feasible ball.

    Reinitializes (via :func:`initial_invertible_set`) when no set is
    given, or the given one has the wrong size, a singular system, a point
    outside B(x, min(delta, 1)), or an infeasible point.  Then greedily
    swaps the worst Lagrange violation until none exceeds ``lam``; each
    swap multiplies |det F| by at least ``lam^2``, logged with predicted
    and recomputed determinants.

    Returns ``(set, certificate, swap_log)``.
    """
    if not lam > 1.0:
        raise ValueError("improvement requires a poisedness level above 1")
    rng = _as_rng(rng)
    x = np.asarray(x, dtype=float)
    if not contains(region, x):
        raise ValueError("base point must be feasible")
    r = min(delta, 1.0)
    cap = max_swaps if max_swaps is not None else 100 * p

    system = None
    needs_init = iset is None or iset.npoints != p or iset.dimension != x.size
    if not needs_init:
        work = InterpolationSet(x, delta, iset.points.copy())
        system = assemble_system(work, require_invertible=False)
        dists = np.linalg.norm(work.points - x, axis=1)
        needs_init = (
            not system.invertible
            or float(np.max(dists, initial=0.0)) > r * (1.0 + GEOMETRY_SLACK)
            or not work.feasible(region)
        )
    if needs_init:
        work = initial_invertible_set(region, x, delta, p, rng=rng)
        system = assemble_system(work)

    swap_log = []
    while True:
        values, points, stats = _sweep(system, region, x, r, rng, skip_bounded_at=lam)
        worst = int(np.argmax(values))
        if values[worst] <= lam:
            ok, why = _geometry_ok(system, region, x, r, 1.0)
            cert = PoisednessCertificate(
                lambda_observed=float(values[worst]),
                witness_index=worst,
                witness_point=points[worst],
                verified=ok,
                reason="" if ok else why,
                per_polynomial=values,
                stats=stats,
            )
            return work, cert, swap_log
        if len(swap_log) >= cap:
            raise PoisednessImprovementError(
                f"poisedness improvement did not settle within {cap} swaps "
                f"(worst |l_t| = {values[worst]:.3e})",
                swap_log,
            )
        y_new = points[worst]
        if not region.is_member(y_new):  # rounding left it just outside
            y_new = x + shrink_into(region, x, y_new - x)
        predicted = det_after_point_swap(system, worst, y_new)
        work = work.replace_point(worst, y_new)
        system = assemble_system(work)
        swap_log.append(
            SwapRecord(
                index=worst,
                point=y_new,
                lagrange_value=float(values[worst]),
                predicted_det=predicted,
                actual_det=system.det,
            )
        )
