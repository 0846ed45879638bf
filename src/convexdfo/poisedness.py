"""Poisedness verification and repair of interpolation sets.

A point set is poised at level Lambda when every one of its Lagrange
polynomials stays within [-Lambda, Lambda] on the feasible part of the
trust region, B(x, min(radius, 1)) intersected with the region.  This is
checked by maximizing |l_t| from many starts with the projected-gradient
polish that also serves the criticality measure and the trust-region step
(:func:`convexdfo.subproblems._polish`).  A found violation is always
genuine, while certification quality rests on the start coverage
(interpolation points, axis points, random feasible points) plus an
independent grid cross-check in the tests.
:func:`check_poisedness` is the one place where such a sweep becomes a
certificate.

A sweep polishes all p polynomials together, one row per
(polynomial, sign, start), each minimizing ``-sign * l_t``.  The
polynomials share one Hessian factor, ``H_t = U^T diag(w_t) U`` with ``U``
the scaled displacements and ``w_t`` the multipliers of ``l_t``, so the
products H_t d for all rows take two matrix products and a sweep's memory
is O(rows * p); no Hessian is stored.  A polynomial whose interval bound on
the search ball, with its exact ||H_t||, is at most the level cannot exceed
it: its rows are never evaluated, and it keeps its best start value.

One check-then-swap loop builds and repairs every set, on the system of
its model kind: the MFN system ``F`` or the regression design matrix
``M``.  Each round checks the set and replaces one point by a feasible
point where that point's Lagrange polynomial is large.  Infeasible points
go first, each for the best point of its own polynomial.  Then, given a
level Lambda, the witness point replaces its polynomial's point while the
check finds a value above Lambda; each such swap multiplies |det F|, or
det(M^T M), by at least Lambda^2, so the loop ends for every Lambda > 1.
For ``F`` see :func:`~convexdfo.quadratic_models.det_swap_factor`.  For
``M``, with ``l(y)`` the regression Lagrange values at y and leverage
``h_t = l_t(y_t) <= 1``, replacing point t by y multiplies det(M^T M) by
``(1 - h_t)(1 + ||l(y)||^2) + l_t(y)^2 >= l_t(y)^2``.  Each swapped set is
built once and carries its system; a swap that leaves it singular raises
:class:`ThinRegionError`.  :func:`initial_invertible_set` runs the loop
with no level on a structured pattern, :func:`improve_to_poised` at its
level on the given set.

The structured pattern places each coordinate axis in its feasible room,
bisected on exact membership, so on a box face or corner the first set and
every rebuild are feasible with no sweep, and their three points per axis
fit a separable quadratic exactly.  Only axes with too little room keep
infeasible points for the loop to swap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import TrustRegionProjector, shrink_into
from .linear_models import InterpolationSet, RegressionBasis, build_design_matrix
from .quadratic_models import MfnSystem, SignedLogDet, assemble_system
from .sampling import sample_feasible_in_ball
from .subproblems import _polish

__all__ = [
    "PoisednessCertificate",
    "SubsolverStats",
    "SwapRecord",
    "PoisednessImprovementError",
    "ThinRegionError",
    "check_poisedness",
    "structured_initial_points",
    "initial_invertible_set",
    "improve_to_poised",
]

N_RANDOM_STARTS = 20
GEOMETRY_SLACK = 1e-9
# Bisections of each axis ray for its feasible room.
AXIS_BISECTIONS = 50

# The system each model kind builds, repairs and certifies its sets on.
_SYSTEM_TYPES = {"mfn-quadratic": MfnSystem, "linear-regression": RegressionBasis}


class PoisednessImprovementError(RuntimeError):
    """Improvement loop exceeded its swap cap; carries the swap log."""

    def __init__(self, message, swap_log):
        super().__init__(message)
        self.swap_log = swap_log


class ThinRegionError(RuntimeError):
    """A repair swap left the interpolation system singular."""


@dataclass
class SubsolverStats:
    """Bookkeeping from the Lagrange maximization subsolver: start points,
    polish rounds, state rows (polynomial, sign, start) and polynomials
    skipped (held at their best start value by the interval bound)."""

    starts: int = 0
    iterations: int = 0
    rows: int = 0
    skipped: int = 0


@dataclass
class PoisednessCertificate:
    """Outcome of a poisedness check.

    ``lambda_observed`` is the largest |l_t| value the subsolver found
    (at least 1 whenever an interpolation point is itself feasible and in
    the search ball); ``verified`` also requires the geometry side: every
    point feasible and within ``min(radius, 1)`` of the base.
    ``per_polynomial`` and ``best_points`` hold each polynomial's best
    |l_t| value and the point where the sweep found it.
    """

    lambda_observed: float
    witness_index: int
    witness_point: np.ndarray | None
    verified: bool
    reason: str
    per_polynomial: np.ndarray | None = None
    best_points: np.ndarray | None = None
    stats: SubsolverStats | None = None


@dataclass
class SwapRecord:
    """One swap of a point above the level in the repair loop, with the
    determinants of the system before and after it."""

    index: int
    point: np.ndarray
    lagrange_value: float
    det_before: SignedLogDet
    det_after: SignedLogDet


def _as_rng(rng):
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(0 if rng is None else rng)


def _ascent_starts(system, region, x, r, rng):
    """Start points: interpolation points, axis points, random feasible points."""
    n = x.size
    axis = np.concatenate([x + r * np.eye(n), x - r * np.eye(n)], axis=0)
    random_pts = sample_feasible_in_ball(rng, region, x, r, N_RANDOM_STARTS)
    starts = np.concatenate([system.points, axis, random_pts], axis=0)
    return TrustRegionProjector(region, x, r)(starts)


def _ascend_stacked(system, starts, region, x, r, lam, early_exit):
    """Maximum of |l_t| for all t at once: :func:`_polish` of ``-sign * l_t``.

    One row per (polynomial, sign, start) triple, so every projection call
    covers the whole sweep.  A row's value only improves, so the final rows
    give each polynomial's best value and point; returns those plus the
    :class:`SubsolverStats`.  Polynomials whose interval bound on the search
    ball is at most ``lam`` cannot exceed it: their rows are never polished
    nor evaluated, and keep their start values from the stack.  With
    ``early_exit``, stops as soon as any row exceeds ``lam`` (a found
    violation is always genuine; only the above/below answer is needed then).
    """
    stack = system.stacked_lagrange()
    npolys, m = len(stack.c), len(starts)
    Y = np.tile(starts, (2 * npolys, 1))
    which = np.repeat(np.arange(npolys), 2 * m)
    signs = np.tile(np.repeat([-1.0, 1.0], m), npolys)
    # Displacements from the polynomial base stay within this radius.
    bounded = stack.abs_bound_on_ball(r + float(np.linalg.norm(x - system.base))) <= lam
    rows = np.flatnonzero(~bounded[which])
    stats = SubsolverStats(starts=m, rows=len(Y), skipped=int(np.count_nonzero(bounded)))
    vals, stats.iterations = _polish(
        stack, which, signs, Y, rows, TrustRegionProjector(region, x, r), r,
        1e-12 * (r + float(np.linalg.norm(x))),
        stop=-lam if early_exit else None)
    at_starts = stack.table(starts)
    found = np.concatenate([at_starts, -at_starts], axis=1)
    found.flat[rows] = -vals  # row order whatever the layout concatenate chose
    best = np.argmax(found, axis=1)
    polys = np.arange(npolys)
    return found[polys, best], Y.reshape(npolys, 2 * m, -1)[polys, best], stats


def _outside_ball(points, x, radius):
    dists = np.linalg.norm(points - x, axis=1)
    rounding = np.finfo(float).eps * np.linalg.norm(x)
    return bool(np.any(dists > radius * (1.0 + GEOMETRY_SLACK) + rounding))


def _misplaced(points, region, x, radius):
    """Why some point is out of place around ``x``; ``""`` when none is.

    A point is misplaced outside B(x, radius), up to a slack relative to the
    radius plus the rounding of stored coordinates of size ||x||, or when it
    is not an exact member of the region.
    """
    region._check_dim(points)
    if _outside_ball(points, x, radius):
        return "point outside min(radius, 1) ball"
    if not region.is_member_batch(points).all():
        return "infeasible interpolation point"
    return ""


def check_poisedness(system, region, lam, rng=None, early_exit=True):
    """Poisedness certificate for an interpolation system at level ``lam``.

    Works for both MFN systems and regression bases, whose nondegeneracy
    also requires the displacements to span.  Verification requires no
    point misplaced (outside B(x, min(radius, 1)) or infeasible), with x
    and radius the system's base and radius, and no Lagrange polynomial
    found above ``lam``.

    Every polynomial is maximized over the feasible search ball, except
    those whose interval bound on the ball is already at most ``lam``: they
    cannot exceed ``lam`` and keep their best start value.  So with
    ``early_exit=False`` the observed level is exact (the full sweep's
    maximum) whenever it exceeds ``lam``; with ``lam = inf`` no polynomial
    ascends and each keeps its best start.  With ``early_exit`` a misplaced
    set gets no sweep (``lambda_observed = inf``), and the sweep stops at
    the first value above ``lam``.
    """
    if lam < 1.0:
        raise ValueError("poisedness level must be at least 1")
    rng = _as_rng(rng)
    x, r = system.base, min(system.radius, 1.0)

    why = ("singular interpolation system" if not system.nondegenerate
           else _misplaced(system.points, region, x, r))
    if why and (early_exit or not system.nondegenerate):
        return PoisednessCertificate(lambda_observed=np.inf, witness_index=-1,
                                     witness_point=None, verified=False, reason=why)
    starts = _ascent_starts(system, region, x, r, rng)
    values, points, stats = _ascend_stacked(
        system, starts, region, x, r, lam, early_exit)
    worst = int(np.argmax(values))
    lam_obs = float(values[worst])
    verified = not why and lam_obs <= lam
    return PoisednessCertificate(
        lambda_observed=lam_obs,
        witness_index=worst,
        witness_point=points[worst],
        verified=verified,
        reason="" if verified else (why or f"Lagrange polynomial above {lam}"),
        per_polynomial=values,
        best_points=points,
        stats=stats,
    )


def _axis_room(region, x, r):
    """Feasible room of ``x`` along +e_i and -e_i: arrays ``(b, a)``, each at most r.

    All 2n rays are bisected together on exact membership
    (``is_member_batch``).  A ray whose full step r is a member gets r
    exactly; every other room is the last step whose point was a member.
    """
    n = x.size
    rays = np.concatenate([np.eye(n), -np.eye(n)])
    room = np.where(region.is_member_batch(x + r * rays), r, 0.0)
    short = np.flatnonzero(room < r)
    if short.size:
        hi = np.full(short.size, r)
        for _ in range(AXIS_BISECTIONS):
            mid = 0.5 * (room[short] + hi)
            inside = region.is_member_batch(x + mid[:, None] * rays[short])
            room[short] = np.where(inside, mid, room[short])
            hi = np.where(inside, hi, mid)
    return room[:n], room[n:]


def structured_initial_points(x, delta, p, region=None):
    """Deterministic pattern of p points in B(x, min(delta, 1)).

    Base point first, then plus/minus axis steps of length r = min(delta, 1),
    then diagonal pair steps ``x + (r / sqrt(2)) (e_s + e_t)`` for s < t in
    lexicographic order (normalized onto the radius-r sphere so the whole
    pattern stays inside the search ball).  Its interpolation system is
    nondegenerate by construction.

    Given a ``region`` containing ``x``, each axis is placed in its
    feasible room (:func:`_axis_room`): b_i along +e_i and a_i along -e_i.
    An axis pair becomes ``x + b_i e_i`` and ``x - a_i e_i`` when
    min(a_i, b_i) >= r/4, or else ``x + s e_i`` and ``x + (s/2) e_i`` when
    the longer side s (b_i, or -a_i) has |s| >= r/2; an axis with only its
    plus point (p <= 2n) becomes ``x + s e_i`` when |s| >= r/2.  Other
    axes, an axis with a point that is not an exact member, and the pair
    steps keep the region-free points, feasible or not, for the repair loop
    to swap.  Where ``x +- r e_i`` are members the axis is the region-free
    one, bit for bit.
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
    pts = np.array(pts)
    if region is None:
        return pts
    b, a = _axis_room(region, x, r)
    axes, rows, steps = [], [], []
    for i in range(min(n, p - 1)):
        own = [1 + i, 1 + n + i] if i < p - n - 1 else [1 + i]
        s = b[i] if b[i] >= a[i] else -a[i]  # the longer side, signed
        if len(own) == 2 and min(a[i], b[i]) >= r / 4:
            step = [b[i], -a[i]]
        elif abs(s) >= r / 2:
            step = [s, s / 2][:len(own)]
        else:
            continue
        axes += [i] * len(own)
        rows += own
        steps += step
    if rows:
        axes = np.array(axes)
        cand = x + np.array(steps)[:, None] * np.eye(n)[axes]
        # Axes move whole: a half step that rounds out of the region would
        # leave its partner's region-free point, possibly a duplicate.
        moves = ~np.isin(axes, axes[~region.is_member_batch(cand)])
        pts[np.array(rows)[moves]] = cand[moves]
    return pts


def _factored(iset, model_kind, required=False):
    """``iset`` carrying a ``model_kind`` system, built unless it has one;
    ``required`` raises :class:`SingularGeometryError` on a singular one."""
    if not isinstance(iset.system, _SYSTEM_TYPES[model_kind]):
        system = (build_design_matrix(iset, require_full_rank=required)
                  if model_kind == "linear-regression"
                  else assemble_system(iset, require_invertible=required))
        iset = replace(iset, system=system)
    return iset


def _repair(work, region, lam, rng, model_kind, cap=None):
    """The check-then-swap loop; returns ``(set, last certificate, swap_log)``.

    Each round checks the set (``lam = None`` checks at ``inf``: every
    polynomial keeps its best start).  The first point that is not an exact
    member of the region and was not swapped yet goes first, for its own
    polynomial's best point.  Otherwise the witness point goes while the
    observed level exceeds ``lam``; only these swaps are logged, at most
    ``cap`` of them.  Their checks exit early at the first value above
    ``lam``, which suffices for the determinant to grow by ``lam^2``; the
    last round finds none, so its certificate is the full sweep's, and the
    set carries it.  With no level and no point left to swap, the loop
    returns without a check.  Each set carries its system; a singular one
    raises :class:`ThinRegionError`.
    """
    tried = set()
    swap_log = []
    while True:
        bad = next((t for t in np.flatnonzero(~region.is_member_batch(work.points))
                    if t not in tried), None)
        if bad is None and lam is None:
            return work, None, swap_log
        cert = check_poisedness(work.system, region, np.inf if lam is None else lam,
                                rng=rng, early_exit=bad is None and lam is not None)
        if bad is not None:
            tried.add(bad)
            t, y_new = bad, cert.best_points[bad]
        elif cert.lambda_observed <= lam:
            return replace(work, cert=cert), cert, swap_log
        elif len(swap_log) >= cap:
            raise PoisednessImprovementError(
                f"poisedness improvement did not settle within {cap} swaps "
                f"(worst |l_t| = {cert.lambda_observed:.3e})", swap_log)
        else:
            t, y_new = cert.witness_index, cert.witness_point
        if not region.is_member(y_new):  # its projection stopped just outside
            d = shrink_into(region, work.base, y_new - work.base, work.points)
            if not d.any():
                raise ThinRegionError(f"no exact member of the region found near the "
                                      f"swap candidate for point {t}")
            y_new = work.base + d
        before, work = work.system, _factored(work.replace_point(t, y_new), model_kind)
        if not work.system.nondegenerate:
            raise ThinRegionError(f"region too thin for invertible geometry: pivot ratio "
                                  f"{work.system.pivot_ratio:.3e} after replacing point {t}")
        if bad is None:
            swap_log.append(SwapRecord(t, y_new, cert.lambda_observed, before.det, work.system.det))


def initial_invertible_set(region, x, delta, p, rng=None, model_kind="mfn-quadratic"):
    """Feasible interpolation set carrying its nondegenerate ``model_kind`` system.

    The structured pattern of the region (:func:`structured_initial_points`,
    each axis in its feasible room) goes through the repair loop with no
    level: each infeasible point left in it is replaced by the best sweep
    start of its own Lagrange polynomial, and a swap that leaves the system
    singular raises :class:`ThinRegionError`.  A pattern with no infeasible
    point comes back as it is, with no sweep.
    """
    x = np.asarray(x, dtype=float)
    if not region.is_member(x):
        raise ValueError("base point must be feasible")
    # The structured pattern is nondegenerate by construction.
    iset = InterpolationSet(x, delta, structured_initial_points(x, delta, p, region))
    return _repair(_factored(iset, model_kind, required=True), region, None, _as_rng(rng),
                   model_kind)[0]


def improve_to_poised(iset, region, x, delta, p, lam, rng=None, max_swaps=None,
                      model_kind="mfn-quadratic"):
    """Produce a set poised at level ``lam`` on the feasible part of B(x, min(delta, 1)).

    The set is built and certified on the Lagrange polynomials of
    ``model_kind``, and ``delta`` becomes its own ``radius``.  Rebuilds
    (via :func:`initial_invertible_set`) when no set is given, or the given
    one has the wrong size, a singular system or a point outside
    B(x, min(delta, 1)) (the certificate's test); an infeasible point inside
    the ball is repaired in place; its system is reused at the same ``x``
    and ``delta``.  Then runs the repair loop at ``lam``: each swap of a
    point above ``lam`` multiplies the determinant by at least ``lam^2``
    and is logged with the determinants before and after it.

    Returns ``(set, certificate of the last check, swap_log)``; the set
    carries its system and that certificate.
    """
    if not lam > 1.0:
        raise ValueError("improvement requires a poisedness level above 1")
    rng = _as_rng(rng)
    x = np.asarray(x, dtype=float)
    if not region.is_member(x):
        raise ValueError("base point must be feasible")

    work = None
    if iset is not None and iset.npoints == p and iset.dimension == x.size:
        same = np.array_equal(iset.base, x) and iset.radius == delta
        work = _factored(InterpolationSet(x, delta, iset.points.copy(),
                                          system=iset.system if same else None), model_kind)
        if not work.system.nondegenerate or _outside_ball(work.points, x, min(delta, 1.0)):
            work = None
    if work is None:
        work = initial_invertible_set(region, x, delta, p, rng=rng, model_kind=model_kind)
    return _repair(work, region, lam, rng, model_kind,
                   max_swaps if max_swaps is not None else 100 * p)
