"""Feasible regions: membership tests and Euclidean projections.

A region is a closed convex set with nonempty interior, given either in a
form with an analytic projection (whole space, box, ball, single halfspace)
or as an intersection of such pieces.  Every solver-facing feasible set in
this package is ``C`` or ``C`` intersected with a trust-region ball, and
both go through one route, :func:`_route`.  On whole space the ball's
closed form applies.  When the pieces reduce to one analytic piece plus
one ball, that piece's :meth:`ConvexRegion.project_in_ball` answers
exactly: a sorted-breakpoint root search for boxes, and the nearest point
of the two boundaries' common sphere for balls and single halfspaces.
Anything else is projected onto with Dykstra's alternating scheme.

All projection routines accept a single point of shape ``(n,)`` or a batch
of shape ``(m, n)``; batches are projected row by row in vectorized form.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvexRegion",
    "WholeSpace",
    "Box",
    "Ball",
    "Halfspaces",
    "Intersection",
    "ProjectionResult",
    "ProjectionError",
    "TrustRegionProjector",
    "project",
    "contains",
    "shrink_into",
    "parse_region",
    "membership_tolerance",
]

# Dykstra stopping rule: largest within-sweep move of the primal iterate.
DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_SWEEPS = 10_000


class ProjectionError(RuntimeError):
    """Iterative projection failed to reach the residual target.

    Carries the last residual so callers can distinguish "nearly there"
    from an ill-posed region specification (e.g. an empty intersection).
    """

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = float(residual)


@dataclass(frozen=True)
class ProjectionResult:
    """Projection of a point onto a region.

    ``iterations`` counts Dykstra sweeps (0 for analytic projections) and
    ``residual`` is the largest within-sweep move of the final sweep
    (0.0 for analytic projections).
    """

    point: np.ndarray
    iterations: int
    residual: float


def membership_tolerance(y):
    """Default membership tolerance, scaled so it behaves under rescaling."""
    return 1e-9 * (1.0 + float(np.linalg.norm(y)))


def _as_batch(y):
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


class ConvexRegion:
    """Base class for closed convex sets with nonempty interior."""

    def __init__(self, dimension):
        self.dimension = int(dimension)
        if self.dimension < 1:
            raise ValueError("region dimension must be positive")

    def project_exact(self, ys):
        """Analytic projection of a batch ``(m, n)``; only if available."""
        raise NotImplementedError

    def project_in_ball(self, ys, ball):
        """Exact projection of each row onto this analytic piece ∩ ``ball``.

        The two exact shortcuts first, then :meth:`_both_active` for the
        rows at which both constraints bind.
        """
        out, rest = _shortcuts(self.project_exact(ys), self, ball, ys)
        if rest.size:
            out[rest] = self._both_active(ys[rest], ball)
        return out

    def is_member(self, y):
        """Exact membership (no tolerance) for a single point.

        Decided by :meth:`is_member_batch` on a batch of one, so the two
        agree to the last bit.
        """
        self._check_dim(y)
        return bool(self.is_member_batch(np.asarray(y, dtype=float)[None, :])[0])

    def is_member_batch(self, ys):
        """Exact membership of each row of a batch ``(m, n)``."""
        raise NotImplementedError

    def distance(self, y):
        """Euclidean distance from ``y`` to the region."""
        if self.is_member(y):
            return 0.0
        return float(np.linalg.norm(np.asarray(y, float) - project(self, y).point))

    def dykstra_pieces(self):
        """Elementary analytic components for Dykstra's scheme."""
        return [self]

    def _check_dim(self, y):
        if np.shape(y)[-1] != self.dimension:
            raise ValueError(
                f"point dimension {np.shape(y)[-1]} != region dimension {self.dimension}"
            )


class WholeSpace(ConvexRegion):
    """All of R^n (the unconstrained case)."""

    def project_exact(self, ys):
        return np.array(ys, dtype=float)

    def is_member_batch(self, ys):
        return np.ones(len(ys), dtype=bool)

    def dykstra_pieces(self):
        return []

    def __repr__(self):
        return f"WholeSpace({self.dimension})"


class Box(ConvexRegion):
    """Axis-aligned box ``lower <= x <= upper`` (componentwise)."""

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if np.any(lower > upper):
            raise ValueError("box requires lower <= upper componentwise")
        if not np.any(lower < upper):
            raise ValueError("box must have nonempty interior in some coordinate")
        super().__init__(lower.size)
        self.lower = lower
        self.upper = upper

    def project_exact(self, ys):
        return np.clip(ys, self.lower, self.upper)

    def _both_active(self, ys, ball):
        # The projection is clip(c + s (y - c)) for the s in (0, 1) at which
        # it meets the sphere.  Per coordinate, clip(c + s d) - c equals
        # clip(s d, lo, hi): constant, then s d, then constant, so
        # phi(s) = ||clip(s d, lo, hi)||^2 is nondecreasing and equals
        # s^2 A + K between consecutive breakpoints.  Sorting the breakpoints
        # locates the root exactly (Helgason, Kennington & Lall, 1980).
        c, r = ball.center, ball.radius
        gap = self.distance(c)
        if gap >= r:
            raise ProjectionError(
                "ball center too far from the box; intersection empty or degenerate",
                gap - r,
            )
        m = len(ys)
        d = ys - c
        lo, hi = self.lower - c, self.upper - c
        moving = d != 0.0
        t_lo, t_hi = lo / np.where(moving, d, 1.0), hi / np.where(moving, d, 1.0)
        enter = np.where(moving, np.minimum(t_lo, t_hi), -np.inf)
        leave = np.where(moving, np.maximum(t_lo, t_hi), -np.inf)
        dd = d * d
        # State at s = 0+: K0 = dist(c, box)^2, A0 sums the linear coordinates.
        a0 = np.sum(np.where((enter <= 0.0) & (leave > 0.0), dd, 0.0), axis=1)
        k0 = float(np.sum(np.clip(0.0, lo, hi) ** 2))
        # Breakpoints after 0 with their changes to (A, K): entering the
        # linear stretch from the near bound, leaving it at the far bound.
        times = np.concatenate(
            [np.where(enter > 0.0, enter, np.inf), np.where(leave > 0.0, leave, np.inf)], axis=1
        )
        order = np.argsort(times, axis=1)
        dA = np.take_along_axis(np.concatenate([dd, -dd], axis=1), order, axis=1)
        dK = np.take_along_axis(
            np.concatenate([-np.where(d > 0, lo, hi) ** 2, np.where(d > 0, hi, lo) ** 2], axis=1),
            order, axis=1,
        )
        t = np.minimum(np.take_along_axis(times, order, axis=1), 1.0)
        A = np.cumsum(np.concatenate([a0[:, None], dA], axis=1), axis=1)
        K = np.cumsum(np.concatenate([np.full((m, 1), k0), dK], axis=1), axis=1)
        j = np.sum((t < 1.0) & (t * t * A[:, :-1] + K[:, :-1] < r * r), axis=1)[:, None]
        stops = np.concatenate([np.zeros((m, 1)), t, np.ones((m, 1))], axis=1)
        first = np.take_along_axis(stops, j, axis=1)
        last = np.take_along_axis(stops, j + 1, axis=1)
        # A and K afresh on the root's stretch, free of the running sums' cancellation.
        g = np.clip(0.5 * (first + last) * d, lo, hi)
        linear = (g > lo) & (g < hi)
        a = np.sum(np.where(linear, dd, 0.0), axis=1, keepdims=True)
        k = np.sum(np.where(linear, 0.0, g * g), axis=1, keepdims=True)
        s = np.sqrt(np.maximum(r * r - k, 0.0) / np.where(a > 0.0, a, 1.0))
        return np.clip(c + np.clip(s, first, last) * d, self.lower, self.upper)

    def is_member_batch(self, ys):
        return np.all((ys >= self.lower) & (ys <= self.upper), axis=1)

    def distance(self, y):
        self._check_dim(y)
        excess = np.maximum(self.lower - y, 0.0) + np.maximum(y - self.upper, 0.0)
        return float(np.linalg.norm(excess))

    def __repr__(self):
        return f"Box({self.lower.tolist()}, {self.upper.tolist()})"


class Ball(ConvexRegion):
    """Euclidean ball of given center and (positive) radius."""

    def __init__(self, center, radius):
        center = np.asarray(center, dtype=float)
        if center.ndim != 1:
            raise ValueError("ball center must be a 1-d array")
        if not radius > 0:
            raise ValueError("ball radius must be positive")
        super().__init__(center.size)
        self.center = center
        self.radius = float(radius)

    def project_exact(self, ys):
        ys = np.asarray(ys, dtype=float)
        diff = ys - self.center
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        factor = np.ones_like(dist)
        outside = dist > self.radius
        factor[outside] = self.radius / dist[outside]
        return self.center + diff * factor[:, None]

    def _both_active(self, ys, ball):
        u = ball.center - self.center
        d = float(np.linalg.norm(u))
        if d + min(self.radius, ball.radius) <= max(self.radius, ball.radius):
            # One ball holds the other: the inner one is the intersection.
            return (self if self.radius <= ball.radius else ball).project_exact(ys)
        if d >= self.radius + ball.radius:
            raise ProjectionError(
                "ball intersection is empty or a single point; region is ill-posed", d
            )
        # The two spheres meet in their radical hyperplane, on a circle of
        # squared radius R^2 - t^2, factored so a small cap does not cancel.
        R, r = self.radius, ball.radius
        t = (d**2 + R**2 - r**2) / (2.0 * d)
        gap = abs(d - R)
        rho_sq = (r - gap) * (r + gap) * (d + R - r) * (d + R + r) / (4.0 * d**2)
        return _onto_cut_sphere(self, u / d, t, rho_sq, ys)

    def is_member_batch(self, ys):
        diff = np.asarray(ys, float) - self.center
        return np.einsum("ij,ij->i", diff, diff) <= self.radius**2

    def distance(self, y):
        self._check_dim(y)
        return max(0.0, float(np.linalg.norm(np.asarray(y, float) - self.center)) - self.radius)

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


class _SingleHalfspace(ConvexRegion):
    """Internal elementary piece ``a^T x <= b`` with a != 0."""

    def __init__(self, normal, offset):
        normal = np.asarray(normal, dtype=float)
        nn = float(np.dot(normal, normal))
        if nn == 0.0:
            raise ValueError("halfspace normal must be nonzero")
        super().__init__(normal.size)
        self.normal = normal
        self.offset = float(offset)
        self._nn = nn

    def project_exact(self, ys):
        ys = np.asarray(ys, dtype=float)
        viol = np.maximum(ys @ self.normal - self.offset, 0.0) / self._nn
        return ys - viol[:, None] * self.normal

    def _both_active(self, ys, ball):
        height = (float(ball.center @ self.normal) - self.offset) / np.sqrt(self._nn)
        if height <= -ball.radius:
            return ball.project_exact(ys)  # the ball lies inside the halfspace
        if height >= ball.radius:
            raise ProjectionError(
                "ball misses the halfspace; intersection empty or a single point",
                height - ball.radius,
            )
        rho_sq = (ball.radius - height) * (ball.radius + height)
        return _onto_cut_sphere(ball, self.normal / np.sqrt(self._nn), -height, rho_sq, ys)

    def is_member_batch(self, ys):
        return ys @ self.normal <= self.offset


class Halfspaces(ConvexRegion):
    """Intersection of halfspaces ``normals @ x <= offsets`` (a polyhedron).

    A single row is projected onto exactly, as its one halfspace; two or
    more rows are handled by Dykstra's scheme over the individual halfspaces.
    """

    def __init__(self, normals, offsets):
        normals = np.atleast_2d(np.asarray(normals, dtype=float))
        offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
        if normals.shape[0] != offsets.size:
            raise ValueError("one offset per halfspace required")
        super().__init__(normals.shape[1])
        self.normals = normals
        self.offsets = offsets
        self._pieces = [
            _SingleHalfspace(n, b) for n, b in zip(normals, offsets)
        ]

    def is_member_batch(self, ys):
        return np.all(ys @ self.normals.T <= self.offsets, axis=1)

    def dykstra_pieces(self):
        return list(self._pieces)

    def __repr__(self):
        return f"Halfspaces({self.normals.tolist()}, {self.offsets.tolist()})"


class Intersection(ConvexRegion):
    """Intersection of regions of equal dimension."""

    def __init__(self, members):
        members = list(members)
        if not members:
            raise ValueError("intersection needs at least one member")
        dims = {m.dimension for m in members}
        if len(dims) != 1:
            raise ValueError("intersection members must share a dimension")
        super().__init__(dims.pop())
        self.members = members

    def is_member_batch(self, ys):
        ok = np.ones(len(ys), dtype=bool)
        for m in self.members:
            ok &= m.is_member_batch(np.asarray(ys, float))
        return ok

    def dykstra_pieces(self):
        pieces = []
        for m in self.members:
            pieces.extend(m.dykstra_pieces())
        return pieces

    def __repr__(self):
        return f"Intersection({self.members!r})"


def _dykstra_batch(pieces, ys):
    """Project each row of ``ys`` onto the intersection of ``pieces``.

    Alternating projections with Dykstra's correction terms, which converge
    to the exact Euclidean projection (plain alternation would only reach a
    feasible point).  Returns ``(points, sweeps, residual)`` where residual
    is the largest within-sweep primal move of the final sweep.
    """
    x = np.array(ys, dtype=float)
    corrections = [np.zeros_like(x) for _ in pieces]
    residual = np.inf
    for sweep in range(1, DYKSTRA_MAX_SWEEPS + 1):
        moved = 0.0
        for i, piece in enumerate(pieces):
            z = x + corrections[i]
            xn = piece.project_exact(z)
            corrections[i] = z - xn
            moved = max(moved, float(np.max(np.linalg.norm(xn - x, axis=1), initial=0.0)))
            x = xn
        residual = moved
        if residual <= DYKSTRA_TOL:
            return x, sweep, residual
    raise ProjectionError(
        f"Dykstra projection did not converge in {DYKSTRA_MAX_SWEEPS} sweeps "
        f"(residual {residual:.3e}); check the region specification",
        residual,
    )


def _shortcuts(onto_piece, piece, ball, ys):
    """The two exact shortcuts for projecting ``ys`` onto ``piece`` and ``ball``.

    ``onto_piece`` (the projections onto the piece, overwritten in place)
    is kept where it lies in the ball; elsewhere the ball projection is
    taken where it lies in the piece.  Returns the points and the indices
    of the rows left over, at which both constraints are active.
    """
    rest = np.flatnonzero(~ball.is_member_batch(onto_piece))
    if rest.size:
        onto_ball = ball.project_exact(ys[rest])
        inside = piece.is_member_batch(onto_ball)
        onto_piece[rest[inside]] = onto_ball[inside]
        rest = rest[~inside]
    return onto_piece, rest


def _route(region, ys, ball=None):
    """Project the rows of ``ys`` onto ``region``, or onto ``region`` ∩ ``ball``.

    The one projection route behind :func:`project_batch` and
    :class:`TrustRegionProjector`; returns ``(points, sweeps, residual)``.
    On whole space every row takes the ball's closed form.  Otherwise
    feasible rows come back unchanged; when the pieces reduce to one
    analytic piece plus at most one ball, that piece's exact method
    answers; any other rows go to Dykstra, after the two exact shortcuts
    when a ball is given.
    """
    ys = np.asarray(ys, dtype=float)
    pieces = region.dykstra_pieces()
    if ball is not None and not pieces:
        return ball.project_exact(ys), 0, 0.0
    out = np.array(ys)
    todo = ~region.is_member_batch(ys)
    if ball is not None:
        todo |= ~ball.is_member_batch(ys)
    if not np.any(todo):
        return out, 0, 0.0
    work = ys[todo]
    if ball is None and len(pieces) == 2 and any(isinstance(p, Ball) for p in pieces):
        ball = next(p for p in pieces if isinstance(p, Ball))
        pieces = [p for p in pieces if p is not ball]
    sweeps, residual = 0, 0.0
    if len(pieces) == 1:
        piece = pieces[0]
        if ball is None:
            out[todo] = piece.project_exact(work)
        else:
            out[todo] = piece.project_in_ball(work, ball)
    elif ball is None:
        out[todo], sweeps, residual = _dykstra_batch(pieces, work)
    else:
        onto_region, sweeps, residual = _route(region, work)
        result, rest = _shortcuts(onto_region, region, ball, work)
        if rest.size:
            result[rest], more, residual = _dykstra_batch(pieces + [ball], work[rest])
            sweeps += more
        out[todo] = result
    return out, sweeps, residual


def project_batch(region, ys):
    """Project a batch ``(m, n)`` onto ``region``; returns (points, iters, residual)."""
    region._check_dim(ys)
    return _route(region, ys)


def project(region, y):
    """Euclidean projection of ``y`` onto ``region``.

    Exact for whole space, boxes, balls and single halfspaces, and for one
    of them intersected with a ball; Dykstra's alternating scheme for
    other halfspace lists and intersections, run until the within-sweep
    move is at most ``DYKSTRA_TOL`` or ``DYKSTRA_MAX_SWEEPS`` sweeps have
    elapsed (then :class:`ProjectionError` is raised).
    """
    ys, single = _as_batch(y)
    points, iters, residual = project_batch(region, ys)
    return ProjectionResult(points[0] if single else points, iters, float(residual))


def contains(region, y, tol=None):
    """Whether ``y`` is within distance ``tol`` of ``region``.

    Decided analytically where the region geometry permits, otherwise via
    the distance to the projected point.  ``tol=None`` uses the scaled
    default :func:`membership_tolerance`.
    """
    y = np.asarray(y, dtype=float)
    region._check_dim(y)
    if tol is None:
        tol = membership_tolerance(y)
    if region.is_member(y):
        return True
    if tol == 0.0:
        return False
    return region.distance(y) <= tol


def _onto_cut_sphere(ball, unit, t, rho_sq, ys):
    """Nearest points to ``ys`` on the sphere of ``ball`` cut by the
    hyperplane ``unit . (z - ball.center) = t`` (``unit`` of length one),
    a circle of squared radius ``rho_sq`` = radius^2 - t^2, which the
    caller computes without cancellation.

    This is the projection onto the ball intersected with a second set
    whose boundary meets the sphere there, valid exactly when both
    constraints are active, i.e. when each single-set projection violates
    the other.  Points on the cut's axis go to a fixed in-plane direction.
    """
    center = ball.center + t * unit
    fallback = np.zeros_like(unit)
    fallback[int(np.argmin(np.abs(unit)))] = 1.0
    fallback -= (fallback @ unit) * unit
    fallback /= np.linalg.norm(fallback)
    offset = ys - center
    tangential = offset - (offset @ unit)[:, None] * unit
    norms = np.sqrt(np.einsum("ij,ij->i", tangential, tangential))
    safe = norms > 0.0
    direction = np.where(
        safe[:, None], tangential / np.where(safe, norms, 1.0)[:, None], fallback
    )
    return center + np.sqrt(max(rho_sq, 0.0)) * direction


class TrustRegionProjector:
    """Reusable projector onto ``region`` intersected with a fixed ball.

    Calls go through the same route as :func:`project_batch`, with the
    ball as one more piece.  The last call's Dykstra sweep count is kept
    on the instance.
    """

    def __init__(self, region, center, radius):
        if not radius > 0:
            raise ValueError("ball radius must be positive")
        self.region = region
        self.ball = Ball(center, radius)
        self.last_sweeps = 0

    def __call__(self, ys):
        out, self.last_sweeps, _ = _route(self.region, ys, self.ball)
        return out


def _pulled(region, x, offset, u):
    """First ``d = offset + u`` with ``x + d`` an exact member as ``u`` is
    shrunk by factors whose gap to 1 starts at one ulp and doubles; None if
    none is."""
    gap = np.finfo(float).eps
    while gap < 1.0:
        u = u * (1.0 - gap)
        gap *= 2.0
        d = offset + u
        if region.is_member(x + d):
            return d
    return None


def shrink_into(region, x, s, points=None):
    """A displacement near ``s`` whose endpoint from ``x``, as rounded, is
    an exact member.

    ``x`` must be a member.  Projections are exact only up to rounding,
    and Dykstra's only to ``DYKSTRA_TOL``, so a point about to be evaluated
    can sit just outside the region.  ``s`` itself comes back when
    ``x + s`` is a member.  Otherwise, in turn: ``x + s`` pulled toward
    ``x`` by factors whose gap to 1 starts at one ulp and doubles; the
    region's own projection of ``x + s`` (``x`` on the same boundary, the
    step along it); and ``x + s`` pulled the same way toward the centroid
    of the exact members among ``points``.  When none is a member the
    displacement is zero, so the endpoint is ``x``; it is never an ``s``
    that ends outside.
    """
    if region.is_member(x + s):
        return s
    d = _pulled(region, x, 0.0, s)
    if d is None:
        try:
            moved = project(region, x + s).point - x
            d = moved if region.is_member(x + moved) else None
        except ProjectionError:
            pass
    if d is None and points is not None:
        members = points[region.is_member_batch(points)]
        if len(members):
            centre = members.mean(axis=0)
            d = _pulled(region, x, centre - x, x + s - centre)
    return np.zeros_like(s) if d is None else d


# ---------------------------------------------------------------------------
# Region specification grammar
#
#   whole(n)
#   box(lower=[...], upper=[...])        box(lo, hi)^n
#   ball(center=[...], radius=r)         ball(r)^n        (centered at origin)
#   halfspace(normal=[...], offset=b)
#   intersect(REGION, REGION, ...)
# ---------------------------------------------------------------------------


def _literal(node):
    try:
        return ast.literal_eval(node)
    except (ValueError, SyntaxError):
        raise ValueError(f"unsupported literal in region spec: {ast.dump(node)}")


def _build_region(node, power=None):
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitXor):
        if power is not None:
            raise ValueError("nested '^' in region spec")
        n = _literal(node.right)
        if not isinstance(n, int) or n < 1:
            raise ValueError("'^' exponent must be a positive integer")
        return _build_region(node.left, power=n)
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
        raise ValueError("region spec must be calls like box(...), ball(...), intersect(...)")
    name = node.func.id
    args = [a for a in node.args]
    kwargs = {k.arg: k.value for k in node.keywords}

    if name == "whole":
        if power is not None:
            raise ValueError("whole(n) takes its dimension directly")
        if args:
            dim = _literal(args[0])
        elif "dimension" in kwargs:
            dim = _literal(kwargs["dimension"])
        else:
            raise ValueError("whole(...) needs a dimension")
        return WholeSpace(int(dim))
    if name == "box":
        if power is not None:
            lo, hi = (_literal(a) for a in args)
            return Box([lo] * power, [hi] * power)
        return Box(_literal(kwargs["lower"]), _literal(kwargs["upper"]))
    if name == "ball":
        if power is not None:
            (radius,) = (_literal(a) for a in args)
            return Ball([0.0] * power, radius)
        return Ball(_literal(kwargs["center"]), _literal(kwargs["radius"]))
    if name == "halfspace":
        if power is not None:
            raise ValueError("halfspace does not take '^'")
        return Halfspaces([_literal(kwargs["normal"])], [_literal(kwargs["offset"])])
    if name == "intersect":
        if power is not None:
            raise ValueError("intersect does not take '^'")
        return Intersection([_build_region(a) for a in args])
    raise ValueError(f"unknown region kind {name!r}; expected whole/box/ball/halfspace/intersect")


def parse_region(text):
    """Parse a region specification string into a :class:`ConvexRegion`.

    Examples: ``box(-1,1)^2``, ``ball(center=[0,0], radius=1)``,
    ``intersect(box(0,2)^2, ball(1.5)^2)``.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse region spec {text!r}: {exc}") from exc
    return _build_region(tree.body)
