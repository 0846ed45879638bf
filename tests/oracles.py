"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the library's computational paths:
plain loops, dense grids with local refinement, numpy lstsq/slogdet.
"""

from collections import Counter

import numpy as np


def row_iterates(record, evaluated, values=None, sets=None):
    """The iterate of every row, by row ``k``.

    Given ``sets``, the set each row modelled by row ``k``, it is the base
    of the row's set; otherwise the first evaluated point whose value (in
    ``values``, the evaluation log's values) is ``row.f``.
    """
    if sets is not None:
        return {row.k: sets[row.k].base for row in record.rows}
    first = {}
    for y, value in zip(evaluated, values):
        first.setdefault(value, y)
    return {row.k: first[row.f] for row in record.rows}


def successful_step_lengths(record, evaluated, iterates):
    """||s|| of every successful row, by row ``k``: a successful row's trial
    is evaluation ``row.evals - 1``, and its step starts at the row's
    iterate (``row_iterates``)."""
    return {row.k: float(np.linalg.norm(evaluated[row.evals - 1] - iterates[row.k]))
            for row in record.rows if row.step_kind == "successful"}


def check_radius_discipline(record, config, evaluated, values=None, sets=None):
    """Assert the trust-region radius rule on each row and the row after it.

    ``evaluated`` and ``values`` are the evaluation log, points and their
    values in call order; ``sets`` the set each row modelled, by row ``k``.
    One of ``values`` and ``sets`` is needed to follow the iterate
    (``row_iterates``).

    - successful, rho >= 0.7: delta grows to gamma_inc * ||s|| when that is
      larger, never past delta_max;
    - successful, eta <= rho < 0.7: delta stays;
    - successful, either way: the next row's iterate is not the row's, so
      no success leaves x (and the set it is the lowest point of) as it is;
    - unsuccessful: one gamma_dec cut;
    - model-improving with pi_m < eps_criticality: straight to
      min(delta, max(mu * pi_m, delta_min)), so delta stays where
      mu * pi_m >= delta.  Given ``sets``, a next row that keeps the
      iterate models a set built at that radius;
    - any other model-improving row: stays;
    - criticality: the model is fully linear, and the row cuts once,
      straight to min(gamma_dec * delta, max(mu * pi_m, delta_min)).
      Where that cut is at least delta_min, the row spends no evaluation
      only when it keeps its set, and it keeps its set only through a
      one-step cut.  Given ``sets``, the set each row modelled by row
      ``k``, a row keeps its set exactly when the cut is within one cut of
      the set's radius, and the next row models that same set;
    - a move: the iterate of a row goes to a lower point of its set that is
      not the last row's successful trial (or, at the first row, is not the
      start).  It never follows a criticality row, whose next row keeps its
      iterate, and it leaves delta to the last row's rule above.

    Returns a Counter of the branches seen: ``held`` (middle-band successes
    whose step would have grown delta, where the 0.7 threshold shows),
    ``mu_pi_m`` and ``delta_min`` (criticality cuts deeper than one step
    that land there), ``kept`` (criticality rows that kept their set),
    ``uncertified_cut`` (model-improving rows with pi_m < eps_criticality
    that cut delta) and ``moved`` (the moves above, the first row's
    included).
    """
    seen = Counter()
    iterates = row_iterates(record, evaluated, values, sets)
    steps = successful_step_lengths(record, evaluated, iterates)
    rows = record.rows
    if rows:
        seen["moved"] += not np.array_equal(iterates[rows[0].k], evaluated[0])
    for i, row in enumerate(rows):
        delta = row.delta
        nxt = rows[i + 1] if i + 1 < len(rows) else None
        if nxt is not None:
            assert nxt.f <= row.f
            x, x_next = iterates[row.k], iterates[nxt.k]
            if row.step_kind == "criticality":
                np.testing.assert_array_equal(x_next, x)
                assert nxt.f == row.f
            elif row.step_kind == "successful":
                assert not np.array_equal(x_next, x)
                seen["moved"] += not np.array_equal(x_next, evaluated[row.evals - 1])
            else:
                seen["moved"] += not np.array_equal(x_next, x)
        target = max(config.mu * row.pi_m, config.delta_min)
        if row.step_kind == "model-improving" and row.pi_m < config.eps_criticality:
            cut = min(delta, target)
            seen["uncertified_cut"] += cut < delta
            if nxt is not None:
                assert nxt.delta == cut
                if sets is not None and np.array_equal(iterates[nxt.k], iterates[row.k]):
                    assert sets[nxt.k].radius == cut
            continue
        if row.step_kind == "criticality":
            assert row.fully_linear
            cut = min(config.gamma_dec * delta, target)
            if nxt is not None:
                assert nxt.delta == cut
            if cut < config.gamma_dec * delta:
                seen["mu_pi_m" if target > config.delta_min else "delta_min"] += 1
            if i == 0 or cut < config.delta_min:
                continue  # no count before the first row; no repair below delta_min
            kept = row.evals == rows[i - 1].evals
            seen["kept"] += kept
            if kept:
                assert cut == config.gamma_dec * delta
            if sets is not None:
                radius = sets[row.k].radius
                assert kept == (config.gamma_dec * radius <= cut <= radius)
                if kept and nxt is not None:
                    new = sets[nxt.k]
                    assert new.radius == radius
                    np.testing.assert_array_equal(new.base, sets[row.k].base)
                    np.testing.assert_array_equal(new.points, sets[row.k].points)
            continue
        if nxt is None:
            continue
        after = nxt.delta
        if row.step_kind == "successful":
            assert row.rho >= config.eta
            grown = min(max(delta, config.gamma_inc * steps[row.k]), config.delta_max)
            if row.rho >= 0.7:
                assert after == grown
            else:
                assert after == delta
                seen["held"] += grown > delta
        elif row.step_kind == "unsuccessful":
            assert after == config.gamma_dec * delta
        else:
            assert after == delta
    return seen


def grid_project(region, y, lo, hi, levels=16, base_cells=81, zoom=3.0):
    """Projection oracle: dense grid over [lo, hi]^n with nested refinement.

    Starts from a coarse grid over the bounding box, keeps the feasible
    point closest to ``y`` and zooms in around it until the cell size is
    far below 1e-8.  Only intended for small n (2 or 3).
    """
    y = np.asarray(y, dtype=float)
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    n = y.size
    best = None
    for _ in range(levels):
        axes = [np.linspace(lo[i], hi[i], base_cells) for i in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
        feas = region.is_member_batch(pts)
        if not np.any(feas):
            # Widen a touch; the box may have missed the region.
            span = hi - lo
            lo -= 0.5 * span
            hi += 0.5 * span
            continue
        cand = pts[feas]
        d = np.linalg.norm(cand - y, axis=1)
        best = cand[np.argmin(d)]
        cell = (hi - lo) / (base_cells - 1)
        lo = best - zoom * cell
        hi = best + zoom * cell
    return best


def arc_projection(center, radius, y, feasible, theta_lo=0.0, theta_hi=2 * np.pi,
                   coarse=200_000):
    """Projection-onto-arc oracle for 2-d cases where the ball is active.

    Coarse angular grid to bracket the feasible minimizer, then bisection on
    the sign of the distance derivative (linear crossing, so this reaches
    machine precision where a value-comparison search would stall at
    sqrt(eps)).
    """
    center = np.asarray(center, dtype=float)
    y = np.asarray(y, dtype=float)

    def point(theta):
        return center + radius * np.array([np.cos(theta), np.sin(theta)])

    def dprime(theta):
        # d/dtheta of 0.5 * ||y - point(theta)||^2
        p = point(theta)
        tangent = radius * np.array([-np.sin(theta), np.cos(theta)])
        return -(y - p) @ tangent

    thetas = np.linspace(theta_lo, theta_hi, coarse)
    pts = center + radius * np.column_stack([np.cos(thetas), np.sin(thetas)])
    ok = np.array([feasible(p) for p in pts])
    d = np.where(ok, np.linalg.norm(pts - y, axis=1), np.inf)
    k = int(np.argmin(d))
    lo = thetas[max(k - 1, 0)]
    hi = thetas[min(k + 1, coarse - 1)]
    if dprime(lo) > 0 or dprime(hi) < 0:
        return pts[k]  # minimizer pinned by feasibility, not by the arc
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dprime(mid) < 0:
            lo = mid
        else:
            hi = mid
    return point(0.5 * (lo + hi))


def grid_criticality(g, x, region, radius=1.0, step=1e-3, refine=2):
    """Dense-grid value of min g.d over ||d|| <= radius, x + d feasible.

    Coarse grid at ``step``, then zoomed local grids around the coarse
    argmin (factor 50 per level) to push the granularity error below the
    comparison tolerances.
    """
    g = np.asarray(g, dtype=float)
    x = np.asarray(x, dtype=float)

    def scan(center, half, cell):
        axes = [np.arange(center[i] - half, center[i] + half + cell, cell)
                for i in range(x.size)]
        best_val, best_d = 0.0, np.zeros_like(x)  # d = 0 is always admissible
        grid0 = axes[0]
        rest = np.meshgrid(*axes[1:], indexing="ij") if x.size > 1 else []
        rest_pts = (np.column_stack([m.ravel() for m in rest])
                    if x.size > 1 else np.zeros((1, 0)))
        for d0 in grid0:
            D = np.column_stack([np.full(len(rest_pts), d0), rest_pts])
            keep = np.einsum("ij,ij->i", D, D) <= radius**2
            if not np.any(keep):
                continue
            D = D[keep]
            feas = region.is_member_batch(x + D)
            if not np.any(feas):
                continue
            vals = D[feas] @ g
            k = int(np.argmin(vals))
            if vals[k] < best_val:
                best_val, best_d = float(vals[k]), D[feas][k]
        return best_val, best_d

    best_val, best_d = scan(np.zeros_like(x), radius, step)
    cell = step
    for _ in range(refine):
        half = 2.0 * cell
        cell = half / 50.0
        val, d = scan(best_d, half, cell)
        if val < best_val:
            best_val, best_d = val, d
    return abs(best_val)


def kkt_lagrange_values(system, ys):
    """All p Lagrange values at each row of ``ys``, shape (len(ys), p).

    The KKT basis form ``e_t^T F^{-1} phi(y)``, independent of the
    factored stack: ``phi(y)`` is built from the scaled displacements ``Z``
    as ``(0.5 (Z z)^2, 1, z)`` with ``z = (y - base) / scale``, and the
    columns of ``lagrange_solutions`` are ``F^{-1} e_t``.
    """
    Zs = (np.atleast_2d(np.asarray(ys, dtype=float)) - system.base) / system.scale
    W = Zs @ system.Z.T
    phi = np.column_stack([0.5 * W**2, np.ones(len(Zs)), Zs])
    return phi @ system.lagrange_solutions


def design_matrix(points, base):
    """Regression design matrix with rows ``[1, (y_t - base)^T]`` (plain loop)."""
    base = np.asarray(base, dtype=float)
    return np.array([[1.0, *(np.asarray(y, dtype=float) - base)] for y in points])


def regression_lagrange_values(points, base, ys):
    """All p regression Lagrange values at each row of ``ys``, shape (len(ys), p).

    ``l(y) = pinv(M)^T [1; y - base]`` with numpy's own pseudoinverse of
    the design matrix ``M``.
    """
    D = np.atleast_2d(np.asarray(ys, dtype=float)) - np.asarray(base, dtype=float)
    return np.column_stack([np.ones(len(D)), D]) @ np.linalg.pinv(design_matrix(points, base))


def grid_lagrange_max(system, region, x, r, step=1.5e-3, refine=0):
    """Dense-grid maxima of all |l_t| over B(x, r) and the region (n = 2).

    ``system`` is an interpolation system or a regression basis.  Each
    maximum starts from the system's own points that are feasible and in
    the ball, so a maximum at one of them (on the boundary, say) is never
    missed by the grid.  With ``refine`` > 0, zooms in around each
    polynomial's argmax that many times (factor 50 per level), pushing the
    one-sided grid granularity error far below the coarse step.
    """
    x = np.asarray(x, dtype=float)
    p = system.npoints
    if hasattr(system, "lagrange_solutions"):
        def lagrange_values(pts):
            return kkt_lagrange_values(system, pts)
    else:
        def lagrange_values(pts):
            return regression_lagrange_values(system.points, system.base, pts)

    def update(best, arg, pts):
        keep = np.einsum("ij,ij->i", pts - x, pts - x) <= r**2
        pts = pts[keep]
        if len(pts) == 0:
            return
        pts = pts[region.is_member_batch(pts)]
        if len(pts) == 0:
            return
        vals = np.abs(lagrange_values(pts))
        rows = vals.argmax(axis=0)
        chunk_best = vals[rows, np.arange(p)]
        better = chunk_best > best
        best[better] = chunk_best[better]
        arg[better] = pts[rows[better]]

    def scan(lo0, hi0, lo1, hi1, cell, best, arg):
        xs = np.arange(lo0, hi0 + cell, cell)
        ys = np.arange(lo1, hi1 + cell, cell)
        for xv in np.array_split(xs, max(1, len(xs) // 200)):
            mesh = np.meshgrid(xv, ys, indexing="ij")
            update(best, arg, np.column_stack([m.ravel() for m in mesh]))
        return best, arg

    best, arg = np.zeros(p), np.tile(x, (p, 1))
    update(best, arg, np.asarray(system.points, dtype=float))
    scan(x[0] - r, x[0] + r, x[1] - r, x[1] + r, step, best, arg)
    cell = step
    for _ in range(refine):
        window = 2.0 * cell
        cell = window / 50.0
        for t in range(p):
            b, a = scan(arg[t, 0] - window, arg[t, 0] + window,
                        arg[t, 1] - window, arg[t, 1] + window, cell,
                        np.zeros(p), np.tile(x, (p, 1)))
            if b[t] > best[t]:
                best[t], arg[t] = b[t], a[t]
    return best


def dense_lagrange_polynomials(system):
    """``(c, g, H)`` of every Lagrange polynomial, one row each.

    For an interpolation system column t of ``lagrange_solutions`` holds
    the multipliers lambda_t, then c_t and the scaled g_t; each Hessian is
    summed densely as ``sum_s lambda_ts z_s z_s^T / scale^2`` over the
    scaled displacements z_s.  A regression basis has affine polynomials
    with coefficients ``lagrange_coeffs``.
    """
    if not hasattr(system, "lagrange_solutions"):
        coeffs = system.lagrange_coeffs
        p, n = coeffs.shape[1], coeffs.shape[0] - 1
        return coeffs[0].copy(), coeffs[1:].T.copy(), np.zeros((p, n, n))
    p, n = system.npoints, system.dimension
    sol = system.lagrange_solutions
    H = np.zeros((p, n, n))
    for t in range(p):
        for s in range(p):
            H[t] += sol[s, t] * np.outer(system.Z[s], system.Z[s])
    return sol[p].copy(), sol[p + 1:].T / system.scale, H / system.scale**2


def assemble_dense_system(points, base, radius):
    """Independent assembly of the scaled interpolation system (plain loops)."""
    points = np.asarray(points, dtype=float)
    base = np.asarray(base, dtype=float)
    p, n = points.shape
    scale = min(radius, 1.0)
    F = np.zeros((p + n + 1, p + n + 1))
    Z = [(points[i] - base) / scale for i in range(p)]
    for i in range(p):
        for j in range(p):
            F[i, j] = 0.5 * float(np.dot(Z[i], Z[j])) ** 2
    for i in range(p):
        F[i, p] = 1.0
        F[p, i] = 1.0
        for k in range(n):
            F[i, p + 1 + k] = Z[i][k]
            F[p + 1 + k, i] = Z[i][k]
    return F


def dense_signed_logdet(points, base, radius):
    """slogdet of the independently assembled scaled system."""
    sign, logabs = np.linalg.slogdet(assemble_dense_system(points, base, radius))
    return float(sign), float(logabs)


def quadratic_monomial_rows(points, base):
    """Design rows (1, d, d_i d_j terms) for direct quadratic interpolation."""
    points = np.asarray(points, dtype=float)
    base = np.asarray(base, dtype=float)
    n = points.shape[1]
    rows = []
    for y in points:
        d = y - base
        row = [1.0] + list(d)
        for i in range(n):
            for j in range(i, n):
                row.append(0.5 * d[i] * d[j] if i == j else d[i] * d[j])
        rows.append(row)
    return np.array(rows)


def full_quadratic_interpolation(points, base, values):
    """Direct full-quadratic interpolation solve; returns (c, g, H)."""
    A = quadratic_monomial_rows(points, base)
    theta = np.linalg.solve(A, np.asarray(values, dtype=float))
    n = points.shape[1]
    c = theta[0]
    g = theta[1:n + 1]
    H = np.zeros((n, n))
    k = n + 1
    for i in range(n):
        for j in range(i, n):
            if i == j:
                H[i, i] = theta[k]
            else:
                H[i, j] = H[j, i] = theta[k]
            k += 1
    return float(c), g, H


def min_frobenius_model(points, base, values):
    """Quadratic interpolant with smallest Frobenius-norm Hessian.

    Independent route: parameterize (c, g, upper-triangular H), take any
    particular interpolating solution, then minimize the weighted Hessian
    norm over the interpolation null space by least squares.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[1]
    A = quadratic_monomial_rows(points, base)
    values = np.asarray(values, dtype=float)
    theta0, *_ = np.linalg.lstsq(A, values, rcond=None)
    _, s, Vt = np.linalg.svd(A)
    rank = int(np.sum(s > max(A.shape) * np.finfo(float).eps * s[0]))
    null = Vt[rank:].T
    # ||H||_F^2 in these coordinates: diagonal entries once, off-diagonals
    # twice (stored once with full weight in the i != j monomial terms).
    weights = np.zeros(A.shape[1])
    k = n + 1
    for i in range(n):
        for j in range(i, n):
            weights[k] = 1.0 if i == j else np.sqrt(2.0)
            k += 1
    W = np.diag(weights)
    if null.shape[1]:
        w, *_ = np.linalg.lstsq(W @ null, -W @ theta0, rcond=None)
        theta = theta0 + null @ w
    else:
        theta = theta0
    c = theta[0]
    g = theta[1:n + 1]
    H = np.zeros((n, n))
    k = n + 1
    for i in range(n):
        for j in range(i, n):
            if i == j:
                H[i, i] = theta[k]
            else:
                H[i, j] = H[j, i] = theta[k]
            k += 1
    return float(c), g, H
