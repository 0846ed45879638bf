import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexdfo import geometry as geo
from convexdfo import poisedness as po
from convexdfo import quadratic_models as qm
from convexdfo import solver as sv
from convexdfo import subproblems as sp
from convexdfo.linear_models import InterpolationSet, build_design_matrix
from convexdfo.sampling import sample_feasible_in_ball
from convexdfo.solver import SolverConfig, SolverError, solve

from oracles import (
    dense_lagrange_polynomials,
    design_matrix,
    dense_signed_logdet,
    grid_lagrange_max,
    kkt_lagrange_values,
    regression_lagrange_values,
)


def make_set(points, base, radius=1.0):
    return InterpolationSet(np.asarray(base, float), radius,
                            np.atleast_2d(np.asarray(points, float)))


def clustered_set(rng, center, p=6, spread=0.01, radius=1.0):
    pts = spread * rng.standard_normal((p, len(center))) + np.asarray(center, float)
    return make_set(pts, center, radius)


def perturbed_pattern(rng, x, delta, p, spread):
    """The structured pattern around ``x``, each point moved by spread * r."""
    pts = po.structured_initial_points(x, delta, p)
    return make_set(pts + spread * min(delta, 1.0) * rng.standard_normal(pts.shape),
                    x, delta)


class GatheredStack:
    """Reference for the sweep's factored ``qm.Quadratics``: the dense
    Hessians of the oracle's Lagrange polynomials, a (rows, n, n) gather of
    them in each product and one ``eigvalsh`` call per Hessian."""

    def __init__(self, system):
        self.base = system.base
        self.c, self.g, self.H = dense_lagrange_polynomials(system)

    def values(self, Y, which):
        D = Y - self.base
        Hd = np.einsum("rij,rj->ri", self.H[which], D)
        return self.c[which] + np.einsum("ri,ri->r", D, self.g[which] + 0.5 * Hd)

    def grads(self, Y, which):
        D = Y - self.base
        return self.g[which] + np.einsum("rij,rj->ri", self.H[which], D)

    def curvature(self, D, which):
        return np.einsum("ri,ri->r", D, np.einsum("rij,rj->ri", self.H[which], D))

    def abs_bound_on_ball(self, r):
        gnorm = np.sqrt(np.einsum("ti,ti->t", self.g, self.g))
        hnorm = np.array([np.max(np.abs(np.linalg.eigvalsh(h))) for h in self.H])
        return np.abs(self.c) + gnorm * r + 0.5 * hnorm * r**2


def lagrange_maxima(system, region, rng):
    """The full sweep's best value and point for every Lagrange polynomial."""
    cert = po.check_poisedness(system, region, 1 + 1e-9, rng=rng, early_exit=False)
    return cert.per_polynomial, cert.best_points


PLANAR_REGIONS = {
    "box": (geo.Box([-1.0, -1.0], [1.0, 1.0]), -1.0, 1.0),
    "ball": (geo.Ball([0.0, 0.0], 1.0), -1.0, 1.0),
    "simplex": (geo.Halfspaces([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                               [0.5, 0.5, 1.0]), -0.5, 1.5),
    "lens": (geo.Intersection([geo.Ball([0.0, 0.0], 1.0),
                               geo.Ball([0.5, 0.0], 1.0)]), -0.5, 1.0),
    "box-ball": (geo.Intersection([geo.Box([-0.5, -0.5], [1.0, 1.0]),
                                   geo.Ball([0.0, 0.0], 1.2)]), -0.5, 1.0),
}


def planar_instance(kind, rng):
    """A region of ``PLANAR_REGIONS`` and a random member of it."""
    region, lo, hi = PLANAR_REGIONS[kind]
    x = rng.uniform(lo, hi, 2)
    while not region.is_member(x):
        x = rng.uniform(lo, hi, 2)
    return region, x


class TestMaximizeAbsLagrange:
    """Per-polynomial maxima of |l_t| from the full sweep."""

    def test_linear_polynomial_over_ball_closed_form(self, rng):
        # with a regression basis on a whole-space region the polynomials are
        # affine; the max of |c + g.(y-x)| over B(x, r) is |c| + r ||g||.
        # The points cluster inside the ball, so every maximum exceeds the
        # level and no polynomial is held at its start value.
        pts = 0.02 * rng.standard_normal((5, 2))
        basis = build_design_matrix(make_set(pts, [0.0, 0.0], radius=0.7))
        region = geo.WholeSpace(2)
        values, points = lagrange_maxima(basis, region, rng)
        cs, gs, _ = dense_lagrange_polynomials(basis)
        for t in range(5):
            c, g = cs[t], gs[t]
            r = 0.7
            expected = max(abs(c + r * np.linalg.norm(g)), abs(c - r * np.linalg.norm(g)))
            assert expected > 1 + 1e-9
            value, point = values[t], points[t]
            assert value == pytest.approx(expected, abs=1e-6)
            # the boundary max of a linear function is flat to second order,
            # so the argmax point is only sqrt(value-tolerance) determined
            expected_pt = basis.base + np.sign(g @ (point - basis.base)) * r * (
                g / np.linalg.norm(g)
            )
            assert np.linalg.norm(point - expected_pt) <= 1e-2

    def test_quadratic_on_box_matches_grid_oracle(self, rng):
        region = geo.Box([-1.0, -1.0], [1.0, 1.0])
        iset = po.initial_invertible_set(region, np.array([0.2, -0.1]), 0.8, 6, rng=rng)
        system = qm.assemble_system(iset)
        grid = grid_lagrange_max(system, region, iset.base, 0.8, step=1e-3, refine=2)
        values, _ = lagrange_maxima(system, region, rng)
        np.testing.assert_allclose(values, grid, rtol=0, atol=1e-4)

    @pytest.mark.parametrize("kind", ["ball", "simplex", "lens", "box-ball"])
    @pytest.mark.parametrize("seed", range(6))
    def test_curved_and_polyhedral_regions_match_grid_oracle(self, kind, seed):
        # Each maximum must be found at least as well as the refined grid
        # finds it, and may exceed the grid's only by the grid's own
        # shortfall, which is largest along curved boundaries.
        rng = np.random.default_rng(seed)
        region, x = planar_instance(kind, rng)
        iset = po.initial_invertible_set(region, x, 0.8, 6, rng=rng)
        system = qm.assemble_system(iset)
        grid = grid_lagrange_max(system, region, x, 0.8, refine=2)
        values, _ = lagrange_maxima(system, region, rng)
        assert np.all(values >= grid - 1e-9)
        assert np.all(values <= grid + 2e-3)

    def test_early_exit_returns_known_violation(self, rng):
        region = geo.Box([0.0, 0.0], [2.0, 2.0])
        iset = clustered_set(rng, [0.5, 0.5])
        system = qm.assemble_system(iset)
        early = po.check_poisedness(system, region, 5.0, rng=rng)
        full, _ = lagrange_maxima(system, region, rng)
        assert early.lambda_observed > 5.0 and not early.verified
        assert geo.contains(region, early.witness_point, 1e-8)
        assert full.max() >= early.lambda_observed - 1e-9


class TestCheckPoisedness:
    def test_structured_box_instance_verifies(self, rng):
        region = geo.Box([0.0, 0.0], [2.0, 2.0])
        iset = po.initial_invertible_set(region, np.zeros(2), 1.0, 6, rng=rng)
        system = qm.assemble_system(iset)
        cert = po.check_poisedness(system, region, 10.0, rng=rng)
        assert cert.verified
        grid = grid_lagrange_max(system, region, np.zeros(2), 1.0)
        assert grid.max() <= 10.0 + 1e-3

    def test_near_duplicate_points_fail(self, rng):
        region = geo.Box([0.0, 0.0], [2.0, 2.0])
        pts = np.array([
            [0.5, 0.5], [0.5 + 1e-7, 0.5], [0.6, 0.7], [0.4, 0.6], [0.7, 0.4],
        ])
        system = qm.assemble_system(make_set(pts, [0.5, 0.5]), require_invertible=False)
        cert = po.check_poisedness(system, region, 10.0, rng=rng)
        assert not cert.verified
        assert cert.lambda_observed > 10.0 or cert.reason == "singular interpolation system"

    def test_level_below_one_rejected(self, rng):
        region = geo.Box([0.0, 0.0], [2.0, 2.0])
        iset = po.initial_invertible_set(region, np.zeros(2), 1.0, 6, rng=rng)
        system = qm.assemble_system(iset)
        with pytest.raises(ValueError):
            po.check_poisedness(system, region, 0.5)

    def test_witness_lower_bound(self, rng):
        # some sample point lies in the search ball, so the maximum is >= 1
        region = geo.Box([-1.0, -1.0], [1.0, 1.0])
        iset = po.initial_invertible_set(region, np.zeros(2), 0.5, 6, rng=rng)
        system = qm.assemble_system(iset)
        cert = po.check_poisedness(system, region, 10.0, rng=rng, early_exit=False)
        assert cert.lambda_observed >= 1.0 - 1e-8
        assert geo.contains(region, cert.witness_point, 1e-9)
        assert np.linalg.norm(cert.witness_point - iset.base) <= 0.5 + 1e-9

    def test_geometry_bound_enforced(self, rng):
        # a point outside min(delta, 1) fails verification regardless
        region = geo.Box([-2.0, -2.0], [2.0, 2.0])
        iset = po.initial_invertible_set(region, np.zeros(2), 1.0, 6, rng=rng)
        stretched = iset.replace_point(3, np.array([1.9, 0.0]))
        system = qm.assemble_system(stretched)
        cert = po.check_poisedness(system, region, 50.0, rng=rng)
        assert not cert.verified
        assert "outside" in cert.reason

    def test_misplaced_set_with_early_exit_draws_nothing(self):
        # The set cannot verify, so no start is drawn and no sweep runs.
        region = geo.Box([-2.0, -2.0], [2.0, 2.0])
        iset = po.initial_invertible_set(region, np.zeros(2), 1.0, 6, rng=0)
        system = qm.assemble_system(iset.replace_point(3, np.array([1.9, 0.0])))
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        cert = po.check_poisedness(system, region, 50.0, rng=rng)
        assert rng.bit_generator.state == state
        assert not cert.verified and "outside" in cert.reason
        assert cert.lambda_observed == np.inf and cert.stats is None

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(2, 8), st.floats(-8.0, 0.0),
           st.integers(0, 2**32 - 1))
    def test_geometry_verdict_scale_invariant(self, n, p, log_scale, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, n)
        dirs = rng.standard_normal((p, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        # Distances clear of the boundary by 1%, on both sides of it.
        ratios = np.where(rng.random(p) < 0.5, rng.uniform(0.0, 0.99, p),
                          rng.uniform(1.01, 2.0, p))
        points = x + ratios[:, None] * dirs
        scale = 10.0 ** log_scale
        region = geo.WholeSpace(n)
        ok = not po._misplaced(points, region, x, 1.0)
        ok_scaled = not po._misplaced(x + scale * (points - x), region, x, scale)
        assert ok == ok_scaled == bool(np.all(ratios < 1.0))

    def test_geometry_bound_at_smallest_radius(self):
        # delta_min's default: 5% outside the ball is outside at any scale.
        r, x = 1e-8, np.array([0.3, -0.2])
        iset = po.initial_invertible_set(geo.WholeSpace(2), x, r, 6, rng=0)
        far = iset.replace_point(1, x + np.array([1.05 * r, 0.0]))
        assert "outside" in po._misplaced(far.points, geo.WholeSpace(2), x, r)
        cert = po.check_poisedness(qm.assemble_system(far), geo.WholeSpace(2), 10.0, rng=0)
        assert not cert.verified
        assert "outside" in cert.reason

    def test_stopped_sweep_runs_no_empty_round(self, monkeypatch):
        # Every row of this sweep stops on its own, well before the round
        # cap; the sweep must end with the round in which the last row
        # stops, not run and count one more (a gradient and a projection
        # call) on no rows.
        rng = np.random.default_rng(0)
        system = qm.assemble_system(perturbed_pattern(rng, np.zeros(2), 1.0, 5, 0.2))
        grad_rows = []
        grads = qm.Quadratics.grads
        monkeypatch.setattr(qm.Quadratics, "grads",
                            lambda self, Y, which: grad_rows.append(len(Y)) or
                            grads(self, Y, which))
        cert = po.check_poisedness(system, geo.WholeSpace(2), 1.5, rng=0,
                                   early_exit=False)
        assert 0 not in grad_rows
        assert cert.stats.iterations == len(grad_rows) < sp.DESCENT_STEPS
        assert np.all(np.diff(grad_rows) <= 0)

    @pytest.mark.parametrize("lam,skipped,peak_bound", [(10.0, 41, 3e6),
                                                        (1 + 1e-7, 23, 12e6)])
    def test_sweep_memory_is_linear_in_rows(self, lam, skipped, peak_bound):
        # n = 20, p = 41: 8,282 ascent rows.  A (rows, n, n) Hessian gather
        # alone takes 26.5 MB.  At lam = 1 + 1e-7 the 18 polynomials above
        # their interval bound are polished.  At lam = 10 every polynomial
        # is skipped and its rows are never evaluated: the 3 MB bound leaves
        # 1.1 MB over the 1.9 MB measured peak, less than the 2.7 MB of one
        # (rows, p) product that evaluating those rows would take.
        n, p = 20, 41
        x = np.full(n, 0.3)
        system = qm.assemble_system(
            perturbed_pattern(np.random.default_rng(0), x, 0.5, p, 0.1))
        tracemalloc.start()
        try:
            cert = po.check_poisedness(system, geo.WholeSpace(n), lam, rng=0,
                                       early_exit=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= peak_bound
        assert cert.stats.rows == 2 * p * (p + 2 * n + po.N_RANDOM_STARTS)
        assert cert.stats.skipped == skipped
        assert (cert.stats.iterations > 0) == (skipped < p)
        # Each reported value is |l_t| at the reported point.
        at_best = kkt_lagrange_values(system, cert.best_points)[np.arange(p), np.arange(p)]
        np.testing.assert_allclose(cert.per_polynomial, np.abs(at_best), rtol=1e-9)

    def test_regression_basis_dispatch(self, rng):
        region = geo.Box([-1.0, -1.0], [1.0, 1.0])
        iset = po.initial_invertible_set(region, np.zeros(2), 1.0, 6, rng=rng)
        basis = build_design_matrix(iset)
        cert = po.check_poisedness(basis, region, 10.0, rng=rng)
        assert cert.verified
        degenerate = build_design_matrix(
            make_set([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.25, 0.0]], [0.0, 0.0]),
            require_full_rank=False,
        )
        cert2 = po.check_poisedness(degenerate, region, 10.0, rng=rng)
        assert not cert2.verified
        assert cert2.reason == "singular interpolation system"


class TestRegressionCertificate:
    """A regression basis is certified on its own affine Lagrange polynomials."""

    @pytest.mark.parametrize("kind", ["box", "ball", "simplex", "lens"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_grid_oracle(self, kind, seed):
        # Points within 0.3 of x, searched over B(x, 0.8): most levels are
        # well above 1.  A polynomial whose interval bound is below the
        # sweep's level keeps its best start value, which the grid bounds.
        rng = np.random.default_rng(seed)
        region, x = planar_instance(kind, rng)
        inner = po.initial_invertible_set(region, x, 0.3, 6, rng=rng)
        basis = build_design_matrix(make_set(inner.points, x, radius=0.8))
        grid = grid_lagrange_max(basis, region, x, 0.8, refine=2)
        values, _ = lagrange_maxima(basis, region, rng)
        assert np.all(values <= grid + 2e-3)
        swept = grid > 1.0 + 1e-6
        assert np.any(swept)
        assert np.all(values[swept] >= grid[swept] - 1e-9)
        # The verdict at a level just below and just above the grid's.
        level = grid.max()
        above = po.check_poisedness(basis, region, level + 1e-2, rng=rng)
        assert above.verified and above.lambda_observed <= level + 2e-3
        below = po.check_poisedness(basis, region, level - 1e-2, rng=rng)
        assert not below.verified and below.lambda_observed > level - 1e-2


def feasible_ball_samples(region, x, r, rng, count=4000):
    """Members of the region in B(x, r): uniform in the ball and on its sphere."""
    u = rng.standard_normal((count, x.size))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    radii = r * rng.random(count) ** (1.0 / x.size)
    ys = x + np.concatenate([u * radii[:, None], r * u])
    return ys[region.is_member_batch(ys)]


class TestRegressionRepair:
    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["box", "ball", "simplex"]), n=st.integers(1, 3),
           delta=st.floats(0.05, 2.0), tight=st.booleans(), clustered=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_every_repaired_regression_set_meets_lambda(self, kind, n, delta, tight,
                                                        clustered, seed):
        # A regression repair returns a set certified on its own basis at
        # lam, also at a level as tight as 1.2.  A sampled maximum of the
        # regression Lagrange polynomials (numpy's pseudoinverse) is a
        # lower bound of the level, so it may not exceed lam.
        rng = np.random.default_rng(seed)
        region, x = random_region(kind, n, rng)
        p = 2 * n + 1
        lam = 1.2 if tight else 10.0
        old = clustered_set(rng, x, p=p, spread=0.01 * delta, radius=delta) if clustered else None
        new, cert, _ = po.improve_to_poised(old, region, x, delta, p, lam, rng=rng,
                                            model_kind="linear-regression")
        r = min(delta, 1.0)
        assert cert.verified and cert.lambda_observed <= lam
        assert not po._outside_ball(new.points, x, r) and new.feasible(region)
        ys = np.concatenate([new.points, feasible_ball_samples(region, x, r, rng)])
        assert np.abs(regression_lagrange_values(new.points, x, ys)).max() <= lam * (1 + 1e-9)

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["box", "ball"]), n=st.integers(1, 3),
           lam=st.sampled_from([1.2, 3.0]), seed=st.integers(0, 2**32 - 1))
    def test_swaps_grow_the_design_determinant(self, kind, n, lam, seed):
        # Replacing point t by y multiplies det(M^T M) by
        # (1 - h_t)(1 + ||l(y)||^2) + l_t(y)^2 >= l_t(y)^2.  Each logged
        # swap is checked against the set it changed: l_t(y) from numpy's
        # pseudoinverse, both determinants from slogdet.
        rng = np.random.default_rng(seed)
        region, x = random_region(kind, n, rng)
        p = 2 * n + 1
        before, replace_point = {}, InterpolationSet.replace_point

        def recorded(iset, t, point, value=None):
            before[(t, point.tobytes())] = iset.points.copy()
            return replace_point(iset, t, point, value)

        # A feasible cluster: its points are swapped only for their level.
        cluster = make_set(sample_feasible_in_ball(rng, region, x, 0.01, p), x)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(InterpolationSet, "replace_point", recorded)
            _, cert, swaps = po.improve_to_poised(cluster, region, x, 1.0, p, lam, rng=rng,
                                                  model_kind="linear-regression")
        assert cert.verified and len(swaps) >= 1
        for swap in swaps:
            points = before[(swap.index, swap.point.tobytes())]
            after = points.copy()
            after[swap.index] = swap.point
            dets = []
            for pts in (points, after):
                M = design_matrix(pts, x)
                sign, logabs = np.linalg.slogdet(M.T @ M)
                assert sign == 1.0
                dets.append(logabs)
            ell = regression_lagrange_values(points, x, swap.point)[0, swap.index]
            assert abs(ell) >= lam * (1 - 1e-9)
            assert dets[1] - dets[0] >= 2.0 * np.log(abs(ell)) - 1e-9
            assert swap.det_after.logabs - swap.det_before.logabs == pytest.approx(
                dets[1] - dets[0], abs=1e-8)
        for first, second in zip(swaps, swaps[1:]):
            assert second.det_before == first.det_after


class TestStackedQuadratics:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 20), extra=st.integers(0, 40), rows=st.integers(0, 60),
           regression=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(n=3, extra=2, rows=0, regression=False, seed=0)
    @example(n=3, extra=2, rows=1, regression=False, seed=0)
    @example(n=20, extra=20, rows=1, regression=True, seed=0)
    def test_matches_per_polynomial_reference(self, n, extra, rows, regression, seed):
        # Either system kind, any sorted subset of rows (empty and single
        # rows included).  The factored products and the gathered Hessians
        # round differently: each result must agree with the reference to
        # 1e-12 of its forward-error scale, the same expression over
        # absolute values |c|, |g|, |U|, |w| and |d| (for the bound, the
        # looser sum of |w_tj| ||u_j||^2 in place of ||H_t||).
        rng = np.random.default_rng(seed)
        p = n + 2 + extra % n
        x = rng.uniform(-1.0, 1.0, n)
        delta = 10.0 ** rng.uniform(-3.0, 0.3)
        iset = perturbed_pattern(rng, x, delta, p, 0.1)
        system = build_design_matrix(iset) if regression else qm.assemble_system(iset)
        which = np.sort(rng.integers(0, p, rows))
        Y = x + min(delta, 1.0) * rng.standard_normal((rows, n))
        got = system.stacked_lagrange()
        ref = GatheredStack(system)
        np.testing.assert_array_equal(got.c, ref.c)
        np.testing.assert_array_equal(got.g, ref.g)
        assert (got.U is None) == regression
        mag = qm.Quadratics(x, np.abs(got.c), np.abs(got.g),
                            None if regression else np.abs(got.U),
                            None if regression else np.abs(got.w))
        A = x + np.abs(Y - x)
        for got_v, ref_v, scale in (
                (got.values(Y, which), ref.values(Y, which), mag.values(A, which)),
                (got.grads(Y, which), ref.grads(Y, which), mag.grads(A, which)),
                (got.curvature(Y - x, which), ref.curvature(Y - x, which),
                 mag.curvature(A - x, which))):
            assert np.all(np.abs(got_v - ref_v) <= 1e-12 * scale)
        hscale = 0.0 if regression else np.abs(got.w) @ np.sum(got.U**2, axis=1)
        scale = ref.abs_bound_on_ball(0.7) + 0.5 * hscale * 0.7**2
        assert np.all(np.abs(got.abs_bound_on_ball(0.7) - ref.abs_bound_on_ball(0.7))
                      <= 1e-12 * scale)


class TestInitialInvertibleSet:
    def test_whole_space_returns_structured_points(self, rng):
        region = geo.WholeSpace(3)
        iset = po.initial_invertible_set(region, np.zeros(3), 0.7, 9, rng=rng)
        np.testing.assert_array_equal(
            iset.points, po.structured_initial_points(np.zeros(3), 0.7, 9)
        )

    def test_structured_pattern_layout(self):
        x = np.array([1.0, -1.0])
        pts = po.structured_initial_points(x, 2.0, 6)
        r = 1.0  # min(delta, 1)
        np.testing.assert_array_equal(pts[0], x)
        np.testing.assert_allclose(pts[1], x + r * np.array([1, 0]))
        np.testing.assert_allclose(pts[2], x + r * np.array([0, 1]))
        np.testing.assert_allclose(pts[3], x - r * np.array([1, 0]))
        np.testing.assert_allclose(pts[4], x - r * np.array([0, 1]))
        np.testing.assert_allclose(pts[5], x + (r / np.sqrt(2)) * np.array([1, 1]))
        assert np.max(np.linalg.norm(pts - x, axis=1)) <= r + 1e-15

    @pytest.mark.parametrize("n,p", [(2, 6), (3, 7), (4, 12), (5, 14)])
    def test_box_corner_replacements(self, n, p, rng):
        # x at the corner of [0, 2]^n: all minus-axis points are infeasible
        region = geo.Box([0.0] * n, [2.0] * n)
        iset = po.initial_invertible_set(region, np.zeros(n), 1.0, p, rng=rng)
        assert iset.feasible(region)
        assert np.max(np.linalg.norm(iset.points - iset.base, axis=1)) <= 1.0 + 1e-9
        system = qm.assemble_system(iset)
        assert system.invertible
        sign, logabs = dense_signed_logdet(iset.points, iset.base, iset.radius)
        assert system.det.sign == sign
        assert system.det.logabs == pytest.approx(logabs, rel=1e-9)
        # replacements happen only at originally infeasible slots
        stage1 = po.structured_initial_points(np.zeros(n), 1.0, p)
        moved = [t for t in range(p)
                 if not np.array_equal(iset.points[t], stage1[t])]
        infeasible = [t for t in range(p) if not region.is_member(stage1[t])]
        assert moved == infeasible
        assert len(moved) <= p

    def test_infeasible_base_rejected(self, rng):
        region = geo.Box([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            po.initial_invertible_set(region, np.array([2.0, 0.0]), 1.0, 6, rng=rng)


def last_member_on_ray(region, x, u, reach=4.0):
    """The last exact member of the region on x + t u, 0 <= t <= reach."""
    lo, hi = 0.0, reach
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if region.is_member(x + mid * u) else (lo, mid)
    return x + lo * u


def stencil_region(kind, n, rng, on_boundary):
    """A random box, ball, simplex, lens or box-ball, and a member of it
    (on the boundary along a random ray when ``on_boundary``)."""
    if kind in ("box", "ball", "simplex"):
        region, x = random_region(kind, n, rng)
    else:
        centre = rng.standard_normal(n)
        if kind == "lens":
            shift = rng.standard_normal(n)
            shift *= rng.uniform(0.2, 1.2) / np.linalg.norm(shift)
            region = geo.Intersection([geo.Ball(centre, 1.0), geo.Ball(centre + shift, 1.0)])
            x = centre + 0.5 * shift
        else:
            half = 0.2 + rng.random(n)
            radius = rng.uniform(half.min(), np.linalg.norm(half))
            region = geo.Intersection([geo.Box(centre - half, centre + half),
                                       geo.Ball(centre, radius)])
            x = centre
        x = last_member_on_ray(region, x, rng.uniform(-1.0, 1.0, n), reach=rng.random())
    if on_boundary:
        x = last_member_on_ray(region, x, rng.standard_normal(n))
    return region, x


class TestFeasibleAxisStencil:
    """The structured pattern places each axis in the region's feasible room."""

    @pytest.mark.parametrize("x", [[1.0, 1.0, 1.0], [0.8, 0.8, 0.8], [1.0, 0.2, -0.5]])
    def test_box_first_sets_fit_separable_quadratic(self, x, monkeypatch):
        # On [-0.5, 1]^3 each axis gets three feasible points, which fit
        # diag(1..3) + 1^T x exactly, and the first set needs no sweep.
        region = geo.Box([-0.5] * 3, [1.0] * 3)
        x = np.asarray(x)
        checks, check = [], po.check_poisedness
        monkeypatch.setattr(po, "check_poisedness",
                            lambda *a, **k: checks.append(1) or check(*a, **k))
        iset = po.initial_invertible_set(region, x, 1.0, 7, rng=0)
        assert checks == []

        def f(ys):
            return 0.5 * (ys**2) @ np.arange(1.0, 4.0) + ys.sum(axis=1)

        model = qm.fit_mfn_model(iset.system, f(iset.points))
        ys = sample_feasible_in_ball(np.random.default_rng(0), region, x, 1.0, 200)
        np.testing.assert_allclose(model.values(ys), f(ys), rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["box", "ball", "simplex", "lens", "box-ball"]),
           n=st.integers(1, 3), delta=st.floats(0.01, 2.0), on_boundary=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_stencil_points_are_feasible_and_region_free_where_they_fit(
            self, kind, n, delta, on_boundary, seed):
        rng = np.random.default_rng(seed)
        region, x = stencil_region(kind, n, rng, on_boundary)
        p = int(rng.integers(n + 2, qm.max_points(n) + 1))
        r = min(delta, 1.0)
        pts = po.structured_initial_points(x, delta, p, region)
        free = po.structured_initial_points(x, delta, p)
        moved = np.flatnonzero(np.any(pts != free, axis=1))
        assert np.all((1 <= moved) & (moved <= 2 * n))  # axis points only
        assert np.all(region.is_member_batch(pts[moved]))
        assert np.all(np.linalg.norm(pts[moved] - x, axis=1)
                      <= r + 1e-12 * (1.0 + np.linalg.norm(x)))
        iset = make_set(pts, x, delta)
        assert qm.assemble_system(iset, require_invertible=False).nondegenerate
        assert build_design_matrix(iset).nondegenerate
        fits = (region.is_member_batch(x + r * np.eye(n))
                & region.is_member_batch(x - r * np.eye(n)))
        for i in np.flatnonzero(fits):
            own = [t for t in (1 + i, 1 + n + i) if t < p]
            np.testing.assert_array_equal(pts[own], free[own])
        if fits.all():
            np.testing.assert_array_equal(pts, free)


class TestImproveToPoised:
    def test_already_poised_returns_zero_swaps(self, rng):
        region = geo.Box([0.0, 0.0], [2.0, 2.0])
        first, cert1, _ = po.improve_to_poised(
            None, region, np.zeros(2), 1.0, 6, 10.0, rng=rng
        )
        again, cert2, swaps = po.improve_to_poised(
            first, region, np.zeros(2), 1.0, 6, 10.0, rng=rng
        )
        assert swaps == []
        np.testing.assert_array_equal(again.points, first.points)
        assert cert2.verified

    def test_cluster_is_repaired(self, rng):
        region = geo.Box([0.0, 0.0], [2.0, 2.0])
        center = np.array([0.3, 0.3])
        iset = clustered_set(rng, center)
        improved, cert, swaps = po.improve_to_poised(
            iset, region, center, 1.0, 6, 2.0, rng=rng
        )
        assert len(swaps) >= 1
        assert cert.verified
        assert improved.feasible(region)
        system = qm.assemble_system(improved)
        grid = grid_lagrange_max(system, region, center, 1.0)
        assert grid.max() <= 2.0 + 1e-3

    def test_swap_log_determinant_growth(self, rng):
        region = geo.Box([0.0, 0.0], [2.0, 2.0])
        center = np.array([0.3, 0.3])
        lam = 2.0
        iset = clustered_set(rng, center)
        _, _, swaps = po.improve_to_poised(iset, region, center, 1.0, 6, lam, rng=rng)
        assert len(swaps) >= 1
        for swap in swaps:
            # each swap, the first included, multiplies |det F| by lam^2
            gain = swap.det_after.logabs - swap.det_before.logabs
            assert gain >= 2.0 * np.log(lam) - 1e-6
            assert abs(swap.lagrange_value) > lam
        for before, after in zip(swaps, swaps[1:]):
            assert after.det_before == before.det_after

    def test_reinitializes_on_bad_input(self, rng):
        region = geo.Box([0.0, 0.0], [2.0, 2.0])
        x = np.zeros(2)
        # far-flung points violate the search ball bound
        far = make_set([[0, 0], [2, 0], [0, 2], [2, 2], [1, 2], [2, 1]], x)
        improved, cert, _ = po.improve_to_poised(far, region, x, 1.0, 6, 10.0, rng=rng)
        assert cert.verified
        assert np.max(np.linalg.norm(improved.points - x, axis=1)) <= 1.0 + 1e-9
        # an infeasible member inside the ball is repaired in place
        bad = make_set([[0, 0], [1, 0], [0, 1], [-0.5, 0], [0, 0.5], [0.5, 0.5]], x)
        improved2, cert2, _ = po.improve_to_poised(bad, region, x, 1.0, 6, 10.0, rng=rng)
        assert cert2.verified and improved2.feasible(region)

    def test_infeasible_point_is_repaired_in_place(self, monkeypatch):
        # One point leaves the box but stays in the ball: the loop swaps
        # that point alone, with no rebuild and no logged level swap.
        region = geo.Box([0.0, 0.0], [2.0, 2.0])
        x = np.array([0.5, 0.5])
        poised, _, _ = po.improve_to_poised(None, region, x, 1.0, 6, 10.0, rng=0)
        bad = poised.replace_point(3, np.array([-0.1, 0.6]))
        calls = []
        monkeypatch.setattr(po, "initial_invertible_set",
                            lambda *args, **kwargs: calls.append(args))
        got, cert, swaps = po.improve_to_poised(bad, region, x, 1.0, 6, 10.0, rng=0)
        assert calls == []
        assert swaps == []
        moved = np.flatnonzero(np.any(got.points != bad.points, axis=1))
        assert moved.tolist() == [3]
        assert cert.verified and got.feasible(region)

    def test_level_must_exceed_one(self, rng):
        region = geo.Box([0.0, 0.0], [2.0, 2.0])
        with pytest.raises(ValueError):
            po.improve_to_poised(None, region, np.zeros(2), 1.0, 6, 1.0, rng=rng)

    def test_swap_cap_raises_with_log(self, rng):
        region = geo.Box([0.0, 0.0], [2.0, 2.0])
        center = np.array([0.3, 0.3])
        iset = clustered_set(rng, center)
        with pytest.raises(po.PoisednessImprovementError) as err:
            po.improve_to_poised(iset, region, center, 1.0, 6, 2.0, rng=rng, max_swaps=1)
        assert len(err.value.swap_log) == 1

    def test_ball_region(self, rng):
        region = geo.Ball([0.0, 0.0], 1.0)
        center = np.array([0.6, 0.3])
        improved, cert, _ = po.improve_to_poised(
            None, region, center, 0.8, 6, 2.0, rng=rng
        )
        assert cert.verified
        system = qm.assemble_system(improved)
        grid = grid_lagrange_max(system, region, center, 0.8)
        assert grid.max() <= 2.0 + 1e-3

    def test_certificate_is_check_poisedness(self):
        # At lam = 1.5 the sweep ascends on one polynomial of this set and
        # skips the others, whose bound on the ball is below the level; the
        # certificate must be the one check_poisedness builds for that sweep.
        region = geo.Box([-1.0, -1.0], [1.0, 1.0])
        x, delta, lam = np.array([0.1, -0.2]), 0.5, 1.5
        iset = po.initial_invertible_set(region, x, delta, 6, rng=0)
        system = qm.assemble_system(iset)
        stack = system.stacked_lagrange()
        skipped = stack.abs_bound_on_ball(delta) <= lam
        assert skipped.any() and not skipped.all()
        expected = po.check_poisedness(system, region, lam, rng=np.random.default_rng(3),
                                       early_exit=False)
        got, cert, swaps = po.improve_to_poised(iset, region, x, delta, 6, lam,
                                                rng=np.random.default_rng(3))
        assert swaps == []
        np.testing.assert_array_equal(got.points, iset.points)
        np.testing.assert_array_equal(cert.per_polynomial, expected.per_polynomial)
        np.testing.assert_array_equal(cert.witness_point, expected.witness_point)
        assert cert.lambda_observed == expected.lambda_observed
        assert cert.witness_index == expected.witness_index
        assert cert.verified == expected.verified
        assert cert.reason == expected.reason
        assert cert.stats == expected.stats
        assert cert.stats.skipped == np.count_nonzero(skipped)
        assert cert.stats.rows == 2 * 6 * (6 + 2 * 2 + po.N_RANDOM_STARTS)

    @pytest.mark.parametrize("kind", ["box", "ball"])
    def test_early_exit_certificate_is_the_full_sweep(self, kind, monkeypatch):
        # The level rounds check with early exit; the verified certificate
        # the loop returns equals a full sweep on its set from the same
        # random starts.
        region = (geo.Box([0.0, 0.0], [2.0, 2.0]) if kind == "box"
                  else geo.Ball([0.5, 0.5], 1.0))
        center, lam = np.array([0.3, 0.3]), 2.0
        iset = clustered_set(np.random.default_rng(4), center)
        calls, original = [], po.check_poisedness

        def recorded(system, region, lam, rng=None, early_exit=True, **kwargs):
            calls.append((system, rng.bit_generator.state, early_exit))
            return original(system, region, lam, rng=rng, early_exit=early_exit, **kwargs)

        monkeypatch.setattr(po, "check_poisedness", recorded)
        _, cert, swaps = po.improve_to_poised(iset, region, center, 1.0, 6, lam,
                                              rng=np.random.default_rng(5))
        assert len(swaps) >= 1 and cert.verified
        assert all(early for _, _, early in calls)
        system, state, _ = calls[-1]
        rng = np.random.default_rng()
        rng.bit_generator.state = state
        full = original(system, region, lam, rng=rng, early_exit=False)
        assert cert.lambda_observed == full.lambda_observed
        np.testing.assert_array_equal(cert.per_polynomial, full.per_polynomial)
        np.testing.assert_array_equal(cert.best_points, full.best_points)
        assert cert.stats == full.stats

    def test_rounded_pattern_is_not_rebuilt(self, monkeypatch):
        # At r = 2^-27 around ||x|| = 0.43 the diagonal pattern point rounds
        # beyond r (1 + GEOMETRY_SLACK), within the rounding of stored
        # coordinates: the set is in place and must be kept, not rebuilt.
        x, r = np.array([0.22368421, -0.36842105]), 2.0**-27
        iset = InterpolationSet(x, r, po.structured_initial_points(x, r, 6))
        dists = np.linalg.norm(iset.points - x, axis=1)
        slack = r * (1.0 + po.GEOMETRY_SLACK)
        assert slack < np.max(dists) <= slack + np.finfo(float).eps * np.linalg.norm(x)
        calls = []
        original = po.initial_invertible_set
        monkeypatch.setattr(po, "initial_invertible_set",
                            lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
        got, cert, swaps = po.improve_to_poised(iset, geo.WholeSpace(2), x, r, 6, 10.0, rng=0)
        assert calls == []
        assert swaps == []
        np.testing.assert_array_equal(got.points, iset.points)
        assert cert.verified


def assert_carries_own_system(iset, required=True):
    """``iset.system`` is None (when not ``required``) or, bit for bit, the
    system a fresh assembly of the set gives."""
    if iset.system is None:
        assert not required
        return
    fresh = qm.assemble_system(iset, require_invertible=False)
    assert iset.system.radius == iset.radius
    np.testing.assert_array_equal(iset.system.base, iset.base)
    np.testing.assert_array_equal(iset.system.Z, fresh.Z)
    np.testing.assert_array_equal(iset.system.lagrange_solutions, fresh.lagrange_solutions)
    assert iset.system.det == fresh.det


def random_region(kind, n, rng):
    """A random box, ball or simplex and a feasible point of it."""
    if kind == "simplex":
        region = geo.Halfspaces(np.vstack([-np.eye(n), np.ones(n)]),
                                np.r_[np.zeros(n), 1.0])
        return region, 0.9 * rng.dirichlet(np.ones(n + 1))[:n]
    centre = rng.standard_normal(n)
    if kind == "box":
        half = 0.2 + rng.random(n)
        return geo.Box(centre - half, centre + half), centre + half * rng.uniform(-1, 1, n)
    radius = 0.2 + rng.random()
    u = rng.standard_normal(n)
    return geo.Ball(centre, radius), centre + radius * rng.random() * u / np.linalg.norm(u)


class TestCarriedSystem:
    """A set carries the factored system of its own geometry, or none."""

    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(["box", "ball", "simplex"]), n=st.integers(1, 3),
           delta=st.floats(0.05, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_returned_sets_carry_their_own_system(self, kind, n, delta, seed):
        rng = np.random.default_rng(seed)
        region, x = random_region(kind, n, rng)
        p = int(rng.integers(n + 2, qm.max_points(n) + 1))
        first = po.initial_invertible_set(region, x, delta, p, rng=rng)
        assert_carries_own_system(first)
        clustered = clustered_set(rng, x, p=p, spread=0.01 * delta, radius=delta)
        for given_set, radius in [(None, delta), (first, delta), (first, 0.5 * delta),
                                  (clustered, delta)]:
            got, cert, _ = po.improve_to_poised(given_set, region, x, radius, p, 10.0, rng=rng)
            assert_carries_own_system(got)
            assert got.cert is cert
        target = x + rng.standard_normal(n)
        try:
            _, record = solve(lambda y: float(np.sum((y - target) ** 2)), region, x,
                              SolverConfig(delta0=delta, npoints=p, max_evals=40, seed=seed))
        except SolverError as exc:  # the final set is kept on failure too
            record = exc.record
        assert_carries_own_system(record.final_set, required=False)
        assert record.final_set.cert is None

    def test_values_keep_the_system_and_geometry_drops_it(self):
        # The certificate travels with the system: new values keep both, a
        # new geometry drops both.  A repaired set carries the certificate
        # of its last check.
        region = geo.Box([0.0, 0.0], [2.0, 2.0])
        x = np.array([0.5, 0.5])
        iset, cert, _ = po.improve_to_poised(None, region, x, 1.0, 6, 10.0, rng=0)
        assert iset.system is not None and iset.cert is cert and cert.verified
        valued = iset.with_values(np.arange(6.0))
        assert valued.system is iset.system and valued.cert is cert
        for moved in (iset.replace_point(3, np.array([0.6, 0.7])), iset.with_geometry(x, 0.5)):
            assert moved.system is None and moved.cert is None

    @pytest.mark.parametrize("region,x,lam,swapping", [
        # Thin boxes: axis points with too little room are swapped.
        (geo.Box([0.0, 0.0], [2.0, 0.3]), [0.0, 0.15], 1.5, True),
        (geo.WholeSpace(2), [0.0, 0.0], 1.2, True),               # level swaps
        (geo.Box([0.0, 0.0, 0.0], [2.0, 2.0, 0.3]), [0.0, 0.0, 0.15], 1.5, True),
        (geo.Box([0.0, 0.0], [2.0, 2.0]), [0.0, 0.0], 1.5, False),  # feasible stencil
    ])
    def test_each_set_is_assembled_once(self, region, x, lam, swapping, monkeypatch):
        # A rebuild factors its pattern and each swapped set once; an
        # improvement of a set that carries its system and is already
        # poised factors nothing.
        x = np.asarray(x)
        p = 2 * x.size + 2
        assembled, swapped = [], []
        assemble, replace_point = po.assemble_system, InterpolationSet.replace_point
        monkeypatch.setattr(po, "assemble_system",
                            lambda *a, **k: assembled.append(1) or assemble(*a, **k))
        monkeypatch.setattr(InterpolationSet, "replace_point",
                            lambda *a, **k: swapped.append(1) or replace_point(*a, **k))
        rebuilt, _, _ = po.improve_to_poised(None, region, x, 1.0, p, lam, rng=0)
        assert (len(swapped) >= 1) if swapping else swapped == []
        assert len(assembled) == 1 + len(swapped)
        assembled.clear()
        again, cert, swaps = po.improve_to_poised(rebuilt, region, x, 1.0, p, lam, rng=0)
        assert cert.verified and swaps == []
        assert assembled == []
        assert again.system is rebuilt.system

    def test_thin_region_raises(self):
        # Points outside the ball force a rebuild on a box 1e-3 thin: a
        # swap leaves the system singular by the relative pivot test.
        x = np.array([5e-4, 5e-4])
        far = make_set(x + 2.0 * np.array([[1, 0], [0, 1], [-1, 0], [0, -1], [0.5, 0]]), x)
        region = geo.Box([0.0, 0.0], [1.0, 1e-3])
        with pytest.raises(po.ThinRegionError, match="too thin.*pivot ratio"):
            po.improve_to_poised(far, region, x, 1.0, 5, 10.0, rng=1)
