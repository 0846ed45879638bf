from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexdfo import geometry as geo
from convexdfo import poisedness as po
from convexdfo import quadratic_models as qm
from convexdfo.linear_models import InterpolationSet, build_design_matrix

from oracles import dense_signed_logdet, grid_lagrange_max


def make_set(points, base, radius=1.0):
    return InterpolationSet(np.asarray(base, float), radius,
                            np.atleast_2d(np.asarray(points, float)))


def clustered_set(rng, center, p=6, spread=0.01, radius=1.0):
    pts = spread * rng.standard_normal((p, len(center))) + np.asarray(center, float)
    return make_set(pts, center, radius)


class TestMaximizeAbsLagrange:
    def test_linear_polynomial_over_ball_closed_form(self, rng):
        # with a regression basis on a whole-space region the polynomials are
        # affine; the max of |c + g.(y-x)| over B(x, r) is |c| + r ||g||
        pts = rng.standard_normal((5, 2))
        basis = build_design_matrix(make_set(pts, [0.0, 0.0], radius=0.7))
        region = geo.WholeSpace(2)
        for t in range(5):
            poly = basis.lagrange_polynomial(t)
            r = 0.7
            expected = max(
                abs(poly.c + r * np.linalg.norm(poly.g)),
                abs(poly.c - r * np.linalg.norm(poly.g)),
            )
            value, point = po.maximize_abs_lagrange(basis, t, region, rng=rng)
            assert value == pytest.approx(expected, abs=1e-6)
            # the boundary max of a linear function is flat to second order,
            # so the argmax point is only sqrt(value-tolerance) determined
            expected_pt = basis.base + np.sign(poly.value(point) - poly.c) * r * (
                poly.g / np.linalg.norm(poly.g)
            )
            assert np.linalg.norm(point - expected_pt) <= 1e-2

    def test_quadratic_on_box_matches_grid_oracle(self, rng):
        region = geo.Box([-1.0, -1.0], [1.0, 1.0])
        iset = po.initial_invertible_set(region, np.array([0.2, -0.1]), 0.8, 6, rng=rng)
        system = qm.assemble_system(iset)
        grid = grid_lagrange_max(system, region, iset.base, 0.8, step=1e-3, refine=2)
        for t in range(6):
            value, _ = po.maximize_abs_lagrange(system, t, region, rng=rng)
            assert value == pytest.approx(grid[t], abs=1e-4)

    def test_early_exit_returns_known_violation(self, rng):
        region = geo.Box([0.0, 0.0], [2.0, 2.0])
        iset = clustered_set(rng, [0.5, 0.5])
        system = qm.assemble_system(iset)
        value, point = po.maximize_abs_lagrange(
            system, 0, region, early_exit_at=5.0, rng=rng
        )
        full, _ = po.maximize_abs_lagrange(system, 0, region, rng=rng)
        assert value > 5.0
        assert geo.contains(region, point, 1e-8)
        assert full >= value - 1e-9


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
        # a point outside beta * min(delta, 1) fails verification regardless
        region = geo.Box([-2.0, -2.0], [2.0, 2.0])
        iset = po.initial_invertible_set(region, np.zeros(2), 1.0, 6, rng=rng)
        stretched = iset.replace_point(3, np.array([1.9, 0.0]))
        system = qm.assemble_system(stretched)
        cert = po.check_poisedness(system, region, 50.0, rng=rng)
        assert not cert.verified
        assert "outside" in cert.reason

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
        ok, _ = po._geometry_ok(SimpleNamespace(points=points), region, x, 1.0, 1.0)
        scaled = SimpleNamespace(points=x + scale * (points - x))
        ok_scaled, _ = po._geometry_ok(scaled, region, x, scale, 1.0)
        assert ok == ok_scaled == bool(np.all(ratios < 1.0))

    def test_geometry_bound_at_smallest_radius(self):
        # delta_min's default: 5% outside the ball is outside at any scale.
        r, x = 1e-8, np.array([0.3, -0.2])
        iset = po.initial_invertible_set(geo.WholeSpace(2), x, r, 6, rng=0)
        far = iset.replace_point(1, x + np.array([1.05 * r, 0.0]))
        cert = po.check_poisedness(qm.assemble_system(far), geo.WholeSpace(2), 10.0,
                                   delta=r, rng=0)
        assert not cert.verified
        assert "outside" in cert.reason

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
        assert iset.feasible(region, 1e-9)
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
        assert improved.feasible(region, 1e-9)
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
        for before, after in zip(swaps, swaps[1:]):
            gain = after.actual_det.logabs - before.actual_det.logabs
            assert gain >= 2.0 * np.log(lam) - 1e-6
        for swap in swaps:
            # prediction equals the refactorized determinant
            assert swap.predicted_det.sign == swap.actual_det.sign
            assert swap.predicted_det.logabs == pytest.approx(
                swap.actual_det.logabs, rel=1e-7, abs=1e-7
            )
            assert abs(swap.lagrange_value) > lam

    def test_reinitializes_on_bad_input(self, rng):
        region = geo.Box([0.0, 0.0], [2.0, 2.0])
        x = np.zeros(2)
        # far-flung points violate the search ball bound
        far = make_set([[0, 0], [2, 0], [0, 2], [2, 2], [1, 2], [2, 1]], x)
        improved, cert, _ = po.improve_to_poised(far, region, x, 1.0, 6, 10.0, rng=rng)
        assert cert.verified
        assert np.max(np.linalg.norm(improved.points - x, axis=1)) <= 1.0 + 1e-9
        # infeasible member also triggers reinitialization
        bad = make_set([[0, 0], [1, 0], [0, 1], [-0.5, 0], [0, 0.5], [0.5, 0.5]], x)
        improved2, cert2, _ = po.improve_to_poised(bad, region, x, 1.0, 6, 10.0, rng=rng)
        assert cert2.verified and improved2.feasible(region, 1e-9)

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
