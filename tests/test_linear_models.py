import numpy as np
import pytest

from convexdfo import accuracy as acc
from convexdfo import geometry as geo
from convexdfo import linear_models as lm
from convexdfo import poisedness
from convexdfo import quadratic_models as qm

from oracles import design_matrix


def make_set(points, base=None, radius=1.0, values=None):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    base = np.zeros(points.shape[1]) if base is None else np.asarray(base, float)
    return lm.InterpolationSet(base, radius, points, values)


class TestDesignMatrix:
    def test_square_case_rows_and_rank(self):
        iset = make_set([[0.0], [1.0]])
        basis = lm.build_design_matrix(iset)
        M = design_matrix(iset.points, iset.base)
        np.testing.assert_array_equal(M, [[1.0, 0.0], [1.0, 1.0]])
        np.testing.assert_allclose(basis.lagrange_coeffs @ M, np.eye(2), atol=1e-12)
        assert basis.rank == 2 and basis.full_rank
        # det(M^T M) = 1; the singular values are the golden ratio and its inverse.
        assert basis.det.sign == 1.0 and basis.det.logabs == pytest.approx(0.0, abs=1e-12)
        assert basis.pivot_ratio == pytest.approx((3.0 - np.sqrt(5.0)) / 2.0, rel=1e-12)

    def test_overdetermined_affine_recovery(self):
        iset = make_set([[0.0], [1.0], [2.0]])
        basis = lm.build_design_matrix(iset)
        model = lm.fit_regression_model(basis, [0.0, 1.0, 2.0])
        assert abs(model.c) <= 1e-12 and abs(model.g[0] - 1.0) <= 1e-12

    def test_collinear_points_raise(self):
        iset = make_set([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(lm.DegenerateGeometryError, match="degenerate geometry"):
            lm.build_design_matrix(iset)
        basis = lm.build_design_matrix(iset, require_full_rank=False)
        assert basis.rank == 2 and not basis.full_rank

    @pytest.mark.parametrize("factor, rank", [(0.5, 3), (2.0, 4)])
    def test_rank_cutoff_convention(self, rng, factor, rank):
        # Centred orthonormal displacement columns scaled by (1, 1, c): the
        # design matrix has singular values sqrt(7), 1, 1 and c.  Those at
        # most 7 * eps * sigma_max do not count towards the rank.
        A = rng.standard_normal((7, 3))
        Q, _ = np.linalg.qr(A - A.mean(axis=0))
        _, s, _ = np.linalg.svd(design_matrix(Q, np.zeros(3)), full_matrices=False)
        cutoff = 7 * np.finfo(float).eps * s[0]
        iset = make_set(Q * [1.0, 1.0, factor * cutoff])
        basis = lm.build_design_matrix(iset, require_full_rank=False)
        assert basis.rank == rank and basis.full_rank == (rank == 4)


class TestRegressionFit:
    def test_constant_values(self, rng):
        iset = make_set(rng.standard_normal((6, 2)))
        basis = lm.build_design_matrix(iset)
        model = lm.fit_regression_model(basis, np.full(6, 7.0))
        assert model.c == pytest.approx(7.0, abs=1e-12)
        np.testing.assert_allclose(model.g, 0.0, atol=1e-12)

    def test_affine_exactness(self, rng):
        for _ in range(10):
            pts = rng.standard_normal((8, 3))
            iset = make_set(pts)
            g_true = rng.standard_normal(3)
            values = 2.5 + pts @ g_true
            model = lm.fit_regression_model(lm.build_design_matrix(iset), values)
            scale = 1.0 + np.max(np.abs(values))
            assert np.max(np.abs(model.values(pts) - values)) <= 1e-10 * scale

    def test_parabola_hand_oracle(self):
        # f(y) = y^2 on {-1, 0, 1}: normal equations give c = 2/3, g = 0
        iset = make_set([[-1.0], [0.0], [1.0]])
        model = lm.fit_regression_model(lm.build_design_matrix(iset), [1.0, 0.0, 1.0])
        assert model.c == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert model.g[0] == pytest.approx(0.0, abs=1e-12)
        residuals = model.values(iset.points) - [1.0, 0.0, 1.0]
        np.testing.assert_allclose(residuals, [-1.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0], atol=1e-12)

    def test_length_mismatch(self):
        basis = lm.build_design_matrix(make_set([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            lm.fit_regression_model(basis, [1.0, 2.0, 3.0])


class TestLagrangePolynomials:
    def test_square_case_delta_property(self, rng):
        pts = rng.standard_normal((4, 3))
        basis = lm.build_design_matrix(make_set(pts))
        L = basis.stacked_lagrange().table(pts).T
        assert np.max(np.abs(L - np.eye(4))) <= 1e-10

    def test_partition_of_unity(self, rng):
        pts = rng.standard_normal((9, 3))
        basis = lm.build_design_matrix(make_set(pts))
        for ell in basis.stacked_lagrange().table(rng.standard_normal((20, 3))).T:
            assert ell.sum() == pytest.approx(1.0, abs=1e-9)

    def test_matches_pseudoinverse_oracle(self):
        # dense SVD pseudoinverse oracle, built independently
        pts = np.array([[-1.0], [0.0], [1.0]])
        basis = lm.build_design_matrix(make_set(pts))
        M = np.column_stack([np.ones(3), pts])
        pinv = np.linalg.pinv(M)
        y = np.array([0.0])
        expected = pinv.T @ np.concatenate([[1.0], y])
        ell = basis.stacked_lagrange().table(y[None])[:, 0]
        np.testing.assert_allclose(ell, expected, atol=1e-12)
        np.testing.assert_allclose(ell, [1 / 3] * 3, atol=1e-12)


class TestReproductionIdentities:
    def test_design_transpose_reproduction(self, rng):
        # M^T l(y) = [1; y - x] at random evaluation points
        pts = rng.standard_normal((10, 4)) * 2.0
        basis = lm.build_design_matrix(make_set(pts))
        M = design_matrix(pts, np.zeros(4))
        ys = rng.standard_normal((25, 4))
        for y, ell in zip(ys, basis.stacked_lagrange().table(ys).T):
            np.testing.assert_allclose(
                M.T @ ell, np.concatenate([[1.0], y]), atol=1e-9
            )

    def test_pseudoinverse_identities(self, rng):
        pts = rng.standard_normal((8, 3))
        basis = lm.build_design_matrix(make_set(pts))
        M, pinv = design_matrix(pts, np.zeros(3)), basis.lagrange_coeffs
        np.testing.assert_allclose(M @ pinv @ M, M, atol=1e-9)
        np.testing.assert_allclose(pinv @ M @ pinv, pinv, atol=1e-9)
        np.testing.assert_allclose(np.linalg.pinv(M.T), pinv.T, atol=1e-9)


class TestFullyLinearBounds:
    def setup_poised(self, rng, region, x, delta, p, lam):
        iset, cert, _ = poisedness.improve_to_poised(
            None, region, x, delta, p, lam, rng=rng
        )
        return iset, cert

    def test_affine_objective_zero_ratios(self, rng):
        region = geo.Box([-1.0, -1.0], [1.0, 1.0])
        iset, _ = self.setup_poised(rng, region, np.zeros(2), 0.5, 6, 2.0)
        g_true = np.array([1.0, -2.0])
        values = iset.points @ g_true + 0.3
        model = lm.fit_regression_model(lm.build_design_matrix(iset), values)
        report = acc.fully_linear_report(
            model, lambda y: y @ g_true + 0.3, lambda y: g_true, region,
            iset.base, iset.radius,
            *acc.regression_accuracy_constants(iset.npoints, 2.0, 0.0, 1.0), rng=rng,
        )
        assert report.max_ratio_f == 0.0 and report.max_ratio_g == 0.0
        assert not report.violated

    def test_quadratic_on_box_within_bounds(self, rng):
        region = geo.Box([-1.0, -1.0], [1.0, 1.0])
        x = np.zeros(2)
        iset, cert = self.setup_poised(rng, region, x, 0.5, 6, 2.0)

        def f(y):
            return float(y @ y)

        def grad(y):
            return 2.0 * np.asarray(y)

        values = np.array([f(y) for y in iset.points])
        model = lm.fit_regression_model(lm.build_design_matrix(iset), values)
        # quadratic-level certificate transfers to regression with sqrt(p)
        lam_reg = np.sqrt(iset.npoints) * 2.0
        report = acc.fully_linear_report(
            model, f, grad, region, iset.base, iset.radius,
            *acc.regression_accuracy_constants(iset.npoints, lam_reg, 2.0, 1.0), rng=rng,
        )
        assert report.max_ratio_f <= 1.0
        assert report.max_ratio_g <= 1.0

    def test_flagged_violation_with_misstated_constants(self, rng):
        # shrinking the claimed Lipschitz constant far enough must flag
        region = geo.Box([-1.0, -1.0], [1.0, 1.0])
        iset, _ = self.setup_poised(rng, region, np.zeros(2), 0.5, 6, 2.0)

        def f(y):
            return float(y @ y)

        values = np.array([f(y) for y in iset.points])
        model = lm.fit_regression_model(lm.build_design_matrix(iset), values)
        report = acc.fully_linear_report(
            model, f, lambda y: 2.0 * np.asarray(y), region, iset.base, iset.radius,
            *acc.regression_accuracy_constants(iset.npoints, 2.0, 2e-4, 1.0), rng=rng,
        )
        assert report.violated


class TestInterpolationSet:
    def test_displacement_bound(self):
        iset = make_set([[0.3, 0.0], [0.0, -0.4]], radius=0.5)
        assert iset.displacement_bound == pytest.approx(0.8)

    def test_feasibility_certification(self):
        region = geo.Box([0.0, 0.0], [1.0, 1.0])
        good = make_set([[0.2, 0.2], [0.5, 0.9]], base=[0.5, 0.5])
        bad = make_set([[0.2, 0.2], [1.5, 0.9]], base=[0.5, 0.5])
        assert good.feasible(region)
        assert not bad.feasible(region)
        # Membership is exact: 5e-10 outside is outside.
        assert not make_set([[0.2, 0.2], [1.0 + 5e-10, 0.9]], base=[0.5, 0.5]).feasible(region)

    def test_replace_point_is_functional(self):
        iset = make_set([[0.0], [1.0]], values=[5.0, 6.0])
        new = iset.replace_point(1, [2.0], value=7.0)
        assert iset.points[1, 0] == 1.0 and new.points[1, 0] == 2.0
        assert new.values[1] == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            make_set([[0.0, 1.0]], base=[0.0])
        with pytest.raises(ValueError):
            lm.InterpolationSet(np.zeros(1), 0.0, np.zeros((1, 1)))
        with pytest.raises(ValueError):
            make_set([[0.0]], values=[1.0, 2.0])
