import numpy as np
import pytest

from convexdfo import accuracy as acc
from convexdfo import geometry as geo
from convexdfo import poisedness
from convexdfo import quadratic_models as qm
from convexdfo.linear_models import InterpolationSet, build_design_matrix

from oracles import (
    assemble_dense_system,
    dense_signed_logdet,
    full_quadratic_interpolation,
    grid_lagrange_max,
    kkt_lagrange_values,
    min_frobenius_model,
)


def make_set(points, base=None, radius=1.0):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    base = np.zeros(points.shape[1]) if base is None else np.asarray(base, float)
    return InterpolationSet(base, radius, points)


def random_set(rng, n, p, radius=1.0, spread=None):
    spread = min(radius, 1.0) if spread is None else spread
    pts = rng.uniform(-spread, spread, (p, n))
    return make_set(pts, radius=radius)


def random_invertible_set(rng, n, p, radius=1.0):
    for _ in range(100):
        iset = random_set(rng, n, p, radius)
        system = qm.assemble_system(iset, require_invertible=False)
        if system.invertible:
            return iset, system
    raise AssertionError("could not draw an invertible random set")


class TestAssembly:
    def test_hand_computed_q_block(self):
        iset = make_set([[-1.0], [0.0], [1.0]])
        system = qm.assemble_system(iset)
        # cofactor-style oracle: the dense 5x5 determinant of the system
        # whose Q block is computed by hand
        dense = assemble_dense_system(iset.points, iset.base, iset.radius)
        np.testing.assert_array_equal(
            dense[:3, :3], [[0.5, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, 0.5]]
        )
        sign, logabs = dense_signed_logdet(iset.points, iset.base, iset.radius)
        assert system.det.sign == sign
        assert system.det.logabs == pytest.approx(logabs, abs=1e-12)
        assert system.det.value == pytest.approx(2.0)

    def test_duplicate_point_is_singular(self):
        iset = make_set([[0.1, 0.0], [0.1, 0.0], [0.0, 0.3], [-0.2, 0.1], [0.3, 0.2]])
        with pytest.raises(qm.SingularGeometryError, match="singular geometry"):
            qm.assemble_system(iset)
        system = qm.assemble_system(iset, require_invertible=False)
        assert not system.invertible

    def test_point_count_range_enforced(self, rng):
        with pytest.raises(ValueError):
            qm.assemble_system(random_set(rng, 2, 3))  # p = n+1 excluded
        with pytest.raises(ValueError):
            qm.assemble_system(random_set(rng, 2, 7))  # beyond full quadratic

    def test_full_quadratic_count_generic_points_invertible(self, rng):
        for n in (2, 3):
            p = qm.max_points(n)
            iset, system = random_invertible_set(rng, n, p)
            sign, logabs = dense_signed_logdet(iset.points, iset.base, iset.radius)
            assert system.det.sign == sign
            assert system.det.logabs == pytest.approx(logabs, rel=1e-9)

    def test_scaling_invariance_of_lagrange_values(self, rng):
        # the same geometry at two radii gives identical Lagrange values
        pts = rng.uniform(-0.01, 0.01, (5, 2))
        small = qm.assemble_system(make_set(pts, radius=0.01))
        plain = qm.assemble_system(make_set(pts, radius=1.0))
        y = rng.uniform(-0.01, 0.01, (1, 2))
        np.testing.assert_allclose(
            small.stacked_lagrange().table(y), plain.stacked_lagrange().table(y), atol=1e-8
        )


class TestMfnFit:
    def test_interpolation_conditions(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            p = int(rng.integers(n + 2, qm.max_points(n) + 1))
            iset, system = random_invertible_set(rng, n, p)
            values = rng.standard_normal(p)
            model = qm.fit_mfn_model(system, values)
            scale = 1.0 + np.max(np.abs(values))
            assert np.max(np.abs(model.values(iset.points) - values)) <= 1e-8 * scale

    def test_affine_gives_zero_hessian(self, rng):
        iset, system = random_invertible_set(rng, 3, 6)
        g_true = rng.standard_normal(3)
        values = iset.points @ g_true - 1.25
        model = qm.fit_mfn_model(system, values)
        assert np.max(np.abs(model.hessians())) <= 1e-8
        sample = rng.uniform(-1, 1, (50, 3))
        np.testing.assert_allclose(model.values(sample), sample @ g_true - 1.25,
                                   atol=1e-8)

    def test_full_interpolation_reproduces_quadratics(self, rng):
        for n in (2, 3):
            p = qm.max_points(n)
            iset, system = random_invertible_set(rng, n, p)
            A = rng.standard_normal((n, n))
            H_true = A + A.T
            g_true = rng.standard_normal(n)

            def f(y):
                return 0.7 + g_true @ y + 0.5 * y @ H_true @ y

            values = np.array([f(y) for y in iset.points])
            model = qm.fit_mfn_model(system, values)
            c_o, g_o, H_o = full_quadratic_interpolation(iset.points, iset.base, values)
            sample = rng.uniform(-1, 1, (100, n))
            direct = np.array([
                c_o + g_o @ (y - iset.base) + 0.5 * (y - iset.base) @ H_o @ (y - iset.base)
                for y in sample
            ])
            np.testing.assert_allclose(model.values(sample), direct, atol=1e-7)
            np.testing.assert_allclose(
                model.values(sample), [f(y) for y in sample], atol=1e-7
            )

    def test_minimum_frobenius_norm_against_lstsq_oracle(self, rng):
        for _ in range(10):
            iset, system = random_invertible_set(rng, 2, 4)
            values = rng.standard_normal(4)
            model = qm.fit_mfn_model(system, values)
            c_o, g_o, H_o = min_frobenius_model(iset.points, iset.base, values)
            np.testing.assert_allclose(model.hessians()[0], H_o, atol=1e-7)
            np.testing.assert_allclose(model.g[0], g_o, atol=1e-7)
            assert model.c == pytest.approx(c_o, abs=1e-7)
            # no interpolating quadratic has a smaller Hessian norm
            assert np.linalg.norm(model.hessians()[0], "fro") <= np.linalg.norm(H_o, "fro") + 1e-9

    def test_hessian_symmetric(self, rng):
        iset, system = random_invertible_set(rng, 3, 7)
        H = qm.fit_mfn_model(system, rng.standard_normal(7)).hessians()[0]
        np.testing.assert_array_equal(H, H.T)

    def test_singular_system_rejected(self):
        iset = make_set([[0.1, 0.0], [0.1, 0.0], [0.0, 0.3], [-0.2, 0.1], [0.3, 0.2]])
        system = qm.assemble_system(iset, require_invertible=False)
        with pytest.raises(qm.SingularGeometryError):
            qm.fit_mfn_model(system, np.zeros(5))


class TestMfnLagrange:
    def test_delta_property(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 4))
            p = int(rng.integers(n + 2, qm.max_points(n) + 1))
            iset, system = random_invertible_set(rng, n, p)
            L = system.stacked_lagrange().table(iset.points)
            assert np.max(np.abs(L - np.eye(p))) <= 1e-8

    def test_linear_reproduction_identities(self, rng):
        iset, system = random_invertible_set(rng, 2, 5)
        ys = rng.uniform(-1, 1, (50, 2))
        for y, ell in zip(ys, system.stacked_lagrange().table(ys).T):
            assert ell.sum() == pytest.approx(1.0, abs=1e-8)
            np.testing.assert_allclose(
                ell @ (iset.points - iset.base), y - iset.base, atol=1e-8
            )

    def test_model_is_lagrange_combination(self, rng):
        iset, system = random_invertible_set(rng, 2, 5)
        values = rng.standard_normal(5)
        model = qm.fit_mfn_model(system, values)
        ys = rng.uniform(-1, 1, (20, 2))
        for y, ell in zip(ys, kkt_lagrange_values(system, ys)):
            assert model.value(y) == pytest.approx(values @ ell, abs=1e-8)

    def test_polynomial_stack_matches_factorization_route(self, rng):
        iset, system = random_invertible_set(rng, 3, 8)
        ys = rng.uniform(-1, 1, (30, 3))
        stack = system.stacked_lagrange()
        via_phi = kkt_lagrange_values(system, ys)
        table = stack.table(ys)
        for t in range(iset.npoints):
            row = stack.values(ys, np.full(len(ys), t))
            np.testing.assert_allclose(row, via_phi[:, t], atol=1e-9)
            np.testing.assert_allclose(table[t], row, atol=1e-9)


class TestDeterminantUpdate:
    def test_noop_swap_has_unit_ratio(self, rng):
        iset, system = random_invertible_set(rng, 2, 5)
        for t in range(5):
            assert qm.det_swap_factor(system, t, iset.points[t]) == pytest.approx(
                1.0, abs=1e-8
            )

    def test_predicted_matches_refactorization(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 4))
            p = int(rng.integers(n + 2, qm.max_points(n) + 1))
            iset, system = random_invertible_set(rng, n, p)
            t = int(rng.integers(p))
            y_new = rng.uniform(-1, 1, n)
            factor = qm.det_swap_factor(system, t, y_new)
            sign, logabs = dense_signed_logdet(
                iset.replace_point(t, y_new).points, iset.base, iset.radius
            )
            if factor == 0.0:
                continue
            assert system.det.sign * np.sign(factor) == sign
            assert system.det.logabs + np.log(abs(factor)) == pytest.approx(
                logabs, rel=1e-7, abs=1e-7)

    def test_growth_inequality(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 4))
            p = int(rng.integers(n + 2, qm.max_points(n) + 1))
            iset, system = random_invertible_set(rng, n, p)
            t = int(rng.integers(p))
            y_new = rng.uniform(-1, 1, n)
            ell = system.stacked_lagrange().table(y_new[None])[t, 0]
            ratio = qm.det_swap_factor(system, t, y_new)
            assert abs(ratio) >= ell**2 * (1.0 - 1e-8) - 1e-12


class TestPoisednessTransfer:
    def test_regression_polynomials_dominated(self, rng):
        # poised quadratic geometry bounds the regression polynomials:
        # ||l_reg(y)|| <= ||l(y)|| and the max transfers with sqrt(p)
        region = geo.Box([-1.0, -1.0], [1.0, 1.0])
        iset, cert, _ = poisedness.improve_to_poised(
            None, region, np.zeros(2), 1.0, 6, 2.0, rng=rng
        )
        system = qm.assemble_system(iset)
        basis = build_design_matrix(iset)
        p = iset.npoints
        ys = rng.uniform(-1, 1, (40, 2))
        for ell_reg, ell in zip(basis.stacked_lagrange().table(ys).T,
                                system.stacked_lagrange().table(ys).T):
            assert np.linalg.norm(ell_reg) <= np.linalg.norm(ell) + 1e-9
            assert np.max(np.abs(ell_reg)) <= np.sqrt(p) * np.max(np.abs(ell)) + 1e-9


class TestHessianRayleighBound:
    def test_bound_holds_on_poised_sets(self, rng):
        region = geo.Box([-1.0, -1.0], [1.0, 1.0])
        x = np.zeros(2)
        delta = 0.5
        lipschitz = 2.0

        def f(y):
            return float(y @ y)

        for trial in range(5):
            iset, cert, _ = poisedness.improve_to_poised(
                None, region, x, delta, 5, 2.0, rng=rng
            )
            system = qm.assemble_system(iset)
            # sound poisedness level for the bound: dense grid + margin
            lam_hat = grid_lagrange_max(system, region, x, min(delta, 1.0)).max() + 1e-3
            beta = iset.displacement_bound
            values = np.array([f(y) for y in iset.points])
            model = qm.fit_mfn_model(system, values)
            kappa_h = acc.hessian_rayleigh_bound(iset.npoints, lam_hat, lipschitz, beta)
            D = iset.points - iset.base
            rayleigh = np.max(np.abs(D @ model.hessians()[0] @ D.T))
            assert rayleigh <= kappa_h * beta**2 * min(delta, 1.0) ** 2


class TestAccuracyConstants:
    def test_mfn_constants_formula(self):
        p, lam, lipschitz, beta = 6, 2.0, 3.0, 1.0
        kappa_h = acc.hessian_rayleigh_bound(p, lam, lipschitz, beta)
        assert kappa_h == pytest.approx(3.0 * 6 * (16.0 + 72.0 + 116.0 + 6.0))
        kappa_ef, kappa_eg = acc.mfn_accuracy_constants(p, lam, lipschitz, beta)
        assert kappa_eg == pytest.approx(6**1.5 * 2.0 * (3.0 + kappa_h))
        assert kappa_ef == pytest.approx(1.5 + 1.5 * kappa_eg + 0.5 * 6 * 4.0 * kappa_h)

    def test_fully_linear_bounds_on_poised_set(self, rng):
        region = geo.Box([-1.0, -1.0], [1.0, 1.0])
        iset, _, _ = poisedness.improve_to_poised(
            None, region, np.zeros(2), 0.5, 6, 2.0, rng=rng
        )
        system = qm.assemble_system(iset)

        def f(y):
            return float(y @ y)

        values = np.array([f(y) for y in iset.points])
        model = qm.fit_mfn_model(system, values)
        report = acc.fully_linear_report(
            model, f, lambda y: 2.0 * np.asarray(y), region, iset.base, iset.radius,
            *acc.mfn_accuracy_constants(iset.npoints, 2.0, 2.0, 1.0), rng=rng,
        )
        assert report.max_ratio_f <= 1.0 and report.max_ratio_g <= 1.0
