import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexdfo import geometry as geo
from convexdfo import subproblems as sp
from convexdfo.quadratic_models import Quadratics

from oracles import grid_criticality


class TestCriticalityMeasure:
    def test_unconstrained_closed_form(self):
        res = sp.criticality_measure([3.0, 4.0], [0.0, 0.0], geo.WholeSpace(2))
        assert res.value == 5.0
        np.testing.assert_allclose(res.minimizer, [-0.6, -0.8])

    def test_zero_gradient(self):
        res = sp.criticality_measure([0.0, 0.0], [0.5, 0.5], geo.Box([0, 0], [1, 1]))
        assert res.value == 0.0
        np.testing.assert_array_equal(res.minimizer, [0.0, 0.0])

    def test_box_corner_matches_grid_oracle(self):
        region = geo.Box([0.0, 0.0], [1.0, 1.0])
        g = np.array([1.0, -1.0])
        res = sp.criticality_measure(g, np.zeros(2), region)
        oracle = grid_criticality(g, np.zeros(2), region, step=1e-3)
        assert abs(res.value - oracle) <= 1e-4
        assert geo.contains(region, np.zeros(2) + res.minimizer, 1e-9)
        assert np.linalg.norm(res.minimizer) <= 1.0 + 1e-9
        assert res.value == pytest.approx(abs(g @ res.minimizer))
        assert g @ res.minimizer <= 0.0

    @pytest.mark.parametrize("case", [
        ("box", [0.2, 0.9], [0.5, 1.5]),
        ("box", [1.0, 0.3], [-2.0, 0.7]),
        ("ball", [0.5, 0.0], [1.0, 1.0]),
        ("ball", [0.6, -0.6], [-0.3, 2.0]),
        ("simplex", [0.3, 0.7], [-1.0, 0.4]),
        ("simplex", [0.0, 0.2], [0.5, -1.5]),
        ("lens", [0.25, 0.0], [0.3, -1.0]),
        ("lens", [0.9, 0.3], [-1.0, -0.6]),
        # The minimizer is where the lens meets the nearly tangent trust
        # sphere: Dykstra gives up on the 4th point of the extrapolated path,
        # which ends the path search, not the measure.
        ("lens", [-0.0942301237885772, 0.04362028051094957],
         [-0.4530744436687142, -1.0658380219633747]),
    ])
    def test_random_instances_match_grid_oracle(self, case):
        kind, x, g = case
        region = {
            "box": geo.Box([0.0, 0.0], [1.0, 1.0]),
            "ball": geo.Ball([0.0, 0.0], 1.0),
            # Several pieces: projections onto these take the Dykstra route.
            "simplex": geo.Halfspaces([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0]),
            "lens": geo.Intersection([geo.Ball([0.0, 0.0], 1.0), geo.Ball([0.5, 0.0], 1.0)]),
        }[kind]
        x, g = np.asarray(x, float), np.asarray(g, float)
        res = sp.criticality_measure(g, x, region)
        oracle = grid_criticality(g, x, region, step=1e-3)
        assert abs(res.value - oracle) <= 1e-3

    def test_positive_homogeneity_exact(self):
        region = geo.Box([0.0, 0.0], [1.0, 1.0])
        g = np.array([0.7, -0.2])
        base = sp.criticality_measure(g, np.zeros(2), region)
        for factor in (2.0, 0.5, 13.75):
            scaled = sp.criticality_measure(factor * g, np.zeros(2), region)
            assert scaled.value == pytest.approx(factor * base.value, rel=1e-9)

    def test_infeasible_base_rejected(self):
        with pytest.raises(ValueError):
            sp.criticality_measure([1.0, 0.0], [2.0, 0.0], geo.Box([0, 0], [1, 1]))

    def test_box_face_regression(self):
        # Optimum on the sphere with two coordinates at their bounds:
        # d = (0.1, sqrt(0.98), 0.1) for this g.
        g = np.array([-0.0894879618884183, -0.01402973013099694, -1.4498638219066111])
        res = sp.criticality_measure(g, [0.9, -0.45, 0.9], geo.Box([-0.5] * 3, [1.0] * 3))
        expected = 0.1 * abs(g[0]) + 0.1 * abs(g[2]) + abs(g[1]) * np.sqrt(0.98)
        assert expected == pytest.approx(0.1678239026188862, abs=1e-15)
        assert res.value == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.sampled_from([1.0, 0.1, 1e-3]), st.integers(0, 2**32 - 1))
    def test_box_matches_exact_oracle(self, n, radius, seed):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-2.0, 0.0, n)
        hi = lo + rng.uniform(0.01, 2.0, n)
        # Each coordinate of x on its lower face, its upper face, or inside.
        where = rng.integers(0, 3, n)
        x = np.where(where == 0, lo, np.where(where == 1, hi, rng.uniform(lo, hi)))
        g = rng.standard_normal(n)
        g[rng.random(n) < 0.15] = 0.0
        region = geo.Box(lo, hi)
        res = sp.criticality_measure(g, x, region, radius)
        expected = box_criticality(g, x, lo, hi, radius)
        assert res.value == pytest.approx(expected, rel=1e-12, abs=1e-15 * radius)
        assert geo.contains(region, x + res.minimizer, 1e-14 * (1.0 + np.max(np.abs(x))))
        assert np.linalg.norm(res.minimizer) <= radius * (1.0 + 1e-12)

    def test_slow_box_coordinate_is_exact(self):
        # |g_5| / ||g|| is 6e-4: constant steps of radius / ||g|| would need
        # about 560 of them to bring that coordinate to its bound, past the
        # 500-step cap the measure once had.
        lo = np.array([-0.49, -0.13, -0.22, -0.48, -0.33, 0.0])
        hi = np.array([0.0, 1.37, 0.0, 0.0, 0.0, 0.43])
        g = np.array([-0.868, 0.481, 0.316, -2.490, 0.00168, 0.835])
        x = np.zeros(6)
        expected = box_criticality(g, x, lo, hi, 1.0)
        assert expected == pytest.approx(0.1326044, abs=5e-8)
        res = sp.criticality_measure(g, x, geo.Box(lo, hi))
        assert res.value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind", ["simplex", "lens", "box-ball"])
    @pytest.mark.parametrize("seed", range(5))
    def test_positive_homogeneity_on_pieces(self, kind, seed):
        # The stopping rules are scale-free in g, so pi(s g) = s pi(g) holds
        # to rounding on the Dykstra routes too.
        region, lo, hi = {
            "simplex": (geo.Halfspaces(np.vstack([-np.eye(3), np.ones((1, 3))]),
                                       [0.5, 0.5, 0.5, 1.0]), -0.5, 2.0),
            "lens": (geo.Intersection([geo.Ball([0.0, 0.0], 1.0),
                                       geo.Ball([0.5, 0.0], 1.0)]), -1.0, 1.5),
            "box-ball": (geo.Intersection([geo.Box([-0.5] * 3, [1.0] * 3),
                                           geo.Ball(np.zeros(3), 1.2)]), -0.5, 1.0),
        }[kind]
        rng = np.random.default_rng(seed)
        x = rng.uniform(lo, hi, region.dimension)
        while not region.is_member(x):
            x = rng.uniform(lo, hi, region.dimension)
        g = rng.standard_normal(region.dimension)
        base = sp.criticality_measure(g, x, region).value
        for s in (1e-12, 1e-6, 1e6):
            scaled = sp.criticality_measure(s * g, x, region).value
            assert abs(scaled - s * base) <= 1e-12 * s * np.linalg.norm(g)

    def test_radius_scaling_unconstrained(self):
        res = sp.criticality_measure([3.0, 4.0], [0.0, 0.0], geo.WholeSpace(2),
                                     radius=0.25)
        assert res.value == pytest.approx(1.25)


def box_criticality(g, x, lo, hi, radius):
    """Exact min g.d over the box shifted by -x intersected with B(0, radius).

    The minimizer is d(s) = clip(-s g, lo - x, hi - x) for the smallest s
    with ||d(s)|| = radius, or the limit s -> inf when that stays inside the
    ball; ||d(s)|| is nondecreasing in s, so s is found by bisection.
    """
    def d(s):
        return np.clip(-s * g, lo - x, hi - x)

    nonzero = g != 0.0
    if not np.any(nonzero):
        return 0.0
    span = np.maximum(hi - x, x - lo)[nonzero]
    s_hi = float(np.max(span / np.abs(g[nonzero])))  # every coordinate clipped
    if np.linalg.norm(d(s_hi)) <= radius:
        return max(0.0, -float(g @ d(s_hi)))
    s_lo = 0.0
    for _ in range(200):
        mid = 0.5 * (s_lo + s_hi)
        if np.linalg.norm(d(mid)) <= radius:
            s_lo = mid
        else:
            s_hi = mid
    return max(0.0, -float(g @ d(s_lo)))


def linear_model(g, base):
    return Quadratics.from_hessian(base, 0.0, g)


class TestTrustRegionStep:
    def test_linear_model_whole_space_is_cauchy_point(self):
        model = linear_model([3.0, 4.0], [0.0, 0.0])
        step = sp.solve_trust_region_step(model, np.zeros(2), geo.WholeSpace(2), 0.7)
        np.testing.assert_allclose(step.step, [-0.42, -0.56], atol=1e-12)
        assert step.predicted_reduction == pytest.approx(0.7 * 5.0)
        assert step.satisfied_cauchy
        assert step.cauchy_constant_used == 0.1

    def test_zero_criticality_returns_zero_step(self):
        model = linear_model([0.0, 0.0], [0.0, 0.0])
        step = sp.solve_trust_region_step(model, np.zeros(2), geo.WholeSpace(2), 1.0)
        np.testing.assert_array_equal(step.step, [0.0, 0.0])
        assert step.predicted_reduction == 0.0
        assert step.satisfied_cauchy

    @pytest.mark.parametrize("with_points", [True, False], ids=["centroid", "zero"])
    def test_step_that_ends_outside_is_pulled_inside_or_zero(self, with_points, monkeypatch):
        # The descent's step ends 4.8e-11 outside the simplex, where neither
        # a shrink toward x nor the Dykstra projection gets back inside
        # (the repro of TestShrinkInto): it is pulled toward the centroid of
        # the set's members, or with no set it is zero and predicts nothing.
        region = geo.Halfspaces(np.vstack([-np.eye(2), np.ones(2)]), np.r_[0.0, 0.0, 1.0])
        x = np.array([9.464679040505075e-12, 0.7096659363119987])
        s = np.array([-5.7433752198576826e-11, 0.2903340637359705])
        model = linear_model([1.0, -1.0], x)
        monkeypatch.setattr(sp, "_descend", lambda *args: (s, model.value(x) - model.value(x + s)))
        points = x + 0.1 * np.array([[0, 0], [1, 0], [0, -1], [1, -1]]) if with_points else None
        step = sp.solve_trust_region_step(model, x, region, 0.5, pi_m=1.0, points=points)
        assert region.is_member(x + step.step)
        assert step.predicted_reduction == model.value(x) - model.value(x + step.step)
        if with_points:
            assert np.linalg.norm(step.step - s) <= 1e-8 and step.predicted_reduction > 0.0
        else:
            np.testing.assert_array_equal(step.step, np.zeros(2))
            assert step.predicted_reduction == 0.0

    def test_interior_quadratic_reaches_minimizer(self):
        H = np.diag([1.0, 2.0])
        g = np.array([0.3, -0.4])
        model = Quadratics.from_hessian(np.zeros(2), 1.0, g, H)
        xstar = -np.linalg.solve(H, g)
        step = sp.solve_trust_region_step(model, np.zeros(2), geo.WholeSpace(2), 1.0)
        assert np.linalg.norm(step.step - xstar) <= 1e-4
        assert step.satisfied_cauchy

    def test_interior_quadratic_in_box(self):
        H = np.array([[2.0, 0.3], [0.3, 1.0]])
        g = np.array([0.4, -0.3])
        model = Quadratics.from_hessian(np.zeros(2), 0.0, g, H)
        region = geo.Box([-1.0, -1.0], [1.0, 1.0])
        xstar = -np.linalg.solve(H, g)
        assert region.is_member(xstar) and np.linalg.norm(xstar) < 1.0
        step = sp.solve_trust_region_step(model, np.zeros(2), region, 1.0)
        assert np.linalg.norm(step.step - xstar) <= 1e-4

    @pytest.mark.parametrize("seed", range(8))
    def test_cauchy_condition_and_feasibility(self, seed):
        rng = np.random.default_rng(seed)
        region = geo.Box([-1.0, -1.0], [1.0, 1.0])
        x = rng.uniform(-1, 1, 2)
        A = rng.standard_normal((2, 2))
        model = Quadratics.from_hessian(
            x, rng.standard_normal(), rng.standard_normal(2), A + A.T
        )
        delta = float(rng.uniform(0.05, 2.0))
        step = sp.solve_trust_region_step(model, x, region, delta, c1=0.1)
        assert np.linalg.norm(step.step) <= delta * (1 + 1e-9)
        assert geo.contains(region, x + step.step, 1e-9)
        assert step.predicted_reduction >= 0.0
        target = sp.cauchy_decrease_target(step.pi_model, model.hess_norms()[0], delta, 0.1)
        if step.satisfied_cauchy:
            assert step.predicted_reduction >= target - 1e-10
        assert step.satisfied_cauchy  # the two-phase search achieves it here

    def test_reduction_monotone_with_phase_two(self):
        # phase 2 never returns less reduction than the Cauchy phase
        H = np.diag([4.0, 0.5])
        g = np.array([1.0, 1.0])
        model = Quadratics.from_hessian(np.zeros(2), 0.0, g, H)
        region = geo.Ball([0.0, 0.0], 1.0)
        step = sp.solve_trust_region_step(model, np.zeros(2), region, 0.8)
        gnorm = np.linalg.norm(g)
        gamma = 0.8 / gnorm
        cauchy_best = 0.0
        proj = geo.TrustRegionProjector(region, np.zeros(2), 0.8)
        for _ in range(sp.CAUCHY_HALVINGS):
            s = proj((np.zeros(2) - gamma * g)[None, :])[0]
            cauchy_best = max(cauchy_best, model.value(np.zeros(2)) - model.value(s))
            gamma *= 0.5
        assert step.predicted_reduction >= cauchy_best - 1e-12

    def test_step_moves_along_curved_boundary(self):
        # At (1, 0) on the unit disk, -g points almost straight out of it:
        # the projected-gradient path at gamma = delta / ||g|| moves only
        # 0.3% of delta along the circle, and each polishing step about as
        # much.  The model keeps decreasing along the circle well past
        # delta, so the step must use it.
        x = np.array([1.0, 0.0])
        model = linear_model([-1.0, -0.003], x)
        delta = 1e-3
        step = sp.solve_trust_region_step(model, x, geo.Ball([0.0, 0.0], 1.0), delta)
        assert np.linalg.norm(step.step) >= 0.5 * delta
        assert geo.Ball([0.0, 0.0], 1.0).is_member(x + step.step)
        assert step.satisfied_cauchy

    @pytest.mark.parametrize("region, x, g, delta", [
        # The first 12 points of the extrapolated path are exact, the 13th
        # needs 5,408 Dykstra sweeps and the 14th does not converge.
        (geo.Intersection([geo.Ball([0.0, 0.0], 1.0), geo.Ball([0.5, 0.0], 1.0)]),
         [0.7553585642569692, -0.655311711633212],
         [-0.7693203309211949, 0.5425830336149764], 0.1),
        # From the 4th point on, each doubling about doubles the sweeps
        # (131, 356, ..., 7,095); the 10th does not converge.
        (geo.Intersection([geo.Box([-0.5] * 3, [1.0] * 3), geo.Ball(np.zeros(3), 1.2)]),
         [0.1641289275253197, 0.18523283350659647, -0.5],
         [0.12977273970235542, -0.9858686902969566, 0.4742885151043254], 1.0),
    ], ids=["lens", "box-ball"])
    def test_extrapolation_stops_at_dykstra(self, region, x, g, delta, monkeypatch):
        gave_up = []

        class Projector(geo.TrustRegionProjector):
            def __call__(self, ys):
                try:
                    return super().__call__(ys)
                except geo.ProjectionError:
                    gave_up.append(ys)
                    raise

        monkeypatch.setattr(sp, "TrustRegionProjector", Projector)
        x = np.asarray(x, float)
        step = sp.solve_trust_region_step(linear_model(g, x), x, region, delta)
        assert gave_up == []
        assert region.is_member(x + step.step)
        assert np.linalg.norm(step.step) <= delta
        assert step.satisfied_cauchy

    def test_whole_space_reaches_trust_region_minimum(self):
        shortfalls = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 21))
            h = np.arange(1.0, n + 1.0)
            g = rng.standard_normal(n)
            delta = 10.0 ** rng.uniform(-2, 0.5)
            model = Quadratics.from_hessian(np.zeros(n), 0.0, g, np.diag(h))
            step = sp.solve_trust_region_step(
                model, np.zeros(n), geo.WholeSpace(n), delta, pi_m=np.linalg.norm(g)
            )
            best = exact_trust_region_decrease(h, g, delta)
            if step.predicted_reduction < best * (1.0 - 1e-9):
                shortfalls.append((seed, step.predicted_reduction / best))
        assert shortfalls == []


def exact_trust_region_decrease(h, g, delta):
    """max -(g.s + s.diag(h).s / 2) over ||s|| <= delta, for h > 0.

    The minimizer is s = -g / (h + lam) with lam = 0 if that fits in the
    ball, else the lam > 0 putting it on the sphere, found by bisection.
    """
    def s(lam):
        return -g / (h + lam)

    lam_lo, lam_hi = 0.0, 0.0
    if np.linalg.norm(s(0.0)) > delta:
        lam_hi = np.linalg.norm(g) / delta
        for _ in range(200):
            mid = 0.5 * (lam_lo + lam_hi)
            if np.linalg.norm(s(mid)) > delta:
                lam_lo = mid
            else:
                lam_hi = mid
    best = s(lam_hi)
    return -float(g @ best + 0.5 * best @ (h * best))


def backtracking_only(model, x, g, m_x, proj, delta, target):
    """Phase 1 of the trust-region step before it could extrapolate."""
    gamma = delta / float(np.linalg.norm(g))
    best_s, best_red = np.zeros_like(x), 0.0
    for _ in range(sp.CAUCHY_HALVINGS):
        s = proj(x - gamma * g) - x
        red = m_x - model.value(x + s)
        if red > best_red:
            best_s, best_red = s, red
        if red >= target:
            break
        gamma *= 0.5
    return best_s, best_red


@pytest.mark.parametrize("seed", range(40))
def test_whole_space_search_is_backtracking_bit_for_bit(seed):
    # On the whole space the first trial already lies on the sphere, so a
    # doubled gamma projects back onto it and extrapolation never moves.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 21))
    x = rng.standard_normal(n)
    A = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 2)
    model = Quadratics.from_hessian(x, rng.standard_normal(), rng.standard_normal(n), A + A.T)
    delta = 10.0 ** rng.uniform(-9, 1)
    g, m_x = model.grad(x), model.value(x)
    pi = float(np.linalg.norm(g))  # the criticality measure on the whole space
    target = sp.cauchy_decrease_target(pi, model.hess_norms()[0], delta, 0.1)
    tr_proj = geo.TrustRegionProjector(geo.WholeSpace(n), x, delta)

    def proj(y):
        return tr_proj(y[None, :])[0]

    new_s, new_red = sp._cauchy_search(model, x, g, m_x, tr_proj, delta, target)
    old_s, old_red = backtracking_only(model, x, g, m_x, proj, delta, target)
    assert new_s.tobytes() == old_s.tobytes()
    assert new_red == old_red
