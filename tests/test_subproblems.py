import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexdfo import geometry as geo
from convexdfo import subproblems as sp
from convexdfo.linear_models import LinearModel
from convexdfo.quadratic_models import QuadraticModel

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
        if res.iterations < sp.CRITICALITY_ITERATIONS:  # stopped at a fixed point
            assert res.value == pytest.approx(expected, rel=1e-9, abs=1e-15 * radius)
        else:
            # A coordinate with |g_i| << ||g|| moves radius |g_i| / ||g|| per
            # step and can outlast the cap; constant-step projected gradient
            # still has its O(1/k) gap bound (Beck 2017, ch. 10).
            gap = radius * np.linalg.norm(g) / (2 * sp.CRITICALITY_ITERATIONS)
            assert res.value <= expected * (1.0 + 1e-9)
            assert expected - res.value <= gap
        assert geo.contains(region, x + res.minimizer, 1e-14 * (1.0 + np.max(np.abs(x))))
        assert np.linalg.norm(res.minimizer) <= radius * (1.0 + 1e-12)

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
    return LinearModel(0.0, np.asarray(g, float), np.asarray(base, float))


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

    def test_interior_quadratic_reaches_minimizer(self):
        H = np.diag([1.0, 2.0])
        g = np.array([0.3, -0.4])
        model = QuadraticModel(1.0, g, H, np.zeros(2))
        xstar = -np.linalg.solve(H, g)
        step = sp.solve_trust_region_step(model, np.zeros(2), geo.WholeSpace(2), 1.0)
        assert np.linalg.norm(step.step - xstar) <= 1e-4
        assert step.satisfied_cauchy

    def test_interior_quadratic_in_box(self):
        H = np.array([[2.0, 0.3], [0.3, 1.0]])
        g = np.array([0.4, -0.3])
        model = QuadraticModel(0.0, g, H, np.zeros(2))
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
        model = QuadraticModel(
            rng.standard_normal(), rng.standard_normal(2), A + A.T, x
        )
        delta = float(rng.uniform(0.05, 2.0))
        step = sp.solve_trust_region_step(model, x, region, delta, c1=0.1)
        assert np.linalg.norm(step.step) <= delta * (1 + 1e-9)
        assert geo.contains(region, x + step.step, 1e-9)
        assert step.predicted_reduction >= 0.0
        target = sp.cauchy_decrease_target(step.pi_model, model.hess_norm(), delta, 0.1)
        if step.satisfied_cauchy:
            assert step.predicted_reduction >= target - 1e-10
        assert step.satisfied_cauchy  # the two-phase search achieves it here

    def test_reduction_monotone_with_phase_two(self):
        # phase 2 never returns less reduction than the Cauchy phase
        H = np.diag([4.0, 0.5])
        g = np.array([1.0, 1.0])
        model = QuadraticModel(0.0, g, H, np.zeros(2))
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
    model = QuadraticModel(rng.standard_normal(), rng.standard_normal(n), A + A.T, x)
    delta = 10.0 ** rng.uniform(-9, 1)
    g, m_x = model.grad(x), model.value(x)
    pi = float(np.linalg.norm(g))  # the criticality measure on the whole space
    target = sp.cauchy_decrease_target(pi, model.hess_norm(), delta, 0.1)
    tr_proj = geo.TrustRegionProjector(geo.WholeSpace(n), x, delta)

    def proj(y):
        return tr_proj(y[None, :])[0]

    new_s, new_red = sp._cauchy_search(model, x, g, m_x, proj, delta, target)
    old_s, old_red = backtracking_only(model, x, g, m_x, proj, delta, target)
    assert new_s.tobytes() == old_s.tobytes()
    assert new_red == old_red
