import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexdfo import geometry as geo
from convexdfo.problems import get_problem
from convexdfo.solver import SolverConfig, solve

from oracles import arc_projection, grid_project


def regions_for_properties():
    return [
        geo.WholeSpace(2),
        geo.Box([0.0, 0.0], [1.0, 1.0]),
        geo.Box([-1.0, -2.0, 0.5], [1.0, 2.0, 3.0]),
        geo.Ball([0.0, 0.0], 1.0),
        geo.Ball([0.3, -0.2, 0.1], 2.0),
        geo.Halfspaces([[1.0, 0.0]], [0.0]),
        geo.Halfspaces([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [1.0, 1.0, 1.0]),
        geo.Intersection([geo.Box([0.0, 0.0], [1.0, 1.0]), geo.Ball([0.0, 0.0], 1.0)]),
        geo.Intersection([geo.Ball([0.0, 0.0], 1.5), geo.Ball([0.5, 0.0], 1.2)]),
        # Box with a ball whose centre lies outside it, and halfspace with ball.
        geo.Intersection([geo.Box([0.0, 0.0], [1.0, 1.0]), geo.Ball([1.5, 0.5], 1.0)]),
        geo.Intersection([geo.Halfspaces([[1.0, 1.0]], [1.0]), geo.Ball([0.0, 0.0], 1.2)]),
    ]


class TestProjectExamples:
    def test_box_clamp(self):
        box = geo.Box([0.0, 0.0], [1.0, 1.0])
        res = geo.project(box, [2.0, 0.5])
        np.testing.assert_allclose(res.point, [1.0, 0.5], atol=0)
        assert res.residual == 0.0

    def test_ball_radial_scaling(self):
        ball = geo.Ball([0.0, 0.0], 1.0)
        res = geo.project(ball, [3.0, 4.0])
        np.testing.assert_allclose(res.point, [0.6, 0.8], atol=1e-15)

    def test_box_ball_intersection_matches_refined_oracle(self):
        box = geo.Box([0.0, 0.0], [1.0, 1.0])
        region = geo.Intersection([box, geo.Ball([0.0, 0.0], 1.0)])
        y = np.array([2.0, 2.0])
        res = geo.project(region, y)
        # coarse grid brackets the active-arc minimizer; derivative bisection
        # polishes it to machine precision
        coarse = grid_project(region, y, [-0.1, -0.1], [1.1, 1.1], levels=3)
        assert np.linalg.norm(res.point - coarse) <= 1e-3
        truth = arc_projection([0.0, 0.0], 1.0, y, box.is_member)
        assert np.linalg.norm(res.point - truth) <= 1e-8
        # this instance also has a closed form on the diagonal
        np.testing.assert_allclose(res.point, [np.sqrt(0.5)] * 2, atol=1e-9)

    def test_halfspace_projection(self):
        hs = geo.Halfspaces([[2.0, 0.0]], [2.0])  # x <= 1 scaled
        res = geo.project(hs, [3.0, 7.0])
        np.testing.assert_allclose(res.point, [1.0, 7.0], atol=1e-12)

    def test_polyhedron_dykstra_matches_grid_oracle(self):
        region = geo.Halfspaces(
            [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [1.0, 1.0, 1.0]
        )
        y = np.array([2.0, 1.7])
        res = geo.project(region, y)
        truth = grid_project(region, y, [-2.5, -2.5], [1.5, 1.5])
        assert np.linalg.norm(res.point - truth) <= 1e-7


class TestContains:
    def test_box_interior(self):
        assert geo.contains(geo.Box([0, 0], [1, 1]), [0.5, 0.5], tol=0.0)

    def test_ball_boundary_within_tolerance(self):
        assert geo.contains(geo.Ball([0.0, 0.0], 1.0), [1.0 + 1e-12, 0.0], tol=1e-10)

    def test_halfspace_outside(self):
        assert not geo.contains(geo.Halfspaces([[1.0, 0.0]], [0.0]), [1.0, 0.0], tol=1e-6)

    def test_intersection_exact_membership(self):
        region = geo.Intersection([geo.Box([0, 0], [1, 1]), geo.Ball([0, 0], 1.0)])
        assert geo.contains(region, [0.5, 0.5], tol=0.0)
        assert not geo.contains(region, [0.9, 0.9], tol=0.0)

    def test_default_tolerance_scales(self):
        ball = geo.Ball([0.0, 0.0], 1.0)
        assert geo.contains(ball, [1.0 + 1e-10, 0.0])


class TestShrinkInto:
    def test_step_along_a_halfspace_face_becomes_a_member(self):
        # From a point on the face, a step along it rounds 1.1e-15 outside,
        # and no shrink toward x removes that outward component: the
        # region's projection of x + s is taken instead.
        a = np.arange(1.0, 5.0) / 7.0 + 0.1
        region = geo.Halfspaces([a], [1.0])
        x = np.array([2.3626253286236953, 0.839929334794141, 0.3559843977807613,
                      -0.12796053923261252])
        s = np.array([-0.5215536298485419, 0.2666477708440711, -0.08784897323037666,
                      0.10462412562041068])
        assert region.is_member(x) and not region.is_member(x + s)
        shrunk = geo.shrink_into(region, x, s)
        assert region.is_member(x + shrunk)
        assert np.linalg.norm(shrunk - s) <= 1e-14

    def test_step_that_neither_shrink_nor_dykstra_mends_is_pulled_to_the_centroid(self):
        # A solver step on the simplex from x, 9.5e-12 inside the face
        # x_1 = 0, ends 4.8e-11 beyond that face next to the vertex (0, 1).
        # No shrink toward x gets back inside, and the Dykstra projection
        # stops outside too: the end is pulled toward the centroid of the
        # members among the set's points, or the step is zero.
        region = geo.Halfspaces(np.vstack([-np.eye(2), np.ones(2)]), np.r_[0.0, 0.0, 1.0])
        x = np.array([9.464679040505075e-12, 0.7096659363119987])
        s = np.array([-5.7433752198576826e-11, 0.2903340637359705])
        assert region.is_member(x) and not region.is_member(x + s)
        assert not region.is_member(geo.project(region, x + s).point)
        points = x + 0.1 * np.array([[0, 0], [1, 0], [0, -1], [1, -1], [-1, 0]])
        pulled = geo.shrink_into(region, x, s, points)
        assert region.is_member(x + pulled)
        assert np.linalg.norm(pulled - s) <= 1e-8
        np.testing.assert_array_equal(geo.shrink_into(region, x, s), np.zeros(2))

    def test_member_and_inward_steps(self):
        # A member comes back as the same object; a step that a shrink
        # toward x mends is shrunk along s.
        region = geo.Box([0.0, 0.0], [0.3, 1.0])
        x, s = np.array([0.1, 0.5]), np.array([0.1, 0.1])
        assert geo.shrink_into(region, x, s) is s
        s = np.array([0.2, 0.1])  # 0.1 + 0.2 rounds above 0.3
        assert not region.is_member(x + s)
        shrunk = geo.shrink_into(region, x, s)
        assert region.is_member(x + shrunk)
        np.testing.assert_allclose(shrunk / np.linalg.norm(shrunk), s / np.linalg.norm(s))


class TestBallIntersectionProjection:
    def test_whole_space_reduces_to_ball(self):
        point = geo.TrustRegionProjector(geo.WholeSpace(2), np.zeros(2), 1.0)([[0.0, 2.0]])[0]
        np.testing.assert_allclose(point, [0.0, 1.0], atol=1e-15)

    def test_box_with_ball_matches_refined_oracle(self):
        box = geo.Box([0.0, 0.0], [1.0, 1.0])
        y = np.array([1.0, 1.0])
        point = geo.TrustRegionProjector(box, np.zeros(2), 0.5)(y[None])[0]
        region = geo.Intersection([box, geo.Ball(np.zeros(2), 0.5)])
        coarse = grid_project(region, y, [-0.1, -0.1], [0.6, 0.6], levels=3)
        assert np.linalg.norm(point - coarse) <= 1e-3
        truth = arc_projection([0.0, 0.0], 0.5, y, box.is_member)
        assert np.linalg.norm(point - truth) <= 1e-8

    def test_feasible_point_is_fixed(self):
        box = geo.Box([0.0, 0.0], [1.0, 1.0])
        y = np.array([0.2, 0.1])
        point = geo.TrustRegionProjector(box, np.zeros(2), 0.5)(y[None])[0]
        np.testing.assert_array_equal(point, y)

    def test_two_ball_closed_form_vs_dykstra(self, rng):
        for _ in range(50):
            c = rng.standard_normal(3) * 0.3
            region = geo.Ball(c, 0.8 + rng.random())
            center = c + rng.standard_normal(3) * 0.5
            radius = 0.5 + rng.random()
            if np.linalg.norm(center - c) >= 0.9 * (region.radius + radius):
                continue
            y = rng.standard_normal(3) * 2.5
            point = geo.TrustRegionProjector(region, center, radius)(y[None])[0]
            pts, _, _ = geo._dykstra_batch(
                [region, geo.Ball(center, radius)], np.array([y])
            )
            assert np.linalg.norm(point - pts[0]) <= 1e-7

    @pytest.mark.parametrize("delta", [1e-6, 1e-7, 1e-8])
    def test_small_cap_of_a_ball_lands_on_the_trust_sphere(self, delta):
        # A trust radius tiny against the region's cuts a small cap, whose
        # circle radius sqrt(R^2 - t^2) must be computed without cancelling.
        x = np.array([1.0, 0.0])
        projector = geo.TrustRegionProjector(geo.Ball(np.zeros(2), 1.0), x, delta)
        y = projector((x + 100.0 * delta * np.array([1.0, 0.1]))[None])[0]
        assert np.linalg.norm(y - x) == pytest.approx(delta, rel=1e-12, abs=0.0)


PIECE_KINDS = ["whole", "box", "box-centre-outside", "box-tangent", "ball", "halfspace"]


def piece_ball_case(kind, n, seed):
    """One analytic piece, a ball ``B(c, r)`` meeting it, and query rows."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, n)
    if kind == "whole":
        region = geo.WholeSpace(n)
    elif kind.startswith("box"):
        lower = c - rng.uniform(0.1, 1.0, n)
        upper = c + rng.uniform(0.1, 1.0, n)
        if kind == "box-centre-outside":
            lower[0], upper[0] = c[0] + 0.1, c[0] + 1.0
        region = geo.Box(lower, upper)
    elif kind == "ball":
        region = geo.Ball(c + rng.uniform(-0.8, 0.8, n), rng.uniform(0.3, 1.5))
    else:
        region = geo.Halfspaces([rng.standard_normal(n)], [rng.uniform(-0.5, 0.5)])
    if kind == "box-tangent":
        # The ball touches the nearest face of the box from inside.
        r = float(min(np.min(c - region.lower), np.min(region.upper - c)))
    else:
        r = region.distance(c) + rng.uniform(0.2, 1.5)
    ys = c + rng.standard_normal((12, n)) * rng.uniform(0.3, 3.0)
    ys[0, ::2] = c[::2]  # zero components of y - c
    return region, c, r, ys


def exact_box_ball_projection(box, c, r, ys):
    """Projection onto box ∩ B(c, r) by bisection on s in (0, 1].

    The projection is clip(c + s (y - c)) at s = 1 when that is in the ball,
    else at the root of ||clip(c + s (y - c)) - c|| = r, which is
    nondecreasing in s even when c lies outside the box.
    """

    def at(s):
        return np.clip(c + s[:, None] * (ys - c), box.lower, box.upper)

    lo, hi = np.zeros(len(ys)), np.ones(len(ys))
    inside = np.linalg.norm(at(hi) - c, axis=1) <= r
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        beyond = np.linalg.norm(at(mid) - c, axis=1) > r
        hi, lo = np.where(beyond, mid, hi), np.where(beyond, lo, mid)
    return at(np.where(inside, 1.0, lo))


class TestPieceBallRoutes:
    """Projection onto one analytic piece intersected with a ball."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(PIECE_KINDS), st.integers(1, 20), st.integers(0, 2**32 - 1))
    @example(kind="box-tangent", n=2, seed=1504092)  # Dykstra stalls at 1.2e-4 here
    @example(kind="halfspace", n=1, seed=268435457)  # max|out| = 130 against max|ys| = 0.9
    def test_exact_projection(self, kind, n, seed):
        region, c, r, ys = piece_ball_case(kind, n, seed)
        ball = geo.Ball(c, r)
        out = geo.TrustRegionProjector(region, c, r)(ys)
        scale = 1.0 + np.max(np.abs(ys))

        # The result lies in the piece (exactly for boxes, by clipping) and
        # in the ball, up to rounding, which is no finer than the ulp of the
        # larger of the input and output coordinates.
        if kind.startswith("box"):
            assert np.all(region.is_member_batch(out))
        rounding = 1e-14 * (1.0 + max(np.max(np.abs(ys)), np.max(np.abs(out))))
        assert all(geo.contains(region, p, rounding) for p in out)
        assert np.all(np.linalg.norm(out - c, axis=1) <= r * (1.0 + 1e-14))

        # Feasible rows come back unchanged (on whole space, to rounding).
        feasible = region.is_member_batch(ys) & ball.is_member_batch(ys)
        if kind == "whole":
            np.testing.assert_allclose(out[feasible], ys[feasible], rtol=1e-15, atol=1e-15)
        else:
            np.testing.assert_array_equal(out[feasible], ys[feasible])

        # Agreement with a reference: the exact bisection for boxes, where
        # Dykstra's scheme can stall short of its tolerance, and Dykstra's
        # scheme for the other pieces.
        if kind.startswith("box"):
            reference = exact_box_ball_projection(region, c, r, ys)
        else:
            reference, _, _ = geo._dykstra_batch(region.dykstra_pieces() + [ball], ys)
        assert np.max(np.abs(out - reference)) <= 1e-7 * scale

        # Variational inequality against points of piece ∩ ball.
        spread = c + r * np.random.default_rng(seed).uniform(-1.5, 1.5, (20, n))
        zs = geo.TrustRegionProjector(region, c, r)(spread)
        gaps = np.einsum("ij,kj->ik", ys - out, zs) - np.einsum("ij,ij->i", ys - out, out)[:, None]
        assert np.max(gaps) <= 1e-9 * scale**2

    def test_analytic_routes_never_run_dykstra(self, monkeypatch, rng):
        def fail(*args):
            raise AssertionError("Dykstra reached")

        monkeypatch.setattr(geo, "_dykstra_batch", fail)
        problem = get_problem("quad2d")
        solve(problem.f, problem.region, problem.x0, SolverConfig(max_evals=80, seed=0))
        for kind in PIECE_KINDS:
            region, c, r, ys = piece_ball_case(kind, 3, 7)
            projector = geo.TrustRegionProjector(region, c, r)
            projector(ys)
            assert projector.last_sweeps == 0
        for region in regions_for_properties():
            pieces = region.dykstra_pieces()
            with_ball = len(pieces) == 2 and any(isinstance(p, geo.Ball) for p in pieces)
            if len(pieces) <= 1 or with_ball:
                geo.project(region, rng.standard_normal((10, region.dimension)) * 3.0)


def random_points(rng, region, count, spread=2.0):
    return rng.standard_normal((count, region.dimension)) * spread


class TestProjectionProperties:
    @pytest.mark.parametrize("region", regions_for_properties(), ids=repr)
    def test_idempotence(self, region, rng):
        for y in random_points(rng, region, 25):
            p1 = geo.project(region, y).point
            p2 = geo.project(region, p1).point
            assert np.linalg.norm(p2 - p1) <= 1e-10

    @pytest.mark.parametrize("region", regions_for_properties(), ids=repr)
    def test_nonexpansive(self, region, rng):
        for _ in range(25):
            y1, y2 = random_points(rng, region, 2)
            p1 = geo.project(region, y1).point
            p2 = geo.project(region, y2).point
            assert np.linalg.norm(p1 - p2) <= np.linalg.norm(y1 - y2) + 1e-10

    @pytest.mark.parametrize("region", regions_for_properties(), ids=repr)
    def test_members_are_fixed_points(self, region, rng):
        inside = [p for p in random_points(rng, region, 60, spread=0.8)
                  if geo.contains(region, p, 1e-12)]
        for y in inside:
            assert np.linalg.norm(geo.project(region, y).point - y) <= 1e-9

    @pytest.mark.parametrize("region", regions_for_properties(), ids=repr)
    def test_variational_inequality(self, region, rng):
        # (y - proj(y)) . (z - proj(y)) <= 0 for all feasible z
        candidates = random_points(rng, region, 200, spread=0.8)
        feasible = [z for z in candidates if geo.contains(region, z, 0.0)]
        for y in random_points(rng, region, 10):
            p = geo.project(region, y).point
            for z in feasible[:20]:
                assert (y - p) @ (z - p) <= 1e-8


class TestValidation:
    def test_box_needs_interior(self):
        with pytest.raises(ValueError):
            geo.Box([0.0, 0.0], [0.0, 0.0])
        geo.Box([0.0, 0.0], [0.0, 1.0])  # one flat coordinate is allowed

    def test_ball_radius_positive(self):
        with pytest.raises(ValueError):
            geo.Ball([0.0], 0.0)

    def test_intersection_dimension_mismatch(self):
        with pytest.raises(ValueError):
            geo.Intersection([geo.WholeSpace(2), geo.WholeSpace(3)])

    def test_dimension_check_on_project(self):
        with pytest.raises(ValueError):
            geo.project(geo.Box([0.0, 0.0], [1.0, 1.0]), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("pieces,y,message", [
        ([geo.Box([0.0, 0.0], [1.0, 1.0]), geo.Ball([3.0, 3.0], 1.0)], [5.0, 5.0],
         "too far from the box"),
        ([geo.Ball([0.0, 0.0], 1.0), geo.Ball([3.0, 0.0], 1.0)], [1.5, 2.0],
         "ball intersection is empty"),
        ([geo.Ball([0.0, 0.0], 1.0), geo.Ball([2.0, 0.0], 1.0)], [1.0, 2.0],  # tangent
         "ball intersection is empty"),
        ([geo.Halfspaces([[1.0, 0.0]], [0.0]), geo.Ball([3.0, 0.0], 1.0)], [1.5, 2.0],
         "ball misses the halfspace"),
    ], ids=["box-far-ball", "disjoint-balls", "tangent-balls", "halfspace-far-ball"])
    def test_empty_intersection_raises(self, pieces, y, message):
        # An intersection with at most one point has no projection: each
        # closed-form route says so with its own error.
        with pytest.raises(geo.ProjectionError, match=message):
            geo.project(geo.Intersection(pieces), np.array(y))


class TestRegionGrammar:
    def test_box_shorthand(self):
        region = geo.parse_region("box(-1,1)^2")
        assert isinstance(region, geo.Box)
        np.testing.assert_array_equal(region.lower, [-1.0, -1.0])
        np.testing.assert_array_equal(region.upper, [1.0, 1.0])

    def test_ball_keyword_form(self):
        region = geo.parse_region("ball(center=[0, 0.5], radius=2)")
        assert isinstance(region, geo.Ball)
        assert region.radius == 2.0

    def test_ball_shorthand(self):
        region = geo.parse_region("ball(1.5)^3")
        assert region.dimension == 3 and region.radius == 1.5

    def test_intersect_and_halfspace(self):
        region = geo.parse_region(
            "intersect(box(0,2)^2, halfspace(normal=[1,1], offset=3))"
        )
        assert isinstance(region, geo.Intersection)
        assert region.is_member(np.array([1.0, 1.0]))
        assert not region.is_member(np.array([1.9, 1.9]))

    def test_whole(self):
        assert geo.parse_region("whole(4)").dimension == 4

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            geo.parse_region("polytope(3)")
        with pytest.raises(ValueError):
            geo.parse_region("box(")
