import numpy as np
import pytest

from convexdfo import Ball, Box, Halfspaces, Intersection, WholeSpace
from perfbench.yardstick import reference_criticality


def test_whole_space_is_gradient_norm():
    g = np.array([3.0, -4.0, 12.0])
    assert reference_criticality(g, np.zeros(3), WholeSpace(3)) == pytest.approx(13.0, abs=1e-14)


def test_zero_gradient():
    assert reference_criticality(np.zeros(2), np.zeros(2), Box([-1, -1], [1, 1])) == 0.0


def test_interior_point_sees_whole_unit_ball():
    box = Box([-5.0] * 3, [5.0] * 3)
    g = np.array([1.0, -2.0, 0.5])
    assert reference_criticality(g, np.zeros(3), box) == pytest.approx(np.linalg.norm(g), rel=1e-9)


def test_active_box_face():
    # On the face x1 = 1 with g pushing outwards in x1, only the x2 part counts.
    box = Box([-1.0, -1.0], [1.0, 1.0])
    x = np.array([1.0, 0.0])
    assert reference_criticality(np.array([-1.0, 0.0]), x, box) == pytest.approx(0.0, abs=1e-9)
    assert reference_criticality(np.array([-1.0, 2.0]), x, box) == pytest.approx(2.0, rel=1e-9)


def test_box_face_at_short_distance():
    # The face x1 = 0.3 is within reach: d = (0.3, -sqrt(1 - 0.09)) is optimal.
    box = Box([-1.0, -1.0], [0.3, 1.0])
    g = np.array([-1.0, 1.0])
    expected = 0.3 + np.sqrt(1.0 - 0.09)
    assert reference_criticality(g, np.zeros(2), box) == pytest.approx(expected, rel=1e-8)


def test_corner():
    box = Box([-1.0, -1.0], [1.0, 1.0])
    x = np.array([1.0, 1.0])
    assert reference_criticality(np.array([-1.0, -3.0]), x, box) == pytest.approx(0.0, abs=1e-9)
    # Only the x2 direction leaves the corner into the box.
    assert reference_criticality(np.array([-1.0, 3.0]), x, box) == pytest.approx(3.0, rel=1e-9)


def test_ball_boundary():
    ball = Ball([0.0, 0.0], 1.0)
    x = np.array([0.0, 1.0])
    # Gradient along the outward normal: stationary.
    assert reference_criticality(np.array([0.0, -1.0]), x, ball) == pytest.approx(0.0, abs=1e-6)
    # Gradient pointing inwards: the full unit step is available.
    assert reference_criticality(np.array([0.0, 1.0]), x, ball) == pytest.approx(1.0, rel=1e-8)


def test_halfspace_and_intersection():
    half = Halfspaces([[1.0, 0.0]], [0.5])
    g = np.array([-1.0, 0.0])
    assert reference_criticality(g, np.zeros(2), half) == pytest.approx(0.5, rel=1e-8)
    region = Intersection([Box([-1.0, -1.0], [1.0, 1.0]), Ball([0.0, 0.0], 0.5)])
    assert reference_criticality(g, np.zeros(2), region) == pytest.approx(0.5, rel=1e-8)


def _box_oracle(g, x, box):
    """Exact box answer: d(nu) = clip(-g / (2 nu), l - x, u - x) with ||d|| = 1."""
    lo, hi = box.lower - x, box.upper - x

    def d(nu):
        return np.clip(-g / (2.0 * nu), lo, hi)

    if np.linalg.norm(np.clip(-1e300 * g, lo, hi)) <= 1.0:
        return -float(g @ np.clip(-1e300 * g, lo, hi))
    a, b = 1e-12, 1e12
    for _ in range(200):
        mid = np.sqrt(a * b)
        a, b = (mid, b) if np.linalg.norm(d(mid)) > 1.0 else (a, mid)
    return -float(g @ d(b))


def test_random_boxes_match_exact_answer():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        box = Box(-rng.uniform(0.1, 1.5, n), rng.uniform(0.1, 1.5, n))
        x = rng.uniform(box.lower, box.upper)
        g = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 1)
        expected = _box_oracle(g, x, box)
        assert reference_criticality(g, x, box) == pytest.approx(expected, rel=1e-6, abs=1e-12)
