"""Feasible regions and Euclidean projections.

Build regions from the constructors or the spec grammar, project points
onto them, and intersect them with trust-region balls.
"""

import numpy as np

from convexdfo import geometry as geo

# Regions can be built directly ...
box = geo.Box([0.0, 0.0], [1.0, 1.0])
ball = geo.Ball([0.0, 0.0], 1.0)

# ... or parsed from the compact grammar used in CLI flags and config files.
lens = geo.parse_region("intersect(box(0,1)^2, ball(1)^2)")

print("projecting (2, 0.5) onto the unit box:", geo.project(box, [2.0, 0.5]).point)
print("projecting (3, 4) onto the unit ball: ", geo.project(ball, [3.0, 4.0]).point)

# Intersections route through exact two-set treatments where possible and
# Dykstra's alternating corrections otherwise; the result object reports the
# iteration count and the final residual.
res = geo.project(lens, [2.0, 2.0])
print("projecting (2, 2) onto box-and-ball:  ", res.point,
      f"(sweeps={res.iterations}, residual={res.residual:.1e})")

# Membership uses exact tests where the geometry permits, with a tolerance
# scaled like 1e-9 * (1 + |y|) by default.
print("on the ball boundary within 1e-10:", geo.contains(ball, [1.0 + 1e-12, 0.0]))

# Every trust-region subproblem works over the region intersected with a
# ball around the current iterate; a projector onto that set takes a batch
# of rows and keeps the Dykstra sweep count of its last call.
projector = geo.TrustRegionProjector(box, np.zeros(2), 0.5)
tr = projector(np.array([[1.0, 1.0]]))[0]
print("projection onto box intersect B(0, 0.5) from (1, 1):", tr,
      f"(sweeps={projector.last_sweeps})")

# The projection obeys the variational inequality: the residual direction
# separates the point from the whole feasible set.
rng = np.random.default_rng(0)
y = np.array([1.4, -0.3])
p = geo.project(lens, y).point
samples = rng.uniform(-0.2, 1.2, (2000, 2))
feasible = samples[lens.is_member_batch(samples)]
gaps = (y - p) @ (feasible - p).T
print("max (y - p).(z - p) over feasible z (should be <= 0):", gaps.max())
