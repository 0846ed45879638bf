"""Poisedness certificates and constructive geometry repair.

Starting from a badly clustered sample set, verify that its Lagrange
polynomials blow up over the feasible trust region, then repair it by
greedy point swaps; each swap multiplies |det F| by at least lambda^2.
"""

import numpy as np

from convexdfo import (
    Box,
    InterpolationSet,
    assemble_system,
    check_poisedness,
    improve_to_poised,
    initial_invertible_set,
)

rng = np.random.default_rng(7)
region = Box([0.0, 0.0], [2.0, 2.0])
center = np.array([0.3, 0.3])

# A cluster of six nearly coincident points: terrible geometry.
cluster = InterpolationSet(center, 1.0, center + 0.01 * rng.standard_normal((6, 2)))
system = assemble_system(cluster)
cert = check_poisedness(system, region, lam=2.0, rng=rng)
print("clustered set verified:", cert.verified,
      " worst |l_t| found: %.3g" % cert.lambda_observed,
      " at point", np.round(cert.witness_point, 3))

# Repair: swap out the worst Lagrange violation until none exceeds lambda.
repaired, cert, swaps = improve_to_poised(
    cluster, region, center, 1.0, 6, lam=2.0, rng=rng
)
print(f"repair finished after {len(swaps)} swaps; verified = {cert.verified}")
for i, swap in enumerate(swaps):
    print(f"  swap {i}: replaced point {swap.index} where |l_t| = "
          f"{swap.lagrange_value:8.3f};  log|det F| {swap.det_before.logabs:8.3f} -> "
          f"{swap.det_after.logabs:8.3f}")

print("repaired points:\n", np.round(repaired.points, 4))

# Initial sets from scratch: a structured axis/diagonal pattern, with any
# infeasible points replaced by feasible ones that keep the system invertible
# (here the corner of the box forces the minus-axis points to move).
fresh = initial_invertible_set(region, np.zeros(2), 1.0, 6, rng=rng)
print("fresh set at the box corner:\n", np.round(fresh.points, 4))
print("all feasible:", fresh.feasible(region),
      " |det F| =", assemble_system(fresh).det.value)
