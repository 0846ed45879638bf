"""Linear regression and minimum-Frobenius-norm quadratic models.

Fit both model families to samples of a smooth function and inspect their
Lagrange polynomials, which drive all the geometry control.
"""

import numpy as np

from convexdfo import (
    InterpolationSet,
    assemble_system,
    build_design_matrix,
    fit_mfn_model,
    fit_regression_model,
)

rng = np.random.default_rng(3)


def f(y):
    return np.sin(y[0]) + 0.5 * y[1] ** 2 + 0.2 * y[0] * y[1]


# Regression takes any p >= n+1 samples; here nine points in the plane.
points = rng.uniform(-0.8, 0.8, (9, 2))
reg_set = InterpolationSet(base=np.zeros(2), radius=0.8, points=points)
reg_values = np.array([f(y) for y in points])

basis = build_design_matrix(reg_set)
linear = fit_regression_model(basis, reg_values)
# Every model is one row of Quadratics: c, g and a Hessian factor (none here).
print("affine model: c = %.4f, g =" % linear.c[0], np.round(linear.g[0], 4))
print("residual norm:", np.linalg.norm(linear.values(points) - reg_values))

# Quadratic interpolation is underdetermined for n+2 <= p < (n+1)(n+2)/2;
# in the plane that means between 4 and 6 points.  Among all quadratics
# matching the data, the fitted one has the smallest Frobenius-norm Hessian.
iset = InterpolationSet(base=np.zeros(2), radius=0.8, points=points[:5])
values = reg_values[:5]
system = assemble_system(iset)
quad = fit_mfn_model(system, values)
print("quadratic model Hessian:\n", np.round(quad.hessians()[0], 4))
print("interpolation error:", np.max(np.abs(quad.values(iset.points) - values)))

# The Lagrange polynomials are the rows of one Quadratics sharing the
# Hessian factor Z / scale; its table holds every row's value at every point.
lagrange = system.stacked_lagrange()
print("Lagrange stack:", len(lagrange.c), "rows, Hessian factor", lagrange.U.shape)

# Lagrange polynomials take value 1 at their own point and 0 at the others
# (exactly for interpolation, in the least-squares sense for regression).
L = lagrange.table(iset.points)
print("max |l_t(y_s) - delta_st|:", np.max(np.abs(L - np.eye(5))))

# Both families reproduce affine data: the values sum to one and rebuild
# displacements, which is what makes poisedness control model accuracy.
y = rng.uniform(-0.8, 0.8, 2)
ell = lagrange.table(y[None])[:, 0]
print("sum of l_t(y):", ell.sum())
print("rebuilt displacement:", ell @ (iset.points - iset.base), "vs", y - iset.base)

# The model is the value-weighted combination of its Lagrange polynomials.
combo = values @ ell
print("m(y) =", quad.value(y), " sum_t f(y_t) l_t(y) =", combo)
