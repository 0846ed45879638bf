"""Observed model error versus the guaranteed accuracy bounds.

On a poised set the model error over the feasible trust region is bounded
by constants built from (p, lambda, L, beta).  Sampling shows how much
slack those guarantees carry in practice, and what happens when the
claimed Lipschitz constant is wrong.
"""

import numpy as np

from convexdfo import (
    Box,
    assemble_system,
    fit_mfn_model,
    improve_to_poised,
)
from convexdfo.accuracy import (
    fully_linear_report,
    mfn_accuracy_constants,
    regression_accuracy_constants,
)
from convexdfo.problems import get_problem

rng = np.random.default_rng(11)
problem = get_problem("cossum2d")
region = problem.region
lam, delta, p = 2.0, 0.5, 6

iset, cert, _ = improve_to_poised(None, region, problem.x0, delta, p, lam, rng=rng)
system = assemble_system(iset)
values = np.array([problem.f(y) for y in iset.points])
model = fit_mfn_model(system, values)
print(f"model: one row of Quadratics, ||g|| = {np.linalg.norm(model.g[0]):.3f}, "
      f"||H||_2 = {model.hess_norms()[0]:.3f}")

kappa_ef, kappa_eg = mfn_accuracy_constants(p, lam, problem.lipschitz_grad, 1.0)
print(f"guaranteed constants: kappa_ef = {kappa_ef:.1f}, kappa_eg = {kappa_eg:.1f}")

report = fully_linear_report(
    model, problem.f, problem.grad, region, iset.base, iset.radius,
    kappa_ef, kappa_eg, n_samples=2000, rng=rng,
)
print(f"observed/guaranteed function-error ratio: {report.max_ratio_f:.2e}")
print(f"observed/guaranteed gradient-error ratio: {report.max_ratio_g:.2e}")
print("violated:", report.violated)

# The quadratic-interpolation guarantees above carry enormous slack on a
# well-poised set.  The affine-model guarantee is much tighter on clustered
# geometry: there the sampled error sits within a factor of two of the
# bound, so understating the smoothness constant by half already flags.
from convexdfo import Ball, InterpolationSet, build_design_matrix, check_poisedness
from convexdfo import fit_regression_model
from convexdfo.poisedness import structured_initial_points

quad = get_problem("quad2d")
box = Box([-1.0, -1.0], [1.0, 1.0])
x = np.zeros(2)
cluster = InterpolationSet(x, 1.0, structured_initial_points(x, 0.01, 4))
basis = build_design_matrix(cluster)
cert = check_poisedness(basis, box, 1.0 + 1e-9, rng=rng, early_exit=False)
values = np.array([quad.f(y) for y in cluster.points])
affine = fit_regression_model(basis, values)
print(f"\nclustered affine control: lambda = {cert.lambda_observed:.1f}, "
      f"beta = {cluster.displacement_bound:.3f}")
for scale in (1.0, 0.5):
    kappas = regression_accuracy_constants(
        cluster.npoints, cert.lambda_observed, scale * quad.lipschitz_grad,
        cluster.displacement_bound,
    )
    rep = fully_linear_report(
        affine, quad.f, quad.grad, box, cluster.base, cluster.radius, *kappas,
        n_samples=2000, rng=rng,
    )
    print(f"L scaled by {scale:4g}: worst ratio {rep.max_ratio:7.3f}  "
          f"flagged={rep.violated}")
