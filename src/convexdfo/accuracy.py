"""Guaranteed model-accuracy constants and sampled checks of them.

The constants follow from a poised set's level ``lam`` and displacement
bound ``beta``; :func:`fully_linear_report` samples the two bounds they
give for any model.  Validation only: nothing on the solver path imports
this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import sample_feasible_in_ball

__all__ = [
    "regression_accuracy_constants",
    "hessian_rayleigh_bound",
    "mfn_accuracy_constants",
    "FullyLinearReport",
    "fully_linear_report",
]


def regression_accuracy_constants(p, lam, lipschitz, beta):
    """Model-error constants guaranteed by poised regression geometry.

    Returns ``(kappa_ef, kappa_eg)`` for the function-error bound
    ``|f - m| <= kappa_ef * delta^2`` over feasible steps of length <= delta
    and the directional gradient bound
    ``|(grad f(x) - g)^T d| <= kappa_eg * delta`` over feasible unit steps.
    """
    kappa_eg = p * lam * lipschitz * beta**2
    kappa_ef = kappa_eg + lipschitz / 2.0
    return kappa_ef, kappa_eg


def hessian_rayleigh_bound(p, lam, lipschitz, beta):
    """Bound on displacement-direction Hessian quotients for poised geometry.

    For a set poised at level ``lam`` with displacement bound ``beta``, the
    model Hessian satisfies
    ``|(y_s-x)^T H (y_t-x)| <= kappa_H * beta^2 * min(delta,1)^2`` with this
    ``kappa_H``.
    """
    return lipschitz * p * (8.0 * lam * beta**2 + 36.0 * lam * beta + 58.0 * lam + 6.0)


def mfn_accuracy_constants(p, lam, lipschitz, beta):
    """Model-error constants guaranteed by poised quadratic interpolation.

    Returns ``(kappa_ef, kappa_eg)`` for the same two bounds as the
    regression constants, with the Hessian term folded in.
    """
    kappa_h = hessian_rayleigh_bound(p, lam, lipschitz, beta)
    kappa_eg = p**1.5 * lam * (lipschitz + kappa_h) * beta**2
    kappa_ef = 0.5 * lipschitz + 1.5 * kappa_eg + 0.5 * p * lam**2 * kappa_h * beta**2
    return kappa_ef, kappa_eg


@dataclass
class FullyLinearReport:
    """Observed-vs-guaranteed accuracy ratios from feasible sampling."""

    kappa_ef: float
    kappa_eg: float
    max_ratio_f: float
    max_ratio_g: float
    samples_f: int
    samples_g: int

    @property
    def max_ratio(self):
        return max(self.max_ratio_f, self.max_ratio_g)

    @property
    def violated(self):
        return self.max_ratio > 1.0


def _ratio(observed, bound, scale):
    if bound > 0.0:
        return observed / bound
    return 0.0 if observed <= 1e-10 * (1.0 + scale) else np.inf


def fully_linear_report(model, f, grad, region, x, delta, kappa_ef, kappa_eg,
                        n_samples=1000, rng=None):
    """Sample-based check of the two accuracy bounds for any model.

    Draws feasible points in ``B(x, delta)`` for the function-error bound
    and in ``B(x, 1)`` for the directional gradient bound, and reports the
    worst observed/(guaranteed bound) ratios.  Report-only: ratios above 1
    mean the claimed constants do not cover this model.
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    x = np.asarray(x, dtype=float)

    ys = sample_feasible_in_ball(rng, region, x, delta, n_samples)
    fvals = np.array([f(y) for y in ys])
    err_f = np.abs(fvals - model.values(ys))
    ratio_f = _ratio(float(np.max(err_f)), kappa_ef * delta**2, float(np.max(np.abs(fvals))))

    zs = sample_feasible_in_ball(rng, region, x, 1.0, n_samples)
    gap = np.asarray(grad(x), float) - model.grad(x)
    err_g = np.abs((zs - x) @ gap)
    ratio_g = _ratio(float(np.max(err_g)), kappa_eg * delta, float(np.linalg.norm(gap)))

    return FullyLinearReport(
        kappa_ef=float(kappa_ef),
        kappa_eg=float(kappa_eg),
        max_ratio_f=float(ratio_f),
        max_ratio_g=float(ratio_g),
        samples_f=len(ys),
        samples_g=len(zs),
    )
