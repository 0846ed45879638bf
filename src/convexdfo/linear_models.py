"""Linear regression models on sampled points, and their Lagrange polynomials.

Given p >= n+1 samples of the objective, the affine model
``m(y) = c + g^T (y - x)`` is the least-squares fit, obtained from the
pseudoinverse of the p x (n+1) design matrix whose rows are
``[1, (y_t - x)^T]``.  The t-th regression Lagrange polynomial is the fit
to the t-th standard basis vector; the size of these polynomials over the
feasible part of the trust region is the geometry (poisedness) measure that
controls model accuracy.  The fit is linear in the values, so the model is
``sum_t f(y_t) l_t``: a :class:`~convexdfo.quadratic_models.Quadratics` row
with no Hessian factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .quadratic_models import MfnSystem, Quadratics, SignedLogDet, SingularGeometryError

if TYPE_CHECKING:  # poisedness imports this module
    from .poisedness import PoisednessCertificate

__all__ = [
    "InterpolationSet",
    "RegressionBasis",
    "DegenerateGeometryError",
    "build_design_matrix",
    "fit_regression_model",
]


class DegenerateGeometryError(SingularGeometryError):
    """Sample points do not affinely span R^n (design matrix rank deficient)."""


@dataclass
class InterpolationSet:
    """Sample geometry: base point, trust-region radius, points and values.

    The base point need not be one of the sample points.  Instances are
    treated as immutable; point replacement returns a new set.  ``system``
    is the system of this geometry for the run's model kind (the factored
    :class:`MfnSystem`, or the :class:`RegressionBasis`) or None; ``cert``
    is the :class:`~convexdfo.poisedness.PoisednessCertificate` of that
    system or None.  ``with_values`` keeps both, a new geometry drops both,
    so neither can outlive the points it describes.
    """

    base: np.ndarray
    radius: float
    points: np.ndarray
    values: np.ndarray | None = None
    system: MfnSystem | RegressionBasis | None = field(default=None, repr=False, compare=False)
    cert: PoisednessCertificate | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=float)
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.points.shape[1] != self.base.size:
            raise ValueError("point dimension does not match base point")
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if self.values is not None:
            self.values = np.asarray(self.values, dtype=float)
            if self.values.size != self.points.shape[0]:
                raise ValueError("one value per point required")

    @property
    def npoints(self):
        return self.points.shape[0]

    @property
    def dimension(self):
        return self.base.size

    @property
    def scale(self):
        """Displacement scale min(radius, 1) used throughout the geometry layer."""
        return min(self.radius, 1.0)

    @property
    def displacement_bound(self):
        """Largest point distance from the base, relative to min(radius, 1)."""
        dists = np.linalg.norm(self.points - self.base, axis=1)
        return float(np.max(dists, initial=0.0)) / self.scale

    def replace_point(self, t, point, value=None):
        points = self.points.copy()
        points[t] = point
        values = None
        if self.values is not None:
            values = self.values.copy()
            values[t] = np.nan if value is None else value
        return InterpolationSet(self.base, self.radius, points, values)

    def with_values(self, values):
        return replace(self, points=self.points.copy(), values=values)

    def with_geometry(self, base, radius):
        """Same points, new base and radius (used when the solver recenters)."""
        return InterpolationSet(base, radius, self.points.copy(), self.values)

    def feasible(self, region):
        """Whether every point is an exact member of ``region``."""
        return all(region.is_member(y) for y in self.points)


@dataclass
class RegressionBasis:
    """Numerical rank of the design matrix and the regression Lagrange coefficients.

    ``lagrange_coeffs`` is the SVD pseudoinverse of the design matrix M: one
    column per sample point, holding ``(c_t, g_t)`` for the t-th Lagrange
    polynomial (the pseudoinverse applied to the t-th standard basis
    vector).  :mod:`~convexdfo.poisedness` builds, repairs and certifies
    regression sets on these polynomials; each repair swap grows ``det``,
    det(M^T M) = prod sigma_i^2.  ``pivot_ratio`` is sigma_min / sigma_max.
    """

    base: np.ndarray
    radius: float
    points: np.ndarray
    rank: int
    lagrange_coeffs: np.ndarray
    det: SignedLogDet
    pivot_ratio: float

    @property
    def npoints(self):
        return self.points.shape[0]

    @property
    def dimension(self):
        return self.base.size

    @property
    def full_rank(self):
        return self.rank == self.dimension + 1

    # Regression poisedness requires the displacements to span R^n.
    nondegenerate = full_rank

    def stacked_lagrange(self):
        """All p Lagrange polynomials as affine :class:`Quadratics`."""
        coeffs = self.lagrange_coeffs
        return Quadratics(self.base, coeffs[0], np.ascontiguousarray(coeffs[1:].T))


def build_design_matrix(iset, require_full_rank=True):
    """Assemble the regression system for an interpolation set.

    Builds the p x (n+1) matrix with rows ``[1, (y_t - x)^T]``, its SVD
    pseudoinverse with singular values below
    ``max(p, n+1) * eps * sigma_max`` treated as zero, the Lagrange
    coefficient columns, ``det(M^T M)`` and the pivot ratio.  Raises
    :class:`DegenerateGeometryError` when the rank is below n+1 (caller
    must repair the sample geometry), unless ``require_full_rank`` is False.
    """
    p, n = iset.npoints, iset.dimension
    if p < n + 1:
        raise ValueError(f"regression needs at least n+1={n + 1} points, got {p}")
    M = np.column_stack([np.ones(p), iset.points - iset.base])
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    cutoff = max(p, n + 1) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.count_nonzero(s > cutoff))
    if require_full_rank and rank < n + 1:
        raise DegenerateGeometryError(
            f"degenerate geometry: design matrix rank {rank} < {n + 1}"
        )
    inv_s = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    with np.errstate(divide="ignore"):  # a zero singular value: det = 0
        logdet = 2.0 * float(np.sum(np.log(s)))
    return RegressionBasis(
        base=iset.base,
        radius=iset.radius,
        points=iset.points,
        rank=rank,
        lagrange_coeffs=(Vt.T * inv_s) @ U.T,
        det=SignedLogDet(float(s[-1] > 0.0), logdet),
        pivot_ratio=float(s[-1] / s[0]),
    )


def fit_regression_model(basis, values):
    """Least-squares affine fit ``sum_t f(y_t) l_t`` of the sample values.

    Requires a full-rank basis.  The contraction is one product with the
    Lagrange coefficient columns ``(c_t, g_t)``.
    """
    values = np.asarray(values, dtype=float)
    if values.size != basis.npoints:
        raise ValueError("one value per sample point required")
    if not basis.full_rank:
        raise DegenerateGeometryError("cannot fit on rank-deficient geometry")
    coef = basis.lagrange_coeffs @ values
    return Quadratics(basis.base, coef[:1], coef[None, 1:])
