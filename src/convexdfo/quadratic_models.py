"""Minimum-Frobenius-norm quadratic interpolation via the bordered KKT system.

With n+2 <= p <= (n+1)(n+2)/2 sample points there are infinitely many
quadratics matching the data; the model chosen here has the smallest
Frobenius-norm Hessian.  It is obtained by solving the symmetric
(p+n+1) x (p+n+1) system

    [ Q   M ] [ lambda ]   [ f values ]
    [ M^T 0 ] [ (c, g) ] = [ 0        ],

where ``M`` is the regression design matrix and
``Q_ij = 0.5 * ((y_i - x)^T (y_j - x))^2``.  The Hessian is recovered from
the multipliers as ``H = sum_t lambda_t (y_t - x)(y_t - x)^T``.  The t-th
Lagrange polynomial solves the same system with the t-th standard basis
vector on the right-hand side.  The system is linear in its right-hand
side, so the model is the value-weighted sum ``sum_t f(y_t) l_t``.  Every
quadratic of the package, model or Lagrange polynomial, is a row of
:class:`Quadratics`, whose Hessians stay in this factored form; every
Lagrange value is read from that stack.

The solver's models are least-change fits (Powell's update, as in NEWUOA
and BOBYQA): of the quadratics interpolating ``f``, the one with the least
``||H - H_prev||_F`` for the Hessian ``H_prev`` of its last model.  The
Frobenius-norm objective is translation-invariant, so this is the same
system applied to ``f - q_prev``, ``q_prev(y) = (y - x)^T H_prev (y - x) / 2``:
the model is ``q_prev + sum_t (f - q_prev)(y_t) l_t``, with the dense Hessian
``H_prev + H_r`` (:meth:`Quadratics.from_hessian`).  The set, its system and
its Lagrange polynomials do not depend on the prior.

The system is assembled in displacements divided by min(radius, 1): the
``Q`` block is quartic in the point radius, so the unscaled matrix is
needlessly ill-conditioned.  Lagrange values are invariant under this
rescaling; model coefficients are mapped back by the chain rule.  Each
point set is factored once and carries its system (``iset.system``).

Point-swap determinant identity (:func:`det_swap_factor`, for validation;
each swapped set is factored anew): replacing the t-th point changes the
t-th row and column of ``F`` to ``phi(y) + eta_t e_t``, with ``phi(y)`` the
scaled ``(0.5 ((y_s - x)^T (y - x))^2, 1, y - x)``, and for a symmetric
invertible matrix such an update multiplies the determinant by
``l_t(y)^2 + alpha_t beta_t`` with ``alpha_t = e_t^T F^{-1} e_t`` and
``beta_t = 0.5 ||y - x||^4 - phi(y)^T F^{-1} phi(y)``; both correction
factors are nonnegative whenever ``l_t(y) != 0``, so each swap multiplies
``|det F|`` by at least ``l_t(y)^2``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "Quadratics",
    "MfnSystem",
    "SignedLogDet",
    "SingularGeometryError",
    "max_points",
    "assemble_system",
    "fit_mfn_model",
    "det_swap_factor",
]

# F is declared singular when an LU pivot falls below this fraction of the
# largest pivot (or the determinant under/overflows).
PIVOT_RTOL = 1e-12


class SingularGeometryError(RuntimeError):
    """The interpolation system is (numerically) singular for this point set."""


def max_points(n):
    """Largest admissible p: a full quadratic basis in dimension n."""
    return (n + 1) * (n + 2) // 2


@dataclass(frozen=True)
class SignedLogDet:
    """Determinant stored as (sign, log |det|) to dodge overflow."""

    sign: float
    logabs: float

    @property
    def value(self):
        if self.sign == 0.0:
            return 0.0
        return self.sign * math.exp(self.logabs)


def _lu_signed_logdet(lu, piv):
    diag = np.diag(lu)
    swaps = int(np.count_nonzero(piv != np.arange(len(piv))))
    sign = -1.0 if swaps % 2 else 1.0
    if np.any(diag == 0.0) or not np.all(np.isfinite(diag)):
        return SignedLogDet(0.0, -math.inf), 0.0
    sign *= float(np.prod(np.sign(diag)))
    logabs = float(np.sum(np.log(np.abs(diag))))
    pivot_ratio = float(np.min(np.abs(diag)) / np.max(np.abs(diag)))
    return SignedLogDet(sign, logabs), pivot_ratio


class Quadratics:
    """Quadratics ``c_t + g_t^T d + d^T H_t d / 2`` in ``d = y - base``, one
    per row t; ``values`` and ``grads`` take the row of each point by index
    ``which`` (row 0 for every point when omitted).

    Every Hessian shares one factor: ``H_t = U^T diag(w_t) U``, so
    ``H_t d = U^T (w_t * U d)`` costs two products over all rows and
    O(rows * len(U)) memory.  ``U`` is None when all are affine.  The
    Lagrange polynomials of a system are such a stack; a model is one row,
    their value-weighted sum (:meth:`weighted_sum`), and ``value`` and
    ``grad`` read it at one point.
    """

    def __init__(self, base, c, g, U=None, w=None):
        self.base, self.c, self.g, self.U, self.w = base, c, g, U, w

    @classmethod
    def from_hessian(cls, base, c, g, H=None):
        """One quadratic with a dense Hessian ``H`` (affine when None),
        factored once by ``eigh``."""
        g = np.asarray(g, dtype=float)[None]
        if H is None:
            return cls(np.asarray(base, dtype=float), np.array([float(c)]), g)
        H = np.asarray(H, dtype=float)
        w, V = np.linalg.eigh(0.5 * (H + H.T))
        return cls(np.asarray(base, dtype=float), np.array([float(c)]), g, V.T, w[None])

    def weighted_sum(self, weights):
        """The one quadratic ``sum_t weights_t q_t``, in the same factor."""
        weights = np.asarray(weights, dtype=float)[None]
        w = None if self.U is None else weights @ self.w
        return Quadratics(self.base, weights @ self.c, weights @ self.g, self.U, w)

    def _hess_times(self, D, which):
        return (self.w[which] * (D @ self.U.T)) @ self.U

    def table(self, Y):
        """Every row's value at every point, shape ``(rows, len(Y))``; the
        Hessian terms take O(len(Y) * len(U)) memory."""
        D = np.asarray(Y, dtype=float) - self.base
        T = self.c[:, None] + self.g @ D.T
        if self.U is not None:
            T += 0.5 * (self.w @ ((D @ self.U.T) ** 2).T)
        return T

    def values(self, Y, which=None):
        D = np.asarray(Y, dtype=float) - self.base
        which = np.zeros(len(D), dtype=int) if which is None else which
        G = self.g[which]
        if self.U is not None:
            G = G + 0.5 * self._hess_times(D, which)
        return self.c[which] + np.einsum("ri,ri->r", D, G)

    def grads(self, Y, which=None):
        D = np.asarray(Y, dtype=float) - self.base
        which = np.zeros(len(D), dtype=int) if which is None else which
        G = self.g[which]
        if self.U is not None:
            G = G + self._hess_times(D, which)
        return G

    def value(self, y):
        return float(self.values(np.asarray(y, dtype=float)[None])[0])

    def grad(self, y):
        return self.grads(np.asarray(y, dtype=float)[None])[0]

    def curvature(self, D, which):
        """``d^T H_t d`` for each row d of ``D``."""
        if self.U is None:
            return np.zeros(len(D))
        return np.einsum("ri,ri->r", D, self._hess_times(D, which))

    def hessians(self):
        """Dense symmetrised ``H_t``, one (n, n) matrix per row."""
        n = self.g.shape[1]
        if self.U is None:
            return np.zeros((len(self.c), n, n))
        H = (self.U.T * self.w[:, None, :]) @ self.U
        return 0.5 * (H + H.transpose(0, 2, 1))

    def hess_norms(self):
        """``||H_t||_2`` of every row, from the dense Hessians."""
        return np.max(np.abs(np.linalg.eigvalsh(self.hessians())), axis=1)

    def abs_bound_on_ball(self, r):
        """Per-quadratic upper bound for |value| on B(base, r)."""
        gnorm = np.sqrt(np.einsum("ti,ti->t", self.g, self.g))
        return np.abs(self.c) + gnorm * r + 0.5 * self.hess_norms() * r**2


@dataclass
class MfnSystem:
    """Assembled and factorized interpolation system for one point set.

    Immutable after assembly.  ``lagrange_solutions`` has one column per
    point, holding the (scaled) ``(lambda_t, c_t, g_t)`` solution of
    ``F col = e_t``; it is None when the system is singular.
    """

    base: np.ndarray
    radius: float
    points: np.ndarray
    scale: float
    Z: np.ndarray          # scaled displacements, one row per point
    lu: tuple | None
    det: SignedLogDet
    pivot_ratio: float
    invertible: bool
    lagrange_solutions: np.ndarray | None

    @property
    def npoints(self):
        return self.points.shape[0]

    @property
    def dimension(self):
        return self.base.size

    @property
    def nondegenerate(self):
        return self.invertible

    def _require_invertible(self):
        if not self.invertible:
            raise SingularGeometryError(
                f"singular geometry: pivot ratio {self.pivot_ratio:.3e}"
            )

    def stacked_lagrange(self):
        """All p Lagrange polynomials in original coordinates, as
        :class:`Quadratics` with ``U = Z / scale`` and ``w_t = lambda_t``,
        the multipliers of ``l_t``; no Hessian is formed."""
        self._require_invertible()
        p = self.npoints
        sol = self.lagrange_solutions
        g = np.ascontiguousarray(sol[p + 1:].T) / self.scale
        return Quadratics(self.base, sol[p], g, self.Z / self.scale,
                          np.ascontiguousarray(sol[:p].T))


def assemble_system(iset, require_invertible=True):
    """Build and factorize the bordered system for an interpolation set.

    Requires n+2 <= p <= (n+1)(n+2)/2.  The factorization is a dense LU
    with partial pivoting, done once per point set, which then carries it;
    at these sizes that is cheap and robust.  With ``require_invertible`` a
    singular system raises :class:`SingularGeometryError`; otherwise it is
    returned with ``invertible=False`` for the caller to repair.
    """
    p, n = iset.npoints, iset.dimension
    if not (n + 2 <= p <= max_points(n)):
        raise ValueError(
            f"point count p={p} outside [{n + 2}, {max_points(n)}] for dimension {n}"
        )
    scale = iset.scale
    Z = (iset.points - iset.base) / scale
    F = np.zeros((p + n + 1, p + n + 1))
    F[:p, :p] = 0.5 * (Z @ Z.T) ** 2
    F[:p, p] = F[p, :p] = 1.0
    F[:p, p + 1:] = Z
    F[p + 1:, :p] = Z.T

    lu = piv = None
    try:
        with warnings.catch_warnings():
            # Singular factorizations are detected below, not warned about.
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(F, check_finite=False)
        det, pivot_ratio = _lu_signed_logdet(lu, piv)
    except scipy.linalg.LinAlgError:
        det, pivot_ratio = SignedLogDet(0.0, -math.inf), 0.0
    invertible = (
        lu is not None
        and det.sign != 0.0
        and math.isfinite(det.logabs)
        and pivot_ratio >= PIVOT_RTOL
    )
    lagrange = None
    if invertible:
        rhs = np.zeros((p + n + 1, p))
        rhs[:p, :] = np.eye(p)
        lagrange = scipy.linalg.lu_solve((lu, piv), rhs)
    system = MfnSystem(
        base=iset.base,
        radius=iset.radius,
        points=iset.points,
        scale=scale,
        Z=Z,
        lu=(lu, piv) if lu is not None else None,
        det=det,
        pivot_ratio=pivot_ratio,
        invertible=invertible,
        lagrange_solutions=lagrange,
    )
    if require_invertible:
        system._require_invertible()
    return system


def fit_mfn_model(system, values):
    """The minimum-Frobenius-norm interpolant ``sum_t f(y_t) l_t``.

    The values weigh the Lagrange polynomials' stack, so the Hessian stays
    factored as ``U^T diag(w) U`` with ``U = Z / scale`` and ``w`` the
    value-weighted multipliers.
    """
    values = np.asarray(values, dtype=float)
    if values.size != system.npoints:
        raise ValueError("one value per interpolation point required")
    return system.stacked_lagrange().weighted_sum(values)


def det_swap_factor(system, t, y_new):
    """Determinant ratio det(F_new)/det(F) for replacing point t by ``y_new``.

    Evaluates ``l_t(y)^2 + alpha_t beta_t`` from the rank-3 row/column
    update identity, without refactorizing.
    """
    system._require_invertible()
    z = (np.asarray(y_new, dtype=float) - system.base) / system.scale
    phi = np.concatenate([0.5 * (system.Z @ z) ** 2, [1.0], z])
    finv_phi = scipy.linalg.lu_solve(system.lu, phi)
    alpha = float(system.lagrange_solutions[t, t])  # e_t^T F^{-1} e_t
    beta = 0.5 * float(z @ z) ** 2 - float(phi @ finv_phi)
    return float(finv_phi[t]) ** 2 + alpha * beta
