"""Workload definitions: the solves each benchmark workload runs.

A workload is a fixed list of problem templates.  The workload seed only
perturbs each template's starting point (inside the region) and sets
``SolverConfig.seed``; the solver then receives just ``(f, region, x0,
config)``.  Gradients stay on the benchmark side, for the reference
criticality measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from convexdfo import Ball, Box, Halfspaces, Intersection, SolverConfig, WholeSpace
from convexdfo.problems import get_problem

__all__ = ["Instance", "WORKLOADS", "build_workload", "warmup_instance"]

# Relative size of the seeded perturbation of each starting point.
X0_JITTER = 0.05
DELTA_MIN = 1e-6


@dataclass
class Instance:
    """One solve: the solver's inputs plus the gradient for the yardstick."""

    name: str
    f: callable
    grad: callable
    region: object
    x0: np.ndarray
    config: SolverConfig


def diagonal_quadratic(n):
    """``0.5 x^T diag(1..n) x + 1^T x`` and its gradient."""
    d = np.arange(1.0, n + 1.0)

    def f(x):
        return 0.5 * float(x @ (d * x)) + float(np.sum(x))

    def grad(x):
        return d * x + 1.0

    return f, grad


def chained_rosenbrock(n):
    """``sum_i 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2`` and its gradient."""

    def f(x):
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    def grad(x):
        r = x[1:] - x[:-1] ** 2
        g = np.zeros_like(x)
        g[:-1] = -400.0 * x[:-1] * r - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * r
        return g

    return f, grad


def _registry(name):
    def make():
        p = get_problem(name)
        return p.f, p.grad, p.region, p.x0
    return make


def _diag(n, region, x0):
    def make():
        f, grad = diagonal_quadratic(n)
        return f, grad, region, np.asarray(x0, dtype=float)
    return make


def _rosen(n, region, x0):
    def make():
        f, grad = chained_rosenbrock(n)
        return f, grad, region, np.asarray(x0, dtype=float)
    return make


def _simplex(n):
    """``x_i >= -0.5`` and ``sum x <= 1``: a polyhedron projected by Dykstra."""
    return Halfspaces(np.vstack([-np.eye(n), np.ones((1, n))]), [0.5] * n + [1.0])


# Each workload: (replicas, [(name, template, max_evals, model kind), ...]).
# A pass solves every template ``replicas`` times, each time from its own
# seeded start, so that one seed's luck weighs less in the pass totals.
MFN, LINREG = "mfn-quadratic", "linear-regression"
WORKLOADS = {
    "box": (2, [
        ("quad2d", _registry("quad2d"), 40, MFN),
        ("quad3d", _registry("quad3d"), 40, MFN),
        ("affine2d", _registry("affine2d"), 25, MFN),
        ("cossum2d", _registry("cossum2d"), 25, MFN),
        ("diag3-box", _diag(3, Box([-0.5] * 3, [1.0] * 3), [0.8] * 3), 25, MFN),
        ("rosen2-box", _rosen(2, Box([-1.5] * 2, [0.5] * 2), [-0.5, 0.3]), 40, MFN),
    ]),
    "free": (5, [
        ("diag20-free", _diag(20, WholeSpace(20), [0.3] * 20), 800, MFN),
        ("diag10-free", _diag(10, WholeSpace(10), [0.3] * 10), 300, MFN),
        ("rosen6-free", _rosen(6, WholeSpace(6), [-1.2, 1.0] * 3), 200, MFN),
        ("diag10-linreg", _diag(10, WholeSpace(10), [0.3] * 10), 850, LINREG),
    ]),
    "ball-poly": (3, [
        ("cossum3d", _registry("cossum3d"), 60, MFN),
        ("rosenbrock2d", _registry("rosenbrock2d"), 100, MFN),
        ("simplex3", _diag(3, _simplex(3), [0.2] * 3), 15, MFN),
        ("two-ball", _diag(2, Intersection([Ball([0.0, 0.0], 1.0), Ball([0.5, 0.0], 1.0)]),
                           [0.2, 0.1]), 20, MFN),
        ("box-ball3", _diag(3, Intersection([Box([-0.5] * 3, [1.0] * 3), Ball([0.0] * 3, 1.2)]),
                            [0.3] * 3), 20, MFN),
    ]),
}


def _jitter(rng, region, x0):
    """Seeded feasible perturbation of ``x0`` (halved until it is a member)."""
    step = X0_JITTER * (1.0 + np.abs(x0)) * rng.uniform(-1.0, 1.0, x0.size)
    for _ in range(30):
        if region.is_member(x0 + step):
            return x0 + step
        step = 0.5 * step
    return x0.copy()


def build_workload(workload, seed):
    """The workload's instances for ``seed`` (same seed, same inputs)."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng(seed)
    replicas, templates = WORKLOADS[workload]
    instances = []
    for r in range(replicas):
        for name, make, max_evals, kind in templates:
            f, grad, region, x0 = make()
            config = SolverConfig(
                seed=int(rng.integers(2**31)), max_evals=max_evals,
                delta_min=DELTA_MIN, model_kind=kind,
            )
            x0 = _jitter(rng, region, x0)
            instances.append(Instance(f"{name}#{r}", f, grad, region, x0, config))
    return instances


def warmup_instance(workload):
    """A short, fixed solve that touches the workload's code paths before timing."""
    name, make, _, kind = WORKLOADS[workload][1][0]
    f, grad, region, x0 = make()
    config = SolverConfig(seed=0, max_evals=20, delta_min=DELTA_MIN, model_kind=kind)
    return Instance(name + "-warmup", f, grad, region, x0, config)
