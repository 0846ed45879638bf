"""Random sampling of feasible points inside trust-region balls."""

from __future__ import annotations

import numpy as np

from .geometry import TrustRegionProjector

__all__ = ["uniform_in_ball", "sample_feasible_in_ball"]

# Rejection batches drawn before the shortfall is filled by projection.
MAX_BATCHES = 200


def uniform_in_ball(rng, center, radius, count):
    """Draw ``count`` points uniformly from the ball ``B(center, radius)``."""
    center = np.asarray(center, dtype=float)
    n = center.size
    directions = rng.standard_normal((count, n))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = radius * rng.random(count) ** (1.0 / n)
    return center + radii[:, None] * directions


def sample_feasible_in_ball(rng, region, center, radius, count):
    """Sample ``count`` points uniformly from ``B(center, radius)`` in the region.

    Rejection sampling in batches.  If the feasible volume fraction is too
    small to fill the quota within ``MAX_BATCHES`` draws, the shortfall is
    topped up with projections of ball samples onto the feasible set (no
    longer uniform, but still feasible and spread out).
    """
    kept = []
    total = 0
    for _ in range(MAX_BATCHES):
        batch = uniform_in_ball(rng, center, radius, max(count, 64))
        ok = region.is_member_batch(batch)
        if np.any(ok):
            kept.append(batch[ok])
            total += int(np.count_nonzero(ok))
        if total >= count:
            break
    if total >= count:
        return np.concatenate(kept, axis=0)[:count]
    fallback = uniform_in_ball(rng, center, radius, count - total)
    kept.append(TrustRegionProjector(region, center, radius)(fallback))
    return np.concatenate(kept, axis=0)[:count]
