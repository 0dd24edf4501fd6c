"""Lipschitz machinery: dual-norm gradient evaluation, difference
quotients and empirical Lipschitz estimation.

The central fact being exercised: a Frechet-differentiable f is
gamma-Lipschitz exactly when the dual norm of its derivative is bounded by
gamma everywhere, and along any segment the difference quotient is
dominated by the supremum of the dual gradient norm on that segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spaces import SpaceSpec, dual_norm_batch, norm, norm_batch


@dataclass
class LipschitzReport:
    max_dual_gradient_norm: float
    max_difference_quotient: float
    sample_count: int
    skipped: int
    space: SpaceSpec


def grad_dual_norm_batch(critic, space: SpaceSpec, X) -> np.ndarray:
    """Dual norms of the critic's derivative at each row of X."""
    return dual_norm_batch(space, critic.input_gradient_batch(X))


def _pair_gaps(critic, X, Y) -> np.ndarray:
    """|f(X_k) - f(Y_k)| per row, from one critic call on both batches."""
    f = critic.value_batch(np.concatenate([X, Y]))
    return np.abs(f[:len(X)] - f[len(X):])


def difference_quotient(critic, space: SpaceSpec, x, y) -> float:
    """|f(x) - f(y)| / ||x - y||_B; rejects coincident points."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    denom = norm(space, x - y)
    if denom == 0.0:
        raise ValueError("difference quotient undefined for x = y")
    return float(_pair_gaps(critic, x[None], y[None])[0] / denom)


@lru_cache(maxsize=16)
def _segment_weights(samples: int):
    """Read-only columns t and 1 - t of ``samples`` + 2 equispaced points
    of [0, 1]."""
    t = np.linspace(0.0, 1.0, samples + 2)[:, None]
    one_minus_t = 1.0 - t
    t.flags.writeable = one_minus_t.flags.writeable = False
    return t, one_minus_t


def segment_grad_sup(critic, space: SpaceSpec, x, y, samples: int = 100) -> float:
    """Max dual gradient norm over equispaced points of [x, y], endpoints
    included."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    t, one_minus_t = _segment_weights(samples)
    pts = t * x + one_minus_t * y
    return float(np.max(grad_dual_norm_batch(critic, space, pts)))


def estimate_lipschitz(critic, space: SpaceSpec, sampler, n: int,
                       segment_samples: int = 5) -> LipschitzReport:
    """Empirical Lipschitz estimate over ``n`` sampled pairs.

    ``sampler(n)`` returns two (n, dim) arrays of paired points.  Gradient
    norms are taken at ``segment_samples`` interior points of each segment
    plus both endpoints, so the reported gradient maximum dominates every
    difference quotient.  Coincident pairs are skipped and counted.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    X, Y = sampler(n)
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    denom = norm_batch(space, X - Y)
    ok = denom > 0.0
    skipped = int(np.sum(~ok))
    max_quot = 0.0
    if np.any(ok):
        max_quot = float(np.max(_pair_gaps(critic, X[ok], Y[ok]) / denom[ok]))
    t, one_minus_t = _segment_weights(segment_samples)
    pts = (t[:, :, None] * X + one_minus_t[:, :, None] * Y).reshape(-1, X.shape[1])
    max_grad = float(np.max(grad_dual_norm_batch(critic, space, pts)))
    return LipschitzReport(max_dual_gradient_norm=max_grad,
                           max_difference_quotient=max_quot,
                           sample_count=n, skipped=skipped, space=space)

