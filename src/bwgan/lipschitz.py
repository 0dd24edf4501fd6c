"""Lipschitz machinery: dual-norm gradient evaluation, difference
quotients, empirical Lipschitz estimation and the difference-quotient
penalty.

The central fact being exercised: a Frechet-differentiable f is
gamma-Lipschitz exactly when the dual norm of its derivative is bounded by
gamma everywhere, and along any segment the difference quotient is
dominated by the supremum of the dual gradient norm on that segment.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def segment_grad_sup(critic, space: SpaceSpec, x, y, samples: int = 100) -> float:
    """Max dual gradient norm over equispaced points of [x, y], endpoints
    included."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    t = np.linspace(0.0, 1.0, samples + 2)[:, None]
    pts = t * x + (1.0 - t) * y
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
    t = np.linspace(0.0, 1.0, segment_samples + 2)
    pts = np.concatenate([ti * X + (1.0 - ti) * Y for ti in t], axis=0)
    max_grad = float(np.max(grad_dual_norm_batch(critic, space, pts)))
    return LipschitzReport(max_dual_gradient_norm=max_grad,
                           max_difference_quotient=max_quot,
                           sample_count=n, skipped=skipped, space=space)


def diff_quotient_penalty(critic, space: SpaceSpec, X, Y,
                          return_excluded: bool = False):
    """Mean one-sided hinge-squared penalty over a batch of pairs.

    Per pair: ((|f(X) - f(Y)| / ||X - Y||_B - 1)_+)^2.  Coincident pairs
    are excluded from the mean and counted; pass ``return_excluded`` to get
    the count back.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    denom = norm_batch(space, X - Y)
    ok = denom > 0.0
    excluded = int(np.sum(~ok))
    if not np.any(ok):
        value = 0.0
    else:
        quot = _pair_gaps(critic, X[ok], Y[ok]) / denom[ok]
        hinge = np.maximum(quot - 1.0, 0.0)
        value = float(np.mean(hinge ** 2))
    if return_excluded:
        return value, excluded
    return value
