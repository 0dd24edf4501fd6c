"""Exact Wasserstein-p distances between finitely supported measures.

Two equal-size measures with equal weights are solved as an assignment
problem (``linear_sum_assignment``): by Birkhoff-von Neumann an optimal
coupling is then a permutation scaled by the weight.  Every other pair is
solved as a linear program over the coupling polytope (HiGHS dual simplex,
sparse marginal constraints).  Supports are capped at 64 points per
measure so each solve stays sub-second at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import csr_array

from .spaces import SpaceSpec, pairwise_norms

MAX_SUPPORT = 64
MARGINAL_TOL = 1e-9


class TransportError(ValueError):
    """Raised for infeasible or oversized transport instances."""


@dataclass
class DiscreteMeasure:
    """Finitely supported probability measure: rows of points + weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim == 1:
            self.points = self.points[:, None]
        if self.points.ndim > 2:
            self.points = self.points.reshape(self.points.shape[0], -1)
        self.weights = np.asarray(self.weights, dtype=np.float64).ravel()
        if len(self.weights) != len(self.points):
            raise TransportError("points and weights length mismatch")
        if np.any(self.weights < 0):
            raise TransportError("weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise TransportError(
                f"weights sum to {self.weights.sum():.15f}, not 1")

    def trimmed(self) -> "DiscreteMeasure":
        """Copy with zero-weight support points dropped."""
        keep = self.weights > 0.0
        if np.all(keep):
            return self
        return DiscreteMeasure(self.points[keep], self.weights[keep])

    def __len__(self):
        return len(self.weights)


@dataclass
class CouplingPlan:
    """Optimal transport plan with marginal bookkeeping."""

    matrix: np.ndarray
    source_weights: np.ndarray
    target_weights: np.ndarray

    def marginal_error(self) -> float:
        row = np.abs(self.matrix.sum(axis=1) - self.source_weights).max()
        col = np.abs(self.matrix.sum(axis=0) - self.target_weights).max()
        return float(max(row, col))


def cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, space: SpaceSpec,
                p: float = 1.0) -> np.ndarray:
    """C[i, j] = ||x_i - y_j||_B ** p."""
    if mu.points.shape[1] != nu.points.shape[1]:
        raise TransportError("support points have mismatched dimensions")
    return pairwise_norms(space, mu.points, nu.points) ** p


def _is_uniform_pair(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    """Equal support sizes and one weight shared by every atom of both."""
    w = mu.weights[0]
    return (len(mu) == len(nu) and bool(np.all(mu.weights == w))
            and bool(np.all(nu.weights == w)))


def _lp_plan(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Optimal coupling of weights a and b by the LP over the plan entries."""
    m, n = C.shape
    # Equality constraints on the row-major plan: row sums, then column
    # sums, the last one dropped as redundant.
    k = np.arange(m * n)
    a_eq = csr_array((np.ones(2 * m * n),
                      (np.concatenate([k // n, m + k % n]), np.tile(k, 2))),
                     shape=(m + n, m * n))[:-1]
    b_eq = np.concatenate([a, b[:-1]])
    res = linprog(C.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if not res.success:
        raise TransportError(f"LP solver failed: {res.message}")
    return res.x.reshape(m, n)


def wasserstein_p_exact(mu: DiscreteMeasure, nu: DiscreteMeasure,
                        space: SpaceSpec, p: float = 1.0):
    """Exact W_p; returns (distance, CouplingPlan).

    Uniform pairs of equal size are solved by assignment, all others by LP.
    """
    if not 1.0 <= p < np.inf:
        raise TransportError(f"need finite p >= 1, got {p}")
    mu = mu.trimmed()
    nu = nu.trimmed()
    m, n = len(mu), len(nu)
    if m > MAX_SUPPORT or n > MAX_SUPPORT:
        raise TransportError(
            f"support sizes ({m}, {n}) exceed the cap of {MAX_SUPPORT}")
    C = cost_matrix(mu, nu, space, p)
    if _is_uniform_pair(mu, nu):
        rows, cols = linear_sum_assignment(C)
        matrix = np.zeros((m, n))
        matrix[rows, cols] = mu.weights[0]
    else:
        matrix = _lp_plan(C, mu.weights, nu.weights)
    plan = CouplingPlan(matrix, mu.weights, nu.weights)
    if plan.marginal_error() > MARGINAL_TOL:
        raise TransportError(
            f"marginal violation {plan.marginal_error():.3e} above tolerance")
    cost = float(np.sum(plan.matrix * C))
    return max(cost, 0.0) ** (1.0 / p), plan


def wasserstein_1(mu: DiscreteMeasure, nu: DiscreteMeasure,
                  space: SpaceSpec) -> float:
    return wasserstein_p_exact(mu, nu, space, 1.0)[0]


def dual_estimate(critic, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """E_mu D - E_nu D, the critic-based lower bound on W_1."""
    return float(np.dot(mu.weights, critic.value_batch(mu.points))
                 - np.dot(nu.weights, critic.value_batch(nu.points)))
