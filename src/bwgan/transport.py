"""Exact Wasserstein-p distances between finitely supported measures.

A pair of count-weighted measures, every weight of both k/N for integers
k >= 1 and one N <= 64, is solved as an assignment problem
(``linear_sum_assignment``): split each atom into k unit atoms of mass 1/N
and, by Birkhoff-von Neumann and the integrality of the transportation
polytope, an optimal coupling of the two uniform N-point measures is a
permutation scaled by 1/N, with the same optimal cost.  Uniform pairs of
equal size are the case k = 1.  The solver gets the costs less their
column, then row, minima: every assignment's cost moves by one constant,
so the optimal set is unchanged, and the solver, which starts from zero
duals, finds its augmenting paths sooner.  Every other pair is solved as a
linear program over the coupling polytope (HiGHS dual simplex, sparse
marginal constraints).  Both paths solve on the distances divided by a
power of two above the largest, raised to the power p, and scale the
value back by W_p(a mu, a nu) = a W_p(mu, nu): no cost overflows, the LP
sees costs of at most 1, and for p = 1 the division is exact.  A plan
whose scaled costs sum below 2^-900 is valued instead as the L^p norm of
the P_ij^(1/p) D_ij, which rescales exactly.  Supports are capped at 64
points per measure so each solve stays sub-second at desk scale.  The
scipy solvers are imported at the first solve that needs them, the LP
through the module-level ``linprog``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaces import SpaceSpec, lp_space, norm, pairwise_norms

MAX_SUPPORT = 64
MARGINAL_TOL = 1e-9


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog`` under a name that tracers and tests rebind."""
    from scipy.optimize import linprog
    return linprog(*args, **kwargs)


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
        if not np.all(np.isfinite(self.weights)):
            raise TransportError("weights must be finite")
        if not np.all(np.isfinite(self.points)):
            raise TransportError("points must be finite")
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


def _unit_counts(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Atom counts (N, a, b) with mu.weights = a / N and nu.weights = b / N.

    N is the smallest integer in [max(m, n), MAX_SUPPORT] for which every
    weight w of both measures has |w N - k| <= 1e-12 for an integer k >= 1
    and both count vectors sum to N; None when there is no such N.
    """
    m = len(mu)
    weights = np.concatenate([mu.weights, nu.weights])
    totals = np.arange(max(m, len(nu)), MAX_SUPPORT + 1)
    scaled = np.outer(totals, weights)
    counts = np.rint(scaled)
    fits = (np.all(np.abs(scaled - counts) <= 1e-12, axis=1)
            & np.all(counts >= 1, axis=1)
            & (counts[:, :m].sum(axis=1) == totals)
            & (counts[:, m:].sum(axis=1) == totals))
    if not fits.any():
        return None
    i = int(np.argmax(fits))
    counts = counts[i].astype(np.intp)
    return int(totals[i]), counts[:m], counts[m:]


def _assignment_plan(C: np.ndarray, total: int, a: np.ndarray,
                     b: np.ndarray) -> np.ndarray:
    """Optimal coupling of weights a / total and b / total by assignment.

    Atom i of the source is repeated a[i] times and atom j of the target
    b[j] times; each assigned pair of unit atoms carries mass 1 / total.
    """
    from scipy.optimize import linear_sum_assignment
    m, n = C.shape
    # reduced costs (module docstring); columns first measured faster
    reduced = C - C.min(axis=0)
    reduced -= reduced.min(axis=1, keepdims=True)
    owner_row = np.repeat(np.arange(m), a)
    owner_col = np.repeat(np.arange(n), b)
    # two takes measured faster than one np.ix_ gather
    rows, cols = linear_sum_assignment(
        reduced.take(owner_row, axis=0).take(owner_col, axis=1))
    pairs = np.bincount(owner_row[rows] * n + owner_col[cols], minlength=m * n)
    return pairs.reshape(m, n) / total


def _lp_plan(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Optimal coupling of weights a and b by the LP over the plan entries."""
    from scipy.sparse import csr_array
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

    Count-weighted pairs (every weight of both measures k/N, one N <= 64)
    are solved by assignment, all others by LP.
    """
    if not 1.0 <= p < np.inf:
        raise TransportError(f"need finite p >= 1, got {p}")
    mu = mu.trimmed()
    nu = nu.trimmed()
    m, n = len(mu), len(nu)
    if m > MAX_SUPPORT or n > MAX_SUPPORT:
        raise TransportError(
            f"support sizes ({m}, {n}) exceed the cap of {MAX_SUPPORT}")
    with np.errstate(over="ignore"):
        D = cost_matrix(mu, nu, space)
    if not np.isfinite(D).all():
        raise TransportError("a distance ||x - y|| overflows the float range")
    # a power of two above the largest distance (module docstring)
    scale = math.ldexp(1.0, math.frexp(D.max())[1])
    C = (D / scale) ** p
    counts = _unit_counts(mu, nu)
    if counts is not None:
        matrix = _assignment_plan(C, *counts)
    else:
        matrix = _lp_plan(C, mu.weights, nu.weights)
    plan = CouplingPlan(matrix, mu.weights, nu.weights)
    if plan.marginal_error() > MARGINAL_TOL:
        raise TransportError(
            f"marginal violation {plan.marginal_error():.3e} above tolerance")
    cost = float(np.sum(plan.matrix * C))
    if cost >= 2.0 ** -900:
        return scale * cost ** (1.0 / p), plan
    return norm(lp_space(p), np.maximum(plan.matrix, 0.0) ** (1.0 / p) * D), plan


def wasserstein_1(mu: DiscreteMeasure, nu: DiscreteMeasure,
                  space: SpaceSpec) -> float:
    return wasserstein_p_exact(mu, nu, space, 1.0)[0]


def dual_estimate(critic, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """E_mu D - E_nu D, the critic-based lower bound on W_1."""
    return float(np.dot(mu.weights, critic.value_batch(mu.points))
                 - np.dot(nu.weights, critic.value_batch(nu.points)))
