"""Brute-force oracle for tiny transport problems.

Enumerates every vertex of the coupling polytope (basic solutions of the
marginal equality system) and takes the cheapest feasible one.  Only
sensible for supports up to 4x4; it validates both solve paths of
``transport.wasserstein_p_exact``, the assignment for count-weighted pairs
and the LP for all others.
"""

import itertools
from functools import lru_cache

import numpy as np


def marginal_matrix(m, n):
    """Equality constraints: m row sums plus n-1 column sums (last one is
    redundant)."""
    a = np.zeros((m + n - 1, m * n))
    for i in range(m):
        a[i, i * n:(i + 1) * n] = 1.0
    for j in range(n - 1):
        a[m + j, j::n] = 1.0
    return a


@lru_cache(maxsize=16)
def _bases(m, n):
    a = marginal_matrix(m, n)
    rank = m + n - 1
    cols_list, invs = [], []
    for cols in itertools.combinations(range(m * n), rank):
        sub = a[:, cols]
        if abs(np.linalg.det(sub)) > 1e-9:
            cols_list.append(cols)
            invs.append(np.linalg.inv(sub))
    return np.array(cols_list), np.stack(invs)


def min_cost_by_enumeration(cost, wa, wb):
    """Minimum transport cost over all polytope vertices."""
    m, n = cost.shape
    cols, invs = _bases(m, n)
    b = np.concatenate([wa, wb[:-1]])
    flows = invs @ b
    feasible = np.all(flows >= -1e-9, axis=1)
    costs = np.sum(flows * cost.ravel()[cols], axis=1)
    return float(np.min(costs[feasible]))
