"""Independent reference computations for the benchmark's correctness checks.

Nothing here calls ``bwgan.spaces`` or ``bwgan.transport``: norms come from
their textbook formulas (Hoelder conjugates, Parseval for W^{s,2}) and
Wasserstein distances from ``scipy.optimize.linear_sum_assignment``.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Norms of the spaces the workloads use, written from their definitions
# ---------------------------------------------------------------------------

def conjugate(p: float) -> float:
    """Hoelder conjugate exponent q with 1/p + 1/q = 1 (1 < p < inf)."""
    return 1.0 / (1.0 - 1.0 / p)


def lp_rows(X, p):
    return np.sum(np.abs(X) ** p, axis=1) ** (1.0 / p)


def sobolev_symbol(shape, s, frequency_scale):
    """(1 + |xi|^2)^s on the FFT grid, xi = frequency_scale * k / (N/2)."""
    axes = [2.0 * frequency_scale * np.fft.fftfreq(n) for n in shape]
    xi_sq = sum(np.meshgrid(*[a ** 2 for a in axes], indexing="ij"))
    return (1.0 + xi_sq) ** s


def sobolev2_rows(X, shape, s, frequency_scale):
    """W^{s,2} norm by Parseval: sqrt(sum_xi (1 + |xi|^2)^s |x^(xi)|^2)."""
    spec = np.fft.fftn(X.reshape((len(X),) + tuple(shape)),
                       axes=tuple(range(1, len(shape) + 1)), norm="ortho")
    weight = sobolev_symbol(shape, s, frequency_scale)
    return np.sqrt(np.sum(weight * np.abs(spec) ** 2,
                          axis=tuple(range(1, len(shape) + 1))))


class RefSpace:
    """A space the workloads use, described by its defining formula.

    ``kind`` is one of ``lp`` (exponent ``p``), ``sobolev2`` (``s``,
    ``shape``, ``frequency_scale``), ``weighted`` (L^p of ``weight * x``)
    or ``product`` (outer exponent ``p`` over ``parts``, each a pair of a
    RefSpace and its flat size).
    """

    def __init__(self, kind, p=2.0, s=0.0, shape=None, frequency_scale=5.0,
                 weight=None, parts=()):
        self.kind, self.p, self.s = kind, float(p), float(s)
        self.shape, self.frequency_scale = shape, frequency_scale
        self.weight, self.parts = weight, parts

    def norm(self, X):
        X = np.atleast_2d(X)
        if self.kind == "lp":
            return lp_rows(X, self.p)
        if self.kind == "sobolev2":
            return sobolev2_rows(X, self.shape, self.s, self.frequency_scale)
        if self.kind == "weighted":
            return lp_rows(X * self.weight, self.p)
        return lp_rows(np.stack(self._split(X, "norm"), axis=1), self.p)

    def dual_norm(self, G):
        """Norm of the dual space under the pairing <g, x> = sum g_i x_i."""
        G = np.atleast_2d(G)
        if self.kind == "lp":
            return lp_rows(G, conjugate(self.p))
        if self.kind == "sobolev2":
            return sobolev2_rows(G, self.shape, -self.s, self.frequency_scale)
        if self.kind == "weighted":
            return lp_rows(G / self.weight, conjugate(self.p))
        return lp_rows(np.stack(self._split(G, "dual_norm"), axis=1),
                       conjugate(self.p))

    def _split(self, X, method):
        cols, offset = [], 0
        for part, size in self.parts:
            cols.append(getattr(part, method)(X[:, offset:offset + size]))
            offset += size
        return cols


# ---------------------------------------------------------------------------
# Exact W1 by assignment
# ---------------------------------------------------------------------------

def w1_by_assignment(C, source_counts, target_counts):
    """Exact W1 for weights source_counts / K and target_counts / K.

    Splitting every support point into unit atoms of mass 1/K gives two
    uniform K-point measures; their optimal coupling can be taken to be a
    permutation (Birkhoff-von Neumann), so the transport problem becomes an
    assignment problem with the same optimal value.
    """
    # imported here, not at the top: the set-up probe imports this module
    # after its clock starts, and scipy.optimize is most of bwgan's import
    from scipy.optimize import linear_sum_assignment

    total = int(np.sum(source_counts))
    if total != int(np.sum(target_counts)):
        raise ValueError("unequal total mass")
    big = np.repeat(np.repeat(C, source_counts, axis=0), target_counts, axis=1)
    rows, cols = linear_sum_assignment(big)
    return float(big[rows, cols].sum() / total)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def central_difference(f, params, key, index, h):
    """(f(theta + h e_i) - f(theta - h e_i)) / 2h for one parameter entry.

    ``params`` is a dict of arrays read by ``f``; the entry is restored.
    """
    original = params[key]
    values = []
    for sign in (1.0, -1.0):
        shifted = original.copy()
        shifted[index] += sign * h
        params[key] = shifted
        values.append(f())
    params[key] = original
    return (values[0] - values[1]) / (2.0 * h)
