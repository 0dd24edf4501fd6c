"""Norm algebra for discretized Banach spaces and their duals.

Four families are supported: L^p, Sobolev W^{s,p} realized through the
Fourier multiplier (1 + |xi|^2)^(s/2), diagonally weighted spaces, and
finite products.  Every family comes with its analytic dual norm under the
plain coordinate pairing <g, x> = sum_i g_i x_i, plus the explicit
maximizer of the duality quotient, which serves as an independent check of
the dual norm formulas.  A Sobolev multiplier is applied as one matmul
against its cached real symmetric n x n matrix (``sobolev_operator``), so
the transformed axes of a Sobolev space may hold at most
``MAX_OPERATOR_SIZE`` entries; pairwise W^{s,2} distances skip it, by
Parseval, for one real FFT per point.  A graph norm selects a product
factor's columns by a matmul against a 0/1 matrix.  Only pairwise
distances load scipy modules, on first use: ``scipy.fft`` for W^{s,2},
and ``scipy.spatial`` for L^2 between rows narrower than
``_GRAM_MIN_COLUMNS``; wider rows take one Gram matmul.

Two discretization measures are available.  ``counting`` treats every
entry with weight 1; ``normalized`` averages (weight 1/N).  The primal
norms differ by N^(-1/p), and since the pairing is kept as the plain dot
product, the normalized dual norm picks up the compensating factor
N^(1/p) on the counting q-norm.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import autodiff as ad

# the fields each family reads; a space refuses any other set away from its default
FAMILY_FIELDS = {
    "lp": ("p", "measure"),
    "sobolev": ("p", "s", "frequency_scale", "signal_shape", "measure"),
    "weighted": ("p", "base", "weight"),
    "product": ("p", "factors"),
}
MEASURES = ("counting", "normalized")
# entries of a Sobolev space's transformed axes; its operator holds the
# square of this many floats, 8 MB
MAX_OPERATOR_SIZE = 1024
# smallest normal float64, 2^-1022, and its square root
_TINY = np.finfo(np.float64).tiny
_ROOT_TINY = 2.0 ** -511
# pairwise L^2 distances of rows at least this wide come from one Gram
# matmul, not cdist: at 64 x 64 pairs cdist took 16, 70 and 481 us at 2,
# 32 and 256 columns, the matmul 134, 71 and 149 us
_GRAM_MIN_COLUMNS = 32


class SpaceError(ValueError):
    """Raised for invalid space parameters or incompatible signals."""


def is_count(value, lo=1) -> bool:
    """Whether ``value`` is an integer >= ``lo`` and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= lo


def _is_default(value, default) -> bool:
    return value is default or (default is not None and value == default)


@dataclass
class SpaceSpec:
    """Descriptor of one Banach space.

    Only the fields that ``family`` reads, its ``FAMILY_FIELDS``, may leave
    their defaults: ``s``, ``frequency_scale`` and ``signal_shape`` for
    Sobolev spaces, ``weight``/``base`` for weighted spaces, ``factors``
    (pairs of sub-space and flat size) for products.
    """

    family: str
    p: float = 2.0
    s: float = 0.0
    frequency_scale: float = 5.0
    signal_shape: tuple | None = None
    weight: np.ndarray | None = None
    base: "SpaceSpec | None" = None
    factors: tuple = ()
    measure: str = "counting"

    def __post_init__(self):
        if self.family not in FAMILY_FIELDS:
            raise SpaceError(f"unknown family {self.family!r}")
        if self.measure not in MEASURES:
            raise SpaceError(f"unknown measure {self.measure!r}")
        for name in ("p", "s", "frequency_scale"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise SpaceError(f"{name} must be a number, got {value!r}")
        reads = ("family", *FAMILY_FIELDS[self.family])
        unread = [f.name for f in fields(self) if f.name not in reads
                  and not _is_default(getattr(self, f.name), f.default)]
        if unread:
            raise SpaceError(f"{self.family} space takes no {', '.join(unread)}")
        if not (self.p >= 1.0):
            raise SpaceError(f"exponent p must be >= 1, got {self.p}")
        if self.family == "sobolev":
            shape = self.signal_shape
            if not (isinstance(shape, (tuple, list)) and shape
                    and all(is_count(d) for d in shape)):
                raise SpaceError(f"sobolev signal_shape must be a list of positive "
                                 f"integers, got {shape!r}")
            if not np.isfinite(self.s):
                raise SpaceError(f"s must be finite, got {self.s}")
            if not 0 < self.frequency_scale < np.inf:
                raise SpaceError(f"frequency_scale must be positive and finite, "
                                 f"got {self.frequency_scale}")
            self.signal_shape = tuple(int(d) for d in shape)
            lengths = fft_lengths(self.signal_shape)
            if int(np.prod(lengths)) > MAX_OPERATOR_SIZE:
                raise SpaceError(
                    f"sobolev transformed axes {lengths} hold more than "
                    f"{MAX_OPERATOR_SIZE} entries")
            with np.errstate(over="ignore", invalid="ignore"):
                peak = np.max(sobolev_weights(self.signal_shape, abs(float(self.s)),
                                              float(self.frequency_scale)))
            if not np.isfinite(peak):
                raise SpaceError(
                    f"sobolev multiplier (1 + |xi|^2)^(|s|/2) overflows at "
                    f"s={self.s}, frequency_scale={self.frequency_scale}")
        if self.family == "weighted":
            if self.base is None or self.weight is None:
                raise SpaceError("weighted space needs base and weight")
            self.weight = np.asarray(self.weight, dtype=np.float64).ravel()
            with np.errstate(divide="ignore", over="ignore"):
                if not np.isfinite([self.weight, 1.0 / self.weight]).all():
                    raise SpaceError("weights must be finite, with finite reciprocals")
            if self.p != self.base.p:
                raise SpaceError(f"weighted p={self.p} differs from its base's p={self.base.p}")
        if self.family == "product":
            if not self.factors:
                raise SpaceError("product space needs at least one factor")
            for sub, size in self.factors:
                if not is_count(size) or sub.size not in (None, size):
                    fixed = "" if sub.size is None else f" equal to its space's size {sub.size}"
                    raise SpaceError(f"factor size {size!r} must be a positive integer{fixed}")

    @property
    def size(self) -> int | None:
        """Flat signal size, where the family pins it down."""
        if self.family == "sobolev":
            return math.prod(self.signal_shape)
        if self.family == "weighted":
            return self.weight.size
        if self.family == "product":
            return sum(sz for _, sz in self.factors)
        return None


def lp_space(p=2.0, measure="counting") -> SpaceSpec:
    return SpaceSpec("lp", p=p, measure=measure)


def sobolev_space(s, p=2.0, signal_shape=(16, 16), frequency_scale=5.0,
                  measure="counting") -> SpaceSpec:
    return SpaceSpec("sobolev", p=p, s=s, signal_shape=signal_shape,
                     frequency_scale=frequency_scale, measure=measure)


def weighted_space(base: SpaceSpec, weight) -> SpaceSpec:
    return SpaceSpec("weighted", p=base.p, base=base, weight=weight)


def product_space(factors, p=2.0) -> SpaceSpec:
    """Product of (space, flat_size) factors combined with exponent ``p``."""
    return SpaceSpec("product", p=p,
                     factors=tuple((sp, int(sz)) for sp, sz in factors))


# ---------------------------------------------------------------------------
# Exponents and elementary norms
# ---------------------------------------------------------------------------

def dual_exponent(p: float) -> float:
    """Hoelder conjugate q with 1/p + 1/q = 1; requires p > 1.

    The conjugate of p = inf is 1, so the dual of an L^inf norm is the
    L^1 norm and its maximizer is sign(g).
    """
    if not p > 1.0:
        raise SpaceError(f"dual exponent requires p > 1, got {p}")
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def _lp_norm_rows(X, p):
    """Per-row L^p norms.  A finite, nonzero row whose power sum overflows
    to inf or falls below the normal range is redone divided by the power
    of two just above its maximum, at most 2^1023, which is exact, and
    scaled back: the largest entry m is then in [0.5, 2), so the sum
    overflows only when the norm does, to inf, and m^p stays normal while
    p <= 1022.  Above that it divides by the maximum itself."""
    absx = np.abs(X)
    if math.isinf(p):
        return absx.max(axis=1)
    with np.errstate(over="ignore", under="ignore"):
        sums = (absx ** p).sum(axis=1)
        out = sums ** (1.0 / p)
        # fmin and fmax skip NaN rows, so a NaN row cannot hide an
        # overflowing one; fmin.reduce raises on an empty batch
        if sums.size and (np.fmin.reduce(sums) < _TINY or np.fmax.reduce(sums) == np.inf):
            redo = np.flatnonzero((sums < _TINY) | (sums == np.inf))
            top = np.max(absx[redo], axis=1, keepdims=True)
            ok = np.isfinite(top[:, 0]) & (top[:, 0] > 0.0)
            redo, top = redo[ok], top[ok]
            scale = np.ldexp(1.0, np.minimum(np.frexp(top)[1], 1023)) if p <= 1022.0 else top
            out[redo] = scale[:, 0] * np.sum((absx[redo] / scale) ** p, axis=1) ** (1.0 / p)
    return out


# ---------------------------------------------------------------------------
# Sobolev multiplier
# ---------------------------------------------------------------------------

def fft_lengths(spatial_shape) -> tuple:
    """The axes of a signal layout that Sobolev multipliers transform: the
    last one of (n,), the last two of (h, w) or (c, h, w)."""
    return tuple(spatial_shape[-1:] if len(spatial_shape) == 1 else spatial_shape[-2:])


@lru_cache(maxsize=64)
def sobolev_weights(spatial_shape: tuple, s: float, frequency_scale: float):
    """Multiplier (1 + |xi|^2)^(s/2) on the FFT grid of the trailing axes.

    For axis length N the integer modes k in {-floor(N/2), ...,
    ceil(N/2) - 1}, numpy's ``fftfreq`` order, are mapped to
    xi = frequency_scale * k / (N/2), so |xi| <= frequency_scale per axis.
    """
    lengths = fft_lengths(spatial_shape)
    grids = [2.0 * frequency_scale * np.fft.fftfreq(n) for n in lengths]
    xi_sq = sum(g ** 2 for g in np.meshgrid(*grids, indexing="ij"))
    return (1.0 + xi_sq) ** (s / 2.0)


@lru_cache(maxsize=8)   # at most 64 MB of operators at the size cap
def sobolev_operator(spatial_shape: tuple, s: float, frequency_scale: float):
    """The real symmetric n x n matrix K of F^-1 [(1 + |xi|^2)^(s/2) F .]
    over the transformed axes, which hold n entries; rows x of flattened
    signals in that layout map to x @ K.

    The multiplier is even under xi -> -xi, so its kernel k = F^-1 m is
    real and even, and K[i, j] = k[(i - j) mod N] along each axis: a
    circulant matrix, block circulant over two axes.  Averaging k with its
    reflection removes rounding asymmetry, so K equals K.T exactly.
    Read-only.
    """
    lengths = fft_lengths(spatial_shape)
    kernel = np.fft.ifftn(sobolev_weights(spatial_shape, s, frequency_scale)).real
    kernel = 0.5 * (kernel + kernel[np.ix_(*[-np.arange(n) % n for n in lengths])])
    # sparse grids of the row and column multi-indices: no n^2-entry index arrays
    idx = np.meshgrid(*[np.arange(n) for n in lengths * 2], indexing="ij", sparse=True)
    d = len(lengths)
    K = kernel[tuple((i - j) % n for i, j, n in zip(idx[:d], idx[d:], lengths))]
    K = K.reshape(kernel.size, kernel.size)
    K.flags.writeable = False
    return K


@lru_cache(maxsize=64)
def _half_spectrum_weights(spatial_shape: tuple, s: float, frequency_scale: float):
    """``sobolev_weights`` on the last-axis columns that ``rfftn`` keeps,
    times sqrt(2) on those whose conjugates it drops.  Read-only."""
    n = fft_lengths(spatial_shape)[-1]
    w = sobolev_weights(spatial_shape, s, frequency_scale)[..., : n // 2 + 1].copy()
    w[..., 1:(n + 1) // 2] *= math.sqrt(2.0)
    w.flags.writeable = False
    return w


# ---------------------------------------------------------------------------
# Norms: one recursion over three op sets
# ---------------------------------------------------------------------------

def _norm(space: SpaceSpec, x, ops, dual: bool):
    """Per-row norm, or dual norm, of the operand ``x`` in ``space``.

    Each family is written once.  The dual of a weighted space divides by
    the weight, the dual of a product combines the factor duals with the
    conjugate exponent, the dual of W^{s,p} applies the order -s multiplier
    before the L^q norm, and a normalized measure scales the leaf operand
    by n^(-1/p), its dual by n^(1/p).  ``ops`` says what an operand is.
    """
    if space.family == "weighted":
        return _norm(space.base, ops.scale(x, space.weight, dual), ops, dual)
    p = dual_exponent(space.p) if dual else space.p
    if space.family == "product":
        return ops.outer([_norm(sub, ops.cols(x, cols), ops, dual)
                          for sub, cols in _factor_columns(space)], p)
    n = ops.width(x)   # the signal's; pairwise Sobolev features are wider
    if space.family == "sobolev":
        x = ops.fourier(x, space, -space.s if dual else space.s)
    if space.measure == "normalized":
        x = ops.scale(x, n ** ((1.0 if dual else -1.0) / space.p), False)
    return ops.lp(x, p)


def _factor_columns(space: SpaceSpec):
    """(factor space, column slice) for each factor of a product space."""
    offset = 0
    for sub, size in space.factors:
        yield sub, slice(offset, offset + size)
        offset += size


class _Rows:
    """Numeric operand: a (batch, size) array, one norm per row."""

    def apply(self, x, f):
        return f(x)

    def width(self, x):
        return x.shape[1]

    def scale(self, x, w, invert):
        return self.apply(x, (lambda a: a / w) if invert else (lambda a: a * w))

    def cols(self, x, cols):
        return self.apply(x, lambda a: a[:, cols])

    def fourier(self, x, space, s):
        K = sobolev_operator(space.signal_shape, float(s), float(space.frequency_scale))
        return self.apply(x, lambda a: (a.reshape(-1, len(K)) @ K).reshape(a.shape))

    def lp(self, x, p):
        return _lp_norm_rows(x, p)

    def outer(self, parts, p):
        """The L^p norm of a product's factor norms, per row or pair."""
        stacked = np.stack([part.ravel() for part in parts], axis=1)
        return _lp_norm_rows(stacked, p).reshape(parts[0].shape)


class _Pairs(_Rows):
    """Numeric operand: a pair (X, Y), the (m, n) matrix of ||x_i - y_j||.

    Every operator a norm applies before its L^p norm is linear, so it acts
    on the m + n rows instead of the m * n differences; at p = 2 a Sobolev
    multiplier maps them to FFT features (``fourier``), not the operator.
    """

    def apply(self, xy, f):
        return f(xy[0]), f(xy[1])

    def width(self, xy):
        return xy[0].shape[1]

    def fourier(self, xy, space, s):
        """At p = 2, rows of features whose Euclidean distances are the
        W^{s,2} distances (Parseval): the weighted unitary half spectrum
        from one forward real FFT per point, with no n x n operator."""
        if space.p != 2.0:
            return super().fourier(xy, space, s)
        from scipy.fft import rfftn
        w = _half_spectrum_weights(space.signal_shape, float(s), float(space.frequency_scale))
        axes = tuple(range(-w.ndim, 0))

        def features(a):
            f = rfftn(a.reshape((len(a),) + space.signal_shape), axes=axes, norm="ortho")
            f *= w
            return f.reshape(len(a), math.prod(f.shape[1:])).view(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            fx, fy = self.apply(xy, features)
        # FFT partial sums can overflow where the operator's sums do not
        if np.isfinite(fx).all() and np.isfinite(fy).all():
            return fx, fy
        return super().fourier(xy, space, s)

    def lp(self, xy, p):
        X, Y = xy
        if p == 2.0 and X.shape[1] < _GRAM_MIN_COLUMNS:
            from scipy.spatial.distance import cdist
            out = cdist(X, Y)
            # each distance of at most 2^-511 (0 included: distinct points
            # can underflow to 0) or inf
            bad = (out <= _ROOT_TINY) | (out == np.inf)
        elif p == 2.0:
            # d^2 = |x|^2 + |y|^2 - 2 x.y in one matmul; each pair that lost
            # more than two bits to cancellation, or whose squares overflow
            # or sum below 2^-900, near the subnormal range, is redone
            with np.errstate(over="ignore", invalid="ignore"):
                total = (np.einsum("ij,ij->i", X, X)[:, None]
                         + np.einsum("ij,ij->i", Y, Y))
                sq = total - 2.0 * (X @ Y.T)
            out = np.sqrt(np.maximum(sq, 0.0))
            bad = ~(4.0 * sq >= total) | ~(total < np.inf) | (total < 2.0 ** -900)
        else:
            out = np.empty((X.shape[0], Y.shape[0]))
            bad = np.full(out.shape, True)
        # the flagged pairs, or every pair for p != 2, one row of X at a
        # time, so no (m, n, size) block is allocated
        for i in np.flatnonzero(bad.any(axis=1)):
            js = np.flatnonzero(bad[i])
            out[i, js] = _lp_norm_rows(X[i] - Y[js], p)
        return out


def _check_graph_exponent(p):
    # (sum |x_i|^p)^(1/p) at p = inf would compute |x|^inf and then the
    # power 0, which is 1 for every row; the max is not built as a graph
    if math.isinf(p):
        raise SpaceError("graph norms are not implemented for p = inf")


class _Graph:
    """Graph operand: a (batch, size) node; the norms are differentiable."""

    def width(self, x):
        return x.shape[1]

    def scale(self, x, w, invert):
        return ad.Mul(x, ad.Constant(1.0 / w if invert else w))

    def cols(self, x, cols):
        S = np.eye(x.shape[1], cols.stop - cols.start, -cols.start)
        return ad.MatMul(x, ad.Constant(S))

    def fourier(self, x, space, s):
        K = sobolev_operator(space.signal_shape, float(s), float(space.frequency_scale))
        if x.shape[1] == len(K):
            return ad.MatMul(x, ad.Constant(K))
        # (c, h, w) layout: each row holds c signals of the transformed axes
        rows = ad.Reshape(x, (x.shape[0] * x.shape[1] // len(K), len(K)))
        return ad.Reshape(ad.MatMul(rows, ad.Constant(K)), x.shape)

    def lp(self, x, p):
        _check_graph_exponent(p)
        return ad.AbsPow(ad.Sum(ad.AbsPow(x, p), 1), 1.0 / p)

    def outer(self, parts, p):
        _check_graph_exponent(p)
        total = ad.AbsPow(parts[0], p)
        for part in parts[1:]:
            total = ad.Add(total, ad.AbsPow(part, p))
        return ad.AbsPow(total, 1.0 / p)


_ROWS, _PAIRS, _GRAPH = _Rows(), _Pairs(), _Graph()


def _check_rows(space: SpaceSpec, X):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] == 0:
        raise SpaceError(f"expected rows of flattened signals, got shape {X.shape}")
    expected = space.size
    if expected is not None and X.shape[1] != expected:
        raise SpaceError(
            f"signal size {X.shape[1]} does not match space size {expected}")
    return X


def norm_batch(space: SpaceSpec, X) -> np.ndarray:
    """Norms of a batch of flattened signals, one per row."""
    return _norm(space, _check_rows(space, X), _ROWS, dual=False)


def dual_norm_batch(space: SpaceSpec, G) -> np.ndarray:
    """Analytic dual norms of a batch of flattened dual elements."""
    return _norm(space, _check_rows(space, G), _ROWS, dual=True)


def pairwise_norms(space: SpaceSpec, X, Y) -> np.ndarray:
    """(m, n) matrix of ||x_i - y_j|| for rows x_i of X and y_j of Y."""
    X = _check_rows(space, X)
    Y = _check_rows(space, Y)
    if X.shape[1] != Y.shape[1]:
        raise SpaceError(f"signal sizes {X.shape[1]} and {Y.shape[1]} differ")
    return _norm(space, (X, Y), _PAIRS, dual=False)


def norm_rows(space: SpaceSpec, x: ad.Node) -> ad.Node:
    """Graph node of per-row norms for a (batch, size) operand."""
    return _norm(space, x, _GRAPH, dual=False)


def dual_norm_rows(space: SpaceSpec, g: ad.Node) -> ad.Node:
    """Graph node of per-row dual norms for a (batch, size) operand."""
    return _norm(space, g, _GRAPH, dual=True)


def norm(space: SpaceSpec, x) -> float:
    """Norm of one signal in its natural or flattened layout."""
    x = np.asarray(x, dtype=np.float64)
    return float(norm_batch(space, x.reshape(1, -1))[0])


def dual_norm(space: SpaceSpec, g) -> float:
    """Dual norm of one element of B*."""
    g = np.asarray(g, dtype=np.float64)
    return float(dual_norm_batch(space, g.reshape(1, -1))[0])


def dual_norm_maximizer(space: SpaceSpec, g) -> np.ndarray:
    """A signal h attaining <g, h> / ||h||_B = dual_norm(space, g).

    Returns the zero signal when g = 0.  Serves as the equality half of the
    Hoelder duality check.
    """
    g = np.asarray(g, dtype=np.float64).ravel()
    q = dual_exponent(space.p)
    if space.family == "lp":
        return np.sign(g) * np.abs(g) ** (q - 1.0)
    if space.family == "sobolev":
        u = _ROWS.fourier(g, space, -space.s)
        h = np.sign(u) * np.abs(u) ** (q - 1.0)
        return _ROWS.fourier(h, space, -space.s)
    if space.family == "weighted":
        return dual_norm_maximizer(space.base, g / space.weight) / space.weight
    # product: scale per-factor maximizers by d_i^(q-1) / ||h_i||
    out = np.zeros_like(g)
    for sub, cols in _factor_columns(space):
        di = dual_norm(sub, g[cols])
        if di > 0.0:
            hi = dual_norm_maximizer(sub, g[cols])
            out[cols] = hi * (di ** (q - 1.0) / norm(sub, hi))
    return out


def pairing(g, x) -> float:
    """Coordinate dual pairing <g, x> = sum_i g_i x_i."""
    return float(np.dot(np.asarray(g, dtype=np.float64).ravel(),
                        np.asarray(x, dtype=np.float64).ravel()))
